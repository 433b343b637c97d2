//! Verdict-preserving minimisation of failing forms.
//!
//! [`shrink`] greedily applies size-reducing transformations to a guarded
//! form while a caller-supplied oracle keeps reporting "still failing".
//! Every accepted step strictly decreases [`form_size`], so shrinking is
//! **monotone** and terminates; the result is locally minimal (no single
//! transformation can shrink it further without losing the failure).
//!
//! Transformations, tried in decreasing bite size:
//!
//! 1. delete a schema subtree (with its rules and instance nodes),
//! 2. revert an explicit guard to the table default,
//! 3. replace a guard by a constant or an immediate subformula,
//! 4. delete an initial-instance leaf,
//! 5. shrink the completion formula the same way.

use crate::scenario::ScenarioSpec;
use idar_core::{
    AccessRules, Formula, GuardedForm, InstNodeId, Instance, PathExpr, PathStep, Right,
    SchemaBuilder, SchemaNodeId,
};
use std::sync::Arc;

/// The size measure shrinking is monotone in: schema nodes + live
/// initial-instance nodes + completion AST size + total AST size of
/// explicit (non-default) guards.
pub fn form_size(form: &GuardedForm) -> usize {
    let schema = form.schema();
    let default = form.rules().default_guard();
    let guards: usize = schema
        .edge_ids()
        .flat_map(|e| [Right::Add, Right::Del].map(|r| form.rules().get(r, e)))
        .filter(|g| *g != default)
        .map(Formula::size)
        .sum();
    schema.node_count() + form.initial().live_count() + form.completion().size() + guards
}

/// Minimise `form` while `still_failing` returns `true` for every
/// accepted candidate. The oracle is never consulted on forms at least as
/// large as the current one, and `shrink` returns a form on which
/// `still_failing` held (or the input unchanged if nothing smaller kept
/// failing).
pub fn shrink(
    form: &GuardedForm,
    mut still_failing: impl FnMut(&GuardedForm) -> bool,
) -> GuardedForm {
    let mut cur = form.clone();
    let mut cur_size = form_size(&cur);
    loop {
        let mut improved = false;
        for cand in candidates(&cur) {
            if form_size(&cand) < cur_size && still_failing(&cand) {
                cur_size = form_size(&cand);
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// All single-step shrink candidates of `cur`, biggest bites first.
fn candidates(cur: &GuardedForm) -> Vec<GuardedForm> {
    let schema = cur.schema();
    let default = cur.rules().default_guard().clone();
    let mut out = Vec::new();

    // 1. Schema subtree removal, newest edges first (leaves before trunks).
    let edges: Vec<SchemaNodeId> = schema.edge_ids().collect();
    for &e in edges.iter().rev() {
        out.push(remove_schema_subtree(cur, e));
    }

    // 2./3. Guard simplification.
    for &e in &edges {
        for right in [Right::Add, Right::Del] {
            let g = cur.rules().get(right, e);
            if g == &default {
                continue;
            }
            let mut replacements = vec![default.clone()];
            replacements.extend(formula_shrinks(g));
            for repl in replacements {
                let mut rules = cur.rules().clone();
                rules.set(right, e, repl);
                out.push(GuardedForm::new(
                    schema.clone(),
                    rules,
                    cur.initial().clone(),
                    cur.completion().clone(),
                ));
            }
        }
    }

    // 4. Initial-instance leaf removal.
    let leaves: Vec<InstNodeId> = cur
        .initial()
        .live_nodes()
        .filter(|&n| n != InstNodeId::ROOT && cur.initial().is_leaf(n))
        .collect();
    for n in leaves {
        let mut init = cur.initial().clone();
        init.remove_leaf(n).expect("live leaf");
        out.push(cur.with_initial(init));
    }

    // 5. Completion shrinks.
    for repl in formula_shrinks(cur.completion()) {
        out.push(cur.with_completion(repl));
    }

    out
}

/// Constants and immediate subformulas of `f`, all strictly smaller.
fn formula_shrinks(f: &Formula) -> Vec<Formula> {
    let mut out = Vec::new();
    if f.size() > 1 {
        out.push(Formula::True);
        out.push(Formula::False);
    }
    // Chains and paths split as the left-nested binary trees of Def. 3.4
    // would: all but the last operand or step, and the last.
    match f {
        Formula::Not(a) => out.push((**a).clone()),
        Formula::And(fs) | Formula::Or(fs) => {
            let (last, init) = fs.split_last().expect("chains have operands");
            out.push(match f {
                Formula::And(_) => Formula::conj(init.iter().cloned()),
                _ => Formula::disj(init.iter().cloned()),
            });
            out.push(last.clone());
        }
        Formula::Path(p) => {
            if let Some((PathStep::Filter(inner), init)) = p.steps().split_last() {
                out.push(Formula::Path(PathExpr::from_steps(init.to_vec())));
                out.push((**inner).clone());
            }
        }
        _ => {}
    }
    out
}

/// Rebuild `cur` without the schema subtree rooted at `removed`: rules on
/// removed edges are dropped, initial-instance nodes mapped into the
/// subtree are dropped with it, formulas are kept verbatim (a label step
/// into a removed subtree simply never matches).
fn remove_schema_subtree(cur: &GuardedForm, removed: SchemaNodeId) -> GuardedForm {
    let schema = cur.schema();
    let mut gone = vec![false; schema.node_count()];
    gone[removed.index()] = true;
    for id in schema.edge_ids() {
        // Creation order is topological, so parents are marked first.
        if let Some(p) = schema.parent(id) {
            if gone[p.index()] {
                gone[id.index()] = true;
            }
        }
    }

    let mut b = SchemaBuilder::new();
    let mut map = vec![SchemaNodeId::ROOT; schema.node_count()];
    for id in schema.edge_ids() {
        if gone[id.index()] {
            continue;
        }
        let p = schema.parent(id).expect("edge");
        map[id.index()] = b
            .child(map[p.index()], schema.label(id))
            .expect("sibling uniqueness is inherited");
    }
    let new_schema = Arc::new(b.build());

    let default = cur.rules().default_guard().clone();
    let mut rules = AccessRules::with_default(&new_schema, default.clone());
    for id in schema.edge_ids() {
        if gone[id.index()] {
            continue;
        }
        for right in [Right::Add, Right::Del] {
            let g = cur.rules().get(right, id);
            if g != &default {
                rules.set(right, map[id.index()], g.clone());
            }
        }
    }

    let old_init = cur.initial();
    let mut init = Instance::empty(new_schema.clone());
    let mut imap = vec![InstNodeId::ROOT; old_init.slot_count()];
    for n in old_init.live_nodes() {
        if n == InstNodeId::ROOT {
            continue;
        }
        let sn = old_init.schema_node(n);
        if gone[sn.index()] {
            continue;
        }
        let p = old_init.parent(n).expect("non-root");
        // A surviving schema node's ancestors survive, so the parent was
        // mapped already (live_nodes is parent-before-child).
        let np = imap[p.index()];
        imap[n.index()] = init
            .add_child(np, map[sn.index()])
            .expect("schema edge preserved");
    }

    GuardedForm::new(new_schema, rules, init, cur.completion().clone())
}

/// The size measure scenario shrinking is monotone in: user-pool size +
/// per-level structure (approvers, delegations, rejection loops) +
/// duty count.
pub fn scenario_size(spec: &ScenarioSpec) -> usize {
    spec.chain.users
        + spec
            .chain
            .levels
            .iter()
            .map(|l| {
                1 + l.approvers.len() + l.delegations.len() + usize::from(l.rejection.is_some())
            })
            .sum::<usize>()
        + spec.constraints.len()
}

/// Minimise a failing [`ScenarioSpec`] the way [`shrink`] minimises a
/// form: greedily accept the first strictly smaller candidate the oracle
/// still rejects, so fuzz failures on the scenario axes report minimal
/// chains before the form-level shrinker takes over. Every candidate is
/// a *valid* spec (`chain.validate()` and `constraints.validate()` both
/// pass), so the repro always rebuilds.
pub fn shrink_scenario(
    spec: &ScenarioSpec,
    mut still_failing: impl FnMut(&ScenarioSpec) -> bool,
) -> ScenarioSpec {
    let mut cur = spec.clone();
    let mut cur_size = scenario_size(&cur);
    loop {
        let mut improved = false;
        for cand in scenario_candidates(&cur) {
            debug_assert!(cand.chain.validate().is_ok());
            if scenario_size(&cand) < cur_size && still_failing(&cand) {
                cur_size = scenario_size(&cand);
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// All valid single-step scenario shrink candidates, biggest bites first:
/// drop the last level (with the duties touching it), drop a duty, drop
/// a rejection loop, drop a delegation, drop an approver, trim the user
/// pool to the ids actually referenced.
fn scenario_candidates(cur: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let levels = cur.chain.levels.len();

    // 1. Drop any one level: duties touching it disappear, duties and
    // rejection targets beyond it are renumbered down.
    if levels > 1 {
        for n in (1..=levels).rev() {
            let mut c = cur.clone();
            c.chain.levels.remove(n - 1);
            let shift = |s: usize| if s > n { s - 1 } else { s };
            c.constraints = crate::constraints::ConstraintSet::of(
                c.constraints
                    .iter()
                    .filter(|d| d.a != n && d.b != n)
                    .map(|d| {
                        let mut d = *d;
                        d.a = shift(d.a);
                        d.b = shift(d.b);
                        d
                    }),
            );
            for (ix, l) in c.chain.levels.iter_mut().enumerate() {
                let m = ix + 1; // new 1-based number
                if let Some(k) = l.rejection {
                    let nk = if k > n {
                        k - 1
                    } else if k == n {
                        n.saturating_sub(1).max(1)
                    } else {
                        k
                    };
                    l.rejection = if nk < m { Some(nk) } else { None };
                }
            }
            if c.chain.validate().is_ok() {
                out.push(c);
            }
        }
    }

    // 2. Drop one duty.
    for ix in 0..cur.constraints.len() {
        let mut c = cur.clone();
        c.constraints.remove(ix);
        out.push(c);
    }

    // 3./4./5. Per-level bites.
    for ix in 0..levels {
        if cur.chain.levels[ix].rejection.is_some() {
            let mut c = cur.clone();
            c.chain.levels[ix].rejection = None;
            out.push(c);
        }
        for d in 0..cur.chain.levels[ix].delegations.len() {
            let mut c = cur.clone();
            c.chain.levels[ix].delegations.remove(d);
            if c.chain.eligible(ix).is_empty() {
                continue; // the level must stay signable
            }
            out.push(c);
        }
        for a in 0..cur.chain.levels[ix].approvers.len() {
            let mut c = cur.clone();
            c.chain.levels[ix].approvers.remove(a);
            if c.chain.eligible(ix).is_empty() {
                continue;
            }
            out.push(c);
        }
    }

    // 6. Trim the user pool to what is referenced.
    let referenced = cur
        .chain
        .levels
        .iter()
        .flat_map(|l| {
            l.approvers
                .iter()
                .copied()
                .chain(l.delegations.iter().flat_map(|&(f, t)| [f, t]))
        })
        .max()
        .map_or(1, |m| m + 1);
    if referenced < cur.chain.users {
        let mut c = cur.clone();
        c.chain.users = referenced;
        out.push(c);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FragmentSpec, GenConfig};
    use crate::form::generate;

    #[test]
    fn shrink_is_monotone_and_preserves_oracle() {
        for seed in 0..30u64 {
            let g = generate(&GenConfig::new(FragmentSpec::Guarded), seed);
            let before = form_size(&g);
            // Oracle: the schema still has at least one edge.
            let oracle = |f: &GuardedForm| f.schema().edge_count() >= 1;
            assert!(oracle(&g));
            let small = shrink(&g, oracle);
            assert!(form_size(&small) <= before);
            assert!(oracle(&small));
            // Locally minimal for this oracle: exactly one edge remains,
            // no explicit guards, empty instance, trivial completion.
            assert_eq!(small.schema().edge_count(), 1);
            assert_eq!(small.initial().live_count(), 1);
            assert_eq!(small.completion().size(), 1);
        }
    }

    #[test]
    fn shrink_preserves_completability_verdict() {
        use idar_solver::{completability, CompletabilityOptions, ExploreLimits, Verdict};
        let opts = CompletabilityOptions::with_limits(ExploreLimits {
            max_states: 5_000,
            max_state_size: 24,
            max_depth: 32,
            multiplicity_cap: Some(2),
        });
        let mut shrunk_any = false;
        for seed in 0..12u64 {
            let g = generate(&GenConfig::new(FragmentSpec::Guarded), seed);
            let verdict = completability(&g, &opts).verdict;
            if verdict == Verdict::Unknown {
                continue;
            }
            let small = shrink(&g, |f| completability(f, &opts).verdict == verdict);
            assert_eq!(
                completability(&small, &opts).verdict,
                verdict,
                "seed {seed}"
            );
            assert!(form_size(&small) <= form_size(&g));
            if form_size(&small) < form_size(&g) {
                shrunk_any = true;
            }
        }
        assert!(shrunk_any, "shrinker never made progress on any seed");
    }

    #[test]
    fn scenario_shrink_reaches_minimal_failing_spec() {
        use crate::constraints::{constrained_completable, Constraint, ConstraintSet};
        use crate::scenario::{ChainSpec, ScenarioSpec};
        // A big chain whose SoD pair over a single shared approver makes
        // it incompletable; the minimal spec keeping that failure is the
        // two constrained levels with one user each.
        let mut chain = ChainSpec::simple(5, 1, 1);
        chain.users = 3;
        chain.levels[0].approvers = vec![0];
        chain.levels[4].approvers = vec![0];
        let spec = ScenarioSpec {
            chain,
            constraints: ConstraintSet::of([Constraint::separation(1, 5)]),
        };
        let failing = |s: &ScenarioSpec| constrained_completable(s, 50_000) == Some(false);
        assert!(failing(&spec));
        let small = shrink_scenario(&spec, failing);
        assert!(failing(&small));
        assert!(scenario_size(&small) < scenario_size(&spec));
        assert_eq!(small.chain.levels.len(), 2);
        assert_eq!(small.chain.users, 1);
        assert_eq!(small.constraints.len(), 1);
    }

    #[test]
    fn remove_subtree_drops_rules_and_instance_nodes() {
        let g = generate(&GenConfig::new(FragmentSpec::Guarded), 3);
        let schema = g.schema();
        let last = schema.edge_ids().last().unwrap();
        let g2 = remove_schema_subtree(&g, last);
        assert!(g2.schema().node_count() < schema.node_count());
        assert!(g2.initial().live_count() <= g.initial().live_count());
        // The surviving form serializes and round-trips.
        let text = idar_core::serialize::to_ron(&g2);
        assert!(idar_core::serialize::from_ron(&text).is_ok());
    }
}
