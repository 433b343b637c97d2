//! Fragment-dispatched semi-soundness (Def. 3.14): *every* reachable
//! instance must be completable.
//!
//! * depth ≤ 1 → **exact** via the canonical-state system (Lemma 4.3 /
//!   Thm 4.6 / Cor. 4.7): one forward pass records the reachable states
//!   and their transitions, and backward reachability from the complete
//!   states over those transitions finds any incompletable one. A pass
//!   that `max_states` cuts short answers `Unknown`.
//! * deeper forms → one bounded enumeration of the reachable states
//!   (isomorphism deduplication via the shared
//!   [`StateStore`](crate::store::StateStore)) and backward reachability
//!   from its complete states. A closed enumeration is exact: its first
//!   state that cannot reach a complete one is the counterexample. A
//!   truncated one is decided only by an exact `Fails` of a per-state
//!   completability oracle (exact when the fragment offers a method:
//!   `A+φ+`, Thm 5.5 saturation at any depth; `A+φ−`, Thm 5.2), asked
//!   in discovery order about its stuck states. The oracles share what
//!   the enumeration left of `max_states`: each runs under the
//!   remainder and spends the states it visits, so enumerated states
//!   plus the states the oracles visit stay within `max_states`. Without
//!   such a `Fails` the answer is `Unknown`.
//!
//! [`semisoundness`] is a thin wrapper over the unified
//! [`analysis`](crate::analysis) pipeline.

use crate::analysis::Budget;
use crate::completability::run_completability;
use crate::depth1::Depth1System;
use crate::explore::Explorer;
use crate::verdict::{Method, SearchStats, Verdict};
use idar_core::{GuardedForm, Update};

/// Options for [`semisoundness`] — an alias of the pipeline-wide
/// [`Budget`]: `limits` bounds the enumeration and each per-state oracle,
/// and enumerated states plus the states the oracles visit stay within
/// `max_states`.
pub type SemisoundnessOptions = Budget;

/// The result of a semi-soundness query.
#[derive(Debug, Clone)]
pub struct SemisoundnessResult {
    /// The three-valued answer.
    pub verdict: Verdict,
    /// Which algorithm ran.
    pub method: Method,
    /// When `Fails`: a run from the initial instance to an incompletable
    /// reachable instance (the workflow's "point of no return").
    pub counterexample: Option<Vec<Update>>,
    /// States enumerated / canonical states visited.
    pub stats: SearchStats,
}

/// Decide (or bound) semi-soundness of `form`.
///
/// Routes through the unified pipeline
/// ([`analyze`](crate::analysis::analyze)); use
/// [`analyze_with`](crate::analysis::analyze_with) directly to add a
/// [`VerdictCache`](crate::cache::VerdictCache).
pub fn semisoundness(form: &GuardedForm, options: &SemisoundnessOptions) -> SemisoundnessResult {
    let report = crate::analysis::analyze(
        &crate::analysis::AnalysisRequest::semisoundness(form.clone()).with_budget(options.clone()),
    );
    SemisoundnessResult {
        verdict: report.verdict,
        method: report.method,
        counterexample: report.run,
        stats: report.stats,
    }
}

/// The cold execution path behind the pipeline.
pub(crate) fn run_semisoundness(form: &GuardedForm, budget: &Budget) -> SemisoundnessResult {
    if form.schema().depth() <= 1 {
        if let Ok(sys) = Depth1System::new(form) {
            let ans = sys.semisoundness(budget.limits.max_states);
            let counterexample = ans.moves.as_ref().map(|m| sys.concretize(form, m));
            return SemisoundnessResult {
                verdict: ans.verdict,
                method: Method::Depth1Canonical,
                counterexample,
                stats: ans.stats,
            };
        }
    }
    bounded_semisoundness(form, budget)
}

fn bounded_semisoundness(form: &GuardedForm, budget: &Budget) -> SemisoundnessResult {
    let graph = Explorer::new(form, budget.limits)
        .with_symmetry(budget.symmetry)
        .graph();
    // A state that is complete, or can reach one within the enumerated
    // subgraph, is completable.
    let complete = graph.states().iter().map(|s| form.is_complete(s)).collect();
    let mut stuck = graph
        .can_reach(complete)
        .into_iter()
        .enumerate()
        .filter_map(|(i, ok)| (!ok).then_some(i));
    let trap = if graph.exact() {
        // The subgraph is the whole reachable space: stuck is incompletable.
        stuck.next()
    } else {
        // The oracles can look past the enumeration's frontier. They
        // share what the enumeration left of the state budget: each runs
        // under the remainder and spends the states it visits (at least
        // one). `force_method` is for completability, not for them.
        let mut remaining = budget.limits.max_states.saturating_sub(graph.state_count());
        let mut oracle = Budget {
            force_method: None,
            ..budget.clone()
        };
        stuck.find(|&i| {
            if remaining == 0 {
                return false;
            }
            oracle.limits.max_states = remaining;
            let sub = form.with_initial(graph.state(i).clone());
            let answer = run_completability(&sub, &oracle);
            remaining = remaining.saturating_sub(answer.stats.states.max(1));
            answer.verdict == Verdict::Fails
        })
    };
    let verdict = match trap {
        Some(_) => Verdict::Fails,
        None if graph.exact() => Verdict::Holds,
        None => Verdict::Unknown,
    };
    SemisoundnessResult {
        verdict,
        method: Method::ReachableEnumeration,
        counterexample: trap.map(|i| graph.run_to(i)),
        stats: graph.build_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completability::{completability, CompletabilityOptions};
    use crate::explore::ExploreLimits;
    use idar_core::leave;

    fn capped(cap: usize) -> SemisoundnessOptions {
        SemisoundnessOptions {
            limits: ExploreLimits {
                multiplicity_cap: Some(cap),
                ..ExploreLimits::small()
            },
            ..SemisoundnessOptions::default()
        }
    }

    #[test]
    fn section_3_5_variant_is_not_semisound() {
        // The paper's own example of a completable but non-semi-sound
        // form: final can arrive before any decision, and then blocks it.
        let g = leave::section_3_5_variant();
        let r = semisoundness(&g, &capped(2));
        assert_eq!(r.verdict, Verdict::Fails);
        let cex = r.counterexample.expect("counterexample run");
        // The counterexample replays and its final instance has `f` but no
        // decision children.
        let replay = g.replay(&cex).unwrap();
        let stuck = replay.last();
        assert!(!g.is_complete(stuck));
        assert!(idar_core::formula::holds_at_root(
            stuck,
            &idar_core::Formula::parse("f & !d[a | r]").unwrap()
        ));
    }

    #[test]
    fn depth1_exact_path_is_used() {
        use idar_core::{AccessRules, Formula, Instance, Schema};
        use std::sync::Arc;
        let schema = Arc::new(Schema::parse("g, t").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set_both(
            schema.resolve("g").unwrap(),
            Formula::parse("!t & !g").unwrap(),
            Formula::False,
        );
        rules.set_both(
            schema.resolve("t").unwrap(),
            Formula::parse("!t").unwrap(),
            Formula::False,
        );
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("g").unwrap(),
        );
        let r = semisoundness(&g, &SemisoundnessOptions::default());
        assert_eq!(r.method, Method::Depth1Canonical);
        assert_eq!(r.verdict, Verdict::Fails);
        let cex = r.counterexample.unwrap();
        assert_eq!(cex.len(), 1); // adding `t` is the point of no return
    }

    #[test]
    fn positive_deep_form_semisound() {
        // Positive rules + positive completion at depth 2: every reachable
        // state is completable via saturation (monotone), so semi-sound —
        // and the per-state oracle is exact.
        use idar_core::{AccessRules, Formula, Instance, Schema};
        use std::sync::Arc;
        let schema = Arc::new(Schema::parse("a(b, c)").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(
            idar_core::Right::Add,
            schema.resolve("a").unwrap(),
            Formula::True,
        );
        rules.set(
            idar_core::Right::Add,
            schema.resolve("a/b").unwrap(),
            Formula::True,
        );
        rules.set(
            idar_core::Right::Add,
            schema.resolve("a/c").unwrap(),
            Formula::parse("b").unwrap(),
        );
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a[b & c]").unwrap(),
        );
        let r = semisoundness(&g, &capped(2));
        // Capped enumeration cannot close (duplicates pruned), so the
        // verdict is Unknown-or-Holds; it must NOT be Fails.
        assert_ne!(r.verdict, Verdict::Fails);
    }

    #[test]
    fn deep_counterexample_is_exact_despite_caps() {
        // Depth-2 form in F(A+, φ−, 2): completion a ∧ ¬a[b], but once a
        // `b` has been added it can never be deleted (its del guard `..[t]`
        // needs a `t`, whose add guard is false). Adding `b` is the point
        // of no return. The per-state oracle is the exact NP solver
        // (Thm 5.2), so the `Fails` verdict is exact even though the
        // reachable-state enumeration itself is capped.
        use idar_core::{AccessRules, Formula, Instance, Right, Schema};
        use std::sync::Arc;
        let schema = Arc::new(Schema::parse("a(b), t").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(Right::Add, schema.resolve("a").unwrap(), Formula::True);
        rules.set(Right::Add, schema.resolve("a/b").unwrap(), Formula::True);
        rules.set(
            Right::Del,
            schema.resolve("a/b").unwrap(),
            Formula::parse("..[t]").unwrap(),
        );
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a & !a[b]").unwrap(),
        );
        // Sanity: the form itself is completable (just add a, skip b).
        let c = completability(
            &g,
            &CompletabilityOptions::with_limits(ExploreLimits::small()),
        );
        assert_eq!(c.verdict, Verdict::Holds);

        let r = semisoundness(&g, &capped(2));
        assert_eq!(r.verdict, Verdict::Fails);
        let cex = r.counterexample.unwrap();
        let replay = g.replay(&cex).unwrap();
        assert!(!g.is_complete(replay.last()));
        // The trap instance indeed contains a `b`.
        assert!(idar_core::formula::holds_at_root(
            replay.last(),
            &idar_core::Formula::parse("a[b]").unwrap()
        ));
    }

    /// The enumeration and the oracles share one state budget. In this
    /// depth-2 form, adding `t` is a trap: it blocks every later update
    /// and the completion needs `¬t`. Copies of `a` make the reachable
    /// space infinite, so every enumeration is truncated.
    #[test]
    fn oracles_share_the_enumeration_state_budget() {
        use idar_core::{AccessRules, Formula, Instance, Right, Schema};
        use std::sync::Arc;
        let schema = Arc::new(Schema::parse("a(b), t").unwrap());
        let mut rules = AccessRules::new(&schema);
        for (label, guard) in [("a", "!t"), ("a/b", "true"), ("t", "!t")] {
            let edge = schema.resolve(label).unwrap();
            rules.set(Right::Add, edge, Formula::parse(guard).unwrap());
        }
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a[b] & !t").unwrap(),
        );
        let budget = |max_states, multiplicity_cap| SemisoundnessOptions {
            limits: ExploreLimits {
                max_states,
                multiplicity_cap,
                ..ExploreLimits::small()
            },
            ..SemisoundnessOptions::default()
        };
        // A multiplicity cap truncates the enumeration early: budget is
        // left, and an oracle proves the trap incompletable.
        let r = semisoundness(&g, &budget(100, Some(1)));
        assert!(!r.stats.closed && r.stats.states < 100);
        assert_eq!(r.verdict, Verdict::Fails);
        let replay = g.replay(&r.counterexample.unwrap()).unwrap();
        assert!(idar_core::formula::holds_at_root(
            replay.last(),
            &Formula::parse("t").unwrap()
        ));
        // The enumeration reaches the trap and spends the budget: no
        // oracle may run, and the answer is an honest `Unknown`.
        let r = semisoundness(&g, &budget(4, None));
        assert_eq!(r.stats.states, 4);
        assert_eq!(r.verdict, Verdict::Unknown);
    }

    /// The oracles share the spare state budget: each runs under what
    /// the enumeration and the earlier oracles left. Here adding `t` is
    /// a trap that opens a closed 9-state space (`x` with any subset of
    /// three `y`s) where the completion `a & ¬t` never holds. The
    /// multiplicity cap truncates the enumeration at 20 states, so 5 of
    /// the 25 are left; the first trap's oracle must expand all 9 states
    /// of its space, which takes a cap above 9, so it cannot prove the
    /// trap incompletable and the answer is `Unknown`. With 10 left it
    /// can, and the answer is `Fails`.
    #[test]
    fn an_oracle_gets_only_the_states_left() {
        use idar_core::{AccessRules, Formula, Instance, Right, Schema};
        use std::sync::Arc;
        let schema = Arc::new(Schema::parse("a, t, x(y1, y2, y3)").unwrap());
        let mut rules = AccessRules::new(&schema);
        let adds = [
            ("a", "!t"),
            ("t", "!t"),
            ("x", "t & !x"),
            ("x/y1", "!y1"),
            ("x/y2", "!y2"),
            ("x/y3", "!y3"),
        ];
        for (label, guard) in adds {
            let edge = schema.resolve(label).unwrap();
            rules.set(Right::Add, edge, Formula::parse(guard).unwrap());
        }
        for label in ["x", "x/y1", "x/y2", "x/y3"] {
            rules.set(Right::Del, schema.resolve(label).unwrap(), Formula::True);
        }
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a & !t").unwrap(),
        );
        let budget = |max_states| SemisoundnessOptions {
            limits: ExploreLimits {
                max_states,
                multiplicity_cap: Some(1),
                ..ExploreLimits::small()
            },
            skip_screen: true,
            ..SemisoundnessOptions::default()
        };
        let short = semisoundness(&g, &budget(25));
        assert_eq!(short.method, Method::ReachableEnumeration);
        assert!(!short.stats.closed);
        assert_eq!(short.stats.states, 20);
        assert_eq!(short.verdict, Verdict::Unknown);
        let enough = semisoundness(&g, &budget(30));
        assert_eq!(enough.stats.states, 20);
        assert_eq!(enough.verdict, Verdict::Fails);
        let replay = g.replay(&enough.counterexample.unwrap()).unwrap();
        assert!(idar_core::formula::holds_at_root(
            replay.last(),
            &Formula::parse("t").unwrap()
        ));
    }
}
