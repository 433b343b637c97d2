//! The **static screener**: sound pre-exploration analysis of guarded
//! forms, in polynomial time and with zero state expansion.
//!
//! Table 1 shows large fragments decidable by reasoning over the rules
//! alone; even outside them, a sound over/under-approximation can refute
//! or confirm completability before any state is built. The screener
//! combines three ingredients:
//!
//! 1. **Wake lists**: which schema nodes each `add` guard depends on
//!    ([`idar_core::deps::guard_deps`], read off the guards the screener
//!    normalises once), inverted into a worklist relation — when a label
//!    becomes addable, only the rules depending on it are re-examined.
//! 2. **May/must abstract interpretation**: a fixpoint over schema nodes.
//!    `may` over-approximates the nodes that can appear in *some*
//!    reachable instance (upper bound); `must` under-approximates the
//!    root children present in *every* reachable instance (lower bound:
//!    initially present and with a statically unfireable `del` guard).
//!    Whether a guard can fire is decided by the CDCL engine on a
//!    propositional **guard abstraction** (below), so propositionally
//!    contradictory guards like `a ∧ ¬a` are recognised as unfireable —
//!    a three-valued evaluation would miss them.
//! 3. **A greedy chase**: a deterministic concrete witness search that
//!    only ever *adds* edges (one sibling per schema edge, exactly the
//!    bound of Thm 5.5's saturation) and checks the completion formula
//!    after every addition. Any run it finds is a real run, so `Holds`
//!    verdicts are sound for *every* fragment — including `A−` forms
//!    whose guards mention negation, as long as a monotone witness
//!    exists.
//!
//! ## The guard abstraction
//!
//! A guard `A(right, e)` is evaluated at the schema parent of `e`
//! (Sec. 3.4). Its step normal form (Lemma 4.4) is translated to a
//! propositional formula with one variable per distinct
//! *(evaluation node, atom)* pair, folding in the may/must sets:
//!
//! * `l` resolving outside the may-set → constant **false** (no reachable
//!   instance has such a child);
//! * `l` at the root with `l` in the must-set → constant **true**;
//! * `..` → **false** at the root, **true** elsewhere (structural);
//! * `..[ψ]` → `ψ` re-anchored at the unique schema parent (sound and
//!   precise: the parent is one concrete node);
//! * `l[ψ]` → an opaque variable (decomposing through a child would
//!   conflate *different* siblings — unsound), plus the implication
//!   `l[ψ] → l` for precision.
//!
//! Every valuation realised at a node of a reachable instance is a model
//! of the abstraction (induction over run length, using the may/must
//! invariants), so **UNSAT ⇒ the guard can never fire**. The same
//! translation applied to the completion formula at the root gives the
//! `StaticNo` verdict: if no valuation satisfies the abstraction, no
//! reachable instance is complete — completability `Fails` for the form,
//! and (the initial instance being reachable and incompletable)
//! semi-soundness `Fails` too.
//!
//! An abstraction that constant folding leaves open is decided by trying
//! all `2^k` assignments when it has at most 8 atoms (exact, no budget),
//! and by the budgeted CDCL engine on its Tseitin encoding otherwise.
//!
//! ## Dead rules
//!
//! After the fixpoint, a rule is **dead** when it can never fire: its
//! evaluation node is outside the may-set, the deleted node can never
//! exist, or its guard abstraction is UNSAT. A dead rule's guard is false
//! at every node of every reachable instance, so rewriting it to the
//! constant `false` ([`prune`]) changes *no* allowed update anywhere:
//! pruned exploration visits the same states in the same order and
//! returns bit-identical verdicts and statistics. Inconclusive screens
//! still hand the explorer this smaller rule table.
//!
//! Most of these verdicts are already known when the fixpoint stops
//! because `must` is stable: its last round ran under the final sets. An
//! `add` rule whose target joined the may-set is live (the abstraction
//! only gains models as `may` grows); one whose parent is in the may-set
//! but whose target is not was re-checked after its last dependency
//! changed, and was UNSAT then; the `del` rules of initially present root
//! children are dead exactly when their node is in the must-set. Only the
//! `add` rules of edges present in the initial instance (which the
//! fixpoint never checks) and the other `del` rules are decided afresh.
//! If the round cap stops the fixpoint instead, every rule is re-checked.

use crate::satengine::solve_abstraction_budgeted;
use crate::verdict::Verdict;
use idar_core::deps::{guard_deps, RuleId};
use idar_core::formula::StepFormula;
use idar_core::{Formula, GuardedForm, InstNodeId, Right, Schema, SchemaNodeId, Update};
use idar_logic::prop::PropFormula;
use idar_logic::{Assignment, Engine, Var};
use std::collections::HashMap;

/// Counters from one screener pass (polynomial everything).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Outer may/must alternation rounds until the fixpoint stabilised.
    pub rounds: usize,
    /// Guard/completion abstractions that constant folding left open,
    /// each decided by evaluation (at most 8 atoms) or by CDCL. Dead-rule
    /// detection reuses the fixpoint's last decisions, so this counts each
    /// rule about once.
    pub sat_checks: usize,
    /// Schema nodes in the final may-set (including the root).
    pub may_size: usize,
    /// Root children in the final must-set.
    pub must_size: usize,
    /// Additions performed by the greedy chase.
    pub chase_steps: usize,
    /// Rules found dead (guard statically unfireable).
    pub dead_rules: usize,
}

/// The screener's answer for one decision problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScreenOutcome {
    /// A sound verdict, with a witness run where one exists (a complete
    /// run for completability `Holds`; the empty run — the initial
    /// instance is itself incompletable — for semi-soundness `Fails`).
    Decided(Verdict, Option<Vec<Update>>),
    /// The screener could not decide; exploration is still needed.
    Inconclusive,
}

impl ScreenOutcome {
    /// The verdict, when decided.
    pub fn verdict(&self) -> Option<Verdict> {
        match self {
            ScreenOutcome::Decided(v, _) => Some(*v),
            ScreenOutcome::Inconclusive => None,
        }
    }
}

/// Everything one screener pass produces: per-problem outcomes, the dead
/// rules, and counters.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Completability of the form.
    pub completability: ScreenOutcome,
    /// Semi-soundness of the form.
    pub semisoundness: ScreenOutcome,
    /// Rules that can never fire (excluding guards already syntactically
    /// `false`). Feed to [`prune`] to shrink the explorer's work.
    pub dead_rules: Vec<RuleId>,
    /// Counters.
    pub stats: ScreenStats,
}

/// Conflict budget per CDCL consultation. Screener abstractions are tiny
/// (one variable per guard atom), but the budget keeps the workspace's
/// honest-bounded-search contract: exhausting it degrades the answer to
/// "inconclusive"/"live", never to a wrong verdict.
const SCREEN_SAT_BUDGET: u64 = 20_000;

/// Abstractions of at most this many atoms are decided by evaluating
/// every assignment (at most 256): exact, with no conflict budget, and
/// cheaper than a Tseitin encoding and a fresh CDCL solver.
const SCREEN_EVAL_MAX_ATOMS: usize = 8;

/// Screen `form` statically. Zero states are expanded; the only concrete
/// object ever built is the greedy chase's single growing instance
/// (bounded by one sibling per (node, schema edge), as in Thm 5.5).
pub fn screen(form: &GuardedForm) -> ScreenReport {
    screen_with_sets(form).0
}

/// [`screen`], also returning the final may- and must-sets.
fn screen_with_sets(form: &GuardedForm) -> (ScreenReport, Vec<bool>, Vec<bool>) {
    let schema = form.schema().clone();
    let mut stats = ScreenStats::default();

    // Normalise every guard once (evaluated at the edge's parent).
    let n = schema.node_count();
    let add_guards = normalised(form, Right::Add);
    let del_guards = normalised(form, Right::Del);
    let wake = wake_lists(&schema, &add_guards);

    // Alternating may/must fixpoint. `must` only grows (more constants
    // fold, more del-guards go UNSAT), `may` only shrinks; both are sound
    // at every round, so the first stable pair is the answer.
    let initial_present = initially_present(form);
    let mut must = vec![false; n];
    let (mut may, mut add_unsat);
    let settled = loop {
        stats.rounds += 1;
        (may, add_unsat) = compute_may(form, &schema, &wake, &add_guards, &must, &mut stats);
        let new_must = compute_must(
            &schema,
            &initial_present,
            &del_guards,
            &may,
            &must,
            &mut stats,
        );
        let settled = new_must == must;
        must = new_must;
        if settled || stats.rounds > n + 1 {
            break settled;
        }
    };
    stats.may_size = may.iter().filter(|&&b| b).count();
    stats.must_size = must.iter().filter(|&&b| b).count();

    // Dead rules: structurally impossible or guard abstraction UNSAT. Once
    // `must` has settled, the last rounds of `compute_may` and
    // `compute_must` ran under the final sets, so their verdicts are
    // reused; only the rules they never checked are decided here.
    if !settled {
        add_unsat.fill(None);
    }
    let mut dead_rules = Vec::new();
    for e in schema.edge_ids() {
        let p = schema.parent(e).expect("edges have parents");
        if *form.rules().get(Right::Add, e) != Formula::False {
            let guard = add_guards[e.index()].as_ref().expect("prenormalised");
            if !may[p.index()]
                || add_unsat[e.index()]
                    .unwrap_or_else(|| guard_unsat(&schema, p, guard, &may, &must, &mut stats))
            {
                dead_rules.push(RuleId {
                    right: Right::Add,
                    edge: e,
                });
            }
        }
        if *form.rules().get(Right::Del, e) != Formula::False {
            let guard = del_guards[e.index()].as_ref().expect("prenormalised");
            // `compute_must` checked the initially present root children.
            let checked = settled && p == SchemaNodeId::ROOT && initial_present[e.index()];
            if !may[e.index()]
                || if checked {
                    must[e.index()]
                } else {
                    guard_unsat(&schema, p, guard, &may, &must, &mut stats)
                }
            {
                dead_rules.push(RuleId {
                    right: Right::Del,
                    edge: e,
                });
            }
        }
    }
    stats.dead_rules = dead_rules.len();

    // StaticNo: the completion abstraction at the root is UNSAT over the
    // may/must sets ⇒ no reachable instance is complete.
    let completion = StepFormula::from_formula(form.completion());
    let static_no = guard_unsat(
        &schema,
        SchemaNodeId::ROOT,
        &completion,
        &may,
        &must,
        &mut stats,
    );

    // StaticYes: the greedy chase found a concrete complete run.
    let chase = if static_no {
        None
    } else {
        chase(form, &mut stats)
    };

    let completability = if static_no {
        ScreenOutcome::Decided(Verdict::Fails, None)
    } else if let Some(run) = &chase {
        ScreenOutcome::Decided(Verdict::Holds, Some(run.clone()))
    } else {
        ScreenOutcome::Inconclusive
    };

    // Semi-soundness: `Fails` transfers from completability `Fails` (the
    // initial instance is reachable and incompletable — the empty run is
    // the counterexample). `Holds` needs the deletion-free positive
    // fragment: there, guards and the completion formula are monotone
    // under additions, so the chase's witness run stays valid from any
    // reachable instance (which is the initial instance plus additions),
    // making every reachable state completable. Outside that fragment a
    // completable initial instance proves nothing about its successors.
    let semisoundness = if static_no {
        ScreenOutcome::Decided(Verdict::Fails, Some(Vec::new()))
    } else if chase.is_some()
        && form.is_deletion_free()
        && form.rules().all_positive(&schema)
        && form.completion().is_positive()
    {
        ScreenOutcome::Decided(Verdict::Holds, None)
    } else {
        ScreenOutcome::Inconclusive
    };

    let report = ScreenReport {
        completability,
        semisoundness,
        dead_rules,
        stats,
    };
    (report, may, must)
}

/// Rewrite every dead rule's guard to the constant `false`. The returned
/// form has the same schema, initial instance, and completion formula,
/// and — dead rules being unfireable — the same reachable state graph.
pub fn prune(form: &GuardedForm, dead: &[RuleId]) -> GuardedForm {
    if dead.is_empty() {
        return form.clone();
    }
    let mut rules = form.rules().clone();
    for rule in dead {
        rules.set(rule.right, rule.edge, Formula::False);
    }
    GuardedForm::new(
        form.schema().clone(),
        rules,
        form.initial().clone(),
        form.completion().clone(),
    )
}

/// Schema nodes instantiated by the initial instance (plus the root).
fn initially_present(form: &GuardedForm) -> Vec<bool> {
    let mut present = vec![false; form.schema().node_count()];
    let init = form.initial();
    for node in init.live_nodes() {
        present[init.schema_node(node).index()] = true;
    }
    present[SchemaNodeId::ROOT.index()] = true;
    present
}

/// Every guard of `right` in step normal form, indexed by its edge (the
/// root has none).
fn normalised(form: &GuardedForm, right: Right) -> Vec<Option<StepFormula>> {
    let mut guards = vec![None; form.schema().node_count()];
    for e in form.schema().edge_ids() {
        guards[e.index()] = Some(StepFormula::from_formula(form.rules().get(right, e)));
    }
    guards
}

/// `wake[d]`: the edges whose `add` guard reads the may-bit of schema node
/// `d` ([`guard_deps`], the rule enablement relation inverted). Only add
/// rules are re-examined by [`compute_may`], so delete guards are not
/// walked.
fn wake_lists(schema: &Schema, add_guards: &[Option<StepFormula>]) -> Vec<Vec<SchemaNodeId>> {
    let mut wake = vec![Vec::new(); schema.node_count()];
    for e in schema.edge_ids() {
        let p = schema.parent(e).expect("edges have parents");
        let guard = add_guards[e.index()].as_ref().expect("prenormalised");
        for d in guard_deps(schema, p, guard) {
            wake[d.index()].push(e);
        }
    }
    wake
}

/// The may-fixpoint: starting from the initially present nodes, add the
/// target of every `add` rule whose parent is reachable and whose guard
/// abstraction is satisfiable, to exhaustion. The wake lists keep the
/// worklist sparse: a node joining the may-set only re-queues the rules
/// depending on it and the edges below it.
///
/// Also returns, per edge, the last verdict of its `add` guard
/// ([`decide_guard`]; `Some(true)` is UNSAT), which holds under the
/// returned set too. An edge left out of a may-set that holds its parent
/// was re-queued after every change it depends on, so its last check ran
/// under that set. An edge that joined was satisfiable under a subset of
/// it, and the abstraction only gains models as `may` grows; unless a
/// budget ran out, which leaves the verdict `None`, as for edges never
/// checked (initially present ones, and those whose parent never joined).
fn compute_may(
    form: &GuardedForm,
    schema: &Schema,
    wake: &[Vec<SchemaNodeId>],
    add_guards: &[Option<StepFormula>],
    must: &[bool],
    stats: &mut ScreenStats,
) -> (Vec<bool>, Vec<Option<bool>>) {
    let mut may = initially_present(form);
    let mut unsat = vec![None; schema.node_count()];
    // Seed: every edge is worth one look.
    let mut pending: Vec<SchemaNodeId> = schema.edge_ids().collect();
    let mut queued = vec![true; schema.node_count()];
    while let Some(e) = pending.pop() {
        queued[e.index()] = false;
        if may[e.index()] {
            continue;
        }
        let p = schema.parent(e).expect("edges have parents");
        if !may[p.index()] {
            continue;
        }
        let guard = add_guards[e.index()].as_ref().expect("prenormalised");
        let verdict = decide_guard(schema, p, guard, &may, must, stats);
        unsat[e.index()] = verdict;
        if verdict == Some(true) {
            continue;
        }
        may[e.index()] = true;
        // Re-examine rules whose guards depend on the new node, and the
        // edges whose parent just became reachable.
        for &w in wake[e.index()].iter().chain(schema.children(e)) {
            if !may[w.index()] && !queued[w.index()] {
                queued[w.index()] = true;
                pending.push(w);
            }
        }
    }
    (may, unsat)
}

/// The must-set: root children that are initially present and whose `del`
/// guard can never fire (abstraction UNSAT over the current may/must).
/// Restricted to depth 1 — deeper nodes' permanence would additionally
/// require their ancestors' permanence, which the root trivially has.
fn compute_must(
    schema: &Schema,
    initial_present: &[bool],
    del_guards: &[Option<StepFormula>],
    may: &[bool],
    must: &[bool],
    stats: &mut ScreenStats,
) -> Vec<bool> {
    let mut out = vec![false; schema.node_count()];
    for &c in schema.children(SchemaNodeId::ROOT) {
        if !initial_present[c.index()] {
            continue;
        }
        let guard = del_guards[c.index()].as_ref().expect("prenormalised");
        if guard_unsat(schema, SchemaNodeId::ROOT, guard, may, must, stats) {
            out[c.index()] = true;
        }
    }
    out
}

/// Is the abstraction of `f`, evaluated at schema node `at`, UNSAT?
/// `false` is inconclusive (satisfiable, or the budget ran out).
fn guard_unsat(
    schema: &Schema,
    at: SchemaNodeId,
    f: &StepFormula,
    may: &[bool],
    must: &[bool],
    stats: &mut ScreenStats,
) -> bool {
    decide_guard(schema, at, f, may, must, stats) == Some(true)
}

/// Decide the abstraction of `f`, evaluated at schema node `at`:
/// `Some(true)` is UNSAT, `Some(false)` satisfiable, and `None` means a
/// conflict budget ran out on the way (inconclusive, read as satisfiable).
fn decide_guard(
    schema: &Schema,
    at: SchemaNodeId,
    f: &StepFormula,
    may: &[bool],
    must: &[bool],
    stats: &mut ScreenStats,
) -> Option<bool> {
    let mut tr = Translator {
        schema,
        may,
        must,
        atoms: HashMap::new(),
        implications: Vec::new(),
        sat_checks: 0,
        exhausted: false,
    };
    let unsat = tr.unsat(at, f);
    stats.sat_checks += tr.sat_checks;
    (unsat || !tr.exhausted).then_some(unsat)
}

/// Is `f`, over variables `0..k`, satisfied by one of the `2^k`
/// assignments?
fn satisfiable_by_evaluation(f: &PropFormula, k: usize) -> bool {
    let mut a = Assignment::all_false(k);
    (0..1u32 << k).any(|bits| {
        for i in 0..k {
            a.set(Var(i as u32), (bits >> i) & 1 == 1);
        }
        f.eval(&a)
    })
}

/// Eval-point-aware translation of a step formula into a propositional
/// formula over (evaluation node, atom) variables, folding the may/must
/// constants. See the module docs for the rules and their soundness.
struct Translator<'a> {
    schema: &'a Schema,
    may: &'a [bool],
    must: &'a [bool],
    /// The variable of each atom.
    atoms: HashMap<(SchemaNodeId, StepFormula), usize>,
    implications: Vec<PropFormula>,
    sat_checks: usize,
    /// A conflict budget ran out in some decision.
    exhausted: bool,
}

impl Translator<'_> {
    /// Translate `f` at `at` in a fresh variable space and decide
    /// satisfiability of the abstraction. `true` means UNSAT (sound);
    /// `false` is inconclusive.
    fn unsat(&mut self, at: SchemaNodeId, f: &StepFormula) -> bool {
        let saved_atoms = std::mem::take(&mut self.atoms);
        let saved_imps = std::mem::take(&mut self.implications);
        let mut prop = self.translate(at, f);
        for imp in std::mem::take(&mut self.implications) {
            prop = prop.and(imp);
        }
        let n_atoms = self.atoms.len();
        self.atoms = saved_atoms;
        self.implications = saved_imps;
        let folded = prop.const_fold();
        if let PropFormula::Const(b) = folded {
            return !b;
        }
        self.sat_checks += 1;
        if n_atoms <= SCREEN_EVAL_MAX_ATOMS {
            return !satisfiable_by_evaluation(&folded, n_atoms);
        }
        match solve_abstraction_budgeted(&folded, n_atoms, Engine::Cdcl, SCREEN_SAT_BUDGET) {
            Some(model) => model.is_none(),
            None => {
                self.exhausted = true;
                false
            }
        }
    }

    fn var_for(&mut self, at: SchemaNodeId, atom: &StepFormula) -> PropFormula {
        let next = self.atoms.len();
        let i = *self.atoms.entry((at, atom.clone())).or_insert(next);
        PropFormula::var(i as u32)
    }

    fn translate(&mut self, at: SchemaNodeId, f: &StepFormula) -> PropFormula {
        match f {
            StepFormula::True => PropFormula::Const(true),
            StepFormula::False => PropFormula::Const(false),
            StepFormula::Parent => PropFormula::Const(at != SchemaNodeId::ROOT),
            StepFormula::ParentSat(inner) => match self.schema.parent(at) {
                // The schema parent is unique, so re-anchoring is sound.
                Some(p) => self.translate(p, inner),
                None => PropFormula::Const(false),
            },
            StepFormula::Child(l) => self.child_atom(at, l),
            StepFormula::ChildSat(l, inner) => match self.schema.child_by_label(at, l) {
                // The residual is checked *separately* at the child (a
                // fresh variable space, so no sibling conflation): if no
                // single node can satisfy it, the atom is false.
                Some(c) if self.may[c.index()] && !self.unsat(c, inner) => {
                    // Otherwise opaque — decomposing in-place would
                    // conflate distinct siblings. Keep `l[ψ] → l`.
                    let v = self.var_for(at, f);
                    let child = self.child_atom(at, l);
                    if !matches!(child, PropFormula::Const(true)) {
                        self.implications.push(v.clone().not().or(child));
                    }
                    v
                }
                _ => PropFormula::Const(false),
            },
            StepFormula::Not(g) => self.translate(at, g).not(),
            StepFormula::And(fs) => PropFormula::conj(fs.iter().map(|g| self.translate(at, g))),
            StepFormula::Or(fs) => PropFormula::disj(fs.iter().map(|g| self.translate(at, g))),
        }
    }

    fn child_atom(&mut self, at: SchemaNodeId, l: &str) -> PropFormula {
        match self.schema.child_by_label(at, l) {
            Some(c) if self.may[c.index()] => {
                if at == SchemaNodeId::ROOT && self.must[c.index()] {
                    PropFormula::Const(true)
                } else {
                    self.var_for(at, &StepFormula::Child(l.to_string()))
                }
            }
            _ => PropFormula::Const(false),
        }
    }
}

/// The greedy chase: sweep (node, schema edge) pairs in id order, add
/// whenever the guard concretely holds and no sibling along that edge
/// exists yet, and test the completion formula at the start and after
/// every addition. Stops at the first complete instance (a sound
/// `Holds`, any fragment) or at a no-progress sweep (inconclusive).
/// Terminates within `|I₀| · |M|` additions (one sibling per pair).
///
/// A positive completion formula is monotone under additions, so it is
/// tested once per sweep instead, and a sweep that completes it is
/// bisected for its first complete prefix: the same run, with a number of
/// tests logarithmic rather than linear in the sweep's additions.
fn chase(form: &GuardedForm, stats: &mut ScreenStats) -> Option<Vec<Update>> {
    let schema = form.schema().clone();
    let mut inst = form.initial().clone();
    let mut run: Vec<Update> = Vec::new();
    if form.is_complete(&inst) {
        return Some(run);
    }
    let monotone = form.completion().is_positive();
    // `filled[e]`: the swept node has a child along edge `e`.
    let mut filled = vec![false; schema.node_count()];
    loop {
        let swept = run.len();
        let nodes: Vec<InstNodeId> = inst.live_nodes().collect();
        for node in nodes {
            let children: Vec<SchemaNodeId> = inst
                .children(node)
                .iter()
                .map(|&c| inst.schema_node(c))
                .collect();
            children.iter().for_each(|c| filled[c.index()] = true);
            for &edge in schema.children(inst.schema_node(node)) {
                let u = Update::Add { parent: node, edge };
                if filled[edge.index()] || !form.is_allowed(&inst, &u) {
                    continue;
                }
                form.apply_unchecked(&mut inst, &u)
                    .expect("guard checked, schema edge valid");
                run.push(u);
                if !monotone && form.is_complete(&inst) {
                    return Some(chased(form, run, stats));
                }
            }
            children.iter().for_each(|c| filled[c.index()] = false);
        }
        if run.len() == swept {
            stats.chase_steps += run.len();
            return None;
        }
        if monotone && form.is_complete(&inst) {
            // Prefixes of `lo` additions are incomplete, of `hi` complete.
            let (mut lo, mut hi) = (swept, run.len());
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let mut prefix = form.initial().clone();
                for u in &run[..mid] {
                    form.apply_unchecked(&mut prefix, u).expect("replays");
                }
                if form.is_complete(&prefix) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            run.truncate(hi);
            return Some(chased(form, run, stats));
        }
    }
}

/// Count a complete chase run's additions.
fn chased(form: &GuardedForm, run: Vec<Update>, stats: &mut ScreenStats) -> Vec<Update> {
    debug_assert!(form.is_complete_run(&run));
    stats.chase_steps += run.len();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Instance};
    use std::sync::Arc;

    fn form(schema: &str, rules: &[(&str, &str)], initial: &str, completion: &str) -> GuardedForm {
        let schema = Arc::new(Schema::parse(schema).unwrap());
        let mut table = AccessRules::new(&schema);
        for (l, add) in rules {
            table.set(
                Right::Add,
                schema.resolve(l).unwrap(),
                Formula::parse(add).unwrap(),
            );
        }
        let init = Instance::parse(schema.clone(), initial).unwrap();
        GuardedForm::new(schema, table, init, Formula::parse(completion).unwrap())
    }

    #[test]
    fn chase_confirms_a_chain() {
        let g = form(
            "a, b, c",
            &[("a", "true"), ("b", "a"), ("c", "b")],
            "",
            "a & b & c",
        );
        let r = screen(&g);
        let ScreenOutcome::Decided(v, Some(run)) = &r.completability else {
            panic!("expected a decided completability with a run");
        };
        assert_eq!(*v, Verdict::Holds);
        assert!(g.is_complete_run(run));
        // Deletion-free, all-positive: semi-soundness transfers.
        assert_eq!(r.semisoundness.verdict(), Some(Verdict::Holds));
    }

    #[test]
    fn may_refutes_unreachable_requirements() {
        // c's guard mentions a label that can never appear.
        let g = form("a, c, zz", &[("a", "true"), ("c", "zz")], "", "c");
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
        assert_eq!(r.semisoundness.verdict(), Some(Verdict::Fails));
        // Both c's and zz's add rules are dead (c transitively).
        let schema = g.schema();
        let c = schema.resolve("c").unwrap();
        assert!(r.dead_rules.contains(&RuleId {
            right: Right::Add,
            edge: c
        }));
        assert_eq!(r.stats.may_size, 2); // root + a
    }

    #[test]
    fn contradictory_guard_needs_sat_not_three_valued_eval() {
        // b's guard is propositionally unsatisfiable — a three-valued
        // may-evaluation (a "may", ¬a "may") would let it fire.
        let g = form("a, b", &[("a", "true"), ("b", "a & !a")], "", "b");
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
        assert!(r.dead_rules.contains(&RuleId {
            right: Right::Add,
            edge: g.schema().resolve("b").unwrap()
        }));
    }

    #[test]
    fn chase_handles_negative_guards() {
        // A− form: b requires ¬c; the greedy chase adds a, then b, and
        // completes before ever considering c.
        let g = form(
            "a, b, c",
            &[("a", "true"), ("b", "a & !c"), ("c", "b")],
            "",
            "a & b",
        );
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Holds));
        // But A− blocks the semi-soundness transfer.
        assert_eq!(r.semisoundness, ScreenOutcome::Inconclusive);
    }

    #[test]
    fn must_set_folds_permanent_labels() {
        // `s` is initially present and has no del rule (default false):
        // the completion ¬s is statically refutable.
        let g = form("a, s", &[("a", "true")], "s", "a & !s");
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
        assert_eq!(r.stats.must_size, 1);
    }

    #[test]
    fn deletable_labels_stay_out_of_must() {
        let schema = Arc::new(Schema::parse("a, s").unwrap());
        let mut table = AccessRules::new(&schema);
        table.set(Right::Add, schema.resolve("a").unwrap(), Formula::True);
        table.set(Right::Del, schema.resolve("s").unwrap(), Formula::True);
        let init = Instance::parse(schema.clone(), "s").unwrap();
        let g = GuardedForm::new(schema, table, init, Formula::parse("a & !s").unwrap());
        let r = screen(&g);
        // s is deletable, so ¬s is satisfiable — and the chase cannot
        // confirm (it never deletes), so the screen is inconclusive.
        assert_eq!(r.completability, ScreenOutcome::Inconclusive);
        assert_eq!(r.stats.must_size, 0);
    }

    #[test]
    fn pruned_forms_keep_the_reachable_graph() {
        let g = form(
            "a, b, zz",
            &[("a", "true"), ("b", "a"), ("zz", "b & !b")],
            "",
            "a & b",
        );
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Holds));
        let pruned = prune(&g, &r.dead_rules);
        assert_eq!(
            *pruned
                .rules()
                .get(Right::Add, g.schema().resolve("zz").unwrap()),
            Formula::False
        );
        // Only the dead guards change.
        for e in g.schema().edge_ids() {
            for right in [Right::Add, Right::Del] {
                let dead = r.dead_rules.contains(&RuleId { right, edge: e });
                let want = if dead {
                    &Formula::False
                } else {
                    g.rules().get(right, e)
                };
                assert_eq!(pruned.rules().get(right, e), want, "{right} {e}");
            }
        }
        // Same allowed updates from the initial instance.
        assert_eq!(
            g.allowed_updates(g.initial()),
            pruned.allowed_updates(pruned.initial())
        );
    }

    #[test]
    fn parent_anchored_guards_reanchor() {
        // a/x's guard looks up at the root through `..[b]`; b never
        // appears, so x is unreachable and the completion fails.
        let g = form("a(x), b", &[("a", "true"), ("a/x", "..[b]")], "", "a[x]");
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
    }

    #[test]
    fn screen_expands_zero_states() {
        // The decided outcomes above never touch an Explorer; the only
        // concrete instance is the chase's. Spot-check the stats shape.
        let g = form("a", &[("a", "true")], "", "a");
        let r = screen(&g);
        assert_eq!(r.completability.verdict(), Some(Verdict::Holds));
        assert_eq!(r.stats.chase_steps, 1);
        assert!(r.stats.rounds >= 1);
    }

    /// The reused verdicts are the ones a fresh decision gives: on
    /// generated forms of every fragment and on the named scenarios,
    /// `dead_rules` equals a direct check of every rule's abstraction
    /// under the final may/must sets.
    #[test]
    fn dead_rules_equal_a_direct_recheck() {
        use idar_gen::scenario::named_scenarios;
        use idar_gen::{generate, generate_stream, FragmentSpec, GenConfig};
        let mut forms: Vec<GuardedForm> = named_scenarios()
            .into_iter()
            .map(|n| n.scenario.form)
            .collect();
        for fragment in FragmentSpec::ALL {
            let cfg = GenConfig::new(fragment);
            let seeds = generate_stream(&cfg, 0x5C4EE, 60);
            forms.extend(seeds.into_iter().map(|seed| generate(&cfg, seed)));
        }
        let mut dead = 0;
        for g in &forms {
            let (report, may, must) = screen_with_sets(g);
            let schema = g.schema();
            let mut stats = ScreenStats::default();
            let mut expected = Vec::new();
            for e in schema.edge_ids() {
                let p = schema.parent(e).unwrap();
                // An add rule needs its parent, a delete rule its node.
                for (right, needs) in [(Right::Add, p), (Right::Del, e)] {
                    let guard = g.rules().get(right, e);
                    let step = StepFormula::from_formula(guard);
                    if *guard != Formula::False
                        && (!may[needs.index()]
                            || guard_unsat(schema, p, &step, &may, &must, &mut stats))
                    {
                        expected.push(RuleId { right, edge: e });
                    }
                }
            }
            assert_eq!(report.dead_rules, expected);
            dead += expected.len();
        }
        assert!(dead > 0, "the forms exercise dead rules");
    }

    /// Random formulas over `k` variables: a random tree, or for a third
    /// of them an over-constrained 3-CNF (mostly UNSAT).
    fn random_formula(rng: &mut u64, k: u32, depth: u32) -> PropFormula {
        let mut below = |n: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        };
        if depth == 0 {
            return match below(8) {
                0 => PropFormula::Const(below(2) == 0),
                _ => PropFormula::var(below(k as u64) as u32),
            };
        }
        match below(6) {
            0 => random_formula(rng, k, depth - 1).not(),
            1 | 2 => {
                let n = 2 + below(3);
                PropFormula::conj((0..n).map(|_| random_formula(rng, k, depth - 1)))
            }
            3 | 4 => {
                let n = 2 + below(3);
                PropFormula::disj((0..n).map(|_| random_formula(rng, k, depth - 1)))
            }
            _ => PropFormula::conj((0..6 * k).map(|_| {
                PropFormula::disj((0..3).map(|_| {
                    let v = PropFormula::var(below(k as u64) as u32);
                    if below(2) == 0 {
                        v
                    } else {
                        v.not()
                    }
                }))
            })),
        }
    }

    /// Evaluating every assignment decides each small abstraction exactly
    /// as Tseitin + CDCL does.
    #[test]
    fn evaluation_agrees_with_cdcl_on_small_abstractions() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let (mut sat, mut unsat) = (0, 0);
        for i in 0..600 {
            let k = 1 + i % SCREEN_EVAL_MAX_ATOMS as u32;
            let f = random_formula(&mut rng, k, 4);
            let by_eval = satisfiable_by_evaluation(&f, k as usize);
            let by_cdcl =
                solve_abstraction_budgeted(&f, k as usize, Engine::Cdcl, SCREEN_SAT_BUDGET)
                    .expect("small formulas stay within the budget")
                    .is_some();
            assert_eq!(by_eval, by_cdcl, "{f}");
            if by_eval {
                sat += 1;
            } else {
                unsat += 1;
            }
        }
        assert!(sat > 100 && unsat > 100, "{sat} SAT, {unsat} UNSAT");
    }

    #[test]
    fn wake_lists_invert_add_guard_dependencies() {
        let g = form(
            "a(x, y), b, c",
            &[("a", "true"), ("b", "a"), ("c", "a & !b"), ("a/x", "..[c]")],
            "",
            "c",
        );
        let s = g.schema();
        let [a, b, c, x] = ["a", "b", "c", "a/x"].map(|l| s.resolve(l).unwrap());
        let wake = wake_lists(s, &normalised(&g, Right::Add));
        assert_eq!(wake[a.index()], [b, c]);
        // A negative occurrence wakes too: adding b can disable c's guard.
        assert_eq!(wake[b.index()], [c]);
        // `..[c]` at `a` re-anchors at the root.
        assert_eq!(wake[c.index()], [x]);
        assert!(wake[x.index()].is_empty());
    }

    /// A guard and a completion formula of 20,000 operands each are
    /// Tseitin-encoded through the SAT bridge, compiled to depth-1 bitset
    /// expressions and screened on a 256 KiB stack.
    #[test]
    fn long_chains_are_screened_on_a_small_stack() {
        const OPERANDS: usize = 20_000;
        let atoms = ["a", "!b", "c | a", "!(b & c)"].map(|t| Formula::parse(t).unwrap());
        let chain = Formula::conj((0..OPERANDS).map(|i| atoms[i % atoms.len()].clone()));
        let g = form("a, b, c", &[("a", "true"), ("c", "a")], "", "a");
        let mut rules = g.rules().clone();
        rules.set(Right::Add, g.schema().resolve("b").unwrap(), chain.clone());
        let g = GuardedForm::new(g.schema().clone(), rules, g.initial().clone(), chain);
        let small = std::thread::Builder::new().stack_size(256 << 10);
        std::thread::scope(|s| {
            small
                .spawn_scoped(s, || {
                    let step = StepFormula::from_formula(g.completion()).nnf();
                    assert!(!crate::satengine::surely_unsatisfiable(&step, Engine::Cdcl));
                    let sys = crate::depth1::Depth1System::new(&g).unwrap();
                    assert!(!sys.is_complete_state(sys.initial_state()));
                    let r = screen(&g);
                    assert_eq!(r.completability.verdict(), Some(Verdict::Holds));
                })
                .unwrap()
                .join()
                .unwrap();
        });
    }
}
