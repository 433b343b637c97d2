//! Formula satisfiability (Cor. 4.5): is there a rooted node-labelled tree
//! whose **root** satisfies φ?
//!
//! Cor. 4.5: NP-complete when tree depth is bounded by a constant,
//! PSPACE-complete unbounded. The procedure here is an obligation-driven
//! tableau built directly on the Lemma 4.4 machinery:
//!
//! * φ is normalised to [`StepFormula`] (every path is a single child- or
//!   parent-step with a residual filter) and negation normal form, so every
//!   obligation speaks about the current node, one child, or the parent.
//! * A witness tree is grown from the root. Positive child obligations
//!   `l[ψ]` spawn a fresh `l`-child carrying `ψ` — sound *and* complete
//!   because formulas are multiplicity-blind (Ex. 3.2): if one child could
//!   serve two obligations, two children each serving one work as well.
//! * Negative child obligations `¬l[ξ]` are recorded and pushed (as
//!   `nnf(¬ξ)`) into every existing and future `l`-child.
//! * Parent obligations `..[ψ]` travel up to the (already-materialised)
//!   parent, whose obligation set grows and is re-processed — this is the
//!   fixpoint the paper's PSPACE walk performs with guessed `Φ(n)` sets.
//! * `∨` creates a backtracking choice point. The search changes one
//!   tableau in place and keeps a trail of its changes to undo, so a
//!   choice point copies nothing, and its open choice points are an
//!   explicit stack, bounded like the branches by `max_branches`.
//!
//! Obligations are deduplicated per node and drawn from the finite closure
//! of φ's subformulas under negation, so each branch terminates; the number
//! of branches is exponential, as the complexity results demand.

use idar_core::formula::StepFormula;
use idar_core::{Formula, Schema, SchemaNodeId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Options for the satisfiability search.
#[derive(Debug, Clone, Default)]
pub struct SatOptions {
    /// Constrain witnesses to be instances of this schema (labels and
    /// parent/child relations must follow it; the root is the schema root).
    pub schema: Option<Arc<Schema>>,
    /// Cap on witness-tree depth. `None`: the child-nesting depth of φ
    /// (sufficient — deeper nodes can never be referenced from the root),
    /// additionally clamped by the schema's depth when one is given.
    pub max_depth: Option<usize>,
    /// Safety cap on tableau branches explored (default 1 << 22).
    pub max_branches: Option<usize>,
    /// SAT engine consulted by the propositional fast path and the UNSAT
    /// pre-check (default: CDCL).
    pub engine: idar_logic::Engine,
}

/// The result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness tree.
    Sat(WitnessTree),
    /// No witness within the (complete, see module docs) bounds.
    Unsat,
    /// The branch budget ran out (pathological inputs only).
    BudgetExhausted,
}

impl SatResult {
    /// Was a witness found?
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// A rooted labelled tree produced as a satisfiability witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessTree {
    /// `(label, parent index)`; entry 0 is the root (parent = usize::MAX).
    pub nodes: Vec<(String, usize)>,
}

impl WitnessTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree empty (degenerate, never produced by the solver)?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Evaluate a formula at node `at` of this tree (used for the
    /// verification pass and tests; same semantics as Def. 3.5).
    pub fn holds(&self, at: usize, f: &Formula) -> bool {
        let n = StepFormula::from_formula(f);
        self.holds_step(at, &n)
    }

    fn children(&self, at: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(move |&i| i != 0 && self.nodes[i].1 == at)
    }

    fn holds_step(&self, at: usize, f: &StepFormula) -> bool {
        match f {
            StepFormula::True => true,
            StepFormula::False => false,
            StepFormula::Child(l) => self.children(at).any(|c| self.nodes[c].0 == *l),
            StepFormula::Parent => at != 0,
            StepFormula::ChildSat(l, g) => self
                .children(at)
                .any(|c| self.nodes[c].0 == *l && self.holds_step(c, g)),
            StepFormula::ParentSat(g) => at != 0 && self.holds_step(self.nodes[at].1, g),
            StepFormula::Not(g) => !self.holds_step(at, g),
            StepFormula::And(fs) => fs.iter().all(|g| self.holds_step(at, g)),
            StepFormula::Or(fs) => fs.iter().any(|g| self.holds_step(at, g)),
        }
    }

    /// Maximum branching factor (for the Lemma 4.4 bound checks).
    pub fn max_branching(&self) -> usize {
        (0..self.nodes.len())
            .map(|i| self.children(i).count())
            .max()
            .unwrap_or(0)
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for i in 1..self.nodes.len() {
            d[i] = d[self.nodes[i].1] + 1;
            max = max.max(d[i]);
        }
        max
    }
}

/// Decide whether some tree's root satisfies `f`.
///
/// Before the tableau runs, the formula's propositional **atom
/// abstraction** (see [`crate::satengine`]) is handed to the configured
/// SAT engine: an UNSAT abstraction decides `Unsat` outright (sound for
/// any formula, schema or not), and for unconstrained purely-label
/// formulas — the Cor. 4.5 SAT encodings — a model converts directly
/// into a witness tree, bypassing the exponential tableau entirely.
pub fn satisfiable(f: &Formula, opts: &SatOptions) -> SatResult {
    let step = StepFormula::from_formula(f).nnf();
    let default_depth = child_nesting(&step);
    let mut max_depth = opts.max_depth.unwrap_or(default_depth);
    if let Some(schema) = &opts.schema {
        max_depth = max_depth.min(schema.depth() as usize);
    }
    match sat_fast_path(&step, opts, max_depth) {
        FastPath::Decided(r) => {
            if let SatResult::Sat(t) = &r {
                debug_assert!(t.holds(0, f), "fast path produced a non-model for {f}");
            }
            return r;
        }
        FastPath::Inconclusive => {}
    }
    let budget = opts.max_branches.unwrap_or(1 << 22);
    let mut tableau = Tableau::new(opts.schema.clone(), max_depth, budget);
    tableau.push(0, step);
    match tableau.solve() {
        Ok(true) => {
            let tree = tableau.into_witness();
            debug_assert!(tree.holds(0, f), "tableau produced a non-model for {f}");
            SatResult::Sat(tree)
        }
        Ok(false) => SatResult::Unsat,
        Err(Exhausted) => SatResult::BudgetExhausted,
    }
}

/// Outcome of the SAT-engine consultation.
enum FastPath {
    Decided(SatResult),
    Inconclusive,
}

/// Consult the configured [`idar_logic::SatEngine`] on the propositional
/// atom abstraction of `step`.
fn sat_fast_path(step: &StepFormula, opts: &SatOptions, max_depth: usize) -> FastPath {
    // An explicit branch budget is a promise of bounded work with a
    // `BudgetExhausted` escape; the SAT engines have no such budget, so
    // honour the cap by staying on the tableau.
    if opts.max_branches.is_some() {
        return FastPath::Inconclusive;
    }
    let abs = crate::satengine::Abstraction::of(step);
    let Some(outcome) = crate::satengine::solve_abstraction(&abs, opts.engine) else {
        return FastPath::Inconclusive; // engine not consultable (brute cap)
    };
    let Some(model) = outcome else {
        // No atom valuation at all satisfies φ, so no tree does.
        return FastPath::Decided(SatResult::Unsat);
    };
    // Exactness needs: bare-label atoms only (any label subset is
    // realisable as root children), no schema to respect, and room for
    // one level of children.
    if abs.labels_only && opts.schema.is_none() && max_depth >= 1 {
        let mut nodes = vec![(idar_core::ROOT_LABEL.to_string(), usize::MAX)];
        for (i, atom) in abs.atoms.iter().enumerate() {
            if model.get(idar_logic::Var(i as u32)) {
                if let StepFormula::Child(l) = atom {
                    nodes.push((l.clone(), 0));
                }
            }
        }
        return FastPath::Decided(SatResult::Sat(WitnessTree { nodes }));
    }
    FastPath::Inconclusive
}

/// Maximum nesting of child steps — a sufficient witness depth for
/// root-evaluated formulas (parent steps never descend).
fn child_nesting(f: &StepFormula) -> usize {
    match f {
        StepFormula::True | StepFormula::False | StepFormula::Child(_) | StepFormula::Parent => 1,
        StepFormula::ChildSat(_, g) => 1 + child_nesting(g),
        StepFormula::ParentSat(g) => child_nesting(g), // does not descend
        StepFormula::Not(g) => child_nesting(g),
        StepFormula::And(fs) | StepFormula::Or(fs) => {
            fs.iter().map(child_nesting).max().unwrap_or(1)
        }
    }
}

#[derive(Debug, Default)]
struct TabNode {
    label: String,
    parent: usize, // usize::MAX for root
    depth: usize,
    schema_node: Option<SchemaNodeId>,
    /// The children, by label, in creation order.
    children: HashMap<String, Vec<usize>>,
    /// Per-label constraints every child must satisfy (pushed `ψ`s).
    child_constraints: HashMap<String, Vec<StepFormula>>,
    /// Labels that must not occur among children.
    forbidden: HashSet<String>,
    /// Obligations already processed (dedup to guarantee termination).
    done: HashSet<StepFormula>,
}

impl TabNode {
    fn has_child(&self, label: &str) -> bool {
        self.children.get(label).is_some_and(|c| !c.is_empty())
    }
}

/// A change to the tableau that backtracking must undo.
#[derive(Debug)]
enum Undo {
    /// `nodes[.0].done` gained the obligation at `queues[.1][.2]`.
    Done(usize, usize, usize),
    /// `nodes[.0].forbidden` gained label `.1`.
    Forbade(usize, String),
    /// `nodes[.0].child_constraints[.1]` gained a constraint.
    Constrained(usize, String),
    /// The last node was created.
    Created,
}

/// An open choice point: the tableau as it was when a disjunction
/// branched, and the disjuncts still to try there.
#[derive(Debug)]
struct Choice {
    trail: usize,
    lens: [usize; 2],
    heads: [usize; 2],
    node: usize,
    /// Untried disjuncts, last first.
    rest: Vec<StepFormula>,
}

/// The branch budget ran out.
struct Exhausted;

/// A depth-first tableau search. It changes one tableau in place and
/// undoes the changes on backtracking, so a choice point costs the
/// obligations it undoes, not a copy of the tableau, and its saved states
/// are an explicit stack bounded by the branch budget.
struct Tableau {
    schema: Option<Arc<Schema>>,
    max_depth: usize,
    branches: usize,
    budget: usize,
    nodes: Vec<TabNode>,
    /// `(node, obligation)` queues: `queues[0]` holds the deterministic
    /// obligations, `queues[1]` the disjunctions, which wait until
    /// `queues[0]` drains — the tableau analogue of unit propagation:
    /// contradictions surface before we commit to a branch, pruning the
    /// search massively on CNF-shaped inputs (the Cor 4.5 SAT encodings).
    /// Entries before `heads[q]` have been taken; they stay until
    /// backtracking truncates them.
    queues: [Vec<(usize, StepFormula)>; 2],
    heads: [usize; 2],
    trail: Vec<Undo>,
    stack: Vec<Choice>,
}

impl Tableau {
    fn new(schema: Option<Arc<Schema>>, max_depth: usize, budget: usize) -> Tableau {
        let root = TabNode {
            label: idar_core::ROOT_LABEL.to_string(),
            parent: usize::MAX,
            schema_node: schema.as_ref().map(|_| SchemaNodeId::ROOT),
            ..TabNode::default()
        };
        Tableau {
            schema,
            max_depth,
            branches: 0,
            budget,
            nodes: vec![root],
            queues: [Vec::new(), Vec::new()],
            heads: [0, 0],
            trail: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn push(&mut self, node: usize, f: StepFormula) {
        let q = usize::from(matches!(f, StepFormula::Or(..)));
        self.queues[q].push((node, f));
    }

    /// Count a branch; `Err` once the budget is spent.
    fn branch(&mut self) -> Result<(), Exhausted> {
        self.branches += 1;
        if self.branches >= self.budget {
            Err(Exhausted)
        } else {
            Ok(())
        }
    }

    /// Process obligations to a fixpoint, backtracking on contradictions:
    /// `Ok(true)` when every obligation holds, `Ok(false)` when every
    /// branch failed.
    fn solve(&mut self) -> Result<bool, Exhausted> {
        loop {
            let Some(q) = (0..2).find(|&q| self.heads[q] < self.queues[q].len()) else {
                return Ok(true);
            };
            let i = self.heads[q];
            self.heads[q] += 1;
            // Taken out while it is processed, which only appends to the
            // queues; put back for backtracking to an earlier state.
            let (node, f) = std::mem::replace(&mut self.queues[q][i], (0, StepFormula::True));
            let fresh = self.nodes[node].done.insert(f.clone());
            let ok = if fresh {
                self.trail.push(Undo::Done(node, q, i));
                self.process(node, &f)?
            } else {
                true // already handled at this node
            };
            self.queues[q][i] = (node, f);
            if !ok && !self.backtrack()? {
                return Ok(false);
            }
        }
    }

    /// Process one fresh obligation; `Ok(false)` on a contradiction.
    fn process(&mut self, node: usize, f: &StepFormula) -> Result<bool, Exhausted> {
        match f {
            StepFormula::True => {}
            StepFormula::False => return Ok(false),
            StepFormula::And(fs) => {
                for g in fs {
                    self.push(node, g.clone());
                }
            }
            StepFormula::Or(fs) => {
                // Propagation-style shortcuts before committing to a
                // branch: a surely-true disjunct discharges the obligation,
                // and surely-false ones drop out.
                if fs.iter().any(|g| self.surely_true(node, g)) {
                    return Ok(true);
                }
                let mut rest: Vec<StepFormula> = fs
                    .iter()
                    .rev()
                    .filter(|g| !self.surely_false(node, g))
                    .cloned()
                    .collect();
                let Some(first) = rest.pop() else {
                    return Ok(false);
                };
                if !rest.is_empty() {
                    self.branch()?;
                    self.stack.push(Choice {
                        trail: self.trail.len(),
                        lens: [self.queues[0].len(), self.queues[1].len()],
                        heads: self.heads,
                        node,
                        rest,
                    });
                }
                self.push(node, first);
            }
            StepFormula::Child(l) => {
                self.push(
                    node,
                    StepFormula::ChildSat(l.clone(), Box::new(StepFormula::True)),
                );
            }
            StepFormula::ChildSat(l, psi) => {
                if self.nodes[node].forbidden.contains(l) {
                    return Ok(false);
                }
                let Some(c) = self.create_child(node, l) else {
                    return Ok(false);
                };
                self.push(c, (**psi).clone());
                // Existing per-label constraints apply to the new child.
                let constraints = self.nodes[node].child_constraints.get(l).cloned();
                for g in constraints.into_iter().flatten() {
                    self.push(c, g);
                }
            }
            StepFormula::Parent => return Ok(node != 0), // the root has no parent
            StepFormula::ParentSat(psi) => {
                if node == 0 {
                    return Ok(false);
                }
                self.push(self.nodes[node].parent, (**psi).clone());
            }
            StepFormula::Not(inner) => match &**inner {
                StepFormula::Child(l) => {
                    // No l-child may exist, now or later.
                    if self.nodes[node].has_child(l) {
                        return Ok(false);
                    }
                    if self.nodes[node].forbidden.insert(l.clone()) {
                        self.trail.push(Undo::Forbade(node, l.clone()));
                    }
                }
                StepFormula::ChildSat(l, xi) => {
                    let neg = StepFormula::Not(xi.clone()).nnf();
                    let kids = self.nodes[node].children.get(l).cloned();
                    for c in kids.into_iter().flatten() {
                        self.push(c, neg.clone());
                    }
                    let n = &mut self.nodes[node];
                    n.child_constraints.entry(l.clone()).or_default().push(neg);
                    self.trail.push(Undo::Constrained(node, l.clone()));
                }
                // Non-root nodes do have parents.
                StepFormula::Parent => return Ok(node == 0),
                StepFormula::ParentSat(psi) => {
                    // At the root: vacuously true.
                    if node != 0 {
                        let neg = StepFormula::Not(psi.clone()).nnf();
                        self.push(self.nodes[node].parent, neg);
                    }
                }
                StepFormula::True => return Ok(false),
                StepFormula::False => {}
                other => {
                    // nnf leaves Not only on atoms; be defensive.
                    self.push(node, StepFormula::Not(Box::new(other.clone())).nnf());
                }
            },
        }
        Ok(true)
    }

    /// Return to the latest choice point and try its next disjunct;
    /// `Ok(false)` when no choice point is left.
    fn backtrack(&mut self) -> Result<bool, Exhausted> {
        let Some(mut choice) = self.stack.pop() else {
            return Ok(false);
        };
        while self.trail.len() > choice.trail {
            match self.trail.pop().expect("above the choice point") {
                Undo::Done(node, q, i) => {
                    self.nodes[node].done.remove(&self.queues[q][i].1);
                }
                Undo::Forbade(node, l) => {
                    self.nodes[node].forbidden.remove(&l);
                }
                Undo::Constrained(node, l) => {
                    let constraints = self.nodes[node].child_constraints.get_mut(&l);
                    constraints.expect("recorded").pop();
                }
                Undo::Created => {
                    let c = self.nodes.pop().expect("created");
                    let siblings = self.nodes[c.parent].children.get_mut(&c.label);
                    siblings.expect("recorded").pop();
                }
            }
        }
        for q in 0..2 {
            self.queues[q].truncate(choice.lens[q]);
        }
        self.heads = choice.heads;
        let next = choice
            .rest
            .pop()
            .expect("a choice point keeps an untried disjunct");
        let node = choice.node;
        if !choice.rest.is_empty() {
            self.branch()?;
            self.stack.push(choice);
        }
        self.push(node, next);
        Ok(true)
    }

    /// Cheap monotone truth check: `true` only if `f` is *guaranteed* to
    /// hold in every extension of the current tableau (children are only
    /// ever added, never removed, so positive child facts are stable; the
    /// `done` set records obligations already enforced).
    fn surely_true(&self, node: usize, f: &StepFormula) -> bool {
        let n = &self.nodes[node];
        if n.done.contains(f) {
            return true;
        }
        match f {
            StepFormula::True => true,
            StepFormula::Child(l) => n.has_child(l),
            StepFormula::Not(inner) => match &**inner {
                StepFormula::Child(l) | StepFormula::ChildSat(l, _) => n.forbidden.contains(l),
                StepFormula::False => true,
                _ => false,
            },
            _ => false,
        }
    }

    /// Cheap certain-failure check (the dual).
    fn surely_false(&self, node: usize, f: &StepFormula) -> bool {
        let n = &self.nodes[node];
        match f {
            StepFormula::False => true,
            StepFormula::Child(l) | StepFormula::ChildSat(l, _) => n.forbidden.contains(l),
            StepFormula::Not(inner) => match &**inner {
                StepFormula::Child(l) => n.has_child(l),
                StepFormula::True => true,
                _ => false,
            },
            _ => false,
        }
    }

    fn create_child(&mut self, node: usize, label: &str) -> Option<usize> {
        let depth = self.nodes[node].depth;
        if depth >= self.max_depth {
            return None;
        }
        let schema_node = match (&self.schema, self.nodes[node].schema_node) {
            (Some(schema), Some(sn)) => Some(schema.child_by_label(sn, label)?),
            _ => None,
        };
        let c = self.nodes.len();
        self.nodes.push(TabNode {
            label: label.to_string(),
            parent: node,
            depth: depth + 1,
            schema_node,
            ..TabNode::default()
        });
        let siblings = self.nodes[node].children.entry(label.to_string());
        siblings.or_default().push(c);
        self.trail.push(Undo::Created);
        Some(c)
    }

    fn into_witness(self) -> WitnessTree {
        WitnessTree {
            nodes: self
                .nodes
                .into_iter()
                .map(|n| (n.label, n.parent))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(s: &str) -> SatResult {
        satisfiable(&Formula::parse(s).unwrap(), &SatOptions::default())
    }

    #[test]
    fn propositional_cases() {
        // Cor. 4.5's NP-hardness direction: propositional formulas over
        // labels. (x1 ∨ x2) ∧ ¬x3 ↦ (a ∨ b) ∧ ¬c.
        assert!(sat("(a | b) & !c").is_sat());
        assert_eq!(sat("a & !a"), SatResult::Unsat);
        assert!(sat("a & b & c").is_sat());
        assert_eq!(sat("(a | b) & !a & !b"), SatResult::Unsat);
        assert_eq!(sat("false"), SatResult::Unsat);
        assert!(sat("true").is_sat());
    }

    #[test]
    fn nested_paths() {
        assert!(sat("a/b/c").is_sat());
        assert!(sat("a[b & c] & !a[d]").is_sat());
        assert_eq!(sat("a[b] & !a"), SatResult::Unsat);
        assert_eq!(sat("a/b & !a[b]"), SatResult::Unsat);
    }

    #[test]
    fn negated_filters_need_separate_children() {
        // Needs one a-child with b and one without.
        let r = sat("a[b] & a[!b]");
        let SatResult::Sat(t) = r else {
            panic!("expected sat")
        };
        assert!(t.holds(0, &Formula::parse("a[b] & a[!b]").unwrap()));
    }

    #[test]
    fn contradictory_universal() {
        // Every a-child must and must not have b, and an a-child exists.
        assert_eq!(sat("a & !a[b] & !a[!b]"), SatResult::Unsat);
        // Without an a-child, both universals hold vacuously.
        assert!(sat("!a[b] & !a[!b]").is_sat());
    }

    #[test]
    fn parent_references() {
        // A child whose parent must carry `s`: sat (the root gets s).
        assert!(sat("a[../s]").is_sat());
        // …but contradicts a root-level ¬s.
        assert_eq!(sat("a[../s] & !s"), SatResult::Unsat);
        // `..` at the root is unsatisfiable (evaluation starts at a root).
        assert_eq!(sat(".."), SatResult::Unsat);
        assert!(sat("!..").is_sat());
        // Upward reference from two levels down.
        assert!(sat("a/b[../../x]").is_sat());
        assert_eq!(sat("a/b[../../x] & !x"), SatResult::Unsat);
    }

    #[test]
    fn upward_downward_cycle() {
        // Child requires parent to have a `c`-child satisfying d; that `c`
        // child requires the parent to have an `a` child. Consistent.
        assert!(sat("a[..[c[d & ../a]]]").is_sat());
        // Inconsistent variant.
        assert_eq!(sat("a[..[c[d]]] & !c"), SatResult::Unsat);
    }

    #[test]
    fn schema_constrained() {
        let schema = Arc::new(Schema::parse("a(b), s").unwrap());
        let opts = SatOptions {
            schema: Some(schema),
            ..Default::default()
        };
        // `a/b` fits the schema.
        assert!(satisfiable(&Formula::parse("a/b").unwrap(), &opts).is_sat());
        // `a/c` does not (no such schema edge).
        assert_eq!(
            satisfiable(&Formula::parse("a/c").unwrap(), &opts),
            SatResult::Unsat
        );
        // Depth beyond the schema's is unsatisfiable.
        assert_eq!(
            satisfiable(&Formula::parse("a/b/c").unwrap(), &opts),
            SatResult::Unsat
        );
    }

    #[test]
    fn depth_bound_respected() {
        let opts = SatOptions {
            max_depth: Some(1),
            ..Default::default()
        };
        assert_eq!(
            satisfiable(&Formula::parse("a/b").unwrap(), &opts),
            SatResult::Unsat
        );
        assert!(satisfiable(&Formula::parse("a & b").unwrap(), &opts).is_sat());
    }

    #[test]
    fn witness_is_verified_model() {
        for s in [
            "a[b[c] & !d] & (x | y) & !z",
            "a[../b[../c]] | q",
            "!a[!b[!c]] & a",
        ] {
            let f = Formula::parse(s).unwrap();
            if let SatResult::Sat(t) = satisfiable(&f, &SatOptions::default()) {
                assert!(t.holds(0, &f), "witness fails {s}");
                assert!(t.depth() <= f.size());
            }
        }
    }

    #[test]
    fn unknown_on_budget() {
        // Branch budget of 1 forces an early bail-out on a disjunctive
        // formula needing the right branch. An explicit budget also
        // disables the propositional fast path (bounded-work contract),
        // so the purely propositional variant bails out the same way.
        let opts = SatOptions {
            max_branches: Some(1),
            ..Default::default()
        };
        for s in ["(a[c] & !a[c]) | b[d]", "(a & !a) | b"] {
            let f = Formula::parse(s).unwrap();
            assert_eq!(satisfiable(&f, &opts), SatResult::BudgetExhausted, "{s}");
        }
    }

    #[test]
    fn fast_path_agrees_with_tableau_across_engines() {
        // Purely propositional formulas are decided by the SAT engine;
        // forcing a deep-enough formula through both paths must agree.
        for s in ["(a | b) & !c", "a & !a", "(a | b) & (!a | c) & !b"] {
            let f = Formula::parse(s).unwrap();
            let mut verdicts = Vec::new();
            for engine in [idar_logic::Engine::Cdcl, idar_logic::Engine::Dpll] {
                let opts = SatOptions {
                    engine,
                    ..Default::default()
                };
                let r = satisfiable(&f, &opts);
                if let SatResult::Sat(t) = &r {
                    assert!(t.holds(0, &f), "{engine} witness fails {s}");
                }
                verdicts.push(r.is_sat());
            }
            assert_eq!(verdicts[0], verdicts[1], "{s}");
        }
    }

    /// The tableau forced on random label formulas decides exactly what
    /// the root's child-label subsets decide, so backtracking restores
    /// every state it undoes.
    #[test]
    fn forced_tableau_agrees_with_label_subsets() {
        use idar_logic::gen::{Rng, XorShift};
        fn random(rng: &mut XorShift, size: usize) -> Formula {
            if size <= 1 {
                return Formula::label(["a", "b", "c", "d"][rng.below(4)]);
            }
            let left = rng.range(1, size - 1);
            match rng.below(3) {
                0 => random(rng, size - 1).not(),
                1 => random(rng, left).and(random(rng, size - left)),
                _ => random(rng, left).or(random(rng, size - left)),
            }
        }
        let forced = SatOptions {
            max_branches: Some(1 << 22),
            ..Default::default()
        };
        let schema = Arc::new(Schema::parse("a, b, c, d").unwrap());
        let mut rng = XorShift::new(0x5EED);
        for _ in 0..300 {
            let f = random(&mut rng, 14);
            let subsets = (0..16u32).map(|bits| {
                let labels = ["a", "b", "c", "d"].iter().enumerate();
                let text: Vec<&str> = labels
                    .filter(|(i, _)| bits >> i & 1 == 1)
                    .map(|(_, l)| *l)
                    .collect();
                idar_core::Instance::parse(schema.clone(), &text.join(", ")).unwrap()
            });
            let expected = subsets
                .into_iter()
                .any(|i| idar_core::formula::holds_at_root(&i, &f));
            let r = satisfiable(&f, &forced);
            assert_eq!(r.is_sat(), expected, "{f}");
            if let SatResult::Sat(t) = r {
                assert!(t.holds(0, &f), "witness fails {f}");
            }
        }
    }

    /// Long chains cost the tableau linear work: a 4,000-operand `&` and
    /// a 4,000-clause CNF decide far inside the default budget, and a
    /// small budget on the CNF, which branches once per clause, is an
    /// honest `BudgetExhausted`.
    #[test]
    fn long_chains_are_linear_in_the_tableau_and_bounded() {
        let forced = |branches| SatOptions {
            max_branches: Some(branches),
            ..Default::default()
        };
        let label = |p: &str, i: usize| Formula::label(&format!("{p}{i}"));
        let chain = Formula::conj((0..4_000).map(|i| label("l", i)));
        let cnf = Formula::conj((0..4_000).map(|i| label("a", i).or(label("b", i))));
        for f in [&chain, &cnf] {
            let SatResult::Sat(t) = satisfiable(f, &forced(1 << 22)) else {
                panic!("expected a witness");
            };
            assert!(t.holds(0, f));
        }
        assert_eq!(satisfiable(&cnf, &forced(100)), SatResult::BudgetExhausted);
    }
}
