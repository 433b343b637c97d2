//! **Exact** decision procedures for depth-1 guarded forms.
//!
//! Lemma 4.3: for a guarded form of depth 1, an instance `J` with
//! `can(J) = C` is reachable from `I` iff `C` is reachable from `can(I)`
//! in the canonical-instance space, and `I` is completable iff `can(I)`
//! is. A canonical depth-1 instance is determined by *which* root-child
//! labels are present (duplicate siblings are leaves with equal labels and
//! collapse under Def. 3.7), so the state space is the powerset of the
//! root's schema children — at most `2^n` states, explored explicitly.
//! This realises the PSPACE upper bounds of Thm 4.6 / Cor. 4.7 (with the
//! usual explicit-state time/space trade-off) and is exact for *all* four
//! depth-1 rows of Table 1.
//!
//! Guards and the completion formula are compiled once into Boolean
//! functions of the state bitset ([`Compiled`]): in a canonical depth-1
//! instance, a formula's value at any node is a function of the label set
//! alone. A function that reads at most 8 label bits becomes a 256-bit
//! truth table over them, so evaluating it gathers those bits into an
//! index and tests one table bit; a wider one keeps its expression tree
//! and is evaluated by a walk of it.
//!
//! The forward pass interns at most `max_states` states (the caller's
//! budget, e.g. `Budget::limits.max_states`). A pass cut short by the cap
//! reports `closed: false` and [`LimitKind::States`]; completability then
//! answers `Holds` only if a complete state was interned, and `Unknown`
//! otherwise, and semi-soundness answers `Unknown`. Below the cap both are
//! exact.

use crate::session::backward_reach;
use crate::store::StateMap;
use crate::verdict::{LimitKind, SearchStats, Verdict};
use idar_core::{
    Formula, GuardedForm, InstNodeId, Instance, PathExpr, PathStep, Right, SchemaNodeId, Update,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Why a guarded form cannot be handled by the depth-1 solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Depth1Error {
    /// The schema has depth ≥ 2.
    NotDepthOne {
        /// The schema's actual depth.
        depth: u32,
    },
    /// More root labels than the bitset representation supports.
    TooManyLabels {
        /// The schema's actual root-label count.
        labels: usize,
    },
}

impl fmt::Display for Depth1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Depth1Error::NotDepthOne { depth } => {
                write!(f, "schema has depth {depth}, depth-1 solver requires <= 1")
            }
            Depth1Error::TooManyLabels { labels } => {
                write!(f, "{labels} root labels exceed the 64-bit state encoding")
            }
        }
    }
}

impl std::error::Error for Depth1Error {}

/// A move in the canonical depth-1 state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth1Move {
    /// Set label bit `i` (an edge addition when the label was absent).
    Add(u8),
    /// Clear label bit `i` (deleting the last copy of the label).
    Del(u8),
}

/// The exact canonical-state system of a depth-1 guarded form.
#[derive(Debug, Clone)]
pub struct Depth1System {
    /// Root-child schema nodes; bit `i` of a state ⇔ label `i` present.
    label_edges: Vec<SchemaNodeId>,
    label_names: Vec<String>,
    add_guards: Vec<Compiled>,
    del_guards: Vec<Compiled>,
    completion: Compiled,
    initial: u64,
}

impl Depth1System {
    /// Compile a depth-1 guarded form. Fails on deeper schemas or > 64
    /// root labels.
    pub fn new(form: &GuardedForm) -> Result<Depth1System, Depth1Error> {
        let schema = form.schema();
        let depth = schema.depth();
        if depth > 1 {
            return Err(Depth1Error::NotDepthOne { depth });
        }
        let label_edges: Vec<SchemaNodeId> = schema.children(SchemaNodeId::ROOT).to_vec();
        if label_edges.len() > 64 {
            return Err(Depth1Error::TooManyLabels {
                labels: label_edges.len(),
            });
        }
        let bit_of: HashMap<&str, u8> = label_edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (schema.label(e), i as u8))
            .collect();
        let compile_at_root = |f: &Formula| Compiled::compile(f, Ctx::Root, &bit_of);
        let add_guards = label_edges
            .iter()
            .map(|&e| compile_at_root(form.rules().get(Right::Add, e)))
            .collect();
        let del_guards = label_edges
            .iter()
            .map(|&e| compile_at_root(form.rules().get(Right::Del, e)))
            .collect();
        let completion = compile_at_root(form.completion());

        let mut sys = Depth1System {
            label_names: label_edges
                .iter()
                .map(|&e| schema.label(e).to_string())
                .collect(),
            label_edges,
            add_guards,
            del_guards,
            completion,
            initial: 0,
        };
        sys.initial = sys.state_of(form.initial());
        Ok(sys)
    }

    /// Number of root labels (= state bits).
    pub fn n(&self) -> usize {
        self.label_edges.len()
    }

    /// The canonical state of the form's initial instance.
    pub fn initial_state(&self) -> u64 {
        self.initial
    }

    /// The canonical state of an arbitrary instance of the same schema.
    pub fn state_of(&self, inst: &Instance) -> u64 {
        let mut s = 0u64;
        for (i, &e) in self.label_edges.iter().enumerate() {
            if inst.children_at(InstNodeId::ROOT, e).next().is_some() {
                s |= 1 << i;
            }
        }
        s
    }

    /// The label names, bit-indexed.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Render a state as its label set.
    pub fn render_state(&self, s: u64) -> String {
        let labels: Vec<&str> = (0..self.n())
            .filter(|&i| s >> i & 1 == 1)
            .map(|i| self.label_names[i].as_str())
            .collect();
        format!("{{{}}}", labels.join(","))
    }

    /// Does the completion formula hold in state `s`?
    pub fn is_complete_state(&self, s: u64) -> bool {
        self.completion.eval(s)
    }

    /// The allowed canonical moves from `s` that change the state.
    ///
    /// Additions of an already-present label and deletions of one of
    /// several copies are canonical self-loops and deliberately omitted —
    /// they cannot affect reachability (Lemma 4.3).
    pub fn successors(&self, s: u64) -> Vec<(Depth1Move, u64)> {
        let mut out = Vec::new();
        self.for_each_move(s, |m, t| out.push((m, t)));
        out
    }

    /// Visit the moves [`Depth1System::successors`] lists, in the same
    /// order, without collecting them.
    fn for_each_move(&self, s: u64, mut visit: impl FnMut(Depth1Move, u64)) {
        for i in 0..self.n() {
            let bit = 1u64 << i;
            if s & bit == 0 {
                if self.add_guards[i].eval(s) {
                    visit(Depth1Move::Add(i as u8), s | bit);
                }
            } else if self.del_guards[i].eval(s) {
                visit(Depth1Move::Del(i as u8), s & !bit);
            }
        }
    }

    /// The states reachable from `from`, with dense ids in BFS discovery
    /// order, the BFS tree for run reconstruction, and every transition
    /// between them. At most `max_states` states are interned (the origin
    /// always is): the pass stops at the first state past the cap and
    /// reports [`LimitKind::States`], and its ids are then a prefix of the
    /// uncapped discovery order.
    pub fn reachable_from(&self, from: u64, max_states: usize) -> Reachability {
        let mut id = StateIds::default();
        id.insert(from, 0);
        // The BFS queue is the discovery order: nothing is ever removed.
        let mut order = vec![from];
        let mut parent = vec![None];
        let mut edges = Vec::new();
        let mut full = false;
        let mut next = 0;
        while let Some(&s) = order.get(next) {
            let i = next as u32;
            next += 1;
            self.for_each_move(s, |m, t| {
                if full {
                    return;
                }
                let j = match id.entry(t) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(_) if order.len() >= max_states => {
                        full = true;
                        return;
                    }
                    Entry::Vacant(e) => {
                        let j = u32::try_from(order.len()).expect("depth-1 state ids fit in u32");
                        e.insert(j);
                        order.push(t);
                        parent.push(Some((i, m)));
                        j
                    }
                };
                edges.push((i, j));
            });
            if full {
                break;
            }
        }
        Reachability {
            stats: SearchStats {
                states: order.len(),
                transitions: edges.len(),
                closed: !full,
                limit_hit: full.then_some(LimitKind::States),
            },
            id,
            order,
            parent,
            edges,
        }
    }

    /// Completability (Def. 3.13) via Lemma 4.3, within `max_states`
    /// canonical states: `Holds` with the first complete state in id
    /// order, else `Fails` when the pass closed and `Unknown` when the
    /// cap cut it short.
    pub fn completability(&self, max_states: usize) -> Depth1Answer {
        let reach = self.reachable_from(self.initial, max_states);
        let states = reach.states();
        match states.iter().position(|&s| self.is_complete_state(s)) {
            Some(i) => Depth1Answer {
                verdict: Verdict::Holds,
                witness_state: Some(states[i]),
                moves: Some(reach.run_to(i as u32)),
                stats: reach.stats,
            },
            None => Depth1Answer {
                verdict: if reach.stats.closed {
                    Verdict::Fails
                } else {
                    Verdict::Unknown
                },
                witness_state: None,
                moves: None,
                stats: reach.stats,
            },
        }
    }

    /// Semi-soundness (Def. 3.14) within `max_states` canonical states:
    /// every reachable state can reach a complete state. On failure the
    /// witness is a run to an incompletable reachable state. `Unknown`
    /// when the cap cut the forward pass short.
    ///
    /// Implementation note: for any reachable `s`, `Reach(s) ⊆ Reach(I₀)`,
    /// so completability of all reachable states is a backward reachability
    /// problem *inside* the forward-reachable set — no need to touch the
    /// full `2^n` space.
    pub fn semisoundness(&self, max_states: usize) -> Depth1Answer {
        let reach = self.reachable_from(self.initial, max_states);
        if !reach.stats.closed {
            return Depth1Answer {
                verdict: Verdict::Unknown,
                witness_state: None,
                moves: None,
                stats: reach.stats,
            };
        }
        // Backward reachability from complete states within `reach`.
        let states = reach.states();
        let complete = states.iter().map(|&s| self.is_complete_state(s)).collect();
        let edges = || reach.edges.iter().map(|&(i, j)| (i as usize, j as usize));
        match backward_reach(complete, edges).iter().position(|&ok| !ok) {
            None => Depth1Answer {
                verdict: Verdict::Holds,
                witness_state: None,
                moves: None,
                stats: reach.stats,
            },
            Some(i) => Depth1Answer {
                verdict: Verdict::Fails,
                witness_state: Some(states[i]),
                moves: Some(reach.run_to(i as u32)),
                stats: reach.stats,
            },
        }
    }

    /// Translate a canonical move sequence into concrete updates on the
    /// form's initial instance (Lemma 4.3's faithfulness, constructively).
    ///
    /// A canonical `Del` deletes *every* copy of the label — the guard is
    /// multiplicity-blind, so each copy's deletion stays allowed until the
    /// state finally flips.
    pub fn concretize(&self, form: &GuardedForm, moves: &[Depth1Move]) -> Vec<Update> {
        let mut inst = form.initial().clone();
        let mut out = Vec::new();
        for m in moves {
            match *m {
                Depth1Move::Add(i) => {
                    let edge = self.label_edges[i as usize];
                    let u = Update::Add {
                        parent: InstNodeId::ROOT,
                        edge,
                    };
                    form.apply(&mut inst, &u).expect("canonical add is allowed");
                    out.push(u);
                }
                Depth1Move::Del(i) => {
                    let edge = self.label_edges[i as usize];
                    let copies: Vec<InstNodeId> =
                        inst.children_at(InstNodeId::ROOT, edge).collect();
                    for node in copies {
                        let u = Update::Del { node };
                        form.apply(&mut inst, &u).expect("canonical del is allowed");
                        out.push(u);
                    }
                }
            }
        }
        out
    }
}

/// Result of a depth-1 decision, with canonical witness.
#[derive(Debug, Clone)]
pub struct Depth1Answer {
    /// `Holds` or `Fails` when decided; `Unknown` only when the state cap
    /// cut the forward pass short before it decided.
    pub verdict: Verdict,
    /// For completability-`Holds`: a complete state. For
    /// semi-soundness-`Fails`: an incompletable reachable state.
    pub witness_state: Option<u64>,
    /// Canonical run to the witness state.
    pub moves: Option<Vec<Depth1Move>>,
    /// Canonical-state search statistics.
    pub stats: SearchStats,
}

/// The `u64 → u32` state-id map of a forward pass. The keys are the
/// canonical states of one form, and a pass holds at most `max_states`
/// of them.
type StateIds = StateMap<u32>;

/// Forward-reachable set with BFS tree and transitions, over dense state
/// ids assigned in BFS discovery order.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// The id of each reachable state.
    id: StateIds,
    /// The reachable states, indexed by id, so witnesses picked from
    /// them do not depend on hash order.
    order: Vec<u64>,
    /// `parent[i]`: the state and move that first reached state `i`;
    /// `None` for the origin.
    parent: Vec<Option<(u32, Depth1Move)>>,
    /// Every transition the search took, as `(from, to)` ids.
    edges: Vec<(u32, u32)>,
    /// `closed` unless the state cap cut the pass short.
    pub stats: SearchStats,
}

impl Reachability {
    /// The reachable states, in BFS discovery order.
    pub fn states(&self) -> &[u64] {
        &self.order
    }

    /// Is `s` reachable?
    pub fn contains(&self, s: u64) -> bool {
        self.id.contains_key(&s)
    }

    /// The BFS move sequence from the origin to `s`; empty when `s` is
    /// not reachable.
    pub fn path_to(&self, s: u64) -> Vec<Depth1Move> {
        self.id.get(&s).map_or_else(Vec::new, |&i| self.run_to(i))
    }

    /// The BFS move sequence from the origin to state id `i`.
    fn run_to(&self, mut i: u32) -> Vec<Depth1Move> {
        let mut rev = Vec::new();
        while let Some((p, m)) = self.parent[i as usize] {
            rev.push(m);
            i = p;
        }
        rev.reverse();
        rev
    }
}

// ---------------------------------------------------------------------------
// Formula compilation to bitset expressions
// ---------------------------------------------------------------------------

/// Evaluation context within a canonical depth-1 instance: the root or the
/// (unique) child carrying label bit `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Root,
    Child(u8),
}

/// A compiled Boolean function of the state bitset: a truth table over
/// its dependency bits when it reads at most 8 of them, else its
/// expression tree.
#[derive(Debug, Clone)]
pub struct Compiled(Repr);

/// Most label bits a [`Compiled`] truth table ranges over.
const TABLE_BITS: usize = 8;

#[derive(Debug, Clone)]
enum Repr {
    /// Bit `k` of a state's index is state bit `deps[k]`, for `k < len`
    /// (`deps` ascending); the value at index `x` is bit `x` of `table`.
    Table {
        deps: [u8; TABLE_BITS],
        len: u8,
        table: [u64; 4],
    },
    Tree(Bx),
}

#[derive(Debug, Clone)]
enum Bx {
    Const(bool),
    Bit(u8),
    Not(Box<Bx>),
    And(Vec<Bx>),
    Or(Vec<Bx>),
}

impl Bx {
    /// The flattened `∧` (`and`) or `∨` of `items`, without operands that
    /// are its identity; the identity when none is left.
    fn junction(items: impl IntoIterator<Item = Bx>, and: bool) -> Bx {
        let mut ops: Vec<Bx> = Vec::new();
        for b in items {
            match (b, and) {
                (Bx::Const(c), _) if c == and => {}
                (Bx::And(bs), true) | (Bx::Or(bs), false) => ops.extend(bs),
                (b, _) => ops.push(b),
            }
        }
        match ops.len() {
            0 => Bx::Const(and),
            1 => ops.pop().expect("one operand"),
            _ if and => Bx::And(ops),
            _ => Bx::Or(ops),
        }
    }

    /// Set the bit of every state bit `self` reads in `mask`.
    fn deps(&self, mask: &mut u64) {
        match self {
            Bx::Const(_) => {}
            Bx::Bit(i) => *mask |= 1 << i,
            Bx::Not(x) => x.deps(mask),
            Bx::And(xs) | Bx::Or(xs) => xs.iter().for_each(|x| x.deps(mask)),
        }
    }

    /// The truth table of `self` over `deps`, which hold every bit it
    /// reads: one walk over 256-bit columns, each operator a word op.
    fn table(&self, deps: &[u8]) -> [u64; 4] {
        match self {
            Bx::Const(c) => [if *c { !0 } else { 0 }; 4],
            Bx::Bit(i) => column(
                deps.iter()
                    .position(|d| d == i)
                    .expect("bit is a dependency"),
            ),
            Bx::Not(x) => x.table(deps).map(|w| !w),
            Bx::And(xs) => xs.iter().fold([!0; 4], |acc, x| {
                let t = x.table(deps);
                std::array::from_fn(|w| acc[w] & t[w])
            }),
            Bx::Or(xs) => xs.iter().fold([0; 4], |acc, x| {
                let t = x.table(deps);
                std::array::from_fn(|w| acc[w] | t[w])
            }),
        }
    }
}

impl Compiled {
    fn compile(f: &Formula, ctx: Ctx, bits: &HashMap<&str, u8>) -> Compiled {
        Compiled::from_bx(compile_formula(f, ctx, bits))
    }

    /// Tabulate `b` when it reads at most [`TABLE_BITS`] state bits.
    fn from_bx(b: Bx) -> Compiled {
        let mut mask = 0u64;
        b.deps(&mut mask);
        if mask.count_ones() as usize > TABLE_BITS {
            return Compiled(Repr::Tree(b));
        }
        let mut deps = [0u8; TABLE_BITS];
        let mut len = 0u8;
        let mut rest = mask;
        while rest != 0 {
            deps[len as usize] = rest.trailing_zeros() as u8;
            len += 1;
            rest &= rest - 1;
        }
        let table = b.table(&deps[..len as usize]);
        Compiled(Repr::Table { deps, len, table })
    }

    /// Evaluate against a state bitset.
    #[inline]
    pub fn eval(&self, s: u64) -> bool {
        match &self.0 {
            Repr::Table { deps, len, table } => {
                let mut x = 0;
                for (k, &d) in deps[..*len as usize].iter().enumerate() {
                    x |= (s >> d & 1) << k;
                }
                table[(x >> 6) as usize] >> (x & 63) & 1 == 1
            }
            Repr::Tree(b) => eval_bx(b, s),
        }
    }
}

/// The truth-table column of index bit `k < 8` over 256 indices: bit `x`
/// is bit `k` of `x`.
fn column(k: usize) -> [u64; 4] {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match k {
        0..=5 => [LOW[k]; 4],
        6 => [0, !0, 0, !0],
        _ => [0, 0, !0, !0],
    }
}

fn eval_bx(b: &Bx, s: u64) -> bool {
    match b {
        Bx::Const(c) => *c,
        Bx::Bit(i) => s >> i & 1 == 1,
        Bx::Not(x) => !eval_bx(x, s),
        Bx::And(xs) => xs.iter().all(|x| eval_bx(x, s)),
        Bx::Or(xs) => xs.iter().any(|x| eval_bx(x, s)),
    }
}

fn compile_formula(f: &Formula, ctx: Ctx, bits: &HashMap<&str, u8>) -> Bx {
    match f {
        Formula::True => Bx::Const(true),
        Formula::False => Bx::Const(false),
        Formula::Not(g) => Bx::Not(Box::new(compile_formula(g, ctx, bits))),
        Formula::And(fs) => Bx::junction(fs.iter().map(|g| compile_formula(g, ctx, bits)), true),
        Formula::Or(fs) => Bx::junction(fs.iter().map(|g| compile_formula(g, ctx, bits)), false),
        Formula::Path(p) => {
            // `n ⊨ p` ⇔ some target reachable: OR of target guards.
            let ts = compile_path(p, ctx, bits);
            Bx::junction(ts.into_iter().map(|(_, g)| g), false)
        }
    }
}

/// Targets of a path from `ctx`, each with the condition under which it is
/// reached: a left fold over the steps. Contexts are merged (OR) to keep
/// the expression small.
fn compile_path(p: &PathExpr, ctx: Ctx, bits: &HashMap<&str, u8>) -> Vec<(Ctx, Bx)> {
    let mut targets = vec![(ctx, Bx::Const(true))];
    for step in p.steps() {
        let mut next: Vec<(Ctx, Bx)> = Vec::new();
        for (c, g) in targets {
            let (c2, cond) = match (step, c) {
                (PathStep::Filter(f), c) => (c, compile_formula(f, c, bits)),
                (PathStep::Parent, Ctx::Child(_)) => (Ctx::Root, Bx::Const(true)),
                (PathStep::Label(l), Ctx::Root) => match bits.get(l.as_str()) {
                    // The l-child exists iff its bit is set.
                    Some(&i) => (Ctx::Child(i), Bx::Bit(i)),
                    None => continue, // label not in schema: never matches
                },
                // The root has no parent, and depth-1 children are leaves.
                (PathStep::Parent, Ctx::Root) | (PathStep::Label(_), Ctx::Child(_)) => continue,
            };
            let g = Bx::junction([g, cond], true);
            match next.iter_mut().find(|(c, _)| *c == c2) {
                Some(slot) => {
                    let prev = std::mem::replace(&mut slot.1, Bx::Const(false));
                    slot.1 = Bx::junction([prev, g], false);
                }
                None => next.push((c2, g)),
            }
        }
        targets = next;
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Schema};
    use std::sync::Arc;

    fn form(
        schema: &str,
        rules: &[(&str, &str, &str)], // (label, add, del)
        initial: &str,
        completion: &str,
    ) -> GuardedForm {
        let schema = Arc::new(Schema::parse(schema).unwrap());
        let mut table = AccessRules::new(&schema);
        for (l, add, del) in rules {
            table.set_both(
                schema.resolve(l).unwrap(),
                Formula::parse(add).unwrap(),
                Formula::parse(del).unwrap(),
            );
        }
        let init = Instance::parse(schema.clone(), initial).unwrap();
        GuardedForm::new(schema, table, init, Formula::parse(completion).unwrap())
    }

    #[test]
    fn sequencing_chain() {
        // a then b then c; each freezes the previous.
        let g = form(
            "a, b, c",
            &[
                ("a", "!a & !b", "!b"),
                ("b", "a & !b & !c", "!c"),
                ("c", "b & !c", "false"),
            ],
            "",
            "a & b & c",
        );
        let sys = Depth1System::new(&g).unwrap();
        assert_eq!(sys.n(), 3);
        let ans = sys.completability(usize::MAX);
        assert_eq!(ans.verdict, Verdict::Holds);
        let moves = ans.moves.unwrap();
        assert_eq!(moves.len(), 3);
        // Concretised run replays on the real form.
        let run = sys.concretize(&g, &moves);
        assert!(g.is_complete_run(&run));
        // And the form is semi-sound: any state can still finish.
        assert_eq!(sys.semisoundness(usize::MAX).verdict, Verdict::Holds);
    }

    /// Both witnesses are the first in BFS order, so every build of the
    /// system gives the same run, though several goals share one depth.
    #[test]
    fn witnesses_follow_bfs_order() {
        // Goals `{a}` and `{b}` both at depth 1; `{a}` and `{b}` are also
        // the incompletable states of the second form.
        let complete = form(
            "a, b",
            &[("a", "true", "false"), ("b", "true", "false")],
            "",
            "a | b",
        );
        let stuck = form(
            "a, b, c",
            &[
                ("a", "true", "false"),
                ("b", "true", "false"),
                ("c", "!a & !b", "false"),
            ],
            "",
            "c",
        );
        for _ in 0..8 {
            let ans = Depth1System::new(&complete)
                .unwrap()
                .completability(usize::MAX);
            assert_eq!(ans.moves, Some(vec![Depth1Move::Add(0)]));
            let ans = Depth1System::new(&stuck).unwrap().semisoundness(usize::MAX);
            assert_eq!(ans.verdict, Verdict::Fails);
            assert_eq!(ans.moves, Some(vec![Depth1Move::Add(0)]));
        }
    }

    /// Ids are a prefix of the uncapped discovery order: a complete
    /// state inside the cap is the uncapped witness; past it, both
    /// questions answer `Unknown`. A cap the space fits in binds nothing.
    #[test]
    fn state_cap_truncates_to_unknown() {
        let free = ["a", "b", "c", "d"].map(|l| (l, "true", "true"));
        let g = form("a, b, c, d", &free, "", "a & !b");
        let sys = Depth1System::new(&g).unwrap();
        let exact = sys.completability(usize::MAX);
        assert_eq!(exact.stats.states, 16);
        let capped = sys.completability(2);
        assert_eq!(capped.verdict, Verdict::Holds);
        assert_eq!(capped.moves, exact.moves);
        let truncated = SearchStats {
            states: 2,
            transitions: 1,
            closed: false,
            limit_hit: Some(LimitKind::States),
        };
        assert_eq!(capped.stats, truncated);
        assert_eq!(sys.completability(1).verdict, Verdict::Unknown);
        let ss = sys.semisoundness(15);
        assert_eq!((ss.verdict, ss.stats.states), (Verdict::Unknown, 15));
        assert_eq!(ss.stats.limit_hit, Some(LimitKind::States));
        let ss = sys.semisoundness(16);
        assert_eq!(ss.verdict, Verdict::Holds);
        assert_eq!(ss.stats, sys.semisoundness(usize::MAX).stats);
    }

    #[test]
    fn incompletable_form() {
        // c requires b, b requires a, but a requires c: deadlock.
        let g = form(
            "a, b, c",
            &[("a", "c", "true"), ("b", "a", "true"), ("c", "b", "true")],
            "",
            "c",
        );
        let sys = Depth1System::new(&g).unwrap();
        assert_eq!(sys.completability(usize::MAX).verdict, Verdict::Fails);
        // Not semi-sound either (the initial state itself is incompletable).
        let ss = sys.semisoundness(usize::MAX);
        assert_eq!(ss.verdict, Verdict::Fails);
        assert_eq!(ss.moves.as_deref(), Some(&[][..]));
    }

    #[test]
    fn trap_state_breaks_semisoundness() {
        // `t` can be added at any time and blocks everything; completion
        // needs `g` which requires ¬t.
        let g = form(
            "g, t",
            &[("g", "!t & !g", "false"), ("t", "!t", "false")],
            "",
            "g",
        );
        let sys = Depth1System::new(&g).unwrap();
        assert_eq!(sys.completability(usize::MAX).verdict, Verdict::Holds);
        let ss = sys.semisoundness(usize::MAX);
        assert_eq!(ss.verdict, Verdict::Fails);
        // The counterexample is the state {t} (or {g,t} — any with t).
        let s = ss.witness_state.unwrap();
        let t_bit = sys.label_names().iter().position(|l| l == "t").unwrap();
        assert_eq!(s >> t_bit & 1, 1);
        // Concretised counterexample run replays and its end state is stuck.
        let run = sys.concretize(&g, ss.moves.as_ref().unwrap());
        let r = g.replay(&run).unwrap();
        assert!(!g.is_complete(r.last()));
    }

    #[test]
    fn deletion_transitions() {
        // Completion = ¬a with a initially present and deletable only
        // after b arrives.
        let g = form(
            "a, b",
            &[("a", "false", "b"), ("b", "!b", "false")],
            "a",
            "!a & b",
        );
        let sys = Depth1System::new(&g).unwrap();
        let ans = sys.completability(usize::MAX);
        assert_eq!(ans.verdict, Verdict::Holds);
        let run = sys.concretize(&g, &ans.moves.unwrap());
        assert!(g.is_complete_run(&run));
    }

    #[test]
    fn multiplicities_collapse_in_initial_state() {
        let g = form("a, b", &[("a", "false", "true")], "a, a, a", "!a");
        let sys = Depth1System::new(&g).unwrap();
        // Canonical initial state has a single `a` bit…
        assert_eq!(sys.initial_state().count_ones(), 1);
        // …and deletion reaches ¬a by deleting all three copies.
        let ans = sys.completability(usize::MAX);
        assert_eq!(ans.verdict, Verdict::Holds);
        let run = sys.concretize(&g, &ans.moves.unwrap());
        assert_eq!(run.len(), 3); // one concrete delete per copy
        assert!(g.is_complete_run(&run));
    }

    #[test]
    fn rejects_deep_schemas() {
        let g = {
            let schema = Arc::new(Schema::parse("a(b)").unwrap());
            let table = AccessRules::new(&schema);
            let init = Instance::empty(schema.clone());
            GuardedForm::new(schema, table, init, Formula::True)
        };
        assert!(matches!(
            Depth1System::new(&g),
            Err(Depth1Error::NotDepthOne { depth: 2 })
        ));
    }

    #[test]
    fn compiled_guards_match_interpreter() {
        // Differential check: compiled bitset evaluation agrees with the
        // tree-walking evaluator on every state of a 5-label schema (truth
        // tables) and of a 10-label one (trees past 8 label bits).
        let cases: [(&[&str], &[&str]); 2] = [
            (
                &["a", "b", "c", "d", "e"],
                &[
                    "a & !b | c[..[d]]",
                    "!(a | b) & (c | d[..[e & a]])",
                    "a[.. [b & c]] | !d",
                    "e & !e | a",
                    "..",
                    "a/..",
                    "zz | a", // unknown label
                ],
            ),
            (
                &["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
                &[
                    "a & !b | c[..[d & e]] | f & g & !h | i[..[j]]",
                    "!(a | b | c | d | e | f | g | h | i | j)",
                    "(a | b) & (c | d) & (e | f) & (g | h) & !(i & j)",
                    "a & b & c & d & e & f & g & h",
                ],
            ),
        ];
        for (labels, formulas) in cases {
            let schema = Arc::new(Schema::parse(&labels.join(", ")).unwrap());
            let bit_of: HashMap<&str, u8> = labels
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, i as u8))
                .collect();
            for ft in formulas {
                let f = Formula::parse(ft).unwrap();
                let compiled = Compiled::compile(&f, Ctx::Root, &bit_of);
                // Miri samples the 10-label states.
                let step = if cfg!(miri) && labels.len() > 8 {
                    61
                } else {
                    1
                };
                for s in (0u64..1 << labels.len()).step_by(step) {
                    // Materialise the canonical instance for state s.
                    let mut inst = Instance::empty(schema.clone());
                    for (i, l) in labels.iter().enumerate() {
                        if s >> i & 1 == 1 {
                            inst.add_child_by_label(InstNodeId::ROOT, l).unwrap();
                        }
                    }
                    assert_eq!(
                        compiled.eval(s),
                        idar_core::formula::holds_at_root(&inst, &f),
                        "mismatch for `{ft}` at state {s:b}"
                    );
                }
            }
        }
    }

    /// A random expression over bits `0..n`, at most `depth` operators
    /// deep; `next` is the random source.
    fn random_bx(next: &mut impl FnMut() -> u64, n: u8, depth: u32) -> Bx {
        match next() % if depth == 0 { 2 } else { 5 } {
            0 if n > 0 => Bx::Bit((next() % u64::from(n)) as u8),
            0 | 1 => Bx::Const(next() & 1 == 1),
            2 => Bx::Not(Box::new(random_bx(next, n, depth - 1))),
            k => {
                let ops = (0..1 + next() % 4).map(|_| random_bx(next, n, depth - 1));
                Bx::junction(ops, k == 3)
            }
        }
    }

    /// `bits` ANDed, each negated where `neg` has its bit set.
    fn cube(bits: std::ops::Range<u8>, neg: u64) -> Bx {
        Bx::junction(
            bits.map(|i| match neg >> i & 1 {
                1 => Bx::Not(Box::new(Bx::Bit(i))),
                _ => Bx::Bit(i),
            }),
            true,
        )
    }

    /// Truth-table evaluation equals the tree walk on every assignment
    /// of random guards over 0–12 labels, constant guards and guards of
    /// exactly 8 (a table) and 9 (a tree) dependency bits included.
    #[test]
    fn truth_tables_match_tree_evaluation() {
        let mut x = 0x5EED_u64;
        let mut next = move || {
            // SplitMix64.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let per_width = if cfg!(miri) { 2 } else { 24 };
        let mut guards = vec![
            Bx::Const(false),
            Bx::Const(true),
            cube(0..8, 0b1010_0110),
            Bx::Or(vec![cube(1..9, 0), Bx::Not(Box::new(Bx::Bit(0)))]),
            Bx::Or(vec![cube(0..5, 0b1), cube(4..9, 0b1_0000)]),
        ];
        for n in 0..=12u8 {
            for _ in 0..per_width {
                guards.push(random_bx(&mut next, n, 4));
            }
        }
        let (mut tables, mut trees) = (0, 0);
        for b in guards {
            let mut mask = 0;
            b.deps(&mut mask);
            let compiled = Compiled::from_bx(b.clone());
            match compiled.0 {
                Repr::Table { .. } => tables += 1,
                Repr::Tree(_) => trees += 1,
            }
            assert_eq!(
                matches!(compiled.0, Repr::Table { .. }),
                mask.count_ones() <= 8,
                "{b:?}"
            );
            // Every assignment of the bits up to the highest one read.
            let span = 64 - mask.leading_zeros();
            for s in 0u64..1 << span {
                assert_eq!(compiled.eval(s), eval_bx(&b, s), "{b:?} at {s:b}");
            }
        }
        assert!(tables > 0 && trees > 0, "{tables} tables, {trees} trees");
    }

    #[test]
    fn empty_schema_trivial() {
        let schema = Arc::new(idar_core::SchemaBuilder::new().build());
        let g = GuardedForm::new(
            schema.clone(),
            AccessRules::new(&schema),
            Instance::empty(schema.clone()),
            Formula::True,
        );
        let sys = Depth1System::new(&g).unwrap();
        assert_eq!(sys.n(), 0);
        assert_eq!(sys.completability(usize::MAX).verdict, Verdict::Holds);
        assert_eq!(sys.semisoundness(usize::MAX).verdict, Verdict::Holds);
    }
}
