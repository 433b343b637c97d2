//! Bounded explicit-state exploration of a guarded form's run space.
//!
//! States are deduplicated — under the default [`SymmetryMode::Reduced`]
//! — *up to isomorphism* via interned canonical encodings, which preserve
//! sibling multiplicity. This is deliberately **not** the bisimulation
//! quotient: Lemma 4.3 makes the canonical-instance abstraction sound for
//! depth-1 forms only, and Thm 4.1 shows that at depth ≥ 2 multiplicities
//! carry real information (they encode counter values!). The depth-1 fast
//! path lives in [`crate::depth1`]; this explorer is the general-purpose
//! engine. [`SymmetryMode::Plain`] turns the symmetry reduction off
//! (states are ordered trees) — the ablation baseline the differential
//! fuzzer compares against.
//!
//! Because completability is undecidable in general (Thm 4.1), the
//! exploration is bounded, and the outcome records whether the search
//! *closed* — i.e. exhausted every reachable state without hitting a limit.
//! When it closed, negative answers are exact; otherwise they are reported
//! as [`Verdict::Unknown`](crate::Verdict) by the callers.
//!
//! # One engine, two stores
//!
//! Every search runs one breadth-first driver, generic over a small
//! `Store` trait and monomorphised per store:
//!
//! * the flat [`StateStore`] keeps each state's instance, canonical words
//!   and provenance resident — [`Explorer::find`] and [`Explorer::graph`]
//!   run on it;
//! * the out-of-core `SpillStore` ([`crate::spill`]) keeps only the
//!   frontier's instances, with delta-compressed words that spill to disk
//!   under a [`MemoryBudget`] — the capacity engine behind
//!   [`Explorer::find_spilled`], its one entry.
//!
//! Both dedup through one fingerprint index, and
//! [`SymmetryMode`] picks the key both are probed with.
//!
//! The driver owns the FIFO queue, the goal check at the root, the
//! depth-limit probe, the goal-before-state-cap sequencing and the prune
//! bookkeeping. One expansion step owns prune → probe → materialize for a
//! single state. [`Explorer::resume`] runs the same driver over a view of
//! a retained [`StateGraph`] (see [`crate::session`]) that replays logged
//! expansions and calls the same step for the rest.
//!
//! State ids follow discovery order, so a search is deterministic: both
//! stores report bit-identical [`SearchStats`] and the same goal state.
//! [`crate::reference`] codes the same contract naively, as the oracle the
//! differential tests and the fuzzer hold both stores to.
//!
//! # Probe before you materialize
//!
//! Most transitions reach a state that is already stored (94 % on
//! `subset_lattice(16)`), so the step never builds a successor just to
//! find that out. It lays the expanded state out once in a
//! [`KeyLayout`], splices each successor's dedup key from it — only the
//! spine from the touched node to the root is rewritten — and probes the
//! store with `(fingerprint, words)`. The store clones the parent and
//! applies the update only on a miss. The spliced key is identical to
//! the materialized successor's `canon_key()` / `ordered_key()`, so
//! state ids and [`SearchStats`] are unchanged. The layout and its word
//! buffers belong to the driver and are reused across expansions.

use crate::session::{ExpandEvent, ExpansionLog, StateGraph};
use crate::spill::{MemoryBudget, SpillReport, SpillStore};
use crate::store::{StateId, StateStore, SymmetryMode};
use crate::verdict::{LimitKind, SearchStats, Verdict};
use idar_core::{GuardedForm, Instance, KeyLayout, Update};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Resource limits for bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExploreLimits {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Maximum live-node count per instance; additions beyond it are pruned.
    pub max_state_size: usize,
    /// Maximum run length (steps from the initial instance).
    pub max_depth: usize,
    /// If set, prune additions that would give a parent more than this many
    /// children along one schema edge. Sound completeness bounds for this
    /// cap exist in fragment `F(A+, φ−, k)` (Thm 5.2 / Lemma 4.4); the
    /// [`crate::np`] solver computes one. Elsewhere it is a heuristic and
    /// de-closes the search.
    pub multiplicity_cap: Option<usize>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 200_000,
            max_state_size: 160,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        }
    }
}

impl ExploreLimits {
    /// Limits suitable for small exhaustive checks in tests.
    pub fn small() -> Self {
        ExploreLimits {
            max_states: 20_000,
            max_state_size: 64,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        }
    }
}

/// The result of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// A run (update sequence from the initial instance) reaching the first
    /// goal state found, if any.
    pub goal_run: Option<Vec<Update>>,
    /// Search statistics; `stats.closed` reports exhaustiveness.
    pub stats: SearchStats,
}

impl ExploreOutcome {
    /// The verdict of a goal search: `Holds` on a goal run, `Fails` when
    /// the search closed without one (the space is exhausted), `Unknown`
    /// otherwise.
    pub fn verdict(&self) -> Verdict {
        match (&self.goal_run, self.stats.closed) {
            (Some(_), _) => Verdict::Holds,
            (None, true) => Verdict::Fails,
            (None, false) => Verdict::Unknown,
        }
    }
}

/// The host's available parallelism (1 if unknown). Explorations are
/// single-threaded; this sizes the across-request pool of the server's
/// HTTP workers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size a pool for `jobs` concurrent jobs under a budget of `threads`:
/// `(pool, 1)` with `pool = min(threads, jobs)`, at least 1 — never more
/// workers than configured, no idle workers. The second component is
/// the per-job thread grant, always 1 because explorations are
/// single-threaded. `idar-server` sizes its HTTP worker pool with it.
pub fn split_threads(threads: usize, jobs: usize) -> (usize, usize) {
    (threads.min(jobs).max(1), 1)
}

/// Bounded breadth-first explorer over a guarded form's instances.
///
/// ```
/// use idar_core::leave;
/// use idar_solver::{ExploreLimits, Explorer};
///
/// let form = leave::example_3_12();
/// let explorer = Explorer::new(&form, ExploreLimits::small());
/// let out = explorer.find(|i| form.is_complete(i));
/// let run = out.goal_run.expect("the leave form is completable");
/// assert!(form.is_complete_run(&run));
/// ```
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    form: &'a GuardedForm,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    memory: MemoryBudget,
}

impl<'a> Explorer<'a> {
    /// An explorer over `form` with the given limits and symmetry
    /// reduction on.
    pub fn new(form: &'a GuardedForm, limits: ExploreLimits) -> Self {
        Explorer {
            form,
            limits,
            symmetry: SymmetryMode::Reduced,
            memory: MemoryBudget::unbounded(),
        }
    }

    /// Ignores its argument: exploration is single-threaded. Kept so
    /// existing callers still compile.
    #[deprecated(note = "exploration is single-threaded; this is a no-op")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Select the state-space quotient: [`SymmetryMode::Reduced`]
    /// (default, isomorphism classes) or [`SymmetryMode::Plain`] (ordered
    /// trees — no symmetry reduction, for ablations and differential
    /// testing).
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Set the byte budget of [`Explorer::find_spilled`]'s paged arena
    /// (see [`crate::spill`]): cold pages spill to a temp file so the
    /// arena-resident encoded bytes stay under it. The other searches
    /// run on the flat store and ignore it.
    pub fn with_memory_budget(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// The configured symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// BFS from the initial instance until `goal` holds for some state (or
    /// the space/limits are exhausted). Returns the shortest-in-BFS run to
    /// the goal, if found.
    pub fn find(&self, goal: impl FnMut(&Instance) -> bool) -> ExploreOutcome {
        let mut store = StateStore::new(self.symmetry);
        let (stats, hit) = bfs(self.form, &self.limits, &mut store, goal, &mut ());
        ExploreOutcome {
            goal_run: hit.map(|j| store.run_to(j)),
            stats,
        }
    }

    /// The capacity engine: [`Explorer::find`] on the out-of-core
    /// store, returning the run's [`SpillReport`] alongside the outcome.
    /// Decoded instances live only in the BFS queue (a popped state's
    /// instance is dropped once expanded), canonical words live as delta
    /// records in the paged arena, and cold pages spill to disk under
    /// the [`MemoryBudget`] (an unbounded budget keeps every page hot
    /// but still delta-encodes). It visits the same states with the
    /// same [`SearchStats`] as `find`.
    pub fn find_spilled(
        &self,
        goal: impl FnMut(&Instance) -> bool,
    ) -> (ExploreOutcome, SpillReport) {
        let mut store = SpillStore::new(self.symmetry, self.memory);
        let (stats, hit) = bfs(self.form, &self.limits, &mut store, goal, &mut ());
        let goal_run = hit.map(|j| store.run_to(j));
        (ExploreOutcome { goal_run, stats }, store.report())
    }

    /// The **build phase**: explore exhaustively (within limits) and
    /// keep everything — states, provenance and the per-state expansion
    /// log, which is also the edge set — as a [`StateGraph`] that later
    /// queries [`resume`](Explorer::resume) from.
    pub fn graph(&self) -> StateGraph {
        let mut store = StateStore::new(self.symmetry);
        let mut log = ExpansionLog::default();
        let (stats, _) = bfs(self.form, &self.limits, &mut store, |_| false, &mut log);
        StateGraph::from_build(store, stats, log, self.limits)
    }

    /// The **query phase**: run the BFS from a state already interned
    /// in `graph` and search for `goal` under *this* explorer's limits,
    /// reusing every retained state, provenance pointer, and logged
    /// expansion. Equivalent — in verdict, goal depth, and
    /// [`SearchStats`] — to a cold [`Explorer::find`] on the form
    /// re-rooted at that state's instance; see the [`crate::session`]
    /// docs for the exact contract. New states discovered past the
    /// retained frontier are interned into the graph, growing it for
    /// subsequent queries.
    pub fn resume(
        &self,
        graph: &mut StateGraph,
        from: StateId,
        goal: impl FnMut(&Instance) -> bool,
    ) -> ExploreOutcome {
        graph.resume(self.form, &self.limits, from, goal)
    }
}

/// A state store the BFS driver runs over: the flat [`StateStore`], the
/// out-of-core [`SpillStore`], or a resume's view of a [`StateGraph`].
/// Ids are dense and assigned in discovery order; the stores' root is
/// id 0.
pub(crate) trait Store: Sized {
    /// A queued state: its id plus whatever the store needs to expand it.
    type Item;
    /// The state the search starts from: the form's initial instance,
    /// interned.
    fn root(&mut self, form: &GuardedForm) -> Self::Item;
    /// The id of a queued state.
    fn id(item: &Self::Item) -> StateId;
    /// The BFS depth of a queued state.
    fn depth_of(&self, item: &Self::Item) -> usize;
    /// The instance of a queued state.
    fn instance<'s>(&'s self, item: &'s Self::Item) -> &'s Instance;
    /// The quotient the store dedups by, hence the key it is probed with.
    fn symmetry(&self) -> SymmetryMode;
    /// Probe for the successor `u` makes of `parent`, given its dedup key
    /// `(fingerprint, words)`: its id, and its queue item when it is new.
    /// Only a new successor is materialized (clone + apply).
    fn successor(
        &mut self,
        form: &GuardedForm,
        parent: &Self::Item,
        u: Update,
        fingerprint: u64,
        words: &[u32],
    ) -> (StateId, Option<Self::Item>);
    /// The driver is about to expand the first state of BFS layer `depth`.
    fn begin_layer(&mut self, _depth: usize) {}
    /// Expand `item`, handing every outcome to `visit`: the one
    /// expansion step, [`expand`].
    ///
    /// This and [`expand`] are always inlined: left to the compiler, one
    /// of the two stays out of line in the driver, and the flat and
    /// spilled searches lose a few percent of their states per second.
    #[inline(always)]
    fn expand<B>(
        &mut self,
        form: &GuardedForm,
        limits: &ExploreLimits,
        layout: &mut KeyLayout,
        item: &Self::Item,
        visit: impl FnMut(&mut Self, ExpandEvent, Option<Self::Item>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        expand(form, limits, self, layout, item, visit)
    }
}

impl Store for StateStore {
    type Item = StateId;

    fn root(&mut self, form: &GuardedForm) -> StateId {
        self.intern(form.initial().clone(), None).0
    }

    fn id(item: &StateId) -> StateId {
        *item
    }

    fn depth_of(&self, item: &StateId) -> usize {
        self.depth(*item)
    }

    fn instance<'s>(&'s self, item: &'s StateId) -> &'s Instance {
        self.get(*item)
    }

    fn symmetry(&self) -> SymmetryMode {
        StateStore::symmetry(self)
    }

    fn successor(
        &mut self,
        form: &GuardedForm,
        parent: &StateId,
        u: Update,
        fingerprint: u64,
        words: &[u32],
    ) -> (StateId, Option<StateId>) {
        let (j, is_new) = self.intern_words(fingerprint, words, Some((*parent, u)), |store| {
            materialize(form, store.get(*parent), u)
        });
        (j, is_new.then_some(j))
    }
}

/// The spill store keeps only compressed words, so the decoded instance
/// travels in the queue item with its id and depth.
impl Store for SpillStore {
    type Item = (StateId, usize, Instance);

    fn root(&mut self, form: &GuardedForm) -> Self::Item {
        let initial = form.initial().clone();
        let key = (self.symmetry().keying().0)(&initial);
        let (id, _) = self.intern(key.fingerprint(), key.words(), None, 0);
        (id, 0, initial)
    }

    fn id(item: &Self::Item) -> StateId {
        item.0
    }

    fn depth_of(&self, item: &Self::Item) -> usize {
        item.1
    }

    fn instance<'s>(&'s self, item: &'s Self::Item) -> &'s Instance {
        &item.2
    }

    fn symmetry(&self) -> SymmetryMode {
        SpillStore::symmetry(self)
    }

    fn successor(
        &mut self,
        form: &GuardedForm,
        parent: &Self::Item,
        u: Update,
        fingerprint: u64,
        words: &[u32],
    ) -> (StateId, Option<Self::Item>) {
        let depth = parent.1 + 1;
        let (j, is_new) = self.intern(fingerprint, words, Some((parent.0, u)), depth as u32);
        (
            j,
            is_new.then(|| (j, depth, materialize(form, &parent.2, u))),
        )
    }

    fn begin_layer(&mut self, depth: usize) {
        SpillStore::begin_layer(self, depth as u32);
    }
}

/// Where the driver reports each expansion: nowhere (goal searches and
/// resumes) or an [`ExpansionLog`] (graph builds).
pub(crate) trait Journal {
    /// Expansion of state `i` starts.
    fn begin(&mut self, _i: StateId) {}
    /// One enumeration outcome of state `i`.
    fn push(&mut self, _i: StateId, _ev: ExpandEvent) {}
    /// Expansion of state `i` ran to the end.
    fn seal(&mut self, _i: StateId) {}
}

impl Journal for () {}

/// The one BFS driver: a FIFO queue over `store` from its root (the
/// form's initial instance, or a resume's seed). The goal is checked on
/// the root and then on each newly discovered state, before the state
/// cap; the root counts against the cap, so a search visits at most
/// `max_states` states (and always the root: a cap of 1 or 0 stops there,
/// closed only when the root has no successor). A depth-limited search
/// probes the unexpanded frontier for successors to decide whether it
/// closed. Returns the statistics and the goal state found, if any.
pub(crate) fn bfs<S: Store>(
    form: &GuardedForm,
    limits: &ExploreLimits,
    store: &mut S,
    mut goal: impl FnMut(&Instance) -> bool,
    journal: &mut impl Journal,
) -> (SearchStats, Option<StateId>) {
    let mut stats = SearchStats {
        states: 1,
        ..SearchStats::default()
    };
    let root = store.root(form);
    if goal(store.instance(&root)) {
        stats.closed = true;
        return (stats, Some(S::id(&root)));
    }
    // The root fills a cap of 1 (or 0): stop unless the search would
    // close at the root anyway.
    if stats.states >= limits.max_states && has_successor(form, store.instance(&root)) {
        stats.limit_hit = Some(LimitKind::States);
        return (stats, None);
    }
    let mut queue = VecDeque::from([root]);
    let mut layout = KeyLayout::default();
    let mut layer = 0;
    let mut pruned = false;

    while let Some(item) = queue.pop_front() {
        let depth = store.depth_of(&item);
        if depth > layer {
            layer = depth;
            store.begin_layer(depth);
        }
        if depth >= limits.max_depth {
            // Queue depths are non-decreasing, so every state still
            // queued is at the limit too: the search is exhaustive iff
            // none of them has a successor.
            if std::iter::once(&item)
                .chain(&queue)
                .any(|s| has_successor(form, store.instance(s)))
            {
                pruned = true;
                stats.limit_hit = Some(LimitKind::Depth);
            }
            break;
        }
        let i = S::id(&item);
        journal.begin(i);
        let flow = store.expand(form, limits, &mut layout, &item, |store, ev, new| {
            stats.transitions += 1;
            journal.push(i, ev);
            if let ExpandEvent::Pruned(k) = ev {
                pruned = true;
                stats.limit_hit = Some(k);
            }
            let Some(new) = new else {
                return ControlFlow::Continue(());
            };
            stats.states += 1;
            if goal(store.instance(&new)) {
                return ControlFlow::Break(Some(S::id(&new)));
            }
            if stats.states >= limits.max_states {
                stats.limit_hit = Some(LimitKind::States);
                return ControlFlow::Break(None);
            }
            queue.push_back(new);
            ControlFlow::Continue(())
        });
        if let ControlFlow::Break(hit) = flow {
            return (stats, hit);
        }
        journal.seal(i);
    }

    stats.closed = !pruned;
    (stats, None)
}

/// The one expansion step: enumerate `item`'s allowed updates in order;
/// prune each addition that breaks a per-expansion limit, else splice
/// the successor's key from `item`'s layout and probe the store with it,
/// which materializes the successor only when it is new; hand every
/// outcome — with the successor's queue item when it is new — to
/// `visit`, which may stop the expansion. `layout` is the caller's
/// scratch, reused across expansions; it is laid out from `item` at the
/// first update that is not pruned.
#[inline(always)]
pub(crate) fn expand<S: Store, B>(
    form: &GuardedForm,
    limits: &ExploreLimits,
    store: &mut S,
    layout: &mut KeyLayout,
    item: &S::Item,
    mut visit: impl FnMut(&mut S, ExpandEvent, Option<S::Item>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut laid_out = false;
    for u in form.allowed_updates(store.instance(item)) {
        let inst = store.instance(item);
        if let Some(k) = pruned_by(limits, inst, u) {
            visit(store, ExpandEvent::Pruned(k), None)?;
            continue;
        }
        if !laid_out {
            let (_, lay_out) = store.symmetry().keying();
            lay_out(layout, inst);
            laid_out = true;
        }
        let (fingerprint, words) = layout.splice(inst, &u);
        let (j, new) = store.successor(form, item, u, fingerprint, words);
        visit(store, ExpandEvent::Edge(u, j), new)?;
    }
    ControlFlow::Continue(())
}

/// The successor `u` makes of `inst`.
fn materialize(form: &GuardedForm, inst: &Instance, u: Update) -> Instance {
    let mut next = inst.clone();
    form.apply_unchecked(&mut next, &u)
        .expect("allowed updates apply");
    next
}

/// The per-expansion limit, if any, that prunes applying `u` at `inst`:
/// only additions are pruned, by state size first, then multiplicity.
fn pruned_by(limits: &ExploreLimits, inst: &Instance, u: Update) -> Option<LimitKind> {
    let Update::Add { parent, edge } = u else {
        return None;
    };
    if inst.live_count() >= limits.max_state_size {
        return Some(LimitKind::StateSize);
    }
    match limits.multiplicity_cap {
        Some(cap) if inst.children_at(parent, edge).count() >= cap => Some(LimitKind::Multiplicity),
        _ => None,
    }
}

/// The driver's depth-limit exhaustiveness probe: does this unexpanded
/// frontier state still have any successor?
fn has_successor(form: &GuardedForm, inst: &Instance) -> bool {
    !form.allowed_updates(inst).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Formula, GuardedForm, Schema};
    use std::sync::Arc;

    /// r with children a, b; free add/del of both but at most one of each
    /// (¬a / ¬b add guards). 4 reachable states.
    fn toggle_form() -> GuardedForm {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set_both(
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
            Formula::True,
        );
        rules.set_both(
            schema.resolve("b").unwrap(),
            Formula::parse("!b").unwrap(),
            Formula::True,
        );
        let init = Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, init, Formula::parse("a & b").unwrap())
    }

    #[test]
    fn finds_goal_and_run_replays() {
        let g = toggle_form();
        let ex = Explorer::new(&g, ExploreLimits::small());
        let out = ex.find(|i| g.is_complete(i));
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), 2);
        assert!(g.is_complete_run(&run));
    }

    #[test]
    fn graph_closes_on_finite_space() {
        let g = toggle_form();
        let graph = Explorer::new(&g, ExploreLimits::small()).graph();
        assert_eq!(graph.state_count(), 4); // {}, {a}, {b}, {a,b}
        assert!(graph.build_stats().closed);
        // Every non-initial state's reconstructed run replays.
        for i in 1..graph.state_count() {
            let run = graph.run_to(i);
            let r = g.replay(&run).unwrap();
            assert!(r.last().isomorphic(graph.state(i)));
        }
    }

    #[test]
    fn edges_cover_all_transitions() {
        let g = toggle_form();
        let graph = Explorer::new(&g, ExploreLimits::small()).graph();
        // state {}: 2 adds; {a}: del a + add b; {b}: del b + add a;
        // {a,b}: del a + del b. Total 8 directed edges.
        assert_eq!(graph.edge_count(), 8);
    }

    #[test]
    fn state_limit_reported() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_states: 2,
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        assert!(!graph.build_stats().closed);
        assert_eq!(graph.build_stats().limit_hit, Some(LimitKind::States));
    }

    /// The root counts against the state cap: a cap of 1 (or 0) visits
    /// the root alone though it has successors, in every engine; a root
    /// without successors still closes the search.
    #[test]
    fn state_cap_counts_the_root() {
        let g = toggle_form();
        // No rule allows anything: the root is the whole space.
        let schema = g.schema().clone();
        let rules = AccessRules::new(&schema);
        let stuck = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::False,
        );
        let capped = SearchStats {
            states: 1,
            transitions: 0,
            closed: false,
            limit_hit: Some(LimitKind::States),
        };
        for max_states in [0, 1] {
            let lim = ExploreLimits {
                max_states,
                ..ExploreLimits::small()
            };
            let found = Explorer::new(&g, lim).find(|i| g.is_complete(i));
            assert_eq!(found.stats, capped, "cap {max_states}");
            assert!(found.goal_run.is_none());
            let graph = Explorer::new(&g, lim).graph();
            assert_eq!(graph.build_stats(), capped, "cap {max_states}");
            assert_eq!(graph.state_count(), 1);
            let oracle =
                crate::reference::explore(&g, &lim, SymmetryMode::Reduced, |i| g.is_complete(i));
            assert_eq!(oracle.stats, capped, "cap {max_states}");
            let closed = Explorer::new(&stuck, lim).find(|_| false).stats;
            assert_eq!(
                (closed.states, closed.closed),
                (1, true),
                "cap {max_states}"
            );
        }
    }

    /// The capacity engine (tiny spill budget) is verdict-, depth- and
    /// stats-identical to the flat in-RAM store, and its witness
    /// run replays.
    #[test]
    fn capacity_engine_matches_sequential_on_leave() {
        let g = idar_core::leave::example_3_12();
        let seq = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        let (cap, report) = Explorer::new(&g, ExploreLimits::small())
            .with_memory_budget(MemoryBudget::bytes(4 * 1024))
            .find_spilled(|i| g.is_complete(i));
        assert_eq!(cap.stats, seq.stats);
        let seq_run = seq.goal_run.expect("completable");
        let cap_run = cap.goal_run.expect("completable");
        assert_eq!(cap_run.len(), seq_run.len(), "same BFS goal depth");
        assert!(g.is_complete_run(&cap_run), "spilled witness replays");
        assert!(report.encoded_bytes > 0);
        assert!(
            report.encoded_bytes < report.word_bytes,
            "delta encoding compresses"
        );
    }

    /// The capacity engine under a zero-byte budget keeps the
    /// exhaustive-search semantics of the flat store.
    #[test]
    fn budgeted_find_closes_finite_space() {
        let g = toggle_form();
        let seq = Explorer::new(&g, ExploreLimits::small()).find(|_| false);
        let (cap, _) = Explorer::new(&g, ExploreLimits::small())
            .with_memory_budget(MemoryBudget::bytes(0))
            .find_spilled(|_| false);
        assert_eq!(cap.stats, seq.stats);
        assert!(cap.stats.closed);
        assert_eq!(cap.stats.states, 4);
    }

    #[test]
    fn unbounded_growth_hits_size_limit() {
        // A form whose instances grow forever: add `a` always allowed.
        let schema = Arc::new(Schema::parse("a").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let init = Instance::empty(schema.clone());
        let g = GuardedForm::new(schema, rules, init, Formula::False);
        let lim = ExploreLimits {
            max_states: 1000,
            max_state_size: 16,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        };
        let graph = Explorer::new(&g, lim).graph();
        assert!(!graph.build_stats().closed);
        assert_eq!(graph.build_stats().limit_hit, Some(LimitKind::StateSize));
        // 16 states: 0..=15 copies of `a` … plus none beyond the cap.
        assert_eq!(graph.state_count(), 16);
    }

    #[test]
    fn multiplicity_cap_prunes() {
        let schema = Arc::new(Schema::parse("a").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let init = Instance::empty(schema.clone());
        let g = GuardedForm::new(schema, rules, init, Formula::False);
        let lim = ExploreLimits {
            multiplicity_cap: Some(3),
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        assert_eq!(graph.state_count(), 4); // 0,1,2,3 copies
        assert!(!graph.build_stats().closed);
        assert_eq!(graph.build_stats().limit_hit, Some(LimitKind::Multiplicity));
    }

    #[test]
    fn goal_at_initial_state() {
        let g = toggle_form().with_completion(Formula::True);
        let out = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        assert_eq!(out.goal_run, Some(vec![]));
    }

    #[test]
    fn depth_limit() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_depth: 1,
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        // initial + {a} + {b}; {a,b} is at depth 2.
        assert_eq!(graph.state_count(), 3);
        assert!(!graph.build_stats().closed);
    }

    /// With the symmetry reduction off (plain mode), sibling permutations
    /// of the toggle form count separately: {a,b} and {b,a} are distinct
    /// ordered trees, and the verdict-relevant facts still agree.
    #[test]
    fn plain_mode_explores_the_ordered_space() {
        let g = toggle_form();
        let reduced = Explorer::new(&g, ExploreLimits::small()).graph();
        let plain = Explorer::new(&g, ExploreLimits::small())
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        assert_eq!(reduced.state_count(), 4);
        assert_eq!(plain.state_count(), 5); // {}, a, b, ab, ba
        assert!(reduced.build_stats().closed && plain.build_stats().closed);
        // Goal search agrees on existence and BFS depth.
        let rf = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        let pf = Explorer::new(&g, ExploreLimits::small())
            .with_symmetry(SymmetryMode::Plain)
            .find(|i| g.is_complete(i));
        assert_eq!(
            rf.goal_run.as_ref().map(Vec::len),
            pf.goal_run.as_ref().map(Vec::len)
        );
        assert!(g.is_complete_run(&pf.goal_run.unwrap()));
    }

    #[test]
    fn thread_budget_split_never_oversubscribes() {
        for threads in 0..=16 {
            for jobs in 0..=24 {
                let (pool, inner) = split_threads(threads, jobs);
                assert!(pool >= 1 && inner == 1);
                assert!(pool <= jobs.max(1), "threads={threads} jobs={jobs}");
                assert!(pool <= threads.max(1), "threads={threads} jobs={jobs}");
            }
        }
        assert_eq!(split_threads(4, 100), (4, 1), "saturated pool");
        assert_eq!(split_threads(8, 2), (2, 1), "few jobs");
        assert_eq!(split_threads(4, 1), (1, 1), "lone job");
    }
}
