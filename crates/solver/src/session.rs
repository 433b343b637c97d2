//! The explored state graph, [`StateGraph`]: the one artifact every
//! state-graph analysis reads, and the build/query split behind
//! incremental re-analysis.
//!
//! [`Explorer::graph`](crate::Explorer::graph) explores a form (within its
//! limits) and keeps
//!
//! * the hash-consed [`StateStore`]: the record store (canonical words,
//!   provenance) plus each state's instance and depth,
//! * an expansion log — for every *expanded* state, the exact ordered
//!   outcome of enumerating its allowed updates: an edge to the
//!   successor, or a prune by a per-expansion limit. The log is the
//!   graph's edge set, and it is what makes warm queries
//!   **bit-compatible** with cold runs, and
//! * per-state completability verdict annotations when the build
//!   *closed* (explored the entire reachable space).
//!
//! Semi-soundness (Def. 3.14), the workflow graph and the Sec. 3.5 form
//! manager all ask the same question of it — which states can reach a
//! complete one — and [`StateGraph::completion`] answers it.
//!
//! # Resume semantics contract
//!
//! [`Explorer::resume`](crate::Explorer::resume) runs the explorer's one
//! BFS driver from an already-interned state, through a view of the graph
//! as a state store: same goal-check order, same prune bookkeeping, same
//! truncation behaviour, and therefore the same [`SearchStats`] and
//! verdict a cold `Explorer::find` from that instance would report. The
//! view replays states whose expansion is fully logged (no
//! `allowed_updates` calls, no instance clones). It expands frontier
//! states — never expanded, or cut short by the build's state cap — in
//! full with the explorer's expansion step, interning new successors into
//! the retained store and logging the completed span before the driver
//! visits its events, so the graph *grows monotonically* under query
//! traffic. Those successors' parents may have left the store's hot
//! window; the record store writes each such successor as a full-word
//! checkpoint.
//!
//! Replaying a logged span is only valid when the per-expansion limits
//! (`max_state_size`, `multiplicity_cap`) match the ones the span was
//! recorded under; a resume under different limits expands every state
//! directly without touching the log.
//!
//! # Exactness
//!
//! `exact()` is `stats.closed` of the build: the explorer sets
//! `closed` only when no prune event fired, and its depth-limit probe
//! verifies the unexpanded frontier has no successors — so a closed
//! build, even a depth-limited one, covers the *entire* reachable space.
//! On an exact graph the per-state annotations are definitive
//! ([`Verdict::Holds`]/[`Verdict::Fails`], never
//! [`Verdict::Unknown`]), and a lookup replaces the whole solve.

use crate::explore::{self, bfs, ExploreLimits, ExploreOutcome, Journal, Store};
use crate::store::{StateId, StateStore, SymmetryMode};
use crate::verdict::{LimitKind, SearchStats, Verdict};
use idar_core::{GuardedForm, Instance, KeyLayout, Update};
use std::ops::ControlFlow;

/// One logged outcome of enumerating a single allowed update while
/// expanding a state: either an edge to the (possibly pre-existing)
/// successor, or a prune by a per-expansion resource limit.
///
/// Every update `allowed_updates` yields produces exactly one event, in
/// enumeration order — which is why replaying a span reproduces a cold
/// run's `transitions` count and truncation points bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExpandEvent {
    /// The update applied; its successor interned as the given state.
    Edge(Update, StateId),
    /// The update was pruned before application by a resource limit.
    Pruned(LimitKind),
}

/// The recorded expansion of one state.
#[derive(Debug, Clone, Default)]
struct Span {
    events: Vec<ExpandEvent>,
    /// `false` while the build was cut short mid-enumeration (state cap):
    /// the events are a valid prefix but the state must be re-expanded
    /// before its span can be replayed.
    complete: bool,
}

/// Per-state expansion journal of a build: `spans[i]` records how state
/// `i` expanded, `None` if it never did (frontier states). It is both the
/// replay source for resumes and the graph's edge set.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExpansionLog {
    spans: Vec<Option<Span>>,
}

impl ExpansionLog {
    fn slot(&mut self, i: StateId) -> &mut Option<Span> {
        if self.spans.len() <= i.index() {
            self.spans.resize(i.index() + 1, None);
        }
        &mut self.spans[i.index()]
    }

    /// The events of `i`'s expansion, if it ran to the end.
    fn complete(&self, i: StateId) -> Option<&[ExpandEvent]> {
        match self.spans.get(i.index()) {
            Some(Some(span)) if span.complete => Some(&span.events),
            _ => None,
        }
    }

    /// Approximate resident bytes of the journal.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<ExpansionLog>()
            + self.spans.capacity() * size_of::<Option<Span>>()
            + self
                .spans
                .iter()
                .flatten()
                .map(|sp| sp.events.capacity() * size_of::<ExpandEvent>())
                .sum::<usize>()
    }
}

/// The build's journal: one span per expanded state.
impl Journal for ExpansionLog {
    /// Open (or replace) the span of `i`: its expansion is starting.
    fn begin(&mut self, i: StateId) {
        *self.slot(i) = Some(Span::default());
    }

    /// Record one enumeration outcome for the open span of `i`.
    fn push(&mut self, i: StateId, ev: ExpandEvent) {
        self.slot(i)
            .as_mut()
            .expect("expansion span opened before events")
            .events
            .push(ev);
    }

    /// Mark the span of `i` complete: enumeration ran to the end.
    fn seal(&mut self, i: StateId) {
        self.slot(i)
            .as_mut()
            .expect("expansion span opened before sealing")
            .complete = true;
    }
}

/// The explored state graph of one exploration: states, edges, expansion
/// journal, bookkeeping — everything a later query needs to continue
/// where the build stopped. See the module docs for the build/query
/// contract.
#[derive(Debug)]
pub struct StateGraph {
    store: StateStore,
    log: ExpansionLog,
    /// Stats of the original build (not mutated by queries).
    stats: SearchStats,
    /// The limits the build ran under; spans replay only against
    /// matching per-expansion limits.
    limits: ExploreLimits,
    /// Exact completability verdict per build state; populated by
    /// [`StateGraph::annotate`] on closed builds only.
    verdicts: Option<Vec<Verdict>>,
    /// Bumped whenever a resume expands a state, the only way a built
    /// graph grows.
    generation: u64,
}

impl StateGraph {
    pub(crate) fn from_build(
        store: StateStore,
        stats: SearchStats,
        log: ExpansionLog,
        limits: ExploreLimits,
    ) -> Self {
        StateGraph {
            store,
            log,
            stats,
            limits,
            verdicts: None,
            generation: 0,
        }
    }

    /// The build's root state (the initial instance), always id 0.
    pub fn root(&self) -> StateId {
        StateId(0)
    }

    /// Number of retained states (the session's memory-budget metric).
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// The state instances, indexed by state id (index 0 = initial).
    pub fn states(&self) -> &[Instance] {
        self.store.states()
    }

    /// The instance of state `i`.
    pub fn state(&self, i: usize) -> &Instance {
        self.store.get(StateId(i as u32))
    }

    /// Reconstruct the update sequence leading from the initial instance to
    /// state `i` (replayable via [`GuardedForm::replay`]). Takes `&mut
    /// self` because it reads the store's record headers.
    pub fn run_to(&mut self, i: usize) -> Vec<Update> {
        self.store.run_to(StateId(i as u32))
    }

    /// Outgoing `(update, successor)` edges of state `i`, in enumeration
    /// order.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = (Update, StateId)> + '_ {
        self.log
            .spans
            .get(i)
            .into_iter()
            .flatten()
            .flat_map(|span| &span.events)
            .filter_map(|ev| match *ev {
                ExpandEvent::Edge(u, j) => Some((u, j)),
                ExpandEvent::Pruned(_) => None,
            })
    }

    /// Every explored edge `(from, update, to)`, by source state.
    pub fn edges(&self) -> impl Iterator<Item = (StateId, Update, StateId)> + '_ {
        (0..self.log.spans.len()).flat_map(|i| {
            self.successors(i)
                .map(move |(u, j)| (StateId(i as u32), u, j))
        })
    }

    /// Total number of explored edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Approximate resident bytes of the whole graph: store, expansion
    /// journal, and verdict column. The byte-denominated retention
    /// budgets (workflow manager, server) are enforced against this
    /// figure.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<StateGraph>()
            + self.store.approx_bytes()
            + self.log.approx_bytes()
            + self
                .verdicts
                .as_ref()
                .map_or(0, |v| v.capacity() * size_of::<Verdict>())
    }

    /// Changes whenever the graph grows (a resume expanded a state), so
    /// figures derived from it, like [`StateGraph::approx_bytes`], can be
    /// memoised on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Statistics of the original build.
    pub fn build_stats(&self) -> SearchStats {
        self.stats
    }

    /// Did the build cover the entire reachable space? When true, the
    /// graph is successor-closed and [`StateGraph::verdict_of`]
    /// answers completability without any search.
    pub fn exact(&self) -> bool {
        self.stats.closed
    }

    /// Find the retained state isomorphic to `inst` (under the store's
    /// symmetry mode), if any. Takes `&mut self` because a state outside
    /// the store's hot window is compared by decoding its record.
    pub fn lookup(&mut self, inst: &Instance) -> Option<StateId> {
        self.store.lookup(inst)
    }

    /// Which states can complete: `complete[i]` when state `i` satisfies
    /// `form`'s completion formula, `completable[i]` when it is complete
    /// or reaches a complete state along explored edges. Exact when the
    /// graph is.
    pub fn completion(&self, form: &GuardedForm) -> (Vec<bool>, Vec<bool>) {
        let complete: Vec<bool> = self.states().iter().map(|s| form.is_complete(s)).collect();
        let completable = backward_reach(complete.clone(), || {
            self.edges().map(|(i, _, j)| (i.index(), j.index()))
        });
        (complete, completable)
    }

    /// Annotate every build state with its exact completability verdict
    /// (goal = `form.is_complete`). No-op unless the build closed: on a
    /// truncated graph "no complete state reached" is not a `Fails`.
    pub fn annotate(&mut self, form: &GuardedForm) {
        if !self.exact() {
            return;
        }
        let (_, completable) = self.completion(form);
        self.verdicts = Some(
            completable
                .into_iter()
                .map(|r| if r { Verdict::Holds } else { Verdict::Fails })
                .collect(),
        );
    }

    /// The annotated completability verdict of a build state: `Some` only
    /// after [`StateGraph::annotate`] on an exact graph, and only for
    /// states that existed at annotation time.
    pub fn verdict_of(&self, id: StateId) -> Option<Verdict> {
        self.verdicts.as_ref()?.get(id.index()).copied()
    }

    /// The query phase: the explorer's BFS driver from an
    /// already-interned state, over a [`Resume`] view of this graph.
    /// Called through [`Explorer::resume`](crate::Explorer::resume).
    pub(crate) fn resume(
        &mut self,
        form: &GuardedForm,
        limits: &ExploreLimits,
        from: StateId,
        goal: impl FnMut(&Instance) -> bool,
    ) -> ExploreOutcome {
        let replay = limits.max_state_size == self.limits.max_state_size
            && limits.multiplicity_cap == self.limits.multiplicity_cap;
        let mut view = Resume {
            reached: vec![None; self.store.len()],
            graph: self,
            seed: from,
            replay,
            events: Vec::new(),
        };
        let (stats, hit) = bfs(form, limits, &mut view, goal, &mut ());
        let goal_run = hit.map(|j| view.run_to(j));
        self.store.records.cool();
        ExploreOutcome { goal_run, stats }
    }
}

/// Backward reachability: `reach` marks the target states on entry; on
/// return it also marks every state with a path along `edges` (`(from,
/// to)` index pairs) to a target. The one routine behind every "can it
/// still complete?" question of the crate.
///
/// `edges` is called twice, and must list the same edges both times: the
/// reverse adjacency is one CSR array, sized from the in-degrees of the
/// first walk and filled, in edge order, by the second.
pub(crate) fn backward_reach<I: Iterator<Item = (usize, usize)>>(
    mut reach: Vec<bool>,
    edges: impl Fn() -> I,
) -> Vec<bool> {
    let n = reach.len();
    // Sources into `j` end up at `from[start[j]..start[j + 1]]`: count
    // them at `start[j + 2]`, sum, then fill with `start[j + 1]` as the
    // cursor.
    let mut start = vec![0usize; n + 2];
    for (_, j) in edges() {
        start[j + 2] += 1;
    }
    for k in 2..start.len() {
        start[k] += start[k - 1];
    }
    let mut from = vec![0u32; start[n + 1]];
    for (i, j) in edges() {
        from[start[j + 1]] = i as u32;
        start[j + 1] += 1;
    }
    let mut stack: Vec<u32> = (0..n as u32).filter(|&i| reach[i as usize]).collect();
    while let Some(j) = stack.pop() {
        let j = j as usize;
        for &i in &from[start[j]..start[j + 1]] {
            if !reach[i as usize] {
                reach[i as usize] = true;
                stack.push(i);
            }
        }
    }
    reach
}

/// A resume's view of a [`StateGraph`] as a BFS [`Store`], seeded at an
/// interned state. Queue items carry the state's depth from the seed;
/// "new" is new *to this resume*, which is exactly what a cold run's
/// intern would report.
struct Resume<'g> {
    graph: &'g mut StateGraph,
    seed: StateId,
    /// Replay complete logged spans (the per-expansion limits match the
    /// build's)?
    replay: bool,
    /// `reached[j]`: the edge this resume first reached state `j` by;
    /// `None` for the seed and for states not reached yet.
    reached: Vec<Option<(StateId, Update)>>,
    /// Scratch: the events of the expansion being visited.
    events: Vec<ExpandEvent>,
}

impl Resume<'_> {
    /// The update sequence from the seed to `j` along first-reached edges.
    fn run_to(&self, mut j: StateId) -> Vec<Update> {
        let mut run = Vec::new();
        while j != self.seed {
            let (i, u) = self.reached[j.index()].expect("reached states have a parent");
            run.push(u);
            j = i;
        }
        run.reverse();
        run
    }
}

impl Store for Resume<'_> {
    type Item = (StateId, usize);

    fn root(&mut self, _form: &GuardedForm) -> Self::Item {
        (self.seed, 0)
    }

    fn id(item: &Self::Item) -> StateId {
        item.0
    }

    fn depth_of(&self, item: &Self::Item) -> usize {
        item.1
    }

    fn instance<'s>(&'s self, item: &'s Self::Item) -> &'s Instance {
        self.graph.store.get(item.0)
    }

    fn symmetry(&self) -> SymmetryMode {
        self.graph.store.symmetry()
    }

    /// Intern into the retained store. Whether the successor is new to
    /// this resume is decided when the expansion's events are visited.
    fn successor(
        &mut self,
        form: &GuardedForm,
        parent: &Self::Item,
        u: Update,
        fingerprint: u64,
        words: &[u32],
    ) -> (StateId, Option<Self::Item>) {
        let (j, _) = self
            .graph
            .store
            .successor(form, &parent.0, u, fingerprint, words);
        (j, None)
    }

    /// Replay `item`'s complete logged span, or expand it in full (and
    /// log the span when it can be replayed later); then visit the
    /// events, handing over the successors this resume had not reached.
    fn expand<B>(
        &mut self,
        form: &GuardedForm,
        limits: &ExploreLimits,
        layout: &mut KeyLayout,
        item: &Self::Item,
        mut visit: impl FnMut(&mut Self, ExpandEvent, Option<Self::Item>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let (i, depth) = *item;
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        match self.graph.log.complete(i) {
            Some(span) if self.replay => events.extend_from_slice(span),
            _ => {
                let _ = explore::expand::<_, ()>(form, limits, self, layout, item, |_, ev, _| {
                    events.push(ev);
                    ControlFlow::Continue(())
                });
                if self.replay {
                    *self.graph.log.slot(i) = Some(Span {
                        events: events.clone(),
                        complete: true,
                    });
                }
                self.graph.generation += 1;
                self.reached.resize(self.graph.store.len(), None);
            }
        }
        let flow = events.iter().try_for_each(|&ev| {
            let new = match ev {
                ExpandEvent::Edge(u, j) if j != self.seed && self.reached[j.index()].is_none() => {
                    self.reached[j.index()] = Some((i, u));
                    Some((j, depth + 1))
                }
                _ => None,
            };
            visit(self, ev, new)
        });
        self.events = events;
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use idar_core::{AccessRules, Formula, Schema};
    use std::sync::Arc;

    /// Free add/del of a and b, at most one of each: 4 states, closed.
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
    fn closed_build_is_exact_and_annotates() {
        let g = toggle_form();
        let mut s = Explorer::new(&g, ExploreLimits::small()).graph();
        assert!(s.exact());
        assert_eq!(s.state_count(), 4);
        s.annotate(&g);
        // Every toggle state can still reach {a,b}: all Holds.
        for i in 0..4 {
            assert_eq!(s.verdict_of(StateId(i)), Some(Verdict::Holds));
        }
        assert_eq!(s.edge_count(), 8);
    }

    #[test]
    fn resume_matches_cold_run_per_state() {
        let g = toggle_form();
        let mut s = Explorer::new(&g, ExploreLimits::small()).graph();
        for i in 0..s.state_count() {
            let id = StateId(i as u32);
            let warm =
                Explorer::new(&g, ExploreLimits::small()).resume(&mut s, id, |x| g.is_complete(x));
            let cold_form = g.with_initial(s.state(i).clone());
            let cold = Explorer::new(&cold_form, ExploreLimits::small())
                .find(|x| cold_form.is_complete(x));
            assert_eq!(warm.stats, cold.stats, "state {i}");
            assert_eq!(
                warm.goal_run.as_ref().map(Vec::len),
                cold.goal_run.as_ref().map(Vec::len),
                "state {i}"
            );
        }
    }

    #[test]
    fn truncated_build_grows_on_resume() {
        let g = toggle_form();
        // Cap the build at 2 states: {} and {a}; resume completes the
        // space through direct expansion of the logged frontier.
        let lim = ExploreLimits {
            max_states: 2,
            ..ExploreLimits::small()
        };
        let mut s = Explorer::new(&g, lim).graph();
        assert!(!s.exact());
        assert_eq!(s.state_count(), 2);
        let out = Explorer::new(&g, ExploreLimits::small())
            .resume(&mut s, StateId(0), |x| g.is_complete(x));
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), 2);
        assert!(g.is_complete_run(&run));
        assert!(s.state_count() > 2, "resume interned new states");
    }

    /// A resume empties the hot window when it ends: the states it added
    /// are kept as records only, and are still found — by lookup and by
    /// a second resume, which repeats the first one's answer.
    #[test]
    fn resumed_states_are_kept_as_records_only() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_states: 2,
            ..ExploreLimits::small()
        };
        let mut s = Explorer::new(&g, lim).graph();
        let ex = Explorer::new(&g, ExploreLimits::small());
        let first = ex.resume(&mut s, StateId(0), |x| g.is_complete(x));
        let n = s.state_count();
        assert!(n > 2);
        assert_eq!(s.store.records.hot_base() as usize, n);
        for i in 0..n {
            let inst = s.state(i).clone();
            assert_eq!(s.lookup(&inst), Some(StateId(i as u32)));
        }
        let again = ex.resume(&mut s, StateId(0), |x| g.is_complete(x));
        assert_eq!(again.stats, first.stats);
        assert_eq!(again.goal_run, first.goal_run);
        assert_eq!(s.state_count(), n);
    }

    /// The CSR backward pass equals a naive fixpoint on random graphs
    /// with duplicate edges, self-loops and isolated states.
    #[test]
    fn backward_reach_matches_naive_fixpoint() {
        let mut x = 0xB4C4_u64;
        let mut next = move |bound: u64| {
            // SplitMix64, reduced to `0..bound`.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..200 {
            let n = 1 + next(40) as usize;
            // States `n - n / 4..` get no edges at all.
            let linked = (n - n / 4) as u64;
            let mut edges: Vec<(usize, usize)> = (0..next(3 * linked))
                .map(|_| (next(linked) as usize, next(linked) as usize))
                .collect();
            edges.extend_from_within(..edges.len() / 3);
            edges.extend((0..n).step_by(5).map(|i| (i, i)));
            let target: Vec<bool> = (0..n).map(|_| next(6) == 0).collect();
            let mut naive = target.clone();
            while let Some(&(i, _)) = edges.iter().find(|&&(i, j)| naive[j] && !naive[i]) {
                naive[i] = true;
            }
            let csr = backward_reach(target, || edges.iter().copied());
            assert_eq!(csr, naive, "case {case}: {n} states, edges {edges:?}");
        }
    }

    #[test]
    fn resume_respects_its_own_limits() {
        let g = toggle_form();
        let mut s = Explorer::new(&g, ExploreLimits::small()).graph();
        // A depth-0 resume from the root mirrors a cold depth-0 run:
        // the probe sees successors, so the search is not closed.
        let lim = ExploreLimits {
            max_depth: 0,
            ..ExploreLimits::small()
        };
        let out = Explorer::new(&g, lim).resume(&mut s, StateId(0), |x| g.is_complete(x));
        assert!(out.goal_run.is_none());
        assert!(!out.stats.closed);
        assert_eq!(out.stats.limit_hit, Some(LimitKind::Depth));
    }
}
