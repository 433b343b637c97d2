//! The explored state graph as a **persistent session artifact**: the
//! build/query split behind incremental re-analysis.
//!
//! The bounded explorer historically treated every analysis as a cold
//! start: build a [`StateStore`], answer one question, drop everything.
//! The online form manager (Sec. 3.5) pays for that discard on every
//! vet — the successor it asks about is usually *already interned*, with
//! its reachable subgraph intact, in the store the previous call just
//! threw away.
//!
//! A [`SessionGraph`] keeps that work. It retains
//!
//! * the hash-consed [`StateStore`] (states, provenance, depths),
//! * the CSR [`SuccessorTable`],
//! * an [`ExpansionLog`] — for every *expanded* state, the exact ordered
//!   outcome of enumerating its allowed updates ([`ExpandEvent`]s), which
//!   is what makes warm queries **bit-compatible** with cold runs, and
//! * per-state completability verdict annotations when the build
//!   *closed* (explored the entire reachable space).
//!
//! # Resume semantics contract
//!
//! [`Explorer::resume`](crate::Explorer::resume) re-runs the BFS **as if** it had been
//! started cold from an already-interned state: same goal-check order,
//! same prune bookkeeping, same truncation behaviour, and therefore the
//! same [`SearchStats`] and verdict a cold `Explorer::find` from that
//! instance would report. States whose expansion is fully logged are
//! *replayed* from the log (no `allowed_updates` calls, no instance
//! clones); frontier states — never expanded, or cut short by the build's
//! state cap — are expanded directly, interned into the retained store,
//! and their spans completed, so the session graph *grows monotonically*
//! under query traffic.
//!
//! Replaying a logged span is only valid when the per-expansion limits
//! (`max_state_size`, `multiplicity_cap`) match the ones the span was
//! recorded under; a resume under different limits falls back to direct
//! expansion without touching the log.
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

use crate::explore::{expand, has_successor, ExploreLimits, ExploreOutcome, Journal};
use crate::store::{StateId, StateStore, SuccessorTable};
use crate::verdict::{LimitKind, SearchStats, Verdict};
use idar_core::{GuardedForm, Instance, KeyLayout, Update};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;

/// One logged outcome of enumerating a single allowed update while
/// expanding a state: either an edge to the (possibly pre-existing)
/// successor, or a prune by a per-expansion resource limit.
///
/// Every update `allowed_updates` yields produces exactly one event, in
/// enumeration order — which is why replaying a span reproduces a cold
/// run's `transitions` count and truncation points bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandEvent {
    /// The update applied; its successor interned as the given state.
    Edge(Update, StateId),
    /// The update was pruned before application by a resource limit.
    Pruned(LimitKind),
}

/// The recorded expansion of one state.
#[derive(Debug, Clone, Default)]
struct Span {
    events: Vec<ExpandEvent>,
    /// `false` while the build/extension was cut short mid-enumeration
    /// (state cap, goal found): the events are a valid prefix but the
    /// state must be re-expanded before its span can be replayed.
    complete: bool,
}

/// Per-state expansion journal of a session build: `spans[i]` records
/// how state `i` expanded, `None` if it never did (frontier states).
///
/// The log is both the replay source for [`Explorer::resume`](crate::Explorer::resume) and the
/// authoritative edge set — the CSR [`SuccessorTable`] is rebuilt from
/// it after the graph grows.
#[derive(Debug, Clone, Default)]
pub struct ExpansionLog {
    spans: Vec<Option<Span>>,
}

impl ExpansionLog {
    fn slot(&mut self, i: StateId) -> &mut Option<Span> {
        if self.spans.len() <= i.index() {
            self.spans.resize(i.index() + 1, None);
        }
        &mut self.spans[i.index()]
    }

    fn get(&self, i: StateId) -> Option<&Span> {
        self.spans.get(i.index()).and_then(|s| s.as_ref())
    }

    /// Number of states with a *complete* span.
    pub fn expanded_states(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.as_ref().is_some_and(|sp| sp.complete))
            .count()
    }

    /// Approximate resident bytes of the journal.
    pub fn approx_bytes(&self) -> usize {
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

    fn triples(&self) -> Vec<(StateId, Update, StateId)> {
        let mut out = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            let Some(span) = span else { continue };
            for ev in &span.events {
                if let ExpandEvent::Edge(u, j) = *ev {
                    out.push((StateId(i as u32), u, j));
                }
            }
        }
        out
    }
}

/// The session build's journal: one span per expanded state.
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

/// The retained build artifact of one exploration: states, edges,
/// expansion journal, bookkeeping — everything a later query needs to
/// continue where the build stopped. See the module docs for the
/// build/query contract.
#[derive(Debug, Clone)]
pub struct SessionGraph {
    store: StateStore,
    succ: SuccessorTable,
    log: ExpansionLog,
    /// Stats of the original build (not mutated by queries).
    stats: SearchStats,
    /// The limits the build ran under; spans replay only against
    /// matching per-expansion limits.
    limits: ExploreLimits,
    /// Exact completability verdict per build state; populated by
    /// [`SessionGraph::annotate`] on closed builds only.
    verdicts: Option<Vec<Verdict>>,
    /// Set when resume grew the graph since `succ` was last rebuilt.
    succ_stale: bool,
}

impl SessionGraph {
    pub(crate) fn from_build(
        store: StateStore,
        stats: SearchStats,
        log: ExpansionLog,
        limits: ExploreLimits,
    ) -> Self {
        SessionGraph {
            succ: SuccessorTable::from_triples(store.len(), &log.triples()),
            store,
            log,
            stats,
            limits,
            verdicts: None,
            succ_stale: false,
        }
    }

    /// The build's root state (the initial instance), always id 0.
    pub fn root(&self) -> StateId {
        StateId(0)
    }

    /// The retained state store: states, provenance, depths.
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Number of retained states (the session's memory-budget metric).
    pub fn retained_states(&self) -> usize {
        self.store.len()
    }

    /// Approximate resident bytes of the whole session artifact: store,
    /// CSR successor table, expansion journal, and verdict column. The
    /// byte-denominated retention budgets (workflow manager, server) are
    /// enforced against this figure.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<SessionGraph>()
            + self.store.approx_bytes()
            + self.succ.approx_bytes()
            + self.log.approx_bytes()
            + self
                .verdicts
                .as_ref()
                .map_or(0, |v| v.capacity() * size_of::<Verdict>())
    }

    /// Statistics of the original build.
    pub fn build_stats(&self) -> SearchStats {
        self.stats
    }

    /// The limits the build ran under.
    pub fn build_limits(&self) -> ExploreLimits {
        self.limits
    }

    /// Did the build cover the entire reachable space? When true, the
    /// graph is successor-closed and [`SessionGraph::verdict_of`]
    /// answers completability without any search.
    pub fn exact(&self) -> bool {
        self.stats.closed
    }

    /// Find the retained state isomorphic to `inst` (under the store's
    /// symmetry mode), if any.
    pub fn lookup(&self, inst: &Instance) -> Option<StateId> {
        self.store.lookup(inst)
    }

    /// States that were never fully expanded — the frontier a resume
    /// continues from. Empty exactly when the build closed.
    pub fn frontier(&self) -> Vec<StateId> {
        (0..self.store.len())
            .map(|i| StateId(i as u32))
            .filter(|&i| !self.log.get(i).is_some_and(|s| s.complete))
            .collect()
    }

    /// The CSR successor table, rebuilt from the expansion log if
    /// queries have grown the graph since the last rebuild.
    pub fn successor_table(&mut self) -> &SuccessorTable {
        if self.succ_stale {
            self.succ = SuccessorTable::from_triples(self.store.len(), &self.log.triples());
            self.succ_stale = false;
        }
        &self.succ
    }

    /// Annotate every build state with its exact completability verdict
    /// (goal = `form.is_complete`). No-op unless the build closed: on a
    /// truncated graph "no complete state reached" is not a `Fails`.
    pub fn annotate(&mut self, form: &GuardedForm) {
        if !self.exact() {
            return;
        }
        let n = self.store.len();
        let goal: Vec<bool> = (0..n)
            .map(|i| form.is_complete(self.store.get(StateId(i as u32))))
            .collect();
        // Backward reachability from complete states over logged edges.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, u_j) in self.log.spans.iter().enumerate() {
            let Some(span) = u_j else { continue };
            for ev in &span.events {
                if let ExpandEvent::Edge(_, j) = *ev {
                    rev[j.index()].push(i as u32);
                }
            }
        }
        let mut reach = goal.clone();
        let mut queue: VecDeque<u32> = goal
            .iter()
            .enumerate()
            .filter(|(_, &g)| g)
            .map(|(i, _)| i as u32)
            .collect();
        while let Some(j) = queue.pop_front() {
            for &i in &rev[j as usize] {
                if !reach[i as usize] {
                    reach[i as usize] = true;
                    queue.push_back(i);
                }
            }
        }
        self.verdicts = Some(
            reach
                .iter()
                .map(|&r| if r { Verdict::Holds } else { Verdict::Fails })
                .collect(),
        );
    }

    /// The annotated completability verdict of a build state: `Some` only
    /// after [`SessionGraph::annotate`] on an exact graph, and only for
    /// states that existed at annotation time.
    pub fn verdict_of(&self, id: StateId) -> Option<Verdict> {
        self.verdicts.as_ref()?.get(id.index()).copied()
    }

    /// The query phase: continue the BFS from an already-interned state,
    /// mirroring a cold run from that instance event for
    /// event. Called through [`Explorer::resume`](crate::Explorer::resume).
    pub(crate) fn resume_with(
        &mut self,
        form: &GuardedForm,
        limits: ExploreLimits,
        from: StateId,
        mut goal: impl FnMut(&Instance) -> bool,
    ) -> ExploreOutcome {
        let mut stats = SearchStats {
            states: 1,
            ..SearchStats::default()
        };

        // Mirror of the cold root check: goal at the seed closes.
        if goal(self.store.get(from)) {
            stats.closed = true;
            return ExploreOutcome {
                goal_run: Some(Vec::new()),
                stats,
            };
        }

        // Spans replay only under the per-expansion limits they were
        // recorded with; otherwise expand directly (and leave the log
        // untouched — it stays valid for the build limits).
        let replay_ok = limits.max_state_size == self.limits.max_state_size
            && limits.multiplicity_cap == self.limits.multiplicity_cap;

        // Local BFS bookkeeping: "locally new" is exactly what a cold
        // run's intern `is_new` would report, and the local depth of a
        // state equals its cold BFS depth from the seed.
        let mut depth: HashMap<StateId, usize> = HashMap::new();
        let mut parent: HashMap<StateId, (StateId, Update)> = HashMap::new();
        depth.insert(from, 0);
        let mut queue: VecDeque<StateId> = VecDeque::new();
        queue.push_back(from);
        let mut layout = KeyLayout::default();
        let mut pruned = false;

        while let Some(i) = queue.pop_front() {
            let d = depth[&i];
            if d >= limits.max_depth {
                // Cold-run depth probe: exhaustiveness is lost iff any
                // frontier state still has a successor.
                if std::iter::once(i)
                    .chain(queue.drain(..))
                    .any(|j| has_successor(form, self.store.get(j)))
                {
                    pruned = true;
                    stats.limit_hit = Some(LimitKind::Depth);
                }
                break;
            }
            let events = self.expansion_of(form, i, limits, replay_ok, &mut layout);
            for ev in events {
                stats.transitions += 1;
                match ev {
                    ExpandEvent::Pruned(k) => {
                        pruned = true;
                        stats.limit_hit = Some(k);
                    }
                    ExpandEvent::Edge(u, j) => {
                        if depth.contains_key(&j) {
                            continue;
                        }
                        depth.insert(j, d + 1);
                        parent.insert(j, (i, u));
                        stats.states += 1;
                        if goal(self.store.get(j)) {
                            // Cold contract: goal mid-search returns
                            // without setting `closed`.
                            return ExploreOutcome {
                                goal_run: Some(reconstruct(&parent, from, j)),
                                stats,
                            };
                        }
                        if stats.states >= limits.max_states {
                            stats.limit_hit = Some(LimitKind::States);
                            return ExploreOutcome {
                                goal_run: None,
                                stats,
                            };
                        }
                        queue.push_back(j);
                    }
                }
            }
        }

        stats.closed = !pruned;
        ExploreOutcome {
            goal_run: None,
            stats,
        }
    }

    /// The expansion events of `i`: replayed from a complete logged span
    /// when valid, otherwise produced by the explorer's expansion step,
    /// which interns any new successors into the retained store; when
    /// the limits match the build's, the completed span is recorded.
    fn expansion_of(
        &mut self,
        form: &GuardedForm,
        i: StateId,
        limits: ExploreLimits,
        replay_ok: bool,
        layout: &mut KeyLayout,
    ) -> Vec<ExpandEvent> {
        if replay_ok {
            if let Some(span) = self.log.get(i) {
                if span.complete {
                    return span.events.clone();
                }
            }
        }
        let mut events = Vec::new();
        let _ = expand::<_, ()>(form, &limits, &mut self.store, layout, &i, |_, ev, _| {
            events.push(ev);
            ControlFlow::Continue(())
        });
        if replay_ok {
            self.log.begin(i);
            for &ev in &events {
                self.log.push(i, ev);
            }
            self.log.seal(i);
            self.succ_stale = true;
        }
        events
    }
}

/// Rebuild the update sequence `from → j` out of the resume's local
/// parent chain.
fn reconstruct(
    parent: &HashMap<StateId, (StateId, Update)>,
    from: StateId,
    mut j: StateId,
) -> Vec<Update> {
    let mut run = Vec::new();
    while j != from {
        let (i, u) = parent[&j];
        run.push(u);
        j = i;
    }
    run.reverse();
    run
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
        let mut s = Explorer::new(&g, ExploreLimits::small()).build_session();
        assert!(s.exact());
        assert_eq!(s.retained_states(), 4);
        assert!(s.frontier().is_empty());
        s.annotate(&g);
        // Every toggle state can still reach {a,b}: all Holds.
        for i in 0..4 {
            assert_eq!(s.verdict_of(StateId(i)), Some(Verdict::Holds));
        }
        assert_eq!(s.successor_table().edge_count(), 8);
    }

    #[test]
    fn resume_matches_cold_run_per_state() {
        let g = toggle_form();
        let mut s = Explorer::new(&g, ExploreLimits::small()).build_session();
        for i in 0..s.retained_states() {
            let id = StateId(i as u32);
            let warm =
                Explorer::new(&g, ExploreLimits::small()).resume(&mut s, id, |x| g.is_complete(x));
            let cold_form = g.with_initial(s.store().get(id).clone());
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
        let mut s = Explorer::new(&g, lim).build_session();
        assert!(!s.exact());
        assert_eq!(s.retained_states(), 2);
        let out = Explorer::new(&g, ExploreLimits::small())
            .resume(&mut s, StateId(0), |x| g.is_complete(x));
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), 2);
        assert!(g.is_complete_run(&run));
        assert!(s.retained_states() > 2, "resume interned new states");
    }

    #[test]
    fn resume_respects_its_own_limits() {
        let g = toggle_form();
        let mut s = Explorer::new(&g, ExploreLimits::small()).build_session();
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
