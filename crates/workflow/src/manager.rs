//! The online **form manager** of Sec. 3.5.
//!
//! "Obviously, if form completability is a decidable problem, a form
//! manager might disallow any updates that lead to such an instance from
//! which completion is not possible" — this module is that manager: it
//! holds the live instance of a form and vets every incoming update with
//! a completability oracle, rejecting the ones that would strand the
//! workflow.
//!
//! The oracle is the fragment-dispatched solver, so its verdicts carry the
//! usual guarantees: exact in the decidable fragments, three-valued
//! elsewhere. What to do with `Unknown` is a policy decision
//! ([`UnknownPolicy`]); a conservative deployment rejects, an optimistic
//! one accepts.
//!
//! # Incremental re-analysis
//!
//! For forms the oracle would answer with bounded exploration (or the
//! depth-1 canonical system), the manager retains the explored state
//! graph as a [`StateGraph`] across edits instead of re-solving cold:
//! the *first* oracle call builds the graph once, and every later vet is
//! either a **graph hit** (the successor is interned in an exact graph —
//! its annotated verdict is a lookup) or a **frontier extension** (the
//! successor is interned in a truncated graph — [`Explorer::resume`]
//! continues the BFS from it, reusing all retained states and logged
//! expansions, with verdicts equal to a cold run by construction). Only
//! successors outside the retained graph, and forms whose oracle method
//! never explores (positive saturation, the NP two-phase solver), take
//! the **cold solve** path — which is byte-for-byte the pre-session
//! pipeline, shared verdict cache included. [`RecomputeStats`] reports
//! the three-way split.
//!
//! Graph-derived verdicts are still published to the shared
//! [`VerdictCache`] through a [`SessionDelta`], so concurrent sessions
//! of the same form benefit; if the graph outgrows the session's memory
//! budget ([`FormManager::with_max_retained_states`]) it is evicted —
//! the delta retracts exactly the entries whose keyed state left the
//! retained subgraph and the session falls back to cold solves.

use idar_core::fragment::{classify, Fragment};
use idar_core::{GuardedForm, Instance, Update};
use idar_solver::cache::CacheStats;
use idar_solver::verdict::SearchStats;
use idar_solver::{
    analyze_keyed, rules_signature_of, select_method, AnalysisKind, AnalysisRequest, CachedVerdict,
    CompletabilityOptions, Explorer, Method, RulesSignature, SessionDelta, StateGraph, Verdict,
    VerdictCache,
};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// What the manager does when the oracle cannot decide completability of
/// the successor instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownPolicy {
    /// Reject updates whose successor might be stranded (conservative).
    #[default]
    Reject,
    /// Accept them (optimistic).
    Accept,
}

/// Why an update was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The access rules forbid the update outright (Sec. 3.4 semantics).
    NotAllowed,
    /// The update is allowed but its successor instance cannot be
    /// completed — the manager protects semi-soundness at run time.
    WouldStrand,
    /// The oracle answered `Unknown` under a [`UnknownPolicy::Reject`].
    Undecided,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::NotAllowed => write!(f, "update not allowed by the access rules"),
            Rejection::WouldStrand => {
                write!(f, "update leads to an instance that can never complete")
            }
            Rejection::Undecided => write!(
                f,
                "completability of the successor could not be decided within bounds"
            ),
        }
    }
}

/// How the manager's oracle calls were answered, split by provenance:
/// retained-graph lookups, bounded frontier extensions, and cold solves
/// (the latter delegated to the shared-cache pipeline, so a cold solve
/// may itself be a cache hit). Counters are cumulative per manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Verdicts answered by an annotation lookup in an exact graph.
    pub graph_hits: u64,
    /// Verdicts answered by resuming the BFS at a retained state.
    pub frontier_extends: u64,
    /// Verdicts delegated to the cold analysis pipeline.
    pub cold_solves: u64,
    /// Cold solves the pre-exploration static screener decided (a
    /// subset of `cold_solves`: the pipeline ran, but answered before
    /// expanding a single state).
    pub screen_decided: u64,
}

impl RecomputeStats {
    /// Total oracle calls recorded.
    pub fn total(&self) -> u64 {
        self.graph_hits + self.frontier_extends + self.cold_solves
    }

    /// Graph hits as a fraction of all oracle calls (0.0 when none).
    pub fn graph_hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.graph_hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot — the
    /// per-call (or per-request) provenance delta.
    pub fn minus(&self, earlier: &RecomputeStats) -> RecomputeStats {
        RecomputeStats {
            graph_hits: self.graph_hits.saturating_sub(earlier.graph_hits),
            frontier_extends: self
                .frontier_extends
                .saturating_sub(earlier.frontier_extends),
            cold_solves: self.cold_solves.saturating_sub(earlier.cold_solves),
            screen_decided: self.screen_decided.saturating_sub(earlier.screen_decided),
        }
    }
}

/// Cumulative graph-eviction accounting of one manager: how many times
/// the retained graph was dropped for exceeding the memory budget, and
/// the (approximate) resident bytes each drop freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionStats {
    /// Retained graphs dropped under the state- or byte-budget.
    pub evictions: u64,
    /// Approximate bytes freed across those drops.
    pub evicted_bytes: u64,
}

/// The retained graph plus the cache entries it published.
#[derive(Debug)]
struct ActiveSession {
    graph: StateGraph,
    delta: SessionDelta,
    /// Memoised `graph.approx_bytes()` and the graph generation it was
    /// computed at — the byte walk is O(states), so it only reruns when
    /// the graph grew (new states or newly logged expansions).
    bytes: usize,
    bytes_at: u64,
}

impl ActiveSession {
    fn new(graph: StateGraph) -> ActiveSession {
        ActiveSession {
            bytes: graph.approx_bytes(),
            bytes_at: graph.generation(),
            graph,
            delta: SessionDelta::new(),
        }
    }

    /// Current approximate resident bytes, recomputed iff the graph grew.
    fn approx_bytes(&mut self) -> usize {
        let generation = self.graph.generation();
        if generation != self.bytes_at {
            self.bytes = self.graph.approx_bytes();
            self.bytes_at = generation;
        }
        self.bytes
    }
}

/// Lifecycle of the retained session graph.
#[derive(Debug)]
enum SessionState {
    /// Graph-eligible, not built yet (builds lazily at the first oracle
    /// call, so opening a session stays cheap).
    Unbuilt,
    /// Retained and answering queries.
    Active(Box<ActiveSession>),
    /// No graph: the oracle method never explores, the build overflowed
    /// the memory budget, or the graph was evicted under query growth.
    Disabled,
}

/// A live form session guarded by a completability oracle.
///
/// Every vet routes through the unified analysis pipeline with a
/// [`VerdictCache`], keyed by the *canonical fingerprint* of the
/// successor instance — so re-vetting the same update, or two updates
/// whose successors are isomorphic (a frequent pattern: adding the same
/// field under interchangeable siblings), costs one oracle run instead of
/// many. [`FormManager::safe_updates`] in particular no longer re-solves
/// the oracle per candidate update.
///
/// On exploration-dispatched forms the manager additionally retains the
/// explored [`StateGraph`] across edits (see the module docs), so a
/// post-edit sweep is a set of graph lookups rather than solves;
/// [`FormManager::recompute_stats`] reports the split.
#[derive(Debug)]
pub struct FormManager {
    form: GuardedForm,
    current: Instance,
    oracle: CompletabilityOptions,
    policy: UnknownPolicy,
    history: Vec<Update>,
    cache: Arc<VerdictCache>,
    /// The memoised rule signature shared by every vet of this session
    /// (the rules never change; only the initial instance does).
    rules_sig: RulesSignature,
    /// The form's fragment, memoised for published cache entries.
    fragment: Fragment,
    /// The oracle method Table 1 dispatch (or `force_method`) selects —
    /// fixed per session, decides session-graph eligibility.
    method: Method,
    /// Memory budget: evict the retained graph (falling back to cold
    /// solves) once it holds more than this many states.
    max_retained_states: usize,
    /// Byte-denominated memory budget: evict once the graph's
    /// approximate resident bytes ([`StateGraph::approx_bytes`])
    /// exceed this. `None`: states-only budget.
    max_retained_bytes: Option<usize>,
    session: RefCell<SessionState>,
    recompute: Cell<RecomputeStats>,
    evictions: Cell<EvictionStats>,
}

impl FormManager {
    /// Open a session on the form's initial instance, with a fresh
    /// verdict cache.
    pub fn new(form: GuardedForm, oracle: CompletabilityOptions, policy: UnknownPolicy) -> Self {
        let current = form.initial().clone();
        let rules_sig = rules_signature_of(&form);
        let fragment = classify(&form);
        let method = oracle.force_method.unwrap_or_else(|| select_method(&form));
        // Only exploration-shaped methods produce a state graph worth
        // retaining; saturation and the NP solver never build one.
        let eligible = matches!(method, Method::BoundedExploration | Method::Depth1Canonical);
        FormManager {
            form,
            current,
            oracle,
            policy,
            history: Vec::new(),
            cache: Arc::new(VerdictCache::new()),
            rules_sig,
            fragment,
            method,
            max_retained_states: 1 << 20,
            max_retained_bytes: None,
            session: RefCell::new(if eligible {
                SessionState::Unbuilt
            } else {
                SessionState::Disabled
            }),
            recompute: Cell::new(RecomputeStats::default()),
            evictions: Cell::new(EvictionStats::default()),
        }
    }

    /// Share a verdict cache across managers (e.g. many sessions of the
    /// same deployed form behind one server).
    pub fn with_cache(mut self, cache: Arc<VerdictCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Ignores its argument: exploration is single-threaded. Kept so
    /// existing callers still compile.
    #[deprecated(note = "oracle runs are single-threaded; this is a no-op")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Cap the retained session graph at `max` states: a build or a
    /// query growth beyond it evicts the graph (retracting its published
    /// cache entries) and the session continues on cold solves.
    pub fn with_max_retained_states(mut self, max: usize) -> Self {
        self.max_retained_states = max;
        self
    }

    /// Cap the retained session graph at `max` approximate resident
    /// **bytes** ([`StateGraph::approx_bytes`]) — the byte-denominated
    /// counterpart of [`FormManager::with_max_retained_states`]; both
    /// caps apply when both are set. Exceeding it evicts the graph
    /// (retracting its published cache entries) and the session
    /// continues on cold solves; [`FormManager::eviction_stats`] reports
    /// the bytes freed.
    pub fn with_max_retained_bytes(mut self, max: usize) -> Self {
        self.max_retained_bytes = Some(max);
        self
    }

    /// The manager's verdict cache.
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// Hit/miss counters of the manager's oracle cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative oracle-call provenance counters of this session.
    pub fn recompute_stats(&self) -> RecomputeStats {
        self.recompute.get()
    }

    /// States currently retained by the session graph (`None` when no
    /// graph is active — ineligible method, not yet built, or evicted).
    pub fn retained_states(&self) -> Option<usize> {
        match &*self.session.borrow() {
            SessionState::Active(a) => Some(a.graph.state_count()),
            _ => None,
        }
    }

    /// Approximate resident bytes of the retained session graph (`None`
    /// when no graph is active). What the byte budget and the server's
    /// `/metrics` retained-bytes gauge are denominated in.
    pub fn retained_bytes(&self) -> Option<usize> {
        match &mut *self.session.borrow_mut() {
            SessionState::Active(a) => Some(a.approx_bytes()),
            _ => None,
        }
    }

    /// Cumulative graph-eviction counters of this session.
    pub fn eviction_stats(&self) -> EvictionStats {
        self.evictions.get()
    }

    /// The form this session runs (rules and schema never change; only
    /// the live instance does).
    pub fn form(&self) -> &GuardedForm {
        &self.form
    }

    /// The live instance.
    pub fn current(&self) -> &Instance {
        &self.current
    }

    /// The accepted updates so far (a valid run).
    pub fn history(&self) -> &[Update] {
        &self.history
    }

    /// Is the form complete right now?
    pub fn is_complete(&self) -> bool {
        self.form.is_complete(&self.current)
    }

    /// Rewind the session to the form's initial instance, clearing the
    /// history. The retained graph (whose root *is* the initial
    /// instance), its published cache entries, and the recompute
    /// counters all survive, so a reset session answers its first sweep
    /// warm instead of re-interning the root and re-solving.
    pub fn reset(&mut self) {
        let from_graph = match &*self.session.borrow() {
            SessionState::Active(a) => Some(a.graph.state(a.graph.root().index()).clone()),
            _ => None,
        };
        self.current = from_graph.unwrap_or_else(|| self.form.initial().clone());
        self.history.clear();
    }

    /// Vet an update without applying it.
    pub fn vet(&self, update: &Update) -> Result<(), Rejection> {
        if !self.form.is_allowed(&self.current, update) {
            return Err(Rejection::NotAllowed);
        }
        let mut next = self.current.clone();
        self.form
            .apply_unchecked(&mut next, update)
            .expect("allowed update applies");
        match self.oracle_verdict(next) {
            Verdict::Holds => Ok(()),
            Verdict::Fails => Err(Rejection::WouldStrand),
            Verdict::Unknown => match self.policy {
                UnknownPolicy::Reject => Err(Rejection::Undecided),
                UnknownPolicy::Accept => Ok(()),
            },
        }
    }

    /// Vet and apply an update.
    pub fn submit(&mut self, update: Update) -> Result<(), Rejection> {
        self.vet(&update)?;
        self.form
            .apply_unchecked(&mut self.current, &update)
            .expect("vetted update applies");
        self.history.push(update);
        Ok(())
    }

    /// The updates the manager would currently accept.
    ///
    /// Each candidate is vetted through the cached oracle: candidates
    /// whose successor instances are isomorphic share one cache entry, so
    /// the oracle runs once per *distinct* successor class (and zero
    /// times on a repeat call) instead of once per candidate. With an
    /// active session graph the sweep doesn't solve at all — each
    /// distinct successor is a graph lookup or a bounded frontier
    /// extension.
    pub fn safe_updates(&self) -> Vec<Update> {
        self.form
            .allowed_updates(&self.current)
            .into_iter()
            .filter(|u| self.vet(u).is_ok())
            .collect()
    }

    /// The completability oracle behind `vet`/`safe_updates`: answer for
    /// the successor instance `next`, preferring the retained graph and
    /// falling back to the cold shared-cache pipeline.
    fn oracle_verdict(&self, next: Instance) -> Verdict {
        self.ensure_session();
        {
            let mut state = self.session.borrow_mut();
            if let SessionState::Active(active) = &mut *state {
                let answer = self.graph_answer(active, &next);
                // Query growth is monotone; enforce the memory budgets
                // (state- and byte-denominated) after every graph-path
                // answer.
                if self.over_budget(active) {
                    self.record_eviction(active.approx_bytes());
                    active.delta.retract_departed(&self.cache, |_| false);
                    *state = SessionState::Disabled;
                }
                if let Some(v) = answer {
                    return v;
                }
            }
        }
        self.bump(|r| r.cold_solves += 1);
        let sub = self.form.with_initial(next);
        // The memoised rule signature makes the per-candidate cache key a
        // hash of the successor instance alone.
        let key = VerdictCache::key_with(
            &self.rules_sig,
            &sub,
            AnalysisKind::Completability,
            &self.oracle,
        );
        let request = AnalysisRequest::completability(sub).with_budget(self.oracle.clone());
        let report = analyze_keyed(&request, &self.cache, &key);
        // `screen` is `None` on cache hits, so this counts only calls
        // the screener itself answered (zero states expanded).
        if report.method == Method::StaticScreen && report.screen.is_some() {
            self.bump(|r| r.screen_decided += 1);
        }
        report.verdict
    }

    /// Build the session graph on the first oracle call of an eligible
    /// form: one sequential exploration under the oracle budget, logged
    /// for later resumes, annotated when it closed.
    fn ensure_session(&self) {
        let mut state = self.session.borrow_mut();
        if !matches!(*state, SessionState::Unbuilt) {
            return;
        }
        let mut graph = Explorer::new(&self.form, self.oracle.limits)
            .with_symmetry(self.oracle.symmetry)
            .graph();
        let build_bytes = if self.max_retained_bytes.is_some() {
            graph.approx_bytes()
        } else {
            0
        };
        let build_over = graph.state_count() > self.max_retained_states
            || self.max_retained_bytes.is_some_and(|b| build_bytes > b);
        *state = if build_over {
            self.record_eviction(if build_bytes == 0 {
                graph.approx_bytes()
            } else {
                build_bytes
            });
            SessionState::Disabled
        } else if graph.exact() {
            graph.annotate(&self.form);
            SessionState::Active(Box::new(ActiveSession::new(graph)))
        } else if self.method == Method::Depth1Canonical {
            // A truncated graph can only answer `Unknown` where the
            // canonical depth-1 system is exact: keep the cold oracle.
            SessionState::Disabled
        } else {
            SessionState::Active(Box::new(ActiveSession::new(graph)))
        };
    }

    /// Is the retained graph over either memory budget?
    fn over_budget(&self, active: &mut ActiveSession) -> bool {
        active.graph.state_count() > self.max_retained_states
            || self
                .max_retained_bytes
                .is_some_and(|b| active.approx_bytes() > b)
    }

    fn record_eviction(&self, bytes_freed: usize) {
        let mut e = self.evictions.get();
        e.evictions += 1;
        e.evicted_bytes += bytes_freed as u64;
        self.evictions.set(e);
    }

    /// Answer `next` from the retained graph: an annotation lookup on
    /// exact graphs, a resumed BFS on truncated ones. `None` means the
    /// successor is not retained (or not annotated) — cold-solve it.
    fn graph_answer(&self, active: &mut ActiveSession, next: &Instance) -> Option<Verdict> {
        let id = active.graph.lookup(next)?;
        if active.graph.exact() {
            let verdict = active.graph.verdict_of(id)?;
            self.bump(|r| r.graph_hits += 1);
            self.publish(active, next, verdict, active.graph.build_stats());
            return Some(verdict);
        }
        if self.method != Method::BoundedExploration {
            return None;
        }
        let out =
            Explorer::new(&self.form, self.oracle.limits)
                .resume(&mut active.graph, id, |i| self.form.is_complete(i));
        let verdict = out.verdict();
        self.bump(|r| r.frontier_extends += 1);
        // Same cacheability rule as the cold pipeline: never publish an
        // `Unknown` that merely reflects a resource limit.
        if !(verdict == Verdict::Unknown && out.stats.limit_hit.is_some()) {
            self.publish(active, next, verdict, out.stats);
        }
        Some(verdict)
    }

    /// Publish a graph-derived verdict to the shared cache through the
    /// session delta (deduplicated per canonical successor state). The
    /// recorded method is the exploration the graph embodies; for exact
    /// graph hits the stats are the build's, not a per-query search.
    fn publish(
        &self,
        active: &mut ActiveSession,
        next: &Instance,
        verdict: Verdict,
        stats: SearchStats,
    ) {
        let sub = self.form.with_initial(next.clone());
        let key = VerdictCache::key_with(
            &self.rules_sig,
            &sub,
            AnalysisKind::Completability,
            &self.oracle,
        );
        active.delta.publish(
            &self.cache,
            key,
            CachedVerdict {
                verdict,
                method: Method::BoundedExploration,
                fragment: self.fragment,
                stats,
            },
        );
    }

    fn bump(&self, f: impl FnOnce(&mut RecomputeStats)) {
        let mut r = self.recompute.get();
        f(&mut r);
        self.recompute.set(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Formula, InstNodeId, Right, Schema};
    use std::sync::Arc;

    /// The trap form: adding `t` makes completion (g) impossible.
    fn trap_form() -> GuardedForm {
        let schema = Arc::new(Schema::parse("g, t").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(
            Right::Add,
            schema.resolve("g").unwrap(),
            Formula::parse("!t & !g").unwrap(),
        );
        rules.set(
            Right::Add,
            schema.resolve("t").unwrap(),
            Formula::parse("!t").unwrap(),
        );
        let init = Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, init, Formula::parse("g").unwrap())
    }

    #[test]
    fn manager_blocks_the_trap() {
        let form = trap_form();
        let t_edge = form.schema().resolve("t").unwrap();
        let g_edge = form.schema().resolve("g").unwrap();
        let mut mgr = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        // `t` is allowed by the rules but stranding: rejected.
        let err = mgr
            .submit(Update::Add {
                parent: InstNodeId::ROOT,
                edge: t_edge,
            })
            .unwrap_err();
        assert_eq!(err, Rejection::WouldStrand);
        // `g` is fine.
        mgr.submit(Update::Add {
            parent: InstNodeId::ROOT,
            edge: g_edge,
        })
        .unwrap();
        assert!(mgr.is_complete());
        assert_eq!(mgr.history().len(), 1);
    }

    #[test]
    fn safe_updates_hit_the_verdict_cache() {
        // A form whose candidate updates produce isomorphic successors:
        // two interchangeable `p` siblings, each accepting a `b` child.
        let schema = Arc::new(Schema::parse("p(b)").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(
            Right::Add,
            schema.resolve("p").unwrap(),
            Formula::parse("true").unwrap(),
        );
        rules.set(
            Right::Add,
            schema.resolve("p/b").unwrap(),
            Formula::parse("true").unwrap(),
        );
        let init = Instance::parse(schema.clone(), "p, p").unwrap();
        let form = GuardedForm::new(schema, rules, init, Formula::parse("p[b]").unwrap());
        let oracle = CompletabilityOptions::with_limits(idar_solver::ExploreLimits {
            multiplicity_cap: Some(2),
            ..idar_solver::ExploreLimits::small()
        });
        let mgr = FormManager::new(form, oracle, UnknownPolicy::Reject);

        // 3 candidates: add p (root), add b under p₁, add b under p₂. The
        // two b-additions have isomorphic successors, so the cold sweep
        // runs the oracle twice and serves the third vet from the cache.
        let safe = mgr.safe_updates();
        assert_eq!(safe.len(), 3);
        let cold = mgr.cache_stats();
        assert_eq!(cold.misses, 2, "isomorphic successors solve once");
        assert_eq!(cold.hits, 1);

        // A repeat sweep is all hits: the cache-hit rate climbs to 2/3.
        let safe2 = mgr.safe_updates();
        assert_eq!(safe2, safe);
        let warm = mgr.cache_stats();
        assert_eq!(warm.misses, 2, "no new oracle runs");
        assert_eq!(warm.hits, 4);
        assert!(
            warm.hit_rate() > 0.6,
            "cache-hit rate {:.2} below the expected 2/3",
            warm.hit_rate()
        );
        // This positive-fragment form dispatches to saturation — no
        // state graph to retain, every call is a (cached) cold solve.
        assert_eq!(mgr.retained_states(), None);
        assert_eq!(
            mgr.recompute_stats().total(),
            mgr.recompute_stats().cold_solves
        );
    }

    #[test]
    fn safe_updates_exclude_stranding_ones() {
        let form = trap_form();
        let mgr = FormManager::new(
            form.clone(),
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        let all = form.allowed_updates(form.initial());
        assert_eq!(all.len(), 2); // add g, add t
        let safe = mgr.safe_updates();
        assert_eq!(safe.len(), 1); // only add g
    }

    #[test]
    fn disallowed_updates_rejected_before_oracle() {
        let form = trap_form();
        let g_edge = form.schema().resolve("g").unwrap();
        let mut mgr = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        mgr.submit(Update::Add {
            parent: InstNodeId::ROOT,
            edge: g_edge,
        })
        .unwrap();
        // Second g violates ¬g: structural rejection.
        let err = mgr
            .submit(Update::Add {
                parent: InstNodeId::ROOT,
                edge: g_edge,
            })
            .unwrap_err();
        assert_eq!(err, Rejection::NotAllowed);
    }

    /// The trap form's 4-state space closes, so after the first vet the
    /// session answers from graph annotations — zero further solves.
    #[test]
    fn trap_form_session_answers_from_the_graph() {
        let form = trap_form();
        let mgr = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        let safe = mgr.safe_updates();
        assert_eq!(safe.len(), 1);
        let r = mgr.recompute_stats();
        assert_eq!(r.cold_solves, 0, "closed graph: no cold solves at all");
        assert_eq!(r.graph_hits, 2, "both candidates answered by lookup");
        assert_eq!(mgr.retained_states(), Some(4)); // {}, {g}, {t}, {g,t}
                                                    // Repeat sweeps stay on the graph.
        mgr.safe_updates();
        let r = mgr.recompute_stats();
        assert_eq!(r.graph_hits, 4);
        assert_eq!(r.cold_solves, 0);
        assert!(r.graph_hit_rate() > 0.99);
    }

    /// A session whose memory budget can't hold the graph evicts it —
    /// published entries are retracted from the shared cache and the
    /// verdicts stay identical on the cold path.
    #[test]
    fn eviction_falls_back_to_cold_with_identical_verdicts() {
        let form = trap_form();
        let roomy = FormManager::new(
            form.clone(),
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        let tiny = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        )
        .with_max_retained_states(2);
        let a = roomy.safe_updates();
        let b = tiny.safe_updates();
        assert_eq!(a, b);
        assert_eq!(
            tiny.retained_states(),
            None,
            "4-state graph over the 2-state budget"
        );
        assert_eq!(tiny.recompute_stats().graph_hits, 0);
        assert!(tiny.recompute_stats().cold_solves > 0);
    }

    /// The byte-denominated budget behaves like the state budget: a
    /// graph over the byte cap is evicted (bytes freed are reported),
    /// verdicts stay identical on the cold path, and a roomy byte cap
    /// retains the graph and reports its resident bytes.
    #[test]
    fn byte_budget_evicts_and_reports_bytes_freed() {
        let form = trap_form();
        let roomy = FormManager::new(
            form.clone(),
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        )
        .with_max_retained_bytes(64 * 1024 * 1024);
        let tiny = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        )
        .with_max_retained_bytes(16);
        let a = roomy.safe_updates();
        let b = tiny.safe_updates();
        assert_eq!(a, b, "byte budget never affects verdicts");
        let retained = roomy.retained_bytes().expect("graph under the byte cap");
        assert!(retained > 16, "a 4-state graph holds real bytes");
        assert_eq!(roomy.eviction_stats(), EvictionStats::default());
        assert_eq!(tiny.retained_bytes(), None, "graph over 16 B evicted");
        let ev = tiny.eviction_stats();
        assert_eq!(ev.evictions, 1);
        assert!(ev.evicted_bytes > 16);
        assert!(tiny.recompute_stats().cold_solves > 0);
    }

    /// A frontier extension that logs an expansion but interns no new
    /// state still grows the graph, and the retained bytes follow it.
    /// Under `a(b)` with `b` never addable there are two states, {} and
    /// {a}; a build capped at two states never expands {a}, and the
    /// resume from {a} expands it (one edge, back to the root) and stops
    /// at the cap when it reaches the root.
    #[test]
    fn retained_bytes_follow_a_resume_that_only_logs() {
        let schema = Arc::new(Schema::parse("a(b)").unwrap());
        let a_edge = schema.resolve("a").unwrap();
        let mut rules = AccessRules::new(&schema);
        rules.set_both(a_edge, Formula::parse("!a").unwrap(), Formula::True);
        let init = Instance::empty(schema.clone());
        let form = GuardedForm::new(schema, rules, init, Formula::parse("a[b]").unwrap());
        let mut oracle = CompletabilityOptions::with_limits(idar_solver::ExploreLimits {
            max_states: 2,
            ..idar_solver::ExploreLimits::small()
        });
        oracle.force_method = Some(Method::BoundedExploration);
        let mgr = FormManager::new(form, oracle, UnknownPolicy::Accept);
        let add_a = Update::Add {
            parent: InstNodeId::ROOT,
            edge: a_edge,
        };
        assert_eq!(mgr.vet(&add_a), Ok(()), "Unknown is accepted");
        assert_eq!(mgr.recompute_stats().frontier_extends, 1);
        assert_eq!(
            mgr.retained_states(),
            Some(2),
            "the resume interned nothing"
        );
        let graph_bytes = match &*mgr.session.borrow() {
            SessionState::Active(a) => a.graph.approx_bytes(),
            _ => panic!("the truncated graph stays active"),
        };
        assert_eq!(mgr.retained_bytes(), Some(graph_bytes));
    }

    /// `reset` rewinds to the initial instance while keeping the
    /// retained graph, so the post-reset sweep is warm.
    #[test]
    fn reset_reuses_the_retained_graph() {
        let form = trap_form();
        let g_edge = form.schema().resolve("g").unwrap();
        let mut mgr = FormManager::new(
            form,
            CompletabilityOptions::default(),
            UnknownPolicy::Reject,
        );
        mgr.submit(Update::Add {
            parent: InstNodeId::ROOT,
            edge: g_edge,
        })
        .unwrap();
        assert!(mgr.is_complete());
        mgr.reset();
        assert!(!mgr.is_complete());
        assert!(mgr.history().is_empty());
        let before = mgr.recompute_stats();
        assert_eq!(mgr.safe_updates().len(), 1);
        let delta = mgr.recompute_stats().minus(&before);
        assert_eq!(delta.cold_solves, 0, "post-reset sweep stays on the graph");
        assert_eq!(delta.graph_hits, 2);
    }

    #[test]
    fn manager_completes_the_leave_application() {
        // Drive the paper's own example through the manager: every step of
        // the known-good completing run must be accepted.
        let form = idar_core::leave::example_3_12();
        let run = idar_core::leave::complete_run(&form);
        let oracle = CompletabilityOptions::with_limits(idar_solver::ExploreLimits {
            multiplicity_cap: Some(1),
            max_states: 20_000,
            ..idar_solver::ExploreLimits::small()
        });
        let mut mgr = FormManager::new(form, oracle, UnknownPolicy::Accept);
        for u in run {
            mgr.submit(u).unwrap();
        }
        assert!(mgr.is_complete());
        // The leave form explores under a multiplicity cap (truncated
        // graph): the session must have served frontier extensions.
        assert!(mgr.recompute_stats().frontier_extends > 0);
    }

    #[test]
    fn manager_protects_the_broken_leave_variant() {
        // Sec. 3.5 variant: the manager must refuse the early `f` that
        // strands the form.
        let form = idar_core::leave::section_3_5_variant();
        let sch = form.schema().clone();
        let oracle = CompletabilityOptions::with_limits(idar_solver::ExploreLimits {
            multiplicity_cap: Some(1),
            max_states: 20_000,
            ..idar_solver::ExploreLimits::small()
        });
        let mut mgr = FormManager::new(form, oracle, UnknownPolicy::Accept);
        let steps = [
            Update::Add {
                parent: InstNodeId::ROOT,
                edge: sch.resolve("a").unwrap(),
            },
            Update::Add {
                parent: InstNodeId(1),
                edge: sch.resolve("a/n").unwrap(),
            },
            Update::Add {
                parent: InstNodeId(1),
                edge: sch.resolve("a/d").unwrap(),
            },
            Update::Add {
                parent: InstNodeId(1),
                edge: sch.resolve("a/p").unwrap(),
            },
            Update::Add {
                parent: InstNodeId(4),
                edge: sch.resolve("a/p/b").unwrap(),
            },
            Update::Add {
                parent: InstNodeId(4),
                edge: sch.resolve("a/p/e").unwrap(),
            },
            Update::Add {
                parent: InstNodeId::ROOT,
                edge: sch.resolve("s").unwrap(),
            },
            Update::Add {
                parent: InstNodeId::ROOT,
                edge: sch.resolve("d").unwrap(),
            },
        ];
        for u in steps {
            mgr.submit(u).unwrap();
        }
        // The stranding early-final:
        let f_edge = sch.resolve("f").unwrap();
        let err = mgr
            .submit(Update::Add {
                parent: InstNodeId::ROOT,
                edge: f_edge,
            })
            .unwrap_err();
        assert_eq!(err, Rejection::WouldStrand);
        // Approving first keeps the workflow alive…
        mgr.submit(Update::Add {
            parent: InstNodeId(8),
            edge: sch.resolve("d/a").unwrap(),
        })
        .unwrap();
        // …and now final is safe.
        mgr.submit(Update::Add {
            parent: InstNodeId::ROOT,
            edge: f_edge,
        })
        .unwrap();
        assert!(mgr.is_complete());
    }
}
