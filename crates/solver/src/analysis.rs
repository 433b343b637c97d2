//! The unified **analysis pipeline**: one request type, one report type,
//! one execution path for every analysis in the workspace.
//!
//! Before this layer, each analysis (completability, semi-soundness,
//! completion-formula satisfiability) had its own entry point with its own
//! options struct, its own `ExploreLimits` plumbing, and no way to share
//! work. [`AnalysisRequest`] + [`analyze`] replace that with a single
//! flow:
//!
//! ```text
//!   AnalysisRequest { form, kind, budget }
//!        │
//!        ├─ 1. cache probe ── hit ──────────────► AnalysisReport (Hit)
//!        ├─ 2. fragment classification (Sec. 3.5)
//!        ├─ 3. method selection (Table 1 dispatch, or budget.force_method)
//!        ├─ 4. budgeted run (Explorer / Depth1System / saturation / NP /
//!        │       tableau — all under budget.limits & budget.symmetry)
//!        └─ 5. verdict + witness + stats + cache store
//!                                                ► AnalysisReport (Miss)
//! ```
//!
//! The classic free functions ([`completability`](crate::completability::completability),
//! [`semisoundness`](crate::semisound::semisoundness), the
//! workflow `FormManager`, and the server routes) are thin wrappers
//! around this pipeline; [`Budget`] is the *one* place exploration limits
//! live (the former `CompletabilityOptions` / `SemisoundnessOptions` are
//! aliases of it).

use crate::cache::{CachedVerdict, VerdictCache};
use crate::explore::ExploreLimits;
use crate::satisfiability::{satisfiable, SatOptions, SatResult, WitnessTree};
use crate::store::SymmetryMode;
use crate::verdict::{Method, SearchStats, Verdict};
use idar_core::fragment::Fragment;
use idar_core::{GuardedForm, Update};
use std::fmt;

/// Which decision problem an [`AnalysisRequest`] poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Completability (Def. 3.13): some run reaches a complete instance.
    Completability,
    /// Semi-soundness (Def. 3.14): every reachable instance is
    /// completable.
    Semisoundness,
    /// Completion-formula satisfiability over the form's schema
    /// (Cor. 4.5) — a cheap necessary condition for completability.
    Satisfiability,
}

impl fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisKind::Completability => write!(f, "completability"),
            AnalysisKind::Semisoundness => write!(f, "semi-soundness"),
            AnalysisKind::Satisfiability => write!(f, "satisfiability"),
        }
    }
}

/// The one budget struct every analysis shares — exploration limits,
/// method override, and the symmetry quotient.
///
/// This replaces the `ExploreLimits` plumbing that used to be copied
/// across `CompletabilityOptions` and `SemisoundnessOptions`; those
/// names are now aliases of `Budget`. Everything
/// in the budget is verdict-affecting and therefore part of the
/// [`VerdictCache`] key — except [`Budget::skip_screen`], which is in
/// the struct but excluded from the manual `PartialEq`/`Hash` impls
/// below.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Resource limits for the bounded/NP code paths (semi-soundness
    /// also caps enumerated states plus the states its oracles visit at
    /// `max_states`).
    pub limits: ExploreLimits,
    /// Skip the fragment dispatch and force a method (for ablations and
    /// differential tests). Only meaningful for completability.
    pub force_method: Option<Method>,
    /// The state-space quotient explicit-state searches run under
    /// (default: symmetry-reduced).
    pub symmetry: SymmetryMode,
    /// Skip the pre-exploration static screener ([`mod@crate::screen`]).
    /// The screener issues only sound verdicts and its dead-rule pruning
    /// preserves the reachable state graph, so this flag is **not**
    /// verdict-affecting — excluded from `PartialEq`/`Hash` below, so
    /// screened and unscreened runs share cache entries.
    /// (The screener is also bypassed whenever `force_method` is set.)
    pub skip_screen: bool,
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        // `skip_screen` intentionally omitted — see the struct docs.
        self.limits == other.limits
            && self.force_method == other.force_method
            && self.symmetry == other.symmetry
    }
}

impl Eq for Budget {}

impl std::hash::Hash for Budget {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `skip_screen` intentionally omitted — must stay consistent
        // with `eq`.
        self.limits.hash(state);
        self.force_method.hash(state);
        self.symmetry.hash(state);
    }
}

impl Budget {
    /// A budget with the given limits and everything else default.
    pub fn with_limits(limits: ExploreLimits) -> Budget {
        Budget {
            limits,
            ..Budget::default()
        }
    }
}

/// A fully-specified analysis problem: the form, the question, and the
/// budget. Build one and hand it to [`analyze`] / [`analyze_with`].
#[derive(Debug, Clone)]
pub struct AnalysisRequest {
    /// The guarded form under analysis.
    pub form: GuardedForm,
    /// The question.
    pub kind: AnalysisKind,
    /// The resource budget (also the cache key's limit component).
    pub budget: Budget,
}

impl AnalysisRequest {
    /// A request with the default budget.
    pub fn new(form: GuardedForm, kind: AnalysisKind) -> AnalysisRequest {
        AnalysisRequest {
            form,
            kind,
            budget: Budget::default(),
        }
    }

    /// Shorthand for a completability request.
    pub fn completability(form: GuardedForm) -> AnalysisRequest {
        Self::new(form, AnalysisKind::Completability)
    }

    /// Shorthand for a semi-soundness request.
    pub fn semisoundness(form: GuardedForm) -> AnalysisRequest {
        Self::new(form, AnalysisKind::Semisoundness)
    }

    /// Shorthand for a completion-satisfiability request.
    pub fn satisfiability(form: GuardedForm) -> AnalysisRequest {
        Self::new(form, AnalysisKind::Satisfiability)
    }

    /// Replace the budget.
    pub fn with_budget(mut self, budget: Budget) -> AnalysisRequest {
        self.budget = budget;
        self
    }

    /// Ignores its argument: exploration is single-threaded. Kept so
    /// existing callers still compile.
    #[deprecated(note = "analyses are single-threaded; this is a no-op")]
    pub fn with_threads(self, _threads: usize) -> AnalysisRequest {
        self
    }
}

/// Where a report's verdict came from, cache-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProvenance {
    /// No cache was consulted ([`analyze`] without a cache).
    Uncached,
    /// The cache was probed, missed, and now holds this verdict.
    Miss,
    /// The verdict was served from the cache (witnesses are omitted on
    /// hits — see [`crate::cache`] for why).
    Hit,
}

impl fmt::Display for CacheProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheProvenance::Uncached => write!(f, "uncached"),
            CacheProvenance::Miss => write!(f, "miss"),
            CacheProvenance::Hit => write!(f, "hit"),
        }
    }
}

/// The uniform result of the pipeline: verdict, provenance, and evidence.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The question that was asked.
    pub kind: AnalysisKind,
    /// The form's fragment (Sec. 3.5), computed during dispatch.
    pub fragment: Fragment,
    /// The three-valued answer.
    pub verdict: Verdict,
    /// The algorithm that produced it.
    pub method: Method,
    /// Evidence run: a complete run for completability `Holds`, a run to
    /// an incompletable instance for semi-soundness `Fails`. `None` on
    /// cache hits and for satisfiability.
    pub run: Option<Vec<Update>>,
    /// A witness tree for satisfiability `Holds`.
    pub sat_witness: Option<WitnessTree>,
    /// Statistics of the search that produced the verdict (the original
    /// cold run's stats on cache hits).
    pub stats: SearchStats,
    /// Cache provenance of this report.
    pub cache: CacheProvenance,
    /// Counters from the static screener's pass over this request:
    /// `Some` whenever the screener ran (cold completability or
    /// semi-soundness without `force_method`/`skip_screen`), whether or
    /// not it decided. `None` on cache hits and for satisfiability.
    pub screen: Option<crate::screen::ScreenStats>,
}

/// Run the pipeline without a cache.
pub fn analyze(request: &AnalysisRequest) -> AnalysisReport {
    analyze_with(request, None)
}

/// Run the pipeline, consulting (and filling) `cache` when given. Hits
/// skip the analysis entirely (the probe hashes the rule table and the
/// initial instance, nothing more) and return [`CacheProvenance::Hit`]
/// with no witness; misses run cold and store their verdict for the next
/// identical request — where "identical" quotients the initial instance
/// by isomorphism (see [`crate::cache`]).
pub fn analyze_with(request: &AnalysisRequest, cache: Option<&VerdictCache>) -> AnalysisReport {
    match cache {
        // Key construction serializes the rule table — compute it once
        // and reuse it for the probe and the store.
        Some(c) => analyze_keyed(
            request,
            c,
            &VerdictCache::key_for(&request.form, request.kind, &request.budget),
        ),
        None => run_cold(request),
    }
}

/// [`analyze_with`] with the cache key precomputed — the hot path for
/// callers whose rule table is fixed across many requests (e.g. a form
/// manager vetting successor instances: memoise
/// [`rules_signature_of`](crate::cache::rules_signature_of) once and
/// build per-request keys with
/// [`VerdictCache::key_with`](crate::cache::VerdictCache::key_with)).
pub fn analyze_keyed(
    request: &AnalysisRequest,
    cache: &VerdictCache,
    key: &crate::cache::CacheKey,
) -> AnalysisReport {
    if let Some(hit) = cache.get_keyed(key) {
        return AnalysisReport {
            kind: request.kind,
            fragment: hit.fragment,
            verdict: hit.verdict,
            method: hit.method,
            run: None,
            sat_witness: None,
            stats: hit.stats,
            cache: CacheProvenance::Hit,
            screen: None,
        };
    }
    let mut report = run_cold(request);
    // Limit-hit `Unknown`s are *not* stored: at a resource boundary the
    // verdict can depend on enumeration order, which differs between
    // merely-isomorphic siblings sharing this key — serving one sibling's
    // boundary `Unknown` to another could mask a verdict the cold run
    // would have decided. Decided verdicts (and closed-search Unknowns,
    // which cannot occur) are renaming-invariant and safe to share.
    let cacheable = !(report.verdict == Verdict::Unknown && report.stats.limit_hit.is_some());
    if cacheable {
        cache.put_keyed(
            key,
            CachedVerdict {
                verdict: report.verdict,
                method: report.method,
                fragment: report.fragment,
                stats: report.stats,
            },
        );
    }
    report.cache = CacheProvenance::Miss;
    report
}

/// Steps 2–4 of the pipeline: classify, **screen**, select, run. For
/// completability and semi-soundness the static screener runs before
/// method selection (probe order: cache → screen → exploration/SAT);
/// a conclusive screen is the whole answer ([`Method::StaticScreen`],
/// zero states), an inconclusive one still hands the chosen engine the
/// dead-rule-pruned form — same reachable graph, smaller rule table.
fn run_cold(request: &AnalysisRequest) -> AnalysisReport {
    let fragment = idar_core::fragment::classify(&request.form);
    // The screener is bypassed under `force_method` (ablations and
    // differential tests must exercise the forced engine verbatim).
    let screened = (request.budget.force_method.is_none()
        && !request.budget.skip_screen
        && matches!(
            request.kind,
            AnalysisKind::Completability | AnalysisKind::Semisoundness
        ))
    .then(|| crate::screen::screen(&request.form));
    let screen_stats = screened.as_ref().map(|s| s.stats);
    if let Some(s) = &screened {
        let outcome = match request.kind {
            AnalysisKind::Completability => &s.completability,
            AnalysisKind::Semisoundness => &s.semisoundness,
            AnalysisKind::Satisfiability => unreachable!("not screened"),
        };
        if let crate::screen::ScreenOutcome::Decided(verdict, run) = outcome {
            return AnalysisReport {
                kind: request.kind,
                fragment,
                verdict: *verdict,
                method: Method::StaticScreen,
                run: run.clone(),
                sat_witness: None,
                stats: SearchStats {
                    closed: true,
                    ..SearchStats::default()
                },
                cache: CacheProvenance::Uncached,
                screen: screen_stats,
            };
        }
    }
    // Inconclusive screens prune; dead rules never fire at a reachable
    // state, so the pruned form's verdict is the original's.
    let pruned = screened
        .as_ref()
        .filter(|s| !s.dead_rules.is_empty())
        .map(|s| crate::screen::prune(&request.form, &s.dead_rules));
    let form = pruned.as_ref().unwrap_or(&request.form);
    match request.kind {
        AnalysisKind::Completability => {
            let r = crate::completability::run_completability(form, &request.budget);
            AnalysisReport {
                kind: request.kind,
                fragment,
                verdict: r.verdict,
                method: r.method,
                run: r.witness_run,
                sat_witness: None,
                stats: r.stats,
                cache: CacheProvenance::Uncached,
                screen: screen_stats,
            }
        }
        AnalysisKind::Semisoundness => {
            let r = crate::semisound::run_semisoundness(form, &request.budget);
            AnalysisReport {
                kind: request.kind,
                fragment,
                verdict: r.verdict,
                method: r.method,
                run: r.counterexample,
                sat_witness: None,
                stats: r.stats,
                cache: CacheProvenance::Uncached,
                screen: screen_stats,
            }
        }
        AnalysisKind::Satisfiability => {
            let opts = SatOptions {
                schema: Some(request.form.schema().clone()),
                ..SatOptions::default()
            };
            let (verdict, sat_witness) = match satisfiable(request.form.completion(), &opts) {
                SatResult::Sat(w) => (Verdict::Holds, Some(w)),
                SatResult::Unsat => (Verdict::Fails, None),
                SatResult::BudgetExhausted => (Verdict::Unknown, None),
            };
            AnalysisReport {
                kind: request.kind,
                fragment,
                verdict,
                method: Method::SatTableau,
                run: None,
                sat_witness,
                stats: SearchStats::default(),
                cache: CacheProvenance::Uncached,
                screen: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::leave;

    #[test]
    fn pipeline_answers_all_three_kinds() {
        let form = leave::example_3_12();
        let budget = Budget::with_limits(ExploreLimits {
            multiplicity_cap: Some(1),
            max_states: 50_000,
            ..ExploreLimits::small()
        });
        let c = analyze(&AnalysisRequest::completability(form.clone()).with_budget(budget.clone()));
        assert_eq!(c.verdict, Verdict::Holds);
        assert!(form.is_complete_run(c.run.as_ref().unwrap()));
        assert_eq!(c.cache, CacheProvenance::Uncached);

        let s = analyze(&AnalysisRequest::satisfiability(form.clone()));
        assert_eq!(s.verdict, Verdict::Holds);
        assert_eq!(s.method, Method::SatTableau);
        assert!(s.sat_witness.is_some());

        let variant = leave::section_3_5_variant();
        let ss = analyze(&AnalysisRequest::semisoundness(variant.clone()).with_budget(budget));
        assert_eq!(ss.verdict, Verdict::Fails);
        let cex = ss.run.expect("counterexample");
        assert!(variant.replay(&cex).is_ok());
    }

    #[test]
    fn cache_round_trip_preserves_the_verdict() {
        let cache = VerdictCache::new();
        let form = leave::example_3_12();
        let req =
            AnalysisRequest::completability(form).with_budget(Budget::with_limits(ExploreLimits {
                multiplicity_cap: Some(1),
                ..ExploreLimits::small()
            }));
        let cold = analyze_with(&req, Some(&cache));
        assert_eq!(cold.cache, CacheProvenance::Miss);
        let warm = analyze_with(&req, Some(&cache));
        assert_eq!(warm.cache, CacheProvenance::Hit);
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(warm.method, cold.method);
        assert_eq!(warm.stats, cold.stats);
        assert!(warm.run.is_none(), "hits do not carry witnesses");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn budget_symmetry_is_dispatched() {
        // Plain-mode bounded exploration visits more states but agrees on
        // the verdict.
        let form = leave::example_3_12();
        let mk = |symmetry| {
            AnalysisRequest::completability(form.clone()).with_budget(Budget {
                limits: ExploreLimits {
                    multiplicity_cap: Some(1),
                    ..ExploreLimits::small()
                },
                symmetry,
                force_method: Some(Method::BoundedExploration),
                ..Budget::default()
            })
        };
        let reduced = analyze(&mk(SymmetryMode::Reduced));
        let plain = analyze(&mk(SymmetryMode::Plain));
        assert_eq!(reduced.verdict, plain.verdict);
        assert_eq!(reduced.verdict, Verdict::Holds);
    }
}
