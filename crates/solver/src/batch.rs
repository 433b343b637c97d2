//! Concurrent batch analysis of many guarded forms.
//!
//! A production form-based WIS does not check one form at a time: a
//! designer saves a change and *every* deployed form variant is re-vetted;
//! a nightly job sweeps the whole catalogue. [`BatchAnalyzer`] is the
//! entry point for that shape of workload — it fans a set of forms out
//! over a worker pool, expresses every job as an
//! [`AnalysisRequest`] through the
//! unified pipeline, and shares one [`VerdictCache`] across the whole
//! batch (so duplicate forms — isomorphic initial instances included —
//! are solved once).
//!
//! The pool parallelises *across* forms (one job = one analysis of one
//! form); every analysis itself runs single-threaded. With `t`
//! configured threads and `j` jobs the pool gets `min(t, j)` workers
//! ([`split_threads`]).
//!
//! Results come back in submission order, independent of scheduling:
//!
//! ```
//! use idar_core::leave;
//! use idar_solver::batch::{BatchAnalyzer, BatchItem};
//! use idar_solver::{ExploreLimits, Verdict};
//!
//! let limits = ExploreLimits { multiplicity_cap: Some(1), ..ExploreLimits::small() };
//! let items = vec![
//!     BatchItem::new("leave", leave::example_3_12()),
//!     BatchItem::new("variant", leave::section_3_5_variant()),
//! ];
//! let reports = BatchAnalyzer::new().with_limits(limits).run(items);
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].name, "leave");
//! assert_eq!(
//!     reports[1].semisoundness.as_ref().unwrap().verdict,
//!     Verdict::Fails, // the Sec. 3.5 variant is not semi-sound
//! );
//! ```

use crate::analysis::{analyze_keyed, AnalysisKind, AnalysisReport, AnalysisRequest, Budget};
use crate::cache::{rules_signature_of, CacheStats, RulesSignature, VerdictCache};
use crate::explore::ExploreLimits;
use idar_core::GuardedForm;
use std::sync::Arc;

/// One form to analyse, with a display name for the report.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Name echoed back in the corresponding [`FormReport`].
    pub name: String,
    /// The form under analysis.
    pub form: GuardedForm,
}

impl BatchItem {
    /// Bundle a name and a form.
    pub fn new(name: impl Into<String>, form: GuardedForm) -> Self {
        BatchItem {
            name: name.into(),
            form,
        }
    }
}

/// Which analyses a [`BatchAnalyzer`] runs per form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisSelection {
    /// Run completability (Def. 3.13).
    pub completability: bool,
    /// Run semi-soundness (Def. 3.14).
    pub semisoundness: bool,
    /// Check the completion formula is satisfiable over the form's schema
    /// (Cor. 4.5) — a cheap necessary condition for completability that
    /// catches dead completion formulas without any state search.
    pub satisfiability: bool,
}

impl AnalysisSelection {
    /// The pipeline kinds this selection enables, in report order.
    fn kinds(&self) -> Vec<AnalysisKind> {
        let mut kinds = Vec::new();
        if self.completability {
            kinds.push(AnalysisKind::Completability);
        }
        if self.semisoundness {
            kinds.push(AnalysisKind::Semisoundness);
        }
        if self.satisfiability {
            kinds.push(AnalysisKind::Satisfiability);
        }
        kinds
    }
}

impl Default for AnalysisSelection {
    fn default() -> Self {
        AnalysisSelection {
            completability: true,
            semisoundness: true,
            satisfiability: true,
        }
    }
}

/// The per-form outcome of a batch run. Fields are `None` when the
/// corresponding analysis was not selected.
#[derive(Debug, Clone)]
pub struct FormReport {
    /// The submitted [`BatchItem::name`].
    pub name: String,
    /// Completability report (verdict, method, witness, cache
    /// provenance), if selected.
    pub completability: Option<AnalysisReport>,
    /// Semi-soundness report, if selected.
    pub semisoundness: Option<AnalysisReport>,
    /// Completion-formula satisfiability report, if selected.
    pub satisfiability: Option<AnalysisReport>,
}

/// Runs the selected analyses over many forms concurrently. See the
/// module docs for the execution model.
#[derive(Debug, Clone)]
pub struct BatchAnalyzer {
    budget: Budget,
    threads: usize,
    selection: AnalysisSelection,
    cache: Arc<VerdictCache>,
}

impl Default for BatchAnalyzer {
    fn default() -> Self {
        BatchAnalyzer::new()
    }
}

impl BatchAnalyzer {
    /// An analyzer with default budget, all analyses selected, a fresh
    /// verdict cache, and [`default_threads`](crate::explore::default_threads)
    /// pool size.
    pub fn new() -> BatchAnalyzer {
        BatchAnalyzer {
            budget: Budget::default(),
            threads: crate::explore::default_threads(),
            selection: AnalysisSelection::default(),
            cache: Arc::new(VerdictCache::new()),
        }
    }

    /// Set the shared exploration limits for every search in the batch.
    pub fn with_limits(mut self, limits: ExploreLimits) -> Self {
        self.budget.limits = limits;
        self
    }

    /// Set the full shared budget for every job in the batch.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Set the worker-pool size (1 = run the batch sequentially).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Choose which analyses to run per form.
    pub fn with_selection(mut self, selection: AnalysisSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Share a verdict cache with other analyzers or managers (e.g. the
    /// nightly sweep and the online vetting path).
    pub fn with_cache(mut self, cache: Arc<VerdictCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The analyzer's verdict cache (to inspect hit rates or share).
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// Hit/miss counters of the analyzer's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Run the batch. Reports come back in submission order.
    pub fn run(&self, items: Vec<BatchItem>) -> Vec<FormReport> {
        // One job = one (form, analysis-kind) pair, so a slow
        // semi-soundness check on one form does not serialise the rest of
        // the batch.
        let kinds = self.selection.kinds();
        let jobs: Vec<(usize, AnalysisKind)> = (0..items.len())
            .flat_map(|i| kinds.iter().map(move |&k| (i, k)))
            .collect();

        fn store(report: &mut FormReport, result: AnalysisReport) {
            match result.kind {
                AnalysisKind::Completability => report.completability = Some(result),
                AnalysisKind::Semisoundness => report.semisoundness = Some(result),
                AnalysisKind::Satisfiability => report.satisfiability = Some(result),
            }
        }

        // One rule-table serialization per item, not per (item, kind).
        let rules_sigs: Vec<RulesSignature> = items
            .iter()
            .map(|it| rules_signature_of(&it.form))
            .collect();

        let (pool_threads, _) = split_threads(self.threads, jobs.len());

        let budget = &self.budget;
        let cache = &self.cache;
        let rules_sigs = &rules_sigs;
        let run_job = move |i: usize, item: &BatchItem, kind: AnalysisKind| {
            let key = VerdictCache::key_with(&rules_sigs[i], &item.form, kind, budget);
            let request = AnalysisRequest::new(item.form.clone(), kind).with_budget(budget.clone());
            analyze_keyed(&request, cache, &key)
        };

        let mut reports: Vec<FormReport> = items
            .iter()
            .map(|it| FormReport {
                name: it.name.clone(),
                completability: None,
                semisoundness: None,
                satisfiability: None,
            })
            .collect();

        if pool_threads > 1 {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;

            // Per-form report slots behind independent locks; workers pull
            // jobs from one shared counter until drained. The analysis
            // itself runs outside any lock — the slot mutex is held only
            // for the field store, so the three analyses of one form
            // proceed concurrently on different workers.
            let slots: Vec<Mutex<&mut FormReport>> = reports.iter_mut().map(Mutex::new).collect();
            let next = AtomicUsize::new(0);
            let jobs = &jobs;
            let items = &items;
            let slots = &slots;
            let next = &next;
            let run_job = &run_job;
            std::thread::scope(|scope| {
                for _ in 0..pool_threads {
                    scope.spawn(move || loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, kind)) = jobs.get(j) else {
                            break;
                        };
                        let result = run_job(i, &items[i], kind);
                        store(&mut slots[i].lock().expect("report slot poisoned"), result);
                    });
                }
            });
            return reports;
        }

        for &(i, kind) in &jobs {
            let result = run_job(i, &items[i], kind);
            store(&mut reports[i], result);
        }
        reports
    }
}

/// Size a pool for `jobs` concurrent jobs under a budget of `threads`:
/// `(pool, 1)` with `pool = min(threads, jobs)`, at least 1 — never more
/// workers than configured, no idle workers. The second component is
/// the per-job thread grant, always 1 because explorations are
/// single-threaded. `idar-server` sizes its HTTP worker pool with the
/// same function.
pub fn split_threads(threads: usize, jobs: usize) -> (usize, usize) {
    (threads.min(jobs).max(1), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use idar_core::{leave, AccessRules, Formula, Instance, Schema};
    use std::sync::Arc;

    fn capped_limits() -> ExploreLimits {
        ExploreLimits {
            multiplicity_cap: Some(1),
            max_states: 50_000,
            ..ExploreLimits::small()
        }
    }

    fn suite() -> Vec<BatchItem> {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(
            idar_core::Right::Add,
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
        );
        let tiny = idar_core::GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a & b").unwrap(), // b can never be added
        );
        vec![
            BatchItem::new("leave", leave::example_3_12()),
            BatchItem::new("variant", leave::section_3_5_variant()),
            BatchItem::new("tiny_incompletable", tiny),
        ]
    }

    #[test]
    fn sequential_batch_verdicts() {
        let reports = BatchAnalyzer::new()
            .with_limits(capped_limits())
            .with_threads(1)
            .run(suite());
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[0].completability.as_ref().unwrap().verdict,
            Verdict::Holds
        );
        assert_eq!(
            reports[1].semisoundness.as_ref().unwrap().verdict,
            Verdict::Fails
        );
        assert_eq!(
            reports[2].completability.as_ref().unwrap().verdict,
            Verdict::Fails
        );
        // The incompletable form's completion is satisfiable in general
        // trees of its schema — the state search, not the formula, rules
        // it out.
        assert_eq!(
            reports[2].satisfiability.as_ref().unwrap().verdict,
            Verdict::Holds
        );
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let seq = BatchAnalyzer::new()
            .with_limits(capped_limits())
            .with_threads(1)
            .run(suite());
        let par = BatchAnalyzer::new()
            .with_limits(capped_limits())
            .with_threads(4)
            .run(suite());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.name, p.name);
            assert_eq!(
                s.completability.as_ref().unwrap().verdict,
                p.completability.as_ref().unwrap().verdict
            );
            assert_eq!(
                s.semisoundness.as_ref().unwrap().verdict,
                p.semisoundness.as_ref().unwrap().verdict
            );
            assert_eq!(
                s.satisfiability.as_ref().unwrap().verdict,
                p.satisfiability.as_ref().unwrap().verdict
            );
        }
    }

    #[test]
    fn selection_is_respected() {
        let reports = BatchAnalyzer::new()
            .with_limits(capped_limits())
            .with_selection(AnalysisSelection {
                completability: true,
                semisoundness: false,
                satisfiability: false,
            })
            .run(suite());
        for r in &reports {
            assert!(r.completability.is_some());
            assert!(r.semisoundness.is_none());
            assert!(r.satisfiability.is_none());
        }
    }

    /// The pool never outnumbers the configured threads or the jobs,
    /// and every job runs single-threaded.
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

    /// Duplicate (and isomorphic-duplicate) forms in one batch are solved
    /// once: the shared cache serves the repeats.
    #[test]
    fn batch_cache_deduplicates_identical_forms() {
        let analyzer = BatchAnalyzer::new()
            .with_limits(capped_limits())
            .with_threads(1)
            .with_selection(AnalysisSelection {
                completability: true,
                semisoundness: false,
                satisfiability: false,
            });
        let items = vec![
            BatchItem::new("a", leave::example_3_12()),
            BatchItem::new("b", leave::example_3_12()),
            BatchItem::new("c", leave::example_3_12()),
        ];
        let reports = analyzer.run(items);
        let stats = analyzer.cache_stats();
        assert_eq!(stats.misses, 1, "one cold solve");
        assert_eq!(stats.hits, 2, "two served from cache");
        for r in &reports {
            assert_eq!(r.completability.as_ref().unwrap().verdict, Verdict::Holds);
        }
        use crate::analysis::CacheProvenance;
        assert_eq!(
            reports[0].completability.as_ref().unwrap().cache,
            CacheProvenance::Miss
        );
        assert_eq!(
            reports[2].completability.as_ref().unwrap().cache,
            CacheProvenance::Hit
        );
    }
}
