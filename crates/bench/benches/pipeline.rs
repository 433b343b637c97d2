//! Unified analysis pipeline benches.
//!
//! * `pipeline/symmetry/*` — symmetry-reduced (canonical quotient)
//!   exploration vs the plain ordered-tree baseline on
//!   `subset_lattice(n)`: the reduced space is `2ⁿ`, the plain space
//!   `Σ_k n!/(n−k)!` — the gap is what the StateStore's canonical
//!   interning buys.
//! * `pipeline/cache/*` — cold [`analyze`] vs cached re-analysis through
//!   a shared [`VerdictCache`] of the identical `AnalysisRequest`.
//! * `pipeline/manager_safe_updates` — the FormManager's cached
//!   `safe_updates` sweep, cold cache vs warm.
//!
//! Verdict agreement is asserted inside every timed body, so a
//! divergence fails the bench run loudly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idar_bench::workloads;
use idar_solver::{
    analyze, analyze_with, AnalysisRequest, Budget, ExploreLimits, Explorer, Method, SymmetryMode,
    Verdict, VerdictCache,
};
use idar_workflow::manager::{FormManager, UnknownPolicy};

fn symmetry_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/symmetry");
    group.sample_size(5);
    for n in [6usize, 8] {
        let w = workloads::subset_lattice(n);
        let limits = ExploreLimits {
            max_states: 1 << 20,
            ..ExploreLimits::default()
        };
        group.bench_with_input(BenchmarkId::new("reduced", n), &w, |b, w| {
            b.iter(|| {
                let g = Explorer::new(&w.form, limits).graph();
                assert!(g.exact());
                assert_eq!(g.state_count(), 1 << n);
            })
        });
        group.bench_with_input(BenchmarkId::new("plain", n), &w, |b, w| {
            b.iter(|| {
                let g = Explorer::new(&w.form, limits)
                    .with_symmetry(SymmetryMode::Plain)
                    .graph();
                assert!(g.exact());
                assert!(g.state_count() > 1 << n);
            })
        });
    }
    group.finish();
}

fn verdict_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/cache");
    group.sample_size(10);
    let w = workloads::subset_lattice(12);
    let budget = Budget {
        limits: ExploreLimits {
            max_states: 1 << 20,
            ..ExploreLimits::default()
        },
        force_method: Some(Method::BoundedExploration),
        ..Budget::default()
    };
    let request = AnalysisRequest::completability(w.form.clone()).with_budget(budget);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let r = analyze(&request);
            assert_eq!(r.verdict, Verdict::Holds);
        })
    });
    let cache = VerdictCache::new();
    analyze_with(&request, Some(&cache));
    group.bench_function("cached", |b| {
        b.iter(|| {
            let r = analyze_with(&request, Some(&cache));
            assert_eq!(r.verdict, Verdict::Holds);
        })
    });
    group.finish();
}

fn manager_safe_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/manager_safe_updates");
    group.sample_size(10);
    let oracle = Budget::with_limits(ExploreLimits {
        multiplicity_cap: Some(1),
        max_states: 20_000,
        ..ExploreLimits::small()
    });
    // The anti-pattern idar-server exists to avoid: a manager built per
    // call pays the cold sweep every time — its private cache and
    // memoized rules key die with it.
    group.bench_function("per_call_manager", |b| {
        b.iter(|| {
            let mgr = FormManager::new(
                idar_core::leave::example_3_12(),
                oracle.clone(),
                UnknownPolicy::Reject,
            );
            assert!(!mgr.safe_updates().is_empty());
        })
    });
    let warm_mgr = FormManager::new(
        idar_core::leave::example_3_12(),
        oracle.clone(),
        UnknownPolicy::Reject,
    );
    warm_mgr.safe_updates();
    group.bench_function("warm_cache", |b| {
        b.iter(|| {
            assert!(!warm_mgr.safe_updates().is_empty());
        })
    });
    // The server pattern: a persistent per-tenant session over the
    // process-wide shared cache. Even a *fresh* session is warm when a
    // sibling already analyzed the same rules — the cross-tenant path
    // the sessions tests pin at >= 2/3 hit rate.
    let shared = std::sync::Arc::new(VerdictCache::new());
    FormManager::new(
        idar_core::leave::example_3_12(),
        oracle.clone(),
        UnknownPolicy::Reject,
    )
    .with_cache(std::sync::Arc::clone(&shared))
    .safe_updates();
    group.bench_function("session_shared_cache", |b| {
        b.iter(|| {
            let mgr = FormManager::new(
                idar_core::leave::example_3_12(),
                oracle.clone(),
                UnknownPolicy::Reject,
            )
            .with_cache(std::sync::Arc::clone(&shared));
            assert!(!mgr.safe_updates().is_empty());
        })
    });
    group.finish();
}

criterion_group!(benches, symmetry_modes, verdict_cache, manager_safe_updates);
criterion_main!(benches);
