//! Regenerate every table and figure of the paper and print
//! paper-vs-measured evidence. `EXPERIMENTS.md` records this output.
//!
//! Alongside the human-readable transcript, the run writes a
//! machine-readable **`BENCH_11.json`** (schema v11: per-section
//! wall-times *and peak-RSS snapshots*, the host's thread count, the
//! SAT-engine cdcl-vs-dpll family timings, the `state_store` section:
//! states before/after symmetry reduction, verdict-cache hit rate and
//! cold-vs-cached speedup, manager throughput — the `scenarios` section:
//! the named approval-chain corpus with its pinned verdicts plus
//! screen-bypassed chain-depth scaling explorations up to depth 12 — the
//! `incremental` section: post-edit `safe_updates` latency answered by a
//! retained session graph vs an always-cold re-solve, with per-workload
//! speedup and graph-hit rate — the `static` section: the fraction of
//! the scenario corpus the pre-exploration screener decides outright,
//! its p99 latency vs the cold-exploration p50 it replaces, dead-rule
//! counts and the pruned-vs-unpruned state-count pin — the `service`
//! section: idar-server throughput and p50/p99 latency under the seeded
//! interactive, analysis, and edit-burst load mixes, with the server's
//! final admission counters and session graph-hit rate — and the
//! `capacity` section: the out-of-core state store, flat vs budgeted
//! allocator peaks, spill/fault/compression counters, and the
//! frontier-only blow-up run) so CI can archive the perf trajectory;
//! pass `--json PATH` to redirect it.
//!
//! Perf gates asserted inside the run: CDCL must solve the 200k-clause
//! chain in < 100 ms, the incremental section must answer post-edit
//! `safe_updates` ≥ 10× faster warm than cold on both of its
//! workloads, the static section must decide ≥ 30% of its corpus with a
//! screener p99 ≤ 2 ms on every slice and under the scaled slice's
//! cold-exploration p50 (agreeing with exploration on every decided
//! case, pruned state counts identical to unpruned), the service
//! section must finish with zero request
//! errors, a clean drain (`accepted == completed` — no request is ever
//! admitted and then dropped), p99 ≤ 250 ms on every mix, and a
//! retained-graph path that actually engages under the edit-burst mix,
//! and the capacity section must explore `subset_lattice(18)` under its
//! budget with allocator peak ≤ 50% of the flat in-RAM baseline and
//! throughput within 2× of it, with identical `SearchStats`, and close
//! both `subset_lattice(20)` and the deletion-free two-counter blow-up —
//! sizes past the flat store's former n16/65k bench ceiling.
//!
//! ```text
//! cargo run --release -p idar-bench --bin reproduce \
//!   [-- --json BENCH_11.json] [--only capacity] [--capacity-budget BYTES]
//! ```
//!
//! `--only capacity` runs just the capacity section (the CI
//! capacity-smoke job's entry point); `--capacity-budget BYTES` overrides
//! the 1 MiB default arena budget, e.g. a deliberately tiny budget to
//! exercise the pager on a small box.

// The workspace libraries all `forbid(unsafe_code)`; this binary can only
// `deny` because the counting allocator below is the one sanctioned
// exception, quarantined behind an explicit `allow`.
#![deny(unsafe_code)]

use idar_bench::json::{peak_rss_bytes, Json};
use idar_bench::workloads;
use idar_core::{bisim, fragment, leave, Instance, Schema};
use idar_logic::qbf::Qbf;
use idar_solver::batch::{BatchAnalyzer, BatchItem};
use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
use idar_solver::{
    completability, default_threads, CompletabilityOptions, ExploreLimits, Explorer, Verdict,
};
use std::sync::Arc;
use std::time::Instant;

/// A counting allocator wrapping [`std::alloc::System`], tracking live
/// bytes and a **resettable** high-water mark. The kernel's `VmHWM`
/// (archived per section via [`peak_rss_bytes`]) is monotone over the
/// process lifetime, so it cannot compare a flat run against a budgeted
/// run inside one process — the capacity gates measure through this
/// allocator instead and archive both numbers.
// The sole `unsafe` in the workspace: implementing `GlobalAlloc` is an
// unsafe trait contract by definition. The impl only forwards to
// `System` and updates atomics — no pointer arithmetic of its own.
#[allow(unsafe_code)]
mod peak_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct PeakAlloc;

    static CURRENT: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
                PEAK.fetch_max(now, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                if new_size >= layout.size() {
                    let now = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed)
                        + new_size
                        - layout.size();
                    PEAK.fetch_max(now, Ordering::Relaxed);
                } else {
                    CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
            p
        }
    }

    /// Reset the high-water mark to the currently-live byte count and
    /// return that baseline: `peak() - reset_peak()` after a measured
    /// region is the region's net allocation peak.
    pub fn reset_peak() -> usize {
        let now = CURRENT.load(Ordering::Relaxed);
        PEAK.store(now, Ordering::Relaxed);
        now
    }

    /// The high-water mark since the last [`reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

/// One row of the SAT-engine table, recorded for `BENCH_11.json`.
struct SatRow {
    family: String,
    vars: usize,
    clauses: usize,
    sat: bool,
    cdcl_ms: f64,
    /// `None` when DPLL was skipped (family sizes beyond its reach).
    dpll_ms: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.iter().position(|a| a == "--json") {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_11.json".to_string()),
        None => "BENCH_11.json".to_string(),
    };
    let only_capacity = match args.iter().position(|a| a == "--only") {
        Some(i) => {
            let what = args.get(i + 1).map(String::as_str).unwrap_or("");
            assert_eq!(what, "capacity", "--only supports only `capacity`");
            true
        }
        None => false,
    };
    let capacity_budget: usize = match args.iter().position(|a| a == "--capacity-budget") {
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--capacity-budget takes a byte count"),
        None => 1 << 20,
    };
    let run_start = Instant::now();
    // Per-section wall-time and the process peak RSS (`VmHWM`) as of the
    // end of the section, so the report carries memory alongside
    // wall-time.
    let mut sections: Vec<(&'static str, f64, Option<u64>)> = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        sections.push((name, t.elapsed().as_secs_f64() * 1e3, peak_rss_bytes()));
    };

    if only_capacity {
        let mut capacity_report = None;
        timed("capacity", &mut || {
            capacity_report = Some(capacity(capacity_budget))
        });
        let capacity_report = capacity_report.expect("capacity section ran");
        let report = Json::obj([
            ("schema_version", Json::Int(11)),
            ("generated_by", Json::Str("idar-bench reproduce".into())),
            ("threads", Json::Int(default_threads() as u64)),
            ("sections", sections_json(&sections)),
            ("capacity", capacity_report.to_json()),
            (
                "total_ms",
                Json::Num(run_start.elapsed().as_secs_f64() * 1e3),
            ),
        ]);
        match std::fs::write(&json_path, report.render()) {
            Ok(()) => println!("\nmachine-readable report written to {json_path}"),
            Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
        }
        if let Some(violation) = capacity_report.gate_violation {
            eprintln!("\nCAPACITY GATE VIOLATED: {violation}");
            std::process::exit(1);
        }
        println!("Capacity section completed.");
        return;
    }

    banner("Table 1 (paper): complexity matrix");
    print!("{}", fragment::render_table1());

    timed(
        "table1_completability_positive",
        &mut table1_completability_positive,
    );
    timed("table1_completability_np", &mut table1_completability_np);
    timed(
        "table1_completability_depth1",
        &mut table1_completability_depth1,
    );
    timed("table1_undecidable", &mut table1_undecidable);
    timed("table1_semisoundness_conp", &mut table1_semisoundness_conp);
    timed("table1_semisoundness_qsat", &mut table1_semisoundness_qsat);
    timed(
        "table1_semisoundness_depth1",
        &mut table1_semisoundness_depth1,
    );
    timed(
        "corollary_4_5_satisfiability",
        &mut corollary_4_5_satisfiability,
    );
    timed("figures", &mut figures);
    timed("running_example", &mut running_example);
    timed("transformations", &mut transformations);
    let mut sat_rows = Vec::new();
    timed("sat_engines", &mut || sat_rows = sat_engines());
    timed("batch_analysis", &mut batch_analysis);
    let mut store_report = None;
    timed("state_store", &mut || store_report = Some(state_store()));
    let store_report = store_report.expect("state_store section ran");
    let mut scenario_report = None;
    timed("scenarios", &mut || scenario_report = Some(scenarios()));
    let scenario_report = scenario_report.expect("scenarios section ran");
    let mut incremental_report = None;
    timed("incremental", &mut || {
        incremental_report = Some(incremental())
    });
    let incremental_report = incremental_report.expect("incremental section ran");
    let mut static_report = None;
    timed("static", &mut || static_report = Some(static_screen()));
    let static_report = static_report.expect("static section ran");
    let mut service_report = None;
    timed("service", &mut || service_report = Some(service()));
    let service_report = service_report.expect("service section ran");
    let mut capacity_report = None;
    timed("capacity", &mut || {
        capacity_report = Some(capacity(capacity_budget))
    });
    let capacity_report = capacity_report.expect("capacity section ran");

    let report = Json::obj([
        ("schema_version", Json::Int(11)),
        ("generated_by", Json::Str("idar-bench reproduce".into())),
        ("threads", Json::Int(default_threads() as u64)),
        ("sections", sections_json(&sections)),
        (
            "sat_engine",
            Json::Arr(
                sat_rows
                    .iter()
                    .map(|r| {
                        let mut pairs = vec![
                            ("family".to_string(), Json::Str(r.family.clone())),
                            ("vars".to_string(), Json::Int(r.vars as u64)),
                            ("clauses".to_string(), Json::Int(r.clauses as u64)),
                            ("sat".to_string(), Json::Bool(r.sat)),
                            ("cdcl_ms".to_string(), Json::Num(r.cdcl_ms)),
                        ];
                        if let Some(d) = r.dpll_ms {
                            pairs.push(("dpll_ms".to_string(), Json::Num(d)));
                        }
                        Json::Obj(pairs)
                    })
                    .collect(),
            ),
        ),
        ("state_store", store_report.to_json()),
        ("scenarios", scenario_report.to_json()),
        ("incremental", incremental_report.to_json()),
        ("static", static_report.to_json()),
        ("service", service_report.to_json()),
        ("capacity", capacity_report.to_json()),
        (
            "total_ms",
            Json::Num(run_start.elapsed().as_secs_f64() * 1e3),
        ),
    ]);
    match std::fs::write(&json_path, report.render()) {
        Ok(()) => println!("\nmachine-readable report written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    // Gates fail the run only *after* the report is on disk, so the
    // regression that tripped one is still archived and diffable.
    if let Some(violation) = incremental_report.gate_violation {
        eprintln!("\nINCREMENTAL GATE VIOLATED: {violation}");
        std::process::exit(1);
    }
    if let Some(violation) = static_report.gate_violation {
        eprintln!("\nSTATIC GATE VIOLATED: {violation}");
        std::process::exit(1);
    }
    if let Some(violation) = service_report.gate_violation {
        eprintln!("\nSERVICE GATE VIOLATED: {violation}");
        std::process::exit(1);
    }
    if let Some(violation) = capacity_report.gate_violation {
        eprintln!("\nCAPACITY GATE VIOLATED: {violation}");
        std::process::exit(1);
    }

    println!("All experiments completed.");
}

/// The `sections` array: per-section wall-time and the `VmHWM`
/// peak-RSS snapshot taken as the section finished.
fn sections_json(sections: &[(&'static str, f64, Option<u64>)]) -> Json {
    Json::Arr(
        sections
            .iter()
            .map(|(name, ms, rss)| {
                let mut pairs = vec![
                    ("name".to_string(), Json::Str((*name).into())),
                    ("wall_ms".to_string(), Json::Num(*ms)),
                ];
                if let Some(rss) = rss {
                    pairs.push(("peak_rss_bytes".to_string(), Json::Int(*rss)));
                }
                Json::Obj(pairs)
            })
            .collect(),
    )
}

fn banner(s: &str) {
    println!("\n{:=^74}", format!(" {s} "));
}

fn verdict_of(b: bool) -> Verdict {
    if b {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

/// Rows F(A+, φ+, ·) — completability in P (Thm 5.5).
fn table1_completability_positive() {
    banner("T1.compl F(A+,phi+,*) -- polynomial saturation (Thm 5.5)");
    println!(
        "{:<28}{:>10}{:>14}{:>10}",
        "workload", "size", "time", "verdict"
    );
    for n in [8usize, 16, 32, 64, 128, 256] {
        let w = workloads::positive_chain(n);
        let t = Instant::now();
        let r = completability(&w.form, &CompletabilityOptions::default());
        let dt = t.elapsed();
        println!(
            "{:<28}{:>10}{:>14}{:>10}",
            w.name,
            n,
            format!("{dt:.2?}"),
            r.verdict.to_string()
        );
        assert_eq!(r.verdict, Verdict::Holds);
    }
    println!("shape check: doubling n must scale polynomially (roughly x4 for");
    println!("the quadratic saturation loop), never exponentially.");
}

/// Rows F(A+, φ−, 1/k) — completability NP-complete (Thm 5.1 / Thm 5.2).
fn table1_completability_np() {
    banner("T1.compl F(A+,phi-,1/k) -- NP via Thm 5.1 families vs DPLL");
    println!(
        "{:<12}{:>10}{:>12}{:>12}{:>14}",
        "vars", "clauses", "instances", "agree", "total time"
    );
    for vars in [4usize, 6, 8, 10] {
        let clauses = vars * 3;
        let t = Instant::now();
        let mut agree = 0;
        let total = 10;
        for seed in 0..total {
            let w = workloads::np_sat(seed, vars, clauses);
            let r = completability(&w.form, &CompletabilityOptions::default());
            if r.verdict == verdict_of(w.expected.unwrap()) {
                agree += 1;
            }
        }
        println!(
            "{:<12}{:>10}{:>12}{:>12}{:>14}",
            vars,
            clauses,
            total,
            format!("{agree}/{total}"),
            format!("{:.2?}", t.elapsed())
        );
        assert_eq!(agree, total);
    }
}

/// Rows F(A−, φ±, 1) — completability PSPACE-complete (Thm 4.6).
fn table1_completability_depth1() {
    banner("T1.compl F(A-,phi-,1) -- Thm 4.6 deadlock reduction, exact depth-1");
    println!(
        "{:<26}{:>10}{:>12}{:>14}{:>10}",
        "workload", "labels", "states", "time", "verdict"
    );
    for n in [2usize, 3, 4, 5] {
        let w = workloads::depth1_philosophers(n);
        let labels = w.form.schema().edge_count();
        let t = Instant::now();
        let r = completability(&w.form, &CompletabilityOptions::default());
        let dt = t.elapsed();
        println!(
            "{:<26}{:>10}{:>12}{:>14}{:>10}",
            w.name,
            labels,
            r.stats.states,
            format!("{dt:.2?}"),
            r.verdict.to_string()
        );
        assert_eq!(r.verdict, verdict_of(w.expected.unwrap()));
    }
    println!("shape check: canonical state count grows exponentially with n");
    println!("(PSPACE-complete cell; explicit search trades space for time).");
}

/// Rows F(A−, φ±, ≥2) — undecidable (Thm 4.1 / Cor 4.2).
fn table1_undecidable() {
    banner("T1 undecidable cells -- Thm 4.1 machine simulation");
    println!(
        "{:<26}{:>8}{:>12}{:>14}{:>18}",
        "machine", "halts", "verdict", "time", "trace agreement"
    );
    let machines: Vec<(&str, idar_machines::TwoCounterMachine, bool)> = vec![
        (
            "count_up(2)",
            idar_machines::library::count_up_then_accept(2),
            true,
        ),
        (
            "transfer(2)",
            idar_machines::library::transfer_c1_to_c2(2),
            true,
        ),
        ("even(4)", idar_machines::library::accept_iff_even(4), true),
        ("even(3)", idar_machines::library::accept_iff_even(3), false),
        ("diverge", idar_machines::library::diverge(), false),
        ("ping_pong", idar_machines::library::ping_pong(), false),
    ];
    for (name, machine, halts) in machines {
        let compiled = idar_reductions::tcm_to_completability::reduce(&machine);
        // Trace agreement: micro-stepped configurations == simulator.
        let configs = 8usize;
        let got = compiled.trace(configs, 20_000);
        let want: Vec<_> = machine
            .trace(configs as u64)
            .into_iter()
            .take(got.len())
            .collect();
        let trace_ok = got == want;
        let limits = if halts {
            ExploreLimits {
                max_states: 2_000_000,
                max_state_size: 256,
                ..ExploreLimits::default()
            }
        } else {
            ExploreLimits {
                max_states: 20_000,
                max_state_size: 64,
                ..ExploreLimits::default()
            }
        };
        let t = Instant::now();
        let r = completability(&compiled.form, &CompletabilityOptions::with_limits(limits));
        let dt = t.elapsed();
        println!(
            "{:<26}{:>8}{:>12}{:>14}{:>18}",
            name,
            halts,
            r.verdict.to_string(),
            format!("{dt:.2?}"),
            if trace_ok {
                "configs match"
            } else {
                "MISMATCH"
            }
        );
        assert!(trace_ok);
        if halts {
            assert_eq!(r.verdict, Verdict::Holds);
        } else {
            assert_ne!(r.verdict, Verdict::Holds);
        }
    }
    println!("halting <=> completable on the suite; diverging machines can only be");
    println!("bounded-Unknown (the cell is undecidable, Thm 4.1).");
}

/// Row F(A+, φ+, 1) semi-soundness — coNP-complete (Thm 5.6 / Cor 5.7).
fn table1_semisoundness_conp() {
    banner("T1.semi F(A+,phi+,1) -- coNP via Thm 5.6 families vs DPLL");
    println!(
        "{:<12}{:>10}{:>12}{:>12}{:>14}",
        "vars", "clauses", "instances", "agree", "total time"
    );
    for vars in [3usize, 4, 5, 6] {
        let t = Instant::now();
        let mut agree = 0;
        let total = 10;
        for seed in 0..total {
            let w = workloads::conp_sat(seed + 100, vars, vars * 3);
            let r = semisoundness(&w.form, &SemisoundnessOptions::default());
            if r.verdict == verdict_of(w.expected.unwrap()) {
                agree += 1;
            }
        }
        println!(
            "{:<12}{:>10}{:>12}{:>12}{:>14}",
            vars,
            vars * 3,
            total,
            format!("{agree}/{total}"),
            format!("{:.2?}", t.elapsed())
        );
        assert_eq!(agree, total);
    }
}

/// Row F(A+, φ−, k) semi-soundness — Π^P_2k (Thm 5.3).
fn table1_semisoundness_qsat() {
    banner("T1.semi F(A+,phi-,k) -- Thm 5.3 QSAT_2k families vs QBF solver");
    println!("k = 1 (depth 1, exact):");
    println!("{:<8}{:>12}{:>12}{:>14}", "n", "instances", "agree", "time");
    for n in [1usize, 2, 3] {
        let t = Instant::now();
        let mut agree = 0;
        let total = 8;
        for seed in 0..total {
            let (w, _) = workloads::qsat_semisound(seed, 1, n);
            let r = semisoundness(&w.form, &SemisoundnessOptions::default());
            if r.verdict == verdict_of(w.expected.unwrap()) {
                agree += 1;
            }
        }
        println!(
            "{:<8}{:>12}{:>12}{:>14}",
            n,
            total,
            format!("{agree}/{total}"),
            format!("{:.2?}", t.elapsed())
        );
        assert_eq!(agree, total);
    }
    println!("k = 2 (depth 2): strategy-witness protocol");
    let mut checked = 0;
    for seed in 0..10u64 {
        let qbf = idar_logic::gen::random_qsat2k(seed, 2, 1, 6);
        let compiled = idar_reductions::qsat_to_semisoundness::reduce(&qbf).unwrap();
        let witness = idar_reductions::qsat_to_semisoundness::strategy_witness(&compiled, &qbf);
        match (qbf.eval(), witness) {
            (true, Some(w)) => {
                let run = idar_reductions::qsat_to_semisoundness::run_to(&compiled, &w);
                let replay = compiled.form.replay(&run).unwrap();
                assert!(!idar_reductions::qsat_to_semisoundness::ucfree_completable(
                    &compiled,
                    replay.last()
                ));
                checked += 1;
            }
            (false, None) => checked += 1,
            (t, w) => panic!("strategy witness mismatch: qbf={t} witness={}", w.is_some()),
        }
    }
    println!("  10/10 QBFs: witness exists & is reachable+incompletable iff QBF true ({checked} checked)");
}

/// Rows F(A−, φ±, 1) semi-soundness — PSPACE-complete (Cor 4.7).
fn table1_semisoundness_depth1() {
    banner("T1.semi F(A-,phi-,1) -- Cor 4.7 reset/build round-trips");
    println!(
        "{:<12}{:>12}{:>12}{:>14}",
        "vars", "instances", "agree", "time"
    );
    for vars in [3usize, 4, 5] {
        let t = Instant::now();
        let mut agree = 0;
        let total = 6;
        for seed in 0..total {
            let w = workloads::depth1_reset_build(seed + 40, vars, vars * 3);
            let r = semisoundness(&w.form, &SemisoundnessOptions::default());
            if r.verdict == verdict_of(w.expected.unwrap()) {
                agree += 1;
            }
        }
        println!(
            "{:<12}{:>12}{:>12}{:>14}",
            vars,
            total,
            format!("{agree}/{total}"),
            format!("{:.2?}", t.elapsed())
        );
        assert_eq!(agree, total);
    }
    println!("(G completable <=> reset/build G' semi-sound, decided exactly at depth 1)");
}

/// Corollary 4.5 — satisfiability NP/PSPACE.
fn corollary_4_5_satisfiability() {
    banner("Cor 4.5 -- satisfiability: SAT and QSAT encodings vs baselines");
    use idar_solver::satisfiability::{satisfiable, SatOptions};
    let t = Instant::now();
    let mut agree = 0;
    let total = 20;
    for seed in 0..total {
        let cnf = idar_logic::gen::random_3cnf(seed, 5, 12);
        let f = idar_reductions::sat_to_satisfiability::reduce(&cnf);
        if satisfiable(&f, &SatOptions::default()).is_sat() == idar_logic::sat_solve(&cnf).is_some()
        {
            agree += 1;
        }
    }
    println!(
        "SAT encoding:  {agree}/{total} agree with DPLL   ({:.2?})",
        t.elapsed()
    );
    assert_eq!(agree, total);

    let t = Instant::now();
    let mut agree = 0;
    let total = 12;
    for seed in 0..total {
        let qbf = {
            use idar_logic::gen::Rng;
            use idar_logic::qbf::Quantifier;
            use idar_logic::Var;
            let mut rng = idar_logic::gen::XorShift::new(seed * 31 + 5);
            let nvars = 2 + rng.below(2);
            let blocks = (0..nvars)
                .map(|v| {
                    let q = if rng.bool() {
                        Quantifier::Exists
                    } else {
                        Quantifier::ForAll
                    };
                    (q, vec![Var(v as u32)])
                })
                .collect();
            Qbf::new(blocks, idar_logic::gen::random_prop(seed + 900, nvars, 5))
        };
        let f = idar_reductions::qsat_to_satisfiability::reduce(&qbf);
        if satisfiable(&f, &SatOptions::default()).is_sat() == qbf.eval() {
            agree += 1;
        }
    }
    println!(
        "QSAT encoding: {agree}/{total} agree with QBF solver ({:.2?})",
        t.elapsed()
    );
    assert_eq!(agree, total);
}

/// Figures 1–3.
fn figures() {
    banner("Figure 1 -- the leave application schema");
    let s = leave::schema();
    print!("{}", s.render());
    assert_eq!(s.depth(), 3);
    assert_eq!(s.node_count(), 13);

    banner("Figure 2 -- two instances of the schema");
    let a = leave::figure2a(s.clone());
    println!("(a) submitted application, two periods:");
    print!("{}", a.render());
    let b = leave::figure2b(s.clone());
    println!("(b) single period, rejected:");
    print!("{}", b.render());

    banner("Figure 3 -- an instance and its canonical instance");
    let fs = Arc::new(Schema::parse("a(c(e), d), b(c, d(e))").unwrap());
    let inst = Instance::parse(
        fs.clone(),
        "a(c, c(e)), a(c, c(e)), a(c(e), c(e)), a(c(e)), b(c, d(e), d(e))",
    )
    .unwrap();
    println!("(a) instance ({} nodes):", inst.live_count());
    print!("{}", inst.render());
    let can = bisim::canonical(&inst);
    println!("(b) canonical instance ({} nodes):", can.live_count());
    print!("{}", can.render());
    let expected = Instance::parse(fs, "a(c, c(e)), a(c(e)), b(c, d(e))").unwrap();
    assert!(can.isomorphic(&expected));
    assert!(bisim::equivalent(&inst, &can));
    println!("check: can(I) matches the expected quotient; I ~ can(I) (Lemma 3.9).");
}

/// Example 3.12 and the Sec. 3.5 claims.
fn running_example() {
    banner("Example 3.12 / Sec 3.5 -- the leave application workflow");
    let g = leave::example_3_12();
    println!("fragment: {}", fragment::classify(&g));

    let run = leave::complete_run(&g);
    assert!(g.is_complete_run(&run));
    println!(
        "claim: phi = f is completable              -> complete run of {} steps",
        run.len()
    );

    let capped = ExploreLimits {
        multiplicity_cap: Some(2),
        ..ExploreLimits::small()
    };
    let g_ns = g.with_completion(idar_core::Formula::parse("f & !s").unwrap());
    let r = completability(&g_ns, &CompletabilityOptions::with_limits(capped));
    assert_ne!(r.verdict, Verdict::Holds);
    println!(
        "claim: phi = f & !s has no full run        -> none found \
         (exhaustive up to sibling multiplicity 2; honest verdict: {})",
        r.verdict
    );

    let g_inv = g.with_completion(leave::both_decisions_invariant());
    let r = completability(&g_inv, &CompletabilityOptions::with_limits(capped));
    assert_ne!(r.verdict, Verdict::Holds);
    println!(
        "claim: d[a & r] is never reachable         -> no violation found \
         (same bounds; honest verdict: {})",
        r.verdict
    );

    let variant = leave::section_3_5_variant();
    let rc = completability(&variant, &CompletabilityOptions::with_limits(capped));
    assert_eq!(rc.verdict, Verdict::Holds);
    let rs = semisoundness(
        &variant,
        &SemisoundnessOptions {
            limits: ExploreLimits {
                multiplicity_cap: Some(1),
                max_states: 50_000,
                ..ExploreLimits::small()
            },
            ..Default::default()
        },
    );
    assert_eq!(rs.verdict, Verdict::Fails);
    println!(
        "claim: Sec 3.5 variant completable          -> {}",
        rc.verdict
    );
    println!(
        "claim: Sec 3.5 variant not semi-sound       -> semi-soundness {}",
        rs.verdict
    );
    if let Some(cex) = rs.counterexample {
        let replay = variant.replay(&cex).unwrap();
        println!(
            "counterexample run of {} steps reaches a final-without-decision instance:",
            cex.len()
        );
        print!("{}", replay.last().render());
    }
}

/// The SAT-engine check: CDCL vs DPLL on the `idar_gen::cnf` families.
/// Not a paper experiment — the engineering validation that the CDCL
/// engine (the default `sat_solve` behind every Thm 5.1 / Thm 5.6 /
/// Cor. 4.5 baseline) is verdict-identical to the independent DPLL
/// baseline, plus its wall-clock on this machine. The 200k-clause
/// implication chain is the historical regression: 53.6 s on the
/// pre-indexed DPLL, < 100 ms required from CDCL (asserted below).
fn sat_engines() -> Vec<SatRow> {
    use idar_gen::cnf;
    use idar_logic::Engine;
    banner("Engine check -- CDCL vs DPLL on chain/pigeonhole/random-3CNF");
    println!(
        "{:<26}{:>8}{:>10}{:>8}{:>12}{:>12}",
        "family", "vars", "clauses", "sat", "cdcl", "dpll"
    );
    let mut rows = Vec::new();
    let suite: Vec<(String, idar_logic::Cnf, bool)> = vec![
        ("chain/200k".into(), cnf::implication_chain(200_000), true),
        (
            "chain-unsat/200k".into(),
            cnf::implication_chain_unsat(200_000),
            false,
        ),
        ("pigeonhole/6".into(), cnf::pigeonhole(6), false),
        // The random-3CNF verdicts are pinned constants (the instances
        // are pure functions of their seeds): an independent expectation,
        // not an answer echoed back from the engine under test.
        (
            "random3cnf/v30c126".into(),
            cnf::random_3cnf(11, 30, 126),
            true,
        ),
        (
            "random3cnf/v80c336".into(),
            cnf::random_3cnf(7, 80, 336),
            true,
        ),
    ];
    for (family, instance, expected) in suite {
        let t = Instant::now();
        let cdcl = Engine::Cdcl.solve(&instance);
        let cdcl_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(m) = &cdcl {
            assert!(instance.eval(m), "{family}: cdcl model must satisfy");
        }
        assert_eq!(cdcl.is_some(), expected, "{family}: cdcl verdict");
        // DPLL runs everywhere but the large random instance (no
        // learning: the phase-transition family blows up past ~40 vars).
        let dpll_ms = if family != "random3cnf/v80c336" {
            let t = Instant::now();
            let dpll = Engine::Dpll.solve(&instance);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(dpll.is_some(), expected, "{family}: dpll verdict");
            Some(ms)
        } else {
            None
        };
        println!(
            "{:<26}{:>8}{:>10}{:>8}{:>12}{:>12}",
            family,
            instance.vars,
            instance.clauses.len(),
            if expected { "sat" } else { "unsat" },
            format!("{cdcl_ms:.2}ms"),
            dpll_ms.map_or("-".to_string(), |d| format!("{d:.2}ms")),
        );
        if family == "chain/200k" {
            assert!(
                cdcl_ms < 100.0,
                "CDCL must solve the 200k chain in < 100 ms (took {cdcl_ms:.1} ms; \
                 the pre-indexed DPLL baseline took 53.6 s)"
            );
        }
        rows.push(SatRow {
            family,
            vars: instance.vars,
            clauses: instance.clauses.len(),
            sat: expected,
            cdcl_ms,
            dpll_ms,
        });
    }
    println!("(chain/200k asserts the < 100 ms acceptance bound; the quadratic");
    println!("pre-PR baseline needed 53.6 s on this workload)");
    rows
}

/// The batch analyzer over a cross-section of Table 1 families: every
/// form's completability / semi-soundness / completion-satisfiability in
/// one concurrent sweep, verdicts checked against the baselines.
fn batch_analysis() {
    banner("Batch analysis -- concurrent sweep over Table 1 families");
    let mut items = Vec::new();
    let mut expected = Vec::new();
    for n in [8usize, 32] {
        let w = workloads::positive_chain(n);
        expected.push(w.expected);
        items.push(BatchItem::new(w.name, w.form));
    }
    for seed in 0..4 {
        let w = workloads::np_sat(seed, 5, 15);
        expected.push(w.expected);
        items.push(BatchItem::new(w.name, w.form));
    }
    for n in [2usize, 3] {
        let w = workloads::depth1_philosophers(n);
        expected.push(w.expected);
        items.push(BatchItem::new(w.name, w.form));
    }
    {
        let w = workloads::subset_lattice(10);
        expected.push(w.expected);
        items.push(BatchItem::new(w.name, w.form));
    }

    let t = Instant::now();
    let reports = BatchAnalyzer::new()
        .with_limits(ExploreLimits::default())
        .run(items);
    let dt = t.elapsed();

    println!(
        "{:<30}{:>10}{:>12}{:>10}",
        "workload", "compl", "semisound", "phi-sat"
    );
    let mut agree = 0;
    for (r, exp) in reports.iter().zip(&expected) {
        let compl = r.completability.as_ref().unwrap().verdict;
        if compl == verdict_of(exp.unwrap()) {
            agree += 1;
        }
        println!(
            "{:<30}{:>10}{:>12}{:>10}",
            r.name,
            compl.to_string(),
            r.semisoundness.as_ref().unwrap().verdict.to_string(),
            if r.satisfiability.as_ref().unwrap().verdict == Verdict::Holds {
                "sat"
            } else {
                "unsat"
            },
        );
    }
    println!(
        "{agree}/{} completability verdicts agree with baselines ({dt:.2?} total, {} pool threads)",
        reports.len(),
        default_threads(),
    );
    assert_eq!(agree, reports.len());
}

/// The `state_store` report: symmetry-reduction shrinkage, verdict-cache
/// speedup, and form-manager throughput. Written to `BENCH_11.json`.
struct StoreReport {
    symmetry_workload: String,
    plain_states: usize,
    reduced_states: usize,
    cache_workload: String,
    cold_ms: f64,
    cached_ms: f64,
    manager_cold_ms: f64,
    manager_warm_ms: f64,
    manager_hit_rate: f64,
}

impl StoreReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "symmetry_workload",
                Json::Str(self.symmetry_workload.clone()),
            ),
            ("plain_states", Json::Int(self.plain_states as u64)),
            ("reduced_states", Json::Int(self.reduced_states as u64)),
            (
                "reduction_factor",
                Json::Num(self.plain_states as f64 / self.reduced_states.max(1) as f64),
            ),
            ("cache_workload", Json::Str(self.cache_workload.clone())),
            ("cold_ms", Json::Num(self.cold_ms)),
            ("cached_ms", Json::Num(self.cached_ms)),
            (
                "cache_speedup",
                Json::Num(self.cold_ms / self.cached_ms.max(1e-9)),
            ),
            ("manager_cold_ms", Json::Num(self.manager_cold_ms)),
            ("manager_warm_ms", Json::Num(self.manager_warm_ms)),
            (
                "manager_speedup",
                Json::Num(self.manager_cold_ms / self.manager_warm_ms.max(1e-9)),
            ),
            ("manager_hit_rate", Json::Num(self.manager_hit_rate)),
        ])
    }
}

/// The unified-pipeline engine check: (1) symmetry reduction — the
/// canonical quotient vs the plain ordered-tree space on the subset
/// lattice; (2) the cross-analysis `VerdictCache` — cold vs cached
/// `AnalysisRequest` runs; (3) the `FormManager`'s cached `safe_updates`
/// throughput. Not a paper experiment — the engineering validation of
/// the hash-consed StateStore / VerdictCache layers, with the ≥ 10×
/// cached-re-analysis bound asserted.
fn state_store() -> StoreReport {
    use idar_solver::{
        analyze, analyze_with, AnalysisRequest, Budget, Method, SymmetryMode, VerdictCache,
    };
    use idar_workflow::manager::{FormManager, UnknownPolicy};

    banner("Engine check -- StateStore symmetry reduction + VerdictCache");

    // --- (1) symmetry reduction on the subset lattice -------------------
    let sym = workloads::subset_lattice(8);
    let limits = ExploreLimits {
        max_states: 1 << 20,
        ..ExploreLimits::default()
    };
    let reduced = Explorer::new(&sym.form, limits).graph();
    let plain = Explorer::new(&sym.form, limits)
        .with_symmetry(SymmetryMode::Plain)
        .graph();
    assert!(reduced.stats.closed && plain.stats.closed);
    assert_eq!(reduced.state_count(), 256); // 2^8 subsets
    assert!(
        reduced.state_count() < plain.state_count(),
        "symmetry reduction must shrink the explored space \
         (reduced {} vs plain {})",
        reduced.state_count(),
        plain.state_count()
    );
    println!(
        "{:<26}{:>16}{:>16}{:>12}",
        "workload", "plain states", "reduced states", "factor"
    );
    println!(
        "{:<26}{:>16}{:>16}{:>12}",
        sym.name,
        plain.state_count(),
        reduced.state_count(),
        format!(
            "{:.0}x",
            plain.state_count() as f64 / reduced.state_count() as f64
        ),
    );

    // --- (2) cold vs cached re-analysis ---------------------------------
    let cw = workloads::subset_lattice(14);
    let budget = Budget {
        limits,
        force_method: Some(Method::BoundedExploration),
        ..Budget::default()
    };
    let request = AnalysisRequest::completability(cw.form.clone()).with_budget(budget);
    let t = Instant::now();
    let cold = analyze(&request);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.verdict, Verdict::Holds);

    let cache = VerdictCache::new();
    let first = analyze_with(&request, Some(&cache));
    assert_eq!(first.verdict, cold.verdict);
    // Average many hits so the measurement is stable on fast machines.
    let reps = 100;
    let t = Instant::now();
    for _ in 0..reps {
        let hit = analyze_with(&request, Some(&cache));
        assert_eq!(hit.verdict, cold.verdict);
    }
    let cached_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
    assert!(
        cold_ms >= 10.0 * cached_ms,
        "cached re-analysis must be >= 10x faster than cold \
         (cold {cold_ms:.3} ms vs cached {cached_ms:.6} ms)"
    );
    println!(
        "cached re-analysis ({}): cold {:.2} ms, cached {:.4} ms -> {:.0}x",
        cw.name,
        cold_ms,
        cached_ms,
        cold_ms / cached_ms.max(1e-9)
    );

    // --- (3) manager throughput: cached safe_updates ---------------------
    let form = idar_core::leave::example_3_12();
    let oracle = Budget::with_limits(ExploreLimits {
        multiplicity_cap: Some(1),
        max_states: 20_000,
        ..ExploreLimits::small()
    });
    let mgr = FormManager::new(form, oracle, UnknownPolicy::Reject);
    let t = Instant::now();
    let safe_cold = mgr.safe_updates();
    let manager_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let safe_warm = mgr.safe_updates();
    let manager_warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(safe_cold, safe_warm);
    let stats = mgr.cache_stats();
    let recompute = mgr.recompute_stats();
    // With a retained session graph the warm sweep is answered by graph
    // lookups or resumed frontier extensions and never probes the shared
    // cache; without one (method or memory budget disabled it) the warm
    // sweep must hit the cache.
    assert!(
        stats.hits > 0 || recompute.graph_hits + recompute.frontier_extends > 0,
        "warm safe_updates must be answered from the cache or the session graph"
    );
    println!(
        "manager safe_updates ({} candidates): cold {:.2} ms, warm {:.3} ms \
         -> {:.0}x, cache hit rate {:.2}, warm graph answers {}",
        safe_cold.len(),
        manager_cold_ms,
        manager_warm_ms,
        manager_cold_ms / manager_warm_ms.max(1e-9),
        stats.hit_rate(),
        recompute.graph_hits + recompute.frontier_extends,
    );
    println!("(the >= 10x cached-re-analysis bound is asserted above; the plain");
    println!("column counts ordered trees -- what exploration would visit without");
    println!("the canonical-fingerprint quotient)");

    StoreReport {
        symmetry_workload: sym.name,
        plain_states: plain.state_count(),
        reduced_states: reduced.state_count(),
        cache_workload: cw.name,
        cold_ms,
        cached_ms,
        manager_cold_ms,
        manager_warm_ms,
        manager_hit_rate: stats.hit_rate(),
    }
}

/// One named-corpus row of the `scenarios` section.
struct ScenarioRow {
    name: String,
    completable: bool,
    semisound: bool,
    wall_ms: f64,
}

/// One chain-depth scaling row of the `scenarios` section.
struct ChainRow {
    depth: usize,
    states: usize,
    wall_ms: f64,
}

/// The `scenarios` report: named-corpus verdict pins and approval-chain
/// depth scaling. Written to `BENCH_11.json`.
struct ScenarioReport {
    named: Vec<ScenarioRow>,
    chain_scaling: Vec<ChainRow>,
}

impl ScenarioReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "named",
                Json::Arr(
                    self.named
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("completable", Json::Bool(r.completable)),
                                ("semisound", Json::Bool(r.semisound)),
                                ("wall_ms", Json::Num(r.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "chain_scaling",
                Json::Arr(
                    self.chain_scaling
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("depth", Json::Int(r.depth as u64)),
                                ("states", Json::Int(r.states as u64)),
                                ("wall_ms", Json::Num(r.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The scenario corpus: the six named approval-chain scenarios with
/// their reasoned verdict pins (asserted — a drift fails the run), plus
/// completability wall-times on clean approval chains up to depth 12.
/// Not a paper experiment — the realistic-workload layer the differential
/// fuzz harness drives; this section archives its perf trajectory.
fn scenarios() -> ScenarioReport {
    banner("Scenario corpus -- named approval chains + depth scaling");
    let limits = ExploreLimits {
        max_states: 120_000,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    };

    println!(
        "{:<20}{:>12}{:>12}{:>12}",
        "scenario", "compl", "semisound", "time"
    );
    let mut named = Vec::new();
    for n in idar_gen::named_scenarios() {
        let s = &n.scenario;
        let t = Instant::now();
        let c = completability(&s.form, &CompletabilityOptions::with_limits(limits));
        let ss = semisoundness(
            &s.form,
            &SemisoundnessOptions {
                limits,
                ..Default::default()
            },
        );
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            c.verdict,
            verdict_of(n.expected.completable),
            "{}: completability pin",
            s.name
        );
        assert_eq!(
            ss.verdict,
            verdict_of(n.expected.semisound),
            "{}: semi-soundness pin",
            s.name
        );
        println!(
            "{:<20}{:>12}{:>12}{:>12}",
            s.name,
            c.verdict.to_string(),
            ss.verdict.to_string(),
            format!("{wall_ms:.2}ms")
        );
        named.push(ScenarioRow {
            name: s.name.clone(),
            completable: n.expected.completable,
            semisound: n.expected.semisound,
            wall_ms,
        });
    }

    println!(
        "{:<26}{:>10}{:>12}{:>14}",
        "workload", "depth", "states", "time"
    );
    // The screener decides clean chains outright; bypass it so these rows
    // measure exploration.
    let explore_only = CompletabilityOptions {
        skip_screen: true,
        ..CompletabilityOptions::with_limits(limits)
    };
    let mut chain_scaling = Vec::new();
    for depth in [4usize, 8, 10, 12] {
        let w = workloads::approval_chain(depth, 2, 3);
        let t = Instant::now();
        let r = completability(&w.form, &explore_only);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.verdict, Verdict::Holds, "{}", w.name);
        // Minimal witness: one submission plus one signature per level.
        assert_eq!(r.witness_run.as_ref().unwrap().len(), depth + 1);
        println!(
            "{:<26}{:>10}{:>12}{:>14}",
            w.name,
            depth,
            r.stats.states,
            format!("{wall_ms:.2}ms")
        );
        chain_scaling.push(ChainRow {
            depth,
            states: r.stats.states,
            wall_ms,
        });
    }
    println!("(pins asserted: the six named scenarios must keep their reasoned");
    println!("verdicts; clean chains stay completable with a depth+1 witness)");

    ScenarioReport {
        named,
        chain_scaling,
    }
}

/// Cor 4.2 and Sec 4.2 — the two fragment transformations.
fn transformations() {
    banner("Cor 4.2 / Sec 4.2 -- fragment transformations preserve the problems");
    // Deletion elimination on a form needing deletions.
    let schema = Arc::new(Schema::parse("a, b").unwrap());
    let mut rules = idar_core::AccessRules::new(&schema);
    rules.set_both(
        schema.resolve("a").unwrap(),
        idar_core::Formula::False,
        idar_core::Formula::parse("b").unwrap(),
    );
    rules.set(
        idar_core::Right::Add,
        schema.resolve("b").unwrap(),
        idar_core::Formula::parse("!b").unwrap(),
    );
    let init = Instance::parse(schema.clone(), "a").unwrap();
    let g = idar_core::GuardedForm::new(
        schema,
        rules,
        init,
        idar_core::Formula::parse("b & !a").unwrap(),
    );
    let before = completability(&g, &CompletabilityOptions::default()).verdict;
    let g2 = idar_reductions::deletion_elimination::reduce(&g).unwrap();
    let after = completability(&g2, &CompletabilityOptions::default()).verdict;
    println!(
        "Cor 4.2: depth {} -> {}, deletions eliminated, completability {} -> {}",
        g.schema().depth(),
        g2.schema().depth(),
        before,
        after
    );
    assert_eq!(before, after);

    let g3 = idar_reductions::positive_completion::reduce(&g).unwrap();
    let after3 = completability(&g3, &CompletabilityOptions::default()).verdict;
    println!(
        "Sec 4.2: completion `{}` -> `{}`, completability {} -> {}",
        g.completion(),
        g3.completion(),
        before,
        after3
    );
    assert_eq!(before, after3);
}

/// One workload row of the `incremental` section.
struct IncrementalRow {
    workload: String,
    retained_states: usize,
    cold_ms: f64,
    warm_ms: f64,
    graph_hit_rate: f64,
}

/// The `incremental` report: post-edit `safe_updates` answered by a
/// retained session graph vs an always-cold re-solve.
struct IncrementalReport {
    rows: Vec<IncrementalRow>,
    /// A violated warm-vs-cold gate, reported *after* the JSON is
    /// written so the regression that tripped it is still archived.
    gate_violation: Option<String>,
}

impl IncrementalReport {
    fn to_json(&self) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::Str(r.workload.clone())),
                            ("retained_states", Json::Int(r.retained_states as u64)),
                            ("cold_ms", Json::Num(r.cold_ms)),
                            ("warm_ms", Json::Num(r.warm_ms)),
                            ("speedup", Json::Num(r.cold_ms / r.warm_ms.max(1e-9))),
                            ("graph_hit_rate", Json::Num(r.graph_hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Incremental re-analysis: after one edit to a live form session, how
/// fast is the next `safe_updates` sweep when the manager kept its
/// explored state graph vs when every candidate is re-solved cold?
///
/// Both managers run the same budget (bounded exploration forced so the
/// deletion-free approval chain exercises the session path rather than
/// positive saturation) and fresh, unshared verdict caches — the cold
/// manager's graph is disabled via a zero memory budget, so its sweep is
/// the pre-session cost a stateless deployment pays on every edit. The
/// ≥ 10× warm-vs-cold bound is the section's deferred perf gate.
fn incremental() -> IncrementalReport {
    use idar_solver::{Budget, Method, VerdictCache};
    use idar_workflow::manager::{FormManager, UnknownPolicy};

    banner("Incremental re-analysis -- retained session graph vs cold re-solve");
    println!(
        "{:<26}{:>10}{:>12}{:>12}{:>10}{:>10}",
        "workload", "states", "cold", "warm", "speedup", "gh-rate"
    );

    let limits = ExploreLimits {
        max_states: 1 << 20,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    };
    let mut budget = Budget::with_limits(limits);
    budget.force_method = Some(Method::BoundedExploration);

    let mut rows = Vec::new();
    let mut gate_violation = None;
    for w in [
        workloads::approval_chain(8, 2, 3),
        workloads::subset_lattice(12),
    ] {
        // Warm: one manager that retains its session graph across the
        // edit. The first sweep (untimed) builds the graph and picks the
        // edit; the timed sweeps after `submit` are pure graph queries.
        let mut warm = FormManager::new(w.form.clone(), budget.clone(), UnknownPolicy::Reject)
            .with_cache(Arc::new(VerdictCache::new()));
        let edit = *warm
            .safe_updates()
            .first()
            .expect("workload has a safe first edit");
        warm.submit(edit).expect("safe edit accepted");
        let warm_safe = warm.safe_updates();
        let reps = 50;
        let t = Instant::now();
        for _ in 0..reps {
            assert_eq!(
                warm.safe_updates(),
                warm_safe,
                "{}: warm sweep unstable",
                w.name
            );
        }
        let warm_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let stats = warm.recompute_stats();
        assert!(
            stats.graph_hits > 0,
            "{}: the warm sweep must be answered from the retained graph",
            w.name
        );
        let retained = warm.retained_states().expect("session graph retained");

        // Cold: fresh manager, fresh cache, graph disabled — take the
        // best of several runs so the gate compares against the cold
        // path's *fastest* showing.
        let mut cold_ms = f64::INFINITY;
        for _ in 0..3 {
            let mut cold = FormManager::new(w.form.clone(), budget.clone(), UnknownPolicy::Reject)
                .with_cache(Arc::new(VerdictCache::new()))
                .with_max_retained_states(0);
            cold.submit(edit).expect("safe edit accepted");
            let t = Instant::now();
            let cold_safe = cold.safe_updates();
            cold_ms = cold_ms.min(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                cold_safe, warm_safe,
                "{}: warm and cold sweeps diverge",
                w.name
            );
        }

        let row = IncrementalRow {
            workload: w.name.clone(),
            retained_states: retained,
            cold_ms,
            warm_ms,
            graph_hit_rate: stats.graph_hit_rate(),
        };
        println!(
            "{:<26}{:>10}{:>12}{:>12}{:>10}{:>10}",
            row.workload,
            row.retained_states,
            format!("{:.3}ms", row.cold_ms),
            format!("{:.4}ms", row.warm_ms),
            format!("{:.0}x", row.cold_ms / row.warm_ms.max(1e-9)),
            format!("{:.2}", row.graph_hit_rate),
        );
        if row.cold_ms < 10.0 * row.warm_ms && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{}: warm post-edit safe_updates must be >= 10x faster than cold \
                 (cold {:.3} ms vs warm {:.4} ms)",
                row.workload, row.cold_ms, row.warm_ms
            ));
        }
        rows.push(row);
    }
    println!("(gate: warm >= 10x cold on both workloads; warm sweeps are graph");
    println!("lookups on the session retained across the edit, cold sweeps re-solve");
    println!("every candidate from scratch)");
    IncrementalReport {
        rows,
        gate_violation,
    }
}

/// One corpus-slice row of the `static` section.
struct StaticRow {
    corpus: String,
    /// `(form, problem)` cases screened — two problems per form.
    cases: usize,
    /// Cases the screener decided conclusively (zero states explored).
    decided: usize,
    /// Per-form screener wall-time p99 (one `screen` call answers both
    /// problems at once).
    screen_p99_ms: f64,
    /// Cold-exploration wall-time p50 over the *decided* cases — the
    /// work the screener replaced (screen bypassed, same limits).
    explore_p50_ms: f64,
    /// Dead rules flagged across the slice.
    dead_rules: usize,
    /// Bounded-exploration state totals over the forms with dead rules,
    /// unpruned vs pruned. Equal by construction (a dead rule never
    /// fires at any reachable state) — archived as the soundness pin.
    unpruned_states: u64,
    pruned_states: u64,
}

/// The `static` report: how much of the scenario corpus the
/// pre-exploration screener decides outright, and at what latency
/// relative to the exploration it replaces.
struct StaticReport {
    rows: Vec<StaticRow>,
    /// Decided fraction over the whole corpus (the ≥ 0.30 gate).
    decided_rate: f64,
    /// A violated gate, reported *after* the JSON is written.
    gate_violation: Option<String>,
}

impl StaticReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("decided_rate", Json::Num(self.decided_rate)),
            (
                "corpora",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("corpus", Json::Str(r.corpus.clone())),
                                ("cases", Json::Int(r.cases as u64)),
                                ("decided", Json::Int(r.decided as u64)),
                                ("screen_p99_ms", Json::Num(r.screen_p99_ms)),
                                ("explore_p50_ms", Json::Num(r.explore_p50_ms)),
                                ("dead_rules", Json::Int(r.dead_rules as u64)),
                                ("unpruned_states", Json::Int(r.unpruned_states)),
                                ("pruned_states", Json::Int(r.pruned_states)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The static screener over the named corpus plus 100 lightweight
/// recipe samples: decided-before-exploration rate (≥ 30% gate),
/// screener p99 vs the cold-exploration p50 it replaces (the screener
/// must stay under it), screen-vs-exploration verdict agreement on
/// every decided case, and pruned-vs-unpruned state-count equality on
/// every form with dead rules.
fn static_screen() -> StaticReport {
    use idar_core::GuardedForm;
    use idar_gen::scenario::{named_scenarios, ScenarioRecipe};
    use idar_solver::{analyze, prune, screen, AnalysisKind, AnalysisRequest, Budget, Method};

    banner("Static screener -- pre-exploration analysis vs cold exploration");
    println!(
        "{:<14}{:>8}{:>9}{:>14}{:>15}{:>7}{:>10}",
        "corpus", "cases", "decided", "screen-p99", "explore-p50", "dead", "states"
    );

    let limits = ExploreLimits {
        max_states: 60_000,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    };
    let mut bypass = Budget::with_limits(limits);
    bypass.skip_screen = true;

    fn percentile(xs: &mut [f64], p: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(f64::total_cmp);
        let ix = ((xs.len() - 1) as f64 * p / 100.0).round() as usize;
        xs[ix]
    }

    let named: Vec<(String, GuardedForm)> = named_scenarios()
        .into_iter()
        .map(|n| (n.scenario.name.clone(), n.scenario.form))
        .collect();
    let recipe = ScenarioRecipe::lightweight();
    let light: Vec<(String, GuardedForm)> = (0..100u64)
        .map(|seed| {
            let s = recipe.sample(seed).build("lightweight");
            (format!("lightweight/{seed}"), s.form)
        })
        .collect();
    // Deep clean chains, where cold exploration pays for a state space
    // that grows with depth while the greedy chase stays linear — the
    // slice the screener-vs-replaced-exploration latency gate runs on.
    let scaled: Vec<(String, GuardedForm)> = [6usize, 8, 10, 12]
        .iter()
        .map(|&d| {
            use idar_gen::{ChainSpec, ScenarioSpec};
            let s = ScenarioSpec::unconstrained(ChainSpec::simple(d, 2, 3)).build("scaled");
            (format!("chain-depth-{d}"), s.form)
        })
        .collect();

    let mut rows = Vec::new();
    let mut gate_violation: Option<String> = None;
    let mut total_cases = 0usize;
    let mut total_decided = 0usize;
    for (corpus, forms) in [("named", named), ("lightweight", light), ("scaled", scaled)] {
        let mut screen_ms = Vec::new();
        let mut explore_ms = Vec::new();
        let mut cases = 0usize;
        let mut decided = 0usize;
        let mut dead_rules = 0usize;
        let mut unpruned_states = 0u64;
        let mut pruned_states = 0u64;
        for (name, form) in &forms {
            let t = Instant::now();
            let r = screen(form);
            screen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (kind, outcome) in [
                (AnalysisKind::Completability, &r.completability),
                (AnalysisKind::Semisoundness, &r.semisoundness),
            ] {
                cases += 1;
                let Some(v) = outcome.verdict() else { continue };
                decided += 1;
                let t = Instant::now();
                let report =
                    analyze(&AnalysisRequest::new(form.clone(), kind).with_budget(bypass.clone()));
                explore_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if report.verdict != Verdict::Unknown
                    && report.verdict != v
                    && gate_violation.is_none()
                {
                    gate_violation = Some(format!(
                        "{corpus}/{name}/{kind}: screener verdict {v} but exploration says {}",
                        report.verdict
                    ));
                }
            }
            if !r.dead_rules.is_empty() {
                dead_rules += r.dead_rules.len();
                let pruned_form = prune(form, &r.dead_rules);
                let mut forced = bypass.clone();
                forced.force_method = Some(Method::BoundedExploration);
                let a = analyze(
                    &AnalysisRequest::new(form.clone(), AnalysisKind::Completability)
                        .with_budget(forced.clone()),
                );
                let b = analyze(
                    &AnalysisRequest::new(pruned_form, AnalysisKind::Completability)
                        .with_budget(forced),
                );
                unpruned_states += a.stats.states as u64;
                pruned_states += b.stats.states as u64;
            }
        }
        let row = StaticRow {
            corpus: corpus.to_string(),
            cases,
            decided,
            screen_p99_ms: percentile(&mut screen_ms, 99.0),
            explore_p50_ms: percentile(&mut explore_ms, 50.0),
            dead_rules,
            unpruned_states,
            pruned_states,
        };
        println!(
            "{:<14}{:>8}{:>9}{:>14}{:>15}{:>7}{:>10}",
            row.corpus,
            row.cases,
            row.decided,
            format!("{:.4}ms", row.screen_p99_ms),
            format!("{:.4}ms", row.explore_p50_ms),
            row.dead_rules,
            format!("{}={}", row.unpruned_states, row.pruned_states),
        );
        if row.unpruned_states != row.pruned_states && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{corpus}: pruning dead rules changed the explored state count \
                 ({} unpruned vs {} pruned)",
                row.unpruned_states, row.pruned_states
            ));
        }
        // Two latency gates: screening must be negligible overhead on
        // every slice (corpus forms are small; 2 ms is generous), and on
        // the scaled slice — where exploration actually costs something
        // — its p99 must sit strictly under the exploration p50 it
        // replaces. (On the tiny slices exploration is itself
        // microseconds, so a relative gate there would compare noise.)
        if row.screen_p99_ms > 2.0 && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{corpus}: screener p99 {:.4} ms exceeds the 2 ms overhead bound",
                row.screen_p99_ms
            ));
        }
        if corpus == "scaled"
            && row.decided > 0
            && row.screen_p99_ms > row.explore_p50_ms
            && gate_violation.is_none()
        {
            gate_violation = Some(format!(
                "{corpus}: screener p99 {:.4} ms exceeds the cold-exploration p50 \
                 {:.4} ms it replaces",
                row.screen_p99_ms, row.explore_p50_ms
            ));
        }
        total_cases += cases;
        total_decided += decided;
        rows.push(row);
    }
    let decided_rate = total_decided as f64 / total_cases.max(1) as f64;
    println!(
        "decided statically: {total_decided}/{total_cases} cases ({:.0}%)",
        decided_rate * 100.0
    );
    println!("(gates: decided rate >= 30%, screener p99 <= 2 ms everywhere and under");
    println!("the scaled slice's explore p50, pruned == unpruned state counts,");
    println!("screen-vs-exploration verdict agreement on every decided case)");
    if decided_rate < 0.30 && gate_violation.is_none() {
        gate_violation = Some(format!(
            "decided rate {decided_rate:.2} fell below the 0.30 floor"
        ));
    }
    StaticReport {
        rows,
        decided_rate,
        gate_violation,
    }
}

/// One traffic-mix row of the `service` section.
struct ServiceRow {
    mix: String,
    sent: u64,
    ok: u64,
    retried_429: u64,
    errors: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    accepted: u64,
    completed: u64,
    shed: u64,
    cache_hit_rate: f64,
    graph_hit_rate: f64,
}

/// The `service` report: idar-server under the seeded load mixes.
struct ServiceReport {
    rows: Vec<ServiceRow>,
    /// A violated service gate, reported *after* the JSON is written so
    /// the regression that tripped it is still archived.
    gate_violation: Option<String>,
}

impl ServiceReport {
    fn to_json(&self) -> Json {
        Json::obj([(
            "mixes",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("mix", Json::Str(r.mix.clone())),
                            ("sent", Json::Int(r.sent)),
                            ("ok", Json::Int(r.ok)),
                            ("retried_429", Json::Int(r.retried_429)),
                            ("errors", Json::Int(r.errors)),
                            ("throughput_rps", Json::Num(r.throughput_rps)),
                            ("p50_ms", Json::Num(r.p50_ms)),
                            ("p99_ms", Json::Num(r.p99_ms)),
                            ("accepted", Json::Int(r.accepted)),
                            ("completed", Json::Int(r.completed)),
                            ("shed", Json::Int(r.shed)),
                            ("cache_hit_rate", Json::Num(r.cache_hit_rate)),
                            ("graph_hit_rate", Json::Num(r.graph_hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// The analysis service under load: boot a fresh `idar-server` per mix,
/// drive the seeded generator against it, and record throughput and
/// latency percentiles alongside the server's own admission counters
/// and session re-analysis provenance.
///
/// The edit-burst mix runs longer sessions with fewer users, so most of
/// its operations are post-edit queries against an already-built session
/// graph — the traffic shape the incremental layer retains graphs for.
///
/// Four gates (deferred like the speedup gate): zero request errors
/// (every response 2xx or an absorbed 429), a clean drain — `accepted ==
/// completed`, i.e. no request is ever admitted and then dropped —
/// p99 ≤ 250 ms per mix, and warm engagement under edit-burst: at least
/// one session oracle call answered from the retained graph.
fn service() -> ServiceReport {
    use idar_bench::load::{self, LoadConfig, TrafficMix};
    use idar_server::{Server, ServerConfig};

    banner("Analysis service -- idar-server under seeded multi-tenant load");
    println!(
        "{:<14}{:>8}{:>8}{:>10}{:>12}{:>10}{:>10}{:>8}{:>9}",
        "mix", "sent", "ok", "retried", "rps", "p50", "p99", "shed", "gh-rate"
    );
    let mut rows = Vec::new();
    let mut gate_violation = None;
    for mix in [
        TrafficMix::Interactive,
        TrafficMix::Analysis,
        TrafficMix::EditBurst,
    ] {
        let handle = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server start");
        let (users, requests_per_user) = if mix == TrafficMix::EditBurst {
            (6, 20)
        } else {
            (12, 10)
        };
        let cfg = LoadConfig {
            addr: handle.addr(),
            seed: 7,
            tenants: 4,
            users,
            requests_per_user,
            mix,
            zipf_s: 1.0,
            clients: 4,
            max_retries: 8,
        };
        let report = load::run(&cfg);
        let cache_hit_rate = handle.cache().stats().hit_rate();
        let finals = handle.shutdown();
        let row = ServiceRow {
            mix: mix.name().to_string(),
            sent: report.sent,
            ok: report.ok,
            retried_429: report.retried_429,
            errors: report.errors,
            throughput_rps: report.throughput_rps(),
            p50_ms: report.percentile_ms(50.0),
            p99_ms: report.percentile_ms(99.0),
            accepted: finals.accepted,
            completed: finals.completed,
            shed: finals.shed,
            cache_hit_rate,
            graph_hit_rate: finals.graph_hit_rate(),
        };
        println!(
            "{:<14}{:>8}{:>8}{:>10}{:>12}{:>10}{:>10}{:>8}{:>9}",
            row.mix,
            row.sent,
            row.ok,
            row.retried_429,
            format!("{:.0}/s", row.throughput_rps),
            format!("{:.1}ms", row.p50_ms),
            format!("{:.1}ms", row.p99_ms),
            row.shed,
            format!("{:.2}", row.graph_hit_rate),
        );
        if row.errors > 0 && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{} mix: {} request(s) failed (non-2xx/429)",
                row.mix, row.errors
            ));
        }
        if row.accepted != row.completed && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{} mix: drain violated — accepted {} but completed {}",
                row.mix, row.accepted, row.completed
            ));
        }
        if row.p99_ms > 250.0 && gate_violation.is_none() {
            gate_violation = Some(format!(
                "{} mix: p99 {:.1} ms exceeds the 250 ms bound",
                row.mix, row.p99_ms
            ));
        }
        if mix == TrafficMix::EditBurst
            && finals.graph_hits + finals.frontier_extends == 0
            && gate_violation.is_none()
        {
            gate_violation = Some(format!(
                "{} mix: sessions never engaged the retained graph \
                 ({} oracle calls, all cold)",
                row.mix, finals.cold_solves
            ));
        }
        rows.push(row);
    }
    println!("(gates: zero errors, accepted == completed, p99 <= 250 ms per mix,");
    println!("and >= 1 warm-path session answer under edit-burst)");
    ServiceReport {
        rows,
        gate_violation,
    }
}

/// One run row of the `capacity` section.
struct CapacityRow {
    workload: String,
    /// `flat` (in-RAM store), `budgeted` (capacity engine under the
    /// arena budget), or `frontier_only` (capacity engine dropping
    /// closed layers).
    mode: &'static str,
    states: usize,
    closed: bool,
    wall_ms: f64,
    states_per_sec: f64,
    /// Net allocation high-water mark of the run (counting allocator).
    alloc_peak_bytes: usize,
    /// Spill-store counters; `None` for flat runs.
    spill: Option<idar_solver::SpillReport>,
}

/// The `capacity` report: the out-of-core state store at sizes past the
/// flat store's bench ceiling. Written to `BENCH_11.json`.
struct CapacityReport {
    budget_bytes: usize,
    rows: Vec<CapacityRow>,
    /// A violated capacity gate, reported *after* the JSON is written so
    /// the regression that tripped it is still archived.
    gate_violation: Option<String>,
}

impl CapacityReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("budget_bytes", Json::Int(self.budget_bytes as u64)),
            (
                "runs",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let mut pairs = vec![
                                ("workload".to_string(), Json::Str(r.workload.clone())),
                                ("mode".to_string(), Json::Str(r.mode.into())),
                                ("states".to_string(), Json::Int(r.states as u64)),
                                ("closed".to_string(), Json::Bool(r.closed)),
                                ("wall_ms".to_string(), Json::Num(r.wall_ms)),
                                ("states_per_sec".to_string(), Json::Num(r.states_per_sec)),
                                (
                                    "alloc_peak_bytes".to_string(),
                                    Json::Int(r.alloc_peak_bytes as u64),
                                ),
                            ];
                            if let Some(s) = &r.spill {
                                pairs.push(("word_bytes".to_string(), Json::Int(s.word_bytes)));
                                pairs.push((
                                    "encoded_bytes".to_string(),
                                    Json::Int(s.encoded_bytes),
                                ));
                                pairs.push(("checkpoints".to_string(), Json::Int(s.checkpoints)));
                                pairs.push((
                                    "spilled_pages".to_string(),
                                    Json::Int(s.spilled_pages),
                                ));
                                pairs.push((
                                    "spilled_bytes".to_string(),
                                    Json::Int(s.spilled_bytes),
                                ));
                                pairs.push(("faults".to_string(), Json::Int(s.faults)));
                                pairs.push((
                                    "arena_peak_bytes".to_string(),
                                    Json::Int(s.arena_peak_bytes),
                                ));
                                pairs.push((
                                    "frontier_only".to_string(),
                                    Json::Bool(s.frontier_only),
                                ));
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The out-of-core state store: delta-compressed records, the paged
/// spill arena, and frontier-only mode, at sizes past the flat store's
/// former n16/65k bench ceiling.
///
/// Three sub-experiments, all full-space enumerations (`goal` never
/// true, so the search closes and `SearchStats` are comparable):
///
/// 1. `subset_lattice(18)` flat vs budgeted — the **gated** comparison:
///    identical `SearchStats`, budgeted allocator peak ≤ 50% of flat,
///    budgeted states/sec within 2× of flat.
/// 2. `subset_lattice(20)` budgeted only — 1 048 576 states, 16× the old
///    ceiling; gated on closing under the budget (the flat run at this
///    size is exactly the footprint the hierarchy exists to avoid).
/// 3. `two_counter_monotone(9)` frontier-only — a deletion-free 4⁹-state
///    blow-up where closed layers are dropped entirely; gated on closing
///    with zero retained record bytes.
///
/// Memory is measured through the process-wide counting allocator
/// (resettable peak; `VmHWM` is monotone and lands in the `sections`
/// array instead), as a *net* high-water mark per run.
fn capacity(budget_bytes: usize) -> CapacityReport {
    use idar_solver::MemoryBudget;

    banner("Capacity -- out-of-core delta-compressed state store");
    println!("arena budget: {} KiB", budget_bytes / 1024);
    println!(
        "{:<26}{:>14}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "workload", "mode", "states", "time", "st/s", "alloc-peak", "spilled"
    );
    let limits = ExploreLimits {
        max_states: 1 << 21,
        ..ExploreLimits::default()
    };
    let mut rows: Vec<CapacityRow> = Vec::new();
    let mut gate_violation: Option<String> = None;

    let mut push_row = |row: CapacityRow| {
        println!(
            "{:<26}{:>14}{:>10}{:>12}{:>12}{:>12}{:>10}",
            row.workload,
            row.mode,
            row.states,
            format!("{:.0}ms", row.wall_ms),
            format!("{:.0}k/s", row.states_per_sec / 1e3),
            format!("{}MB", row.alloc_peak_bytes >> 20),
            row.spill
                .as_ref()
                .map_or("-".to_string(), |s| format!("{}p", s.spilled_pages)),
        );
        rows.push(row);
    };

    // --- (1) flat vs budgeted at the largest in-RAM-comfortable size ----
    let w18 = workloads::subset_lattice(18);
    let flat_explorer = Explorer::new(&w18.form, limits);
    let base = peak_alloc::reset_peak();
    let t = Instant::now();
    let flat = flat_explorer.find(|_| false);
    let flat_ms = t.elapsed().as_secs_f64() * 1e3;
    let flat_peak = peak_alloc::peak() - base;
    assert!(flat.stats.closed, "subset_lattice(18) must close flat");
    assert_eq!(flat.stats.states, 1 << 18);
    let flat_sps = flat.stats.states as f64 / (flat_ms / 1e3).max(1e-9);
    push_row(CapacityRow {
        workload: w18.name.clone(),
        mode: "flat",
        states: flat.stats.states,
        closed: flat.stats.closed,
        wall_ms: flat_ms,
        states_per_sec: flat_sps,
        alloc_peak_bytes: flat_peak,
        spill: None,
    });

    let budgeted_explorer =
        Explorer::new(&w18.form, limits).with_memory_budget(MemoryBudget::bytes(budget_bytes));
    let base = peak_alloc::reset_peak();
    let t = Instant::now();
    let (budgeted, spill18) = budgeted_explorer.find_spilled(|_| false);
    let budgeted_ms = t.elapsed().as_secs_f64() * 1e3;
    let budgeted_peak = peak_alloc::peak() - base;
    assert_eq!(
        budgeted.stats, flat.stats,
        "budgeted and flat runs must visit the same space"
    );
    assert!(
        spill18.encoded_bytes < spill18.word_bytes,
        "delta encoding must compress the canonical words \
         (encoded {} vs raw {})",
        spill18.encoded_bytes,
        spill18.word_bytes
    );
    let budgeted_sps = budgeted.stats.states as f64 / (budgeted_ms / 1e3).max(1e-9);
    if budgeted_peak * 2 > flat_peak && gate_violation.is_none() {
        gate_violation = Some(format!(
            "{}: budgeted allocator peak must be <= 50% of flat \
             (budgeted {} vs flat {} bytes)",
            w18.name, budgeted_peak, flat_peak
        ));
    }
    if budgeted_sps * 2.0 < flat_sps && gate_violation.is_none() {
        gate_violation = Some(format!(
            "{}: budgeted throughput must be within 2x of flat \
             (budgeted {budgeted_sps:.0} vs flat {flat_sps:.0} states/sec)",
            w18.name
        ));
    }
    push_row(CapacityRow {
        workload: w18.name,
        mode: "budgeted",
        states: budgeted.stats.states,
        closed: budgeted.stats.closed,
        wall_ms: budgeted_ms,
        states_per_sec: budgeted_sps,
        alloc_peak_bytes: budgeted_peak,
        spill: Some(spill18),
    });

    // --- (2) past the flat ceiling: 2^20 states under the same budget ---
    let w20 = workloads::subset_lattice(20);
    let explorer =
        Explorer::new(&w20.form, limits).with_memory_budget(MemoryBudget::bytes(budget_bytes));
    let base = peak_alloc::reset_peak();
    let t = Instant::now();
    let (big, spill20) = explorer.find_spilled(|_| false);
    let big_ms = t.elapsed().as_secs_f64() * 1e3;
    let big_peak = peak_alloc::peak() - base;
    if !(big.stats.closed && big.stats.states == 1 << 20) && gate_violation.is_none() {
        gate_violation = Some(format!(
            "{}: must close all 2^20 states under the budget \
             (closed {}, states {})",
            w20.name, big.stats.closed, big.stats.states
        ));
    }
    if spill20.spilled_pages == 0 && gate_violation.is_none() {
        gate_violation = Some(format!(
            "{}: the pager never engaged ({} encoded bytes fit the \
             {budget_bytes}-byte budget?)",
            w20.name, spill20.encoded_bytes
        ));
    }
    push_row(CapacityRow {
        workload: w20.name,
        mode: "budgeted",
        states: big.stats.states,
        closed: big.stats.closed,
        wall_ms: big_ms,
        states_per_sec: big.stats.states as f64 / (big_ms / 1e3).max(1e-9),
        alloc_peak_bytes: big_peak,
        spill: Some(spill20),
    });

    // --- (3) deletion-free blow-up in frontier-only mode ----------------
    let wtc = workloads::two_counter_monotone(9);
    let explorer =
        Explorer::new(&wtc.form, limits).with_memory_budget(MemoryBudget::bytes(budget_bytes));
    let base = peak_alloc::reset_peak();
    let t = Instant::now();
    let (fo, spill_fo) = explorer.find_frontier_only(|_| false);
    let fo_ms = t.elapsed().as_secs_f64() * 1e3;
    let fo_peak = peak_alloc::peak() - base;
    if !(fo.stats.closed && fo.stats.states == 1 << 18) && gate_violation.is_none() {
        gate_violation = Some(format!(
            "{}: frontier-only must close all 4^9 states \
             (closed {}, states {})",
            wtc.name, fo.stats.closed, fo.stats.states
        ));
    }
    assert_eq!(
        spill_fo.encoded_bytes, 0,
        "frontier-only mode must retain no record bytes"
    );
    push_row(CapacityRow {
        workload: wtc.name,
        mode: "frontier_only",
        states: fo.stats.states,
        closed: fo.stats.closed,
        wall_ms: fo_ms,
        states_per_sec: fo.stats.states as f64 / (fo_ms / 1e3).max(1e-9),
        alloc_peak_bytes: fo_peak,
        spill: Some(spill_fo),
    });

    println!("(gates: budgeted subset_lattice(18) closes with identical SearchStats,");
    println!("allocator peak <= 50% of flat and throughput within 2x; 2^20 and the");
    println!("deletion-free 4^9 blow-up close under the same budget)");
    CapacityReport {
        budget_bytes,
        rows,
        gate_violation,
    }
}
