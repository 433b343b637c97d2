//! Regenerate every table and figure of the paper and print
//! paper-vs-measured evidence.
//!
//! The paper is a theory paper, so this transcript is its
//! reproduction: the Table 1 complexity matrix, one section per Table 1
//! cell family (Thm 5.5, Thm 5.1/5.2, Thm 4.6, Thm 4.1, Thm 5.6,
//! Thm 5.3, Cor. 4.7), Cor. 4.5 satisfiability, Figures 1–3, the
//! Example 3.12 / Sec. 3.5 running example and the Cor. 4.2 / Sec. 4.2
//! transformations. Every section asserts its verdicts against an
//! independent baseline, so the binary exits non-zero on any
//! disagreement. The timing columns are informational only; the
//! repository's benchmark is `perfbench/` (see `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release -p idar-bench --bin reproduce
//! ```

#![forbid(unsafe_code)]

use idar_bench::workloads;
use idar_core::{bisim, fragment, leave, Instance, Schema};
use idar_logic::qbf::Qbf;
use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
use idar_solver::{completability, CompletabilityOptions, ExploreLimits, Verdict};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    banner("Table 1 (paper): complexity matrix");
    print!("{}", fragment::render_table1());

    table1_completability_positive();
    table1_completability_np();
    table1_completability_depth1();
    table1_undecidable();
    table1_semisoundness_conp();
    table1_semisoundness_qsat();
    table1_semisoundness_depth1();
    corollary_4_5_satisfiability();
    figures();
    running_example();
    transformations();

    println!("All experiments completed.");
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
