//! Workspace-level differential suite for the scenario corpus: verdicts
//! on scenario forms must be invariant under every engine configuration
//! the pipeline exposes — the flat vs the out-of-core state store (for
//! completability's goal search), `SymmetryMode::{Reduced, Plain}`, and
//! cold vs cached
//! `AnalysisRequest` paths — and the six named scenarios carry golden
//! verdict pins re-checked on every run.

use idar::gen::constraints::{check_run, constrained_completable};
use idar::gen::scenario::named_scenarios;
use idar::gen::ScenarioAxis;
use idar::solver::{
    analyze, analyze_with, reference, AnalysisKind, AnalysisRequest, Budget, ExploreLimits,
    Explorer, MemoryBudget, SymmetryMode, Verdict, VerdictCache,
};
use idar::workflow::runs::{enumerate_complete_runs, EnumerateOptions};

fn scenario_limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 120_000,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    }
}

fn budget(symmetry: SymmetryMode) -> Budget {
    Budget {
        symmetry,
        ..Budget::with_limits(scenario_limits())
    }
}

/// The completability goal search on the flat store, on the out-of-core
/// store under a small spill budget, and in the reference explorer:
/// bit-identical `SearchStats` and equal goal depth, in both symmetry
/// modes.
fn engines_match_oracle(form: &idar::core::GuardedForm, name: &str) {
    let limits = scenario_limits();
    let goal = |i: &idar::core::Instance| form.is_complete(i);
    for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
        let explorer = Explorer::new(form, limits).with_symmetry(symmetry);
        let flat = explorer.find(goal);
        let (spilled, _) = explorer
            .with_memory_budget(MemoryBudget::bytes(4096))
            .find_spilled(goal);
        let oracle = reference::explore(form, &limits, symmetry, goal);
        for (engine, out) in [("flat", &flat), ("spill", &spilled)] {
            assert_eq!(out.stats, oracle.stats, "{name} {symmetry} {engine}: stats");
            assert_eq!(
                out.goal_run.as_ref().map(Vec::len),
                oracle.goal_depth,
                "{name} {symmetry} {engine}: goal depth"
            );
        }
    }
}

/// Run `kind` on `form` across every engine configuration and assert
/// all verdicts agree; returns the common verdict.
fn verdict_invariant(form: &idar::core::GuardedForm, kind: AnalysisKind, name: &str) -> Verdict {
    if kind == AnalysisKind::Completability {
        engines_match_oracle(form, name);
    }
    let mut verdicts = Vec::new();
    for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
        let req = AnalysisRequest::new(form.clone(), kind).with_budget(budget(symmetry));
        let cold = analyze(&req);
        verdicts.push((format!("{symmetry:?}/cold"), cold.verdict));

        let cache = VerdictCache::new();
        let miss = analyze_with(&req, Some(&cache));
        let hit = analyze_with(&req, Some(&cache));
        assert_eq!(
            miss.cache,
            idar::solver::CacheProvenance::Miss,
            "{name}: first cached run should miss"
        );
        assert_eq!(
            hit.cache,
            idar::solver::CacheProvenance::Hit,
            "{name}: second cached run should hit"
        );
        verdicts.push((format!("{symmetry:?}/miss"), miss.verdict));
        verdicts.push((format!("{symmetry:?}/hit"), hit.verdict));
    }
    let (ref first_cfg, first) = verdicts[0];
    for (cfg, v) in &verdicts {
        assert_eq!(
            *v, first,
            "{name}/{kind}: verdict split between {first_cfg} and {cfg}"
        );
    }
    first
}

fn expect(b: bool) -> Verdict {
    if b {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

/// Golden pins: the named corpus analyses to exactly its reasoned
/// verdicts, identically under every engine configuration.
#[test]
fn named_scenarios_pin_their_verdicts_across_all_engines() {
    let named = named_scenarios();
    assert_eq!(named.len(), 6);
    let names: Vec<&str> = named.iter().map(|n| n.scenario.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "clean_chain",
            "rejection_loop",
            "sod_infeasible",
            "bod_forced",
            "delegation_cycle",
            "mixed"
        ]
    );
    for n in &named {
        let s = &n.scenario;
        let compl = verdict_invariant(&s.form, AnalysisKind::Completability, &s.name);
        assert_eq!(
            compl,
            expect(n.expected.completable),
            "{}: completability pin",
            s.name
        );
        let semi = verdict_invariant(&s.form, AnalysisKind::Semisoundness, &s.name);
        assert_eq!(
            semi,
            expect(n.expected.semisound),
            "{}: semi-soundness pin",
            s.name
        );
        // Satisfiability of the completion formula is a necessary
        // condition for completability — it must hold for every chain
        // (the completion only asks for some final-level signature).
        let sat = verdict_invariant(&s.form, AnalysisKind::Satisfiability, &s.name);
        assert_eq!(sat, Verdict::Holds, "{}: satisfiability pin", s.name);
    }
}

/// Recipe-sampled scenarios keep verdicts engine-invariant too (the
/// named corpus is hand-shaped; this covers sampled shapes).
#[test]
fn sampled_scenarios_are_engine_invariant() {
    for axis in ScenarioAxis::ALL {
        for seed in 0..4u64 {
            let spec = axis.sample(seed);
            let s = spec.build("sampled");
            let name = format!("{axis}/{seed}");
            verdict_invariant(&s.form, AnalysisKind::Completability, &name);
            verdict_invariant(&s.form, AnalysisKind::Semisoundness, &name);
        }
    }
}

/// The compiled form's complete runs all satisfy the duty constraints
/// according to the trace-level oracle, and the solver's completability
/// verdict matches the hand-rolled constrained-reachability oracle.
#[test]
fn named_scenarios_agree_with_trace_and_reachability_oracles() {
    for n in named_scenarios() {
        let s = &n.scenario;
        let oracle = constrained_completable(&s.spec, 500_000)
            .unwrap_or_else(|| panic!("{}: oracle exhausted budget", s.name));
        assert_eq!(oracle, n.expected.completable, "{}: oracle pin", s.name);

        let runs = enumerate_complete_runs(
            &s.form,
            &EnumerateOptions {
                max_runs: 8,
                max_len: 60,
                limits: scenario_limits(),
            },
        );
        assert_eq!(
            !runs.runs.is_empty(),
            n.expected.completable,
            "{}: run enumeration disagrees with pin",
            s.name
        );
        for run in &runs.runs {
            assert!(s.form.is_complete_run(run), "{}: broken run", s.name);
            assert!(
                check_run(&s.form, &s.layout, &s.spec.constraints, run).is_ok(),
                "{}: compiled form admitted a duty-violating run",
                s.name
            );
        }
    }
}

/// Deep clean chains stay decidable and completable well past the
/// BENCH scaling range — the depth-12 acceptance point of the corpus.
#[test]
fn deep_chains_complete_up_to_depth_twelve() {
    use idar::gen::{ChainSpec, ScenarioSpec};
    for depth in [4usize, 8, 12] {
        let s = ScenarioSpec::unconstrained(ChainSpec::simple(depth, 2, 3)).build("deep");
        let req = AnalysisRequest::completability(s.form.clone())
            .with_budget(budget(SymmetryMode::Reduced));
        let report = analyze(&req);
        assert_eq!(report.verdict, Verdict::Holds, "depth {depth}");
        let run = report.run.expect("witness run");
        assert!(s.form.is_complete_run(&run));
        // Witness length: one submission plus one signature per level.
        assert_eq!(run.len(), depth + 1, "depth {depth}");
    }
}

/// Static-screener pins for the named corpus, next to the verdict pins
/// above: the screener must decide exactly the reasoned cases, with
/// zero states explored, and flag the reasoned rules dead.
#[test]
fn named_scenarios_screen_pins() {
    use idar::core::Right;
    use idar::solver::{screen, Method, ScreenOutcome};

    let named = named_scenarios();
    let get = |name: &str| {
        &named
            .iter()
            .find(|n| n.scenario.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the corpus"))
            .scenario
    };

    // sod_infeasible: one user across two SoD-separated levels — the
    // level-2 signature guard is propositionally unsatisfiable, so the
    // completion's `done(2)` falls outside the may-set. Refuted
    // statically, for both problems, with zero states explored.
    let sod = get("sod_infeasible");
    let r = screen(&sod.form);
    assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
    assert_eq!(r.semisoundness.verdict(), Some(Verdict::Fails));
    assert_eq!(r.stats.chase_steps, 0, "refutation must not build states");
    let report = analyze(
        &AnalysisRequest::completability(sod.form.clone())
            .with_budget(budget(SymmetryMode::Reduced)),
    );
    assert_eq!(report.verdict, Verdict::Fails);
    assert_eq!(report.method, Method::StaticScreen);
    assert_eq!(report.stats.states, 0, "StaticNo explores zero states");

    // clean_chain: deletion-free; the greedy chase threads the chain and
    // certifies completability with a replayable witness run.
    let clean = get("clean_chain");
    assert!(clean.form.is_deletion_free());
    let r = screen(&clean.form);
    let ScreenOutcome::Decided(v, Some(run)) = &r.completability else {
        panic!("clean_chain: expected a decided outcome with a witness");
    };
    assert_eq!(*v, Verdict::Holds);
    assert!(clean.form.is_complete_run(run));
    assert!(r.dead_rules.is_empty(), "clean_chain has no dead rules");
    let report = analyze(
        &AnalysisRequest::completability(clean.form.clone())
            .with_budget(budget(SymmetryMode::Reduced)),
    );
    assert_eq!(report.method, Method::StaticScreen);
    assert_eq!(report.stats.states, 0);

    // delegation_cycle: the two delegation edges each require the other
    // to fire first — both are dead, and with them the level-2
    // signature rules they would have enabled.
    let cyc = get("delegation_cycle");
    let r = screen(&cyc.form);
    assert_eq!(r.completability.verdict(), Some(Verdict::Fails));
    let schema = cyc.form.schema();
    let dead_edges: Vec<String> = r
        .dead_rules
        .iter()
        .filter(|d| d.right == Right::Add)
        .map(|d| schema.label(d.edge).to_string())
        .collect();
    let delegation_edges: Vec<&str> = dead_edges
        .iter()
        .map(String::as_str)
        .filter(|l| l.starts_with("d2_"))
        .collect();
    assert_eq!(
        delegation_edges.len(),
        2,
        "both cyclic delegation rules must be flagged dead (got {dead_edges:?})"
    );
    for d in &r.dead_rules {
        // Dead rules are sound: exploring with them pruned must not
        // change a single allowed update anywhere reachable. Spot-check
        // the initial instance.
        let pruned = idar::solver::prune(&cyc.form, std::slice::from_ref(d));
        assert_eq!(
            cyc.form.allowed_updates(cyc.form.initial()),
            pruned.allowed_updates(pruned.initial())
        );
    }
}
