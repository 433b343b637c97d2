//! Differential fuzzer over seed-generated guarded forms.
//!
//! Per case, a form is generated by `idar-gen` inside one of the paper's
//! fragments and cross-checked along eight axes:
//!
//! * **(a) engines** — the BFS engine against the naive reference
//!   explorer (`idar_solver::reference`), in both symmetry modes:
//!   bit-identical `SearchStats` and edge counts for the exhaustive
//!   search, a depth-limited run exercising the frontier exhaustiveness
//!   probe, and the completion goal search, plus equal BFS goal depth —
//!   the goal search also resumed from the root of a graph truncated at
//!   half the exhaustive state count;
//! * **(e) symmetry** — symmetry-reduced exploration (canonical
//!   isomorphism quotient, the default) against plain ordered-tree
//!   exploration: the reduced space can never exceed the plain one, and
//!   goal existence / closed-space verdicts must agree;
//! * **(f) cache** — cold `AnalysisRequest` runs against cached re-runs
//!   through a shared `VerdictCache`: verdict-for-verdict agreement for
//!   every analysis kind, plus hit provenance on the repeat;
//! * **(h) capacity** — the record store's spilled tier (delta-encoded
//!   state records under a 4 KiB spill budget, see `idar_solver::spill`)
//!   against its in-RAM tier: identical `SearchStats`,
//!   goal existence and BFS goal depth, and the spilled witness run must
//!   replay;
//! * **(b) reductions** — deletion-elimination (Cor. 4.2) and the
//!   reset/build completability→semi-soundness reduction (Cor. 4.7)
//!   against direct solving, plus the Thm 5.1 / Thm 5.6 / Cor. 4.5 SAT
//!   families against the selected SAT baseline (`--engine`), plus the
//!   canonical `.ron` serialization round-trip;
//! * **(c) witnesses** — replay of every witness run / counterexample
//!   through `GuardedForm::replay` and the `idar-workflow` layer
//!   (reachability-graph consistency, complete-run enumeration);
//! * **(i) static** — the pre-exploration static screener
//!   (`idar_solver::screen`) against the screen-bypassed pipeline: every
//!   conclusive screen verdict must match the exploration verdict
//!   (`Unknown` at a limit is compatible), the greedy-chase witness must
//!   replay, and pruning the screener's dead rules must be invisible —
//!   bit-identical verdict *and* `SearchStats` under a forced bounded
//!   exploration, and semi-soundness through the normal dispatch that
//!   keeps every decided verdict (an `Unknown` may become decided);
//! * **(d) sat-engines** — the cdcl-vs-dpll differential oracle: on
//!   seeded chain / pigeonhole / random-3CNF families the two SAT
//!   engines must agree on every verdict, every returned model must
//!   satisfy its CNF, small instances are pinned to brute force, and the
//!   DIMACS round-trip is the identity.
//!
//! A second case stream draws **scenario** cases (approval chains with
//! delegation, rejection loops and SoD/BoD duties, sampled from the
//! `idar_gen::scenario` recipes) per [`ScenarioAxis`]:
//!
//! * **(g) scenario differential** — the solver's completability verdict
//!   on the *compiled-guards* form against a hand-rolled
//!   constrained-reachability oracle that never evaluates a compiled
//!   duty guard; witness runs and enumerated complete runs are
//!   re-checked by the trace-level duty checker; the built form must be
//!   admitted by its declared fragment. Scenario forms additionally run
//!   through the engine/symmetry/cache/workflow axes above, so approval
//!   chains exercise every analysis kind engine-vs-oracle and cached-vs-cold;
//! * **(g, incremental) incremental-vs-cold** — a random edit sequence
//!   driven through two `FormManager`s on the same form, one answering
//!   from its retained `StateGraph` (graph hits + frontier
//!   extensions), one forced cold (`max_retained_states = 0`): at every
//!   step the per-update vet verdicts and the whole safe-update set must
//!   agree, and the reported divergence carries the minimal edit prefix
//!   that produced it (the walk checks after every edit, so the first
//!   divergent step is the shortest reproducing prefix for that seed).
//!   Failing cases additionally shrink at the spec level.
//!
//! A third case stream, selected only by `--scenario surface`, feeds
//! **surface** cases through the service's request path:
//!
//! * **(j) surface** — formula text as a client could send it (operator
//!   chains, filter chains, `!`/group nests and `<->` nests of random
//!   sizes up to the 1 MiB body limit, and byte mutations of valid
//!   formulas) is put into a RON form as its completion and one guard,
//!   parsed with `from_ron` and analyzed for every kind under the
//!   server's default budget, on a thread with the server workers' 8 MiB
//!   stack. The only property: every call returns, `Ok` or `Err`, and
//!   none panics or overflows its stack.
//!
//! Failures are **shrunk** (size-monotone, verdict-preserving) and written
//! as self-contained `.ron` repro cases with a provenance header; re-run
//! one with `--replay <file>`. Scenario-differential failures shrink at
//! the *spec* level first (drop levels, duties, delegations, loops) and
//! carry the minimized spec in the header. The case sequence is a pure
//! function of `--seed`, so any CI failure is reproducible locally from
//! its seed (SAT-engine divergences carry the seed recipe instead of a
//! form repro — rerun with the printed `--seed`/`--cases`/`--engine`).
//!
//! ```text
//! cargo run --release -p idar-bench --bin fuzz -- --seed 0xC0FFEE --cases 200
//! cargo run --release -p idar-bench --bin fuzz -- --seed 0xC0FFEE --engine dpll
//! cargo run --release -p idar-bench --bin fuzz -- --fragment none --scenario sod --cases 200
//! cargo run --release -p idar-bench --bin fuzz -- --fragment none --scenario surface --cases 200
//! cargo run --release -p idar-bench --bin fuzz -- --replay fuzz-failures/guarded-case17-engines-....ron
//! ```

use idar_core::serialize;
use idar_core::GuardedForm;
use idar_gen::constraints::{check_run, constrained_completable};
use idar_gen::{
    generate, generate_stream, scenario_stream, FragmentSpec, GenConfig, ScenarioAxis, ScenarioSpec,
};
use idar_logic::gen::{random_3cnf_with, split_mix, Rng, XorShift};
use idar_logic::Engine;
use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
use idar_solver::{
    analyze_with, completability, AnalysisKind, AnalysisRequest, CompletabilityOptions,
    ExploreLimits, Explorer, Method, Verdict, VerdictCache,
};
use idar_workflow::manager::{FormManager, UnknownPolicy};
use idar_workflow::runs::{enumerate_complete_runs, EnumerateOptions};
use idar_workflow::WorkflowGraph;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Exploration limits shared by every differential check: small enough
/// that a case runs in milliseconds, capped so unbounded run spaces stay
/// honest (`Unknown` verdicts are compared permissively).
fn fuzz_limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 4_000,
        max_state_size: 24,
        max_depth: usize::MAX,
        multiplicity_cap: Some(2),
    }
}

struct Options {
    seed: u64,
    cases: usize,
    fragments: Vec<FragmentSpec>,
    scenarios: Vec<ScenarioAxis>,
    /// Run the surface case stream (only when named: `all` keeps meaning
    /// the scenario axes).
    surface: bool,
    out: PathBuf,
    replay: Option<PathBuf>,
    verbose: bool,
    /// SAT baseline used by the reduction round-trips (the cdcl-vs-dpll
    /// differential oracle always runs both).
    engine: Engine,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--cases N] [--fragment positive|guarded|depth1|deletion-free|all|none]\n\
         \x20           [--scenario approval|sod|bod|recipe|surface|all|none]\n\
         \x20           [--engine cdcl|dpll|brute_force] [--out DIR] [--verbose]\n\
         \x20      fuzz --replay FILE.ron"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xC0FFEE,
        cases: 200,
        fragments: FragmentSpec::ALL.to_vec(),
        scenarios: ScenarioAxis::ALL.to_vec(),
        surface: false,
        out: PathBuf::from("fuzz-failures"),
        replay: None,
        verbose: false,
        engine: Engine::default(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--seed" => opts.seed = parse_u64(&take(&mut i)).unwrap_or_else(|| usage()),
            "--cases" => opts.cases = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fragment" => {
                let v = take(&mut i);
                opts.fragments = match v.as_str() {
                    "all" => FragmentSpec::ALL.to_vec(),
                    "none" => Vec::new(),
                    _ => vec![FragmentSpec::from_name(&v).unwrap_or_else(|| usage())],
                };
            }
            "--scenario" => {
                let v = take(&mut i);
                opts.scenarios = match v.as_str() {
                    "all" => ScenarioAxis::ALL.to_vec(),
                    "none" => Vec::new(),
                    "surface" => {
                        opts.surface = true;
                        Vec::new()
                    }
                    _ => vec![ScenarioAxis::from_name(&v).unwrap_or_else(|| usage())],
                };
            }
            "--engine" => opts.engine = Engine::from_name(&take(&mut i)).unwrap_or_else(|| usage()),
            "--out" => opts.out = PathBuf::from(take(&mut i)),
            "--replay" => opts.replay = Some(PathBuf::from(take(&mut i))),
            "--verbose" => opts.verbose = true,
            _ => usage(),
        }
        i += 1;
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();

    if let Some(path) = &opts.replay {
        return replay(path);
    }

    let mut failures = 0usize;
    let mut total = 0usize;
    for &fragment in &opts.fragments {
        let cfg = GenConfig::new(fragment);
        let seeds = generate_stream(&cfg, opts.seed, opts.cases);
        let mut frag_failures = 0usize;
        for (k, &case_seed) in seeds.iter().enumerate() {
            total += 1;
            let form = generate(&cfg, case_seed);
            let mut case_rng = XorShift::new(split_mix(case_seed ^ 0x5A17));
            if opts.verbose {
                println!(
                    "[{fragment} case {k}] seed 0x{case_seed:016x}: schema {} edges, depth {}",
                    form.schema().edge_count(),
                    form.schema().depth()
                );
            }
            let mut fail = |check: &'static str, err: String, shrunk: Option<GuardedForm>| {
                frag_failures += 1;
                let ctx = CaseCtx {
                    family: fragment.name().to_string(),
                    case: k,
                    case_seed,
                    check,
                    detail: None,
                    replay_recipe: format!(
                        "--fragment {fragment} --scenario none --cases {}",
                        k + 1
                    ),
                };
                report_failure(&opts, &ctx, &err, shrunk);
            };
            if let Err(e) = check_engines(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_engines(f).is_err());
                fail("engines", e, Some(shrunk));
            }
            if let Err(e) = check_capacity(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_capacity(f).is_err());
                fail("capacity", e, Some(shrunk));
            }
            if let Err(e) = check_symmetry(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_symmetry(f).is_err());
                fail("symmetry", e, Some(shrunk));
            }
            if let Err(e) = check_cache(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_cache(f).is_err());
                fail("cache", e, Some(shrunk));
            }
            if let Err(e) = check_workflow(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_workflow(f).is_err());
                fail("workflow", e, Some(shrunk));
            }
            if let Err(e) = check_form_reductions(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_form_reductions(f).is_err());
                fail("reductions", e, Some(shrunk));
            }
            if let Err(e) = check_static(&form) {
                let shrunk = idar_gen::shrink(&form, |f| check_static(f).is_err());
                fail("static", e, Some(shrunk));
            }
            if let Err(e) = check_logic_families(&mut case_rng, opts.engine) {
                fail("logic-families", e, None);
            }
            if let Err(e) = check_sat_engines(&mut case_rng) {
                fail("sat-engines", e, None);
            }
        }
        println!(
            "fragment {fragment:<13} {} cases, {} failure(s)",
            seeds.len(),
            frag_failures
        );
        failures += frag_failures;
    }

    // (g) scenario case stream: recipe-sampled approval chains through
    // the compiled-guards vs trace-oracle differential plus the full
    // form-level axis battery.
    for &axis in &opts.scenarios {
        let seeds = scenario_stream(axis, opts.seed, opts.cases);
        let mut axis_failures = 0usize;
        for (k, &case_seed) in seeds.iter().enumerate() {
            total += 1;
            let spec = axis.sample(case_seed);
            let scenario = spec.build(axis.name());
            if opts.verbose {
                println!(
                    "[scenario {axis} case {k}] seed 0x{case_seed:016x}: {}",
                    spec.summary()
                );
            }
            let mut fail = |check: &'static str,
                            err: String,
                            detail: Option<String>,
                            shrunk: Option<GuardedForm>| {
                axis_failures += 1;
                let ctx = CaseCtx {
                    family: format!("scenario-{axis}"),
                    case: k,
                    case_seed,
                    check,
                    detail,
                    replay_recipe: format!("--fragment none --scenario {axis} --cases {}", k + 1),
                };
                report_failure(&opts, &ctx, &err, shrunk);
            };
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_scenario(&spec);
                if opts.verbose {
                    println!("  scenario-differential: {:?}", t0.elapsed());
                }
                r
            } {
                // Shrink at the spec level: the minimized chain is the
                // real repro; its built form is written for the
                // form-level replay path.
                let small = idar_gen::shrink_scenario(&spec, |s| check_scenario(s).is_err());
                fail(
                    "scenario-differential",
                    e,
                    Some(small.summary()),
                    Some(small.build("shrunk").form),
                );
            }
            let form = &scenario.form;
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_engines(form);
                if opts.verbose {
                    println!("  engines: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_engines(f).is_err());
                fail("engines", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_capacity(form);
                if opts.verbose {
                    println!("  capacity: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_capacity(f).is_err());
                fail("capacity", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_symmetry(form);
                if opts.verbose {
                    println!("  symmetry: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_symmetry(f).is_err());
                fail("symmetry", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_cache(form);
                if opts.verbose {
                    println!("  cache: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_cache(f).is_err());
                fail("cache", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_workflow(form);
                if opts.verbose {
                    println!("  workflow: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_workflow(f).is_err());
                fail("workflow", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_static(form);
                if opts.verbose {
                    println!("  static: {:?}", t0.elapsed());
                }
                r
            } {
                let shrunk = idar_gen::shrink(form, |f| check_static(f).is_err());
                fail("static", e, None, Some(shrunk));
            }
            if let Err(e) = {
                let t0 = std::time::Instant::now();
                let r = check_incremental(form, case_seed);
                if opts.verbose {
                    println!("  incremental: {:?}", t0.elapsed());
                }
                r
            } {
                // Shrink at the spec level (the walk is deterministic in
                // the case seed, so the predicate stays reproducible).
                let small = idar_gen::shrink_scenario(&spec, |s| {
                    check_incremental(&s.build("shrunk").form, case_seed).is_err()
                });
                fail(
                    "incremental",
                    e,
                    Some(small.summary()),
                    Some(small.build("shrunk").form),
                );
            }
        }
        println!(
            "scenario {axis:<13} {} cases, {} failure(s)",
            seeds.len(),
            axis_failures
        );
        failures += axis_failures;
    }

    // (j) surface case stream: hostile formula text through the service's
    // parse-and-analyze path.
    if opts.surface {
        let mut surface_failures = 0usize;
        for k in 0..opts.cases {
            total += 1;
            // "SRFACE" separates this stream from the fragment and scenario ones.
            let case_seed = split_mix(opts.seed ^ split_mix(0x5352_4641_4345 + k as u64));
            let text = surface_text(&mut XorShift::new(case_seed));
            if opts.verbose {
                println!(
                    "[surface case {k}] seed 0x{case_seed:016x}: {} bytes",
                    text.len()
                );
            }
            if let Err(e) = check_surface(&text) {
                surface_failures += 1;
                let head: String = text.chars().take(120).collect();
                println!(
                    "FAIL surface case {k} (seed 0x{case_seed:016x}, {} bytes `{head}`): {e}\n  \
                     reproduce with: cargo run --release -p idar-bench --bin fuzz -- \
                     --seed 0x{:x} --fragment none --scenario surface --cases {}",
                    text.len(),
                    opts.seed,
                    k + 1
                );
            }
        }
        println!(
            "surface       {} cases, {} failure(s)",
            opts.cases, surface_failures
        );
        failures += surface_failures;
    }

    println!(
        "fuzz: {total} cases, {failures} failure(s) (seed 0x{:x})",
        opts.seed
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-run every form-level check on a written repro case.
fn replay(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let form = match serialize::from_ron(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut bad = false;
    for (name, result) in [
        ("engines", check_engines(&form)),
        ("capacity", check_capacity(&form)),
        ("symmetry", check_symmetry(&form)),
        ("cache", check_cache(&form)),
        ("workflow", check_workflow(&form)),
        ("reductions", check_form_reductions(&form)),
        ("static", check_static(&form)),
    ] {
        match result {
            Ok(()) => println!("{name:<12} ok"),
            Err(e) => {
                bad = true;
                println!("{name:<12} FAIL: {e}");
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Provenance of one failing case, threaded into the repro header.
struct CaseCtx {
    /// Case-stream family: a fragment name or `scenario-<axis>`.
    family: String,
    case: usize,
    case_seed: u64,
    check: &'static str,
    /// Extra provenance (minimized scenario-spec summary).
    detail: Option<String>,
    /// CLI flags that re-run exactly this case stream up to this case.
    replay_recipe: String,
}

fn report_failure(opts: &Options, ctx: &CaseCtx, err: &str, shrunk: Option<GuardedForm>) {
    let CaseCtx {
        family,
        case,
        case_seed,
        check,
        detail,
        replay_recipe,
    } = ctx;
    eprintln!("FAIL [{family} case {case} seed 0x{case_seed:016x}] {check}: {err}");
    if let Some(d) = detail {
        eprintln!("  minimized spec: {d}");
    }
    // Checks that are not a property of the generated form (the SAT/QBF
    // family roundtrips) have no form repro; the seed recipe is the repro.
    let Some(minimized) = shrunk else {
        eprintln!(
            "  reproduce with: cargo run --release -p idar-bench --bin fuzz -- \
             --seed 0x{:x} {replay_recipe}",
            opts.seed
        );
        return;
    };
    let _ = std::fs::create_dir_all(&opts.out);
    let file = opts.out.join(format!(
        "{family}-case{case}-{check}-seed{case_seed:016x}.ron"
    ));
    let detail_line = detail
        .as_ref()
        .map(|d| format!("// spec: {d}\n"))
        .unwrap_or_default();
    let header = format!(
        "// idar differential-fuzz repro\n\
         // check: {check}\n\
         // master-seed: 0x{master:x}  family: {family}  case: {case}  case-seed: 0x{case_seed:016x}\n\
         {detail_line}\
         // error: {err_one_line}\n\
         // regenerate: cargo run --release -p idar-bench --bin fuzz -- --seed 0x{master:x} {replay_recipe}\n\
         // replay: cargo run --release -p idar-bench --bin fuzz -- --replay {path}\n",
        master = opts.seed,
        err_one_line = err.replace('\n', " | "),
        path = file.display(),
    );
    let body = serialize::to_ron(&minimized);
    if let Err(e) = std::fs::write(&file, format!("{header}{body}")) {
        eprintln!("  (could not write repro {}: {e})", file.display());
    } else {
        eprintln!("  minimized repro written to {}", file.display());
    }
}

// ---------------------------------------------------------------------------
// (a) engine differential
// ---------------------------------------------------------------------------

/// The engine against the naive reference explorer
/// ([`idar_solver::reference`]) in both symmetry modes: bit-identical
/// `SearchStats` for the exhaustive search (`Explorer::graph`), for a
/// depth-limited one that exercises the frontier exhaustiveness probe,
/// and for the completion goal search, whose BFS goal depth must also
/// agree and whose witness run must replay to a complete state.
fn check_engines(form: &GuardedForm) -> Result<(), String> {
    use idar_solver::{reference, StateId, SymmetryMode};
    let limits = fuzz_limits();
    let shallow = ExploreLimits {
        max_depth: 3,
        ..limits
    };
    for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
        let mut half = limits;
        for (what, lim) in [("exhaustive", limits), ("depth-limited", shallow)] {
            let graph = Explorer::new(form, lim).with_symmetry(symmetry).graph();
            if lim == limits {
                half.max_states = (graph.state_count() / 2).max(1);
            }
            let oracle = reference::explore(form, &lim, symmetry, |_| false);
            if graph.build_stats() != oracle.stats {
                return Err(format!(
                    "{symmetry} {what} stats differ: engine {:?} vs oracle {:?}",
                    graph.build_stats(),
                    oracle.stats
                ));
            }
            if graph.edge_count() != oracle.edges {
                return Err(format!(
                    "{symmetry} {what} edge counts differ: engine {} vs oracle {}",
                    graph.edge_count(),
                    oracle.edges
                ));
            }
        }
        let found = Explorer::new(form, limits)
            .with_symmetry(symmetry)
            .find(|i| form.is_complete(i));
        let oracle = reference::explore(form, &limits, symmetry, |i| form.is_complete(i));
        if found.stats != oracle.stats {
            return Err(format!(
                "{symmetry} goal-search stats differ: engine {:?} vs oracle {:?}",
                found.stats, oracle.stats
            ));
        }
        if found.goal_run.as_ref().map(Vec::len) != oracle.goal_depth {
            return Err(format!(
                "{symmetry} goal depths differ: engine {:?} vs oracle {:?}",
                found.goal_run.as_ref().map(Vec::len),
                oracle.goal_depth
            ));
        }
        if let Some(r) = &found.goal_run {
            if !form.is_complete_run(r) {
                return Err(format!(
                    "{symmetry} goal run does not replay to a complete state"
                ));
            }
        }
        let mut truncated = Explorer::new(form, half).with_symmetry(symmetry).graph();
        let resumed = Explorer::new(form, limits).with_symmetry(symmetry).resume(
            &mut truncated,
            StateId(0),
            |i| form.is_complete(i),
        );
        if resumed.stats != found.stats || resumed.stats != oracle.stats {
            return Err(format!(
                "{symmetry} resume from a graph capped at {} states: stats {:?} vs cold {:?} vs oracle {:?}",
                half.max_states, resumed.stats, found.stats, oracle.stats
            ));
        }
        let depth = resumed.goal_run.as_ref().map(Vec::len);
        if depth != oracle.goal_depth {
            return Err(format!(
                "{symmetry} resumed goal depth {depth:?} vs oracle {:?}",
                oracle.goal_depth
            ));
        }
        // Every state of the resume-grown graph must find itself.
        for i in 0..truncated.state_count() {
            let inst = truncated.state(i).clone();
            if truncated.lookup(&inst) != Some(StateId(i as u32)) {
                return Err(format!("{symmetry} resumed graph: state {i} is not found"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (h) capacity differential: budgeted spill vs in-RAM search
// ---------------------------------------------------------------------------

/// The record store's spilled tier against its in-RAM tier. A 4 KiB
/// arena budget forces page spills at fuzz sizes; the
/// budgeted search must nevertheless visit exactly the same states
/// (`SearchStats` compares field-for-field), agree on goal existence
/// and BFS goal depth, and its witness run must replay.
fn check_capacity(form: &GuardedForm) -> Result<(), String> {
    use idar_solver::MemoryBudget;
    let limits = fuzz_limits();
    let ram = Explorer::new(form, limits).find(|i| form.is_complete(i));
    let (spilled, report) = Explorer::new(form, limits)
        .with_memory_budget(MemoryBudget::bytes(4 * 1024))
        .find_spilled(|i| form.is_complete(i));
    if spilled.stats != ram.stats {
        return Err(format!(
            "budgeted stats diverge from in-RAM: {:?} vs {:?} ({report:?})",
            ram.stats, spilled.stats
        ));
    }
    match (&ram.goal_run, &spilled.goal_run) {
        (Some(a), Some(b)) => {
            if a.len() != b.len() {
                return Err(format!(
                    "goal depths differ: ram {} vs spilled {}",
                    a.len(),
                    b.len()
                ));
            }
        }
        (None, None) => {}
        (r, s) => {
            return Err(format!(
                "goal existence differs: ram {} vs spilled {}",
                r.is_some(),
                s.is_some()
            ));
        }
    }
    if let Some(r) = &spilled.goal_run {
        if !form.is_complete_run(r) {
            return Err("spilled goal run does not replay to a complete state".into());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (e) symmetry differential: reduced vs plain exploration
// ---------------------------------------------------------------------------

fn check_symmetry(form: &GuardedForm) -> Result<(), String> {
    use idar_solver::SymmetryMode;
    let limits = fuzz_limits();
    let mut reduced = Explorer::new(form, limits).graph();
    let plain = Explorer::new(form, limits)
        .with_symmetry(SymmetryMode::Plain)
        .graph();

    // The quotient can only shrink the space.
    if reduced.state_count() > plain.state_count() {
        return Err(format!(
            "reduced space larger than plain: {} vs {}",
            reduced.state_count(),
            plain.state_count()
        ));
    }
    // When both closed, the quotient must partition the plain space: every
    // plain state's class is present in the reduced store, and closed-space
    // goal verdicts coincide.
    if reduced.build_stats().closed && plain.build_stats().closed {
        for i in 0..plain.state_count() {
            if reduced.lookup(plain.state(i)).is_none() {
                return Err(format!("plain state {i} has no class in the reduced store"));
            }
        }
        let any_complete_reduced = reduced.states().iter().any(|s| form.is_complete(s));
        let any_complete_plain = plain.states().iter().any(|s| form.is_complete(s));
        if any_complete_reduced != any_complete_plain {
            return Err(format!(
                "closed-space completability differs: reduced {any_complete_reduced} vs plain {any_complete_plain}"
            ));
        }
    }

    // Goal search: when neither run hit a limit, existence and BFS depth
    // agree, and plain-mode runs replay.
    let rf = Explorer::new(form, limits).find(|i| form.is_complete(i));
    let pf = Explorer::new(form, limits)
        .with_symmetry(SymmetryMode::Plain)
        .find(|i| form.is_complete(i));
    if rf.stats.limit_hit.is_none() && pf.stats.limit_hit.is_none() {
        match (&rf.goal_run, &pf.goal_run) {
            (Some(a), Some(b)) if a.len() != b.len() => {
                return Err(format!(
                    "goal depths differ: reduced {} vs plain {}",
                    a.len(),
                    b.len()
                ));
            }
            (Some(_), None) | (None, Some(_)) => {
                return Err(format!(
                    "goal existence differs: reduced {} vs plain {}",
                    rf.goal_run.is_some(),
                    pf.goal_run.is_some()
                ));
            }
            _ => {}
        }
    }
    if let Some(run) = &pf.goal_run {
        if !form.is_complete_run(run) {
            return Err("plain-mode goal run does not replay to a complete state".into());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (f) cache differential: cold vs cached AnalysisRequest runs
// ---------------------------------------------------------------------------

fn check_cache(form: &GuardedForm) -> Result<(), String> {
    use idar_solver::{
        analyze_with, AnalysisKind, AnalysisRequest, Budget, CacheProvenance, VerdictCache,
    };
    let cache = VerdictCache::new();
    let budget = Budget::with_limits(fuzz_limits());
    for kind in [
        AnalysisKind::Completability,
        AnalysisKind::Semisoundness,
        AnalysisKind::Satisfiability,
    ] {
        // The first cached run IS the cold baseline (analyze() and a
        // cache miss share the same run_cold path; only the probe
        // differs), so two runs discriminate everything a third would.
        let request = AnalysisRequest::new(form.clone(), kind).with_budget(budget.clone());
        let cold = analyze_with(&request, Some(&cache));
        let hit = analyze_with(&request, Some(&cache));
        // Limit-hit Unknowns are deliberately not stored (enumeration-
        // order-dependent boundary verdicts), so those repeat as misses.
        let uncacheable = cold.verdict == Verdict::Unknown && cold.stats.limit_hit.is_some();
        let expected_second = if uncacheable {
            CacheProvenance::Miss
        } else {
            CacheProvenance::Hit
        };
        if cold.cache != CacheProvenance::Miss || hit.cache != expected_second {
            return Err(format!(
                "{kind}: provenance sequence was {} then {} (expected miss then {expected_second})",
                cold.cache, hit.cache
            ));
        }
        if hit.verdict != cold.verdict {
            return Err(format!(
                "{kind}: cached verdict {} differs from cold {}",
                hit.verdict, cold.verdict
            ));
        }
        if hit.method != cold.method {
            return Err(format!(
                "{kind}: hit method {} differs from stored {}",
                hit.method, cold.method
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (c) workflow-layer consistency + witness replay
// ---------------------------------------------------------------------------

fn check_workflow(form: &GuardedForm) -> Result<(), String> {
    let limits = fuzz_limits();
    let copts = CompletabilityOptions::with_limits(limits);
    let c = completability(form, &copts);
    if let Some(run) = &c.witness_run {
        if !form.is_complete_run(run) {
            return Err(format!(
                "completability witness ({} steps, method {}) fails to replay",
                run.len(),
                c.method
            ));
        }
    }
    if c.verdict == Verdict::Holds && c.witness_run.is_none() {
        return Err(format!(
            "Holds verdict without witness (method {})",
            c.method
        ));
    }

    // A semi-soundness counterexample must replay to an incompletable
    // state whether or not the enumeration closed.
    let sopts = SemisoundnessOptions {
        limits,
        ..Default::default()
    };
    let s = semisoundness(form, &sopts);
    if s.verdict == Verdict::Fails {
        let cex = s
            .counterexample
            .ok_or_else(|| "Fails verdict without counterexample".to_string())?;
        let replayed = form
            .replay(&cex)
            .map_err(|e| format!("counterexample does not replay: {e}"))?;
        let stuck = form.with_initial(replayed.last().clone());
        if completability(&stuck, &copts).verdict == Verdict::Holds {
            return Err("counterexample's final state is completable after all".into());
        }
    }

    let wg = WorkflowGraph::build(form, limits);
    if wg.closed() {
        let any_complete = (0..wg.state_count()).any(|i| wg.is_complete_state(i));
        match c.verdict {
            Verdict::Holds if !any_complete => {
                return Err(
                    "solver says completable, closed workflow graph has no complete state".into(),
                );
            }
            Verdict::Fails if any_complete => {
                return Err(
                    "solver says incompletable, closed workflow graph contains a complete state"
                        .into(),
                );
            }
            Verdict::Unknown => {
                return Err("solver Unknown although the workflow graph closed".into());
            }
            _ => {}
        }

        let all_completable = (0..wg.state_count()).all(|i| wg.is_completable_state(i));
        match s.verdict {
            Verdict::Holds if !all_completable => {
                return Err(
                    "solver says semi-sound, closed graph has an incompletable state".into(),
                );
            }
            Verdict::Fails if all_completable => {
                return Err(
                    "solver says not semi-sound, every state of the closed graph is completable"
                        .into(),
                );
            }
            _ => {}
        }
    }

    // Every enumerated complete run must replay as complete.
    let runs = enumerate_complete_runs(
        form,
        &EnumerateOptions {
            max_runs: 8,
            max_len: 16,
            limits,
        },
    );
    for run in &runs.runs {
        if !form.is_complete_run(run) {
            return Err(format!(
                "enumerated complete run of {} steps rejected",
                run.len()
            ));
        }
    }
    if c.verdict == Verdict::Fails && !runs.runs.is_empty() {
        return Err("incompletable form has an enumerated complete run".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (b) reduction roundtrips
// ---------------------------------------------------------------------------

/// Two three-valued verdicts contradict only when both are decided.
fn contradicts(a: Verdict, b: Verdict) -> bool {
    matches!(
        (a, b),
        (Verdict::Holds, Verdict::Fails) | (Verdict::Fails, Verdict::Holds)
    )
}

fn check_form_reductions(form: &GuardedForm) -> Result<(), String> {
    let copts = CompletabilityOptions::with_limits(fuzz_limits());
    let direct = completability(form, &copts).verdict;

    // Canonical serialization: round-trip is a fixpoint and preserves the
    // verdict.
    let text = serialize::to_ron(form);
    let reparsed =
        serialize::from_ron(&text).map_err(|e| format!("serialization round-trip: {e}"))?;
    if serialize::to_ron(&reparsed) != text {
        return Err("serialization is not canonical (to_ron . from_ron . to_ron ≠ to_ron)".into());
    }
    let re_verdict = completability(&reparsed, &copts).verdict;
    if re_verdict != direct {
        return Err(format!(
            "verdict changed across serialization: {direct} vs {re_verdict}"
        ));
    }

    // Cor. 4.2: deletion elimination preserves completability.
    if let Ok(no_del) = idar_reductions::deletion_elimination::reduce(form) {
        let after = completability(&no_del, &copts).verdict;
        if contradicts(direct, after) {
            return Err(format!(
                "deletion elimination flipped completability: {direct} -> {after}"
            ));
        }
    }

    // Cor. 4.7 (depth-1 only): G completable <=> reset/build G' semi-sound.
    if form.schema().depth() <= 1 {
        if let Ok(reset_build) = idar_reductions::completability_to_semisoundness::reduce(form) {
            let sopts = SemisoundnessOptions {
                limits: fuzz_limits(),
                ..Default::default()
            };
            let semi = semisoundness(&reset_build, &sopts).verdict;
            if contradicts(direct, semi) {
                return Err(format!(
                    "reset/build reduction disagrees: completability {direct}, semi-soundness {semi}"
                ));
            }
        }
    }
    Ok(())
}

/// The SAT-family roundtrips (Thm 5.1, Thm 5.6, Cor. 4.5) on a random
/// 3-CNF drawn from the case's RNG, against the selected SAT baseline.
fn check_logic_families(rng: &mut XorShift, engine: Engine) -> Result<(), String> {
    let vars = rng.range(3, 5);
    let clauses = rng.range(vars, 3 * vars);
    let cnf = random_3cnf_with(rng, vars, clauses);
    let sat = engine.solve(&cnf).is_some();

    // Thm 5.1: SAT -> completability (exact NP path).
    let g = idar_reductions::sat_to_completability::reduce(&cnf);
    let v = completability(&g, &CompletabilityOptions::default()).verdict;
    if v != verdict_of(sat) {
        return Err(format!(
            "Thm 5.1 reduction: {engine} {} but completability {v} ({vars}v {clauses}c)",
            if sat { "sat" } else { "unsat" }
        ));
    }

    // Thm 5.6: SAT -> ¬semi-soundness.
    let g = idar_reductions::sat_to_non_semisoundness::reduce(&cnf);
    let v = semisoundness(&g, &SemisoundnessOptions::default()).verdict;
    if v != verdict_of(!sat) {
        return Err(format!(
            "Thm 5.6 reduction: {engine} {} but semi-soundness {v}",
            if sat { "sat" } else { "unsat" }
        ));
    }

    // Cor. 4.5: SAT -> formula satisfiability (the satisfiability solver
    // itself consults the selected engine for its propositional paths).
    use idar_solver::satisfiability::{satisfiable, SatOptions};
    let f = idar_reductions::sat_to_satisfiability::reduce(&cnf);
    let opts = SatOptions {
        engine,
        ..SatOptions::default()
    };
    if satisfiable(&f, &opts).is_sat() != sat {
        return Err(format!("Cor. 4.5 SAT encoding disagrees with {engine}"));
    }
    Ok(())
}

/// **(d) The cdcl-vs-dpll differential oracle.** Seeded chain /
/// pigeonhole / random-3CNF families (from `idar_gen::cnf`): the engines
/// must agree on every verdict, models must satisfy, small instances are
/// pinned to brute force, and DIMACS round-trips are the identity.
fn check_sat_engines(rng: &mut XorShift) -> Result<(), String> {
    use idar_gen::cnf;

    // Random 3-CNF at a random density.
    let vars = rng.range(4, 14);
    let clauses = rng.range(1, 5 * vars);
    let random = random_3cnf_with(rng, vars, clauses);
    // Structured families with known verdicts.
    let chain_n = rng.range(2, 300);
    let holes = rng.range(2, 4);
    let suite: Vec<(String, idar_logic::Cnf, Option<bool>)> = vec![
        (format!("random3cnf/v{vars}c{clauses}"), random, None),
        (
            format!("chain/{chain_n}"),
            cnf::implication_chain(chain_n),
            Some(true),
        ),
        (
            format!("chain-unsat/{chain_n}"),
            cnf::implication_chain_unsat(chain_n),
            Some(false),
        ),
        (
            format!("pigeonhole/{holes}"),
            cnf::pigeonhole(holes),
            Some(false),
        ),
    ];
    for (name, instance, expected) in suite {
        let cdcl = Engine::Cdcl.solve(&instance);
        let dpll = Engine::Dpll.solve(&instance);
        if cdcl.is_some() != dpll.is_some() {
            return Err(format!(
                "{name}: cdcl says {} but dpll says {}",
                verdict_name(cdcl.is_some()),
                verdict_name(dpll.is_some()),
            ));
        }
        if let Some(expected) = expected {
            if cdcl.is_some() != expected {
                return Err(format!(
                    "{name}: engines agree on {} but the family is {} by construction",
                    verdict_name(cdcl.is_some()),
                    verdict_name(expected),
                ));
            }
        }
        for (engine, model) in [("cdcl", &cdcl), ("dpll", &dpll)] {
            if let Some(m) = model {
                if !instance.eval(m) {
                    return Err(format!("{name}: {engine} returned a non-model"));
                }
            }
        }
        if instance.vars <= 12 {
            let brute = instance.brute_force().is_some();
            if cdcl.is_some() != brute {
                return Err(format!(
                    "{name}: engines say {} but brute force says {}",
                    verdict_name(cdcl.is_some()),
                    verdict_name(brute),
                ));
            }
        }
        // DIMACS round-trip is the identity on every generated instance.
        let rendered = idar_logic::dimacs::render(&instance);
        match idar_logic::dimacs::parse(&rendered) {
            Ok(back) if back == instance => {}
            Ok(_) => return Err(format!("{name}: DIMACS round-trip changed the CNF")),
            Err(e) => return Err(format!("{name}: rendered DIMACS fails to parse: {e}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (i) static differential: screener verdicts and dead-rule pruning
// ---------------------------------------------------------------------------

/// The pre-exploration static screener against the exploration pipeline.
/// Every *conclusive* screen verdict must agree with the screen-bypassed
/// pipeline (`Unknown` at an exploration limit is compatible — the
/// screener's verdicts are unconditioned on limits); the chase witness
/// must replay; and pruning the screener's dead rules must be invisible
/// to a forced bounded exploration — verdict and `SearchStats`
/// bit-for-bit, because a dead rule never fires at any reachable state.
fn check_static(form: &GuardedForm) -> Result<(), String> {
    use idar_solver::{
        analyze, prune, screen, AnalysisKind, AnalysisRequest, Budget, ScreenOutcome,
    };

    let r = screen(form);

    let mut bypass = Budget::with_limits(fuzz_limits());
    bypass.skip_screen = true;
    for (kind, outcome) in [
        (AnalysisKind::Completability, &r.completability),
        (AnalysisKind::Semisoundness, &r.semisoundness),
    ] {
        let Some(v) = outcome.verdict() else { continue };
        let report = analyze(&AnalysisRequest::new(form.clone(), kind).with_budget(bypass.clone()));
        if report.verdict != Verdict::Unknown && report.verdict != v {
            return Err(format!(
                "{kind}: screener says {v} but {} says {}",
                report.method, report.verdict
            ));
        }
    }
    if let ScreenOutcome::Decided(Verdict::Holds, Some(run)) = &r.completability {
        if !form.is_complete_run(run) {
            return Err(format!(
                "screener chase witness ({} steps) does not replay to a complete state",
                run.len()
            ));
        }
    }

    // Dead-rule pruning: bit-identical bounded exploration (same engine
    // forced on both sides — method *selection* may legitimately differ
    // on the pruned form), and verdict-identical semi-soundness through
    // the normal dispatch.
    let pruned = prune(form, &r.dead_rules);
    let mut forced = bypass.clone();
    forced.force_method = Some(Method::BoundedExploration);
    let a = analyze(
        &AnalysisRequest::new(form.clone(), AnalysisKind::Completability)
            .with_budget(forced.clone()),
    );
    let b = analyze(
        &AnalysisRequest::new(pruned.clone(), AnalysisKind::Completability).with_budget(forced),
    );
    if a.verdict != b.verdict {
        return Err(format!(
            "pruning {} dead rule(s) changed the completability verdict: {} -> {}",
            r.dead_rules.len(),
            a.verdict,
            b.verdict
        ));
    }
    if a.stats != b.stats {
        return Err(format!(
            "pruning {} dead rule(s) changed exploration stats: {:?} -> {:?}",
            r.dead_rules.len(),
            a.stats,
            b.stats
        ));
    }
    let a = analyze(
        &AnalysisRequest::new(form.clone(), AnalysisKind::Semisoundness)
            .with_budget(bypass.clone()),
    );
    let b = analyze(&AnalysisRequest::new(pruned, AnalysisKind::Semisoundness).with_budget(bypass));
    // The per-state completability oracles dispatch on the fragment of
    // the form they run on, and the pruned form can land in a decidable
    // cell where the original only bounds: the original's `Unknown` may
    // become a decided verdict. Pruning can only narrow the fragment, so
    // a decided original verdict must survive unchanged.
    if a.verdict != Verdict::Unknown && b.verdict != a.verdict {
        return Err(format!(
            "pruning {} dead rule(s) changed the semi-soundness verdict: {} -> {}",
            r.dead_rules.len(),
            a.verdict,
            b.verdict
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// (g) scenario differential: compiled duty guards vs trace-level oracle
// ---------------------------------------------------------------------------

/// Scenario forms are depth-1 with at-most-once edges, so the state
/// space is a strict subset of the edge powerset: a larger cap than
/// [`fuzz_limits`] still closes in milliseconds, and multiplicity 1 is
/// exact for this shape.
fn scenario_limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 60_000,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    }
}

/// Limits for the incremental-vs-cold walk: the cold reference re-solves
/// per candidate update at every step, so the per-solve budget must stay
/// tiny for a 200-case smoke to finish in seconds. `Unknown`-at-limit
/// verdicts are fine — both managers must agree on them too.
fn incremental_limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 600,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    }
}

/// **(g, incremental)** Drive one warm manager (retained `StateGraph`)
/// and one forced-cold manager (`max_retained_states = 0`) through the
/// same random edit sequence, requiring per-update vet agreement and
/// safe-update-set equality after every edit. Bounded exploration is
/// forced on both sides so every scenario family actually exercises the
/// graph-hit / frontier-extension paths (the exact per-fragment methods
/// would disable the session on deletion-free chains). The first
/// divergent step is by construction the minimal edit prefix for this
/// seed; the error message carries that prefix.
fn check_incremental(form: &GuardedForm, seed: u64) -> Result<(), String> {
    let mut budget = idar_solver::Budget::with_limits(incremental_limits());
    budget.force_method = Some(Method::BoundedExploration);
    let mut warm = FormManager::new(form.clone(), budget.clone(), UnknownPolicy::Reject)
        .with_cache(Arc::new(VerdictCache::new()));
    let mut cold = FormManager::new(form.clone(), budget, UnknownPolicy::Reject)
        .with_cache(Arc::new(VerdictCache::new()))
        .with_max_retained_states(0);

    let mut rng = XorShift::new(split_mix(seed ^ 0x1C4E));
    let mut trail: Vec<String> = Vec::new();
    let prefix = |trail: &[String]| {
        if trail.is_empty() {
            "<initial instance>".to_string()
        } else {
            trail.join(" ; ")
        }
    };
    for step in 0..16 {
        for u in form.allowed_updates(warm.current()) {
            let w = warm.vet(&u);
            let c = cold.vet(&u);
            if w != c {
                return Err(format!(
                    "step {step}: vet({u:?}) diverges: warm {w:?} vs cold {c:?} \
                     after minimal edit prefix [{}]",
                    prefix(&trail)
                ));
            }
        }
        let ws = warm.safe_updates();
        let cs = cold.safe_updates();
        if ws != cs {
            return Err(format!(
                "step {step}: safe sets diverge: warm {ws:?} vs cold {cs:?} \
                 after minimal edit prefix [{}]",
                prefix(&trail)
            ));
        }
        if warm.is_complete() || ws.is_empty() {
            break;
        }
        let u = ws[rng.range(0, ws.len() - 1)];
        trail.push(format!("{u:?}"));
        warm.submit(u)
            .map_err(|r| format!("step {step}: warm rejected its own safe update {u:?}: {r}"))?;
        cold.submit(u)
            .map_err(|r| format!("step {step}: cold rejected its own safe update {u:?}: {r}"))?;
    }
    // A truncated build can legitimately miss deep successors (cold
    // fallback), but on these small walks the session must have answered
    // *something* from the graph — a session that never engaged would
    // make the whole differential vacuous.
    let stats = warm.recompute_stats();
    if stats.total() > 0 && stats.graph_hits + stats.frontier_extends == 0 {
        return Err(format!(
            "session never engaged: all {} oracle calls went cold (retained: {:?})",
            stats.total(),
            warm.retained_states()
        ));
    }
    Ok(())
}

fn check_scenario(spec: &ScenarioSpec) -> Result<(), String> {
    let s = spec.build("fuzz");

    // The generator's fragment-boundary discipline: the declared
    // fragment must admit the built form (decidable Table 1 cell).
    if !s.fragment.admits(&s.form) {
        return Err(format!(
            "built form escaped its declared fragment {} ({})",
            s.fragment,
            spec.summary()
        ));
    }

    // Compiled-guards verdict (full solver stack) vs the hand-rolled
    // constrained-reachability oracle (no guard compilation, no solver).
    let copts = CompletabilityOptions::with_limits(scenario_limits());
    let c = completability(&s.form, &copts);
    let oracle = constrained_completable(spec, 200_000);
    match (c.verdict, oracle) {
        (Verdict::Unknown, _) | (_, None) => {} // undecided within budget
        (v, Some(o)) => {
            if v != verdict_of(o) {
                return Err(format!(
                    "compiled-guards verdict {v} but trace-level oracle says {} ({})",
                    verdict_of(o),
                    spec.summary()
                ));
            }
        }
    }

    // The solver's witness run must satisfy the duties per the trace
    // checker — a guard-free re-validation of the compiled semantics.
    if let Some(run) = &c.witness_run {
        check_run(&s.form, &s.layout, &spec.constraints, run).map_err(|v| {
            format!(
                "completability witness violates duties: {v} ({})",
                spec.summary()
            )
        })?;
    }

    // So must every enumerated complete run. Keep `max_len` close to
    // the minimal run length (submission + one signature per level):
    // rejection loops make the run graph cyclic, and the simple-path
    // DFS behind `enumerate_complete_runs` degenerates into an
    // exponential sweep of truncated paths when the bound leaves room
    // for several rework cycles.
    let runs = enumerate_complete_runs(
        &s.form,
        &EnumerateOptions {
            max_runs: 4,
            max_len: spec.chain.levels.len() + 10,
            limits: scenario_limits(),
        },
    );
    for run in &runs.runs {
        check_run(&s.form, &s.layout, &spec.constraints, run).map_err(|v| {
            format!(
                "enumerated complete run violates duties: {v} ({})",
                spec.summary()
            )
        })?;
    }
    Ok(())
}

fn verdict_name(sat: bool) -> &'static str {
    if sat {
        "sat"
    } else {
        "unsat"
    }
}

fn verdict_of(b: bool) -> Verdict {
    if b {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

// ---------------------------------------------------------------------------
// (j) surface: formula text through the service's request path
// ---------------------------------------------------------------------------

/// Valid formulas the byte mutations start from: Ex. 3.6 and Ex. 3.12
/// guards, a parenthesised path, parent steps and a `<->`.
const SURFACE_SEEDS: [&str; 6] = [
    "!a/p[!b | !e]",
    "!f | d[a | r]",
    "!s & a[n & d & p] & !a/p[!b | !e]",
    "(a/p)[b]/.. & !(d[!(a & r)] | f)",
    "a[..[s]]/p/../n",
    "(s <-> d/a) | !(a & ..)",
];

/// Formula text of a random shape whose length is log-uniform up to the
/// body limit.
fn surface_text(rng: &mut XorShift) -> String {
    // Up to the largest body the service accepts, less the rest of the
    // form; the text appears twice in it.
    let body_limit = idar_server::HttpLimits::default().max_body_bytes;
    let scale = 1 << rng.below(21);
    let len = rng.range(1, scale).min((body_limit - 512) / 2);
    let atoms = ["p", "a/p", "..", "s", "!b", "d[a | r]", "true", "(f)"];
    match rng.below(6) {
        // A chain of one operator.
        0 => {
            let op = [" & ", " | ", "/", " <-> ", " and ", "||"][rng.below(6)];
            let k = (len / (op.len() + 2)).max(1);
            let parts: Vec<&str> = (0..k)
                .map(|_| match op {
                    "/" => ["p", "..", "a"][rng.below(3)],
                    _ => atoms[rng.below(atoms.len())],
                })
                .collect();
            parts.join(op)
        }
        // A filter chain.
        1 => format!("a{}", "[p]".repeat(len / 3)),
        // A negation or group nest, up to past the nesting limit.
        2 => {
            let d = len.min(2 * idar_core::MAX_NESTING);
            if rng.bool() {
                format!("{}p", "!".repeat(d))
            } else {
                format!("{}p{}", "(".repeat(d), ")".repeat(d))
            }
        }
        // A `<->` nest: `((p <-> q) <-> q)…`.
        3 => {
            let mut f = "p".to_string();
            for _ in 0..rng.below(48) {
                f = format!("({f} <-> s)");
            }
            f
        }
        // Byte mutations of a valid formula.
        _ => {
            let mut bytes = SURFACE_SEEDS[rng.below(SURFACE_SEEDS.len())]
                .as_bytes()
                .to_vec();
            let alphabet = b"()[]!&|/.<->apbs ";
            for _ in 0..rng.range(1, 8) {
                let b = alphabet[rng.below(alphabet.len())];
                let i = rng.below(bytes.len() + 1);
                match rng.below(3) {
                    0 => bytes.insert(i, b),
                    _ if i == bytes.len() => bytes.push(b),
                    1 => bytes[i] = b,
                    _ => {
                        bytes.remove(i);
                    }
                }
            }
            String::from_utf8(bytes).expect("ASCII mutations")
        }
    }
}

/// Put `text` into a form as its completion and the `a/p` add guard,
/// then parse and analyze it for every kind as the service would, on a
/// thread with the server workers' stack. `Err` only if a call panics
/// (a stack overflow aborts the whole run instead).
fn check_surface(text: &str) -> Result<(), String> {
    let body = format!(
        "(\n  schema: \"a(n, d, p(b, e)), s, d(a, r(r)), f\",\n  default: \"false\",\n  \
         rules: [\n    (add, \"a\", \"true\"),\n    (add, \"a/p\", \"{text}\"),\n  ],\n  \
         initial: \"\",\n  completion: \"{text}\",\n)\n"
    );
    let budget = idar_server::ServerConfig::default().budget;
    let worker = std::thread::Builder::new().stack_size(8 << 20);
    let run = move || {
        let Ok(form) = serialize::from_ron(&body) else {
            return;
        };
        for kind in [
            AnalysisKind::Completability,
            AnalysisKind::Semisoundness,
            AnalysisKind::Satisfiability,
        ] {
            let request = AnalysisRequest::new(form.clone(), kind).with_budget(budget.clone());
            analyze_with(&request, None);
        }
    };
    let joined = worker.spawn(run).map_err(|e| e.to_string())?.join();
    joined.map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        format!("panicked: {}", msg.unwrap_or_default())
    })
}
