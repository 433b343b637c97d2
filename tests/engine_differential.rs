//! Differential tests of the exploration engine: the BFS driver's goal
//! search on the record store with every page in RAM, the same search
//! under a spill budget small enough to page records out to disk, the
//! exhaustive build on the flat `StateStore` behind `Explorer::graph`,
//! and the naive reference explorer (`idar_solver::reference`) must
//! report bit-identical `SearchStats` and the same BFS goal depth — on the
//! paper's running example, the Theorem 4.1 two-counter workloads, the
//! limit *boundaries* (depth limit hitting exactly at a frontier, the
//! state cap firing mid-layer, a goal discovered mid-layer) under both
//! symmetry modes, and (via the proptest block at the bottom) on
//! seed-generated `idar-gen` forms from every fragment.

use idar::core::{leave, GuardedForm, Instance};
use idar::solver::{
    completability, reference, CompletabilityOptions, ExploreLimits, ExploreOutcome, Explorer,
    LimitKind, MemoryBudget, Method, SymmetryMode, Verdict,
};
use idar_bench::workloads;
use proptest::prelude::*;

/// A spill budget of a few pages: most records live on disk.
const SPILL_BUDGET: MemoryBudget = MemoryBudget::bytes(4096);

/// Run one goal search on the record store's in-RAM and spilled tiers
/// and on the reference explorer; assert identical stats and goal depth,
/// check that every witness run replays to a goal state, and return the
/// in-RAM outcome.
fn all_engines(
    form: &GuardedForm,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    goal: impl Fn(&Instance) -> bool + Copy,
    ctx: &str,
) -> ExploreOutcome {
    let explorer = Explorer::new(form, limits).with_symmetry(symmetry);
    let in_ram = explorer.find(goal);
    let spilled = explorer.with_memory_budget(SPILL_BUDGET).find(goal);
    let oracle = reference::explore(form, &limits, symmetry, goal);
    for (engine, out) in [("in-RAM", &in_ram), ("spilled", &spilled)] {
        assert_eq!(out.stats, oracle.stats, "{ctx} {symmetry}: {engine} stats");
        assert_eq!(
            out.goal_run.as_ref().map(Vec::len),
            oracle.goal_depth,
            "{ctx} {symmetry}: {engine} goal depth"
        );
        if let Some(run) = &out.goal_run {
            let replay = form.replay(run).expect("witness run replays");
            assert!(goal(replay.last()), "{ctx} {symmetry}: {engine} run");
        }
    }
    in_ram
}

/// [`all_engines`] with a goal that never holds: the exhaustive search
/// behind `Explorer::graph`, whose stats must match too, and whose
/// expansion log must hold exactly the oracle's unpruned transitions.
fn all_engines_exhaustive(
    form: &GuardedForm,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    ctx: &str,
) -> ExploreOutcome {
    let out = all_engines(form, limits, symmetry, |_| false, ctx);
    let edges = reference::explore(form, &limits, symmetry, |_| false).edges;
    let explorer = Explorer::new(form, limits).with_symmetry(symmetry);
    let graph = explorer.graph();
    assert_eq!(
        graph.build_stats(),
        out.stats,
        "{ctx} {symmetry}: graph stats"
    );
    assert_eq!(graph.state_count(), out.stats.states, "{ctx} {symmetry}");
    assert_eq!(graph.edge_count(), edges, "{ctx} {symmetry}: graph edges");
    out
}

const MODES: [SymmetryMode; 2] = [SymmetryMode::Reduced, SymmetryMode::Plain];

fn capped(cap: usize) -> ExploreLimits {
    ExploreLimits {
        multiplicity_cap: Some(cap),
        ..ExploreLimits::small()
    }
}

/// Ex. 3.12 leave form, multiplicity-capped so the space is finite: every
/// engine enumerates the same states and agrees that the capped search
/// did not close (the cap prunes, by design).
#[test]
fn leave_example_3_12_same_state_set() {
    let form = leave::example_3_12();
    for symmetry in MODES {
        let out = all_engines_exhaustive(&form, capped(2), symmetry, "leave");
        assert!(!out.stats.closed);
        assert_eq!(out.stats.limit_hit, Some(LimitKind::Multiplicity));
    }
}

/// Every engine finds a complete run for φ = f at the same BFS depth.
#[test]
fn leave_example_3_12_same_goal_depth() {
    let form = leave::example_3_12();
    for symmetry in MODES {
        let out = all_engines(
            &form,
            ExploreLimits::small(),
            symmetry,
            |i| form.is_complete(i),
            "leave",
        );
        assert!(form.is_complete_run(&out.goal_run.expect("completable")));
    }
}

/// φ = f ∧ ¬s has no complete run (Sec. 3.5): no engine finds one under
/// the capped search, and all agree on the counts.
#[test]
fn leave_negative_claim_agrees() {
    let form = leave::example_3_12().with_completion(idar::core::Formula::parse("f & !s").unwrap());
    for symmetry in MODES {
        let out = all_engines(
            &form,
            capped(2),
            symmetry,
            |i| form.is_complete(i),
            "leave f & !s",
        );
        assert!(out.goal_run.is_none());
    }
}

/// Halting two-counter machines (Thm 4.1): every engine reaches the halt
/// state at the same BFS depth.
#[test]
fn two_counter_halting_machines_agree() {
    let machines = [
        (
            "count_up(2)",
            idar::machines::library::count_up_then_accept(2),
        ),
        ("transfer(2)", idar::machines::library::transfer_c1_to_c2(2)),
    ];
    let limits = ExploreLimits {
        max_states: 500_000,
        max_state_size: 256,
        ..ExploreLimits::default()
    };
    for (name, machine) in machines {
        let w = workloads::tcm(&machine, name, true);
        let out = all_engines(
            &w.form,
            limits,
            SymmetryMode::Reduced,
            |i| w.form.is_complete(i),
            name,
        );
        assert!(out.goal_run.is_some(), "{name}: halts");
    }
}

/// A diverging machine under tight limits: no engine may find a halt,
/// and all stop at the same limit with the same counts.
#[test]
fn two_counter_diverging_machine_agrees() {
    let machine = idar::machines::library::ping_pong();
    let w = workloads::tcm(&machine, "ping_pong", false);
    let limits = ExploreLimits {
        max_states: 20_000,
        max_state_size: 64,
        ..ExploreLimits::default()
    };
    let out = all_engines(
        &w.form,
        limits,
        SymmetryMode::Reduced,
        |i| w.form.is_complete(i),
        "ping_pong",
    );
    assert!(out.goal_run.is_none());
}

/// The subset-lattice scaling workload: a closed 2ⁿ space.
#[test]
fn subset_lattice_closed_space_agrees() {
    let w = workloads::subset_lattice(8);
    let out = all_engines_exhaustive(
        &w.form,
        ExploreLimits::small(),
        SymmetryMode::Reduced,
        "lattice(8)",
    );
    assert_eq!(out.stats.states, 256);
    assert!(out.stats.closed);
    assert_eq!(out.stats.transitions, 8 * 256);
}

/// Depth limit hitting **exactly at a frontier**: layers below the limit
/// are fully expanded, the probe fires on the frontier that still has
/// successors, and every engine agrees — under both symmetry modes. (The
/// subset lattice grants deletes, so every depth-`d` frontier state has
/// a successor and the limit must de-close the search.)
#[test]
fn depth_limit_hit_exactly_at_frontier_agrees() {
    let w = workloads::subset_lattice(10);
    for symmetry in MODES {
        for max_depth in [1usize, 2, 3] {
            let limits = ExploreLimits {
                max_depth,
                ..ExploreLimits::default()
            };
            let ctx = format!("depth {max_depth}");
            let out = all_engines_exhaustive(&w.form, limits, symmetry, &ctx);
            assert!(!out.stats.closed, "{ctx}");
            assert_eq!(out.stats.limit_hit, Some(LimitKind::Depth), "{ctx}");
        }
    }
}

/// A depth limit that exactly exhausts the space: the deletion-free
/// lattice's deepest states have no successors, so the probe finds
/// nothing, no limit is recorded, and the search **closes** — on every
/// engine, under both symmetry modes.
#[test]
fn depth_limit_exhausting_the_space_closes_in_both_engines() {
    use idar::core::{AccessRules, Formula, Schema};
    use std::sync::Arc;
    let n = 6usize;
    let labels: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
    let schema = Arc::new(Schema::parse(&labels.join(", ")).unwrap());
    let mut rules = AccessRules::new(&schema);
    for l in &labels {
        // Add-once, never delete: depth n is a dead end, not a frontier.
        rules.set(
            idar::core::Right::Add,
            schema.resolve(l).unwrap(),
            Formula::parse(&format!("!{l}")).unwrap(),
        );
    }
    let form = GuardedForm::new(
        schema.clone(),
        rules,
        Instance::empty(schema),
        Formula::True,
    );
    let limits = ExploreLimits {
        max_depth: n,
        ..ExploreLimits::default()
    };
    for symmetry in MODES {
        let out = all_engines_exhaustive(&form, limits, symmetry, "add-once");
        assert!(out.stats.closed, "{symmetry}: depth n exhausts the space");
        assert_eq!(out.stats.limit_hit, None, "{symmetry}");
        if symmetry == SymmetryMode::Reduced {
            assert_eq!(out.stats.states, 1 << n, "one state per subset");
        }
    }
}

/// State-count cap firing **mid-layer**: every engine stops at exactly
/// the cap, reports the `States` limit, and stays un-closed — under both
/// symmetry modes.
#[test]
fn state_limit_mid_layer_agrees() {
    let w = workloads::subset_lattice(8);
    for symmetry in MODES {
        for max_states in [2usize, 7, 37, 100] {
            let limits = ExploreLimits {
                max_states,
                ..ExploreLimits::default()
            };
            let ctx = format!("cap {max_states}");
            let out = all_engines_exhaustive(&w.form, limits, symmetry, &ctx);
            assert_eq!(out.stats.states, max_states, "{ctx}");
            assert!(!out.stats.closed, "{ctx}");
            assert_eq!(out.stats.limit_hit, Some(LimitKind::States), "{ctx}");
        }
    }
}

/// A goal discovered **mid-layer**, deep in combinatorially wide layers:
/// every engine stops on the same state at the same BFS depth, with the
/// same transition count, under both symmetry modes.
#[test]
fn goal_found_mid_layer_agrees() {
    let w = workloads::subset_lattice(12);
    for symmetry in MODES {
        // Reduced: 2¹² subsets, goal deep at depth 8. Plain: the ordered
        // space explodes past the state cap beyond depth 5, so the goal
        // sits at depth 5 — still behind combinatorially wide layers.
        let goal_size = match symmetry {
            SymmetryMode::Reduced => 8usize,
            SymmetryMode::Plain => 5usize,
        };
        let goal = |i: &Instance| i.children(idar::core::InstNodeId::ROOT).len() == goal_size;
        let out = all_engines(
            &w.form,
            ExploreLimits::default(),
            symmetry,
            goal,
            "lattice(12)",
        );
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), goal_size, "{symmetry}: goal at BFS depth");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On seed-generated forms from every `idar-gen` fragment, under
    /// both symmetry modes: the exhaustive search and the completion
    /// goal search agree across the record store's in-RAM and spilled
    /// tiers, the flat store and the reference explorer — stats field
    /// for field, goal depth, and replayable witness runs.
    #[test]
    fn engines_match_oracle_on_generated_forms(
        ix in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        use idar_gen::{generate, FragmentSpec, GenConfig};
        let cfg = GenConfig::new(FragmentSpec::ALL[ix % FragmentSpec::ALL.len()]);
        let form = generate(&cfg, seed);
        let limits = ExploreLimits {
            max_states: 3_000,
            max_state_size: 20,
            max_depth: usize::MAX,
            multiplicity_cap: Some(2),
        };
        let ctx = format!("{} seed {seed}", cfg.fragment);
        for symmetry in MODES {
            all_engines_exhaustive(&form, limits, symmetry, &ctx);
            all_engines(&form, limits, symmetry, |i| form.is_complete(i), &ctx);
        }
    }
}

/// End-to-end through the solver dispatch: forcing bounded exploration on
/// the leave form answers `Holds`, and the spilled tier's search under
/// the same limits agrees on stats and goal depth.
#[test]
fn completability_verdicts_engine_independent() {
    let form = leave::example_3_12();
    let limits = ExploreLimits::small();
    let r = completability(
        &form,
        &CompletabilityOptions {
            limits,
            force_method: Some(Method::BoundedExploration),
            ..Default::default()
        },
    );
    assert_eq!(r.verdict, Verdict::Holds);
    let run = r.witness_run.expect("completable");
    assert!(form.is_complete_run(&run));
    let (spilled, _) = Explorer::new(&form, limits)
        .with_memory_budget(SPILL_BUDGET)
        .find_spilled(|i| form.is_complete(i));
    assert_eq!(spilled.stats, r.stats);
    assert_eq!(spilled.goal_run.map(|r| r.len()), Some(run.len()));
}
