//! Property tests for the incremental re-analysis layer.
//!
//! Two contracts are exercised end-to-end, across symmetry modes and
//! engines, on real form families from `idar-gen`:
//!
//! * **resume-equivalence** — `Explorer::resume` from *any* state
//!   interned in a `StateGraph` produces exactly the same
//!   `SearchStats` and goal depth as a cold run on the form re-rooted at
//!   that state's instance, and as the naive reference explorer;
//! * **eviction round-trip** — a `FormManager` whose retained graph is
//!   evicted under a tiny memory budget answers every vet/safe_updates
//!   query identically to a manager that kept its graph.

use idar_gen::builders::subset_lattice;
use idar_gen::scenario::{ChainSpec, ScenarioSpec};
use idar_solver::{
    reference, Budget, ExploreLimits, Explorer, Method, StateId, SymmetryMode, VerdictCache,
};
use idar_workflow::manager::{FormManager, UnknownPolicy};
use std::sync::Arc;

/// The forms under test: all close under `ExploreLimits::small()`, so
/// session builds under it are exact.
fn closing_forms() -> Vec<(String, idar_core::GuardedForm)> {
    vec![
        ("subset_lattice(3)".into(), subset_lattice(3)),
        ("subset_lattice(4)".into(), subset_lattice(4)),
        (
            "approval_chain(3,2,3)".into(),
            ScenarioSpec::unconstrained(ChainSpec::simple(3, 2, 3))
                .build("chain")
                .form,
        ),
    ]
}

/// Resume from every retained state must match a cold run
/// re-rooted at that state — exact `SearchStats` equality and equal goal
/// depth — under both symmetry modes, and the reference explorer agrees
/// with both; a goal run replays from that state. Builds are exact or
/// truncated by `max_states`; resumes run under the build's limits (logged
/// expansions replay) or under a different `max_state_size` or
/// `multiplicity_cap` (every state is expanded afresh).
#[test]
fn resume_equals_cold_run_from_every_state() {
    let limits = ExploreLimits::small();
    let truncated = ExploreLimits {
        max_states: 5,
        ..limits
    };
    let runs = [
        ("exact", limits, limits),
        ("truncated", truncated, limits),
        (
            "state-size",
            limits,
            ExploreLimits {
                max_state_size: 3,
                ..limits
            },
        ),
        (
            "multiplicity",
            truncated,
            ExploreLimits {
                multiplicity_cap: Some(1),
                ..limits
            },
        ),
    ];
    for (name, form) in closing_forms() {
        for mode in [SymmetryMode::Reduced, SymmetryMode::Plain] {
            for (what, build, query) in runs {
                let ctx = format!("{name} {mode:?} {what}");
                let mut session = Explorer::new(&form, build).with_symmetry(mode).graph();
                assert_eq!(session.exact(), build == limits, "{ctx}: build closes");
                let retained = session.state_count();
                for i in 0..retained {
                    let id = StateId(i as u32);
                    let warm = Explorer::new(&form, query).with_symmetry(mode).resume(
                        &mut session,
                        id,
                        |x| form.is_complete(x),
                    );
                    let rerooted = form.with_initial(session.state(i).clone());
                    let cold = Explorer::new(&rerooted, query)
                        .with_symmetry(mode)
                        .find(|x| rerooted.is_complete(x));
                    assert_eq!(warm.stats, cold.stats, "{ctx} state {i}");
                    assert_eq!(
                        warm.goal_run.as_ref().map(Vec::len),
                        cold.goal_run.as_ref().map(Vec::len),
                        "{ctx} state {i}: goal depth"
                    );
                    let oracle =
                        reference::explore(&rerooted, &query, mode, |x| rerooted.is_complete(x));
                    assert_eq!(warm.stats, oracle.stats, "{ctx} state {i}: oracle");
                    assert_eq!(
                        warm.goal_run.as_ref().map(Vec::len),
                        oracle.goal_depth,
                        "{ctx} state {i}: oracle goal depth"
                    );
                    if let Some(run) = &warm.goal_run {
                        assert!(rerooted.is_complete_run(run), "{ctx} state {i}: replay");
                    }
                }
                if build == limits {
                    // An exact session answers queries without growing.
                    assert_eq!(session.state_count(), retained, "{ctx}");
                }
            }
        }
    }
}

/// Resuming never invents states: on a truncated build the session only
/// grows toward the same space the cold run explores, and re-resuming
/// from the root with the full budget reaches closure.
#[test]
fn truncated_session_converges_to_the_cold_space() {
    let form = subset_lattice(4);
    let tight = ExploreLimits {
        max_states: 5,
        ..ExploreLimits::small()
    };
    let mut session = Explorer::new(&form, tight).graph();
    assert!(!session.exact());
    let cold = Explorer::new(&form, ExploreLimits::small()).find(|x| form.is_complete(x));
    let warm = Explorer::new(&form, ExploreLimits::small())
        .resume(&mut session, StateId(0), |x| form.is_complete(x));
    assert_eq!(warm.stats, cold.stats);
    assert_eq!(
        warm.goal_run.as_ref().map(Vec::len),
        cold.goal_run.as_ref().map(Vec::len)
    );
    assert_eq!(session.state_count(), cold.stats.states);
}

/// Drive one manager with a retained graph and one whose graph was
/// evicted by a tiny memory budget through the same edit walk: every
/// safe-update set must agree at every step, while the provenance
/// counters prove the two actually took different paths.
#[test]
fn eviction_then_recompute_round_trips() {
    let form = subset_lattice(3);
    let budget = Budget::with_limits(ExploreLimits::small());
    let mut retained = FormManager::new(form.clone(), budget.clone(), UnknownPolicy::Reject)
        .with_cache(Arc::new(VerdictCache::new()));
    let mut evicted = FormManager::new(form, budget, UnknownPolicy::Reject)
        .with_cache(Arc::new(VerdictCache::new()))
        .with_max_retained_states(1);

    let mut steps = 0;
    while !retained.is_complete() && steps < 16 {
        let a = retained.safe_updates();
        let b = evicted.safe_updates();
        assert_eq!(a, b, "step {steps}: safe sets diverge");
        let Some(u) = a.first().copied() else { break };
        retained.submit(u).expect("safe update accepted");
        evicted.submit(u).expect("safe update accepted");
        steps += 1;
    }
    assert!(retained.is_complete() && evicted.is_complete());

    let r = retained.recompute_stats();
    assert_eq!(r.cold_solves, 0, "retained manager must never go cold");
    assert!(r.graph_hits > 0);
    assert!(retained.retained_states().is_some());

    let e = evicted.recompute_stats();
    assert_eq!(e.graph_hits + e.frontier_extends, 0);
    assert!(e.cold_solves > 0, "evicted manager must fall back to cold");
    assert!(evicted.retained_states().is_none());
}

/// Eviction triggered *mid-session*: a truncated bounded-exploration
/// graph grows past the memory budget while frontier extensions answer
/// queries, the manager flips to cold, and every answer before and after
/// the flip agrees with an always-cold reference manager.
#[test]
fn mid_session_eviction_stays_equivalent_to_cold() {
    let form = subset_lattice(4);
    let mut budget = Budget::with_limits(ExploreLimits {
        max_states: 8,
        ..ExploreLimits::small()
    });
    budget.force_method = Some(Method::BoundedExploration);

    // Accept `Unknown` so the walk proceeds even where the tight budget
    // truncates — the point is provenance, not verdict strength.
    let mut mgr = FormManager::new(form.clone(), budget.clone(), UnknownPolicy::Accept)
        .with_cache(Arc::new(VerdictCache::new()))
        .with_max_retained_states(10);
    let mut reference = FormManager::new(form, budget, UnknownPolicy::Accept)
        .with_cache(Arc::new(VerdictCache::new()))
        .with_max_retained_states(0);

    let mut evicted_at = None;
    for step in 0..16 {
        if reference.is_complete() {
            break;
        }
        let safe = reference.safe_updates();
        assert_eq!(mgr.safe_updates(), safe, "step {step}: safe sets diverge");
        if evicted_at.is_none() && mgr.retained_states().is_none() {
            evicted_at = Some(step);
        }
        let Some(u) = safe.first().copied() else {
            break;
        };
        mgr.submit(u).expect("safe update accepted");
        reference.submit(u).expect("safe update accepted");
    }
    assert!(
        evicted_at.is_some(),
        "the truncated graph must outgrow max_retained_states during the walk"
    );
    let stats = mgr.recompute_stats();
    assert!(stats.frontier_extends > 0, "pre-eviction path was warm");
    assert!(stats.cold_solves > 0, "post-eviction path is cold");
}

/// `Verdict` round-trip sanity for the session paths: a graph-hit
/// annotation and a frontier-extension agree with each other on the same
/// query when both are available (exact graph ⇒ both defined).
#[test]
fn annotation_agrees_with_resume_on_exact_graphs() {
    let form = subset_lattice(4);
    let limits = ExploreLimits::small();
    let explorer = Explorer::new(&form, limits);
    let mut session = explorer.graph();
    session.annotate(&form);
    assert!(session.exact());
    for i in 0..session.state_count() {
        let id = StateId(i as u32);
        let annotated = session.verdict_of(id).expect("exact graph is annotated");
        let out = explorer.resume(&mut session, id, |x| form.is_complete(x));
        assert_eq!(annotated, out.verdict(), "state {i}");
    }
}
