//! Property tests for guard programs (via the proptest shim): on every
//! state of a bounded exploration, the guard programs a `GuardedForm`
//! evaluates give exactly the interpreted semantics of Def. 3.5
//! (`formula::holds`):
//!
//! * `allowed_updates` equals the oracle's interpreted enumeration,
//!   order included;
//! * `is_allowed` agrees with it on every candidate update — every
//!   (live node, schema edge) addition and every live node's deletion,
//!   structurally invalid ones included;
//! * `is_complete` equals `holds_at_root` on the completion formula.
//!
//! Inputs: generated forms of every `FragmentSpec`, and approval chains
//! with rejection loops and delegation.

use idar_core::formula::holds_at_root;
use idar_core::{GuardedForm, Instance, Update};
use idar_gen::scenario::{named_scenarios, ScenarioRecipe};
use idar_gen::{generate, FragmentSpec, GenConfig, ScenarioAxis};
use idar_solver::{reference, ExploreLimits, Explorer};
use proptest::prelude::*;

fn limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 400,
        max_state_size: 16,
        max_depth: usize::MAX,
        multiplicity_cap: Some(2),
    }
}

/// Every addition along every schema edge under every live node, and
/// every live node's deletion.
fn candidates(form: &GuardedForm, inst: &Instance) -> Vec<Update> {
    let mut out = Vec::new();
    for n in inst.live_nodes() {
        out.extend(
            form.schema()
                .edge_ids()
                .map(|edge| Update::Add { parent: n, edge }),
        );
        out.push(Update::Del { node: n });
    }
    out
}

fn programs_match_holds(form: &GuardedForm) {
    let graph = Explorer::new(form, limits()).graph();
    for (i, inst) in graph.states().iter().enumerate() {
        let want = reference::allowed_updates(form, inst);
        assert_eq!(
            form.allowed_updates(inst),
            want,
            "state {i}: {}",
            inst.to_text()
        );
        for u in candidates(form, inst) {
            assert_eq!(
                form.is_allowed(inst, &u),
                want.contains(&u),
                "state {i}: {u}"
            );
        }
        assert_eq!(
            form.is_complete(inst),
            holds_at_root(inst, form.completion()),
            "state {i}: {}",
            inst.to_text()
        );
    }
    // A form re-rooted at a reachable state shares the programs.
    let last = graph.state(graph.state_count() - 1);
    let rerooted = form.with_initial(last.clone());
    assert_eq!(
        rerooted.allowed_updates(rerooted.initial()),
        reference::allowed_updates(form, last)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guard_programs_match_holds_on_generated_forms(ix in 0usize..4, seed in 0u64..1_000_000) {
        let spec = FragmentSpec::ALL[ix % FragmentSpec::ALL.len()];
        programs_match_holds(&generate(&GenConfig::new(spec), seed));
    }

    #[test]
    fn guard_programs_match_holds_on_approval_chains(ix in 0usize..8, seed in 0u64..1_000_000) {
        let spec = match ix % 2 {
            0 => ScenarioAxis::ALL[(ix / 2) % ScenarioAxis::ALL.len()].sample(seed),
            _ => ScenarioRecipe::ringi().sample(seed),
        };
        programs_match_holds(&spec.build("programs").form);
    }
}

#[test]
fn guard_programs_match_holds_on_named_scenarios() {
    let named = named_scenarios();
    assert!(named.iter().any(|n| n.scenario.spec.chain.has_rejection()));
    for n in &named {
        programs_match_holds(&n.scenario.form);
    }
}
