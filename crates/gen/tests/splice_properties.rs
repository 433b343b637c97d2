//! Splice ≡ materialize: the key the explorers probe their stores with,
//! spliced from a state's [`KeyLayout`], must equal the key of the
//! successor they would otherwise build — words and fingerprint, for
//! `canon_key()` and `ordered_key()` alike.
//!
//! The states are every state of a bounded `Explorer::graph()` (in both
//! symmetry modes, so the ordered space's sibling orders are covered
//! too), and the updates every update each state allows. The forms are
//! generated forms of every `FragmentSpec` and approval chains with
//! rejection loops (deletions) and delegation.

use idar_core::{GuardedForm, KeyLayout};
use idar_gen::{generate, ChainSpec, FragmentSpec, GenConfig, ScenarioRecipe, ScenarioSpec};
use idar_solver::{ExploreLimits, Explorer, SymmetryMode};
use proptest::prelude::*;

fn limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 400,
        max_state_size: 16,
        max_depth: usize::MAX,
        multiplicity_cap: Some(3),
    }
}

/// Check every allowed update of every graph state in both key modes;
/// returns the number of transitions checked.
fn check_form(form: &GuardedForm) -> usize {
    let mut layout = KeyLayout::default();
    let mut checked = 0;
    for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
        let graph = Explorer::new(form, limits())
            .with_symmetry(symmetry)
            .graph();
        for inst in graph.states() {
            for u in form.allowed_updates(inst) {
                let mut next = inst.clone();
                form.apply(&mut next, &u).unwrap();

                let canon = next.canon_key();
                layout.build_canon(inst);
                let (fp, words) = layout.splice(inst, &u);
                prop_assert_eq!(words, canon.words(), "canon, {} on {}", u, inst.to_text());
                prop_assert_eq!(fp, canon.fingerprint());

                let ordered = next.ordered_key();
                layout.build_ordered(inst);
                let (fp, words) = layout.splice(inst, &u);
                prop_assert_eq!(
                    words,
                    ordered.words(),
                    "ordered, {} on {}",
                    u,
                    inst.to_text()
                );
                prop_assert_eq!(fp, ordered.fingerprint());
                checked += 1;
            }
        }
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated forms of every fragment.
    #[test]
    fn spliced_keys_match_on_generated_forms(ix in 0usize..4, seed in 0u64..1_000_000) {
        let spec = FragmentSpec::ALL[ix];
        let form = generate(&GenConfig::new(spec), seed);
        check_form(&form);
    }

    /// Sampled approval chains, each given a rejection loop back to
    /// level 1 at its last level and a delegation at its first.
    #[test]
    fn spliced_keys_match_on_approval_chains(seed in 0u64..1_000_000) {
        let mut spec = ScenarioRecipe::approval().sample(seed);
        let chain = &mut spec.chain;
        let last = chain.levels.len() - 1;
        if last > 0 {
            chain.levels[last].rejection = Some(1);
        }
        let first = &mut chain.levels[0];
        if first.delegations.is_empty() && chain.users > 1 {
            let from = first.approvers[0];
            first.delegations.push((from, (from + 1) % chain.users));
        }
        let scenario = spec.build("splice");
        check_form(&scenario.form);
    }
}

/// A fixed chain whose rejections fire and whose delegations are live,
/// so deletions and delegation edges certainly occur among the checked
/// transitions.
#[test]
fn spliced_keys_match_on_a_rejecting_delegating_chain() {
    let mut chain = ChainSpec::simple(4, 2, 3);
    chain.levels[0].delegations.push((0, 2));
    chain.levels[2].delegations.push((2, 1));
    chain.levels[2].rejection = Some(1);
    chain.levels[3].rejection = Some(2);
    let spec = ScenarioSpec {
        chain,
        constraints: idar_gen::ConstraintSet::empty(),
    };
    let form = spec.build("splice").form;
    let dels = Explorer::new(&form, limits())
        .graph()
        .states()
        .iter()
        .flat_map(|i| form.allowed_updates(i))
        .filter(|u| matches!(u, idar_core::Update::Del { .. }))
        .count();
    assert!(dels > 0, "the rejection loops delete");
    let checked = check_form(&form);
    assert!(checked > 100, "only {checked} transitions checked");
}
