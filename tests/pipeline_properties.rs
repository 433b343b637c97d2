//! Property suite pinning the symmetry-reduction layer.
//!
//! The canonicalization contract (`idar_core::canon`) claims analysis
//! verdicts are invariant under *iso-value renaming* — renaming node ids
//! and permuting siblings of the initial instance. These tests drive
//! seed-generated forms from all four `idar-gen` fragments through random
//! renamings and assert:
//!
//! * `canonicalize()` maps every renaming to the identical canonical
//!   form and fingerprint (and is itself a fixpoint);
//! * completability **and** semi-soundness verdicts agree across
//!   renamings (the record store's tiers are held to the flat store
//!   search for search in `tests/engine_differential.rs`);
//! * the `StateStore` intern/lookup fixpoint: interning any member of a
//!   class and looking up any other member yields the same dense id.

use idar::core::Instance;
use idar::solver::{
    analyze, AnalysisKind, AnalysisRequest, Budget, ExploreLimits, StateStore, SymmetryMode,
};
use idar_gen::{generate, generate_stream, FragmentSpec, GenConfig};
use idar_logic::gen::{Rng, XorShift};

/// Small limits so every analysis closes or bounds in milliseconds.
fn budget() -> Budget {
    Budget::with_limits(ExploreLimits {
        max_states: 2_000,
        max_state_size: 20,
        max_depth: usize::MAX,
        multiplicity_cap: Some(2),
    })
}

/// Rebuild `inst` with every node's children inserted in a random order —
/// an iso-value renaming of the instance (fresh node ids, permuted
/// siblings, same unordered labelled tree).
fn random_renaming(inst: &Instance, rng: &mut XorShift) -> Instance {
    fn go(
        src: &Instance,
        n: idar::core::InstNodeId,
        out: &mut Instance,
        m: idar::core::InstNodeId,
        rng: &mut XorShift,
    ) {
        let mut kids = src.children(n).to_vec();
        // Fisher–Yates with the seeded generator.
        for i in (1..kids.len()).rev() {
            kids.swap(i, rng.below(i + 1));
        }
        for c in kids {
            let nc = out
                .add_child(m, src.schema_node(c))
                .expect("renaming preserves the schema");
            go(src, c, out, nc, rng);
        }
    }
    let mut out = Instance::empty(inst.schema().clone());
    go(
        inst,
        idar::core::InstNodeId::ROOT,
        &mut out,
        idar::core::InstNodeId::ROOT,
        rng,
    );
    out
}

/// Seed-generated forms of one fragment, with initial instances grown a
/// little so renamings have something to permute.
fn forms_of(fragment: FragmentSpec, cases: usize) -> Vec<idar::core::GuardedForm> {
    let cfg = GenConfig::new(fragment);
    generate_stream(&cfg, 0x51AE_2026, cases)
        .iter()
        .map(|&seed| generate(&cfg, seed))
        .collect()
}

#[test]
fn canonicalize_is_renaming_invariant_on_generated_forms() {
    for fragment in FragmentSpec::ALL {
        for (k, form) in forms_of(fragment, 8).into_iter().enumerate() {
            let mut rng = XorShift::new(0xC0DE + k as u64);
            let base = form.initial().canonicalize();
            // Fixpoint.
            let again = base.instance.canonicalize();
            assert_eq!(base.instance.to_text(), again.instance.to_text());
            assert_eq!(base.fingerprint, again.fingerprint);
            for _ in 0..3 {
                let renamed = random_renaming(form.initial(), &mut rng);
                assert!(renamed.isomorphic(form.initial()), "{fragment} case {k}");
                let c = renamed.canonicalize();
                assert_eq!(
                    c.instance.to_text(),
                    base.instance.to_text(),
                    "{fragment} case {k}: canonical forms diverge"
                );
                assert_eq!(c.fingerprint, base.fingerprint);
            }
        }
    }
}

#[test]
fn verdicts_are_invariant_under_renaming_all_fragments_both_engines() {
    for fragment in FragmentSpec::ALL {
        for (k, form) in forms_of(fragment, 6).into_iter().enumerate() {
            let mut rng = XorShift::new(0xBEEF ^ (k as u64) << 3);
            for kind in [AnalysisKind::Completability, AnalysisKind::Semisoundness] {
                let base = analyze(&AnalysisRequest::new(form.clone(), kind).with_budget(budget()));
                for r in 0..2 {
                    let renamed = form.with_initial(random_renaming(form.initial(), &mut rng));
                    let got = analyze(&AnalysisRequest::new(renamed, kind).with_budget(budget()));
                    if base.stats.limit_hit.is_none() && got.stats.limit_hit.is_none() {
                        assert_eq!(
                            got.verdict, base.verdict,
                            "{fragment} case {k}: {kind} verdict changed under \
                             renaming {r}"
                        );
                    } else {
                        // At a resource boundary the verdict may be
                        // order-dependent; decided verdicts must still
                        // never contradict each other.
                        use idar::solver::Verdict;
                        let contradiction = matches!(
                            (base.verdict, got.verdict),
                            (Verdict::Holds, Verdict::Fails) | (Verdict::Fails, Verdict::Holds)
                        );
                        assert!(
                            !contradiction,
                            "{fragment} case {k}: {kind} decided verdicts contradict \
                             under renaming {r}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn state_store_intern_lookup_fixpoint_on_generated_instances() {
    for fragment in FragmentSpec::ALL {
        for (k, form) in forms_of(fragment, 8).into_iter().enumerate() {
            let mut rng = XorShift::new(0xF100 + k as u64);
            let mut store = StateStore::new(SymmetryMode::Reduced);
            let (id, new) = store.intern(form.initial().clone(), None);
            assert!(new);
            for _ in 0..4 {
                let renamed = random_renaming(form.initial(), &mut rng);
                assert_eq!(
                    store.lookup(&renamed),
                    Some(id),
                    "{fragment} case {k}: lookup of a renaming missed the class"
                );
                let (again, fresh) = store.intern(renamed, None);
                assert_eq!(again, id);
                assert!(!fresh, "{fragment} case {k}: renaming re-interned as new");
            }
            assert_eq!(store.len(), 1);
            assert_eq!(store.collisions(), 0);
            let canonical = form.initial().canonicalize().instance;
            assert_eq!(store.lookup(&canonical), Some(id));
        }
    }
}
