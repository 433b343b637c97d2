//! Property tests for the out-of-core capacity layer (via the proptest
//! shim), over idar-gen generated forms:
//!
//! * the **delta codec** is an encode/decode fixpoint on the canonical
//!   words of reachable instances — full-word checkpoints, parent
//!   deltas, empty-diff and empty-base boundary cases, and the raw
//!   varint layer;
//! * **spill equivalence** — a spill budget tiny enough to page out
//!   almost every record must leave search results untouched: identical
//!   `SearchStats` and goal depth against the flat in-RAM store and the
//!   naive reference explorer, across `SymmetryMode::{Reduced, Plain}`.

use idar_core::delta;
use idar_core::{GuardedForm, Instance};
use idar_gen::{generate, FragmentSpec, GenConfig};
use idar_solver::{reference, ExploreLimits, Explorer, MemoryBudget, SymmetryMode};
use proptest::prelude::*;

fn spec_of(ix: usize) -> FragmentSpec {
    FragmentSpec::ALL[ix % FragmentSpec::ALL.len()]
}

/// Limits small enough that every case closes or bounds in milliseconds.
fn limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 1_500,
        max_state_size: 16,
        max_depth: usize::MAX,
        multiplicity_cap: Some(2),
    }
}

/// A budget of a few hundred bytes: at these limits the arena holds at
/// most a handful of records, so nearly every lookup faults a page back
/// in — the heaviest spill traffic the engine can see.
fn tiny_budget() -> MemoryBudget {
    MemoryBudget::bytes(512)
}

/// Walk a random run from the initial instance, collecting every state
/// visited (BFS parents and children alike — consecutive entries are the
/// parent/child pairs the record store delta-encodes against).
fn random_run(form: &GuardedForm, picks: &[usize]) -> Vec<Instance> {
    let mut states = vec![form.initial().clone()];
    for &p in picks {
        let cur = states.last().unwrap();
        let moves = form.allowed_updates(cur);
        if moves.is_empty() {
            break;
        }
        let mut next = cur.clone();
        form.apply(&mut next, &moves[p % moves.len()]).unwrap();
        states.push(next);
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode_full(encode_full(w)) == w` and
    /// `decode_delta(base, encode_delta(base, w)) == w` for the canonical
    /// words of every state along a random run, using the run's actual
    /// parent/child pairs as delta bases — exactly the record layout the
    /// spill store writes (a checkpoint every K states, deltas between).
    #[test]
    fn delta_codec_roundtrips_canonical_words(
        ix in 0usize..4,
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let form = generate(&GenConfig::new(spec_of(ix)), seed);
        let states = random_run(&form, &picks);
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        for pair in states.windows(2) {
            let base = pair[0].canon_key();
            let words = pair[1].canon_key();
            // Full-word checkpoint record.
            enc.clear();
            delta::encode_full(words.words(), &mut enc);
            dec.clear();
            delta::decode_full(&enc, &mut dec);
            prop_assert_eq!(&dec[..], words.words());
            // Delta against the BFS parent (the common case) …
            enc.clear();
            delta::encode_delta(base.words(), words.words(), &mut enc);
            dec.clear();
            delta::decode_delta(base.words(), &enc, &mut dec);
            prop_assert_eq!(&dec[..], words.words());
            // … and the reverse direction (shrinking diffs).
            enc.clear();
            delta::encode_delta(words.words(), base.words(), &mut enc);
            dec.clear();
            delta::decode_delta(words.words(), &enc, &mut dec);
            prop_assert_eq!(&dec[..], base.words());
        }
        // Boundary cases: empty diff (state vs itself) and empty base
        // (the first record after a checkpoint reset).
        if let Some(s) = states.last() {
            let key = s.canon_key();
            enc.clear();
            delta::encode_delta(key.words(), key.words(), &mut enc);
            dec.clear();
            delta::decode_delta(key.words(), &enc, &mut dec);
            prop_assert_eq!(&dec[..], key.words());
            enc.clear();
            delta::encode_delta(&[], key.words(), &mut enc);
            dec.clear();
            delta::decode_delta(&[], &enc, &mut dec);
            prop_assert_eq!(&dec[..], key.words());
        }
    }

    /// The varint layer round-trips arbitrary `u32`s, including the
    /// continuation-byte boundaries the delta records straddle.
    #[test]
    fn varints_roundtrip(vals in proptest::collection::vec(0u32..u32::MAX, 0..32)) {
        let mut buf = Vec::new();
        for &v in &vals {
            delta::write_varint(&mut buf, v);
        }
        // Boundary values alongside the random ones.
        for v in [0, 127, 128, 16_383, 16_384, u32::MAX] {
            delta::write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            prop_assert_eq!(delta::read_varint(&buf, &mut pos), v);
        }
        for v in [0, 127, 128, 16_383, 16_384, u32::MAX] {
            prop_assert_eq!(delta::read_varint(&buf, &mut pos), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// A tiny spill budget leaves the goal search untouched: stats and
    /// goal depth are identical to the flat in-RAM store and to the
    /// reference explorer — under both the symmetry quotient and plain
    /// exploration.
    #[test]
    fn heavy_spill_equals_in_ram_search(
        ix in 0usize..4,
        seed in 0u64..1_000_000,
        plain in 0usize..2,
    ) {
        let form = generate(&GenConfig::new(spec_of(ix)), seed);
        let sym = if plain == 1 { SymmetryMode::Plain } else { SymmetryMode::Reduced };
        let flat = Explorer::new(&form, limits())
            .with_symmetry(sym)
            .find(|i| form.is_complete(i));
        let (spilled, report) = Explorer::new(&form, limits())
            .with_symmetry(sym)
            .with_memory_budget(tiny_budget())
            .find_spilled(|i| form.is_complete(i));
        prop_assert_eq!(spilled.stats, flat.stats, "spill report: {:?}", report);
        match (&flat.goal_run, &spilled.goal_run) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.len(), b.len(), "BFS goal depth must agree");
                prop_assert!(form.is_complete_run(b), "spilled witness replays");
            }
            (None, None) => {}
            (a, b) => prop_assert!(
                false,
                "goal existence differs: flat {} vs spilled {}",
                a.is_some(),
                b.is_some()
            ),
        }
        let oracle = reference::explore(&form, &limits(), sym, |i| form.is_complete(i));
        prop_assert_eq!(spilled.stats, oracle.stats);
        prop_assert_eq!(spilled.goal_run.as_ref().map(Vec::len), oracle.goal_depth);
    }

}
