//! # idar-solver
//!
//! Decision procedures for the two correctness properties of guarded forms
//! (Defs. 3.13 / 3.14):
//!
//! * **completability** — does some run from the initial instance reach an
//!   instance satisfying the completion formula?
//! * **semi-soundness** — is every reachable instance completable?
//!
//! Table 1 of the paper dictates what is achievable per fragment, and this
//! crate implements exactly the upper bounds the paper proves, falling back
//! to *honest* bounded search everywhere else:
//!
//! | fragment             | completability                                  | semi-soundness |
//! |----------------------|-------------------------------------------------|----------------|
//! | `F(A+, φ+, d)` any d | exact, P ([`positive`], Thm 5.5)                 | exact for d = 1; otherwise one bounded reachable enumeration, exact when it closes, else refuted only by exact per-state oracles within the state budget it left |
//! | `F(A+, φ−, k)`       | exact, NP ([`np`], Thm 5.2)                      | bounded (Π^P_2k-hard, upper open) |
//! | `F(A−, φ±, 1)`       | exact, PSPACE ([`depth1`], Lemma 4.3 + Thm 4.6), within `max_states` | exact ([`depth1`], Cor. 4.7), within `max_states` |
//! | `F(A−, φ±, ≥2)`      | bounded ([`explore`]) — undecidable (Thm 4.1)    | bounded |
//!
//! Every verdict is three-valued ([`Verdict`]): `Holds`, `Fails`, or
//! `Unknown` with the resource bound that was hit. Exact code paths
//! document the theorem that licenses them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod completability;
pub mod depth1;
pub mod explore;
pub mod invariants;
pub mod np;
pub mod positive;
pub mod reference;
pub mod satengine;
pub mod satisfiability;
pub mod screen;
pub mod semisound;
pub mod session;
pub mod spill;
pub mod store;
pub mod verdict;
pub mod witness;

pub use analysis::{
    analyze, analyze_keyed, analyze_with, AnalysisKind, AnalysisReport, AnalysisRequest, Budget,
    CacheProvenance,
};
pub use cache::{
    rules_signature_of, CacheKey, CacheStats, CachedVerdict, RulesSignature, SessionDelta,
    VerdictCache,
};
pub use completability::{
    completability, select_method, CompletabilityOptions, CompletabilityResult,
};
pub use depth1::Depth1System;
pub use explore::{default_threads, split_threads, ExploreLimits, ExploreOutcome, Explorer};
pub use invariants::{check_invariant, check_invariants, InvariantResult};
pub use screen::{prune, screen, ScreenOutcome, ScreenReport, ScreenStats};
pub use semisound::{semisoundness, SemisoundnessOptions, SemisoundnessResult};
pub use session::StateGraph;
pub use spill::{MemoryBudget, SpillReport};
pub use store::{StateId, StateStore, SymmetryMode};
pub use verdict::{LimitKind, Method, Verdict};
