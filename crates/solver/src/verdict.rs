//! Three-valued verdicts with provenance.
//!
//! Table 1 contains undecidable cells and cells with open upper bounds, so
//! a production solver must be able to say "I don't know — and here is the
//! resource bound I hit". A verdict of `Holds`/`Fails` is only ever
//! produced by a code path whose exactness a theorem licenses, or by an
//! exhaustive search that provably closed the reachable state space.

use std::fmt;

/// The answer to a decision problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The property holds (completable / semi-sound).
    Holds,
    /// The property fails; a witness/counterexample may accompany it.
    Fails,
    /// Search exhausted its resource budget before deciding.
    Unknown,
}

impl Verdict {
    /// `Holds` ⇒ `true`, `Fails` ⇒ `false`, `Unknown` ⇒ panic. For tests
    /// on inputs that are known to be decidable within bounds.
    pub fn expect_decided(self, context: &str) -> bool {
        match self {
            Verdict::Holds => true,
            Verdict::Fails => false,
            Verdict::Unknown => panic!("verdict unexpectedly Unknown: {context}"),
        }
    }

    /// Three-valued negation (`Holds` ⇄ `Fails`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Verdict {
        match self {
            Verdict::Holds => Verdict::Fails,
            Verdict::Fails => Verdict::Holds,
            Verdict::Unknown => Verdict::Unknown,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Fails => write!(f, "fails"),
            Verdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Which algorithm produced a result, and with what exactness guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Thm 5.5 saturation — exact for `F(A+, φ+, ∞)`, polynomial time.
    PositiveSaturation,
    /// Thm 5.2 two-phase search — exact for `F(A+, φ−, k)` (NP).
    NpTwoPhase,
    /// Lemma 4.3 canonical-state search — exact for depth-1 forms within
    /// `max_states` canonical states; `Unknown` when the cap cuts it
    /// short before it decides.
    Depth1Canonical,
    /// Bounded isomorphism-deduplicated exploration — semi-decision. Exact
    /// only when the exploration *closed* (every reachable state visited,
    /// no limit hit), which the accompanying stats report.
    BoundedExploration,
    /// Semi-soundness by reachable-state enumeration with a per-state
    /// completability oracle.
    ReachableEnumeration,
    /// The Cor. 4.5 obligation tableau deciding completion-formula
    /// satisfiability over the schema (exact within its branch budget).
    SatTableau,
    /// The pre-exploration static screener ([`mod@crate::screen`]): may/must
    /// abstract interpretation plus a greedy chase, zero states expanded.
    /// Only sound (conclusive) screen verdicts are ever reported.
    StaticScreen,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::PositiveSaturation => "positive-saturation (Thm 5.5)",
            Method::NpTwoPhase => "np-two-phase (Thm 5.2)",
            Method::Depth1Canonical => "depth1-canonical (Lemma 4.3)",
            Method::BoundedExploration => "bounded-exploration",
            Method::ReachableEnumeration => "reachable-enumeration",
            Method::SatTableau => "sat-tableau (Cor 4.5)",
            Method::StaticScreen => "static-screen",
        };
        write!(f, "{s}")
    }
}

/// Search statistics shared by the solvers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct states visited (after deduplication).
    pub states: usize,
    /// Updates expanded (edges of the state graph traversed).
    pub transitions: usize,
    /// Did the search exhaust the whole reachable space within limits?
    /// When `true`, negative answers are exact even in bounded mode.
    pub closed: bool,
    /// Which limit stopped the search, if any.
    pub limit_hit: Option<LimitKind>,
}

/// The resource limit that terminated a bounded search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// The cap on distinct states.
    States,
    /// The cap on total instance size (nodes per state).
    StateSize,
    /// The cap on run depth (steps from the initial instance).
    Depth,
    /// The per-label sibling multiplicity cap.
    Multiplicity,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LimitKind::States => "state-count limit",
            LimitKind::StateSize => "state-size limit",
            LimitKind::Depth => "depth limit",
            LimitKind::Multiplicity => "multiplicity cap",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation() {
        assert_eq!(Verdict::Holds.not(), Verdict::Fails);
        assert_eq!(Verdict::Fails.not(), Verdict::Holds);
        assert_eq!(Verdict::Unknown.not(), Verdict::Unknown);
    }

    #[test]
    fn display() {
        assert_eq!(Verdict::Holds.to_string(), "holds");
        assert!(Method::PositiveSaturation.to_string().contains("5.5"));
        assert_eq!(LimitKind::States.to_string(), "state-count limit");
    }

    #[test]
    #[should_panic(expected = "unexpectedly Unknown")]
    fn expect_decided_panics_on_unknown() {
        Verdict::Unknown.expect_decided("test");
    }
}
