//! Deterministic CNF workload families for the SAT-engine benches and
//! the cdcl-vs-dpll differential fuzz oracle.
//!
//! Three families with known verdicts and very different propagation
//! profiles:
//!
//! * [`implication_chain`] — trivially SAT, pure unit propagation; the
//!   workload that exposed the quadratic rescan in the original DPLL
//!   (53.6 s for 200k clauses before the indexed unit queue / CDCL);
//! * [`pigeonhole`] — `PHP(h+1, h)`, UNSAT with exponentially long
//!   resolution proofs: a stress test for conflict analysis;
//! * [`random_3cnf`] (re-exported from `idar_logic`) — seeded uniform
//!   3-CNF around arbitrary clause/variable ratios.

use idar_logic::prop::{Cnf, Lit};

pub use idar_logic::gen::{random_3cnf, random_3cnf_with};

/// `x0 ∧ (x0 → x1) ∧ … ∧ (x_{n−2} → x_{n−1})`: `n` clauses over `n`
/// variables, satisfiable only by the all-true assignment. Solvable by
/// unit propagation alone — any super-linear solver behaviour shows up
/// immediately at large `n`.
pub fn implication_chain(n: usize) -> Cnf {
    assert!(n >= 1);
    let mut clauses = Vec::with_capacity(n);
    clauses.push(vec![Lit::pos(0)]);
    for i in 0..n as u32 - 1 {
        clauses.push(vec![Lit::neg(i), Lit::pos(i + 1)]);
    }
    Cnf::new(clauses)
}

/// [`implication_chain`] with the final variable contradicted — UNSAT,
/// refutable by propagation alone.
pub fn implication_chain_unsat(n: usize) -> Cnf {
    let mut cnf = implication_chain(n);
    cnf.clauses
        .push(idar_logic::Clause(vec![Lit::neg(n as u32 - 1)]));
    cnf
}

/// The pigeonhole principle `PHP(holes + 1, holes)`: pigeon `i` sits in
/// hole `j` via variable `holes·i + j`; every pigeon is placed and no two
/// pigeons share a hole. UNSAT for every `holes ≥ 1`.
pub fn pigeonhole(holes: usize) -> Cnf {
    assert!(holes >= 1);
    let h = holes as u32;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for i in 0..h + 1 {
        clauses.push((0..h).map(|j| Lit::pos(h * i + j)).collect());
    }
    for j in 0..h {
        for i1 in 0..h + 1 {
            for i2 in (i1 + 1)..h + 1 {
                clauses.push(vec![Lit::neg(h * i1 + j), Lit::neg(h * i2 + j)]);
            }
        }
    }
    Cnf::new(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_logic::Engine;

    #[test]
    fn chain_shapes_and_verdicts() {
        let cnf = implication_chain(100);
        assert_eq!(cnf.vars, 100);
        assert_eq!(cnf.clauses.len(), 100);
        let model = idar_logic::sat_solve(&cnf).expect("chain is SAT");
        assert!(cnf.eval(&model));
        assert!((0..100).all(|i| model.get(idar_logic::Var(i))));
        assert!(idar_logic::sat_solve(&implication_chain_unsat(100)).is_none());
    }

    #[test]
    fn pigeonhole_is_unsat_for_every_engine() {
        for holes in 1..4 {
            let cnf = pigeonhole(holes);
            for engine in Engine::ALL {
                assert!(engine.solve(&cnf).is_none(), "{engine} PHP({holes})");
            }
        }
    }

    /// Verdict pins at sizes past the small-shape tests: the 200k-clause
    /// chains, PHP(6), and two phase-transition random 3-CNFs. The
    /// random verdicts are constants (the instances are pure functions
    /// of their seeds), not answers echoed back from an engine.
    #[test]
    fn large_family_verdicts_hold_on_cdcl_and_dpll() {
        let suite = [
            ("chain/200k", implication_chain(200_000), true),
            ("chain-unsat/200k", implication_chain_unsat(200_000), false),
            ("pigeonhole/6", pigeonhole(6), false),
            ("random3cnf/v30c126", random_3cnf(11, 30, 126), true),
        ];
        for (family, cnf, sat) in &suite {
            for engine in [Engine::Cdcl, Engine::Dpll] {
                let model = engine.solve(cnf);
                if let Some(m) = &model {
                    assert!(cnf.eval(m), "{engine} {family}: model must satisfy");
                }
                assert_eq!(model.is_some(), *sat, "{engine} {family}");
            }
        }
        // DPLL has no clause learning and blows up on this size.
        let cnf = random_3cnf(7, 80, 336);
        let model = Engine::Cdcl.solve(&cnf).expect("random3cnf/v80c336 is sat");
        assert!(cnf.eval(&model));
    }

    #[test]
    fn families_are_deterministic() {
        assert_eq!(implication_chain(10), implication_chain(10));
        assert_eq!(pigeonhole(3), pigeonhole(3));
        assert_eq!(random_3cnf(5, 6, 12), random_3cnf(5, 6, 12));
    }
}
