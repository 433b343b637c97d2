//! **Corollary 4.5, PSPACE-hardness direction**: QSAT reduces to formula
//! satisfiability (over unbounded-depth trees).
//!
//! The paper's example for `∃x ∀y ∃z : (x ∨ y ∧ ¬z)`:
//!
//! ```text
//! (¬ax/ay/az[¬(../../x) ∨ (../y) ∧ ¬z])      -- every leaf satisfies ψ′
//! ∧ (ax/x ↔ ¬(ax[¬x]))                        -- unique choice for x
//! ∧ (¬(ax[¬ay/y])) ∧ (¬(ax[¬ay[¬y]]))        -- both y values explored
//! ∧ (ax/ay[az/z ↔ ¬(az[¬z])])                 -- unique choice for z
//! ```
//!
//! Assignments nest as an `a`-chain (one level per variable, in prefix
//! order); a level's value is the presence of its variable child. The
//! generic compiler below handles any prenex QBF by flattening blocks to
//! one variable per level:
//!
//! * **∃ level** — at every chain node above it, the level's choice must
//!   exist and be consistent across duplicates (`a/v ↔ ¬a[¬v]`);
//! * **∀ level** — at every chain node above it, both values must be
//!   present (`a[v]` and `a[¬v]`);
//! * **matrix** — every full chain satisfies ψ′, with variables replaced
//!   by `../…/v` climbs.
//!
//! Models of the resulting formula are exactly (prunings of) winning
//! strategy trees, so satisfiability coincides with QBF truth.

use idar_core::{Formula, PathExpr};
use idar_logic::prop::{PropFormula, Var};
use idar_logic::qbf::{Qbf, Quantifier};
use std::collections::HashMap;

/// The chain label for prefix level `d` (0-based).
pub fn level_label(d: usize) -> String {
    format!("a{d}")
}

/// The value label for prefix level `d`.
pub fn value_label(d: usize) -> String {
    format!("v{d}")
}

/// Compile a prenex QBF into a root-evaluated formula that is satisfiable
/// iff the QBF is true.
pub fn reduce(qbf: &Qbf) -> Formula {
    // Flatten blocks into single-variable levels, in prefix order.
    let mut levels: Vec<(Quantifier, Var)> = Vec::new();
    for (q, vars) in &qbf.blocks {
        for v in vars {
            levels.push((*q, *v));
        }
    }
    let level_of: HashMap<Var, usize> = levels
        .iter()
        .enumerate()
        .map(|(d, (_, v))| (*v, d))
        .collect();
    let n = levels.len();

    let mut conjuncts: Vec<Formula> = Vec::new();
    for (d, (q, _)) in levels.iter().enumerate() {
        let constraint = match q {
            Quantifier::Exists => {
                // a_d/v_d ↔ ¬(a_d[¬v_d])
                let picked = Formula::path(&format!("{}/{}", level_label(d), value_label(d)));
                let some_unpicked = Formula::Path(
                    PathExpr::label(&level_label(d))
                        .filtered(Formula::label(&value_label(d)).not()),
                );
                picked.iff(some_unpicked.not())
            }
            Quantifier::ForAll => {
                // a_d[v_d] ∧ a_d[¬v_d]
                let with = Formula::Path(
                    PathExpr::label(&level_label(d)).filtered(Formula::label(&value_label(d))),
                );
                let without = Formula::Path(
                    PathExpr::label(&level_label(d))
                        .filtered(Formula::label(&value_label(d)).not()),
                );
                with.and(without)
            }
        };
        conjuncts.push(at_every_chain_node(d, constraint));
    }

    // Matrix at every full chain: ¬(a0/…/a(n−1)[¬ψ′]).
    let psi = substitute(&qbf.matrix, &level_of, n);
    conjuncts.push(at_every_chain_node(n, psi));

    Formula::conj(conjuncts)
}

/// `¬(a0/…/a(depth−1)[¬body])` — `body` holds at *every* chain node of
/// the given depth (at the root itself for depth 0).
fn at_every_chain_node(depth: usize, body: Formula) -> Formula {
    if depth == 0 {
        return body;
    }
    let chain = (0..depth).map(|d| PathExpr::label(&level_label(d)));
    let chain = chain.reduce(PathExpr::then).expect("depth > 0");
    Formula::Path(chain.filtered(body.not())).not()
}

/// ψ′: variables become `../…/v` climbs from a depth-`n` chain node.
fn substitute(matrix: &PropFormula, level_of: &HashMap<Var, usize>, n: usize) -> Formula {
    match matrix {
        PropFormula::Const(true) => Formula::True,
        PropFormula::Const(false) => Formula::False,
        PropFormula::Var(v) => {
            let d = level_of[v];
            // The value node hangs off the depth-(d+1) chain node `a_d`;
            // from depth n that is (n − d − 1) climbs.
            Formula::Path(PathExpr::ancestors_then(n - d - 1, &value_label(d)))
        }
        PropFormula::Not(g) => substitute(g, level_of, n).not(),
        PropFormula::And(fs) => Formula::conj(fs.iter().map(|g| substitute(g, level_of, n))),
        PropFormula::Or(fs) => Formula::disj(fs.iter().map(|g| substitute(g, level_of, n))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_solver::satisfiability::{satisfiable, SatOptions, SatResult};

    fn check(qbf: &Qbf) {
        let f = reduce(qbf);
        let sat = satisfiable(&f, &SatOptions::default());
        assert_ne!(sat, SatResult::BudgetExhausted, "budget on {qbf}");
        assert_eq!(sat.is_sat(), qbf.eval(), "mismatch for {qbf} → {f}");
        // The CDCL-backed assumption expansion must agree with the
        // recursive baseline on the same instance.
        assert_eq!(qbf.solve_via_sat(), qbf.eval(), "2QBF expansion on {qbf}");
    }

    fn v(i: u32) -> PropFormula {
        PropFormula::var(i)
    }

    #[test]
    fn paper_example_is_satisfiable() {
        // ∃x ∀y ∃z : x ∨ (y ∧ ¬z) — true (pick x).
        let qbf = Qbf::new(
            vec![
                (Quantifier::Exists, vec![Var(0)]),
                (Quantifier::ForAll, vec![Var(1)]),
                (Quantifier::Exists, vec![Var(2)]),
            ],
            v(0).or(v(1).and(v(2).not())),
        );
        assert!(qbf.eval());
        check(&qbf);
    }

    #[test]
    fn single_quantifiers() {
        check(&Qbf::new(vec![(Quantifier::Exists, vec![Var(0)])], v(0)));
        check(&Qbf::new(
            vec![(Quantifier::Exists, vec![Var(0)])],
            v(0).and(v(0).not()),
        ));
        check(&Qbf::new(
            vec![(Quantifier::ForAll, vec![Var(0)])],
            v(0).or(v(0).not()),
        ));
        check(&Qbf::new(vec![(Quantifier::ForAll, vec![Var(0)])], v(0)));
    }

    #[test]
    fn forall_exists_dependencies() {
        // ∀x ∃y: x ↔ y — true (y copies x).
        let iff = (v(0).and(v(1))).or(v(0).not().and(v(1).not()));
        check(&Qbf::new(
            vec![
                (Quantifier::ForAll, vec![Var(0)]),
                (Quantifier::Exists, vec![Var(1)]),
            ],
            iff.clone(),
        ));
        // ∃y ∀x: x ↔ y — false (y fixed before x).
        let iff2 = (v(0).and(v(1))).or(v(0).not().and(v(1).not()));
        check(&Qbf::new(
            vec![
                (Quantifier::Exists, vec![Var(1)]),
                (Quantifier::ForAll, vec![Var(0)]),
            ],
            iff2,
        ));
    }

    #[test]
    fn random_small_qbfs_agree_with_baseline() {
        use idar_logic::gen::{random_prop, Rng, XorShift};
        let mut rng = XorShift::new(99);
        for seed in 0..20 {
            let nvars = 2 + rng.below(2); // 2..3 variables
            let mut blocks = Vec::new();
            for i in 0..nvars {
                let q = if rng.bool() {
                    Quantifier::Exists
                } else {
                    Quantifier::ForAll
                };
                blocks.push((q, vec![Var(i as u32)]));
            }
            let matrix = random_prop(seed * 7 + 1, nvars, 5);
            let qbf = Qbf::new(blocks, matrix);
            check(&qbf);
        }
    }
}
