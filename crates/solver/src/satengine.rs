//! Bridge from path formulas to the propositional SAT engines: a sound
//! **atom abstraction** that lets [`crate::satisfiability`] and
//! [`crate::np`] consult a [`idar_logic::SatEngine`] before (or instead
//! of) running their exponential searches.
//!
//! Every rooted tree induces a truth value for each *root-evaluated atom*
//! of a [`StepFormula`] — a child step `l[ψ]`, a parent step, or a bare
//! label. Treating those atoms as free propositional variables therefore
//! **over-approximates** the set of realisable valuations:
//!
//! * if the abstraction is UNSAT, no tree satisfies the formula — an
//!   exact negative answer (used by both callers as a pre-check);
//! * if additionally every atom is a bare child label and no schema
//!   constrains the tree, the abstraction is **exact**: any subset of
//!   labels is realised by a root with exactly those children, so a SAT
//!   model converts directly into a witness tree. This is precisely the
//!   shape of the Cor. 4.5 NP-hardness encodings, which turns the
//!   hottest fuzz/benchmark path into a single CDCL call.
//!
//! Parent atoms are root-evaluated too, so `..`-shaped atoms fold to
//! constant false rather than fresh variables.

use idar_core::formula::StepFormula;
use idar_logic::prop::{PropFormula, Var};
use std::collections::HashMap;

/// The propositional abstraction of a root-evaluated step formula.
pub struct Abstraction {
    /// The abstracted formula over atom variables `0..atoms.len()`.
    pub prop: PropFormula,
    /// Atom `i` is variable `i` in [`Abstraction::prop`].
    pub atoms: Vec<StepFormula>,
    /// True when every atom is a bare child label (`Child`), making the
    /// abstraction exact over unconstrained trees.
    pub labels_only: bool,
    /// The variable of each atom.
    index: HashMap<StepFormula, usize>,
}

impl Abstraction {
    /// Abstract `f`, mapping each distinct root-evaluated atom to one
    /// propositional variable.
    pub fn of(f: &StepFormula) -> Abstraction {
        let mut abs = Abstraction {
            prop: PropFormula::Const(true),
            atoms: Vec::new(),
            labels_only: true,
            index: HashMap::new(),
        };
        abs.prop = abs.translate(f);
        abs
    }

    /// The label of atom variable `v`, when that atom is a bare child
    /// label.
    pub fn label_of(&self, v: Var) -> Option<&str> {
        match &self.atoms[v.index()] {
            StepFormula::Child(l) => Some(l),
            _ => None,
        }
    }

    fn var_for(&mut self, atom: &StepFormula) -> PropFormula {
        let i = *self.index.entry(atom.clone()).or_insert_with(|| {
            self.atoms.push(atom.clone());
            self.atoms.len() - 1
        });
        if !matches!(atom, StepFormula::Child(_)) {
            self.labels_only = false;
        }
        PropFormula::var(i as u32)
    }

    fn translate(&mut self, f: &StepFormula) -> PropFormula {
        match f {
            StepFormula::True => PropFormula::Const(true),
            StepFormula::False => PropFormula::Const(false),
            // `..` evaluated at the root is false, always.
            StepFormula::Parent | StepFormula::ParentSat(_) => PropFormula::Const(false),
            StepFormula::Child(_) | StepFormula::ChildSat(..) => self.var_for(f),
            StepFormula::Not(g) => self.translate(g).not(),
            StepFormula::And(fs) => PropFormula::conj(fs.iter().map(|g| self.translate(g))),
            StepFormula::Or(fs) => PropFormula::disj(fs.iter().map(|g| self.translate(g))),
        }
    }
}

use idar_logic::prop::BRUTE_FORCE_MAX_VARS;

/// Conflict (CDCL) / decision (DPLL) budget for engine consultations.
/// Generous for the abstraction sizes the solvers produce — the Cor. 4.5
/// encodings decide in a handful of conflicts — but it keeps the
/// workspace's honest-bounded-search contract: an adversarially hard
/// abstraction exhausts the budget and the caller falls back to its own
/// (bounded) search instead of hanging in an unbudgeted SAT call.
const ENGINE_CONSULT_BUDGET: u64 = 100_000;

/// Tseitin-encode an abstraction and solve it with `engine`, under the
/// consultation budget above.
///
/// `None` means the engine could not be consulted (brute force on a CNF
/// beyond its variable cap, or the budget ran out); `Some(model)` is the
/// engine's verdict on the abstraction (remember it over-approximates
/// tree satisfiability).
pub fn solve_abstraction(
    abs: &Abstraction,
    engine: idar_logic::Engine,
) -> Option<Option<idar_logic::Assignment>> {
    solve_abstraction_budgeted(&abs.prop, abs.atoms.len(), engine, ENGINE_CONSULT_BUDGET)
}

/// [`solve_abstraction`] generalised to any propositional formula over
/// `min_vars` atom variables and an explicit budget — the static
/// screener's guard abstractions route through here with their own
/// (smaller) budget.
pub fn solve_abstraction_budgeted(
    prop: &PropFormula,
    min_vars: usize,
    engine: idar_logic::Engine,
    budget: u64,
) -> Option<Option<idar_logic::Assignment>> {
    let cnf = prop.to_cnf_tseitin(min_vars);
    if engine == idar_logic::Engine::BruteForce && cnf.vars > BRUTE_FORCE_MAX_VARS {
        return None;
    }
    engine.solve_limited(&cnf, budget)
}

/// Sound UNSAT pre-check: `true` means **no** rooted tree satisfies `f`
/// at its root (with or without a schema). `false` is inconclusive.
pub fn surely_unsatisfiable(f: &StepFormula, engine: idar_logic::Engine) -> bool {
    matches!(solve_abstraction(&Abstraction::of(f), engine), Some(None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::Formula;
    use idar_logic::Engine;

    fn step(s: &str) -> StepFormula {
        StepFormula::from_formula(&Formula::parse(s).unwrap())
    }

    #[test]
    fn label_formulas_are_labels_only() {
        let abs = Abstraction::of(&step("(a | b) & !c"));
        assert!(abs.labels_only);
        assert_eq!(abs.atoms.len(), 3);
        assert_eq!(abs.label_of(Var(0)), Some("a"));
    }

    #[test]
    fn nested_atoms_disable_exactness() {
        assert!(!Abstraction::of(&step("a[b]")).labels_only);
        assert!(!Abstraction::of(&step("a & b[../c]")).labels_only);
        // Parent steps fold to constant false (root evaluation), so they
        // do not cost exactness.
        assert!(Abstraction::of(&step("a & !..")).labels_only);
    }

    #[test]
    fn shared_atoms_share_variables() {
        let abs = Abstraction::of(&step("a & (a | b)"));
        assert_eq!(abs.atoms.len(), 2);
    }

    #[test]
    fn unsat_precheck_is_sound() {
        for engine in [Engine::Cdcl, Engine::Dpll] {
            assert!(surely_unsatisfiable(&step("a & !a"), engine));
            assert!(surely_unsatisfiable(&step("(a | b) & !a & !b"), engine));
            assert!(surely_unsatisfiable(&step("a[b] & !a[b]"), engine));
            // `..` at the root is constant false.
            assert!(surely_unsatisfiable(&step(".."), engine));
            assert!(!surely_unsatisfiable(&step("a | b"), engine));
            // Inconclusive ≠ satisfiable: the abstraction misses the
            // dependency between a[b] and a, and that is fine.
            assert!(!surely_unsatisfiable(&step("a[b] & !a"), engine));
        }
    }
}
