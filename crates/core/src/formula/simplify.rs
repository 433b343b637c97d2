//! Formula simplification.
//!
//! The reduction compilers (Thm 4.1, Thm 4.6, Cor 4.7, …) generate guards
//! mechanically — long conjunction/disjunction chains studded with
//! constants and repeated atoms. Simplification keeps them readable and
//! makes every later evaluation cheaper. The rewrite is semantics-
//! preserving (property-tested in `tests/`) and positivity-preserving
//! (it never *introduces* a negation, so a simplified `A+` rule stays
//! in `A+`).
//!
//! Rules applied bottom-up to a fixpoint in one pass:
//!
//! * constant folding: `¬true → false`, `true ∧ f → f`, `false ∧ f →
//!   false`, `true ∨ f → true`, `false ∨ f → f`;
//! * double negation: `¬¬f → f`;
//! * idempotence: `f ∧ f → f`, `f ∨ f → f` (anywhere in the chain, by
//!   structural equality);
//! * complement: `f ∧ ¬f → false`, `f ∨ ¬f → true` (anywhere in the
//!   chain);
//! * filter folding: `p[true] → p`, `p[false] → false` (as a path the
//!   latter has no targets — the enclosing formula collapses).

use super::{Chain, Formula, PathExpr, PathStep};
use std::collections::HashSet;

impl Formula {
    /// Return a semantics-equivalent, usually smaller formula. Idempotent.
    pub fn simplified(&self) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Path(p) => match simplify_path(p) {
                // `p[false]` anywhere kills the whole path atom.
                None => Formula::False,
                Some(p) => Formula::Path(p),
            },
            Formula::Not(g) => match g.simplified() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(inner) => *inner, // ¬¬f
                other => Formula::Not(Box::new(other)),
            },
            Formula::And(fs) => rebuild(fs, /*is_and=*/ true),
            Formula::Or(fs) => rebuild(fs, /*is_and=*/ false),
        }
    }
}

/// Rebuild a conjunction/disjunction from its simplified operands with
/// constant folding, deduplication and complement detection.
fn rebuild(items: &[Formula], is_and: bool) -> Formula {
    let (absorb, neutral) = if is_and {
        (Formula::False, Formula::True)
    } else {
        (Formula::True, Formula::False)
    };
    let mut kept: Vec<Formula> = Vec::with_capacity(items.len());
    let mut seen: HashSet<Formula> = HashSet::with_capacity(items.len());
    // A simplified operand may itself be a chain of the same kind (`¬¬`
    // removed around it); its operands join this chain.
    let simplified = items
        .iter()
        .flat_map(|f| f.simplified().operands(is_and).unwrap_or_else(|g| vec![g]));
    for item in simplified {
        if item == absorb {
            return absorb;
        }
        if item == neutral || seen.contains(&item) {
            continue; // the identity, or idempotence
        }
        // Complement: f together with ¬f.
        let complement = match &item {
            Formula::Not(inner) => (**inner).clone(),
            other => Formula::Not(Box::new(other.clone())),
        };
        if seen.contains(&complement) {
            return absorb; // f ∧ ¬f = false / f ∨ ¬f = true
        }
        seen.insert(item.clone());
        kept.push(item);
    }
    if is_and {
        Formula::conj(kept)
    } else {
        Formula::disj(kept)
    }
}

/// Simplify a path expression; `None` means the path provably has no
/// targets (a `[false]` filter somewhere).
fn simplify_path(p: &PathExpr) -> Option<PathExpr> {
    let mut steps = Vec::with_capacity(p.steps().len());
    for step in p.steps() {
        match step {
            PathStep::Filter(f) => match f.simplified() {
                Formula::True => {}
                Formula::False => return None,
                other => steps.push(PathStep::Filter(Box::new(other))),
            },
            step => steps.push(step.clone()),
        }
    }
    Some(PathExpr::from_steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn simp(s: &str) -> String {
        Formula::parse(s).unwrap().simplified().to_string()
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simp("true & a"), "a");
        assert_eq!(simp("a & true"), "a");
        assert_eq!(simp("false & a"), "false");
        assert_eq!(simp("true | a"), "true");
        assert_eq!(simp("false | a"), "a");
        assert_eq!(simp("!true"), "false");
        assert_eq!(simp("!false"), "true");
    }

    #[test]
    fn double_negation() {
        assert_eq!(simp("!!a"), "a");
        assert_eq!(simp("!!!a"), "!a");
        assert_eq!(simp("!!(a & b)"), "a & b");
    }

    #[test]
    fn idempotence_and_complement() {
        assert_eq!(simp("a & a"), "a");
        assert_eq!(simp("a | a | a"), "a");
        assert_eq!(simp("a & !a"), "false");
        assert_eq!(simp("a | !a"), "true");
        assert_eq!(simp("a & b & !a"), "false");
        assert_eq!(simp("(a | b) & (a | b)"), "a | b");
    }

    #[test]
    fn filters_fold() {
        assert_eq!(simp("a[true]"), "a");
        assert_eq!(simp("a[false]"), "false");
        assert_eq!(simp("a[b & true]"), "a[b]");
        assert_eq!(simp("a[b | !b]"), "a");
        assert_eq!(simp("a/b[false]/c"), "false");
        assert_eq!(simp("!a[false]"), "true");
    }

    #[test]
    fn nested_chains() {
        assert_eq!(simp("(a & true) & (b & true)"), "a & b");
        assert_eq!(simp("a & (b & (c & true))"), "a & b & c");
        assert_eq!(simp("false | (a | false) | b"), "a | b");
    }

    #[test]
    fn preserves_positivity() {
        for s in ["a & true", "a[b | false]", "a | a", "x & (y | true)"] {
            let f = Formula::parse(s).unwrap();
            assert!(f.is_positive());
            assert!(f.simplified().is_positive(), "{s}");
        }
    }

    #[test]
    fn idempotent() {
        for s in [
            "!(a & !a) | b[c & true]",
            "a & b & a & !c",
            "x[y[z | false] & true]",
        ] {
            let once = Formula::parse(s).unwrap().simplified();
            assert_eq!(once, once.simplified(), "{s}");
        }
    }

    #[test]
    fn semantics_preserved_on_examples() {
        let schema = Arc::new(Schema::parse("a(b, c), s, d").unwrap());
        let instances = ["", "a", "a(b), s", "a(b, c), s, d", "a(c), d"];
        let formulas = [
            "a[b & true] | false",
            "!(!a) & (s | !s)",
            "a[b | b] & !a[false]",
            "(s & true) | (d & !d)",
            "a & a & s",
        ];
        for it in instances {
            let inst = Instance::parse(schema.clone(), it).unwrap();
            for ft in formulas {
                let f = Formula::parse(ft).unwrap();
                assert_eq!(
                    crate::formula::holds_at_root(&inst, &f),
                    crate::formula::holds_at_root(&inst, &f.simplified()),
                    "{ft} on {it}"
                );
            }
        }
    }

    #[test]
    fn shrinks_generated_guards() {
        // A Thm 4.6-style mechanical guard shrinks substantially.
        let g =
            Formula::parse("!(t0 | t1 | t2) & !(t0 | t1 | t2) & n1 & (true & n2) | false").unwrap();
        let s = g.simplified();
        assert!(s.size() < g.size());
        assert_eq!(s.to_string(), "!(t0 | t1 | t2) & n1 & n2");
    }
}
