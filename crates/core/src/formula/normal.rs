//! The *step normal form* of Lemma 4.4.
//!
//! The lemma's proof rewrites any formula — in linear time and to linear
//! size — into the grammar
//!
//! ```text
//! F' ::= P' | ¬F' | F' ∧ F' | F' ∨ F'
//! P' ::= L | .. | L[F'] | ..[F']
//! ```
//!
//! using the equivalences
//!
//! ```text
//! (p1/p2)[ψ]  ≡ p1[p2[ψ]]         (p1[ψ1])[ψ2] ≡ p1[ψ1 ∧ ψ2]
//! (p1/p2)/p3  ≡ p1/(p2/p3)        (p1[ψ])/p2   ≡ p1[ψ ∧ p2]
//! l/p         ≡ l[p]              ../p         ≡ ..[p]
//! ```
//!
//! In step normal form every path expression is a *single* child or parent
//! step with an optional residual filter, which is what makes the witness
//! construction of Lemma 4.4 (and the tableau of Cor. 4.5) possible: each
//! obligation speaks about the current node, one child, or the parent.

use super::{junction, Chain, Formula, PathExpr, PathStep};
use crate::instance::{InstNodeId, Instance};

/// A formula in the Lemma 4.4 step normal form. Like [`Formula`], it
/// stores `∧`/`∨` chains n-ary and flat, each of at least two operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StepFormula {
    /// `true` (extension constant, carried through normalisation).
    True,
    /// `false`.
    False,
    /// `l` — some child is labelled `l`.
    Child(String),
    /// `..` — the node has a parent.
    Parent,
    /// `l[ψ]` — some child labelled `l` satisfies `ψ`.
    ChildSat(String, Box<StepFormula>),
    /// `..[ψ]` — the node has a parent and it satisfies `ψ`.
    ParentSat(Box<StepFormula>),
    /// `¬ψ`.
    Not(Box<StepFormula>),
    /// `ψ ∧ … ∧ ψ`.
    And(Vec<StepFormula>),
    /// `ψ ∨ … ∨ ψ`.
    Or(Vec<StepFormula>),
}

impl StepFormula {
    /// Normalise an arbitrary formula (Lemma 4.4 rewriting, left-to-right).
    /// The result has size linear in the input's size.
    pub fn from_formula(f: &Formula) -> StepFormula {
        match f {
            Formula::True => StepFormula::True,
            Formula::False => StepFormula::False,
            Formula::Path(p) => norm_path(p),
            Formula::Not(g) => StepFormula::Not(Box::new(Self::from_formula(g))),
            Formula::And(fs) => junction(fs.iter().map(Self::from_formula), true),
            Formula::Or(fs) => junction(fs.iter().map(Self::from_formula), false),
        }
    }

    /// Convert back into the surface AST (already in the `F'` grammar).
    pub fn to_formula(&self) -> Formula {
        match self {
            StepFormula::True => Formula::True,
            StepFormula::False => Formula::False,
            StepFormula::Child(l) => Formula::label(l),
            StepFormula::Parent => Formula::Path(PathExpr::parent()),
            StepFormula::ChildSat(l, f) => {
                Formula::Path(PathExpr::label(l).filtered(f.to_formula()))
            }
            StepFormula::ParentSat(f) => f.to_formula().at_parent(),
            StepFormula::Not(f) => f.to_formula().not(),
            StepFormula::And(fs) => Formula::conj(fs.iter().map(StepFormula::to_formula)),
            StepFormula::Or(fs) => Formula::disj(fs.iter().map(StepFormula::to_formula)),
        }
    }

    /// Push negations down to path atoms (negation normal form). The result
    /// contains `Not` only directly above `Child`, `Parent`, `ChildSat`,
    /// `ParentSat` — the shape the Lemma 4.4 *selection* rules assume.
    pub fn nnf(&self) -> StepFormula {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, neg: bool) -> StepFormula {
        match self {
            StepFormula::True if neg => StepFormula::False,
            StepFormula::False if neg => StepFormula::True,
            StepFormula::Not(f) => f.nnf_inner(!neg),
            // De Morgan: under a negation `∧` becomes `∨` and back.
            StepFormula::And(fs) => junction(fs.iter().map(|f| f.nnf_inner(neg)), !neg),
            StepFormula::Or(fs) => junction(fs.iter().map(|f| f.nnf_inner(neg)), neg),
            // Path atoms keep their *inner* formulas un-negated: `¬l[ψ]`
            // means "no l-child satisfies ψ", not "some child fails ψ".
            atom if neg => StepFormula::Not(Box::new(atom.clone())),
            atom => atom.clone(),
        }
    }

    /// Number of AST nodes; a chain of `k` operands counts `k − 1`
    /// connectives.
    pub fn size(&self) -> usize {
        match self {
            StepFormula::True
            | StepFormula::False
            | StepFormula::Child(_)
            | StepFormula::Parent => 1,
            StepFormula::ChildSat(_, f) | StepFormula::ParentSat(f) | StepFormula::Not(f) => {
                1 + f.size()
            }
            StepFormula::And(fs) | StepFormula::Or(fs) => {
                let ops: usize = fs.iter().map(StepFormula::size).sum();
                // The empty chain is its identity constant.
                (ops + fs.len().saturating_sub(1)).max(1)
            }
        }
    }

    /// Direct evaluation (same semantics as evaluating `to_formula()`).
    pub fn holds(&self, inst: &Instance, n: InstNodeId) -> bool {
        match self {
            StepFormula::True => true,
            StepFormula::False => false,
            StepFormula::Child(l) => inst.children_with_label(n, l).next().is_some(),
            StepFormula::Parent => inst.parent(n).is_some(),
            StepFormula::ChildSat(l, f) => inst.children_with_label(n, l).any(|c| f.holds(inst, c)),
            StepFormula::ParentSat(f) => match inst.parent(n) {
                Some(p) => f.holds(inst, p),
                None => false,
            },
            StepFormula::Not(f) => !f.holds(inst, n),
            StepFormula::And(fs) => fs.iter().all(|f| f.holds(inst, n)),
            StepFormula::Or(fs) => fs.iter().any(|f| f.holds(inst, n)),
        }
    }
}

impl Chain for StepFormula {
    fn chain(ops: Vec<StepFormula>, and: bool) -> StepFormula {
        match (ops.is_empty(), and) {
            (true, true) => StepFormula::True,
            (true, false) => StepFormula::False,
            (false, true) => StepFormula::And(ops),
            (false, false) => StepFormula::Or(ops),
        }
    }

    fn operands(self, and: bool) -> Result<Vec<StepFormula>, StepFormula> {
        match (self, and) {
            (StepFormula::And(fs), true) | (StepFormula::Or(fs), false) => Ok(fs),
            (f, _) => Err(f),
        }
    }
}

/// Normalise a path expression to one of the four `P'` atoms: a right
/// fold over its steps. Each move takes the normal form of the rest of
/// the path as its filter (`l/p ≡ l[p]`, `../p ≡ ..[p]`), conjoined after
/// the filters written on that move (`(p1[ψ])/p2 ≡ p1[ψ ∧ p2]`,
/// `(p1[ψ1])[ψ2] ≡ p1[ψ1 ∧ ψ2]`).
fn norm_path(p: &PathExpr) -> StepFormula {
    let mut rest: Option<StepFormula> = None;
    // The filters after the move being folded, last first.
    let mut filters: Vec<StepFormula> = Vec::new();
    for step in p.steps().iter().rev() {
        let cond = match step {
            PathStep::Filter(f) => {
                filters.push(StepFormula::from_formula(f));
                continue;
            }
            _ if filters.is_empty() && rest.is_none() => None,
            _ => {
                let ops = filters.drain(..).rev().chain(rest.take());
                Some(junction(ops, true))
            }
        };
        rest = Some(match (step, cond) {
            (PathStep::Parent, None) => StepFormula::Parent,
            (PathStep::Parent, Some(c)) => StepFormula::ParentSat(Box::new(c)),
            (PathStep::Label(l), None) => StepFormula::Child(l.clone()),
            (PathStep::Label(l), Some(c)) => StepFormula::ChildSat(l.clone(), Box::new(c)),
            (PathStep::Filter(_), _) => unreachable!("filters are collected above"),
        });
    }
    rest.expect("a path starts with a move")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn norm(s: &str) -> StepFormula {
        StepFormula::from_formula(&Formula::parse(s).unwrap())
    }

    #[test]
    fn seq_becomes_nested_filter() {
        // a/p/b ≡ a[p[b]]
        assert_eq!(norm("a/p/b").to_formula().to_string(), "a[p[b]]");
    }

    #[test]
    fn filter_merging() {
        // a[x][y] ≡ a[x ∧ y]
        assert_eq!(norm("a[x][y]").to_formula().to_string(), "a[x & y]");
        // (a[x])/b ≡ a[x ∧ b]
        assert_eq!(norm("a[x]/b").to_formula().to_string(), "a[x & b]");
    }

    #[test]
    fn parent_steps() {
        assert_eq!(norm("../../s").to_formula().to_string(), "..[..[s]]");
        assert_eq!(norm("..[x]/y").to_formula().to_string(), "..[x & y]");
    }

    #[test]
    fn size_stays_linear() {
        // Repeated normalisation must not blow up.
        let f = Formula::parse("(a/b/c/d)[x & y]/e[..[z]]").unwrap();
        let n = StepFormula::from_formula(&f);
        assert!(n.size() <= 3 * f.size(), "{} vs {}", n.size(), f.size());
    }

    #[test]
    fn nnf_pushes_negation() {
        let f = norm("!(a & !b)").nnf();
        assert_eq!(f.to_formula().to_string(), "!a | b");
        // Negation stops at path atoms.
        let g = norm("!a[b | c]").nnf();
        assert_eq!(g.to_formula().to_string(), "!a[b | c]");
    }

    #[test]
    fn semantics_preserved_on_examples() {
        let schema = Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap());
        let instances = [
            "",
            "a(n)",
            "a(n, d, p(b, e)), s",
            "a(n, p(b), p(b, e)), s, d(r(r)), f",
            "a(p, p(b, e), p(e)), d(a, r)",
        ];
        let formulas = [
            "!s & a[n & d & p] & !a/p[!b | !e]",
            "d[a | r] & !f",
            "a/p[!b | !e]",
            "!f | d[a | r]",
            "d[!(a & r)]",
            "a[../s]",
            "a/p/../n",
            "a[p[../../f | b]]",
        ];
        for it in &instances {
            let inst = Instance::parse(schema.clone(), it).unwrap();
            for ft in &formulas {
                let f = Formula::parse(ft).unwrap();
                let n = StepFormula::from_formula(&f);
                let direct = crate::formula::holds_at_root(&inst, &f);
                assert_eq!(
                    direct,
                    n.holds(&inst, InstNodeId::ROOT),
                    "normal form diverges for {ft} on {it}"
                );
                assert_eq!(
                    direct,
                    crate::formula::holds_at_root(&inst, &n.to_formula()),
                    "to_formula diverges for {ft} on {it}"
                );
                // nnf preserves semantics too.
                assert_eq!(
                    direct,
                    n.nnf().holds(&inst, InstNodeId::ROOT),
                    "nnf diverges for {ft} on {it}"
                );
            }
        }
    }
}
