//! Rule-level **dependency analysis**: which schema nodes each guard's
//! atoms resolve to, and — inverted — which access rules an update along a
//! given schema edge can *enable or disable*.
//!
//! Every guard `A(right, e)` is evaluated at the parent node of the edge
//! `e` (Sec. 3.4). Rewriting it into step normal form (Lemma 4.4) makes
//! each atom speak about the evaluation node, one child, or the parent —
//! so each atom resolves *statically* to a schema node: `l` and `l[ψ]`
//! resolve through [`Schema::child_by_label`], `..[ψ]` re-anchors the
//! residual at the (unique) schema parent, and atoms that resolve to no
//! schema node are constants. The resulting map
//!
//! ```text
//!   rule (right, e)  ↦  { (schema node, polarity) … }
//! ```
//!
//! is the *guard dependency relation*; inverted, it says which rules an
//! update can affect: adding or deleting an instance node mapped to
//! schema node `s` can only change the truth of guards that depend on
//! `s`. The static screener (`idar-solver`'s `screen` module) inverts the
//! relation of its `add` rules into the wake lists of its may-fixpoint —
//! when a label joins the may-set, only the rules depending on it are
//! re-examined.

use crate::formula::StepFormula;
use crate::guarded::Right;
use crate::schema::{Schema, SchemaNodeId};
use std::collections::BTreeSet;

/// Identifies one access rule: a right and the schema edge it governs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId {
    /// The access right (`add` or `del`).
    pub right: Right,
    /// The schema node whose incoming edge the rule guards.
    pub edge: SchemaNodeId,
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.right, self.edge)
    }
}

/// The schema nodes a single guard depends on, split by the polarity of
/// the occurrence (under an even or odd number of negations).
///
/// A guard can only change truth value when a node mapped to one of these
/// schema nodes is added or deleted; `pos`/`neg` additionally record the
/// direction: adding a `pos` node can turn the guard true, adding a `neg`
/// node can turn it false (and dually for deletions). Occurrences under
/// both polarities appear in both sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardDeps {
    /// Nodes occurring positively (an addition can enable the guard).
    pub pos: BTreeSet<SchemaNodeId>,
    /// Nodes occurring negatively (an addition can disable the guard).
    pub neg: BTreeSet<SchemaNodeId>,
}

impl GuardDeps {
    /// The dependencies of `guard` (already in step normal form) when
    /// evaluated at schema node `at`.
    pub fn of_step(schema: &Schema, at: SchemaNodeId, guard: &StepFormula) -> GuardDeps {
        let mut deps = GuardDeps::default();
        collect(schema, at, guard, false, &mut deps);
        deps
    }

    /// All dependencies, regardless of polarity.
    pub fn all(&self) -> BTreeSet<SchemaNodeId> {
        self.pos.union(&self.neg).copied().collect()
    }

    /// Does the guard depend on `node` (under either polarity)?
    pub fn depends_on(&self, node: SchemaNodeId) -> bool {
        self.pos.contains(&node) || self.neg.contains(&node)
    }
}

fn collect(schema: &Schema, at: SchemaNodeId, f: &StepFormula, neg: bool, out: &mut GuardDeps) {
    match f {
        StepFormula::True | StepFormula::False | StepFormula::Parent => {}
        StepFormula::Child(l) => {
            if let Some(c) = schema.child_by_label(at, l) {
                record(out, c, neg);
            }
        }
        StepFormula::ChildSat(l, inner) => {
            if let Some(c) = schema.child_by_label(at, l) {
                record(out, c, neg);
                // Atoms inside the residual are evaluated at the child;
                // `l[ψ]` is monotone in `ψ`, so polarity passes through.
                collect(schema, c, inner, neg, out);
            }
        }
        StepFormula::ParentSat(inner) => {
            // The schema parent is unique; `..` itself is structural (its
            // truth never changes under updates), only the residual's
            // atoms — re-anchored at the parent — are dependencies.
            if let Some(p) = schema.parent(at) {
                collect(schema, p, inner, neg, out);
            }
        }
        StepFormula::Not(g) => collect(schema, at, g, !neg, out),
        StepFormula::And(fs) | StepFormula::Or(fs) => {
            fs.iter().for_each(|g| collect(schema, at, g, neg, out))
        }
    }
}

fn record(out: &mut GuardDeps, node: SchemaNodeId, neg: bool) {
    if neg {
        out.neg.insert(node);
    } else {
        out.pos.insert(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Formula;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(x, y), b, c").unwrap())
    }

    #[test]
    fn bare_labels_resolve_to_children() {
        let s = schema();
        let at = SchemaNodeId::ROOT;
        let g = StepFormula::from_formula(&Formula::parse("a & !b").unwrap());
        let d = GuardDeps::of_step(&s, at, &g);
        let a = s.resolve("a").unwrap();
        let b = s.resolve("b").unwrap();
        assert!(d.pos.contains(&a));
        assert!(d.neg.contains(&b));
        assert!(!d.depends_on(s.resolve("c").unwrap()));
    }

    #[test]
    fn unresolvable_labels_are_constants() {
        let s = schema();
        let g = StepFormula::from_formula(&Formula::parse("zz").unwrap());
        let d = GuardDeps::of_step(&s, SchemaNodeId::ROOT, &g);
        assert!(d.pos.is_empty() && d.neg.is_empty());
    }

    #[test]
    fn filters_descend_and_parent_reanchors() {
        let s = schema();
        let a = s.resolve("a").unwrap();
        let x = s.resolve("a/x").unwrap();
        let b = s.resolve("b").unwrap();
        // Evaluated at the root: a[x] depends on both a and a/x.
        let g = StepFormula::from_formula(&Formula::parse("a[x]").unwrap());
        let d = GuardDeps::of_step(&s, SchemaNodeId::ROOT, &g);
        assert!(d.pos.contains(&a) && d.pos.contains(&x));
        // Evaluated at `a`: ..[b] re-anchors the residual at the root.
        let g = StepFormula::from_formula(&Formula::parse("..[!b]").unwrap());
        let d = GuardDeps::of_step(&s, a, &g);
        assert!(d.neg.contains(&b) && d.pos.is_empty());
    }

    #[test]
    fn double_negation_restores_polarity() {
        let s = schema();
        let g = StepFormula::from_formula(&Formula::parse("!!a").unwrap());
        let d = GuardDeps::of_step(&s, SchemaNodeId::ROOT, &g);
        assert!(d.pos.contains(&s.resolve("a").unwrap()));
        assert!(d.neg.is_empty());
    }
}
