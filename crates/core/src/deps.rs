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
//!   rule (right, e)  ↦  { schema node … }
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

/// The schema nodes `guard` (already in step normal form) depends on
/// when evaluated at schema node `at`, ascending and each once.
///
/// The guard can only change truth value when a node mapped to one of
/// them is added or deleted — in either direction, since an occurrence
/// under a negation flips with the node's presence too.
pub fn guard_deps(schema: &Schema, at: SchemaNodeId, guard: &StepFormula) -> Vec<SchemaNodeId> {
    let mut deps = Vec::new();
    collect(schema, at, guard, &mut deps);
    deps.sort_unstable();
    deps.dedup();
    deps
}

fn collect(schema: &Schema, at: SchemaNodeId, f: &StepFormula, out: &mut Vec<SchemaNodeId>) {
    match f {
        StepFormula::True | StepFormula::False | StepFormula::Parent => {}
        StepFormula::Child(l) => out.extend(schema.child_by_label(at, l)),
        StepFormula::ChildSat(l, inner) => {
            if let Some(c) = schema.child_by_label(at, l) {
                out.push(c);
                // Atoms inside the residual are evaluated at the child.
                collect(schema, c, inner, out);
            }
        }
        StepFormula::ParentSat(inner) => {
            // The schema parent is unique; `..` itself is structural (its
            // truth never changes under updates), only the residual's
            // atoms — re-anchored at the parent — are dependencies.
            if let Some(p) = schema.parent(at) {
                collect(schema, p, inner, out);
            }
        }
        StepFormula::Not(g) => collect(schema, at, g, out),
        StepFormula::And(fs) | StepFormula::Or(fs) => {
            fs.iter().for_each(|g| collect(schema, at, g, out))
        }
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

    fn deps(s: &Schema, at: SchemaNodeId, guard: &str) -> Vec<SchemaNodeId> {
        guard_deps(
            s,
            at,
            &StepFormula::from_formula(&Formula::parse(guard).unwrap()),
        )
    }

    #[test]
    fn bare_labels_resolve_to_children() {
        let s = schema();
        let a = s.resolve("a").unwrap();
        let b = s.resolve("b").unwrap();
        // Negated atoms count too; `c` does not occur.
        assert_eq!(deps(&s, SchemaNodeId::ROOT, "a & !b"), [a, b]);
    }

    #[test]
    fn unresolvable_labels_are_constants() {
        let s = schema();
        assert!(deps(&s, SchemaNodeId::ROOT, "zz").is_empty());
    }

    #[test]
    fn filters_descend_and_parent_reanchors() {
        let s = schema();
        let a = s.resolve("a").unwrap();
        let x = s.resolve("a/x").unwrap();
        let b = s.resolve("b").unwrap();
        // Evaluated at the root: a[x] depends on both a and a/x.
        assert_eq!(deps(&s, SchemaNodeId::ROOT, "a[x]"), [a, x]);
        // Evaluated at `a`: ..[b] re-anchors the residual at the root.
        assert_eq!(deps(&s, a, "..[!b]"), [b]);
    }

    #[test]
    fn double_negation_restores_polarity() {
        let s = schema();
        let a = s.resolve("a").unwrap();
        assert_eq!(deps(&s, SchemaNodeId::ROOT, "!!a"), [a]);
        // Repeated occurrences are listed once.
        assert_eq!(
            deps(&s, SchemaNodeId::ROOT, "a | !a & a[y]"),
            [a, s.resolve("a/y").unwrap()]
        );
    }
}
