//! **Corollary 4.2**: deletions can be compiled away — undecidability
//! holds "even if only additions and forms of depth 3 are considered".
//!
//! "(1) every deletion of an edge is replaced with the addition of an edge
//! under that edge that ends in a node with a special label, say
//! `deleted`, and (2) in all formulas we replace path expressions of the
//! form `l` with `l[¬deleted]`."
//!
//! Making the sketch executable requires three care points, all documented
//! here and enforced by the construction:
//!
//! * a node may only be *marked* deleted when it is a **live leaf** — its
//!   children (if any) are all marked — mirroring the original's
//!   leaf-only deletion;
//! * additions under a marked node must be blocked (`∧ ¬deleted` on every
//!   addition guard), otherwise dead stubs could grow live children;
//! * the original deletion guard `A(del, e)` is evaluated at the edge's
//!   *parent*, while the replacing `deleted`-marker addition is evaluated
//!   at the edge's *end node*; the guard is re-homed with
//!   [`Formula::at_parent`] (`..[·]`).
//!
//! The transformed form's reachable instances project onto the original's
//! via [`live_projection`] (drop marked subtrees), and completability is
//! preserved.

use idar_core::{
    AccessRules, Formula, GuardedForm, InstNodeId, Instance, PathExpr, PathStep, Right,
    SchemaBuilder, SchemaNodeId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The tombstone label.
pub const DELETED: &str = "deleted";

/// Why a form cannot be transformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservedDeleted;

impl std::fmt::Display for ReservedDeleted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema already uses the label `{DELETED}`")
    }
}
impl std::error::Error for ReservedDeleted {}

/// Rewrite a formula: every label step `l` becomes `l[¬deleted]`.
/// (`..` is untouched: ancestors of live nodes are always live.)
pub fn rewrite_formula(f: &Formula) -> Formula {
    f.map_paths(&mut |step, out| {
        out.push(step.clone());
        if let PathStep::Label(_) = step {
            out.push(PathStep::Filter(Box::new(Formula::label(DELETED).not())));
        }
    })
}

/// Compile `G` into an addition-only guarded form of depth `depth(G) + 1`
/// with the same completability.
pub fn reduce(g: &GuardedForm) -> Result<GuardedForm, ReservedDeleted> {
    let schema = g.schema();
    for n in schema.node_ids() {
        if schema.label(n) == DELETED {
            return Err(ReservedDeleted);
        }
    }

    // Extended schema: original nodes (ids preserved by creation order),
    // plus a `deleted` child under every non-root original node.
    let mut b = SchemaBuilder::new();
    for old in schema.edge_ids() {
        let parent = schema.parent(old).expect("edge");
        let ne = b.child(parent, schema.label(old)).expect("same labels");
        debug_assert_eq!(ne, old);
    }
    let mut marker_of: HashMap<SchemaNodeId, SchemaNodeId> = HashMap::new();
    for old in schema.edge_ids() {
        let m = b.child(old, DELETED).expect("fresh label per node");
        marker_of.insert(old, m);
    }
    let new_schema = Arc::new(b.build());

    let not_deleted = Formula::label(DELETED).not();
    let mut rules = AccessRules::new(&new_schema);
    for old in schema.edge_ids() {
        // Original addition, blocked under marked parents.
        let add = rewrite_formula(g.rules().get(Right::Add, old)).and(not_deleted.clone());
        rules.set(Right::Add, old, add);

        // The tombstone addition replaces the deletion. Evaluated at the
        // end node of `old`, so the original guard is re-homed one level
        // up. Live-leaf check: every child label without an unmarked node.
        let live_leaf = Formula::conj(schema.children(old).iter().map(|&c| {
            Formula::Path(PathExpr::label(schema.label(c)).filtered(not_deleted.clone())).not()
        }));
        let guard = rewrite_formula(g.rules().get(Right::Del, old))
            .at_parent()
            .and(not_deleted.clone())
            .and(live_leaf);
        rules.set(Right::Add, marker_of[&old], guard);
        // No deletions anywhere (default false for Del; markers included).
    }

    // Initial instance: same shape over the new schema (ids preserved).
    let mut initial = Instance::empty(new_schema.clone());
    let mut node_map = HashMap::new();
    node_map.insert(InstNodeId::ROOT, InstNodeId::ROOT);
    for n in g.initial().live_nodes() {
        if n == InstNodeId::ROOT {
            continue;
        }
        let p = node_map[&g.initial().parent(n).expect("non-root")];
        let nn = initial
            .add_child(p, g.initial().schema_node(n))
            .expect("same schema ids");
        node_map.insert(n, nn);
    }

    let completion = rewrite_formula(g.completion());
    Ok(GuardedForm::new(new_schema, rules, initial, completion))
}

/// Project an instance of the transformed schema back onto the original:
/// drop every marked node (and its tombstone) and all tombstones.
pub fn live_projection(original_schema: &Arc<idar_core::Schema>, inst: &Instance) -> Instance {
    let mut out = Instance::empty(original_schema.clone());
    let mut map: HashMap<InstNodeId, InstNodeId> = HashMap::new();
    map.insert(InstNodeId::ROOT, InstNodeId::ROOT);
    for n in inst.live_nodes() {
        if n == InstNodeId::ROOT {
            continue;
        }
        if inst.label(n) == DELETED {
            continue;
        }
        // Marked ⇔ has a tombstone child.
        if inst.children_with_label(n, DELETED).next().is_some() {
            continue;
        }
        let p = inst.parent(n).expect("non-root");
        let Some(&np) = map.get(&p) else {
            continue; // parent was dropped: unreachable for live nodes
        };
        // Schema ids of originals are preserved by construction.
        let nn = out
            .add_child(np, inst.schema_node(n))
            .expect("original edge");
        map.insert(n, nn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::Schema;
    use idar_solver::{completability, CompletabilityOptions, ExploreLimits, Verdict};

    fn form(
        schema: &str,
        rules: &[(&str, &str, &str)],
        initial: &str,
        completion: &str,
    ) -> GuardedForm {
        let schema = Arc::new(Schema::parse(schema).unwrap());
        let mut table = AccessRules::new(&schema);
        for (l, add, del) in rules {
            table.set_both(
                schema.resolve(l).unwrap(),
                Formula::parse(add).unwrap(),
                Formula::parse(del).unwrap(),
            );
        }
        let init = Instance::parse(schema.clone(), initial).unwrap();
        GuardedForm::new(schema, table, init, Formula::parse(completion).unwrap())
    }

    #[test]
    fn rewrite_examples() {
        let f = Formula::parse("a/p[!b | !e]").unwrap();
        assert_eq!(
            rewrite_formula(&f).to_string(),
            "a[!deleted]/p[!deleted][!b[!deleted] | !e[!deleted]]"
        );
        let g = Formula::parse("../s").unwrap();
        assert_eq!(rewrite_formula(&g).to_string(), "../s[!deleted]");
    }

    #[test]
    fn depth_increases_by_one_and_no_deletions() {
        let g = form("a, b", &[("a", "true", "true")], "", "a");
        let g2 = reduce(&g).unwrap();
        assert_eq!(g2.schema().depth(), g.schema().depth() + 1);
        // Every deletion guard is false.
        for e in g2.schema().edge_ids() {
            assert_eq!(g2.rules().get(Right::Del, e), &Formula::False);
        }
    }

    #[test]
    fn completability_preserved() {
        let cases = [
            // Needs a real deletion: φ = b ∧ ¬a with a initially present.
            (
                "a, b",
                vec![("a", "false", "b"), ("b", "!b", "false")],
                "a",
                "b & !a",
                Verdict::Holds,
            ),
            // Incompletable: a is frozen. (¬b add guard keeps the
            // transformed run space finite so `Fails` stays provable.)
            (
                "a, b",
                vec![("b", "!b", "false")],
                "a",
                "!a & b",
                Verdict::Fails,
            ),
            // Depth 2 with deletion of an inner leaf: p is addable only
            // before submission and deletable only after, so the one
            // completing schedule is add a, add p, add s, delete p. The
            // pre-submission add guard also keeps the *transformed* form
            // finite (a marked p cannot be re-added once s exists).
            (
                "a(p), s",
                vec![
                    ("a", "!a", "false"),
                    ("a/p", "!p & ..[!s]", "..[s]"),
                    ("s", "a[p] & !s", "false"),
                ],
                "",
                "s & !a[p]",
                Verdict::Holds,
            ),
        ];
        for (schema, rules, initial, completion, expected) in cases {
            let g = form(schema, &rules, initial, completion);
            let limits = ExploreLimits {
                multiplicity_cap: Some(2),
                ..ExploreLimits::small()
            };
            let opts = CompletabilityOptions::with_limits(limits);
            let before = completability(&g, &opts).verdict;
            assert_eq!(before, expected, "original {completion}");
            let g2 = reduce(&g).unwrap();
            let after = completability(&g2, &opts).verdict;
            // The transformed space is finite in these cases (every add
            // guard is ¬-guarded), so verdicts must match exactly.
            assert_eq!(before, after, "transformed {completion}");
        }
    }

    #[test]
    fn marking_requires_live_leaf() {
        let g = form(
            "a(p)",
            &[("a", "!a", "true"), ("a/p", "!p", "true")],
            "a(p)",
            "!a",
        );
        let g2 = reduce(&g).unwrap();
        let root = InstNodeId::ROOT;
        let mut inst = g2.initial().clone();
        let a_node = inst.children_with_label(root, "a").next().unwrap();
        let p_node = inst.children_with_label(a_node, "p").next().unwrap();
        let a_marker = g2.schema().resolve("a/deleted").unwrap();
        let p_marker = g2.schema().resolve("a/p/deleted").unwrap();
        // Cannot mark `a` while its `p` child is live.
        assert!(!g2.is_allowed(
            &inst,
            &idar_core::Update::Add {
                parent: a_node,
                edge: a_marker
            }
        ));
        // Mark p first, then a becomes markable.
        g2.apply(
            &mut inst,
            &idar_core::Update::Add {
                parent: p_node,
                edge: p_marker,
            },
        )
        .unwrap();
        assert!(g2.is_allowed(
            &inst,
            &idar_core::Update::Add {
                parent: a_node,
                edge: a_marker
            }
        ));
        g2.apply(
            &mut inst,
            &idar_core::Update::Add {
                parent: a_node,
                edge: a_marker,
            },
        )
        .unwrap();
        // The completion ¬a — rewritten ¬a[¬deleted] — now holds.
        assert!(g2.is_complete(&inst));
        // No additions under the dead stub.
        let p_edge = g2.schema().resolve("a/p").unwrap();
        assert!(!g2.is_allowed(
            &inst,
            &idar_core::Update::Add {
                parent: a_node,
                edge: p_edge
            }
        ));
    }

    #[test]
    fn live_projection_roundtrip() {
        let g = form(
            "a(p), s",
            &[
                ("a", "!a", "false"),
                ("a/p", "!p", "true"),
                ("s", "true", "false"),
            ],
            "a(p)",
            "s",
        );
        let g2 = reduce(&g).unwrap();
        let root = InstNodeId::ROOT;
        let mut inst = g2.initial().clone();
        let a_node = inst.children_with_label(root, "a").next().unwrap();
        let p_node = inst.children_with_label(a_node, "p").next().unwrap();
        let p_marker = g2.schema().resolve("a/p/deleted").unwrap();
        g2.apply(
            &mut inst,
            &idar_core::Update::Add {
                parent: p_node,
                edge: p_marker,
            },
        )
        .unwrap();
        let proj = live_projection(g.schema(), &inst);
        // In the original semantics we deleted p: projection = a alone.
        assert_eq!(proj.iso_code(), "a");
    }

    #[test]
    fn reserved_label_rejected() {
        let g = form("deleted", &[], "", "true");
        assert_eq!(reduce(&g).unwrap_err(), ReservedDeleted);
    }
}
