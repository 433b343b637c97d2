//! Property-based tests for the core formalism: parser round-trips,
//! instance/schema invariants, and bisimulation laws.

use idar_core::{bisim, formula, Formula, InstNodeId, Instance, Schema, SchemaBuilder};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Schema strategies
// ---------------------------------------------------------------------------

/// A random schema: a sequence of (parent-pick, label-pick) grows the tree.
fn schema_strategy() -> impl Strategy<Value = Arc<Schema>> {
    proptest::collection::vec((0..8usize, 0..5usize), 0..14).prop_map(|ops| {
        let mut b = SchemaBuilder::new();
        let mut nodes = vec![idar_core::SchemaNodeId::ROOT];
        for (parent_pick, label_pick) in ops {
            let parent = nodes[parent_pick % nodes.len()];
            let label = format!("l{label_pick}");
            if let Ok(c) = b.child(parent, &label) {
                nodes.push(c);
            } // duplicate sibling labels are rejected: skip
        }
        Arc::new(b.build())
    })
}

/// A random instance of a given schema (as growth operations).
fn grow_instance(schema: &Arc<Schema>, ops: &[(usize, usize)]) -> Instance {
    let mut inst = Instance::empty(schema.clone());
    let mut nodes = vec![InstNodeId::ROOT];
    for &(parent_pick, child_pick) in ops {
        let p = nodes[parent_pick % nodes.len()];
        let kids = schema.children(inst.schema_node(p));
        if kids.is_empty() {
            continue;
        }
        let e = kids[child_pick % kids.len()];
        let n = inst.add_child(p, e).expect("valid schema edge");
        nodes.push(n);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Schemas never contain duplicate sibling labels, and resolve/path_of
    /// are mutually inverse.
    #[test]
    fn schema_invariants(schema in schema_strategy()) {
        for n in schema.node_ids() {
            let kids = schema.children(n);
            let mut labels: Vec<&str> = kids.iter().map(|&c| schema.label(c)).collect();
            let before = labels.len();
            labels.sort_unstable();
            labels.dedup();
            prop_assert_eq!(labels.len(), before, "duplicate sibling labels");
            // resolve(path_of(n)) == n
            let path = schema.path_of(n);
            prop_assert_eq!(schema.resolve(&path).unwrap(), n);
        }
        // Depth is consistent with parent depths.
        for n in schema.node_ids() {
            match schema.parent(n) {
                None => prop_assert_eq!(schema.node_depth(n), 0),
                Some(p) => prop_assert_eq!(schema.node_depth(n), schema.node_depth(p) + 1),
            }
        }
    }

    /// Instance growth maintains the homomorphism; parse(render) round-trips
    /// through the iso code.
    #[test]
    fn instance_invariants(
        schema in schema_strategy(),
        ops in proptest::collection::vec((0..16usize, 0..4usize), 0..20),
    ) {
        let inst = grow_instance(&schema, &ops);
        // Homomorphism conditions of Def. 3.1.
        for n in inst.live_nodes() {
            prop_assert_eq!(inst.label(n), schema.label(inst.schema_node(n)));
            if let Some(p) = inst.parent(n) {
                prop_assert_eq!(
                    Some(inst.schema_node(p)),
                    schema.parent(inst.schema_node(n))
                );
            }
        }
        // iso_code is parse-stable: parsing the code back yields an
        // isomorphic instance.
        let code = inst.iso_code();
        if !code.is_empty() {
            let reparsed = Instance::parse(schema.clone(), &code).unwrap();
            prop_assert!(reparsed.isomorphic(&inst));
        } else {
            prop_assert_eq!(inst.live_count(), 1);
        }
    }

    /// Deleting every leaf in any order always reaches the empty instance,
    /// and live counts stay consistent.
    #[test]
    fn deletion_to_empty(
        schema in schema_strategy(),
        ops in proptest::collection::vec((0..16usize, 0..4usize), 0..16),
        picks in proptest::collection::vec(0..32usize, 0..64),
    ) {
        let mut inst = grow_instance(&schema, &ops);
        let mut pick_iter = picks.into_iter();
        while inst.live_count() > 1 {
            let leaves: Vec<InstNodeId> = inst
                .live_nodes()
                .filter(|&n| n != InstNodeId::ROOT && inst.is_leaf(n))
                .collect();
            prop_assert!(!leaves.is_empty(), "non-root nodes but no leaves?");
            let k = pick_iter.next().unwrap_or(0) % leaves.len();
            let before = inst.live_count();
            inst.remove_leaf(leaves[k]).unwrap();
            prop_assert_eq!(inst.live_count(), before - 1);
        }
        prop_assert_eq!(inst.iso_code(), "");
    }

    /// `can` is multiplicity-blind: duplicating any subtree leaves the
    /// canonical instance unchanged.
    #[test]
    fn duplication_is_bisim_invisible(
        schema in schema_strategy(),
        ops in proptest::collection::vec((0..16usize, 0..4usize), 1..16),
        dup_pick in 0..32usize,
    ) {
        let inst = grow_instance(&schema, &ops);
        let candidates: Vec<InstNodeId> = inst
            .live_nodes()
            .filter(|&n| n != InstNodeId::ROOT)
            .collect();
        prop_assume!(!candidates.is_empty());
        let target = candidates[dup_pick % candidates.len()];
        // Duplicate the subtree rooted at `target` under the same parent.
        let mut dup = inst.clone();
        let parent = inst.parent(target).unwrap();
        let copy_root = dup.add_child(parent, inst.schema_node(target)).unwrap();
        let mut stack = vec![(target, copy_root)];
        while let Some((orig, copy)) = stack.pop() {
            let children: Vec<InstNodeId> = inst.children(orig).to_vec();
            for c in children {
                let cc = dup.add_child(copy, inst.schema_node(c)).unwrap();
                stack.push((c, cc));
            }
        }
        prop_assert!(bisim::equivalent(&inst, &dup));
        prop_assert!(!inst.isomorphic(&dup), "duplication changes iso class");
    }

    /// Formula evaluation is invariant under sibling reordering (the trees
    /// are unordered).
    #[test]
    fn evaluation_ignores_sibling_order(
        schema in schema_strategy(),
        ops in proptest::collection::vec((0..16usize, 0..4usize), 0..16),
    ) {
        let inst = grow_instance(&schema, &ops);
        // Rebuild with children added in reverse order of ops.
        let mut rev = ops.clone();
        rev.reverse();
        let inst2 = grow_instance(&schema, &rev);
        // Same multiset of root-child subtrees ⇒ isomorphic? Not in
        // general (parent picks shift), so only compare when codes match.
        if inst.isomorphic(&inst2) {
            for f in ["l0", "l0[l1]", "!l1[!l2]", "l0/l1/..", "l2 & !l0 | l1"] {
                let f = Formula::parse(f).unwrap();
                prop_assert_eq!(
                    formula::holds_at_root(&inst, &f),
                    formula::holds_at_root(&inst2, &f)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Formula parser fuzz
// ---------------------------------------------------------------------------

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        "[a-e]{1,3}".prop_map(|l| Formula::label(&l)),
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::Path(idar_core::PathExpr::parent())),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            (inner.clone(), "[a-e]{1,2}")
                .prop_map(|(f, l)| { Formula::Path(idar_core::PathExpr::label(&l).filtered(f)) }),
            ("[a-e]{1,2}", "[a-e]{1,2}").prop_map(|(a, b)| {
                Formula::Path(idar_core::PathExpr::label(&a).then(idar_core::PathExpr::label(&b)))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Display → parse is the identity (minimal-parenthesis printing is
    /// correct for every precedence combination).
    #[test]
    fn printer_parser_roundtrip(f in arb_formula()) {
        let printed = f.to_string();
        let reparsed = Formula::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// Normalisation preserves size up to a constant factor (Lemma 4.4
    /// promises linear growth).
    #[test]
    fn normal_form_linear_size(f in arb_formula()) {
        let n = idar_core::formula::StepFormula::from_formula(&f);
        prop_assert!(n.size() <= 3 * f.size() + 2,
            "normal form blew up: {} -> {}", f.size(), n.size());
    }

    /// `is_positive` is stable under to/from normal form.
    #[test]
    fn positivity_consistent(f in arb_formula()) {
        let n = idar_core::formula::StepFormula::from_formula(&f);
        let back = n.to_formula();
        prop_assert_eq!(f.is_positive(), back.is_positive());
    }

    /// Parsing never panics on arbitrary ASCII input.
    #[test]
    fn parser_total(input in "[ -~]{0,40}") {
        let _ = Formula::parse(&input);
        let _ = Schema::parse(&input);
    }
}
