//! Formula equivalence and canonical instances (Defs. 3.7–3.8).
//!
//! Formula equivalence is "bisimulation under the assumption that all edges
//! are bidirectional": related nodes must carry the same label, their
//! parents must be related, and their child sets must match up to the
//! relation, in both directions. Lemma 3.9: formula-equivalent nodes
//! satisfy exactly the same formulas, every instance is equivalent to its
//! canonical instance `can(I)`, and `can` is invariant across the
//! equivalence class.
//!
//! The computation is a classic signature-based partition refinement: start
//! from label blocks, refine by `(own block, parent block, set of child
//! blocks)` until stable, then quotient. On trees this terminates in at
//! most `depth + 1` sharpening rounds.
//!
//! ### Two different canonical codes
//!
//! * [`bisim_code`] — quotient by formula equivalence, then take the
//!   isomorphism code. Identifies instances that satisfy the same formulas.
//! * [`Instance::iso_code`] — no quotient; preserves sibling multiplicity.
//!
//! The distinction is load-bearing for the solvers: by Lemma 4.3 the
//! *bisimulation* code is a sound state abstraction for depth-1 guarded
//! forms only. At depth ≥ 2 sibling multiplicity is semantically relevant
//! (Thm 4.1 counts with it!), so explorers there must use `iso_code`.

use crate::formula::{Formula, PathExpr};
use crate::instance::{InstNodeId, Instance};
use std::collections::HashMap;

/// The partition of an instance's live nodes into formula-equivalence
/// classes (Def. 3.7 applied between the instance and itself).
#[derive(Debug, Clone)]
pub struct NodePartition {
    /// Block id of each live node, keyed by arena index. Dead slots hold
    /// `u32::MAX`.
    block: Vec<u32>,
    /// Number of blocks.
    blocks: u32,
}

impl NodePartition {
    /// Block id of a node.
    pub fn block_of(&self, n: InstNodeId) -> u32 {
        self.block[n.index()]
    }

    /// Number of equivalence classes.
    pub fn block_count(&self) -> usize {
        self.blocks as usize
    }

    /// Are two nodes formula equivalent (Def. 3.7)?
    pub fn equivalent(&self, a: InstNodeId, b: InstNodeId) -> bool {
        self.block[a.index()] == self.block[b.index()]
    }
}

/// Compute the coarsest auto-bisimulation partition of `inst`'s nodes.
pub fn node_partition(inst: &Instance) -> NodePartition {
    let slots = inst.slot_count();
    let mut block = vec![u32::MAX; slots];

    // Initial partition: by schema node. Nodes with equal labels but
    // different schema nodes can never be formula equivalent (their paths
    // from the root differ, and the parent conditions of Def. 3.7 propagate
    // that difference), so this refines the by-label start without loss —
    // see the `label_start_agrees_with_schema_start` test.
    let mut blocks = 0u32;
    let mut first: HashMap<u32, u32> = HashMap::new();
    for n in inst.live_nodes() {
        let key = inst.schema_node(n).0;
        let id = *first.entry(key).or_insert_with(|| {
            let b = blocks;
            blocks += 1;
            b
        });
        block[n.index()] = id;
    }

    // Refine until stable. Signature: (own, parent, sorted dedup children).
    loop {
        let mut sig_ids: HashMap<(u32, u32, Vec<u32>), u32> = HashMap::new();
        let mut next = vec![u32::MAX; slots];
        let mut next_count = 0u32;
        for n in inst.live_nodes() {
            let own = block[n.index()];
            let parent = inst.parent(n).map(|p| block[p.index()]).unwrap_or(u32::MAX);
            let mut kids: Vec<u32> = inst.children(n).iter().map(|c| block[c.index()]).collect();
            kids.sort_unstable();
            kids.dedup();
            let id = *sig_ids.entry((own, parent, kids)).or_insert_with(|| {
                let b = next_count;
                next_count += 1;
                b
            });
            next[n.index()] = id;
        }
        if next_count == blocks {
            // Same block count with refinement-only steps means stable.
            return NodePartition { block, blocks };
        }
        block = next;
        blocks = next_count;
    }
}

/// Compute the canonical instance `can(I)` (Def. 3.8): the quotient of `I`
/// by formula equivalence. The result is again an instance of the same
/// schema (equivalent nodes share a schema node), and `I ∼ can(I)`
/// (Lemma 3.9).
pub fn canonical(inst: &Instance) -> Instance {
    let part = node_partition(inst);
    let mut out = Instance::empty(inst.schema().clone());
    // Map block id -> node id in the quotient.
    let mut block_node: HashMap<u32, InstNodeId> = HashMap::new();
    block_node.insert(part.block_of(InstNodeId::ROOT), InstNodeId::ROOT);
    // live_nodes is parent-before-child, so a node's parent block is
    // already materialised when we reach it.
    for n in inst.live_nodes() {
        if n == InstNodeId::ROOT {
            continue;
        }
        let b = part.block_of(n);
        if block_node.contains_key(&b) {
            continue;
        }
        let pb = part.block_of(inst.parent(n).expect("non-root"));
        let pq = block_node[&pb];
        let q = out
            .add_child(pq, inst.schema_node(n))
            .expect("quotient preserves schema edges");
        block_node.insert(b, q);
    }
    out
}

/// Are two instances formula equivalent (`I ∼ J`, Def. 3.7)?
///
/// By Lemma 3.9 this holds iff their canonical instances are isomorphic.
pub fn equivalent(a: &Instance, b: &Instance) -> bool {
    bisim_code(a) == bisim_code(b)
}

/// The canonical code of an instance *up to formula equivalence*: the
/// isomorphism code of `can(I)`. Equal codes ⇔ `I ∼ J`.
pub fn bisim_code(inst: &Instance) -> String {
    canonical(inst).iso_code()
}

/// Is an instance canonical, i.e. isomorphic to its own quotient?
pub fn is_canonical(inst: &Instance) -> bool {
    node_partition(inst).block_count() == inst.live_count()
}

/// The characteristic formula `χ(C)` of an instance: a formula such that
/// for every instance `J` of the same schema, `J ⊨ χ(C)` iff `J ∼ C`.
///
/// Exists because formulas cannot count (multiplicity-blind) but can fully
/// pin down structure up to bisimulation. Used by the Cor. 4.7 reset/build
/// construction (`A(del, build)` "tests if the instance is can(I₀)").
///
/// Size: exponential in depth in the worst case (each level conjoins the
/// children's characteristic formulas both positively and under negation),
/// which is fine for the shallow forms it is used on.
pub fn characteristic_formula(inst: &Instance) -> Formula {
    let can = canonical(inst);
    char_at(&can, InstNodeId::ROOT)
}

fn char_at(can: &Instance, n: InstNodeId) -> Formula {
    let schema = can.schema().clone();
    let sn = can.schema_node(n);
    let mut conjuncts: Vec<Formula> = Vec::new();
    // Group the (canonical, hence pairwise non-equivalent) children by
    // schema child.
    for &sc in schema.children(sn) {
        let label = schema.label(sc).to_string();
        let kids: Vec<InstNodeId> = can.children_at(n, sc).collect();
        if kids.is_empty() {
            // No child along this edge at all.
            conjuncts.push(Formula::label(&label).not());
            continue;
        }
        let kid_formulas: Vec<Formula> = kids.iter().map(|&k| char_at(can, k)).collect();
        // (1) every class is inhabited: l[χ_k] for each child class k;
        for kf in &kid_formulas {
            conjuncts.push(Formula::Path(PathExpr::label(&label).filtered(kf.clone())));
        }
        // (2) every l-child belongs to one of the classes:
        //     ¬ l[¬χ_1 ∧ … ∧ ¬χ_m].
        let none_of = Formula::conj(kid_formulas.iter().map(|kf| kf.clone().not()));
        conjuncts.push(Formula::Path(PathExpr::label(&label).filtered(none_of)).not());
    }
    Formula::conj(conjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::holds_at_root;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn schema(text: &str) -> Arc<Schema> {
        Arc::new(Schema::parse(text).unwrap())
    }

    #[test]
    fn figure3_canonicalisation() {
        // Fig. 3(a): an instance whose quotient is Fig. 3(b).
        let s = schema("a(c(e), d), b(c, d(e))");
        // (a): root with children a, a, a, a, b; see the paper's drawing:
        //   a(c,c(e),d)? — the figure shows:
        //   r( a(c, c(e)), a(c, c(e)), a(c(e), c(e)), a(c(e)), b(c, d(e), d(e)) )
        // and the canonical instance
        //   r( a(c, c(e)), a(c(e)), b(c, d(e)) ).
        let i = Instance::parse(
            s.clone(),
            "a(c, c(e)), a(c, c(e)), a(c(e), c(e)), a(c(e)), b(c, d(e), d(e))",
        )
        .unwrap();
        let can = canonical(&i);
        let expected = Instance::parse(s, "a(c, c(e)), a(c(e)), b(c, d(e))").unwrap();
        assert_eq!(
            can.iso_code(),
            expected.iso_code(),
            "got {} expected {}",
            can.iso_code(),
            expected.iso_code()
        );
        assert!(equivalent(&i, &expected));
        assert!(is_canonical(&expected));
        assert!(!is_canonical(&i));
    }

    #[test]
    fn duplicate_leaves_collapse() {
        let s = schema("a, b");
        let i = Instance::parse(s.clone(), "a, a, a, b").unwrap();
        let can = canonical(&i);
        assert_eq!(can.iso_code(), "a,b");
        assert!(equivalent(&i, &Instance::parse(s, "a, b").unwrap()));
    }

    #[test]
    fn different_subtrees_do_not_collapse() {
        let s = schema("a(x, y)");
        let i = Instance::parse(s, "a(x), a(y), a(x)").unwrap();
        let can = canonical(&i);
        assert_eq!(can.iso_code(), "a(x),a(y)");
    }

    #[test]
    fn empty_and_singleton() {
        let s = schema("a");
        let e = Instance::empty(s.clone());
        assert!(is_canonical(&e));
        assert_eq!(canonical(&e).iso_code(), "");
        let one = Instance::parse(s, "a").unwrap();
        assert!(is_canonical(&one));
    }

    #[test]
    fn equivalence_is_multiplicity_blind_iso_is_not() {
        let s = schema("a(x)");
        let i1 = Instance::parse(s.clone(), "a(x), a(x)").unwrap();
        let i2 = Instance::parse(s, "a(x)").unwrap();
        assert!(equivalent(&i1, &i2));
        assert!(!i1.isomorphic(&i2));
        assert_eq!(bisim_code(&i1), bisim_code(&i2));
        assert_ne!(i1.iso_code(), i2.iso_code());
    }

    #[test]
    fn lemma_3_9_formulas_agree_on_equivalent_instances() {
        let s = schema("a(n, p(b, e)), s, d(a, r(r)), f");
        let i = Instance::parse(s.clone(), "a(n, p(b, e), p(b, e)), s, s, d(r(r), r(r))").unwrap();
        let can = canonical(&i);
        assert!(can.live_count() < i.live_count());
        for ft in [
            "!s & a[n & d & p] & !a/p[!b | !e]",
            "a/p[b & e]",
            "d[a | r]",
            "d[!(a & r)]",
            "!f | d[a | r]",
            "s & a[p[../../d]]",
        ] {
            let f = Formula::parse(ft).unwrap();
            assert_eq!(
                holds_at_root(&i, &f),
                holds_at_root(&can, &f),
                "Lemma 3.9 violated for {ft}"
            );
        }
    }

    #[test]
    fn node_equivalence_requires_equivalent_parents() {
        // The two `x` leaves sit under non-equivalent parents (one `a` has
        // an extra `y` child), so they must not merge.
        let s = schema("a(x, y)");
        let i = Instance::parse(s, "a(x), a(x, y)").unwrap();
        let part = node_partition(&i);
        let roots: Vec<_> = i.children_with_label(InstNodeId::ROOT, "a").collect();
        let x1 = i.children_with_label(roots[0], "x").next().unwrap();
        let x2 = i.children_with_label(roots[1], "x").next().unwrap();
        assert!(!part.equivalent(x1, x2));
        assert!(!part.equivalent(roots[0], roots[1]));
    }

    #[test]
    fn label_start_agrees_with_schema_start() {
        // Nodes with the same label but different schema nodes (label `r`
        // at depths 2 and 3 in the leave schema) must not be equivalent
        // even though their labels coincide; the parent chain forbids it.
        let s = schema("d(a, r(r))");
        let i = Instance::parse(s, "d(r(r))").unwrap();
        let part = node_partition(&i);
        let d = i.children_with_label(InstNodeId::ROOT, "d").next().unwrap();
        let r1 = i.children_with_label(d, "r").next().unwrap();
        let r2 = i.children_with_label(r1, "r").next().unwrap();
        assert!(!part.equivalent(r1, r2));
    }

    #[test]
    fn canonical_is_idempotent() {
        let s = schema("a(c(e), d), b(c, d(e))");
        let i = Instance::parse(s, "a(c, c(e)), a(c, c(e)), b(c, c, d(e), d(e))").unwrap();
        let c1 = canonical(&i);
        let c2 = canonical(&c1);
        assert!(c1.isomorphic(&c2));
    }

    #[test]
    fn characteristic_formula_pins_down_class() {
        let s = schema("a(x, y), b");
        let target = Instance::parse(s.clone(), "a(x), b").unwrap();
        let chi = characteristic_formula(&target);
        // Instances equivalent to the target satisfy χ …
        for t in ["a(x), b", "a(x), a(x), b"] {
            let j = Instance::parse(s.clone(), t).unwrap();
            assert!(holds_at_root(&j, &chi), "χ should hold on {t}");
        }
        // … and non-equivalent ones do not.
        for t in ["", "b", "a(x)", "a(x), a(y), b", "a(x, y), b", "a, b"] {
            let j = Instance::parse(s.clone(), t).unwrap();
            assert!(!holds_at_root(&j, &chi), "χ should fail on {t}");
        }
    }

    #[test]
    fn characteristic_formula_of_empty_instance() {
        let s = schema("a, b");
        let chi = characteristic_formula(&Instance::empty(s.clone()));
        assert!(holds_at_root(&Instance::empty(s.clone()), &chi));
        assert!(!holds_at_root(&Instance::parse(s, "a").unwrap(), &chi));
    }
}
