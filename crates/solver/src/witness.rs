//! Witness-tree extraction — the constructive content of **Lemma 4.4**.
//!
//! Given an instance `I` whose root satisfies φ, extract an embedded
//! subtree `T' ⊆ I` that still satisfies φ and whose branching factor is
//! linear in `|φ|`. The construction walks φ's step normal form in
//! negation normal form and keeps exactly the nodes the Lemma's *selection*
//! rules demand:
//!
//! * positive child obligations keep one witnessing child each (preferring
//!   already-kept children, which is what yields the linear bound);
//! * negative child obligations `¬l[ξ]` push `nnf(¬ξ)` into every kept
//!   `l`-child, present and future;
//! * parent obligations keep/annotate the parent (subtree-closure keeps
//!   ancestors automatically).
//!
//! Used by the solvers to shrink counterexample instances to something a
//! form designer can read.

use idar_core::formula::StepFormula;
use idar_core::{Formula, InstNodeId, Instance};
use std::collections::{HashMap, HashSet, VecDeque};

/// Extract a small sub-instance of `inst` whose root still satisfies `f`.
///
/// Precondition: `f` holds at the root of `inst` (returns `None`
/// otherwise). The result keeps the root and is transitively
/// parent-closed; its branching factor is at most linear in `f.size()`
/// (Lemma 4.4).
pub fn extract_witness(inst: &Instance, f: &Formula) -> Option<Instance> {
    if !idar_core::formula::holds_at_root(inst, f) {
        return None;
    }
    let step = StepFormula::from_formula(f).nnf();

    let mut keep: HashSet<InstNodeId> = HashSet::new();
    keep.insert(InstNodeId::ROOT);
    // (label → pushed constraint) per node, applied to kept l-children.
    let mut constraints: HashMap<InstNodeId, Vec<(String, StepFormula)>> = HashMap::new();
    let mut done: HashSet<(InstNodeId, StepFormula)> = HashSet::new();
    let mut queue: VecDeque<(InstNodeId, StepFormula)> = VecDeque::new();
    queue.push_back((InstNodeId::ROOT, step));

    while let Some((n, ob)) = queue.pop_front() {
        if !done.insert((n, ob.clone())) {
            continue;
        }
        debug_assert!(ob.holds(inst, n), "invariant: queued obligations hold in I");
        match ob {
            StepFormula::True => {}
            StepFormula::False => unreachable!("False cannot hold in I"),
            StepFormula::And(fs) => queue.extend(fs.into_iter().map(|g| (n, g))),
            StepFormula::Or(mut fs) => {
                // Select a satisfied disjunct (Lemma 4.4's selection rule 6).
                let i = fs.iter().position(|g| g.holds(inst, n));
                let g = fs.swap_remove(i.expect("a disjunct holds in I"));
                queue.push_back((n, g));
            }
            StepFormula::Child(l) => {
                let c =
                    pick_child(inst, &keep, n, &l, &StepFormula::True).expect("child exists in I");
                keep_node(inst, &mut keep, &constraints, &mut queue, c);
            }
            StepFormula::ChildSat(l, psi) => {
                let c = pick_child(inst, &keep, n, &l, &psi).expect("witness child exists");
                keep_node(inst, &mut keep, &constraints, &mut queue, c);
                queue.push_back((c, *psi));
            }
            StepFormula::Parent => {
                // Ancestors are always kept (subtree closure).
            }
            StepFormula::ParentSat(psi) => {
                let p = inst.parent(n).expect("ParentSat holds, so parent exists");
                queue.push_back((p, *psi));
            }
            StepFormula::Not(inner) => match *inner {
                // ¬l: I has no such children, so neither does T'.
                StepFormula::Child(_) => {}
                StepFormula::ChildSat(l, xi) => {
                    let neg = StepFormula::Not(xi).nnf();
                    // Push to kept l-children, present…
                    for c in inst.children_with_label(n, &l) {
                        if keep.contains(&c) {
                            queue.push_back((c, neg.clone()));
                        }
                    }
                    // …and future.
                    constraints.entry(n).or_default().push((l, neg));
                }
                StepFormula::Parent => {}
                StepFormula::ParentSat(psi) => {
                    if let Some(p) = inst.parent(n) {
                        queue.push_back((p, StepFormula::Not(psi).nnf()));
                    }
                }
                StepFormula::True => unreachable!("¬true cannot hold"),
                StepFormula::False => {}
                other => queue.push_back((n, StepFormula::Not(Box::new(other)).nnf())),
            },
        }
        // Late-arriving constraints: nothing to do here because
        // `constraints` is consulted when a node is kept, and pushing a
        // constraint walks existing kept children immediately.
    }

    // Materialise the kept subtree.
    let mut out = Instance::empty(inst.schema().clone());
    let mut map: HashMap<InstNodeId, InstNodeId> = HashMap::new();
    map.insert(InstNodeId::ROOT, InstNodeId::ROOT);
    for n in inst.live_nodes() {
        if n == InstNodeId::ROOT || !keep.contains(&n) {
            continue;
        }
        let p = inst.parent(n).expect("non-root");
        let np = map[&p];
        let nn = out
            .add_child(np, inst.schema_node(n))
            .expect("kept subtree preserves schema");
        map.insert(n, nn);
    }
    debug_assert!(
        idar_core::formula::holds_at_root(&out, f),
        "Lemma 4.4 witness must satisfy the formula"
    );
    Some(out)
}

/// Prefer an already-kept child satisfying `psi`; otherwise any child.
fn pick_child(
    inst: &Instance,
    keep: &HashSet<InstNodeId>,
    n: InstNodeId,
    label: &str,
    psi: &StepFormula,
) -> Option<InstNodeId> {
    let mut fallback = None;
    for c in inst.children_with_label(n, label) {
        if psi.holds(inst, c) {
            if keep.contains(&c) {
                return Some(c);
            }
            fallback.get_or_insert(c);
        }
    }
    fallback
}

/// Keep `c` (ancestors are kept already — we only descend from kept nodes)
/// and apply any recorded per-label constraints of its parent.
fn keep_node(
    inst: &Instance,
    keep: &mut HashSet<InstNodeId>,
    constraints: &HashMap<InstNodeId, Vec<(String, StepFormula)>>,
    queue: &mut VecDeque<(InstNodeId, StepFormula)>,
    c: InstNodeId,
) {
    if !keep.insert(c) {
        return;
    }
    let p = inst.parent(c).expect("kept nodes are non-root here");
    if let Some(cs) = constraints.get(&p) {
        let label = inst.label(c);
        for (l, g) in cs {
            if l == label {
                queue.push_back((c, g.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(b, c, d), s, t").unwrap())
    }

    fn check(inst_text: &str, formula: &str) -> Instance {
        let inst = Instance::parse(schema(), inst_text).unwrap();
        let f = Formula::parse(formula).unwrap();
        let w = extract_witness(&inst, &f).expect("formula holds");
        assert!(
            idar_core::formula::holds_at_root(&w, &f),
            "witness must satisfy {formula}"
        );
        assert!(w.live_count() <= inst.live_count());
        w
    }

    #[test]
    fn drops_irrelevant_branches() {
        let w = check("a(b), a(c), a(d), s, t", "a[b] & s");
        // Only the a(b) branch and s are needed: root + a + b + s = 4.
        assert_eq!(w.live_count(), 4);
    }

    #[test]
    fn duplicate_witnesses_collapse_to_one() {
        let w = check("a(b), a(b), a(b), a(b)", "a[b]");
        assert_eq!(w.live_count(), 3); // root + one a + its b
    }

    #[test]
    fn universal_constraints_propagate() {
        // ¬a[¬b]: all a's have b. Keeping any a forces keeping (or
        // verifying) its b under the pushed constraint.
        let w = check("a(b), a(b, c)", "a & !a[!b]");
        let f = Formula::parse("a & !a[!b]").unwrap();
        assert!(idar_core::formula::holds_at_root(&w, &f));
        // The kept a must still have its b (else the universal would
        // become vacuous *but the positive a obligation keeps one a*, and
        // the constraint re-checks b under it).
        assert!(w.live_count() >= 3);
    }

    #[test]
    fn branching_bound() {
        // Lots of duplicate children in I; witness branching stays ≤ |φ|.
        let mut text = String::new();
        for _ in 0..50 {
            text.push_str("a(b), ");
        }
        text.push_str("s, t");
        let f_text = "a[b] & a[c | b] & s & (t | zz)";
        let inst = Instance::parse(schema(), &text).unwrap();
        let f = Formula::parse(f_text).unwrap();
        let w = extract_witness(&inst, &f).unwrap();
        let max_children = w.live_nodes().map(|n| w.children(n).len()).max().unwrap();
        assert!(
            max_children <= f.size(),
            "branching {max_children} exceeds |φ| = {}",
            f.size()
        );
    }

    #[test]
    fn returns_none_when_formula_fails() {
        let inst = Instance::parse(schema(), "a(b)").unwrap();
        let f = Formula::parse("s").unwrap();
        assert!(extract_witness(&inst, &f).is_none());
    }

    #[test]
    fn parent_obligations() {
        // a[../s]: the witness must keep s (a's sibling) for the upward
        // reference.
        let w = check("a(b), s, t", "a[../s]");
        let labels: Vec<&str> = w
            .children(InstNodeId::ROOT)
            .iter()
            .map(|&c| w.label(c))
            .collect();
        assert!(labels.contains(&"a"));
        assert!(labels.contains(&"s"));
        assert!(!labels.contains(&"t"));
    }

    #[test]
    fn nested_negative_obligations() {
        let w = check("a(b, c), a(c, d), s", "!a[!c] & a[b]");
        let f = Formula::parse("!a[!c] & a[b]").unwrap();
        assert!(idar_core::formula::holds_at_root(&w, &f));
    }
}
