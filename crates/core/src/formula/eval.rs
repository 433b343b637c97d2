//! Evaluation of formulas on instances — the semantics of Def. 3.5.
//!
//! `n ⊨ p` holds iff there exists an end node `n'` with `n —p→ n'`; the
//! evaluator short-circuits as soon as a witness is found.

use super::{Formula, PathStep};
use crate::instance::{InstNodeId, Instance};

/// Does `φ` hold at node `n` of `inst` (Def. 3.5, `n ⊨ φ`)?
pub fn holds(inst: &Instance, n: InstNodeId, f: &Formula) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Path(p) => exists(inst, n, p.steps()),
        Formula::Not(g) => !holds(inst, n, g),
        Formula::And(fs) => fs.iter().all(|g| holds(inst, n, g)),
        Formula::Or(fs) => fs.iter().any(|g| holds(inst, n, g)),
    }
}

/// Does `φ` hold at the root of `inst`? Completion formulas are evaluated
/// here ("defines when the form is complete by being true for the root
/// node", Def. 3.11).
pub fn holds_at_root(inst: &Instance, f: &Formula) -> bool {
    holds(inst, InstNodeId::ROOT, f)
}

/// Is some node reachable from `n` along `steps` (`n —p→ n'`)? Filters
/// and parent steps advance in place; a label step tries each matching
/// child in turn, recursing once per label step of the path.
fn exists(inst: &Instance, mut n: InstNodeId, steps: &[PathStep]) -> bool {
    for (i, step) in steps.iter().enumerate() {
        match step {
            PathStep::Parent => match inst.parent(n) {
                Some(m) => n = m,
                None => return false,
            },
            PathStep::Filter(f) => {
                if !holds(inst, n, f) {
                    return false;
                }
            }
            // `n —l→ n'` iff `(n, n') ∈ E` and `λ(n') = l`.
            PathStep::Label(l) => {
                return inst
                    .children_with_label(n, l)
                    .any(|c| exists(inst, c, &steps[i + 1..]))
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn leave() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    fn inst(text: &str) -> Instance {
        Instance::parse(leave(), text).unwrap()
    }

    fn root_holds(i: &Instance, f: &str) -> bool {
        holds_at_root(i, &Formula::parse(f).unwrap())
    }

    #[test]
    fn atomic_label() {
        let i = inst("a(n), s");
        assert!(root_holds(&i, "a"));
        assert!(root_holds(&i, "s"));
        assert!(!root_holds(&i, "f"));
        assert!(root_holds(&i, "a/n"));
        assert!(!root_holds(&i, "a/d"));
    }

    #[test]
    fn example_3_6_all_periods_have_dates() {
        // ¬a/p[¬b ∨ ¬e]: all periods have begin and end dates.
        let complete = inst("a(n, d, p(b, e), p(b, e))");
        let missing = inst("a(n, d, p(b, e), p(b))");
        assert!(root_holds(&complete, "!a/p[!b | !e]"));
        assert!(!root_holds(&missing, "!a/p[!b | !e]"));
        // Vacuously true with no periods at all.
        assert!(root_holds(&inst("a(n)"), "!a/p[!b | !e]"));
    }

    #[test]
    fn example_3_6_final_needs_decision() {
        // ¬f ∨ d[a ∨ r]
        let f = "!f | d[a | r]";
        assert!(root_holds(&inst("a(n), s, d(a), f"), f));
        assert!(!root_holds(&inst("a(n), s, d, f"), f));
        assert!(root_holds(&inst("a(n), s, d"), f)); // no f yet
    }

    #[test]
    fn example_3_6_not_both_decisions() {
        // d[¬(a ∧ r)]: *some* decision field lacks the a∧r combination.
        // NB the paper's reading: "The application cannot be both rejected
        // and approved" — as written the formula is existential over d.
        let f = "d[!(a & r)]";
        assert!(root_holds(&inst("d(a)"), f));
        assert!(!root_holds(&inst("d(a, r)"), f));
        assert!(!root_holds(&inst("a(n)"), f)); // no d at all: no witness
    }

    #[test]
    fn parent_axis() {
        let i = inst("a(n, p(b)), s");
        let a = i.children_with_label(InstNodeId::ROOT, "a").next().unwrap();
        // From `a`: ¬../s is false because the root has an s child.
        assert!(!holds(&i, a, &Formula::parse("!../s").unwrap()));
        let p = i.children_with_label(a, "p").next().unwrap();
        assert!(holds(&i, p, &Formula::parse("../../s").unwrap()));
        // Root has no parent.
        assert!(!holds(&i, InstNodeId::ROOT, &Formula::parse("..").unwrap()));
    }

    #[test]
    fn filters_on_intermediate_steps() {
        let i = inst("a(n, p(b), p(e))");
        assert!(root_holds(&i, "a[n]/p[b]"));
        assert!(root_holds(&i, "a/p[e]"));
        assert!(!root_holds(&i, "a/p[b & e]"));
        assert!(root_holds(&i, "a[p[b] & p[e]]"));
    }

    #[test]
    fn multiplicity_is_invisible_to_formulas() {
        // Formulas are existential: they cannot count duplicate siblings.
        let one = inst("a(p(b))");
        let two = inst("a(p(b), p(b))");
        for f in ["a/p", "a/p[b]", "!a/p[!b]", "a[p]"] {
            assert_eq!(root_holds(&one, f), root_holds(&two, f), "{f}");
        }
    }

    #[test]
    fn constants() {
        let i = inst("");
        assert!(root_holds(&i, "true"));
        assert!(!root_holds(&i, "false"));
        assert!(root_holds(&i, "false | true"));
    }

    #[test]
    fn empty_instance_and_unknown_labels() {
        let i = inst("");
        assert!(!root_holds(&i, "a"));
        // Labels that exist nowhere in the schema simply never match.
        assert!(!root_holds(&i, "zz"));
        assert!(root_holds(&i, "!zz"));
    }
}
