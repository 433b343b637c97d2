//! Deterministic named form families — the single construction path
//! shared by the Criterion benches, the `reproduce` harness and the
//! differential fuzzer.
//!
//! Before this module, `crates/bench/src/workloads.rs` hand-assembled
//! each family (schema loop + rule loop + completion); the same assembly
//! is now expressed once through [`flat_form`] and reused everywhere.

use idar_core::{AccessRules, Formula, GuardedForm, Instance, Right, SchemaBuilder, SchemaNodeId};
use idar_machines::TwoCounterMachine;
use idar_reductions::tcm_to_completability::TcmForm;
use std::sync::Arc;

/// Assemble a depth-1 ("flat") guarded form from per-field guards.
///
/// `fields` lists `(label, add_guard, del_guard)`; a `None` guard falls
/// through to the table default (`false`). The completion formula is
/// taken as-is. This is the common shape of the Table 1 scaling families.
pub fn flat_form(
    fields: &[(String, Option<Formula>, Option<Formula>)],
    completion: Formula,
) -> GuardedForm {
    let mut b = SchemaBuilder::new();
    let edges: Vec<SchemaNodeId> = fields
        .iter()
        .map(|(label, _, _)| b.child(SchemaNodeId::ROOT, label).expect("unique labels"))
        .collect();
    let schema = Arc::new(b.build());
    let mut rules = AccessRules::new(&schema);
    for (&e, (_, add, del)) in edges.iter().zip(fields) {
        if let Some(g) = add {
            rules.set(Right::Add, e, g.clone());
        }
        if let Some(g) = del {
            rules.set(Right::Del, e, g.clone());
        }
    }
    let initial = Instance::empty(schema.clone());
    GuardedForm::new(schema, rules, initial, completion)
}

/// The conjunction "every listed label present" — the standard completion
/// of the scaling families.
pub fn all_present(labels: impl IntoIterator<Item = String>) -> Formula {
    Formula::conj(labels.into_iter().map(|l| Formula::label(&l)))
}

/// `F(A+, φ+, 1)` — a dependency chain: label `i` requires label `i−1`;
/// completion = all present. Completable for every `n`.
pub fn positive_chain(n: usize) -> GuardedForm {
    let fields: Vec<_> = (0..n)
        .map(|i| {
            let guard = if i == 0 {
                Formula::True
            } else {
                Formula::label(&format!("l{}", i - 1))
            };
            (format!("l{i}"), Some(guard), None)
        })
        .collect();
    flat_form(&fields, all_present((0..n).map(|i| format!("l{i}"))))
}

/// `F(A−, φ+, 1)` — the full subset lattice over `n` labels: every label
/// freely addable (while absent) and deletable; completion = all present.
///
/// The reachable space is exactly the 2ⁿ subsets of the label set and the
/// search *closes*, which makes this the scaling workload for the
/// frontier explorer: layer `d` holds `C(n, d)` states.
pub fn subset_lattice(n: usize) -> GuardedForm {
    let fields: Vec<_> = (0..n)
        .map(|i| {
            (
                format!("l{i}"),
                Some(Formula::label(&format!("l{i}")).not()),
                Some(Formula::True),
            )
        })
        .collect();
    flat_form(&fields, all_present((0..n).map(|i| format!("l{i}"))))
}

/// The Thm 4.1 two-counter-machine form: compile `machine` into a depth-2
/// guarded form whose completability is exactly the machine's halting.
///
/// Thin, *shared* entry point over
/// [`idar_reductions::tcm_to_completability::reduce`] so bench and fuzz
/// construct machine workloads identically (including the micro-step
/// trace facility of [`TcmForm`]).
pub fn two_counter(machine: &TwoCounterMachine) -> TcmForm {
    idar_reductions::tcm_to_completability::reduce(machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_and_lattice_shapes() {
        let c = positive_chain(4);
        assert_eq!(c.schema().edge_count(), 4);
        assert_eq!(c.schema().depth(), 1);
        assert!(c.rules().all_positive(c.schema()));
        let l = subset_lattice(3);
        assert_eq!(l.schema().edge_count(), 3);
        assert!(!l.rules().all_positive(l.schema()));
    }

    #[test]
    fn flat_form_defaults_to_false() {
        let g = flat_form(&[("a".into(), None, None)], Formula::True);
        assert!(g.allowed_updates(g.initial()).is_empty());
    }

    #[test]
    fn two_counter_builder_matches_reduction() {
        let m = idar_machines::library::count_up_then_accept(1);
        let a = two_counter(&m);
        let b = idar_reductions::tcm_to_completability::reduce(&m);
        assert_eq!(
            idar_core::serialize::to_ron(&a.form),
            idar_core::serialize::to_ron(&b.form)
        );
    }
}
