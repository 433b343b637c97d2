//! **Theorem 5.1**: SAT reduces to completability for `F(A+, φ−, k)`
//! (already at depth 1), establishing NP-hardness.
//!
//! "For every variable x in φ, there is one node labelled x in the schema
//! of the guarded form. All access rules are set to true. The completion
//! formula is the given formula φ. … the guarded form is completable if
//! and only if φ is satisfiable, because the access rules allow any
//! instance that satisfies the schema to be constructed."

use idar_core::{AccessRules, Formula, GuardedForm, Instance, Schema, SchemaBuilder, SchemaNodeId};
use idar_logic::prop::{Cnf, PropFormula, Var};
use std::sync::Arc;

/// The label used for propositional variable `v`.
pub fn var_label(v: Var) -> String {
    format!("v{}", v.0)
}

/// Translate a propositional formula into a path formula over the variable
/// labels (presence of label `vᵢ` ⇔ xᵢ true).
pub fn prop_to_formula(f: &PropFormula) -> Formula {
    match f {
        PropFormula::Const(true) => Formula::True,
        PropFormula::Const(false) => Formula::False,
        PropFormula::Var(v) => Formula::label(&var_label(*v)),
        PropFormula::Not(g) => prop_to_formula(g).not(),
        PropFormula::And(fs) => Formula::conj(fs.iter().map(prop_to_formula)),
        PropFormula::Or(fs) => Formula::disj(fs.iter().map(prop_to_formula)),
    }
}

/// Compile a CNF into the Thm 5.1 guarded form. The result is in
/// `F(A+, φ−, 1)` and is completable iff the CNF is satisfiable.
pub fn reduce(cnf: &Cnf) -> GuardedForm {
    let mut b = SchemaBuilder::new();
    for v in 0..cnf.vars {
        b.child(SchemaNodeId::ROOT, &var_label(Var(v as u32)))
            .expect("distinct variable labels");
    }
    let schema = Arc::new(b.build());
    // "All access rules are set to true."
    let rules = AccessRules::with_default(&schema, Formula::True);
    let completion = prop_to_formula(&PropFormula::from_cnf(cnf));
    let initial = Instance::empty(schema.clone());
    GuardedForm::new(schema, rules, initial, completion)
}

/// Decode a complete instance back into a satisfying assignment.
pub fn decode_assignment(inst: &Instance, vars: usize) -> idar_logic::Assignment {
    let mut a = idar_logic::Assignment::all_false(vars);
    for v in 0..vars {
        let var = Var(v as u32);
        if inst
            .children_with_label(idar_core::InstNodeId::ROOT, &var_label(var))
            .next()
            .is_some()
        {
            a.set(var, true);
        }
    }
    a
}

/// The schema of the reduction, for callers that need it separately.
pub fn schema_for(vars: usize) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    for v in 0..vars {
        b.child(SchemaNodeId::ROOT, &var_label(Var(v as u32)))
            .expect("distinct labels");
    }
    Arc::new(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::fragment::{classify, DepthClass, Polarity};
    use idar_logic::prop::Lit;
    use idar_solver::{completability, CompletabilityResult, Verdict};

    fn verdict(cnf: &Cnf) -> CompletabilityResult {
        let g = reduce(cnf);
        completability(&g, &Default::default())
    }

    #[test]
    fn fragment_is_a_plus_phi_minus_depth1() {
        let cnf = Cnf::new(vec![vec![Lit::pos(0), Lit::neg(1)]]);
        let g = reduce(&cnf);
        let f = classify(&g);
        assert_eq!(f.access, Polarity::Positive);
        assert_eq!(f.completion, Polarity::Unrestricted);
        assert_eq!(f.depth, DepthClass::One);
    }

    #[test]
    fn sat_instances_are_completable() {
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(0), Lit::pos(2)],
        ]);
        assert!(idar_logic::sat_solve(&cnf).is_some());
        let r = verdict(&cnf);
        assert_eq!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn unsat_instances_are_not_completable() {
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::neg(1)],
        ]);
        assert!(idar_logic::sat_solve(&cnf).is_none());
        let r = verdict(&cnf);
        assert_eq!(r.verdict, Verdict::Fails);
    }

    #[test]
    fn witness_run_decodes_to_model() {
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(1), Lit::pos(2)],
        ]);
        let g = reduce(&cnf);
        let r = completability(&g, &Default::default());
        let run = r.witness_run.expect("satisfiable");
        let replay = g.replay(&run).unwrap();
        let a = decode_assignment(replay.last(), cnf.vars);
        assert!(cnf.eval(&a), "decoded assignment must satisfy the CNF");
    }

    #[test]
    fn agrees_with_dpll_on_random_instances() {
        for seed in 0..40 {
            let cnf = idar_logic::gen::random_3cnf(seed, 5, 10 + (seed as usize % 15));
            let baseline = idar_logic::sat_solve(&cnf).is_some();
            let r = verdict(&cnf);
            let expected = if baseline {
                Verdict::Holds
            } else {
                Verdict::Fails
            };
            assert_eq!(r.verdict, expected, "seed {seed}: {cnf}");
        }
    }

    #[test]
    fn empty_cnf() {
        let cnf = Cnf::new(vec![]).with_vars(2);
        assert_eq!(verdict(&cnf).verdict, Verdict::Holds);
        let cnf = Cnf::new(vec![vec![]]).with_vars(1);
        assert_eq!(verdict(&cnf).verdict, Verdict::Fails);
    }
}
