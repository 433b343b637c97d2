//! Property-based differential tests: the exact solvers, the bounded
//! explorer, and the formula machinery must all agree wherever their
//! domains overlap. These are the safety net for the theorem-backed
//! shortcuts (Lemma 4.3, Thm 5.2, Thm 5.5, Lemma 4.4).

use idar::core::{
    bisim, formula, AccessRules, Formula, GuardedForm, InstNodeId, Instance, Right, Schema,
};
use idar::solver::{completability, CompletabilityOptions, ExploreLimits, Method, Verdict};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// A random depth-1 formula over the fixed label set (guards/completions).
fn formula_strategy(depth: u32) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (0..LABELS.len()).prop_map(|i| Formula::label(LABELS[i])),
        Just(Formula::True),
        Just(Formula::False),
        // `l[..[l']]` — child with a root-check filter.
        ((0..LABELS.len()), (0..LABELS.len())).prop_map(|(i, j)| {
            Formula::Path(
                idar::core::PathExpr::label(LABELS[i])
                    .filtered(Formula::label(LABELS[j]).at_parent()),
            )
        }),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// A positive (negation-free) random formula.
fn positive_formula_strategy(depth: u32) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (0..LABELS.len()).prop_map(|i| Formula::label(LABELS[i])),
        Just(Formula::True),
        Just(Formula::False),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

/// A random depth-1 guarded form over the fixed labels.
fn depth1_form_strategy() -> impl Strategy<Value = GuardedForm> {
    let guards = proptest::collection::vec(formula_strategy(2), LABELS.len() * 2);
    let completion = formula_strategy(3);
    let initial_bits = 0u8..16;
    (guards, completion, initial_bits).prop_map(|(gs, completion, init)| {
        let schema = Arc::new(Schema::parse("a, b, c, d").unwrap());
        let mut rules = AccessRules::new(&schema);
        for (i, l) in LABELS.iter().enumerate() {
            let e = schema.resolve(l).unwrap();
            rules.set(Right::Add, e, gs[2 * i].clone());
            rules.set(Right::Del, e, gs[2 * i + 1].clone());
        }
        let mut initial = Instance::empty(schema.clone());
        for (i, l) in LABELS.iter().enumerate() {
            if init >> i & 1 == 1 {
                initial.add_child_by_label(InstNodeId::ROOT, l).unwrap();
            }
        }
        GuardedForm::new(schema, rules, initial, completion)
    })
}

// ---------------------------------------------------------------------------
// Solver agreement
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 4.3 in practice: on depth-1 forms, the canonical-state solver
    /// and the raw bounded explorer must agree whenever the latter closes.
    #[test]
    fn depth1_exact_agrees_with_bounded(form in depth1_form_strategy()) {
        let exact = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits::small(),
                force_method: Some(Method::Depth1Canonical),
                ..Default::default()
            },
        );
        // Cap multiplicities so the raw space is finite; the guards are
        // multiplicity-blind so a cap of 2 preserves all behaviours that
        // matter for reaching each canonical class.
        let bounded = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits {
                    multiplicity_cap: Some(2),
                    max_states: 60_000,
                    ..ExploreLimits::small()
                },
                force_method: Some(Method::BoundedExploration),
                ..Default::default()
            },
        );
        prop_assert!(exact.verdict != Verdict::Unknown);
        // Whenever the bounded explorer reaches a verdict it must match
        // the exact one; `Unknown` (a pruned infinite space) constrains
        // nothing.
        if bounded.verdict != Verdict::Unknown {
            prop_assert_eq!(exact.verdict, bounded.verdict);
        }
    }

    /// Witness runs returned by any method must replay to completion.
    #[test]
    fn witness_runs_replay(form in depth1_form_strategy()) {
        let r = completability(&form, &CompletabilityOptions::default());
        if let Some(run) = r.witness_run {
            prop_assert!(form.is_complete_run(&run));
        }
    }

    /// Thm 5.5 vs the depth-1 exact solver on positive depth-1 forms.
    #[test]
    fn positive_saturation_agrees_with_depth1(
        adds in proptest::collection::vec(positive_formula_strategy(2), LABELS.len()),
        completion in positive_formula_strategy(3),
    ) {
        let schema = Arc::new(Schema::parse("a, b, c, d").unwrap());
        let mut rules = AccessRules::new(&schema);
        for (i, l) in LABELS.iter().enumerate() {
            rules.set(Right::Add, schema.resolve(l).unwrap(), adds[i].clone());
        }
        let form = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            completion,
        );
        let sat = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits::small(),
                force_method: Some(Method::PositiveSaturation),
                ..Default::default()
            },
        );
        let exact = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits::small(),
                force_method: Some(Method::Depth1Canonical),
                ..Default::default()
            },
        );
        prop_assert_eq!(sat.verdict, exact.verdict);
    }

    /// Thm 5.2 (NP solver) vs depth-1 exact on positive-rule forms with
    /// arbitrary completion formulas.
    #[test]
    fn np_agrees_with_depth1(
        adds in proptest::collection::vec(positive_formula_strategy(2), LABELS.len()),
        dels in proptest::collection::vec(positive_formula_strategy(2), LABELS.len()),
        completion in formula_strategy(3),
        init in 0u8..16,
    ) {
        let schema = Arc::new(Schema::parse("a, b, c, d").unwrap());
        let mut rules = AccessRules::new(&schema);
        for (i, l) in LABELS.iter().enumerate() {
            let e = schema.resolve(l).unwrap();
            rules.set(Right::Add, e, adds[i].clone());
            rules.set(Right::Del, e, dels[i].clone());
        }
        let mut initial = Instance::empty(schema.clone());
        for (i, l) in LABELS.iter().enumerate() {
            if init >> i & 1 == 1 {
                initial.add_child_by_label(InstNodeId::ROOT, l).unwrap();
            }
        }
        let form = GuardedForm::new(schema, rules, initial, completion);
        let np = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits {
                    max_states: 100_000,
                    ..ExploreLimits::small()
                },
                force_method: Some(Method::NpTwoPhase),
                ..Default::default()
            },
        );
        let exact = completability(
            &form,
            &CompletabilityOptions {
                limits: ExploreLimits::small(),
                force_method: Some(Method::Depth1Canonical),
                ..Default::default()
            },
        );
        if np.verdict != Verdict::Unknown {
            prop_assert_eq!(np.verdict, exact.verdict);
        }
    }
}

// ---------------------------------------------------------------------------
// Formula machinery
// ---------------------------------------------------------------------------

/// A random small instance of the test schema (depth 2 for formula tests).
fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0..6usize, 0..3usize), 0..12).prop_map(|ops| {
        let schema = Arc::new(Schema::parse("a(b, c), b, c(a)").unwrap());
        let mut inst = Instance::empty(schema.clone());
        let mut nodes = vec![InstNodeId::ROOT];
        for (parent_pick, child_pick) in ops {
            let p = nodes[parent_pick % nodes.len()];
            let kids = schema.children(inst.schema_node(p));
            if kids.is_empty() {
                continue;
            }
            let e = kids[child_pick % kids.len()];
            let n = inst.add_child(p, e).unwrap();
            nodes.push(n);
        }
        inst
    })
}

fn deep_formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::path("a/b")),
        Just(Formula::path("a/c")),
        Just(Formula::path("c/a")),
        Just(Formula::label("a")),
        Just(Formula::label("b")),
        Just(Formula::parse("a[b & ../c]").unwrap()),
        Just(Formula::parse("a[..[b]]").unwrap()),
        Just(Formula::parse("c/a/..").unwrap()),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lemma 4.4 normal form preserves semantics on random instances.
    #[test]
    fn step_normal_form_preserves_semantics(
        inst in instance_strategy(),
        f in deep_formula_strategy(),
    ) {
        let n = idar::core::formula::StepFormula::from_formula(&f);
        for node in inst.live_nodes() {
            prop_assert_eq!(
                formula::holds(&inst, node, &f),
                n.holds(&inst, node),
                "normal form diverged at {} for {}", node, f
            );
            prop_assert_eq!(
                formula::holds(&inst, node, &f),
                n.nnf().holds(&inst, node),
                "nnf diverged at {} for {}", node, f
            );
        }
    }

    /// Simplification preserves semantics, never grows the formula, and
    /// preserves positivity.
    #[test]
    fn simplification_sound(
        inst in instance_strategy(),
        f in deep_formula_strategy(),
    ) {
        let s = f.simplified();
        prop_assert!(s.size() <= f.size(), "simplify grew {} -> {}", f.size(), s.size());
        // Never introduces negation (may well *remove* it).
        if f.is_positive() {
            prop_assert!(s.is_positive());
        }
        for node in inst.live_nodes() {
            prop_assert_eq!(
                formula::holds(&inst, node, &f),
                formula::holds(&inst, node, &s),
                "simplified diverged at {} for {}", node, f
            );
        }
        // Idempotence.
        prop_assert_eq!(s.clone(), s.simplified());
    }

    /// Display → parse is the identity on ASTs.
    #[test]
    fn display_parse_roundtrip(f in deep_formula_strategy()) {
        let printed = f.to_string();
        let reparsed = Formula::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// Lemma 3.9: formulas cannot distinguish an instance from its
    /// canonical quotient.
    #[test]
    fn canonicalisation_is_formula_invisible(
        inst in instance_strategy(),
        f in deep_formula_strategy(),
    ) {
        let can = bisim::canonical(&inst);
        prop_assert_eq!(
            formula::holds_at_root(&inst, &f),
            formula::holds_at_root(&can, &f),
            "can(I) distinguished by {}", f
        );
    }

    /// can(can(I)) ≅ can(I), and I ∼ can(I).
    #[test]
    fn canonicalisation_idempotent(inst in instance_strategy()) {
        let c1 = bisim::canonical(&inst);
        let c2 = bisim::canonical(&c1);
        prop_assert!(c1.isomorphic(&c2));
        prop_assert!(bisim::equivalent(&inst, &c1));
        prop_assert!(bisim::is_canonical(&c1));
    }

    /// χ(I) characterises I's equivalence class on random instances.
    #[test]
    fn characteristic_formula_is_characteristic(
        a in instance_strategy(),
        b in instance_strategy(),
    ) {
        let chi = bisim::characteristic_formula(&a);
        prop_assert!(formula::holds_at_root(&a, &chi));
        prop_assert_eq!(
            formula::holds_at_root(&b, &chi),
            bisim::equivalent(&a, &b),
            "chi misclassified"
        );
    }

    /// Lemma 4.4 witness extraction: whenever φ holds, the witness holds
    /// it too and respects the branching bound.
    #[test]
    fn witness_extraction_sound(
        inst in instance_strategy(),
        f in deep_formula_strategy(),
    ) {
        if formula::holds_at_root(&inst, &f) {
            let w = idar::solver::witness::extract_witness(&inst, &f)
                .expect("formula holds");
            prop_assert!(formula::holds_at_root(&w, &f));
            prop_assert!(w.live_count() <= inst.live_count());
            let max_branch = w
                .live_nodes()
                .map(|n| w.children(n).len())
                .max()
                .unwrap_or(0);
            prop_assert!(max_branch <= f.size());
        }
    }

    /// The satisfiability tableau is sound (its witnesses model the
    /// formula) and agrees with a found model's existence.
    #[test]
    fn tableau_soundness(f in deep_formula_strategy()) {
        use idar::solver::satisfiability::{satisfiable, SatOptions, SatResult};
        match satisfiable(&f, &SatOptions::default()) {
            SatResult::Sat(tree) => prop_assert!(tree.holds(0, &f)),
            SatResult::Unsat => {
                // Cross-check: no random instance should satisfy it.
                // (Weak check on a handful of instances.)
                let schema = Arc::new(Schema::parse("a(b, c), b, c(a)").unwrap());
                for text in ["", "a", "a(b), b", "a(b, c), c(a)", "c(a), b"] {
                    let inst = Instance::parse(schema.clone(), text).unwrap();
                    prop_assert!(
                        !formula::holds_at_root(&inst, &f),
                        "UNSAT but {} satisfies {}", text, f
                    );
                }
            }
            SatResult::BudgetExhausted => {}
        }
    }
}
