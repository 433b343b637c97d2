//! The introduction's motivating scenario: an electronic tax declaration
//! whose parts "may only be completed by certain persons and then only
//! depending on information that has already been entered".
//!
//! A citizen files income and deduction entries, submits; an assessor
//! reviews (possibly requesting a correction round, which re-opens the
//! declaration); the office closes the case. The access rules encode the
//! whole workflow; the example then *analyses* it like the fb-wis would:
//! fragment, completability, semi-soundness, dead events.
//!
//! ```text
//! cargo run --example tax_declaration
//! ```

use idar::core::{AccessRules, Formula, GuardedForm, Instance, Schema};
use idar::solver::ExploreLimits;
use idar::workflow::analysis;
use std::sync::Arc;

fn build_form() -> GuardedForm {
    // decl(income(src, amt), ded(kind, amt), id), sub, rev(ok, fix(why)), closed
    let schema = Arc::new(
        Schema::parse("decl(income(src, amt), ded(kind, amt), id), sub, rev(ok, fix(why)), closed")
            .expect("schema parses"),
    );
    let f = |s: &str| Formula::parse(s).expect("rule parses");
    let mut rules = AccessRules::new(&schema);
    let e = |p: &str| schema.resolve(p).expect("edge exists");

    // One declaration per form; never deletable once created.
    rules.set_both(e("decl"), f("!decl"), f("false"));
    // The citizen edits while not submitted ("editable" = ¬../sub from the
    // decl node) and the case is not closed.
    rules.set_both(e("decl/id"), f("!../sub & !id"), f("!../sub"));
    rules.set_both(e("decl/income"), f("!../sub"), f("!../sub"));
    rules.set_both(
        e("decl/income/src"),
        f("!../../sub & !src"),
        f("!../../sub"),
    );
    rules.set_both(
        e("decl/income/amt"),
        f("!../../sub & !amt"),
        f("!../../sub"),
    );
    rules.set_both(e("decl/ded"), f("!../sub"), f("!../sub"));
    rules.set_both(e("decl/ded/kind"), f("!../../sub & !kind"), f("!../../sub"));
    rules.set_both(e("decl/ded/amt"), f("!../../sub & !amt"), f("!../../sub"));
    // Submission needs an identified declaration with at least one income
    // entry, every entry fully specified. It is retractable while the
    // review holds no verdict: once a requested fix has been withdrawn.
    // (The guard is evaluated at the root, where `sub` is still present.)
    rules.set_both(
        e("sub"),
        f("!sub & decl[id & income] & !decl/income[!src | !amt] & !decl/ded[!kind | !amt]"),
        f("!rev/ok & !rev/fix"),
    );
    // The assessor opens a review once submitted; the review stays.
    rules.set_both(e("rev"), f("sub & !rev"), f("false"));
    // Exactly one of approve (ok) / correction request (fix).
    rules.set_both(e("rev/ok"), f("!(ok | fix)"), f("!../closed"));
    rules.set_both(e("rev/fix"), f("!(ok | fix)"), f("!../closed & !why"));
    rules.set_both(e("rev/fix/why"), f("!why"), f("!../../closed"));
    // Closing requires an approved review; final.
    rules.set_both(e("closed"), f("rev[ok] & !closed"), f("false"));

    let initial = Instance::empty(schema.clone());
    GuardedForm::new(schema, rules, initial, f("closed"))
}

fn main() {
    let form = build_form();
    println!("Tax declaration schema:\n\n{}", form.schema().render());

    // Analyse like the fb-wis would before accepting the form definition.
    let limits = ExploreLimits {
        multiplicity_cap: Some(1),
        max_states: 60_000,
        ..ExploreLimits::small()
    };
    let report = analysis::analyse(&form, limits);
    println!("{}", analysis::report(&form, &report));

    // The workflow in action: file, submit, get a correction request,
    // re-open, fix, resubmit, approve, close.
    let sch = form.schema().clone();
    let root = idar::core::InstNodeId::ROOT;
    let mut inst = form.initial().clone();
    let apply =
        |form: &GuardedForm, inst: &mut Instance, parent: idar::core::InstNodeId, path: &str| {
            let u = idar::core::Update::Add {
                parent,
                edge: sch.resolve(path).unwrap(),
            };
            form.apply(inst, &u)
                .unwrap_or_else(|err| panic!("{path}: {err}"))
                .expect("addition")
        };

    let decl = apply(&form, &mut inst, root, "decl");
    apply(&form, &mut inst, decl, "decl/id");
    let income = apply(&form, &mut inst, decl, "decl/income");
    apply(&form, &mut inst, income, "decl/income/src");
    apply(&form, &mut inst, income, "decl/income/amt");
    apply(&form, &mut inst, root, "sub");
    let rev = apply(&form, &mut inst, root, "rev");
    let fix = apply(&form, &mut inst, rev, "rev/fix");
    apply(&form, &mut inst, fix, "rev/fix/why");
    println!("after the correction request:\n{}", inst.render());

    // The citizen cannot edit while submitted…
    let blocked = idar::core::Update::Add {
        parent: decl,
        edge: sch.resolve("decl/ded").unwrap(),
    };
    assert!(!form.is_allowed(&inst, &blocked));
    // …the fix must be withdrawn by the assessor (ok/fix exclusivity gives
    // the correction round), then submission is retracted: first delete
    // why, then fix, then sub — leaf-only deletions force this order.
    let why = inst.children_with_label(fix, "why").next().unwrap();
    form.apply(&mut inst, &idar::core::Update::Del { node: why })
        .unwrap();
    form.apply(&mut inst, &idar::core::Update::Del { node: fix })
        .unwrap();
    let sub = inst.children_with_label(root, "sub").next().unwrap();
    form.apply(&mut inst, &idar::core::Update::Del { node: sub })
        .unwrap();
    // Now the citizen can add the deduction, resubmit; assessor approves.
    let ded = apply(&form, &mut inst, decl, "decl/ded");
    apply(&form, &mut inst, ded, "decl/ded/kind");
    apply(&form, &mut inst, ded, "decl/ded/amt");
    apply(&form, &mut inst, root, "sub");
    apply(&form, &mut inst, rev, "rev/ok");
    apply(&form, &mut inst, root, "closed");
    assert!(form.is_complete(&inst));
    println!("closed declaration:\n{}", inst.render());
}
