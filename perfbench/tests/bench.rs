//! The benchmark's own tests: the replica and the staged replay agree
//! with the code they stand in for, inputs are pure functions of the
//! seed, and a failed check fails the command.

use idar_core::{AccessRules, Formula, GuardedForm, Instance, Schema};
use idar_perfbench::corpus::{self, Corpus};
use idar_perfbench::explore::{self, LayerTimes};
use idar_perfbench::metrics;
use idar_perfbench::service::{self, Schedule};
use idar_perfbench::trace::Tracer;
use idar_solver::{analyze, ExploreLimits, Explorer, LimitKind};
use std::process::Command;
use std::sync::Arc;

/// One label under the root, always addable: grows without bound.
fn unbounded() -> GuardedForm {
    let schema = Arc::new(Schema::parse("a").unwrap());
    let rules = AccessRules::with_default(&schema, Formula::True);
    GuardedForm::new(
        schema.clone(),
        rules,
        Instance::empty(schema),
        Formula::False,
    )
}

#[test]
fn replica_stats_equal_find() {
    let chain = idar_gen::ScenarioSpec::unconstrained(idar_gen::ChainSpec::simple(4, 2, 3));
    let cases = [
        (
            "lattice",
            idar_gen::builders::subset_lattice(6),
            explore::limits(),
        ),
        ("chain", chain.build("chain").form, explore::limits()),
        ("leave", idar_core::leave::example_3_12(), explore::limits()),
        (
            "multiplicity cap",
            unbounded(),
            ExploreLimits {
                multiplicity_cap: Some(3),
                ..ExploreLimits::small()
            },
        ),
        (
            "state cap",
            idar_gen::builders::subset_lattice(6),
            ExploreLimits {
                max_states: 20,
                ..explore::limits()
            },
        ),
    ];
    for (name, form, limits) in cases {
        let find = Explorer::new(&form, limits).with_threads(1).find(|_| false);
        let replica = explore::replica(&form, limits, &mut LayerTimes::default());
        assert_eq!(replica, find.stats, "{name}");
        if name == "multiplicity cap" {
            assert_eq!(replica.limit_hit, Some(LimitKind::Multiplicity));
        }
    }
}

#[test]
fn staged_replay_equals_analyze_on_named_scenarios() {
    let mut skip = corpus::budget();
    skip.skip_screen = true;
    let mut tracer = Tracer::default();
    let mut staged = corpus::Staged::default();
    for named in idar_gen::scenario::named_scenarios() {
        for kind in corpus::KINDS {
            let req = idar_solver::AnalysisRequest::new(named.scenario.form.clone(), kind)
                .with_budget(corpus::budget())
                .with_threads(1);
            let whole = analyze(&req);
            let (verdict, method) = corpus::staged(&mut tracer, 0, &req, &skip, &mut staged);
            assert_eq!(
                (verdict, method),
                (whole.verdict, whole.method),
                "{} {kind}",
                named.scenario.name
            );
        }
    }
    assert!(tracer.spans().iter().any(|s| s.name == "screen.screen"));
}

#[test]
fn inputs_are_pure_functions_of_the_seed() {
    let names = |c: &Corpus| -> Vec<String> {
        c.entries
            .iter()
            .map(|e| format!("{} {}", e.name, idar_core::serialize::to_ron(&e.form)))
            .collect()
    };
    let a = Corpus::build(7, 40);
    assert_eq!(names(&a), names(&Corpus::build(7, 40)));
    assert_ne!(names(&a), names(&Corpus::build(8, 40)));
    assert!(a.entries.iter().all(|e| e.reference.is_some()));

    let pool: Vec<GuardedForm> = a.entries[..20].iter().map(|e| e.form.clone()).collect();
    let sizes: Vec<usize> = a.entries[..20]
        .iter()
        .map(|e| e.reference.map_or(0, |r| r.states))
        .collect();
    let s1 = Schedule::new(7, &pool, &sizes);
    assert_eq!(
        format!("{s1:?}"),
        format!("{:?}", Schedule::new(7, &pool, &sizes))
    );
    assert_ne!(
        format!("{s1:?}"),
        format!("{:?}", Schedule::new(8, &pool, &sizes))
    );
    let r1 = service::reference(&s1);
    assert_eq!(r1.verdicts, service::reference(&s1).verdicts);
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str, better: &str| {
        format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    };
    for m in metrics::END_TO_END {
        assert!(
            json.contains(&entry(m.name, m.unit, m.better)),
            "{}",
            m.name
        );
    }
    let layers = metrics::per_layer();
    for m in &layers {
        assert!(
            json.contains(&entry(&m.name, m.unit, m.better)),
            "{}",
            m.name
        );
    }
    let listed = json.matches("\"better\"").count();
    assert_eq!(listed, metrics::END_TO_END.len() + layers.len());
}

fn perfbench(args: &[&str]) -> std::process::Output {
    // Spill files and traces go under the test build's scratch directory.
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .args(args)
        .output()
        .expect("run perfbench")
}

#[test]
fn a_broken_reference_fails_the_command() {
    let out = perfbench(&[
        "--workload",
        "corpus",
        "--seed",
        "3",
        "--seconds",
        "0.01",
        "--trace",
        "0",
        "--corrupt-reference",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": false"), "{last}");
}

#[test]
fn more_clients_than_cores_are_refused() {
    let out = perfbench(&[
        "--workload",
        "service",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--clients",
        "100000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
