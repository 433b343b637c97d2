//! Parameterised workload families, one per Table 1 cell; the
//! `reproduce` binary asserts their verdicts section by section.
//!
//! Every generator is deterministic in its seed so benchmark runs are
//! reproducible. Form *assembly* lives in [`idar_gen::builders`] — the
//! construction path shared with the differential fuzz harness — and this
//! module only attaches names and expected verdicts.

use crate::Workload;
use idar_core::{AccessRules, Formula, GuardedForm, Instance, SchemaBuilder, SchemaNodeId};
use idar_logic::gen::{random_3cnf, random_qsat2k, Rng, XorShift};
use idar_logic::qbf::Qbf;
use idar_machines::TwoCounterMachine;
use std::sync::Arc;

/// `F(A+, φ+, 1)` — a dependency chain: label `i` requires label `i−1`.
/// Completable, decided by Thm 5.5 saturation in O(n²) guard checks.
pub fn positive_chain(n: usize) -> Workload {
    Workload {
        name: format!("positive_chain/n{n}"),
        form: idar_gen::builders::positive_chain(n),
        expected: Some(true),
    }
}

/// `F(A+, φ+, k)` — a complete `fanout`-ary tree of depth `depth`; every
/// node requires its parent (structurally) and its left sibling subtree.
pub fn positive_tree(depth: usize, fanout: usize) -> Workload {
    let mut b = SchemaBuilder::new();
    fn grow(b: &mut SchemaBuilder, parent: SchemaNodeId, depth: usize, fanout: usize) {
        if depth == 0 {
            return;
        }
        for i in 0..fanout {
            let c = b.child(parent, &format!("n{depth}_{i}")).unwrap();
            grow(b, c, depth - 1, fanout);
        }
    }
    grow(&mut b, SchemaNodeId::ROOT, depth, fanout);
    let schema = Arc::new(b.build());
    let rules = AccessRules::with_default(&schema, Formula::True);
    // Completion: the leftmost root-to-leaf path exists.
    let mut path = String::new();
    for d in (1..=depth).rev() {
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(&format!("n{d}_0"));
    }
    let completion = Formula::path(&path);
    let initial = Instance::empty(schema.clone());
    Workload {
        name: format!("positive_tree/d{depth}f{fanout}"),
        form: GuardedForm::new(schema, rules, initial, completion),
        expected: Some(true),
    }
}

/// `F(A−, φ+, 1)` — the full subset lattice over `n` labels: every label
/// freely addable (while absent) and deletable, completion = all labels
/// present.
///
/// The reachable space is exactly the 2ⁿ subsets of the label set and the
/// search *closes* — no caps needed — which makes this the scaling
/// workload for the frontier explorer: layer `d` holds `C(n, d)` states,
/// so mid-search frontiers are wide enough to feed every core. `n = 17`
/// gives 131 072 states.
pub fn subset_lattice(n: usize) -> Workload {
    Workload {
        name: format!("subset_lattice/n{n}"),
        form: idar_gen::builders::subset_lattice(n),
        expected: Some(true),
    }
}

/// `F(A+, φ−, 1)` — Thm 5.1 on a seeded random 3-CNF; expected verdict
/// from DPLL.
pub fn np_sat(seed: u64, vars: usize, clauses: usize) -> Workload {
    let cnf = random_3cnf(seed, vars, clauses);
    let expected = idar_logic::sat_solve(&cnf).is_some();
    Workload {
        name: format!("np_sat/v{vars}c{clauses}/seed{seed}"),
        form: idar_reductions::sat_to_completability::reduce(&cnf),
        expected: Some(expected),
    }
}

/// `F(A+, φ+, 1)` semi-soundness — Thm 5.6 on a seeded random 3-CNF;
/// expected: semi-sound iff UNSAT.
pub fn conp_sat(seed: u64, vars: usize, clauses: usize) -> Workload {
    let cnf = random_3cnf(seed, vars, clauses);
    let expected = idar_logic::sat_solve(&cnf).is_none();
    Workload {
        name: format!("conp_sat/v{vars}c{clauses}/seed{seed}"),
        form: idar_reductions::sat_to_non_semisoundness::reduce(&cnf),
        expected: Some(expected),
    }
}

/// `F(A−, φ−, 1)` — Thm 4.6 on dining philosophers; expected: completable
/// (the protocol deadlocks) for every `n ≥ 2`.
pub fn depth1_philosophers(n: usize) -> Workload {
    let inst = idar_deadlock::dining_philosophers(n);
    let expected = inst.find_reachable_deadlock().deadlock.is_some();
    Workload {
        name: format!("depth1_philosophers/n{n}"),
        form: idar_reductions::deadlock_to_completability::reduce(&inst).expect("no self loops"),
        expected: Some(expected),
    }
}

/// `F(A−, φ−, 1)` semi-soundness — Cor. 4.7 applied to an `np_sat`
/// workload; expected: semi-sound iff the CNF is satisfiable.
pub fn depth1_reset_build(seed: u64, vars: usize, clauses: usize) -> Workload {
    let base = np_sat(seed, vars, clauses);
    Workload {
        name: format!("depth1_reset_build/v{vars}c{clauses}/seed{seed}"),
        form: idar_reductions::completability_to_semisoundness::reduce(&base.form)
            .expect("depth-1 form"),
        expected: base.expected,
    }
}

/// `F(A+, φ−, k)` semi-soundness — Thm 5.3 on a seeded `QSAT_2k` formula
/// (`k` ∃/∀ pairs of `n` variables); expected: semi-sound iff the QBF is
/// false.
pub fn qsat_semisound(seed: u64, k: usize, n: usize) -> (Workload, Qbf) {
    let qbf = random_qsat2k(seed, k, n, 3 * k * n);
    let expected = !qbf.eval();
    let compiled = idar_reductions::qsat_to_semisoundness::reduce(&qbf).expect("qsat2k shape");
    (
        Workload {
            name: format!("qsat_semisound/k{k}n{n}/seed{seed}"),
            form: compiled.form,
            expected: Some(expected),
        },
        qbf,
    )
}

/// Scenario corpus — an unconstrained `depth`-level approval chain
/// (`F(A−, φ+, 1)`: rejection-free chains are deletion-free, so the
/// completability cell is polynomial; the workload is the realistic
/// shape, not a hardness family). Always completable: every level can
/// be signed in order.
pub fn approval_chain(depth: usize, approvers_per_level: usize, users: usize) -> Workload {
    let spec = idar_gen::ScenarioSpec::unconstrained(idar_gen::ChainSpec::simple(
        depth,
        approvers_per_level,
        users,
    ));
    let name = format!("approval_chain/d{depth}a{approvers_per_level}u{users}");
    Workload {
        form: spec.build(&name).form,
        name,
        expected: Some(true),
    }
}

/// Undecidable cell — Thm 4.1 on a library machine, compiled through the
/// shared [`idar_gen::builders::two_counter`] path.
pub fn tcm(machine: &TwoCounterMachine, name: &str, halts: bool) -> Workload {
    let compiled = idar_gen::builders::two_counter(machine);
    Workload {
        name: format!("tcm/{name}"),
        form: compiled.form,
        expected: Some(halts),
    }
}

/// A seeded random instance of a seeded random schema, for the
/// canonicalisation benches (Figure 3 scaling).
pub fn random_instance(seed: u64, schema_nodes: usize, instance_nodes: usize) -> Instance {
    let mut rng = XorShift::new(seed);
    let mut b = SchemaBuilder::new();
    let mut nodes = vec![SchemaNodeId::ROOT];
    for i in 0..schema_nodes {
        let parent = nodes[rng.below(nodes.len())];
        // A couple of shared labels to make bisimulation interesting.
        let label = format!("g{}", i % 7);
        if let Ok(c) = b.child(parent, &label) {
            nodes.push(c);
        }
    }
    let schema = Arc::new(b.build());
    let mut inst = Instance::empty(schema.clone());
    let mut inodes = vec![idar_core::InstNodeId::ROOT];
    for _ in 0..instance_nodes {
        let p = inodes[rng.below(inodes.len())];
        let sp = inst.schema_node(p);
        let kids = schema.children(sp);
        if kids.is_empty() {
            continue;
        }
        let edge = kids[rng.below(kids.len())];
        let c = inst.add_child(p, edge).expect("schema edge");
        inodes.push(c);
    }
    inst
}

/// A seeded random formula over `labels` distinct labels with roughly
/// `size` connectives (for the satisfiability benches).
pub fn random_formula(seed: u64, labels: usize, size: usize) -> Formula {
    let mut rng = XorShift::new(seed);
    gen_formula(&mut rng, labels, size, 2)
}

fn gen_formula(rng: &mut XorShift, labels: usize, size: usize, depth_budget: usize) -> Formula {
    if size == 0 {
        return Formula::label(&format!("g{}", rng.below(labels)));
    }
    match rng.below(5) {
        0 => gen_formula(rng, labels, size - 1, depth_budget).not(),
        1 | 2 => {
            let left = rng.below(size);
            gen_formula(rng, labels, left, depth_budget).and(gen_formula(
                rng,
                labels,
                size - 1 - left,
                depth_budget,
            ))
        }
        3 => {
            let left = rng.below(size);
            gen_formula(rng, labels, left, depth_budget).or(gen_formula(
                rng,
                labels,
                size - 1 - left,
                depth_budget,
            ))
        }
        _ => {
            if depth_budget == 0 {
                return Formula::label(&format!("g{}", rng.below(labels)));
            }
            let inner = gen_formula(rng, labels, size - 1, depth_budget - 1);
            let label = format!("g{}", rng.below(labels));
            Formula::Path(idar_core::PathExpr::label(&label).filtered(inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_solver::{completability, CompletabilityOptions, Verdict};

    #[test]
    fn chain_workload_is_consistent() {
        for n in [1, 4, 16] {
            let w = positive_chain(n);
            let r = completability(&w.form, &CompletabilityOptions::default());
            assert_eq!(r.verdict, Verdict::Holds, "{}", w.name);
        }
    }

    #[test]
    fn tree_workload_is_consistent() {
        let w = positive_tree(3, 2);
        let r = completability(&w.form, &CompletabilityOptions::default());
        assert_eq!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn subset_lattice_space_is_exact() {
        use idar_solver::{ExploreLimits, Explorer};
        let w = subset_lattice(6);
        let graph = Explorer::new(&w.form, ExploreLimits::small()).graph();
        assert_eq!(graph.state_count(), 64); // 2^6 subsets
        assert!(graph.build_stats().closed);
        let r = completability(&w.form, &CompletabilityOptions::default());
        assert_eq!(r.verdict, Verdict::Holds);
        // The only complete state is the full set, at depth n.
        assert_eq!(r.witness_run.unwrap().len(), 6);
    }

    #[test]
    fn approval_chain_workload_is_consistent() {
        // With the screener bypassed, exploration must find the same
        // minimal witness the screener's chase does.
        let explore_only = CompletabilityOptions {
            skip_screen: true,
            ..CompletabilityOptions::with_limits(idar_solver::ExploreLimits {
                max_states: 120_000,
                max_state_size: 64,
                max_depth: usize::MAX,
                multiplicity_cap: Some(1),
            })
        };
        for (depth, opts) in [
            (2usize, CompletabilityOptions::default()),
            (6, CompletabilityOptions::default()),
            (4, explore_only.clone()),
            (8, explore_only.clone()),
            (12, explore_only),
        ] {
            let w = approval_chain(depth, 2, 3);
            let r = completability(&w.form, &opts);
            assert_eq!(r.verdict, Verdict::Holds, "{}", w.name);
            // Minimal witness: one submission plus one signature per level.
            assert_eq!(r.witness_run.unwrap().len(), depth + 1, "{}", w.name);
        }
    }

    /// The symmetry quotient on the subset lattice: the reduced space is
    /// exactly the 2⁸ subsets, strictly fewer than the ordered trees the
    /// plain mode visits.
    #[test]
    fn symmetry_reduction_shrinks_subset_lattice() {
        use idar_solver::{ExploreLimits, Explorer, SymmetryMode};
        let w = subset_lattice(8);
        let limits = ExploreLimits {
            max_states: 1 << 20,
            ..ExploreLimits::default()
        };
        let reduced = Explorer::new(&w.form, limits).graph();
        let plain = Explorer::new(&w.form, limits)
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        assert!(reduced.build_stats().closed && plain.build_stats().closed);
        assert_eq!(reduced.state_count(), 256);
        assert!(plain.state_count() > reduced.state_count());
    }

    #[test]
    fn np_sat_expected_matches_solver() {
        for seed in 0..6 {
            let w = np_sat(seed, 4, 10);
            let r = completability(&w.form, &CompletabilityOptions::default());
            let expected = if w.expected.unwrap() {
                Verdict::Holds
            } else {
                Verdict::Fails
            };
            assert_eq!(r.verdict, expected, "{}", w.name);
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = np_sat(7, 5, 12);
        let b = np_sat(7, 5, 12);
        assert_eq!(
            a.form.completion().to_string(),
            b.form.completion().to_string()
        );
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn random_instance_generator() {
        let i = random_instance(11, 30, 200);
        assert!(i.live_count() > 50);
        let can = idar_core::bisim::canonical(&i);
        assert!(can.live_count() <= i.live_count());
    }

    #[test]
    fn random_formula_generator() {
        let f = random_formula(3, 4, 20);
        assert!(f.size() >= 20);
        // Parses back (display round-trip).
        let reparsed = Formula::parse(&f.to_string()).unwrap();
        assert_eq!(f, reparsed);
    }
}
