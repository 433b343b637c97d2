//! The seed-driven guarded-form generator.
//!
//! [`generate`] is a pure function of `(config, seed)`: the same pair
//! always yields the same form, on every platform — the determinism
//! contract the differential fuzz harness and CI rely on. All randomness
//! flows through [`idar_logic::gen::Rng`].
//!
//! Generated formulas are *contextual*: a guard for edge `e` is built from
//! path atoms that actually mean something at `e`'s parent node (sibling
//! labels, grandchild paths, `../`-sibling paths), so the access rules
//! interact with the instance rather than being dead syntax.

use crate::config::{FragmentSpec, GenConfig};
use idar_core::{
    AccessRules, Formula, GuardedForm, Instance, PathExpr, Right, Schema, SchemaBuilder,
    SchemaNodeId,
};
use idar_logic::gen::{split_mix, Rng, XorShift};
use std::sync::Arc;

/// Generate one guarded form from `(config, seed)`, deterministically.
pub fn generate(config: &GenConfig, seed: u64) -> GuardedForm {
    let mut rng = XorShift::new(split_mix(seed ^ config.fragment.tag()));
    let positive = config.fragment == FragmentSpec::Positive;

    // --- schema ---------------------------------------------------------
    let max_depth = match config.fragment {
        FragmentSpec::Depth1 => 1,
        _ => config.size.max_depth.max(1),
    };
    let n_fields = rng.range(1, config.size.max_fields.max(1));
    let mut b = SchemaBuilder::new();
    let mut nodes: Vec<(SchemaNodeId, usize)> = vec![(SchemaNodeId::ROOT, 0)];
    for i in 0..n_fields {
        // Candidates: nodes that can still grow a child within the depth cap.
        let parents: Vec<SchemaNodeId> = nodes
            .iter()
            .filter(|&&(_, d)| d < max_depth)
            .map(|&(n, _)| n)
            .collect();
        let p = parents[rng.below(parents.len())];
        let d = nodes.iter().find(|&&(n, _)| n == p).expect("known node").1;
        let c = b.child(p, &format!("f{i}")).expect("globally fresh label");
        nodes.push((c, d + 1));
    }
    let schema = Arc::new(b.build());

    // --- access rules ---------------------------------------------------
    let mut rules = AccessRules::new(&schema);
    for e in schema.edge_ids() {
        let parent = schema.parent(e).expect("edge has a parent");
        if rng.chance(config.rule_density, 100) {
            let budget = rng.range(1, config.size.max_formula_size.max(1));
            let g = gen_formula(&mut rng, &atoms_at(&schema, parent), budget, positive);
            rules.set(Right::Add, e, g);
        }
        if config.fragment != FragmentSpec::DeletionFree && rng.chance(config.rule_density / 2, 100)
        {
            let budget = rng.range(1, config.size.max_formula_size.max(1));
            let g = gen_formula(&mut rng, &atoms_at(&schema, parent), budget, positive);
            rules.set(Right::Del, e, g);
        }
    }
    // Guarantee at least one potentially-enabled addition so the form is
    // not trivially frozen at its initial instance.
    let has_enabled_add = schema
        .edge_ids()
        .any(|e| rules.get(Right::Add, e) != &Formula::False);
    if !has_enabled_add {
        let first = schema.children(SchemaNodeId::ROOT)[0];
        rules.set(Right::Add, first, Formula::True);
    }

    // --- initial instance -----------------------------------------------
    let initial = if rng.bool() || config.size.max_initial_nodes == 0 {
        Instance::empty(schema.clone())
    } else {
        let budget = rng.range(1, config.size.max_initial_nodes);
        let mut chooser = |n: usize| rng.below(n);
        Instance::arbitrary_with(schema.clone(), budget, &mut chooser)
    };

    // --- completion formula ---------------------------------------------
    let completion = {
        let budget = rng.range(1, config.size.max_formula_size.max(1));
        gen_formula(
            &mut rng,
            &atoms_at(&schema, SchemaNodeId::ROOT),
            budget,
            positive,
        )
    };

    GuardedForm::new(schema, rules, initial, completion)
}

/// The per-case seeds of a fuzzing stream: `count` decorrelated seeds
/// derived from `(config.fragment, master_seed)`. Case `k`'s form is
/// `generate(config, stream[k])`; the derivation is stable, so any case
/// can be regenerated in isolation from `(master_seed, fragment, k)`.
pub fn generate_stream(config: &GenConfig, master_seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| split_mix(master_seed ^ split_mix(config.fragment.tag().wrapping_add(k))))
        .collect()
}

/// Path atoms that are meaningful when evaluated at `ctx`: child labels,
/// child/grandchild paths, and `../sibling` paths.
fn atoms_at(schema: &Schema, ctx: SchemaNodeId) -> Vec<PathExpr> {
    let mut out = Vec::new();
    for &c in schema.children(ctx) {
        out.push(PathExpr::label(schema.label(c)));
        for &g in schema.children(c) {
            out.push(PathExpr::label(schema.label(c)).then(PathExpr::label(schema.label(g))));
        }
    }
    if let Some(p) = schema.parent(ctx) {
        for &sib in schema.children(p) {
            out.push(PathExpr::parent().then(PathExpr::label(schema.label(sib))));
        }
    }
    out
}

/// A random formula of AST size ≈ `budget` over `atoms`; negation-free
/// when `positive`.
fn gen_formula(rng: &mut impl Rng, atoms: &[PathExpr], budget: usize, positive: bool) -> Formula {
    if budget <= 1 || atoms.is_empty() {
        // Leaf: usually an atom, occasionally a constant.
        return if atoms.is_empty() || rng.chance(1, 8) {
            if rng.bool() {
                Formula::True
            } else {
                Formula::False
            }
        } else {
            Formula::Path(atoms[rng.below(atoms.len())].clone())
        };
    }
    let arms = if positive { 3 } else { 4 };
    match rng.below(arms) {
        0 => {
            let left = rng.range(1, budget - 1);
            gen_formula(rng, atoms, left, positive).and(gen_formula(
                rng,
                atoms,
                budget - 1 - left,
                positive,
            ))
        }
        1 => {
            let left = rng.range(1, budget - 1);
            gen_formula(rng, atoms, left, positive).or(gen_formula(
                rng,
                atoms,
                budget - 1 - left,
                positive,
            ))
        }
        2 => {
            // A filtered path: `atom[inner]`, evaluated at the atom's end.
            let atom = atoms[rng.below(atoms.len())].clone();
            let inner = gen_formula(rng, atoms, budget.saturating_sub(2).max(1), positive);
            Formula::Path(atom.filtered(inner))
        }
        _ => gen_formula(rng, atoms, budget - 1, positive).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::fragment::{classify, Polarity};
    use idar_core::serialize;

    #[test]
    fn deterministic_per_seed() {
        for frag in FragmentSpec::ALL {
            let cfg = GenConfig::new(frag);
            for seed in 0..20u64 {
                let a = generate(&cfg, seed);
                let b = generate(&cfg, seed);
                assert_eq!(serialize::to_ron(&a), serialize::to_ron(&b));
            }
            let a = generate(&cfg, 1);
            let b = generate(&cfg, 2);
            assert_ne!(serialize::to_ron(&a), serialize::to_ron(&b));
        }
    }

    #[test]
    fn fragments_respected() {
        for frag in FragmentSpec::ALL {
            let cfg = GenConfig::new(frag);
            for seed in 0..50u64 {
                let g = generate(&cfg, seed);
                assert!(frag.admits(&g), "{frag} seed {seed} escaped its fragment");
            }
        }
    }

    #[test]
    fn positive_really_positive() {
        let cfg = GenConfig::new(FragmentSpec::Positive);
        for seed in 0..30u64 {
            let g = generate(&cfg, seed);
            let f = classify(&g);
            assert_eq!(f.access, Polarity::Positive);
            assert_eq!(f.completion, Polarity::Positive);
        }
    }

    #[test]
    fn serialization_roundtrips() {
        for frag in FragmentSpec::ALL {
            let cfg = GenConfig::new(frag);
            for seed in 0..20u64 {
                let g = generate(&cfg, seed);
                let text = serialize::to_ron(&g);
                let g2 = serialize::from_ron(&text).expect("generated forms serialize");
                assert_eq!(text, serialize::to_ron(&g2), "not canonical at seed {seed}");
            }
        }
    }

    #[test]
    fn stream_seeds_are_stable_and_distinct() {
        let cfg = GenConfig::new(FragmentSpec::Guarded);
        let a = generate_stream(&cfg, 0xC0FFEE, 100);
        let b = generate_stream(&cfg, 0xC0FFEE, 100);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        // Different fragments get different streams from one master seed.
        let c = generate_stream(&GenConfig::new(FragmentSpec::Positive), 0xC0FFEE, 100);
        assert_ne!(a, c);
    }
}
