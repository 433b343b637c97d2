//! **Theorem 5.3**: `QSAT_2k` reduces to the complement of semi-soundness
//! for `F(A+, φ−, k)`, establishing `Π^P_2k`-hardness (and PSPACE-hardness
//! for unbounded depth, Cor. 5.4).
//!
//! For `∃x¹ ∀y¹ … ∃xᵏ ∀yᵏ ψ` (k blocks of n variables each) the schema is
//! the paper's ∀-tower: the root carries `uc` ("under construction"), the
//! first existential block's variables, the *last* universal block's
//! variables `yᵏ`, and a chain of `∀ᵢ` nodes; each `∀ᵢ` node carries the
//! next existential block `xⁱ⁺¹`, the previous universal block `yⁱ`, and
//! `∀ᵢ₊₁`.
//!
//! Access rules (all positive): everything except `uc` and the `yᵏⱼ` is
//! addable/deletable while `uc` is present at the root (`r/uc`, i.e. a
//! `../…/uc` chain from the touched node); `yᵏⱼ` are always free; `uc` is
//! deletable but re-addable only when still present — deleting `uc`
//! freezes everything but `yᵏ` forever.
//!
//! The completion formula is
//! `uc ∨ (∨ᵢ ∀₁/…/∀ᵢ₋₁[¬∀ᵢ[ηᵢ₁ ∧ … ∧ ηᵢₙ]]) ∨ ∀₁/…/∀ₖ₋₁[¬ψ′]` with
//! `ηᵢⱼ = yⁱⱼ ↔ r/yᵏⱼ`: an `uc`-free instance is completable iff some
//! `yᵏ`-assignment exposes a *missing* universal branch or a *failing*
//! matrix leaf — impossible exactly when the instance encodes a winning
//! strategy for the QSAT instance.

use idar_core::{
    AccessRules, Formula, GuardedForm, InstNodeId, Instance, PathExpr, Right, SchemaBuilder,
    SchemaNodeId, Update,
};
use idar_logic::prop::{Assignment, Var};
use idar_logic::qbf::{Qbf, Quantifier};
use std::sync::Arc;

/// Label of the "under construction" marker.
pub const UC: &str = "uc";

/// Label of an existential variable `xⁱⱼ` (1-based block index in the
/// paper; 0-based here).
pub fn x_label(i: usize, j: usize) -> String {
    format!("x{i}_{j}")
}

/// Label of a universal variable `yⁱⱼ`.
pub fn y_label(i: usize, j: usize) -> String {
    format!("y{i}_{j}")
}

/// Label of the chain node `∀ᵢ` (0-based: `A0` is the paper's `∀1`).
pub fn forall_label(i: usize) -> String {
    format!("A{i}")
}

/// A compiled Thm 5.3 instance: the guarded form plus the shape data
/// needed to build runs and witness states.
#[derive(Debug, Clone)]
pub struct Qsat2kForm {
    pub form: GuardedForm,
    pub k: usize,
    pub n: usize,
}

/// Why a QBF cannot be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotQsat2k(pub String);

impl std::fmt::Display for NotQsat2k {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not a QSAT_2k instance: {}", self.0)
    }
}
impl std::error::Error for NotQsat2k {}

/// Compile a `QSAT_2k` QBF (produced by [`Qbf::qsat2k`] or shaped like it:
/// alternating ∃/∀ blocks of equal size `n`, starting existential) into
/// the Thm 5.3 guarded form. The form is **not** semi-sound iff the QBF
/// evaluates to true.
pub fn reduce(qbf: &Qbf) -> Result<Qsat2kForm, NotQsat2k> {
    let (k, n) = validate_shape(qbf)?;

    // ---- Schema -----------------------------------------------------
    let mut b = SchemaBuilder::new();
    b.child(SchemaNodeId::ROOT, UC).expect("fresh");
    for j in 0..n {
        b.child(SchemaNodeId::ROOT, &x_label(0, j)).expect("fresh");
        b.child(SchemaNodeId::ROOT, &y_label(k - 1, j))
            .expect("fresh");
    }
    // The ∀ chain: A0 under the root, A(i+1) under A(i); under A(i):
    // x(i+1) vars and y(i) vars.
    let mut chain_parent = SchemaNodeId::ROOT;
    let mut chain_nodes = Vec::new();
    for i in 0..k.saturating_sub(1) {
        let a = b.child(chain_parent, &forall_label(i)).expect("fresh");
        chain_nodes.push(a);
        for j in 0..n {
            b.child(a, &x_label(i + 1, j)).expect("fresh");
            b.child(a, &y_label(i, j)).expect("fresh");
        }
        chain_parent = a;
    }
    let schema = Arc::new(b.build());

    // ---- Access rules (positive) -------------------------------------
    let mut rules = AccessRules::new(&schema);
    for e in schema.edge_ids() {
        let label = schema.label(e).to_string();
        let parent_depth = schema.node_depth(e) as usize - 1;
        let is_yk = (0..n).any(|j| label == y_label(k - 1, j));
        let guard = if label == UC {
            // A(add, uc) = uc; A(del, uc) = true.
            rules.set(Right::Add, e, Formula::label(UC));
            rules.set(Right::Del, e, Formula::True);
            continue;
        } else if is_yk {
            Formula::True
        } else {
            // `r/uc` from the parent node: climb to the root, check uc.
            Formula::Path(PathExpr::ancestors_then(parent_depth, UC))
        };
        rules.set(Right::Add, e, guard.clone());
        rules.set(Right::Del, e, guard);
    }

    // ---- Completion formula -------------------------------------------
    let mut disjuncts: Vec<Formula> = vec![Formula::label(UC)];
    // ∨_{i=1}^{k-1} ∀1/…/∀i−1[¬∀i[η_i1 ∧ … ∧ η_in]]
    // 0-based: for chain level c in 0..k-1 (the paper's ∀_{c+1}), the
    // prefix is A0/…/A(c−1) and the body checks the A(c) child.
    for c in 0..k.saturating_sub(1) {
        // η_cj at the A(c) node (depth c+1): y_label(c, j) ↔ root's yk_j.
        let eta = Formula::conj((0..n).map(|j| {
            let yij = Formula::label(&y_label(c, j));
            let root_yk = Formula::Path(PathExpr::ancestors_then(c + 1, &y_label(k - 1, j)));
            yij.iff(root_yk)
        }));
        let body = Formula::Path(PathExpr::label(&forall_label(c)).filtered(eta.not())).not();
        disjuncts.push(at_chain_depth(c, body));
    }
    // ∀1/…/∀k−1[¬ψ′]
    let psi_prime = substitute_matrix(&qbf.matrix, k, n);
    disjuncts.push(at_chain_depth(k - 1, psi_prime.not()));
    let completion = Formula::disj(disjuncts);

    // ---- Initial instance: root + uc ----------------------------------
    let mut initial = Instance::empty(schema.clone());
    initial
        .add_child_by_label(InstNodeId::ROOT, UC)
        .expect("uc exists");

    Ok(Qsat2kForm {
        form: GuardedForm::new(schema, rules, initial, completion),
        k,
        n,
    })
}

/// Wrap `body` under the chain path `A0/…/A(depth−1)[body]` (an *exists*
/// over chain nodes at that depth); `depth = 0` evaluates at the root.
fn at_chain_depth(depth: usize, body: Formula) -> Formula {
    if depth == 0 {
        return body;
    }
    let chain = (0..depth).map(|c| PathExpr::label(&forall_label(c)));
    let chain = chain.reduce(PathExpr::then).expect("depth > 0");
    Formula::Path(chain.filtered(body))
}

/// ψ′: the matrix with each variable replaced by its `../…/label` path,
/// as read from a chain node at depth `k−1`.
fn substitute_matrix(matrix: &idar_logic::PropFormula, k: usize, n: usize) -> Formula {
    use idar_logic::PropFormula as P;
    match matrix {
        P::Const(true) => Formula::True,
        P::Const(false) => Formula::False,
        P::Var(v) => var_path(*v, k, n),
        P::Not(g) => substitute_matrix(g, k, n).not(),
        P::And(fs) => Formula::conj(fs.iter().map(|g| substitute_matrix(g, k, n))),
        P::Or(fs) => Formula::disj(fs.iter().map(|g| substitute_matrix(g, k, n))),
    }
}

/// The path for a [`Qbf::qsat2k`]-numbered variable, from a depth-(k−1)
/// chain node: `xⁱⱼ ↦ ../^{k−i}/xᵢⱼ` (paper's 1-based i; our block index
/// is 0-based so the climb is `k−1−i`), `yⁱⱼ (i<k−1) ↦ ../^{k−2−i}/yᵢⱼ`,
/// `yᵏ⁻¹ⱼ ↦ ../^{k−1}/y(k−1)ⱼ`.
fn var_path(v: Var, k: usize, n: usize) -> Formula {
    let idx = v.index();
    let block_pair = idx / (2 * n);
    let within = idx % (2 * n);
    if within < n {
        // x-variable of block pair `block_pair` — lives at depth
        // `block_pair` (under the root for 0).
        let ups = (k - 1) - block_pair;
        Formula::Path(PathExpr::ancestors_then(ups, &x_label(block_pair, within)))
    } else {
        let j = within - n;
        if block_pair == k - 1 {
            // yᵏ: at the root.
            Formula::Path(PathExpr::ancestors_then(k - 1, &y_label(k - 1, j)))
        } else {
            // yⁱ lives under ∀ᵢ (depth block_pair + 1).
            let ups = (k - 1) - (block_pair + 1);
            Formula::Path(PathExpr::ancestors_then(ups, &y_label(block_pair, j)))
        }
    }
}

fn validate_shape(qbf: &Qbf) -> Result<(usize, usize), NotQsat2k> {
    if qbf.blocks.is_empty() || !qbf.blocks.len().is_multiple_of(2) {
        return Err(NotQsat2k(format!(
            "need an even, non-zero number of blocks, got {}",
            qbf.blocks.len()
        )));
    }
    let n = qbf.blocks[0].1.len();
    if n == 0 {
        return Err(NotQsat2k("empty first block".into()));
    }
    for (i, (q, vars)) in qbf.blocks.iter().enumerate() {
        let expected = if i % 2 == 0 {
            Quantifier::Exists
        } else {
            Quantifier::ForAll
        };
        if *q != expected {
            return Err(NotQsat2k(format!("block {i} is {q}, expected {expected}")));
        }
        if vars.len() != n {
            return Err(NotQsat2k(format!(
                "block {i} has {} vars, expected {n}",
                vars.len()
            )));
        }
        for (j, v) in vars.iter().enumerate() {
            let expected_var = if i % 2 == 0 {
                Qbf::x(i / 2, j, n)
            } else {
                Qbf::y(i / 2, j, n)
            };
            if *v != expected_var {
                return Err(NotQsat2k(format!(
                    "block {i} var {j} is {v}, expected the qsat2k numbering"
                )));
            }
        }
    }
    Ok((qbf.blocks.len() / 2, n))
}

// ---------------------------------------------------------------------------
// Witness machinery (for validation and the benchmark harness)
// ---------------------------------------------------------------------------

/// If the QBF is true, build the proof's incompletable witness instance:
/// the full strategy tree (winning x-choices above every combination of
/// universal values), without `uc`. Returns `None` if the QBF is false.
pub fn strategy_witness(q: &Qsat2kForm, qbf: &Qbf) -> Option<Instance> {
    let mut inst = Instance::empty(q.form.schema().clone());
    let mut a = Assignment::all_false(qbf.var_count().max(1));
    if build_strategy(q, qbf, 0, InstNodeId::ROOT, &mut a, &mut inst) {
        Some(inst)
    } else {
        None
    }
}

/// Recursively: choose x-block `i` (existentially) under `node`, then for
/// all 2ⁿ assignments of y-block `i` create a `∀ᵢ₊₁` child (or, at the
/// last level, check the matrix).
fn build_strategy(
    q: &Qsat2kForm,
    qbf: &Qbf,
    i: usize,
    node: InstNodeId,
    a: &mut Assignment,
    inst: &mut Instance,
) -> bool {
    let n = q.n;
    // Existential choice for x-block i: try all 2ⁿ.
    'choice: for bits in 0u64..(1 << n) {
        for j in 0..n {
            a.set(Qbf::x(i, j, n), bits >> j & 1 == 1);
        }
        // Snapshot for rollback.
        let checkpoint = inst.clone();
        // Materialise the chosen x values under `node`.
        for j in 0..n {
            if bits >> j & 1 == 1 {
                inst.add_child_by_label(node, &x_label(i, j))
                    .expect("schema has x label here");
            }
        }
        // Universal sweep over y-block i.
        for ybits in 0u64..(1 << n) {
            for j in 0..n {
                a.set(Qbf::y(i, j, n), ybits >> j & 1 == 1);
            }
            if i == q.k - 1 {
                // Innermost: the matrix must hold.
                if !qbf.matrix.eval(a) {
                    *inst = checkpoint;
                    continue 'choice;
                }
            } else {
                // Create the ∀ᵢ child representing this y-assignment.
                let child = inst
                    .add_child_by_label(node, &forall_label(i))
                    .expect("chain label");
                for j in 0..n {
                    if ybits >> j & 1 == 1 {
                        inst.add_child_by_label(child, &y_label(i, j))
                            .expect("y label");
                    }
                }
                if !build_strategy(q, qbf, i + 1, child, a, inst) {
                    *inst = checkpoint;
                    continue 'choice;
                }
            }
        }
        return true;
    }
    false
}

/// A replayable run from the initial instance to an arbitrary `uc`-free
/// target state: add every node of the target top-down while `uc` is
/// present, then delete `uc`.
pub fn run_to(q: &Qsat2kForm, target: &Instance) -> Vec<Update> {
    let mut run = Vec::new();
    let mut inst = q.form.initial().clone();
    // Map target nodes to the ids they get in the replayed instance.
    let mut map = std::collections::HashMap::new();
    map.insert(InstNodeId::ROOT, InstNodeId::ROOT);
    for tn in target.live_nodes() {
        if tn == InstNodeId::ROOT {
            continue;
        }
        let parent = map[&target.parent(tn).expect("non-root")];
        let u = Update::Add {
            parent,
            edge: target.schema_node(tn),
        };
        let new = q
            .form
            .apply(&mut inst, &u)
            .expect("additions allowed while uc present")
            .expect("addition returns id");
        map.insert(tn, new);
        run.push(u);
    }
    let uc_node = inst
        .children_with_label(InstNodeId::ROOT, UC)
        .next()
        .expect("uc still present");
    let du = Update::Del { node: uc_node };
    q.form.apply(&mut inst, &du).expect("uc deletable");
    run.push(du);
    run
}

/// **Exact** completability for an `uc`-free state of a Thm 5.3 form.
///
/// Once `uc` is gone, only the root-level `yᵏ` variables can change, so
/// completability reduces to a sweep over the `2ⁿ` `yᵏ`-assignments.
pub fn ucfree_completable(q: &Qsat2kForm, state: &Instance) -> bool {
    assert!(
        state
            .children_with_label(InstNodeId::ROOT, UC)
            .next()
            .is_none(),
        "state must be uc-free"
    );
    let n = q.n;
    for bits in 0u64..(1 << n) {
        let mut s = state.clone();
        // Install the yᵏ assignment: remove existing copies, add wanted.
        for j in 0..n {
            let label = y_label(q.k - 1, j);
            let existing: Vec<InstNodeId> =
                s.children_with_label(InstNodeId::ROOT, &label).collect();
            if bits >> j & 1 == 1 {
                if existing.is_empty() {
                    s.add_child_by_label(InstNodeId::ROOT, &label)
                        .expect("yk label");
                }
            } else {
                for e in existing {
                    s.remove_leaf(e).expect("yk nodes are leaves");
                }
            }
        }
        if q.form.is_complete(&s) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::fragment::{classify, DepthClass, Polarity};
    use idar_logic::gen::random_qsat2k;
    use idar_logic::PropFormula;
    use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
    use idar_solver::Verdict;

    fn p_var(v: Var) -> PropFormula {
        PropFormula::Var(v)
    }

    #[test]
    fn qbf_oracles_agree_on_reduction_inputs() {
        // The Thm 5.3 family's expected verdicts come from a QBF oracle;
        // the recursive evaluator and the CDCL assumption-based expansion
        // must agree on exactly the instances this reduction consumes.
        for seed in 0..15 {
            for (k, n) in [(1, 1), (1, 2), (2, 1)] {
                let qbf = random_qsat2k(seed, k, n, 3 * k * n);
                assert_eq!(
                    qbf.solve_via_sat(),
                    qbf.eval(),
                    "seed {seed} k={k} n={n}: {qbf}"
                );
            }
        }
    }

    #[test]
    fn fragment_is_positive_depth_k() {
        let qbf = Qbf::qsat2k(2, 1, p_var(Qbf::x(0, 0, 1)));
        let q = reduce(&qbf).unwrap();
        let f = classify(&q.form);
        assert_eq!(f.access, Polarity::Positive);
        assert_eq!(f.completion, Polarity::Unrestricted);
        assert_eq!(f.depth, DepthClass::K(2));
    }

    #[test]
    fn k1_matches_qbf_via_exact_semisoundness() {
        // Depth-1 case: the exact depth-1 solver decides semi-soundness;
        // it must disagree with the QBF's truth value (true ⇒ not
        // semi-sound).
        let n = 1;
        let x = p_var(Qbf::x(0, 0, n));
        let y = p_var(Qbf::y(0, 0, n));
        let cases = [
            (x.clone().or(y.clone()), true),   // ∃x∀y x∨y : true
            (x.clone().and(y.clone()), false), // ∃x∀y x∧y : false
            (x.clone().or(y.clone().not()), true),
            (
                (x.clone().and(y.clone())).or(x.clone().not().and(y.clone().not())),
                false, // x ↔ y cannot be forced by x alone
            ),
        ];
        for (matrix, qbf_true) in cases {
            let qbf = Qbf::qsat2k(1, n, matrix.clone());
            assert_eq!(qbf.eval(), qbf_true, "baseline {matrix}");
            let q = reduce(&qbf).unwrap();
            let r = semisoundness(&q.form, &SemisoundnessOptions::default());
            let expected = if qbf_true {
                Verdict::Fails
            } else {
                Verdict::Holds
            };
            assert_eq!(r.verdict, expected, "matrix {matrix}");
        }
    }

    #[test]
    fn k1_n2_random_matrices() {
        for seed in 0..25 {
            let qbf = random_qsat2k(seed, 1, 2, 7);
            let q = reduce(&qbf).unwrap();
            let r = semisoundness(&q.form, &SemisoundnessOptions::default());
            let expected = if qbf.eval() {
                Verdict::Fails
            } else {
                Verdict::Holds
            };
            assert_eq!(r.verdict, expected, "seed {seed}");
        }
    }

    #[test]
    fn k2_strategy_witness_is_reachable_and_incompletable() {
        let n = 1;
        // ∃x¹ ∀y¹ ∃x² ∀y²: (x¹ ∨ y¹) ∧ (x² ↔ y¹) — true: pick x¹ = 1 and
        // copy y¹ into x².
        let x1 = p_var(Qbf::x(0, 0, n));
        let y1 = p_var(Qbf::y(0, 0, n));
        let x2 = p_var(Qbf::x(1, 0, n));
        let y2 = p_var(Qbf::y(1, 0, n));
        let iff = (x2.clone().and(y1.clone())).or(x2.clone().not().and(y1.clone().not()));
        let matrix = (x1.clone().or(y1.clone()))
            .and(iff)
            .and(y2.clone().or(y2.not()));
        let qbf = Qbf::qsat2k(2, n, matrix);
        assert!(qbf.eval(), "baseline should be true");
        let q = reduce(&qbf).unwrap();

        let witness = strategy_witness(&q, &qbf).expect("true QBF has a strategy");
        // The witness is genuinely reachable: replay the constructed run.
        let run = run_to(&q, &witness);
        let replay = q.form.replay(&run).unwrap();
        let reached = replay.last();
        // The reached state equals the witness (up to isomorphism).
        assert_eq!(reached.iso_code(), witness.iso_code());
        // And it is exactly incompletable (2ⁿ yᵏ-sweep).
        assert!(!ucfree_completable(&q, reached));
        // Semi-soundness therefore fails.
        assert!(!q.form.is_complete(reached));
    }

    #[test]
    fn k2_false_qbf_has_no_strategy_and_sampled_states_complete() {
        let n = 1;
        // ∃x¹ ∀y¹ ∃x² ∀y²: x² ↔ y² — no x² choice survives both y² values.
        let x2 = p_var(Qbf::x(1, 0, n));
        let y2 = p_var(Qbf::y(1, 0, n));
        let matrix = (x2.clone().and(y2.clone())).or(x2.not().and(y2.not()));
        let qbf = Qbf::qsat2k(2, n, matrix);
        assert!(!qbf.eval());
        let q = reduce(&qbf).unwrap();
        assert!(strategy_witness(&q, &qbf).is_none());

        // Sample uc-free states (all "attempted strategies" with a single
        // ∀ child) — each must remain completable, as the proof predicts.
        for x1_present in [false, true] {
            for y1_present in [false, true] {
                for x2_present in [false, true] {
                    let mut s = Instance::empty(q.form.schema().clone());
                    if x1_present {
                        s.add_child_by_label(InstNodeId::ROOT, &x_label(0, 0))
                            .unwrap();
                    }
                    let a = s
                        .add_child_by_label(InstNodeId::ROOT, &forall_label(0))
                        .unwrap();
                    if y1_present {
                        s.add_child_by_label(a, &y_label(0, 0)).unwrap();
                    }
                    if x2_present {
                        s.add_child_by_label(a, &x_label(1, 0)).unwrap();
                    }
                    assert!(
                        ucfree_completable(&q, &s),
                        "state should be completable (missing-branch or failing-matrix disjunct)"
                    );
                }
            }
        }
    }

    #[test]
    fn uc_deletion_freezes_everything_but_yk() {
        let n = 1;
        let qbf = Qbf::qsat2k(2, n, p_var(Qbf::x(0, 0, n)));
        let q = reduce(&qbf).unwrap();
        let root = InstNodeId::ROOT;
        let mut inst = q.form.initial().clone();
        // While uc present: x1 addable.
        let x1_edge = q.form.schema().resolve(&x_label(0, 0)).unwrap();
        assert!(q.form.is_allowed(
            &inst,
            &Update::Add {
                parent: root,
                edge: x1_edge
            }
        ));
        // Delete uc.
        let uc_node = inst.children_with_label(root, UC).next().unwrap();
        q.form
            .apply(&mut inst, &Update::Del { node: uc_node })
            .unwrap();
        // uc cannot come back (A(add, uc) = uc).
        let uc_edge = q.form.schema().resolve(UC).unwrap();
        assert!(!q.form.is_allowed(
            &inst,
            &Update::Add {
                parent: root,
                edge: uc_edge
            }
        ));
        // x1 frozen; yk still free.
        assert!(!q.form.is_allowed(
            &inst,
            &Update::Add {
                parent: root,
                edge: x1_edge
            }
        ));
        let yk_edge = q.form.schema().resolve(&y_label(1, 0)).unwrap();
        assert!(q.form.is_allowed(
            &inst,
            &Update::Add {
                parent: root,
                edge: yk_edge
            }
        ));
    }

    #[test]
    fn shape_validation() {
        let bad = Qbf::new(vec![(Quantifier::ForAll, vec![Var(0)])], p_var(Var(0)));
        assert!(reduce(&bad).is_err());
    }
}
