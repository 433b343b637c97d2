//! Guarded forms (Def. 3.11): schema + access rules + initial instance +
//! completion formula, and their runs.
//!
//! The access-rule function `A : {add, del} × E → F` maps each access right
//! and schema edge to a guard formula. The only updates are leaf-edge
//! additions and deletions (Sec. 3.4); an update on an edge `e = (n, n')`
//! is allowed iff `A(right, ê)` holds *at `n`* — the parent — in the
//! current instance.

use crate::error::{CoreError, Result};
use crate::formula::{compile, Evaluator, Formula, Program};
use crate::instance::{InstNodeId, Instance};
use crate::schema::{Schema, SchemaNodeId};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The access rights `R = {add, del}` of Sec. 3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Right {
    /// The right to create an edge.
    Add,
    /// The right to delete an edge.
    Del,
}

impl fmt::Display for Right {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Right::Add => write!(f, "add"),
            Right::Del => write!(f, "del"),
        }
    }
}

/// The access-rule function `A` of a guarded form.
///
/// Rules are stored per schema edge (identified by the edge's end node).
/// Edges without an explicit rule fall back to the table default, which is
/// `false` — matching the paper's "There are no other access rights"
/// (Thm 4.6 proof).
#[derive(Debug, Clone)]
pub struct AccessRules {
    add: Vec<Option<Formula>>,
    del: Vec<Option<Formula>>,
    default: Formula,
}

impl AccessRules {
    /// An empty table over `schema` with default guard `false`.
    pub fn new(schema: &Schema) -> AccessRules {
        AccessRules {
            add: vec![None; schema.node_count()],
            del: vec![None; schema.node_count()],
            default: Formula::False,
        }
    }

    /// An empty table whose unspecified guards are `default` instead of
    /// `false` (Thm 5.1 sets *all* rules to `true`).
    pub fn with_default(schema: &Schema, default: Formula) -> AccessRules {
        AccessRules {
            add: vec![None; schema.node_count()],
            del: vec![None; schema.node_count()],
            default,
        }
    }

    /// Set the guard for `(right, edge)`.
    pub fn set(&mut self, right: Right, edge: SchemaNodeId, guard: Formula) {
        let slot = match right {
            Right::Add => &mut self.add[edge.index()],
            Right::Del => &mut self.del[edge.index()],
        };
        *slot = Some(guard);
    }

    /// Set both `add` and `del` guards for an edge at once.
    pub fn set_both(&mut self, edge: SchemaNodeId, add: Formula, del: Formula) {
        self.set(Right::Add, edge, add);
        self.set(Right::Del, edge, del);
    }

    /// OR an extra disjunct onto the existing guard (or the default if
    /// unset). Reduction constructions use this to merge per-transition
    /// clauses into shared edges.
    pub fn add_disjunct(&mut self, right: Right, edge: SchemaNodeId, guard: Formula) {
        let current = self.get(right, edge).clone();
        let merged = if current == Formula::False {
            guard
        } else {
            current.or(guard)
        };
        self.set(right, edge, merged);
    }

    /// The guard for `(right, edge)` (the default if unset).
    pub fn get(&self, right: Right, edge: SchemaNodeId) -> &Formula {
        let slot = match right {
            Right::Add => &self.add[edge.index()],
            Right::Del => &self.del[edge.index()],
        };
        slot.as_ref().unwrap_or(&self.default)
    }

    /// The default guard for unspecified edges.
    pub fn default_guard(&self) -> &Formula {
        &self.default
    }

    /// Are all guards (including the default, if any edge falls through to
    /// it) positive? This is the `A+` condition of Sec. 3.5.
    pub fn all_positive(&self, schema: &Schema) -> bool {
        schema
            .edge_ids()
            .all(|e| self.get(Right::Add, e).is_positive() && self.get(Right::Del, e).is_positive())
    }

    /// Is deletion statically impossible — every `del` guard (including
    /// the default, where an edge falls through to it) syntactically
    /// `false`? In such a form node counts grow monotonically along every
    /// run, so states at different BFS depths can never be isomorphic —
    /// the soundness condition for the explorer's frontier-only capacity
    /// mode (`idar-solver`'s `spill` module).
    pub fn deletion_free(&self, schema: &Schema) -> bool {
        schema
            .edge_ids()
            .all(|e| *self.get(Right::Del, e) == Formula::False)
    }

    /// Apply `f` to every guard, rewriting the table in place (the
    /// Cor. 4.2 / Cor. 4.7 constructions transform whole tables).
    pub fn map_guards(
        &mut self,
        schema: &Schema,
        mut f: impl FnMut(Right, SchemaNodeId, &Formula) -> Formula,
    ) {
        for e in schema.edge_ids() {
            let new_add = f(Right::Add, e, self.get(Right::Add, e));
            self.set(Right::Add, e, new_add);
            let new_del = f(Right::Del, e, self.get(Right::Del, e));
            self.set(Right::Del, e, new_del);
        }
    }
}

/// An update: the addition or deletion of a single leaf edge (Sec. 3.4).
///
/// Node ids refer to the instance the update is applied to; ids are stable
/// across [`Instance::clone`], so updates can be generated on one copy and
/// applied to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// Add a fresh leaf under `parent` along the schema edge `edge`.
    Add {
        /// The instance node receiving the new child.
        parent: InstNodeId,
        /// The schema node identifying the edge being instantiated.
        edge: SchemaNodeId,
    },
    /// Delete the (leaf) node `node`.
    Del {
        /// The leaf instance node to remove.
        node: InstNodeId,
    },
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Add { parent, edge } => write!(f, "add {edge} under {parent}"),
            Update::Del { node } => write!(f, "del {node}"),
        }
    }
}

/// A guarded form `(M, A, I₀, φ)` (Def. 3.11).
///
/// Every guard evaluation made through the form runs a *guard program*:
/// the guard compiled once against the schema node it is evaluated at.
/// The programs are built on first use and shared by clones.
#[derive(Clone)]
pub struct GuardedForm {
    schema: Arc<Schema>,
    rules: AccessRules,
    initial: Instance,
    completion: Formula,
    programs: OnceLock<Arc<GuardPrograms>>,
}

impl fmt::Debug for GuardedForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuardedForm")
            .field("schema", &self.schema)
            .field("rules", &self.rules)
            .field("initial", &self.initial)
            .field("completion", &self.completion)
            .finish_non_exhaustive()
    }
}

/// Every guard of a form and its completion formula, each compiled at
/// the schema node it is evaluated at: `parent(e)` for the guards on edge
/// `e`, the root for the completion formula.
#[derive(Debug)]
struct GuardPrograms {
    /// Indexed by edge; the root's slot is an unused `false`.
    add: Vec<Program>,
    /// Indexed by edge: is its `add` program the same as the one of the
    /// sibling edge just before it? Sibling edges often share a guard
    /// (every approver of one approval level, say), and a node evaluates
    /// such a run of guards once.
    add_repeats: Vec<bool>,
    /// Indexed by edge; the root's slot is an unused `false`.
    del: Vec<Program>,
    completion: Program,
}

impl GuardPrograms {
    fn compile(schema: &Schema, rules: &AccessRules, completion: &Formula) -> GuardPrograms {
        let table = |right| {
            schema
                .node_ids()
                .map(|e| match schema.parent(e) {
                    Some(at) => compile(schema, at, rules.get(right, e)),
                    None => Program::Const(false),
                })
                .collect::<Vec<_>>()
        };
        let add = table(Right::Add);
        let del = table(Right::Del);
        let mut add_repeats = vec![false; schema.node_count()];
        for p in schema.node_ids() {
            for pair in schema.children(p).windows(2) {
                add_repeats[pair[1].index()] = add[pair[0].index()] == add[pair[1].index()];
            }
        }
        GuardPrograms {
            add,
            add_repeats,
            del,
            completion: compile(schema, SchemaNodeId::ROOT, completion),
        }
    }

    fn guard(&self, right: Right, edge: SchemaNodeId) -> &Program {
        match right {
            Right::Add => &self.add[edge.index()],
            Right::Del => &self.del[edge.index()],
        }
    }
}

/// A run of a guarded form: the sequence of instances visited, paired with
/// the updates that produced them (Def. 3.11: `I₀, …, Iₙ` with each step a
/// single allowed update).
#[derive(Debug, Clone)]
pub struct Run {
    /// `instances[0]` is the initial instance; `instances[i+1]` results
    /// from applying `updates[i]`.
    pub instances: Vec<Instance>,
    /// The updates, one per step.
    pub updates: Vec<Update>,
}

impl Run {
    /// The final instance of the run.
    pub fn last(&self) -> &Instance {
        self.instances.last().expect("runs are non-empty")
    }

    /// Number of update steps.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Is this the trivial zero-step run?
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

impl GuardedForm {
    /// Assemble a guarded form. The initial instance must be an instance of
    /// `schema` (guaranteed if it was built against the same `Arc`).
    pub fn new(
        schema: Arc<Schema>,
        rules: AccessRules,
        initial: Instance,
        completion: Formula,
    ) -> GuardedForm {
        assert!(
            Arc::ptr_eq(initial.schema(), &schema),
            "initial instance must be built over the same schema"
        );
        GuardedForm {
            schema,
            rules,
            initial,
            completion,
            programs: OnceLock::new(),
        }
    }

    /// The guard programs, compiled on first use.
    fn programs(&self) -> &Arc<GuardPrograms> {
        self.programs.get_or_init(|| {
            Arc::new(GuardPrograms::compile(
                &self.schema,
                &self.rules,
                &self.completion,
            ))
        })
    }

    /// The schema `M`.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The access-rule table `A`.
    pub fn rules(&self) -> &AccessRules {
        &self.rules
    }

    /// The initial instance `I₀`.
    pub fn initial(&self) -> &Instance {
        &self.initial
    }

    /// The completion formula `φ`.
    pub fn completion(&self) -> &Formula {
        &self.completion
    }

    /// Replace the initial instance (Def. 3.14 considers `(M, A, Iₙ, φ)`
    /// for every reachable `Iₙ`). The new form shares this form's guard
    /// programs, which are built first if they are not yet.
    pub fn with_initial(&self, initial: Instance) -> GuardedForm {
        GuardedForm {
            schema: self.schema.clone(),
            rules: self.rules.clone(),
            initial,
            completion: self.completion.clone(),
            programs: OnceLock::from(self.programs().clone()),
        }
    }

    /// Replace the completion formula (Sec. 3.5 checks invariants by
    /// swapping φ).
    pub fn with_completion(&self, completion: Formula) -> GuardedForm {
        GuardedForm {
            schema: self.schema.clone(),
            rules: self.rules.clone(),
            initial: self.initial.clone(),
            completion,
            programs: OnceLock::new(),
        }
    }

    /// Does the completion formula hold for `inst` (at the root)? The
    /// root's child-presence table is filled first, so each presence test
    /// of the completion formula is a lookup, not a scan of the root's
    /// children.
    pub fn is_complete(&self, inst: &Instance) -> bool {
        let mut ev = Evaluator::new(inst);
        ev.load(InstNodeId::ROOT);
        ev.holds(&self.programs().completion, InstNodeId::ROOT)
    }

    /// Is this form deletion-free ([`AccessRules::deletion_free`])?
    /// Deletion-free forms grow monotonically, which licenses the
    /// solver's frontier-only capacity mode.
    pub fn is_deletion_free(&self) -> bool {
        self.rules().deletion_free(self.schema())
    }

    /// Is `update` allowed on `inst` by the access rules (and the Sec. 3.4
    /// structural constraints)?
    pub fn is_allowed(&self, inst: &Instance, update: &Update) -> bool {
        let programs = self.programs();
        let mut ev = Evaluator::new(inst);
        match update {
            Update::Add { parent, edge } => {
                if !inst.is_live(*parent) {
                    return false;
                }
                if self.schema.parent(*edge) != Some(inst.schema_node(*parent)) {
                    return false;
                }
                ev.holds(programs.guard(Right::Add, *edge), *parent)
            }
            Update::Del { node } => {
                if !inst.is_live(*node) || *node == InstNodeId::ROOT {
                    return false;
                }
                if !inst.is_leaf(*node) {
                    return false;
                }
                let parent = inst.parent(*node).expect("non-root");
                let edge = inst.schema_node(*node);
                ev.holds(programs.guard(Right::Del, edge), parent)
            }
        }
    }

    /// Enumerate every allowed update on `inst`.
    ///
    /// For additions, one update per `(instance parent, schema edge)` pair
    /// whose guard holds; for deletions, one per deletable leaf. Nodes come
    /// in [`Instance::live_nodes`] order, each with its additions in schema
    /// child order followed by its own deletion.
    ///
    /// Every guard at a node is evaluated with that node's child-presence
    /// table loaded, deletion guards included: a leaf's verdict is taken
    /// at its parent, which `live_nodes` visits first.
    pub fn allowed_updates(&self, inst: &Instance) -> Vec<Update> {
        let programs = self.programs();
        let mut ev = Evaluator::new(inst);
        let mut deletable = vec![false; inst.slot_count()];
        let mut out = Vec::new();
        for n in inst.live_nodes() {
            let edges = self.schema.children(inst.schema_node(n));
            if !edges.is_empty() {
                ev.load(n);
                let mut allowed = false;
                for &edge in edges {
                    if !programs.add_repeats[edge.index()] {
                        allowed = ev.holds(programs.guard(Right::Add, edge), n);
                    }
                    if allowed {
                        out.push(Update::Add { parent: n, edge });
                    }
                }
                for &c in inst.children(n) {
                    if inst.is_leaf(c) {
                        let guard = programs.guard(Right::Del, inst.schema_node(c));
                        deletable[c.index()] = ev.holds(guard, n);
                    }
                }
            }
            if deletable[n.index()] {
                out.push(Update::Del { node: n });
            }
        }
        out
    }

    /// Apply an update, checking it is allowed. Returns the id of the added
    /// node for additions.
    pub fn apply(&self, inst: &mut Instance, update: &Update) -> Result<Option<InstNodeId>> {
        if !self.is_allowed(inst, update) {
            return Err(CoreError::UpdateNotAllowed(update.to_string()));
        }
        self.apply_unchecked(inst, update)
    }

    /// Apply an update without consulting the access rules (structural
    /// validity is still enforced by [`Instance`]). Solvers that have
    /// already checked the guard use this.
    pub fn apply_unchecked(
        &self,
        inst: &mut Instance,
        update: &Update,
    ) -> Result<Option<InstNodeId>> {
        match update {
            Update::Add { parent, edge } => Ok(Some(inst.add_child(*parent, *edge)?)),
            Update::Del { node } => {
                inst.remove_leaf(*node)?;
                Ok(None)
            }
        }
    }

    /// Validate a sequence of updates as a run from the initial instance
    /// (Def. 3.11) and return the full run. Fails with the offending step
    /// if some update is not allowed.
    pub fn replay(&self, updates: &[Update]) -> Result<Run> {
        let mut instances = vec![self.initial.clone()];
        let mut cur = self.initial.clone();
        for (i, u) in updates.iter().enumerate() {
            self.apply(&mut cur, u).map_err(|e| CoreError::InvalidRun {
                step: i,
                msg: e.to_string(),
            })?;
            instances.push(cur.clone());
        }
        Ok(Run {
            instances,
            updates: updates.to_vec(),
        })
    }

    /// Is `updates` a *complete run* (Def. 3.11): a valid run whose final
    /// instance satisfies the completion formula?
    pub fn is_complete_run(&self, updates: &[Update]) -> bool {
        let mut inst = self.initial.clone();
        updates.iter().all(|u| self.apply(&mut inst, u).is_ok()) && self.is_complete(&inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_form() -> GuardedForm {
        // r with children a, b. a can be added freely; b only after a;
        // a can be deleted only while b is absent; b never.
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        let a = schema.resolve("a").unwrap();
        let b = schema.resolve("b").unwrap();
        rules.set_both(
            a,
            Formula::parse("!a").unwrap(),
            Formula::parse("!b").unwrap(),
        );
        rules.set(Right::Add, b, Formula::parse("a & !b").unwrap());
        let initial = Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, initial, Formula::parse("a & b").unwrap())
    }

    #[test]
    fn allowed_updates_initial() {
        let g = tiny_form();
        let ups = g.allowed_updates(g.initial());
        // Only `add a` is allowed at the start.
        assert_eq!(ups.len(), 1);
        assert!(matches!(ups[0], Update::Add { .. }));
    }

    #[test]
    fn replay_and_complete_run() {
        let g = tiny_form();
        let a = g.schema().resolve("a").unwrap();
        let b = g.schema().resolve("b").unwrap();
        let run = vec![
            Update::Add {
                parent: InstNodeId::ROOT,
                edge: a,
            },
            Update::Add {
                parent: InstNodeId::ROOT,
                edge: b,
            },
        ];
        assert!(g.is_complete_run(&run));
        let r = g.replay(&run).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.instances.len(), 3);
        assert!(g.is_complete(r.last()));
        assert!(!g.is_complete(&r.instances[1]));
    }

    #[test]
    fn disallowed_update_rejected() {
        let g = tiny_form();
        let b = g.schema().resolve("b").unwrap();
        // b before a is not allowed.
        let run = vec![Update::Add {
            parent: InstNodeId::ROOT,
            edge: b,
        }];
        assert!(!g.is_complete_run(&run));
        let mut inst = g.initial().clone();
        let err = g
            .apply(
                &mut inst,
                &Update::Add {
                    parent: InstNodeId::ROOT,
                    edge: b,
                },
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UpdateNotAllowed(_)));
    }

    #[test]
    fn deletion_guard_is_evaluated_at_parent() {
        let g = tiny_form();
        let a = g.schema().resolve("a").unwrap();
        let b = g.schema().resolve("b").unwrap();
        let mut inst = g.initial().clone();
        let an = g
            .apply(
                &mut inst,
                &Update::Add {
                    parent: InstNodeId::ROOT,
                    edge: a,
                },
            )
            .unwrap()
            .unwrap();
        // a deletable while b absent…
        assert!(g.is_allowed(&inst, &Update::Del { node: an }));
        g.apply(
            &mut inst,
            &Update::Add {
                parent: InstNodeId::ROOT,
                edge: b,
            },
        )
        .unwrap();
        // …but not once b is present (guard ¬b at the root).
        assert!(!g.is_allowed(&inst, &Update::Del { node: an }));
    }

    #[test]
    fn default_rule_is_false() {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let rules = AccessRules::new(&schema);
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::True,
        );
        assert!(g.allowed_updates(g.initial()).is_empty());
    }

    #[test]
    fn default_rule_true_allows_everything() {
        // The Thm 5.1 construction: "All access rules are set to true."
        let schema = Arc::new(Schema::parse("x1, x2").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::True,
        );
        assert_eq!(g.allowed_updates(g.initial()).len(), 2);
    }

    #[test]
    fn all_positive_detection() {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::with_default(&schema, Formula::True);
        assert!(rules.all_positive(&schema));
        rules.set(
            Right::Add,
            schema.resolve("a").unwrap(),
            Formula::parse("!b").unwrap(),
        );
        assert!(!rules.all_positive(&schema));
    }

    #[test]
    fn add_disjunct_merges() {
        let schema = Arc::new(Schema::parse("a").unwrap());
        let mut rules = AccessRules::new(&schema);
        let a = schema.resolve("a").unwrap();
        rules.add_disjunct(Right::Add, a, Formula::label("x"));
        assert_eq!(rules.get(Right::Add, a).to_string(), "x");
        rules.add_disjunct(Right::Add, a, Formula::label("y"));
        assert_eq!(rules.get(Right::Add, a).to_string(), "x | y");
    }

    /// Guards and a completion formula of 20,000 operands are built,
    /// compiled, evaluated through `allowed_updates` and `is_complete`,
    /// and dropped on a 256 KiB stack.
    #[test]
    fn long_operator_chains_evaluate_on_a_small_stack() {
        const OPERANDS: usize = 20_000;
        let small = std::thread::Builder::new().stack_size(256 << 10);
        small
            .spawn(|| {
                let schema = Arc::new(Schema::parse("a, b").unwrap());
                let a = schema.resolve("a").unwrap();
                let b = schema.resolve("b").unwrap();
                let not_b = Formula::label("b").not();
                let mut rules = AccessRules::new(&schema);
                // `!b & … & !b`, and `b | … | b | a`.
                rules.set(Right::Add, a, Formula::conj(vec![not_b; OPERANDS]));
                let ors = std::iter::repeat_n(Formula::label("b"), OPERANDS - 1);
                rules.set(
                    Right::Add,
                    b,
                    Formula::disj(ors.chain([Formula::label("a")])),
                );
                let done = Formula::disj(std::iter::repeat_n(Formula::label("b"), OPERANDS));
                let g = GuardedForm::new(schema.clone(), rules, Instance::empty(schema), done);
                let mut with_a = g.initial().clone();
                let an = with_a.add_child(InstNodeId::ROOT, a).unwrap();
                let root = InstNodeId::ROOT;
                assert_eq!(
                    g.allowed_updates(g.initial()),
                    vec![Update::Add {
                        parent: root,
                        edge: a
                    }]
                );
                assert!(!g.is_complete(g.initial()));
                assert_eq!(
                    g.allowed_updates(&with_a),
                    vec![
                        Update::Add {
                            parent: root,
                            edge: a
                        },
                        Update::Add {
                            parent: root,
                            edge: b
                        },
                    ]
                );
                assert!(!g.is_allowed(&with_a, &Update::Del { node: an }));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_guard_contexts() {
        // A(add, a/n) = ¬../s — evaluated at the a node, `..` reaches the
        // root (Ex. 3.12's note about ¬../s vs ¬s).
        let schema = Arc::new(Schema::parse("a(n), s").unwrap());
        let mut rules = AccessRules::new(&schema);
        let a = schema.resolve("a").unwrap();
        let n = schema.resolve("a/n").unwrap();
        rules.set(Right::Add, a, Formula::True);
        rules.set(Right::Add, schema.resolve("s").unwrap(), Formula::True);
        rules.set(Right::Add, n, Formula::parse("!../s & !n").unwrap());
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::True,
        );
        let mut inst = g.initial().clone();
        let an = g
            .apply(
                &mut inst,
                &Update::Add {
                    parent: InstNodeId::ROOT,
                    edge: a,
                },
            )
            .unwrap()
            .unwrap();
        assert!(g.is_allowed(
            &inst,
            &Update::Add {
                parent: an,
                edge: n
            }
        ));
        g.apply(
            &mut inst,
            &Update::Add {
                parent: InstNodeId::ROOT,
                edge: g.schema().resolve("s").unwrap(),
            },
        )
        .unwrap();
        assert!(!g.is_allowed(
            &inst,
            &Update::Add {
                parent: an,
                edge: n
            }
        ));
    }
}
