//! # idar-workflow
//!
//! The workflow *implied* by a guarded form, materialised.
//!
//! The paper's central observation is that instance-dependent access rules
//! implicitly define a workflow — "the data-flow implies the control-flow"
//! — and that this workflow can be analysed automatically. This crate is
//! the layer an fb-wis (form-based web information system) would actually
//! run:
//!
//! * [`WorkflowGraph`] — the reachability graph of a form (states =
//!   instances up to isomorphism, edges = allowed updates), with run
//!   extraction and DOT export;
//! * [`analysis`] — workflow-level properties: completability and
//!   semi-soundness verdicts, *full* soundness (footnote 1: semi-soundness
//!   plus "each event occurs in at least one possible run of the
//!   workflow"), and dead-event reporting;
//! * [`manager`] — the online *form manager* of Sec. 3.5: "a form manager
//!   might disallow any updates that lead to such an instance from which
//!   completion is not possible";
//! * [`petri`] — the footnote-1 bridge: depth-1 forms as 1-safe Petri
//!   nets whose reachability graph coincides with the canonical state
//!   space (the workflow-net soundness vocabulary, made executable).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod manager;
pub mod petri;
pub mod runs;

use idar_core::{GuardedForm, Instance, Right, SchemaNodeId, Update};
use idar_solver::explore::{ExploreLimits, Explorer};
use idar_solver::store::StateId;
use idar_solver::StateGraph;
use std::fmt::Write as _;

/// The reachability graph of a guarded form, with form-level conveniences
/// layered over the raw solver graph.
#[derive(Debug)]
pub struct WorkflowGraph {
    graph: StateGraph,
    complete: Vec<bool>,
    /// `completable[i]`: state `i` can reach a complete state *within the
    /// explored subgraph*. Exact when `closed()`.
    completable: Vec<bool>,
}

/// The schema-level event an update realises: which edge, which right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event {
    pub right: Right,
    pub edge: SchemaNodeId,
}

impl WorkflowGraph {
    /// Explore `form` within `limits` and annotate the result.
    pub fn build(form: &GuardedForm, limits: ExploreLimits) -> WorkflowGraph {
        let graph = Explorer::new(form, limits).graph();
        let (complete, completable) = graph.completion(form);
        WorkflowGraph {
            graph,
            complete,
            completable,
        }
    }

    /// Number of explored states.
    pub fn state_count(&self) -> usize {
        self.graph.state_count()
    }

    /// Number of explored transitions.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Did the exploration cover the whole reachable space?
    pub fn closed(&self) -> bool {
        self.graph.exact()
    }

    /// The state instances (index 0 = initial).
    pub fn states(&self) -> &[Instance] {
        self.graph.states()
    }

    /// Is state `i` complete?
    pub fn is_complete_state(&self, i: usize) -> bool {
        self.complete[i]
    }

    /// Can state `i` reach a complete state (within the explored graph)?
    pub fn is_completable_state(&self, i: usize) -> bool {
        self.completable[i]
    }

    /// Outgoing `(update, successor)` edges of state `i`.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = (Update, StateId)> + '_ {
        self.graph.successors(i)
    }

    /// A replayable run from the initial instance to state `i`.
    pub fn run_to(&mut self, i: usize) -> Vec<Update> {
        self.graph.run_to(i)
    }

    /// The schema-level event of a graph edge.
    pub fn event_of(&self, state: usize, update: &Update) -> Event {
        match update {
            Update::Add { edge, .. } => Event {
                right: Right::Add,
                edge: *edge,
            },
            Update::Del { node } => Event {
                right: Right::Del,
                edge: self.graph.state(state).schema_node(*node),
            },
        }
    }

    /// Render the graph in Graphviz DOT. Complete states are doubly
    /// circled, incompletable ones filled red; edges carry the schema
    /// event.
    pub fn to_dot(&self, form: &GuardedForm) -> String {
        let mut out = String::from("digraph workflow {\n  rankdir=LR;\n");
        for (i, s) in self.graph.states().iter().enumerate() {
            let label = if s.live_count() == 1 {
                "{}".to_string()
            } else {
                s.iso_code()
            };
            let shape = if self.complete[i] {
                "doublecircle"
            } else {
                "circle"
            };
            let fill = if self.completable[i] {
                "white"
            } else {
                "indianred1"
            };
            let _ = writeln!(
                out,
                "  s{i} [label=\"{label}\", shape={shape}, style=filled, fillcolor={fill}];"
            );
        }
        for (i, u, j) in self.graph.edges() {
            let ev = self.event_of(i.index(), &u);
            let _ = writeln!(
                out,
                "  s{} -> {j} [label=\"{} {}\"];",
                i.index(),
                ev.right,
                form.schema().path_of(ev.edge)
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Formula, Schema};
    use std::sync::Arc;

    pub(crate) fn toggle_form() -> GuardedForm {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set_both(
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
            Formula::parse("!b").unwrap(),
        );
        rules.set(
            Right::Add,
            schema.resolve("b").unwrap(),
            Formula::parse("a & !b").unwrap(),
        );
        let init = idar_core::Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, init, Formula::parse("a & b").unwrap())
    }

    #[test]
    fn graph_shape() {
        // b needs a, so {b} alone is unreachable, and deleting a out of
        // {a,b} is blocked by ¬b: exactly {}, {a}, {a,b}.
        let g = toggle_form();
        let w = WorkflowGraph::build(&g, ExploreLimits::small());
        assert!(w.closed());
        assert_eq!(w.state_count(), 3);
        // {}→{a} (add a), {a}→{} (del a), {a}→{a,b} (add b); {a,b} is
        // terminal (b frozen, a blocked by ¬b).
        assert_eq!(w.edge_count(), 3);
    }

    #[test]
    fn graph_states_exact() {
        let g = toggle_form();
        let w = WorkflowGraph::build(&g, ExploreLimits::small());
        assert_eq!(w.state_count(), 3);
        let complete: Vec<bool> = (0..3).map(|i| w.is_complete_state(i)).collect();
        assert_eq!(complete.iter().filter(|&&c| c).count(), 1);
        // All states completable (the form is semi-sound).
        assert!((0..3).all(|i| w.is_completable_state(i)));
    }

    #[test]
    fn runs_replay() {
        let g = toggle_form();
        let mut w = WorkflowGraph::build(&g, ExploreLimits::small());
        for i in 0..w.state_count() {
            let run = w.run_to(i);
            let r = g.replay(&run).unwrap();
            assert!(r.last().isomorphic(&w.states()[i]));
        }
    }

    #[test]
    fn dot_renders() {
        let g = toggle_form();
        let w = WorkflowGraph::build(&g, ExploreLimits::small());
        let dot = w.to_dot(&g);
        assert!(dot.starts_with("digraph workflow {"));
        assert!(dot.contains("doublecircle")); // the complete state
        assert!(dot.contains("add a"));
        assert!(dot.ends_with("}\n"));
    }
}
