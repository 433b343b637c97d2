//! A naive reference explorer: the test oracle for the BFS engine.
//!
//! [`explore`] codes the exploration contract of
//! [`Explorer::find`](crate::Explorer::find) from scratch — a FIFO queue
//! of `(instance, depth)` pairs and a `HashSet` of dedup words — with no
//! state store, driver or shared expansion step. Every store (in RAM,
//! spilled, or under a graph build) must report bit-identical
//! [`SearchStats`] and the same goal depth as this oracle on every form
//! and every [`ExploreLimits`], in both [`SymmetryMode`]s.
//!
//! The oracle enumerates allowed updates itself, interpreting each guard
//! with [`formula::holds`] (Def. 3.5), so the engine's guard programs are
//! held to the interpreted semantics too.

use crate::explore::ExploreLimits;
use crate::store::SymmetryMode;
use crate::verdict::{LimitKind, SearchStats};
use idar_core::{formula, GuardedForm, Instance, Right, Update};
use std::collections::{HashSet, VecDeque};

/// What one reference search observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    /// The statistics the engine must report field for field.
    pub stats: SearchStats,
    /// BFS depth of the goal state found, if any.
    pub goal_depth: Option<usize>,
    /// Transitions not pruned by a limit, to new and known states alike:
    /// the edges an engine records for the expansions it ran.
    pub edges: usize,
}

/// Breadth-first search from `form`'s initial instance until `goal`
/// holds, within `limits`.
pub fn explore(
    form: &GuardedForm,
    limits: &ExploreLimits,
    symmetry: SymmetryMode,
    mut goal: impl FnMut(&Instance) -> bool,
) -> Reference {
    let words = |inst: &Instance| {
        let key = match symmetry {
            SymmetryMode::Reduced => inst.canon_key(),
            SymmetryMode::Plain => inst.ordered_key(),
        };
        key.into_parts().1
    };
    let mut out = Reference {
        stats: SearchStats {
            states: 1,
            ..SearchStats::default()
        },
        goal_depth: None,
        edges: 0,
    };
    let root = form.initial().clone();
    if goal(&root) {
        out.stats.closed = true;
        out.goal_depth = Some(0);
        return out;
    }
    if out.stats.states >= limits.max_states && !allowed_updates(form, &root).is_empty() {
        out.stats.limit_hit = Some(LimitKind::States);
        return out;
    }
    let mut seen = HashSet::from([words(&root)]);
    let mut queue = VecDeque::from([(root, 0)]);
    let mut pruned = false;
    while let Some((inst, depth)) = queue.pop_front() {
        if depth >= limits.max_depth {
            // The unexpanded frontier: the search closed iff no state on
            // it has a successor.
            let mut frontier = std::iter::once(&inst).chain(queue.iter().map(|(s, _)| s));
            if frontier.any(|s| !allowed_updates(form, s).is_empty()) {
                pruned = true;
                out.stats.limit_hit = Some(LimitKind::Depth);
            }
            break;
        }
        for u in allowed_updates(form, &inst) {
            out.stats.transitions += 1;
            if let Update::Add { parent, edge } = u {
                let limit = if inst.live_count() >= limits.max_state_size {
                    Some(LimitKind::StateSize)
                } else if limits
                    .multiplicity_cap
                    .is_some_and(|cap| inst.children_at(parent, edge).count() >= cap)
                {
                    Some(LimitKind::Multiplicity)
                } else {
                    None
                };
                if limit.is_some() {
                    pruned = true;
                    out.stats.limit_hit = limit;
                    continue;
                }
            }
            out.edges += 1;
            let mut next = inst.clone();
            form.apply_unchecked(&mut next, &u)
                .expect("allowed updates apply");
            if !seen.insert(words(&next)) {
                continue;
            }
            out.stats.states += 1;
            if goal(&next) {
                out.goal_depth = Some(depth + 1);
                return out;
            }
            if out.stats.states >= limits.max_states {
                out.stats.limit_hit = Some(LimitKind::States);
                return out;
            }
            queue.push_back((next, depth + 1));
        }
    }
    out.stats.closed = !pruned;
    out
}

/// Every update the access rules allow on `inst`, each guard interpreted
/// by [`formula::holds`], in [`GuardedForm::allowed_updates`]' order.
pub fn allowed_updates(form: &GuardedForm, inst: &Instance) -> Vec<Update> {
    let (schema, rules) = (form.schema(), form.rules());
    let mut out = Vec::new();
    for n in inst.live_nodes() {
        for &edge in schema.children(inst.schema_node(n)) {
            if formula::holds(inst, n, rules.get(Right::Add, edge)) {
                out.push(Update::Add { parent: n, edge });
            }
        }
        if let Some(parent) = inst.parent(n).filter(|_| inst.is_leaf(n)) {
            if formula::holds(inst, parent, rules.get(Right::Del, inst.schema_node(n))) {
                out.push(Update::Del { node: n });
            }
        }
    }
    out
}
