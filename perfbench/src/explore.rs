//! The `explore` stage: three full-space enumerations taking turns, and
//! a replica BFS that times every per-transition layer.
//!
//! * (a) `subset_lattice(16)` through the flat `Explorer::find`: 2^16
//!   states, 2^20 transitions, about 94% of which reach a state already
//!   stored — duplicate-heavy materialize, canon and store work.
//! * (b) an unconstrained `approval_chain(16, 2, 3)` through the flat
//!   `find`: tree-shaped (transitions = states − 1) and guard-bound, so
//!   deduplication is bypassed.
//! * (c) (a) again through `find_spilled` under a 256 KiB
//!   `MemoryBudget`, so arena pages spill to disk.
//!
//! The goal is never true, so every search closes and its `SearchStats`
//! are exact.

use crate::alloc;
use crate::trace::Tracer;
use crate::util::ns_since;
use idar_core::{GuardedForm, Update};
use idar_solver::store::{StateStore, SymmetryMode};
use idar_solver::verdict::SearchStats;
use idar_solver::{ExploreLimits, Explorer, LimitKind, MemoryBudget, SpillReport};
use std::hint::black_box;
use std::time::Instant;

/// Labels of the subset lattice of phases (a) and (c).
pub const LATTICE_LABELS: usize = 16;
/// Depth of the approval chain of phase (b).
pub const CHAIN_DEPTH: usize = 16;
/// Arena budget of phase (c).
pub const SPILL_BUDGET_BYTES: usize = 256 * 1024;

/// The limits every phase runs under: those of the retained-session
/// workloads (one sibling per schema edge, room for 2^20 states).
pub fn limits() -> ExploreLimits {
    ExploreLimits {
        max_states: 1 << 20,
        max_state_size: 64,
        max_depth: usize::MAX,
        multiplicity_cap: Some(1),
    }
}

/// The two forms the stage enumerates.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `subset_lattice(16)`.
    pub lattice: GuardedForm,
    /// `approval_chain(16, 2, 3)`.
    pub chain: GuardedForm,
}

impl Inputs {
    /// Build both forms (they do not depend on the seed).
    pub fn build() -> Inputs {
        let chain =
            idar_gen::ScenarioSpec::unconstrained(idar_gen::ChainSpec::simple(CHAIN_DEPTH, 2, 3));
        Inputs {
            lattice: idar_gen::builders::subset_lattice(LATTICE_LABELS),
            chain: chain.build("approval_chain").form,
        }
    }
}

/// Per-transition layer time totals of one replica run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `GuardedForm::allowed_updates`.
    pub allowed_ns: u64,
    /// `Instance::clone` + `GuardedForm::apply_unchecked`.
    pub materialize_ns: u64,
    /// `Instance::canon_key`.
    pub canon_ns: u64,
    /// `StateStore::intern_keyed`.
    pub intern_ns: u64,
    /// `GuardedForm::is_complete`, once per state.
    pub goal_ns: u64,
    /// The replica's wall time.
    pub wall_ns: u64,
    /// The `find` wall time of the same phase, for the replica ratio.
    pub find_ns: u64,
    /// Transitions and states of the replica.
    pub stats: SearchStats,
}

impl LayerTimes {
    /// Per-transition (or, for the goal, per-state) means in ns, the
    /// new-state ratio and the replica/`find` wall ratio.
    pub fn per_unit(&self) -> [f64; 7] {
        let tr = self.stats.transitions.max(1) as f64;
        let st = self.stats.states.max(1) as f64;
        [
            self.allowed_ns as f64 / tr,
            self.materialize_ns as f64 / tr,
            self.canon_ns as f64 / tr,
            self.intern_ns as f64 / tr,
            (self.stats.states.saturating_sub(1)) as f64 / tr,
            self.goal_ns as f64 / st,
            self.wall_ns as f64 / self.find_ns.max(1) as f64,
        ]
    }
}

/// Everything the stage measured in one run.
#[derive(Debug, Default)]
pub struct Results {
    /// States per second of each (a) search.
    pub lattice_rate: Vec<f64>,
    /// States per second of each (b) search.
    pub chain_rate: Vec<f64>,
    /// States per second of each (c) search.
    pub spill_rate: Vec<f64>,
    /// Net allocation peak per state of each (a) search.
    pub lattice_bytes_per_state: Vec<f64>,
    /// Spill counters of each (c) search.
    pub spill: Vec<SpillReport>,
    /// Replica layer times of (a), traced runs only.
    pub lattice_layers: Vec<LayerTimes>,
    /// Replica layer times of (b), traced runs only.
    pub chain_layers: Vec<LayerTimes>,
    /// `SearchStats` of the last (a) search.
    pub lattice_stats: Option<SearchStats>,
    /// Searches run.
    pub attempted: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
}

impl Results {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The three enumerations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// (a) the lattice through the flat store.
    Lattice,
    /// (b) the approval chain through the flat store.
    Chain,
    /// (c) the lattice through the spilling store.
    Spill,
}

/// The phases, in the order they first run.
pub const PHASES: [Phase; 3] = [Phase::Lattice, Phase::Chain, Phase::Spill];

/// Run and check one phase; traced runs also run the replica after (a)
/// and (b). A (c) search is checked against the last (a) search.
pub fn run_phase(inputs: &Inputs, phase: Phase, res: &mut Results, tracer: Option<&mut Tracer>) {
    let limits = limits();
    let lattice_states = 1usize << LATTICE_LABELS;
    match phase {
        Phase::Lattice => {
            let base = alloc::reset_peak();
            let t = Instant::now();
            let a = Explorer::new(&inputs.lattice, limits)
                .with_threads(1)
                .find(|_| false);
            let ns = ns_since(t);
            let peak = alloc::peak().saturating_sub(base);
            res.lattice_rate
                .push(a.stats.states as f64 / (ns as f64 / 1e9));
            res.lattice_bytes_per_state
                .push(peak as f64 / a.stats.states.max(1) as f64);
            res.check(
                a.stats.closed
                    && a.stats.states == lattice_states
                    && a.stats.transitions == LATTICE_LABELS * lattice_states,
                || {
                    format!(
                        "explore (a): {:?}, want {lattice_states} states, closed",
                        a.stats
                    )
                },
            );
            if let Some(tr) = tracer {
                let layers = traced_replica(tr, "explore.replica.lattice", &inputs.lattice, ns);
                res.check(layers.stats == a.stats, || {
                    format!("replica (a) {:?} != find {:?}", layers.stats, a.stats)
                });
                res.lattice_layers.push(layers);
            }
            res.lattice_stats = Some(a.stats);
        }
        Phase::Chain => {
            let t = Instant::now();
            let b = Explorer::new(&inputs.chain, limits)
                .with_threads(1)
                .find(|_| false);
            let ns = ns_since(t);
            res.chain_rate
                .push(b.stats.states as f64 / (ns as f64 / 1e9));
            res.check(
                b.stats.closed && b.stats.transitions + 1 == b.stats.states,
                || {
                    format!(
                        "explore (b): {:?}, want closed and transitions = states - 1",
                        b.stats
                    )
                },
            );
            if let Some(tr) = tracer {
                let layers = traced_replica(tr, "explore.replica.chain", &inputs.chain, ns);
                res.check(layers.stats == b.stats, || {
                    format!("replica (b) {:?} != find {:?}", layers.stats, b.stats)
                });
                res.chain_layers.push(layers);
            }
        }
        Phase::Spill => {
            let t = Instant::now();
            let (c, report) = Explorer::new(&inputs.lattice, limits)
                .with_memory_budget(MemoryBudget::bytes(SPILL_BUDGET_BYTES))
                .find_spilled(|_| false);
            let ns = ns_since(t);
            res.spill_rate
                .push(c.stats.states as f64 / (ns as f64 / 1e9));
            res.spill.push(report);
            let a = res.lattice_stats;
            res.check(a == Some(c.stats), || {
                format!("explore (c): {:?} != (a) {a:?}", c.stats)
            });
        }
    }
}

fn traced_replica(
    tr: &mut Tracer,
    name: &'static str,
    form: &GuardedForm,
    find_ns: u64,
) -> LayerTimes {
    let mut layers = LayerTimes {
        find_ns,
        ..LayerTimes::default()
    };
    let span = tr.enter(name, None, 0);
    layers.stats = replica(form, limits(), &mut layers);
    layers.wall_ns = tr.exit(span);
    layers
}

/// A BFS over the public per-transition calls, in the order and with
/// the prune checks of the sequential `Explorer::find`, timing each
/// layer. Its `SearchStats` equal `find(|_| false)`'s.
pub fn replica(form: &GuardedForm, limits: ExploreLimits, t: &mut LayerTimes) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut store = StateStore::new(SymmetryMode::Reduced);
    let initial = form.initial().clone();
    let key = initial.canon_key();
    let (root, _) = store.intern_keyed(key, initial, None);
    stats.states = 1;
    let g = Instant::now();
    black_box(form.is_complete(store.get(root)));
    t.goal_ns += ns_since(g);

    let mut queue = std::collections::VecDeque::from([root]);
    let mut pruned = false;
    while let Some(i) = queue.pop_front() {
        if store.depth(i) >= limits.max_depth {
            if std::iter::once(i)
                .chain(queue.drain(..))
                .any(|j| !form.allowed_updates(store.get(j)).is_empty())
            {
                pruned = true;
                stats.limit_hit = Some(LimitKind::Depth);
            }
            break;
        }
        let t0 = Instant::now();
        let updates = form.allowed_updates(store.get(i));
        t.allowed_ns += ns_since(t0);
        for u in updates {
            stats.transitions += 1;
            if let Update::Add { parent, edge } = u {
                let inst = store.get(i);
                if inst.live_count() >= limits.max_state_size {
                    pruned = true;
                    stats.limit_hit = Some(LimitKind::StateSize);
                    continue;
                }
                if limits
                    .multiplicity_cap
                    .is_some_and(|cap| inst.children_at(parent, edge).count() >= cap)
                {
                    pruned = true;
                    stats.limit_hit = Some(LimitKind::Multiplicity);
                    continue;
                }
            }
            let t1 = Instant::now();
            let mut next = store.get(i).clone();
            form.apply_unchecked(&mut next, &u)
                .expect("allowed updates apply");
            let t2 = Instant::now();
            let key = next.canon_key();
            let t3 = Instant::now();
            let (j, is_new) = store.intern_keyed(key, next, Some((i, u)));
            let t4 = Instant::now();
            t.materialize_ns += (t2 - t1).as_nanos() as u64;
            t.canon_ns += (t3 - t2).as_nanos() as u64;
            t.intern_ns += (t4 - t3).as_nanos() as u64;
            if !is_new {
                continue;
            }
            stats.states += 1;
            black_box(form.is_complete(store.get(j)));
            t.goal_ns += ns_since(t4);
            if stats.states >= limits.max_states {
                stats.limit_hit = Some(LimitKind::States);
                return stats;
            }
            queue.push_back(j);
        }
    }
    stats.closed = !pruned;
    stats
}
