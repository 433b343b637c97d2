//! Realistic scenario corpus: multi-level **approval chains** with
//! per-level approver sets, instance-dependent delegation and rejection
//! loops, emitted as guarded forms — plus recipe-based sampling so the
//! fuzz and bench layers can draw synthetic-yet-realistic workloads.
//!
//! # Encoding
//!
//! A chain is compiled to a **depth-1** schema: one `sub` edge (the
//! submission) and, per level `i` (1-based), one signature edge
//! `s{i}_u{u}` per eligible user, one delegation edge `d{i}_u{f}_u{t}`
//! per declared delegation, and one `rej{i}` edge when the level carries
//! a rejection loop. All guards are evaluated at the root and every add
//! guard carries a "not already present" conjunct, so each edge holds at
//! most one child and the reachable space is finite.
//!
//! * `done(0) = sub`, `done(i) = ⋁_u s{i}_u{u}` — level `i` is approved
//!   when some eligible user's signature is live.
//! * signature `s{i}_u{u}` is addable when `done(i−1) ∧ ¬done(i)`, the
//!   level has no live rejection, and `u` has *authority*: approvers
//!   have it unconditionally, pure delegates only once a delegation edge
//!   targeting them is live — authority is instance-dependent.
//! * delegation `d{i}_u{f}_u{t}` itself requires `f` to have authority
//!   at level `i`, so delegation chains work and pure delegation
//!   *cycles* deadlock (nobody can issue the first delegation).
//! * a rejection loop at level `j` returning to level `k < j` adds a
//!   `rej{j}` marker; while it is live the signatures of levels
//!   `k..j−1` become deletable and level `j` cannot be approved; the
//!   marker itself clears only when all of `k..j−1` are rolled back.
//!
//! The completion formula is `done(N)`. Chains without rejection loops
//! never grant `del`, so they land in [`FragmentSpec::DeletionFree`];
//! otherwise the declared fragment is [`FragmentSpec::Depth1`] — in both
//! cases a *decidable* cell of Table 1, which the property tests assert
//! via [`FragmentSpec::admits`].
//!
//! SoD/BoD duties (Crampton–Gutin style) are layered on by
//! [`crate::constraints`]; see that module for the compilation contract.

use crate::config::FragmentSpec;
use crate::constraints::{self, ConstraintSet};
use idar_core::{AccessRules, Formula, GuardedForm, Instance, Right, SchemaBuilder, SchemaNodeId};
use idar_logic::gen::{split_mix, Rng, XorShift};
use std::fmt;
use std::sync::Arc;

/// A user is an index into the chain's user pool (label `u{n}`).
pub type UserId = usize;

/// One approval level of a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSpec {
    /// Users with unconditional authority to sign this level.
    pub approvers: Vec<UserId>,
    /// Delegation edges `(from, to)`: once live, `to` gains authority.
    /// The *from* side needs authority itself for the edge to fire.
    pub delegations: Vec<(UserId, UserId)>,
    /// `Some(k)` adds a rejection loop returning the form to level `k`
    /// (1-based, `k <` this level's number).
    pub rejection: Option<usize>,
}

impl LevelSpec {
    /// A plain level: the given approvers, no delegation, no rejection.
    pub fn approvers(users: impl IntoIterator<Item = UserId>) -> LevelSpec {
        LevelSpec {
            approvers: users.into_iter().collect(),
            delegations: Vec::new(),
            rejection: None,
        }
    }
}

/// A complete approval-chain specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// Size of the user pool; all `UserId`s must be `< users`.
    pub users: usize,
    /// The levels, in approval order (level numbers are 1-based).
    pub levels: Vec<LevelSpec>,
}

impl ChainSpec {
    /// A clean chain: `levels` levels, approver sets of size
    /// `approvers_per_level` rotating through a pool of `users`.
    pub fn simple(levels: usize, approvers_per_level: usize, users: usize) -> ChainSpec {
        let per = approvers_per_level.clamp(1, users.max(1));
        let levels = (0..levels)
            .map(|i| LevelSpec::approvers((0..per).map(move |a| (i + a) % users.max(1))))
            .collect();
        ChainSpec {
            users: users.max(1),
            levels,
        }
    }

    /// Users that can (eventually) sign `level_ix` (0-based): approvers
    /// plus delegation targets, sorted and deduplicated.
    pub fn eligible(&self, level_ix: usize) -> Vec<UserId> {
        let l = &self.levels[level_ix];
        let mut out: Vec<UserId> = l
            .approvers
            .iter()
            .copied()
            .chain(l.delegations.iter().map(|&(_, t)| t))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Structural validity: at least one level, ids in range, rejection
    /// targets strictly earlier, every level eventually signable.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("chain needs at least one level".into());
        }
        if self.users == 0 {
            return Err("chain needs at least one user".into());
        }
        for (ix, l) in self.levels.iter().enumerate() {
            let n = ix + 1;
            for &u in &l.approvers {
                if u >= self.users {
                    return Err(format!("level {n}: approver u{u} out of range"));
                }
            }
            for &(f, t) in &l.delegations {
                if f >= self.users || t >= self.users {
                    return Err(format!("level {n}: delegation out of range"));
                }
                if f == t {
                    return Err(format!("level {n}: self-delegation u{f}"));
                }
            }
            if self.eligible(ix).is_empty() {
                return Err(format!("level {n}: nobody can ever sign"));
            }
            if let Some(k) = l.rejection {
                if k == 0 || k >= n {
                    return Err(format!(
                        "level {n}: rejection must return to 1..={}",
                        n.saturating_sub(1)
                    ));
                }
            }
        }
        Ok(())
    }

    /// True iff some level carries a rejection loop (the only source of
    /// `del` rights in the encoding).
    pub fn has_rejection(&self) -> bool {
        self.levels.iter().any(|l| l.rejection.is_some())
    }
}

/// What a schema edge of a scenario form *means*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// The `sub` submission edge.
    Submit,
    /// Signature of `user` at `level` (1-based).
    Sig {
        /// 1-based level number.
        level: usize,
        /// The signing user.
        user: UserId,
    },
    /// Delegation of authority at `level` from `from` to `to`.
    Delegation {
        /// 1-based level number.
        level: usize,
        /// Delegating user (needs authority itself).
        from: UserId,
        /// User gaining authority.
        to: UserId,
    },
    /// Rejection marker at `level`, rolling back to `return_to`.
    Rejection {
        /// 1-based level number the marker sits on.
        level: usize,
        /// 1-based level the form returns to.
        return_to: usize,
    },
}

/// Edge → role map for a built chain, used by the constraint compiler
/// and the trace-level oracle to interpret runs structurally.
#[derive(Debug, Clone)]
pub struct ChainLayout {
    /// Number of levels.
    pub levels: usize,
    /// Size of the user pool.
    pub users: usize,
    roles: Vec<Option<EdgeRole>>, // indexed by SchemaNodeId
    sig_edges: Vec<Vec<(UserId, SchemaNodeId)>>, // per 0-based level, sorted by user
}

impl ChainLayout {
    /// The role of a schema edge (panics on the root).
    pub fn role(&self, edge: SchemaNodeId) -> EdgeRole {
        self.roles[edge.index()].expect("root has no role")
    }

    /// Signature edges of a 1-based level, `(user, edge)` sorted by user.
    pub fn sig_edges(&self, level: usize) -> &[(UserId, SchemaNodeId)] {
        &self.sig_edges[level - 1]
    }

    /// The signature edge of `user` at 1-based `level`, if eligible.
    pub fn sig_edge(&self, level: usize, user: UserId) -> Option<SchemaNodeId> {
        self.sig_edges[level - 1]
            .iter()
            .find(|&&(u, _)| u == user)
            .map(|&(_, e)| e)
    }
}

/// A built scenario: the spec it came from, the compiled guarded form,
/// the edge-role layout and the *declared* fragment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (named corpus entries; `"sampled"` otherwise).
    pub name: String,
    /// The originating specification (chain + duties).
    pub spec: ScenarioSpec,
    /// The compiled guarded form (duty guards included).
    pub form: GuardedForm,
    /// Edge-role map for structural interpretation of runs.
    pub layout: ChainLayout,
    /// Declared fragment; `fragment.admits(&form)` is a tested invariant.
    pub fragment: FragmentSpec,
}

/// A chain plus its duty constraints — the unit the recipe sampler
/// produces and the scenario shrinker minimises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The approval chain.
    pub chain: ChainSpec,
    /// SoD/BoD duties over the chain's levels.
    pub constraints: ConstraintSet,
}

impl ScenarioSpec {
    /// A spec with no duties.
    pub fn unconstrained(chain: ChainSpec) -> ScenarioSpec {
        ScenarioSpec {
            chain,
            constraints: ConstraintSet::empty(),
        }
    }

    /// The fragment this spec's form is declared to live in: chains
    /// without rejection loops grant no `del` right at all.
    pub fn fragment(&self) -> FragmentSpec {
        if self.chain.has_rejection() {
            FragmentSpec::Depth1
        } else {
            FragmentSpec::DeletionFree
        }
    }

    /// Compile the spec into a [`Scenario`]. Panics on an invalid spec
    /// (the samplers and named corpus only produce valid ones).
    pub fn build(&self, name: &str) -> Scenario {
        self.chain.validate().expect("valid chain spec");
        self.constraints
            .validate(self.chain.levels.len())
            .expect("valid constraint set");
        let (form, layout) = build_form(&self.chain, &self.constraints);
        Scenario {
            name: name.to_string(),
            spec: self.clone(),
            form,
            layout,
            fragment: self.fragment(),
        }
    }

    /// One-line summary for fuzz repro-file headers.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "users={} levels=[{}]",
            self.chain.users,
            self.chain
                .levels
                .iter()
                .map(|l| {
                    let mut part = format!("{{a:{:?}", l.approvers);
                    if !l.delegations.is_empty() {
                        part.push_str(&format!(" d:{:?}", l.delegations));
                    }
                    if let Some(k) = l.rejection {
                        part.push_str(&format!(" rej->{k}"));
                    }
                    part.push('}');
                    part
                })
                .collect::<Vec<_>>()
                .join(", ")
        );
        if !self.constraints.is_empty() {
            s.push_str(&format!(" duties={}", self.constraints));
        }
        s
    }
}

/// Compile a chain + duties into a guarded form and its layout.
fn build_form(chain: &ChainSpec, duties: &ConstraintSet) -> (GuardedForm, ChainLayout) {
    let n = chain.levels.len();
    let mut b = SchemaBuilder::new();
    let mut roles: Vec<Option<EdgeRole>> = vec![None]; // root
    let push = |b: &mut SchemaBuilder,
                roles: &mut Vec<Option<EdgeRole>>,
                label: String,
                role: EdgeRole| {
        let e = b.child(SchemaNodeId::ROOT, &label).expect("unique label");
        debug_assert_eq!(e.index(), roles.len());
        roles.push(Some(role));
        e
    };

    let sub = push(&mut b, &mut roles, "sub".into(), EdgeRole::Submit);
    let mut sig_edges: Vec<Vec<(UserId, SchemaNodeId)>> = Vec::with_capacity(n);
    let mut del_edges: Vec<Vec<((UserId, UserId), SchemaNodeId)>> = Vec::with_capacity(n);
    let mut rej_edges: Vec<Option<SchemaNodeId>> = Vec::with_capacity(n);
    for (ix, l) in chain.levels.iter().enumerate() {
        let lvl = ix + 1;
        let sigs = chain
            .eligible(ix)
            .into_iter()
            .map(|u| {
                let e = push(
                    &mut b,
                    &mut roles,
                    format!("s{lvl}_u{u}"),
                    EdgeRole::Sig {
                        level: lvl,
                        user: u,
                    },
                );
                (u, e)
            })
            .collect();
        sig_edges.push(sigs);
        let dels = l
            .delegations
            .iter()
            .map(|&(f, t)| {
                let e = push(
                    &mut b,
                    &mut roles,
                    format!("d{lvl}_u{f}_u{t}"),
                    EdgeRole::Delegation {
                        level: lvl,
                        from: f,
                        to: t,
                    },
                );
                ((f, t), e)
            })
            .collect();
        del_edges.push(dels);
        rej_edges.push(l.rejection.map(|k| {
            push(
                &mut b,
                &mut roles,
                format!("rej{lvl}"),
                EdgeRole::Rejection {
                    level: lvl,
                    return_to: k,
                },
            )
        }));
    }
    let schema = Arc::new(b.build());

    // done(i): level i approved; done(0) = submitted.
    let done = |lvl: usize| -> Formula {
        if lvl == 0 {
            Formula::label("sub")
        } else {
            Formula::disj(
                sig_edges[lvl - 1]
                    .iter()
                    .map(|&(_, e)| Formula::label(schema.label(e))),
            )
        }
    };
    // authority(lvl, u): None = unconditional (approver); otherwise the
    // disjunction of live delegation edges targeting u.
    let authority = |lvl: usize, u: UserId| -> Option<Formula> {
        if chain.levels[lvl - 1].approvers.contains(&u) {
            None
        } else {
            Some(Formula::disj(
                del_edges[lvl - 1]
                    .iter()
                    .filter(|&&((_, t), _)| t == u)
                    .map(|&(_, e)| Formula::label(schema.label(e))),
            ))
        }
    };
    // Rejection loops whose rollback window [return_to, level) covers a
    // 1-based level m.
    let covering: Vec<Vec<usize>> = (1..=n)
        .map(|m| {
            (1..=n)
                .filter(|&j| {
                    chain.levels[j - 1]
                        .rejection
                        .is_some_and(|k| k <= m && m < j)
                })
                .collect()
        })
        .collect();

    let mut rules = AccessRules::new(&schema);
    rules.set(Right::Add, sub, Formula::label("sub").not());
    for (ix, _) in chain.levels.iter().enumerate() {
        let lvl = ix + 1;
        let pending = done(lvl - 1).and(done(lvl).not());
        for &(u, e) in &sig_edges[ix] {
            let mut g = pending.clone();
            if let Some(r) = rej_edges[ix] {
                g = g.and(Formula::label(schema.label(r)).not());
            }
            if let Some(auth) = authority(lvl, u) {
                g = g.and(auth);
            }
            rules.set(Right::Add, e, g);
            // Rollback: a live signature is deletable exactly while a
            // covering rejection marker is live.
            if !covering[ix].is_empty() {
                rules.set(
                    Right::Del,
                    e,
                    Formula::disj(
                        covering[ix].iter().map(|&j| {
                            Formula::label(schema.label(rej_edges[j - 1].expect("loop")))
                        }),
                    ),
                );
            }
        }
        for &((f, _), e) in &del_edges[ix] {
            let mut g = pending.clone().and(Formula::label(schema.label(e)).not());
            if let Some(auth) = authority(lvl, f) {
                g = g.and(auth);
            }
            rules.set(Right::Add, e, g);
        }
        if let Some(r) = rej_edges[ix] {
            let k = chain.levels[ix].rejection.expect("loop");
            rules.set(
                Right::Add,
                r,
                pending.and(Formula::label(schema.label(r)).not()),
            );
            // The marker clears once every covered level is rolled back.
            rules.set(
                Right::Del,
                r,
                Formula::conj((k..lvl).map(|m| done(m).not())),
            );
        }
    }

    let completion = done(n);
    let layout = ChainLayout {
        levels: n,
        users: chain.users,
        roles,
        sig_edges,
    };
    constraints::compile(&mut rules, &schema, &layout, duties);

    let initial = Instance::empty(schema.clone());
    let form = GuardedForm::new(schema, rules, initial, completion);
    (form, layout)
}

// ---------------------------------------------------------------------
// Recipes
// ---------------------------------------------------------------------

/// Distribution envelope from which [`ScenarioRecipe::sample`] draws
/// concrete [`ScenarioSpec`]s — the WfCommons idea: characterise a
/// workload family by its size/branching/density distributions, then
/// sample synthetic instances that look like the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioRecipe {
    /// Recipe name (repro headers, BENCH rows).
    pub name: &'static str,
    /// Inclusive range of chain depth.
    pub levels: (usize, usize),
    /// Inclusive range of user-pool size.
    pub users: (usize, usize),
    /// Inclusive range of approvers per level (clamped to the pool).
    pub approvers_per_level: (usize, usize),
    /// Per-level probability (percent) of a delegation edge.
    pub delegation_pct: u32,
    /// Per-level probability (percent) of a rejection loop (levels ≥ 2).
    pub rejection_pct: u32,
    /// Per-level-pair probability (percent) of a separation duty.
    pub sod_pct: u32,
    /// Per-level-pair probability (percent) of a binding duty.
    pub bod_pct: u32,
}

impl ScenarioRecipe {
    /// Plain approval chains: delegation and rejection, no duties.
    pub fn approval() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "approval",
            levels: (2, 5),
            users: (2, 4),
            approvers_per_level: (1, 3),
            delegation_pct: 40,
            rejection_pct: 35,
            sod_pct: 0,
            bod_pct: 0,
        }
    }

    /// Separation-of-duty heavy chains.
    pub fn sod() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "sod",
            levels: (2, 4),
            users: (2, 4),
            approvers_per_level: (1, 3),
            delegation_pct: 20,
            rejection_pct: 25,
            sod_pct: 45,
            bod_pct: 0,
        }
    }

    /// Binding-of-duty heavy chains.
    pub fn bod() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "bod",
            levels: (2, 4),
            users: (2, 4),
            approvers_per_level: (1, 3),
            delegation_pct: 20,
            rejection_pct: 25,
            sod_pct: 0,
            bod_pct: 45,
        }
    }

    /// Deep, narrow, rejection-heavy chains — the *ringi* pattern of
    /// sequential sign-off with frequent send-back.
    pub fn ringi() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "ringi",
            levels: (4, 6),
            users: (2, 4),
            approvers_per_level: (1, 2),
            delegation_pct: 30,
            rejection_pct: 50,
            sod_pct: 10,
            bod_pct: 10,
        }
    }

    /// Short, wide, separation-heavy chains — committee sign-off.
    pub fn committee() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "committee",
            levels: (2, 3),
            users: (3, 4),
            approvers_per_level: (2, 3),
            delegation_pct: 15,
            rejection_pct: 15,
            sod_pct: 35,
            bod_pct: 10,
        }
    }

    /// Short clean chains, no rejection — lands in the deletion-free
    /// fragment.
    pub fn lightweight() -> ScenarioRecipe {
        ScenarioRecipe {
            name: "lightweight",
            levels: (1, 3),
            users: (2, 3),
            approvers_per_level: (1, 2),
            delegation_pct: 10,
            rejection_pct: 0,
            sod_pct: 0,
            bod_pct: 0,
        }
    }

    /// Derive a recipe from an observed corpus of chains (WfCommons
    /// style): ranges become the corpus min/max, densities its observed
    /// frequencies.
    pub fn from_chains(corpus: &[ChainSpec]) -> ScenarioRecipe {
        assert!(!corpus.is_empty(), "empty corpus");
        let minmax = |it: &mut dyn Iterator<Item = usize>| -> (usize, usize) {
            let mut lo = usize::MAX;
            let mut hi = 0;
            for v in it {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi.max(lo))
        };
        let levels = minmax(&mut corpus.iter().map(|c| c.levels.len()));
        let users = minmax(&mut corpus.iter().map(|c| c.users));
        let approvers = minmax(
            &mut corpus
                .iter()
                .flat_map(|c| c.levels.iter().map(|l| l.approvers.len())),
        );
        let total_levels: usize = corpus.iter().map(|c| c.levels.len()).sum();
        let pct = |hits: usize| ((hits * 100) / total_levels.max(1)) as u32;
        let delegation = pct(corpus
            .iter()
            .flat_map(|c| &c.levels)
            .filter(|l| !l.delegations.is_empty())
            .count());
        let rejection = pct(corpus
            .iter()
            .flat_map(|c| &c.levels)
            .filter(|l| l.rejection.is_some())
            .count());
        ScenarioRecipe {
            name: "derived",
            levels,
            users,
            approvers_per_level: approvers,
            delegation_pct: delegation,
            rejection_pct: rejection,
            sod_pct: 0,
            bod_pct: 0,
        }
    }

    /// Sample a concrete spec — a pure function of `(self, seed)`.
    pub fn sample(&self, seed: u64) -> ScenarioSpec {
        let mut rng = XorShift::new(split_mix(seed ^ 0x5343_454E)); // "SCEN"
        let users = rng.range(self.users.0.max(1), self.users.1.max(1));
        let depth = rng.range(self.levels.0.max(1), self.levels.1.max(1));
        let mut levels = Vec::with_capacity(depth);
        for ix in 0..depth {
            let hi = self.approvers_per_level.1.min(users);
            let lo = self.approvers_per_level.0.min(hi);
            let want = rng.range(lo, hi);
            let mut approvers = sample_distinct(&mut rng, users, want);
            let mut delegations = Vec::new();
            if users >= 2 && rng.chance(self.delegation_pct, 100) {
                let from = if approvers.is_empty() {
                    rng.below(users)
                } else {
                    approvers[rng.below(approvers.len())]
                };
                let mut to = rng.below(users);
                if to == from {
                    to = (to + 1) % users;
                }
                delegations.push((from, to));
                // Occasionally chain the delegation one hop further.
                if users >= 3 && rng.chance(self.delegation_pct / 2, 100) {
                    let mut next = rng.below(users);
                    if next == to {
                        next = (next + 1) % users;
                    }
                    if next != to {
                        delegations.push((to, next));
                    }
                }
            }
            if approvers.is_empty() && delegations.is_empty() {
                approvers.push(rng.below(users));
            }
            let rejection = if ix >= 1 && rng.chance(self.rejection_pct, 100) {
                Some(rng.range(1, ix))
            } else {
                None
            };
            levels.push(LevelSpec {
                approvers,
                delegations,
                rejection,
            });
        }
        let chain = ChainSpec { users, levels };
        let mut constraints = ConstraintSet::empty();
        'pairs: for a in 1..=depth {
            for b in (a + 1)..=depth {
                if constraints.len() >= 4 {
                    break 'pairs; // keep compiled guards readable
                }
                if rng.chance(self.sod_pct, 100) {
                    constraints.push(constraints::Constraint::separation(a, b));
                } else if rng.chance(self.bod_pct, 100) {
                    constraints.push(constraints::Constraint::binding(a, b));
                }
            }
        }
        ScenarioSpec { chain, constraints }
    }
}

/// Sample `want` distinct values in `0..pool` (best effort, bounded).
fn sample_distinct(rng: &mut impl Rng, pool: usize, want: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(want.min(pool));
    let mut tries = 0;
    while out.len() < want.min(pool) && tries < 4 * pool.max(1) {
        let v = rng.below(pool);
        if !out.contains(&v) {
            out.push(v);
        }
        tries += 1;
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------
// Fuzz axes
// ---------------------------------------------------------------------

/// The scenario fuzz axes, mirroring [`FragmentSpec`]'s role for the
/// abstract generator: each axis names a recipe family and a distinct
/// per-axis seed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioAxis {
    /// Plain approval chains (delegation + rejection, no duties).
    Approval,
    /// Separation-of-duty heavy chains.
    Sod,
    /// Binding-of-duty heavy chains.
    Bod,
    /// Rotating named recipes (*ringi*, committee, lightweight).
    Recipe,
}

impl ScenarioAxis {
    /// All axes, in the fixed order the fuzz harness iterates them.
    pub const ALL: [ScenarioAxis; 4] = [
        ScenarioAxis::Approval,
        ScenarioAxis::Sod,
        ScenarioAxis::Bod,
        ScenarioAxis::Recipe,
    ];

    /// Stable machine name (CLI argument / repro-file header).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioAxis::Approval => "approval",
            ScenarioAxis::Sod => "sod",
            ScenarioAxis::Bod => "bod",
            ScenarioAxis::Recipe => "recipe",
        }
    }

    /// Parse a [`ScenarioAxis::name`] back.
    pub fn from_name(s: &str) -> Option<ScenarioAxis> {
        ScenarioAxis::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Seed-mixing tag so axes draw disjoint case streams from one
    /// master seed.
    pub fn tag(self) -> u64 {
        match self {
            ScenarioAxis::Approval => 0x617070,
            ScenarioAxis::Sod => 0x736F64,
            ScenarioAxis::Bod => 0x626F64,
            ScenarioAxis::Recipe => 0x726370,
        }
    }

    /// Sample this axis at `seed`: axes map to recipes; [`Recipe`]
    /// rotates through the named recipe families.
    ///
    /// [`Recipe`]: ScenarioAxis::Recipe
    pub fn sample(self, seed: u64) -> ScenarioSpec {
        let recipe = match self {
            ScenarioAxis::Approval => ScenarioRecipe::approval(),
            ScenarioAxis::Sod => ScenarioRecipe::sod(),
            ScenarioAxis::Bod => ScenarioRecipe::bod(),
            ScenarioAxis::Recipe => match split_mix(seed ^ self.tag()) % 3 {
                0 => ScenarioRecipe::ringi(),
                1 => ScenarioRecipe::committee(),
                _ => ScenarioRecipe::lightweight(),
            },
        };
        recipe.sample(split_mix(seed ^ self.tag()))
    }
}

impl fmt::Display for ScenarioAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-case seeds for `count` scenario cases of `axis` — the same
/// SplitMix derivation as [`crate::form::generate_stream`], so
/// `fuzz --seed N` reproduces the identical scenario sequence.
pub fn scenario_stream(axis: ScenarioAxis, master_seed: u64, count: usize) -> Vec<u64> {
    (0..count)
        .map(|k| split_mix(master_seed ^ split_mix(axis.tag().wrapping_add(k as u64))))
        .collect()
}

// ---------------------------------------------------------------------
// Named corpus
// ---------------------------------------------------------------------

/// Expected analysis outcomes of a named scenario, pinned in the
/// differential suite (`tests/scenario_differential.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Is the form completable from its (empty) initial instance?
    pub completable: bool,
    /// Is every reachable instance still completable?
    pub semisound: bool,
}

/// A named corpus entry: scenario plus its reasoned, pinned verdicts.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    /// The built scenario.
    pub scenario: Scenario,
    /// Pinned expected verdicts.
    pub expected: Expected,
}

/// The six named scenarios the golden tests and BENCH reports pin.
///
/// | name | shape | expected |
/// |------|-------|----------|
/// | `clean_chain` | 4 levels, rotating approvers | completable, semisound |
/// | `rejection_loop` | 3 levels, loop 3→1 | completable, semisound |
/// | `sod_infeasible` | 2 levels, one shared user, SoD(1,2) | neither |
/// | `bod_forced` | BoD(1,3), level 3 only `u0` | completable, **not** semisound |
/// | `delegation_cycle` | level 2 has only a delegation cycle | neither |
/// | `mixed` | BoD trap repaired by a rejection loop + SoD | completable, semisound |
pub fn named_scenarios() -> Vec<NamedScenario> {
    let mk = |name: &str, spec: ScenarioSpec, completable: bool, semisound: bool| NamedScenario {
        scenario: spec.build(name),
        expected: Expected {
            completable,
            semisound,
        },
    };
    let mut out = Vec::new();

    out.push(mk(
        "clean_chain",
        ScenarioSpec::unconstrained(ChainSpec::simple(4, 2, 3)),
        true,
        true,
    ));

    // Rejection loop at level 3 returning to level 1: rework states can
    // always roll back fully and re-approve.
    let mut rejection = ChainSpec {
        users: 2,
        levels: vec![
            LevelSpec::approvers([0]),
            LevelSpec::approvers([1]),
            LevelSpec::approvers([0]),
        ],
    };
    rejection.levels[2].rejection = Some(1);
    out.push(mk(
        "rejection_loop",
        ScenarioSpec::unconstrained(rejection),
        true,
        true,
    ));

    // One user must sign both levels of a separated pair: infeasible, so
    // even the initial instance cannot complete.
    let sod = ScenarioSpec {
        chain: ChainSpec {
            users: 1,
            levels: vec![LevelSpec::approvers([0]), LevelSpec::approvers([0])],
        },
        constraints: ConstraintSet::of([constraints::Constraint::separation(1, 2)]),
    };
    out.push(mk("sod_infeasible", sod, false, false));

    // BoD(1,3) with level 3 restricted to u0: if u1 signs level 1 the
    // form is trapped (no rejection loop to undo it) — completable but
    // not semisound.
    let bod = ScenarioSpec {
        chain: ChainSpec {
            users: 2,
            levels: vec![
                LevelSpec::approvers([0, 1]),
                LevelSpec::approvers([0, 1]),
                LevelSpec::approvers([0]),
            ],
        },
        constraints: ConstraintSet::of([constraints::Constraint::binding(1, 3)]),
    };
    out.push(mk("bod_forced", bod, true, false));

    // Level 2 has no approver, only a delegation cycle u1⇄u2: neither
    // delegation can fire first, so level 2 is unreachable.
    let cycle = ScenarioSpec::unconstrained(ChainSpec {
        users: 3,
        levels: vec![
            LevelSpec::approvers([0]),
            LevelSpec {
                approvers: vec![],
                delegations: vec![(1, 2), (2, 1)],
                rejection: None,
            },
        ],
    });
    out.push(mk("delegation_cycle", cycle, false, false));

    // The bod_forced trap, repaired: a rejection loop at level 3
    // returning to level 1 lets a trapped run roll back and re-bind.
    let mut mixed_chain = ChainSpec {
        users: 3,
        levels: vec![
            LevelSpec::approvers([0, 1]),
            LevelSpec::approvers([1, 2]),
            LevelSpec::approvers([0]),
        ],
    };
    mixed_chain.levels[2].rejection = Some(1);
    let mixed = ScenarioSpec {
        chain: mixed_chain,
        constraints: ConstraintSet::of([
            constraints::Constraint::binding(1, 3),
            constraints::Constraint::separation(1, 2),
        ]),
    };
    out.push(mk("mixed", mixed, true, true));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_roundtrip() {
        for a in ScenarioAxis::ALL {
            assert_eq!(ScenarioAxis::from_name(a.name()), Some(a));
        }
        assert_eq!(ScenarioAxis::from_name("nope"), None);
        let mut tags: Vec<u64> = ScenarioAxis::ALL.iter().map(|a| a.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ScenarioAxis::ALL.len());
    }

    #[test]
    fn simple_chain_builds_depth1() {
        let s = ScenarioSpec::unconstrained(ChainSpec::simple(3, 2, 3)).build("t");
        assert_eq!(s.form.schema().depth(), 1);
        assert_eq!(s.fragment, FragmentSpec::DeletionFree);
        assert!(s.fragment.admits(&s.form));
        // sub + 3 levels × 2 approvers
        assert_eq!(s.form.schema().edge_count(), 7);
    }

    #[test]
    fn clean_chain_has_a_complete_run() {
        let s = ScenarioSpec::unconstrained(ChainSpec::simple(3, 1, 2)).build("t");
        // The obvious run: submit, then sign each level in order.
        let mut inst = s.form.initial().clone();
        let mut steps = 0;
        while !s.form.is_complete(&inst) {
            let ups = s.form.allowed_updates(&inst);
            assert!(!ups.is_empty(), "stuck at {steps}");
            s.form.apply(&mut inst, &ups[0]).unwrap();
            steps += 1;
            assert!(steps <= 16);
        }
    }

    #[test]
    fn named_scenarios_declare_admitted_fragments() {
        for n in named_scenarios() {
            assert!(
                n.scenario.fragment.admits(&n.scenario.form),
                "{}",
                n.scenario.name
            );
            assert!(n.scenario.form.schema().depth() <= 1);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        for axis in ScenarioAxis::ALL {
            for seed in [0u64, 1, 0xC0FFEE] {
                let a = axis.sample(seed);
                let b = axis.sample(seed);
                assert_eq!(a, b);
                a.chain.validate().unwrap();
                a.constraints.validate(a.chain.levels.len()).unwrap();
                let fa = a.build("x");
                let fb = b.build("x");
                assert_eq!(
                    idar_core::serialize::to_ron(&fa.form),
                    idar_core::serialize::to_ron(&fb.form)
                );
            }
        }
    }

    #[test]
    fn derived_recipe_reflects_corpus() {
        let corpus = vec![ChainSpec::simple(2, 1, 2), ChainSpec::simple(5, 2, 3)];
        let r = ScenarioRecipe::from_chains(&corpus);
        assert_eq!(r.levels, (2, 5));
        assert_eq!(r.users, (2, 3));
        assert_eq!(r.approvers_per_level, (1, 2));
        assert_eq!(r.rejection_pct, 0);
        r.sample(7).chain.validate().unwrap();
    }
}
