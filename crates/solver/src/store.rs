//! The hash-consed **state store**: the all-in-RAM store that
//! state-graph builds keep.
//!
//! [`StateStore`] is the record store ([`crate::spill`]) with every page
//! in RAM, plus each state's [`Instance`] and BFS depth.
//! [`Explorer::graph`](crate::Explorer::graph) builds on it, and a
//! retained [`StateGraph`](crate::StateGraph) answers its sessions'
//! queries from the instances it holds. Goal searches need no stored
//! instances and run on the record store alone. Interning, lookup and
//! witness runs exist once, in the record store; this module holds what
//! every store shares: the dedup index and the keying.
//!
//! * **Hash-consing** — each isomorphism class of instances is interned
//!   once, keyed by its canonical word encoding
//!   ([`Instance::canon_key`]), and receives a dense [`StateId`] (`u32`)
//!   that indexes flat side tables. The record store keeps each state's
//!   words in a record and indexes its 64-bit class fingerprint, so
//!   dedup is a hash probe plus (on a fingerprint match) a word compare
//!   against the hot window's words or the decoded record — 64-bit
//!   collisions are detected, never silently merged. The fingerprint →
//!   id index keeps one 4-byte id slot per fingerprint, with a sentinel
//!   that sends the rare colliding fingerprint to a side list. Every
//!   `u64`-keyed state map (this index, depth-1's state ids) hashes with
//!   one multiply hasher, not SipHash: fingerprints and depth-1 label
//!   sets need no further mixing.
//! * **Symmetry reduction** — the store's [`SymmetryMode`] selects the
//!   quotient: [`SymmetryMode::Reduced`] (the default) interns by the
//!   canonical sorted encoding, collapsing all iso-value renamings of a
//!   state into one id; [`SymmetryMode::Plain`] interns by the
//!   order-preserving encoding ([`Instance::ordered_key`]), the ablation
//!   baseline that counts every sibling permutation separately. Verdicts
//!   are invariant between the two (formulas cannot observe sibling
//!   order); state counts are not (on `subset_lattice(8)`, 256 reduced
//!   vs 109 601 plain).
//! * **Probe before materialize** — the explorer hands the store each
//!   successor's key spliced from the parent's
//!   [`KeyLayout`], not the successor itself. The
//!   store probes with it and builds the instance (clone + apply) and
//!   records the words only for a new state; a duplicate costs one hash
//!   probe and one word compare.
//! * **BFS provenance** — each record's header holds the parent and the
//!   update that discovered the state, so [`StateStore::run_to`]
//!   reconstructs a replayable update sequence for any state.
//!
//! The stored [`Instance`] per class is the *as-discovered*
//! representative, not the [`canonicalize`](Instance::canonicalize)d
//! form: parent-pointer updates reference node ids of the stored parent
//! instance, and replay (`GuardedForm::replay`) must see exactly those
//! ids. The canonical encoding (what makes the consing sound) is interned
//! alongside; callers needing the canonical *instance* can call
//! `canonicalize()` on the representative.
//!
//! Successor adjacency is kept out of the store: the explorer's expansion
//! log holds it ([`StateGraph`](crate::StateGraph)).

use crate::spill::{MemoryBudget, SpillStore};
use idar_core::{CanonKey, Instance, KeyLayout, Update};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Dense identifier of an interned state. Id 0 is always the initial
/// instance of the exploration that filled the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// This id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Which quotient of the instance space the store (and the explorers on
/// top of it) deduplicate states by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// Quotient by iso-value renaming (canonical sorted encoding): one
    /// state per isomorphism class. Sound for every analysis in this
    /// workspace — formulas are invariant under sibling permutation — and
    /// the default.
    #[default]
    Reduced,
    /// No symmetry reduction: states are ordered labelled trees
    /// (order-preserving encoding). The ablation baseline; explores the
    /// same verdicts over a strictly larger state space.
    Plain,
}

impl std::fmt::Display for SymmetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetryMode::Reduced => write!(f, "reduced"),
            SymmetryMode::Plain => write!(f, "plain"),
        }
    }
}

/// How a quotient keys a state: its dedup key and the [`KeyLayout`]
/// build whose spliced successor keys equal that key.
pub(crate) type Keying = (fn(&Instance) -> CanonKey, fn(&mut KeyLayout, &Instance));

impl SymmetryMode {
    /// This quotient's [`Keying`]: [`Instance::canon_key`] or
    /// [`Instance::ordered_key`] with the matching layout build. Both
    /// stores and the explorer's expansion step key through it.
    pub(crate) fn keying(self) -> Keying {
        match self {
            SymmetryMode::Reduced => (Instance::canon_key, KeyLayout::build_canon),
            SymmetryMode::Plain => (Instance::ordered_key, KeyLayout::build_ordered),
        }
    }
}

/// A `u64`-keyed state map under [`StateHasher`].
pub(crate) type StateMap<V> = HashMap<u64, V, BuildHasherDefault<StateHasher>>;

/// The hasher of every `u64`-keyed state map: the key times the
/// golden-ratio constant, its high half folded into its low half so the
/// bucket bits see every input bit. The keys (FNV fingerprints, depth-1
/// label sets) need no further mixing; SipHash would only add cost.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StateHasher(u64);

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The value of a [`FingerprintIndex`] slot: the one id stored under a
/// fingerprint, or [`SHARED`] when several are.
type Slot = StateId;
const _: () = assert!(std::mem::size_of::<Slot>() == 4, "index slots are 4 bytes");

/// The slot sentinel: several ids share this fingerprint, and the
/// index's side list holds them. Ids are dense from 0, so no state ever
/// takes this one.
const SHARED: Slot = StateId(u32::MAX);

/// The dedup index under both state stores: fingerprint → the id of the
/// stored state with that fingerprint, in a 4-byte slot. The store owns
/// the words; a probe compares the 64-bit fingerprint (the map key)
/// first and asks the store to compare words only on a full match.
/// 64-bit collisions are detected and counted, never silently merged:
/// the colliding ids move to a side list and their slot reads
/// [`SHARED`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FingerprintIndex {
    slots: StateMap<Slot>,
    /// The ids of every fingerprint whose slot is [`SHARED`].
    shared: StateMap<Vec<StateId>>,
    collisions: u64,
}

impl FingerprintIndex {
    /// The stored id under `fingerprint` whose words `same` accepts, if
    /// any.
    pub(crate) fn find(
        &self,
        fingerprint: u64,
        mut same: impl FnMut(StateId) -> bool,
    ) -> Option<StateId> {
        match *self.slots.get(&fingerprint)? {
            SHARED => self.shared[&fingerprint]
                .iter()
                .copied()
                .find(|&id| same(id)),
            id => same(id).then_some(id),
        }
    }

    /// The stored id under `fingerprint` whose words `same` accepts,
    /// with `false`; else record `next` under `fingerprint` and return
    /// it with `true`.
    #[inline]
    pub(crate) fn intern(
        &mut self,
        fingerprint: u64,
        next: StateId,
        mut same: impl FnMut(StateId) -> bool,
    ) -> (StateId, bool) {
        debug_assert!(next != SHARED, "state ids stay below the sentinel");
        match self.slots.entry(fingerprint) {
            Entry::Vacant(e) => {
                e.insert(next);
                return (next, true);
            }
            Entry::Occupied(mut e) if *e.get() != SHARED => {
                let id = *e.get();
                if same(id) {
                    return (id, false);
                }
                e.insert(SHARED);
                self.shared.insert(fingerprint, vec![id, next]);
            }
            Entry::Occupied(_) => {
                let ids = self
                    .shared
                    .get_mut(&fingerprint)
                    .expect("a shared slot has a side list");
                if let Some(&id) = ids.iter().find(|&&id| same(id)) {
                    return (id, false);
                }
                ids.push(next);
            }
        }
        self.collisions += 1;
        (next, true)
    }

    /// Detected 64-bit fingerprint collisions.
    pub(crate) fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Approximate resident bytes: key + slot + ~1 control byte per
    /// capacity slot of both maps (capacity() underestimates the real
    /// table, but so does any external count), plus the side lists.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots = self.slots.capacity() * (size_of::<(u64, Slot)>() + 1);
        let shared = self.shared.capacity() * (size_of::<(u64, Vec<StateId>)>() + 1);
        let lists: usize = self
            .shared
            .values()
            .map(|ids| ids.capacity() * size_of::<StateId>())
            .sum();
        slots + shared + lists
    }
}

/// A hash-consed store of explored states: the record store
/// ([`crate::spill`], every page in RAM) plus each state's instance and
/// BFS depth. See the module docs.
#[derive(Debug, Default)]
pub struct StateStore {
    /// Words, provenance and the hot window; graph builds and resumes
    /// move the window through it.
    pub(crate) records: SpillStore,
    states: Vec<Instance>,
    depths: Vec<u32>,
}

impl StateStore {
    /// An empty store deduplicating under the given symmetry mode.
    pub fn new(symmetry: SymmetryMode) -> StateStore {
        StateStore {
            records: SpillStore::new(symmetry, MemoryBudget::unbounded()),
            ..StateStore::default()
        }
    }

    /// The store's symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.records.symmetry()
    }

    /// Intern `inst`: return its dense id and whether it was new. On a
    /// new state, `parent` records the BFS tree edge that discovered it
    /// (`None` for the initial state) and the depth is derived from it.
    pub fn intern(&mut self, inst: Instance, parent: Option<(StateId, Update)>) -> (StateId, bool) {
        let (key_of, _) = self.symmetry().keying();
        self.intern_keyed(key_of(&inst), inst, parent)
    }

    /// [`StateStore::intern`] with the dedup key already computed (the
    /// explorers compute it once per successor and reuse it).
    pub fn intern_keyed(
        &mut self,
        key: CanonKey,
        inst: Instance,
        parent: Option<(StateId, Update)>,
    ) -> (StateId, bool) {
        self.intern_with(key.fingerprint(), key.words(), parent, |_| inst)
    }

    /// Intern the state with dedup key `(fingerprint, words)`; only a new
    /// state's instance is built, by `make` from the stored ones.
    pub(crate) fn intern_with(
        &mut self,
        fingerprint: u64,
        words: &[u32],
        parent: Option<(StateId, Update)>,
        make: impl FnOnce(&[Instance]) -> Instance,
    ) -> (StateId, bool) {
        let depth = parent.map_or(0, |(p, _)| self.depths[p.index()] + 1);
        let (id, is_new) = self.records.intern(fingerprint, words, parent, depth);
        if is_new {
            let inst = make(&self.states);
            self.states.push(inst);
            self.depths.push(depth);
        }
        (id, is_new)
    }

    /// Look up the state id of an instance without inserting. The
    /// intern/lookup fixpoint: after `intern(i, ..)`, `lookup(j)` returns
    /// the same id for every `j` the symmetry mode identifies with `i`.
    /// A state outside the hot window is compared by decoding its record.
    pub fn lookup(&mut self, inst: &Instance) -> Option<StateId> {
        let (key_of, _) = self.symmetry().keying();
        let key = key_of(inst);
        self.records.find(key.fingerprint(), key.words())
    }

    /// The stored representative of state `id`.
    pub fn get(&self, id: StateId) -> &Instance {
        &self.states[id.index()]
    }

    /// The stored representatives, indexed by `StateId`.
    pub fn states(&self) -> &[Instance] {
        &self.states
    }

    /// BFS depth of state `id` (steps from the initial instance).
    pub fn depth(&self, id: StateId) -> usize {
        self.depths[id.index()] as usize
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Detected 64-bit fingerprint collisions (distinct encodings sharing
    /// a fingerprint). Expected to stay 0 in practice.
    pub fn collisions(&self) -> u64 {
        self.records.collisions()
    }

    /// Approximate resident bytes of the store: the record store, the
    /// state instances and the depth column. An estimate (allocator
    /// slack and hash-map control bytes are approximated), used for
    /// byte-denominated retention budgets.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<StateStore>()
            + self.records.approx_bytes()
            + self
                .states
                .iter()
                .map(Instance::approx_bytes)
                .sum::<usize>()
            + self.depths.capacity() * size_of::<u32>()
    }

    /// Reconstruct the update sequence from the initial state to `id`
    /// along the BFS tree (replayable via `GuardedForm::replay`), from
    /// the record headers.
    pub fn run_to(&mut self, id: StateId) -> Vec<Update> {
        self.records.run_to(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{bfs, ExploreLimits};
    use idar_core::{AccessRules, Formula, GuardedForm, InstNodeId, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(b, c), s").unwrap())
    }

    #[test]
    fn intern_lookup_fixpoint() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let i1 = Instance::parse(s.clone(), "a(b, c), s").unwrap();
        let (id, new) = store.intern(i1.clone(), None);
        assert!(new);
        // Lookup of any isomorphic variant returns the same id…
        for t in ["a(b, c), s", "s, a(c, b)", "a(c, b), s"] {
            let j = Instance::parse(s.clone(), t).unwrap();
            assert_eq!(store.lookup(&j), Some(id), "{t}");
            // …and re-interning is not-new with the same id.
            assert_eq!(store.intern(j, None), (id, false), "{t}");
        }
        assert_eq!(store.len(), 1);
        // A non-isomorphic instance is absent.
        let other = Instance::parse(s, "a(b)").unwrap();
        assert_eq!(store.lookup(&other), None);
    }

    #[test]
    fn plain_mode_distinguishes_sibling_order() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Plain);
        let i1 = Instance::parse(s.clone(), "a(b, c), s").unwrap();
        let i2 = Instance::parse(s.clone(), "s, a(c, b)").unwrap();
        let (a, new_a) = store.intern(i1, None);
        let (b, new_b) = store.intern(i2, None);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        // Exact ordered repeat still dedups.
        let i3 = Instance::parse(s, "a(b, c), s").unwrap();
        assert_eq!(store.lookup(&i3), Some(a));
    }

    #[test]
    fn provenance_and_runs() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let i0 = Instance::empty(s.clone());
        let (root, _) = store.intern(i0.clone(), None);
        let mut i1 = i0.clone();
        let a_edge = s.resolve("a").unwrap();
        let an = i1.add_child(InstNodeId::ROOT, a_edge).unwrap();
        let u1 = Update::Add {
            parent: InstNodeId::ROOT,
            edge: a_edge,
        };
        let (one, _) = store.intern(i1.clone(), Some((root, u1)));
        let b_edge = s.resolve("a/b").unwrap();
        let mut i2 = i1.clone();
        i2.add_child(an, b_edge).unwrap();
        let u2 = Update::Add {
            parent: an,
            edge: b_edge,
        };
        let (two, _) = store.intern(i2, Some((one, u2)));
        assert_eq!(store.depth(root), 0);
        assert_eq!(store.depth(one), 1);
        assert_eq!(store.depth(two), 2);
        assert_eq!(store.run_to(two), vec![u1, u2]);
        assert_eq!(store.lookup(&i1), Some(one));
    }

    /// Two different word sequences under one fingerprint stay two
    /// states: each probe compares words, and the second insert counts
    /// one collision.
    #[test]
    fn fingerprint_collisions_keep_distinct_ids() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let make = |_: &[Instance]| Instance::empty(s.clone());
        let (a, new_a) = store.intern_with(7, &[1, 2], None, make);
        let (b, new_b) = store.intern_with(7, &[3, 4], None, make);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(store.intern_with(7, &[1, 2], None, make), (a, false));
        assert_eq!(store.intern_with(7, &[3, 4], None, make), (b, false));
        assert_eq!(store.len(), 2);
        assert_eq!(store.collisions(), 1);
    }

    /// Three word sequences under one fingerprint: the second turns the
    /// slot into the shared sentinel, the third grows the side list, and
    /// both interning and `find` reach every id through it.
    #[test]
    fn three_way_collision_goes_through_the_side_list() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let make = |_: &[Instance]| Instance::empty(s.clone());
        let words: [&[u32]; 3] = [&[1, 2], &[3, 4], &[5, 6, 7]];
        let ids: Vec<StateId> = words
            .iter()
            .map(|w| {
                let (id, new) = store.intern_with(7, w, None, make);
                assert!(new);
                id
            })
            .collect();
        assert_eq!(ids, [StateId(0), StateId(1), StateId(2)]);
        let index = store.records.index();
        assert_eq!(index.slots[&7], SHARED);
        assert_eq!(index.shared[&7], ids);
        assert_eq!(index.find(8, |_| true), None);
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(store.intern_with(7, w, None, make), (id, false));
            assert_eq!(store.records.find(7, w), Some(id));
        }
        assert_eq!(store.records.find(7, &[8]), None);
        assert_eq!(store.len(), 3);
        assert_eq!(store.collisions(), 2);
    }

    /// Free adds and deletions under `a(b, c), s` with at most one child
    /// per edge: the ten subsets, four BFS layers below the root.
    fn free_form() -> (GuardedForm, ExploreLimits) {
        let s = schema();
        let rules = AccessRules::with_default(&s, Formula::True);
        let form = GuardedForm::new(s.clone(), rules, Instance::empty(s), Formula::False);
        let limits = ExploreLimits {
            multiplicity_cap: Some(1),
            ..ExploreLimits::small()
        };
        (form, limits)
    }

    /// The form's state space, interned by the explorer's BFS, which
    /// advances the record store's hot window layer by layer.
    fn bfs_store(form: &GuardedForm, limits: &ExploreLimits) -> StateStore {
        let mut store = StateStore::new(SymmetryMode::Reduced);
        bfs(form, limits, &mut store, |_| false, &mut ());
        assert_eq!(store.len(), 10);
        assert_eq!(store.depth(StateId(9)), 4);
        store
    }

    /// After the build, the first three layers have left the hot window:
    /// a lookup of a cold state, or of an isomorphic renaming of it,
    /// finds its id by decoding its record.
    #[test]
    fn lookup_finds_cold_states_through_the_arena() {
        let (form, limits) = free_form();
        let mut store = bfs_store(&form, &limits);
        let hot_base = store.records.hot_base();
        assert!(hot_base > 3, "layers 0..=2 are cold");
        for i in 0..hot_base {
            let id = StateId(i);
            let inst = store.get(id).clone();
            assert_eq!(store.lookup(&inst), Some(id), "state {i}");
            assert_eq!(store.lookup(&inst.canonicalize().instance), Some(id));
        }
        let cold = Instance::parse(schema(), "a, s").unwrap();
        let id = store.lookup(&cold).expect("{a, s} is reachable");
        assert!(id.0 < hot_base, "{{a, s}} sits at depth 2");
        let renamed = Instance::parse(schema(), "s, a").unwrap();
        assert_eq!(store.lookup(&renamed), Some(id));
        assert_eq!(store.records.report().faults, 0, "every page is in RAM");
    }

    /// A successor of a cold parent (as a resume interns one) is written
    /// as a full-word checkpoint; once it and its own successors have
    /// left the hot window too, a second probe still dedups through the
    /// decoded records, and its run replays.
    #[test]
    fn cold_parent_successor_is_a_checkpoint() {
        let (form, limits) = free_form();
        let mut store = bfs_store(&form, &limits);
        let s = schema();
        let a = s.resolve("a").unwrap();
        let parent = store
            .lookup(&Instance::parse(s.clone(), "a, s").unwrap())
            .expect("{a, s} is reachable");
        assert!(parent.0 < store.records.hot_base());
        // {a, a, s}, {a, a, a, s}, {a, a, a, a, s}: depths 3, 4 and 5.
        let mut chain = vec![];
        let mut at = parent;
        for _ in 0..3 {
            let checkpoints = store.records.report().checkpoints;
            let u = Update::Add {
                parent: InstNodeId::ROOT,
                edge: a,
            };
            let mut next = store.get(at).clone();
            form.apply_unchecked(&mut next, &u).unwrap();
            let (id, new) = store.intern(next.clone(), Some((at, u)));
            assert!(new);
            let cold_parent = at == parent;
            assert_eq!(
                store.records.report().checkpoints,
                checkpoints + u64::from(cold_parent),
                "only the cold parent's successor is a checkpoint"
            );
            chain.push((id, next));
            at = id;
        }
        assert_eq!(store.depth(at), 5);
        store.records.begin_layer(6);
        assert_eq!(store.records.hot_base(), at.0);
        for (id, inst) in &chain {
            assert_eq!(store.intern(inst.clone(), None), (*id, false));
            let run = store.run_to(*id);
            let replayed = form.replay(&run).unwrap();
            assert!(replayed.last().isomorphic(inst));
        }
        assert_eq!(store.len(), 13);
        assert_eq!(store.collisions(), 0);
    }
}
