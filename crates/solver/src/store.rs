//! The hash-consed **state store**: the flat, all-in-RAM store that
//! state-graph builds keep.
//!
//! Before this layer existed, each solver call re-materialised its own
//! `HashSet<Instance>`-shaped dedup structures. The store centralises
//! that. [`Explorer::graph`](crate::Explorer::graph) builds on it, and a
//! retained [`StateGraph`](crate::StateGraph) answers its sessions'
//! queries from the instances it holds. Goal searches need no stored
//! instances and run on the record store ([`crate::spill`]) instead;
//! the two share this module's dedup index and keying.
//!
//! * **Hash-consing** — each isomorphism class of instances is interned
//!   once, keyed by its canonical word encoding
//!   ([`Instance::canon_key`]), and receives a dense [`StateId`] (`u32`)
//!   that indexes flat side tables. The interned canonical words and the
//!   64-bit class fingerprint are kept per state, so dedup is a hash
//!   probe plus (on a fingerprint match) a word `memcmp` — 64-bit
//!   collisions are detected, never silently merged. The fingerprint →
//!   id index is shared with the record store: one 4-byte id slot per
//!   fingerprint, with a sentinel that sends the rare colliding
//!   fingerprint to a side list. Every `u64`-keyed state map (this
//!   index, depth-1's state ids) hashes with one multiply hasher, not
//!   SipHash: fingerprints and depth-1 label sets need no further
//!   mixing.
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
//!   boxes the words only for a new state; a duplicate costs one hash
//!   probe and one word compare.
//! * **BFS provenance** — parent pointers and depths live in the store,
//!   so [`StateStore::run_to`] reconstructs a replayable update sequence
//!   for any state.
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
    fn approx_bytes(&self) -> usize {
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

/// A hash-consed store of explored states. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    symmetry: SymmetryMode,
    index: FingerprintIndex,
    /// Interned key words per state (canonical or ordered per `symmetry`).
    keys: Vec<Box<[u32]>>,
    /// The 64-bit key fingerprint per state. In `Reduced` mode this is
    /// the canonical class fingerprint ([`Instance::canonicalize`]).
    fingerprints: Vec<u64>,
    states: Vec<Instance>,
    parents: Vec<Option<(StateId, Update)>>,
    depths: Vec<u32>,
}

impl StateStore {
    /// An empty store deduplicating under the given symmetry mode.
    pub fn new(symmetry: SymmetryMode) -> StateStore {
        StateStore {
            symmetry,
            ..StateStore::default()
        }
    }

    /// The store's symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// Intern `inst`: return its dense id and whether it was new. On a
    /// new state, `parent` records the BFS tree edge that discovered it
    /// (`None` for the initial state) and the depth is derived from it.
    pub fn intern(&mut self, inst: Instance, parent: Option<(StateId, Update)>) -> (StateId, bool) {
        let (key_of, _) = self.symmetry.keying();
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
        let (fingerprint, words) = key.into_parts();
        self.intern_words(fingerprint, words, parent, |_| inst)
    }

    /// Intern the state with dedup key `(fingerprint, words)`, probing
    /// before anything is built: only when the state is new does `make`
    /// produce its instance, from the store as it stands, and are the
    /// words boxed (a no-op when they already are). The explorers' one
    /// successor path hands in the key spliced from the parent's layout.
    pub(crate) fn intern_words<W>(
        &mut self,
        fingerprint: u64,
        words: W,
        parent: Option<(StateId, Update)>,
        make: impl FnOnce(&StateStore) -> Instance,
    ) -> (StateId, bool)
    where
        W: AsRef<[u32]> + Into<Box<[u32]>>,
    {
        let next = StateId(self.states.len() as u32);
        let keys = &self.keys;
        let (id, is_new) = self.index.intern(fingerprint, next, |cand| {
            *keys[cand.index()] == *words.as_ref()
        });
        if !is_new {
            return (id, false);
        }
        let depth = match parent {
            Some((p, _)) => self.depths[p.index()] + 1,
            None => 0,
        };
        let inst = make(self);
        self.fingerprints.push(fingerprint);
        self.keys.push(words.into());
        self.states.push(inst);
        self.parents.push(parent);
        self.depths.push(depth);
        (id, true)
    }

    /// Look up the state id of an instance without inserting. The
    /// intern/lookup fixpoint: after `intern(i, ..)`, `lookup(j)` returns
    /// the same id for every `j` the symmetry mode identifies with `i`.
    pub fn lookup(&self, inst: &Instance) -> Option<StateId> {
        let (key_of, _) = self.symmetry.keying();
        let key = key_of(inst);
        self.index.find(key.fingerprint(), |id| {
            *self.keys[id.index()] == *key.words()
        })
    }

    /// The stored representative of state `id`.
    pub fn get(&self, id: StateId) -> &Instance {
        &self.states[id.index()]
    }

    /// The stored representatives, indexed by `StateId`.
    pub fn states(&self) -> &[Instance] {
        &self.states
    }

    /// The dedup-key fingerprint of state `id` (the canonical class
    /// fingerprint in `Reduced` mode).
    pub fn fingerprint(&self, id: StateId) -> u64 {
        self.fingerprints[id.index()]
    }

    /// The BFS tree edge that discovered `id` (`None` for the initial
    /// state).
    pub fn parent(&self, id: StateId) -> Option<(StateId, Update)> {
        self.parents[id.index()]
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
        self.index.collisions()
    }

    /// Approximate resident bytes of the store: state instances, interned
    /// key words, the fingerprint index, and provenance columns. An
    /// estimate (allocator slack and hash-map control bytes are
    /// approximated), used for byte-denominated retention budgets.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<StateStore>() + self.index.approx_bytes();
        total += self.keys.capacity() * size_of::<Box<[u32]>>();
        total += self
            .keys
            .iter()
            .map(|k| k.len() * size_of::<u32>())
            .sum::<usize>();
        total += self.fingerprints.capacity() * size_of::<u64>();
        total += self
            .states
            .iter()
            .map(Instance::approx_bytes)
            .sum::<usize>();
        total += self.parents.capacity() * size_of::<Option<(StateId, Update)>>();
        total += self.depths.capacity() * size_of::<u32>();
        total
    }

    /// Reconstruct the update sequence from the initial state to `id`
    /// along the BFS tree (replayable via `GuardedForm::replay`).
    pub fn run_to(&self, id: StateId) -> Vec<Update> {
        let mut rev = Vec::new();
        let mut i = id;
        while let Some((p, u)) = self.parents[i.index()] {
            rev.push(u);
            i = p;
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{InstNodeId, Schema};
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
        assert_eq!(store.fingerprint(one), i1.canon_key().fingerprint());
    }

    /// Two different word sequences under one fingerprint stay two
    /// states: each probe compares words, and the second insert counts
    /// one collision.
    #[test]
    fn fingerprint_collisions_keep_distinct_ids() {
        let s = schema();
        let mut store = StateStore::new(SymmetryMode::Reduced);
        let make = |_: &StateStore| Instance::empty(s.clone());
        let (a, new_a) = store.intern_words(7, vec![1, 2], None, make);
        let (b, new_b) = store.intern_words(7, vec![3, 4], None, make);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(store.intern_words(7, vec![1, 2], None, make), (a, false));
        assert_eq!(store.intern_words(7, vec![3, 4], None, make), (b, false));
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
        let make = |_: &StateStore| Instance::empty(s.clone());
        let words: [&[u32]; 3] = [&[1, 2], &[3, 4], &[5, 6, 7]];
        let ids: Vec<StateId> = words
            .iter()
            .map(|w| {
                let (id, new) = store.intern_words(7, w.to_vec(), None, make);
                assert!(new);
                id
            })
            .collect();
        assert_eq!(ids, [StateId(0), StateId(1), StateId(2)]);
        assert_eq!(store.index.slots[&7], SHARED);
        assert_eq!(store.index.shared[&7], ids);
        let find =
            |store: &StateStore, w: &[u32]| store.index.find(7, |id| *store.keys[id.index()] == *w);
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(store.intern_words(7, w.to_vec(), None, make), (id, false));
            assert_eq!(find(&store, w), Some(id));
        }
        assert_eq!(find(&store, &[8]), None);
        assert_eq!(store.index.find(8, |_| true), None);
        assert_eq!(store.len(), 3);
        assert_eq!(store.collisions(), 2);
    }
}
