//! Canonical instance keys: word-compare state deduplication.
//!
//! The explicit-state explorers deduplicate instances *up to isomorphism*.
//! The original representation of an isomorphism class was the
//! [`Instance::iso_code`] string — an AHU-style canonical rendering — which
//! makes every dedup a string hash plus a string compare, and every new
//! state a fresh heap string. At production scale (10⁵–10⁷ states per
//! search) the code strings dominate both the allocation profile and the
//! hash-map probe cost.
//!
//! This module replaces strings with [`CanonKey`]: a compact canonical
//! encoding of the instance as a `u32` word sequence (schema-node ids plus
//! tree delimiters, children sorted), with a 64-bit FNV-1a fingerprint
//! over the words. Building it never allocates label strings and never
//! formats.
//!
//! The solver's explicit-state engines intern these keys in their state
//! stores (`idar-solver`'s record store `SpillStore`, which the flat
//! `StateStore` of graph builds wraps). A lookup compares the fingerprint first and the words
//! only within a fingerprint bucket, so a true 64-bit collision is
//! detected, never silently merged; each distinct class gets a dense
//! state id. The engines probe their stores with keys spliced by a
//! [`KeyLayout`]: laid out once per expanded state, it writes the key of
//! each one-update successor by rewriting only the spine from the touched
//! node to the root, so a successor that is already stored is never built
//! at all.
//!
//! # Canonical encoding
//!
//! A node's encoding is `[schema_node, OPEN, …sorted child encodings…,
//! CLOSE]`; the root contributes only its sorted children (the root label
//! is fixed, Def. 3.1). Sibling encodings are sorted lexicographically as
//! word slices. Since sibling labels are unique in a schema, sorting by
//! schema-node id agrees with the label sort that [`Instance::iso_code`]
//! performs, and two instances of the same schema are isomorphic iff their
//! encodings are equal:
//!
//! ```
//! use idar_core::{Instance, Schema};
//! use std::sync::Arc;
//!
//! let schema = Arc::new(Schema::parse("a(p(b, e)), s").unwrap());
//! let i1 = Instance::parse(schema.clone(), "a(p(b), p(e)), s").unwrap();
//! let i2 = Instance::parse(schema.clone(), "s, a(p(e), p(b))").unwrap();
//! let i3 = Instance::parse(schema, "a(p(b), p(b)), s").unwrap();
//! assert_eq!(i1.canon_key(), i2.canon_key()); // isomorphic
//! assert_ne!(i1.canon_key(), i3.canon_key()); // multiplicity differs
//! ```

use crate::guarded::Update;
use crate::instance::{InstNodeId, Instance};

/// Tree-shape delimiters in the canonical word encoding. Schema node ids
/// are `u32` indices far below these sentinels.
const OPEN: u32 = u32::MAX;
const CLOSE: u32 = u32::MAX - 1;

/// The canonical encoding of an instance: a word sequence plus its 64-bit
/// fingerprint. See the module docs for the encoding scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonKey {
    hash: u64,
    words: Box<[u32]>,
}

impl CanonKey {
    /// The 64-bit FNV-1a fingerprint of the encoding.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// The canonical word sequence (exposed for tests and diagnostics).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Decompose into `(fingerprint, owned words)` — lets stores take the
    /// encoding without re-allocating it.
    #[inline]
    pub fn into_parts(self) -> (u64, Box<[u32]>) {
        (self.hash, self.words)
    }
}

fn fnv1a(words: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &w in words {
        h ^= u64::from(w);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Recursively encode the subtree under `node`, appending to `out`.
///
/// Children are encoded into scratch buffers, sorted as word slices, then
/// concatenated — the sort is what quotients away sibling order.
fn encode_children(inst: &Instance, node: InstNodeId, out: &mut Vec<u32>) {
    let children = inst.children(node);
    match children.len() {
        0 => {}
        1 => encode_node(inst, children[0], out),
        _ => {
            let mut encs: Vec<Vec<u32>> = children
                .iter()
                .map(|&c| {
                    let mut e = Vec::new();
                    encode_node(inst, c, &mut e);
                    e
                })
                .collect();
            encs.sort_unstable();
            for e in encs {
                out.extend_from_slice(&e);
            }
        }
    }
}

pub(crate) fn encode_node(inst: &Instance, node: InstNodeId, out: &mut Vec<u32>) {
    out.push(inst.schema_node(node).index() as u32);
    if !inst.is_leaf(node) {
        out.push(OPEN);
        encode_children(inst, node, out);
        out.push(CLOSE);
    }
}

/// Like [`encode_node`] but preserving child order (no sibling sort):
/// the *ordered-tree* encoding, which distinguishes sibling permutations.
fn encode_node_ordered(inst: &Instance, node: InstNodeId, out: &mut Vec<u32>) {
    out.push(inst.schema_node(node).index() as u32);
    if !inst.is_leaf(node) {
        out.push(OPEN);
        for &c in inst.children(node) {
            encode_node_ordered(inst, c, out);
        }
        out.push(CLOSE);
    }
}

impl Instance {
    /// Compute this instance's canonical key (fingerprint + word
    /// encoding). Two instances of the same schema are isomorphic iff
    /// their keys are equal; the empty instance has an empty encoding.
    pub fn canon_key(&self) -> CanonKey {
        let mut words = Vec::with_capacity(2 * self.live_count());
        encode_children(self, InstNodeId::ROOT, &mut words);
        let hash = fnv1a(&words);
        CanonKey {
            hash,
            words: words.into_boxed_slice(),
        }
    }

    /// The *ordered-tree* key: like [`Instance::canon_key`] but children
    /// are encoded in child order, so sibling permutations produce
    /// distinct keys. This is the "no symmetry reduction" identity the
    /// solver's plain exploration mode dedups on — two instances share an
    /// ordered key iff they are equal as ordered labelled trees.
    pub fn ordered_key(&self) -> CanonKey {
        let mut words = Vec::with_capacity(2 * self.live_count());
        for &c in self.children(InstNodeId::ROOT) {
            encode_node_ordered(self, c, &mut words);
        }
        let hash = fnv1a(&words);
        CanonKey {
            hash,
            words: words.into_boxed_slice(),
        }
    }
}

/// The key encoding of one instance laid out node by node, so that the
/// key of any one-update successor can be spliced from it without
/// building the successor.
///
/// [`KeyLayout::build_canon`] / [`KeyLayout::build_ordered`] lay out a
/// state once: every live node's encoding as a slice of one word arena,
/// plus its children in key order (sorted by encoding for
/// [`Instance::canon_key`], child order for [`Instance::ordered_key`]).
/// [`KeyLayout::splice`] then writes a successor's words into a reused
/// buffer. Only the spine from the touched node to the root is
/// rewritten: one child is inserted or removed at the touched node, each
/// changed child moves to its place among its siblings, and every other
/// sibling slice is copied unchanged. Words and fingerprint are those of
/// the applied successor's key.
///
/// ```
/// use idar_core::{InstNodeId, Instance, KeyLayout, Schema, Update};
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::parse("a(p(b, e)), s").unwrap());
/// let inst = Instance::parse(schema.clone(), "a(p(e)), s").unwrap();
/// let p = inst.children(inst.children(InstNodeId::ROOT)[0])[0];
/// let add = Update::Add { parent: p, edge: schema.resolve("a/p/b").unwrap() };
///
/// let mut layout = KeyLayout::default();
/// layout.build_canon(&inst);
/// let (fingerprint, words) = layout.splice(&inst, &add);
///
/// let mut next = inst.clone();
/// next.add_child(p, schema.resolve("a/p/b").unwrap()).unwrap();
/// assert_eq!(words, next.canon_key().words());
/// assert_eq!(fingerprint, next.canon_key().fingerprint());
/// ```
#[derive(Debug, Default)]
pub struct KeyLayout {
    /// Siblings in sorted (canonical) or child (ordered) order.
    sorted: bool,
    /// Every live node's encoding, back to back: `[schema_node]` for a
    /// leaf, `[schema_node, OPEN, …children…, CLOSE]` otherwise, and the
    /// root's children only for the root.
    arena: Vec<u32>,
    /// Per instance slot: `(start, len)` of the node's encoding in `arena`.
    spans: Vec<(u32, u32)>,
    /// Every live node's children in key order, back to back.
    kids: Vec<InstNodeId>,
    /// Per instance slot: `(start, len)` of the node's children in `kids`.
    kid_spans: Vec<(u32, u32)>,
    /// Per instance slot: the node's index among its parent's children
    /// in key order.
    ranks: Vec<u32>,
    /// The spine buffers a splice alternates between; the last one
    /// written holds the successor's words.
    bufs: [Vec<u32>; 2],
}

impl KeyLayout {
    /// Lay out `inst` for splicing [`Instance::canon_key`]s.
    pub fn build_canon(&mut self, inst: &Instance) {
        self.build(inst, true);
    }

    /// Lay out `inst` for splicing [`Instance::ordered_key`]s.
    pub fn build_ordered(&mut self, inst: &Instance) {
        self.build(inst, false);
    }

    fn build(&mut self, inst: &Instance, sorted: bool) {
        let slots = inst.slot_count();
        self.sorted = sorted;
        self.arena.clear();
        self.kids.clear();
        self.spans.clear();
        self.spans.resize(slots, (0, 0));
        self.kid_spans.clear();
        self.kid_spans.resize(slots, (0, 0));
        self.ranks.clear();
        self.ranks.resize(slots, 0);
        // A child's slot is always above its parent's (additions append),
        // so a downward sweep lays out every child before its parent.
        for slot in (0..slots).rev() {
            let node = InstNodeId(slot as u32);
            if !inst.is_live(node) {
                continue;
            }
            let first = self.kids.len();
            self.kids.extend_from_slice(inst.children(node));
            let kids = &mut self.kids[first..];
            if sorted {
                let (arena, spans) = (&self.arena, &self.spans);
                kids.sort_unstable_by(|&a, &b| {
                    slice(arena, spans[a.index()]).cmp(slice(arena, spans[b.index()]))
                });
            }
            for (rank, &c) in kids.iter().enumerate() {
                self.ranks[c.index()] = rank as u32;
            }
            self.kid_spans[slot] = (first as u32, kids.len() as u32);

            let start = self.arena.len();
            let inner = node != InstNodeId::ROOT && !kids.is_empty();
            if node != InstNodeId::ROOT {
                self.arena.push(inst.schema_node(node).index() as u32);
            }
            if inner {
                self.arena.push(OPEN);
            }
            for k in first..self.kids.len() {
                let (s, l) = self.spans[self.kids[k].index()];
                self.arena
                    .extend_from_within(s as usize..s as usize + l as usize);
            }
            if inner {
                self.arena.push(CLOSE);
            }
            self.spans[slot] = (start as u32, (self.arena.len() - start) as u32);
        }
    }

    /// The key of the successor `update` makes of `inst`: its FNV-1a
    /// fingerprint and its words, equal to the `canon_key()` (after
    /// [`KeyLayout::build_canon`]) or `ordered_key()` (after
    /// [`KeyLayout::build_ordered`]) of the applied successor. The layout
    /// must have been built from `inst`, and `update` must apply to it.
    pub fn splice(&mut self, inst: &Instance, update: &Update) -> (u64, &[u32]) {
        let [mut cur, mut next] = std::mem::take(&mut self.bufs);
        // `cur` is the chunk to insert at `node` after removing its child
        // of rank `drop`: at the touched node one new leaf or nothing,
        // above it the spine child's rewritten encoding.
        cur.clear();
        let (mut node, mut drop) = match *update {
            Update::Add { parent, edge } => {
                cur.push(edge.index() as u32);
                (parent, None)
            }
            Update::Del { node } => (
                inst.parent(node).expect("deletions remove non-root leaves"),
                Some(self.ranks[node.index()]),
            ),
        };
        loop {
            next.clear();
            self.rewrite(inst, node, drop, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
            match inst.parent(node) {
                Some(up) => {
                    drop = Some(self.ranks[node.index()]);
                    node = up;
                }
                None => break,
            }
        }
        self.bufs = [next, cur];
        let words = &self.bufs[1];
        (fnv1a(words), words)
    }

    /// Write `node`'s encoding with its child of rank `drop` removed and
    /// `insert` (if non-empty) placed among the remaining children: at
    /// its sorted place, or — in child order — where the removed child
    /// was, else last (additions append).
    fn rewrite(
        &self,
        inst: &Instance,
        node: InstNodeId,
        drop: Option<u32>,
        insert: &[u32],
        out: &mut Vec<u32>,
    ) {
        let (first, len) = self.kid_spans[node.index()];
        let kids = &self.kids[first as usize..(first + len) as usize];
        let remaining = kids.len() - usize::from(drop.is_some()) + usize::from(!insert.is_empty());
        let inner = node != InstNodeId::ROOT && remaining > 0;
        if node != InstNodeId::ROOT {
            out.push(inst.schema_node(node).index() as u32);
        }
        if inner {
            out.push(OPEN);
        }
        let mut pending = !insert.is_empty();
        for (rank, &c) in kids.iter().enumerate() {
            let sibling = slice(&self.arena, self.spans[c.index()]);
            if Some(rank as u32) == drop {
                if pending && !self.sorted {
                    out.extend_from_slice(insert);
                    pending = false;
                }
                continue;
            }
            if pending && self.sorted && sibling > insert {
                out.extend_from_slice(insert);
                pending = false;
            }
            out.extend_from_slice(sibling);
        }
        if pending {
            out.extend_from_slice(insert);
        }
        if inner {
            out.push(CLOSE);
        }
    }
}

fn slice(arena: &[u32], (start, len): (u32, u32)) -> &[u32] {
    &arena[start as usize..(start + len) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;
    use std::sync::Arc;

    fn leave_schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    /// canon_key equality must coincide with iso_code equality on a spread
    /// of instances (same equivalence relation, different representation).
    #[test]
    fn canon_key_matches_iso_code_equivalence() {
        let s = leave_schema();
        let texts = [
            "",
            "a",
            "a(n)",
            "a(n, p(b))",
            "a(p(b), p(e)), s",
            "a(p(e), p(b)), s",
            "a(p(b, e), p(b, e)), s",
            "a(p(b, e)), s",
            "s, a(p(b), p(e))",
            "d(a), f",
            "d(r), f",
        ];
        let insts: Vec<Instance> = texts
            .iter()
            .map(|t| Instance::parse(s.clone(), t).unwrap())
            .collect();
        for (i, a) in insts.iter().enumerate() {
            for (j, b) in insts.iter().enumerate() {
                assert_eq!(
                    a.canon_key() == b.canon_key(),
                    a.iso_code() == b.iso_code(),
                    "canon_key disagrees with iso_code on {:?} vs {:?}",
                    texts[i],
                    texts[j],
                );
            }
        }
    }

    /// The spliced key of `inst` under `update` equals the applied
    /// successor's key, in both key modes and through one reused layout.
    fn assert_splices(layout: &mut KeyLayout, inst: &Instance, update: Update) {
        let mut next = inst.clone();
        match update {
            Update::Add { parent, edge } => {
                next.add_child(parent, edge).unwrap();
            }
            Update::Del { node } => next.remove_leaf(node).unwrap(),
        }
        let canon = next.canon_key();
        layout.build_canon(inst);
        let (fp, words) = layout.splice(inst, &update);
        assert_eq!(words, canon.words(), "canon {update} on {}", inst.to_text());
        assert_eq!(fp, canon.fingerprint());
        let ordered = next.ordered_key();
        layout.build_ordered(inst);
        let (fp, words) = layout.splice(inst, &update);
        assert_eq!(
            words,
            ordered.words(),
            "ordered {update} on {}",
            inst.to_text()
        );
        assert_eq!(fp, ordered.fingerprint());
    }

    /// Every addition along a schema edge and every leaf deletion.
    fn all_updates(inst: &Instance) -> Vec<Update> {
        let mut out = Vec::new();
        for n in inst.live_nodes() {
            for &edge in inst.schema().children(inst.schema_node(n)) {
                out.push(Update::Add { parent: n, edge });
            }
            if n != InstNodeId::ROOT && inst.is_leaf(n) {
                out.push(Update::Del { node: n });
            }
        }
        out
    }

    fn node(inst: &Instance, path: &[usize]) -> InstNodeId {
        path.iter()
            .fold(InstNodeId::ROOT, |n, &i| inst.children(n)[i])
    }

    #[test]
    fn splice_add_under_a_leaf() {
        let s = leave_schema();
        let inst = Instance::parse(s.clone(), "a(n, p), s").unwrap();
        let p = node(&inst, &[0, 1]);
        let edge = s.resolve("a/p/b").unwrap();
        assert_splices(
            &mut KeyLayout::default(),
            &inst,
            Update::Add { parent: p, edge },
        );
    }

    #[test]
    fn splice_add_to_the_empty_root() {
        let s = leave_schema();
        let inst = Instance::empty(s.clone());
        let mut layout = KeyLayout::default();
        for label in ["a", "s", "d", "f"] {
            let edge = s.resolve(label).unwrap();
            assert_splices(
                &mut layout,
                &inst,
                Update::Add {
                    parent: InstNodeId::ROOT,
                    edge,
                },
            );
        }
    }

    #[test]
    fn splice_delete_an_only_child() {
        let s = leave_schema();
        let mut layout = KeyLayout::default();
        // `p` becomes a leaf again.
        let inst = Instance::parse(s.clone(), "a(p(b), n), s").unwrap();
        assert_splices(
            &mut layout,
            &inst,
            Update::Del {
                node: node(&inst, &[0, 0, 0]),
            },
        );
        // The root's only child: the successor is the empty instance.
        let inst = Instance::parse(s, "f").unwrap();
        assert_splices(
            &mut layout,
            &inst,
            Update::Del {
                node: node(&inst, &[0]),
            },
        );
    }

    #[test]
    fn splice_among_identical_siblings() {
        let s = leave_schema();
        let inst = Instance::parse(s.clone(), "a(p(b), p(b), p(e), p(b)), a(p(b), p(b))").unwrap();
        let mut layout = KeyLayout::default();
        for u in all_updates(&inst) {
            assert_splices(&mut layout, &inst, u);
        }
    }

    #[test]
    fn splice_a_deep_spine() {
        let s = Arc::new(Schema::parse("a(b(c(d, e)), x), y").unwrap());
        let inst = Instance::parse(
            s.clone(),
            "a(b(c(d), c(e), c), b(c(d, d)), x), a(b(c(e))), a(b(c(d))), y",
        )
        .unwrap();
        let mut layout = KeyLayout::default();
        let d = node(&inst, &[0, 1, 0, 0]);
        assert_eq!(inst.label(d), "d");
        assert_splices(&mut layout, &inst, Update::Del { node: d });
        for u in all_updates(&inst) {
            assert_splices(&mut layout, &inst, u);
        }
    }

    /// Splicing stays exact after deletions leave dead slots behind.
    #[test]
    fn splice_over_tombstones() {
        let s = leave_schema();
        let mut inst = Instance::parse(s, "a(n, p(b, e), d), s, d(a, r(r))").unwrap();
        inst.remove_leaf(node(&inst, &[0, 1, 0])).unwrap();
        inst.remove_leaf(node(&inst, &[2, 0])).unwrap();
        let mut layout = KeyLayout::default();
        for u in all_updates(&inst) {
            assert_splices(&mut layout, &inst, u);
        }
    }
}
