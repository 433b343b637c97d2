//! The **out-of-core state store**: a compressed, spillable memory
//! hierarchy that bounds exploration scale by disk instead of RSS.
//!
//! The flat [`StateStore`](crate::store::StateStore) keeps every
//! instance, canonical word sequence, and provenance pointer resident —
//! ~0.5 KB per state on workflow-shaped instances, which caps searches
//! around 10⁶–10⁷ states on a normal box. This module replaces the
//! resident columns with a three-level hierarchy, with **zero semantic
//! change**: the explorer's BFS driver runs over either store, and on
//! this one
//! ([`Explorer::find_spilled`](crate::explore::Explorer::find_spilled))
//! visits the same states in the same order and returns the same
//! [`SearchStats`](crate::verdict::SearchStats) as on the flat in-RAM
//! store.
//!
//! 1. **Delta-encoded records.** A state's canonical words are stored as
//!    a varint diff against its BFS parent's words
//!    ([`idar_core::delta`]) — successive states differ by one leaf
//!    update, so most diffs are a few bytes. Every K states along a
//!    parent chain a full-word *checkpoint* is written instead, so
//!    decoding any state replays at most K deltas. The record also
//!    carries the BFS provenance (parent id + discovering update), so
//!    parent pointers and witness runs live on disk too, not in RAM.
//! 2. **A paged arena.** Records append into 64 KiB pages. Under a
//!    [`MemoryBudget`] the oldest sealed pages spill to an anonymous
//!    temp file (plain `File` pread/pwrite, std-only) and are faulted
//!    back through a small fixed LRU cache only when actually read.
//! 3. **A pinned hot set.** Decoded words of the *active frontier
//!    window* — the BFS layers `d−1, d, d+1` when layer `d` is being
//!    expanded — stay resident, because that is where almost every
//!    duplicate lands (a single update moves one layer up or down).
//!    Dedup buckets probe fingerprint-first and word-length-second, so a
//!    spilled record is only faulted in on a true 64-bit fingerprint
//!    match outside the hot window.
//!
//! **Frontier-only mode** goes further for deletion-free forms
//! ([`GuardedForm::is_deletion_free`](idar_core::GuardedForm::is_deletion_free)):
//! node counts grow monotonically along every run, so states at
//! different BFS depths can never be isomorphic, and the dedup index for
//! closed layers can be dropped outright — no arena, no records, no
//! provenance. The trade: `run_to` witnesses are unavailable (the mode
//! is for verdict kinds that never need them).
//!
//! What the budget does and does not bound: the [`MemoryBudget`] caps
//! the *arena-resident encoded bytes* (enforced after every append).
//! The hot window, the dedup bucket index (~25 B/state), and the
//! engine's frontier queue are pinned working state and scale with the
//! frontier width, not the explored total.

use crate::store::SymmetryMode;
use idar_core::delta::{self, read_varint, write_varint};
use idar_core::{CanonKey, InstNodeId, Instance, SchemaNodeId, Update};
use std::collections::{HashMap, VecDeque};
use std::fs::File;

/// A byte budget for the resident (non-spilled) part of the paged state
/// arena. [`MemoryBudget::unbounded`] (the default) keeps every page
/// hot; a bounded budget spills cold pages to a temp file.
///
/// The budget is deliberately **not** part of the verdict-cache key
/// ([`crate::analysis::Budget`] excludes it from `Hash`/`Eq`): spilling
/// changes where bytes live, never what the search visits or answers,
/// so budgeted and unbudgeted runs share cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemoryBudget {
    limit: Option<usize>,
}

impl MemoryBudget {
    /// No byte limit: the arena never spills.
    pub const fn unbounded() -> MemoryBudget {
        MemoryBudget { limit: None }
    }

    /// Cap arena-resident encoded bytes at `n`.
    pub const fn bytes(n: usize) -> MemoryBudget {
        MemoryBudget { limit: Some(n) }
    }

    /// Is a byte limit set?
    pub fn is_bounded(self) -> bool {
        self.limit.is_some()
    }

    /// The byte limit, if any.
    pub fn limit(self) -> Option<usize> {
        self.limit
    }
}

impl std::fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.limit {
            None => write!(f, "unbounded"),
            Some(n) => write!(f, "{n} B"),
        }
    }
}

/// What a capacity-engine run did memory-wise — the observability side
/// of the hierarchy, archived by the bench harness and surfaced in
/// server metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Distinct states interned.
    pub states: usize,
    /// Raw canonical-word bytes that passed through (`4 × word count`).
    pub word_bytes: u64,
    /// Encoded record bytes appended to the arena (0 in frontier-only
    /// mode, which stores no records at all).
    pub encoded_bytes: u64,
    /// Full-word checkpoint records among them.
    pub checkpoints: u64,
    /// Pages written out to the spill file.
    pub spilled_pages: u64,
    /// Bytes written out to the spill file.
    pub spilled_bytes: u64,
    /// Page faults: reads that had to go back to the spill file.
    pub faults: u64,
    /// Peak arena-resident bytes (what the [`MemoryBudget`] bounds).
    pub arena_peak_bytes: u64,
    /// Did the run drop closed-layer words entirely?
    pub frontier_only: bool,
}

// --- paged arena -------------------------------------------------------

const PAGE_SIZE: usize = 64 * 1024;
/// Pages kept decoded after a fault (fixed overhead, ≤ 1 MiB): chain
/// decodes revisit the same few pages, and evicting them instantly
/// would re-read one page per delta step.
const FAULT_CACHE_PAGES: usize = 16;

const CHECKPOINT_FLAG: u16 = 0x8000;
const LEN_MASK: u16 = 0x7fff;

/// Where one encoded record lives: page index, byte offset in the page,
/// record length (low 15 bits) plus the checkpoint flag (high bit).
/// 8 bytes of RAM per state — the only per-state arena bookkeeping.
#[derive(Debug, Clone, Copy)]
struct EncRec {
    page: u32,
    off: u16,
    lenflag: u16,
}

impl EncRec {
    #[inline]
    fn len(self) -> usize {
        (self.lenflag & LEN_MASK) as usize
    }

    #[inline]
    fn is_checkpoint(self) -> bool {
        self.lenflag & CHECKPOINT_FLAG != 0
    }
}

/// The anonymous spill file. On unix the path is unlinked immediately
/// after creation, so the file vanishes with the handle no matter how
/// the process exits; elsewhere it is removed on drop.
#[derive(Debug)]
struct SpillFile {
    file: File,
    #[cfg(not(unix))]
    path: std::path::PathBuf,
}

#[cfg(not(unix))]
impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn open_spill_file() -> SpillFile {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "idar-spill-{}-{}.bin",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .expect("create spill temp file");
    #[cfg(unix)]
    {
        let _ = std::fs::remove_file(&path);
        SpillFile { file }
    }
    #[cfg(not(unix))]
    {
        SpillFile { file, path }
    }
}

#[cfg(unix)]
fn pread(file: &File, offset: u64, buf: &mut [u8]) {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset).expect("spill file read");
}

#[cfg(unix)]
fn pwrite(file: &File, offset: u64, buf: &[u8]) {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset).expect("spill file write");
}

#[cfg(not(unix))]
fn pread(file: &File, offset: u64, buf: &mut [u8]) {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset)).expect("spill file seek");
    f.read_exact(buf).expect("spill file read");
}

#[cfg(not(unix))]
fn pwrite(file: &File, offset: u64, buf: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset)).expect("spill file seek");
    f.write_all(buf).expect("spill file write");
}

/// A sealed page: resident, or at an offset in the spill file.
#[derive(Debug)]
enum Slot {
    Hot(Box<[u8]>),
    Cold { offset: u64, len: u32 },
}

/// Append-only record arena over 64 KiB pages with file-backed spilling.
/// Single-writer (the capacity engine owns it).
#[derive(Debug, Default)]
struct PagedArena {
    sealed: Vec<Slot>,
    /// The page being filled; always resident.
    open: Vec<u8>,
    /// Total bytes across `Slot::Hot` sealed pages.
    hot_sealed_bytes: usize,
    /// Sealed pages below this index are cold (spill proceeds oldest
    /// first — old pages belong to closed BFS layers, read only on
    /// out-of-window duplicate confirms).
    next_to_spill: usize,
    file: Option<SpillFile>,
    file_len: u64,
    /// LRU of faulted-back pages, capped at [`FAULT_CACHE_PAGES`].
    cache: VecDeque<(u32, Box<[u8]>)>,
    spilled_pages: u64,
    spilled_bytes: u64,
    faults: u64,
}

impl PagedArena {
    /// Append a record, returning its `(page, offset)` address.
    fn append(&mut self, bytes: &[u8]) -> (u32, u16) {
        debug_assert!(bytes.len() <= LEN_MASK as usize);
        if !self.open.is_empty() && self.open.len() + bytes.len() > PAGE_SIZE {
            let sealed = std::mem::take(&mut self.open).into_boxed_slice();
            self.hot_sealed_bytes += sealed.len();
            self.sealed.push(Slot::Hot(sealed));
        }
        if self.open.capacity() == 0 {
            self.open.reserve(PAGE_SIZE);
        }
        let addr = (self.sealed.len() as u32, self.open.len() as u16);
        self.open.extend_from_slice(bytes);
        addr
    }

    /// Arena-resident bytes: the open page plus hot sealed pages. (The
    /// fixed-size fault cache is excluded — it is bounded overhead, not
    /// growth.)
    fn hot_bytes(&self) -> usize {
        self.open.len() + self.hot_sealed_bytes
    }

    /// Spill oldest sealed pages until resident bytes fit `limit` (or
    /// nothing sealed is left to spill; the open page never spills).
    fn enforce(&mut self, limit: usize) {
        while self.hot_bytes() > limit && self.next_to_spill < self.sealed.len() {
            let slot = &mut self.sealed[self.next_to_spill];
            if let Slot::Hot(bytes) = slot {
                let len = bytes.len();
                let offset = self.file_len;
                let file = &self.file.get_or_insert_with(open_spill_file).file;
                pwrite(file, offset, bytes);
                self.file_len += len as u64;
                self.hot_sealed_bytes -= len;
                self.spilled_pages += 1;
                self.spilled_bytes += len as u64;
                *slot = Slot::Cold {
                    offset,
                    len: len as u32,
                };
            }
            self.next_to_spill += 1;
        }
    }

    /// Read a record through the hierarchy: open page → hot sealed page
    /// → fault cache → spill file (counted as a fault).
    fn with_record<R>(&mut self, rec: EncRec, f: impl FnOnce(&[u8]) -> R) -> R {
        let (off, len) = (rec.off as usize, rec.len());
        if rec.page as usize == self.sealed.len() {
            return f(&self.open[off..off + len]);
        }
        let (offset, plen) = match &self.sealed[rec.page as usize] {
            Slot::Hot(bytes) => return f(&bytes[off..off + len]),
            Slot::Cold { offset, len } => (*offset, *len as usize),
        };
        if let Some(pos) = self.cache.iter().position(|(p, _)| *p == rec.page) {
            let entry = self.cache.remove(pos).expect("position in bounds");
            self.cache.push_back(entry);
        } else {
            self.faults += 1;
            let mut buf = vec![0u8; plen];
            let file = &self
                .file
                .as_ref()
                .expect("cold page implies spill file")
                .file;
            pread(file, offset, &mut buf);
            if self.cache.len() >= FAULT_CACHE_PAGES {
                self.cache.pop_front();
            }
            self.cache.push_back((rec.page, buf.into_boxed_slice()));
        }
        let page = &self.cache.back().expect("just pushed").1;
        f(&page[off..off + len])
    }
}

// --- record header (provenance) ----------------------------------------

/// Append the provenance header: `parent_id + 1` (0 for the root), then
/// the discovering update (tag + fields) when there is a parent.
fn write_header(out: &mut Vec<u8>, parent: Option<(u32, Update)>) {
    match parent {
        None => write_varint(out, 0),
        Some((p, u)) => {
            write_varint(out, p + 1);
            match u {
                Update::Add { parent, edge } => {
                    write_varint(out, 0);
                    write_varint(out, parent.0);
                    write_varint(out, edge.0);
                }
                Update::Del { node } => {
                    write_varint(out, 1);
                    write_varint(out, node.0);
                }
            }
        }
    }
}

/// Parse the provenance header; returns the BFS tree edge and the byte
/// length of the header (the word record starts right after).
fn parse_header(bytes: &[u8]) -> (Option<(u32, Update)>, usize) {
    let mut pos = 0;
    let pp1 = read_varint(bytes, &mut pos);
    if pp1 == 0 {
        return (None, pos);
    }
    let tag = read_varint(bytes, &mut pos);
    let u = if tag == 0 {
        Update::Add {
            parent: InstNodeId(read_varint(bytes, &mut pos)),
            edge: SchemaNodeId(read_varint(bytes, &mut pos)),
        }
    } else {
        Update::Del {
            node: InstNodeId(read_varint(bytes, &mut pos)),
        }
    };
    (Some((pp1 - 1, u)), pos)
}

// --- the spillable store ----------------------------------------------

/// Full-word checkpoint period K: decoding any state replays at most
/// K−1 deltas from the nearest checkpoint ancestor.
const CHECKPOINT_EVERY: u8 = 8;

/// One fingerprint bucket. The overwhelmingly common singleton case is
/// inline — no per-state `Vec` allocation.
#[derive(Debug)]
enum SpillBucket {
    One(u32),
    Many(Vec<u32>),
}

/// The spillable, delta-compressed state store the capacity engine runs
/// on. Ids are dense `u32`s in discovery order (the BFS invariant the
/// hot-window arithmetic relies on). See the module docs
/// for the hierarchy.
#[derive(Debug)]
pub(crate) struct SpillStore {
    symmetry: SymmetryMode,
    budget: MemoryBudget,
    frontier_only: bool,
    arena: PagedArena,
    buckets: HashMap<u64, SpillBucket>,
    /// Record address per state (empty in frontier-only mode).
    recs: Vec<EncRec>,
    /// Delta-chain distance from the nearest checkpoint (empty in
    /// frontier-only mode).
    dists: Vec<u8>,
    /// Word count per state, saturated to `u16::MAX` — the cheap probe
    /// prefilter (unequal lengths can never be equal words).
    wlens: Vec<u16>,
    /// Decoded words of the hot window `[hot_base, count)`: the layers
    /// `d−1, d, d+1` while layer `d` expands.
    hot: VecDeque<Box<[u32]>>,
    hot_base: u32,
    /// First state id of each BFS depth (discovery order makes layers
    /// contiguous id ranges).
    layer_start: Vec<u32>,
    count: u32,
    collisions: u64,
    word_bytes: u64,
    encoded_bytes: u64,
    checkpoints: u64,
    arena_peak: u64,
    enc_buf: Vec<u8>,
}

impl SpillStore {
    pub fn new(symmetry: SymmetryMode, budget: MemoryBudget, frontier_only: bool) -> SpillStore {
        SpillStore {
            symmetry,
            budget,
            frontier_only,
            arena: PagedArena::default(),
            buckets: HashMap::new(),
            recs: Vec::new(),
            dists: Vec::new(),
            wlens: Vec::new(),
            hot: VecDeque::new(),
            hot_base: 0,
            layer_start: Vec::new(),
            count: 0,
            collisions: 0,
            word_bytes: 0,
            encoded_bytes: 0,
            checkpoints: 0,
            arena_peak: 0,
            enc_buf: Vec::new(),
        }
    }

    /// The store's symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// The dedup key of an instance under this store's symmetry mode.
    pub fn key_of(&self, inst: &Instance) -> CanonKey {
        match self.symmetry {
            SymmetryMode::Reduced => inst.canon_key(),
            SymmetryMode::Plain => inst.ordered_key(),
        }
    }

    /// Detected 64-bit fingerprint collisions.
    #[cfg(test)]
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Advance the hot window when the engine starts expanding BFS layer
    /// `depth`: drop decoded words below layer `depth − 1` (duplicate
    /// confirms of a layer-`depth` expansion can land one layer down at
    /// the deepest — a single deletion). In frontier-only mode also drop
    /// the whole dedup index: on a deletion-free form, successors (layer
    /// `depth + 1`) can only collide with each other.
    pub fn begin_layer(&mut self, depth: u32) {
        if depth == 0 {
            return;
        }
        let keep_from = self
            .layer_start
            .get((depth - 1) as usize)
            .copied()
            .unwrap_or(self.hot_base);
        while self.hot_base < keep_from {
            self.hot.pop_front();
            self.hot_base += 1;
        }
        if self.frontier_only {
            self.buckets.clear();
        }
    }

    /// Intern a state by its dedup key `(fingerprint, words)`: return its
    /// dense id and whether it was new. `parent` is the discovering BFS
    /// tree edge (`None` only for the root); `depth` its BFS depth. The
    /// parent must still be in the hot window (true for every BFS
    /// expansion). The words are copied only when the state is new.
    pub fn intern(
        &mut self,
        fp: u64,
        words: &[u32],
        parent: Option<(u32, Update)>,
        depth: u32,
    ) -> (u32, bool) {
        let wlen = words.len().min(u16::MAX as usize) as u16;
        // Fingerprint-first probe: touch words — possibly faulting a
        // spilled page — only on a full 64-bit match that also passes
        // the length prefilter.
        let mut had_candidates = false;
        let probe: Option<Result<u32, Vec<u32>>> = self.buckets.get(&fp).map(|b| match b {
            SpillBucket::One(id) => Ok(*id),
            SpillBucket::Many(ids) => Err(ids.clone()),
        });
        if let Some(probe) = probe {
            let one;
            let cands: &[u32] = match &probe {
                Ok(id) => {
                    one = [*id];
                    &one
                }
                Err(ids) => ids,
            };
            for &cand in cands {
                had_candidates = true;
                if self.wlens[cand as usize] != wlen {
                    continue;
                }
                if self.words_equal(cand, words) {
                    return (cand, false);
                }
            }
        }
        if had_candidates {
            self.collisions += 1;
        }

        let id = self.count;
        self.count += 1;
        if depth as usize == self.layer_start.len() {
            self.layer_start.push(id);
        }
        self.wlens.push(wlen);
        self.word_bytes += 4 * words.len() as u64;

        if !self.frontier_only {
            let dist = match parent {
                Some((p, _)) => self.dists[p as usize].saturating_add(1),
                None => CHECKPOINT_EVERY,
            };
            let checkpoint = dist >= CHECKPOINT_EVERY;
            let mut enc = std::mem::take(&mut self.enc_buf);
            enc.clear();
            write_header(&mut enc, parent);
            if checkpoint {
                delta::encode_full(words, &mut enc);
            } else {
                let (p, _) = parent.expect("non-checkpoint state has a parent");
                debug_assert!(p >= self.hot_base, "delta base parent must be hot");
                let base = &self.hot[(p - self.hot_base) as usize];
                delta::encode_delta(base, words, &mut enc);
            }
            assert!(
                enc.len() <= LEN_MASK as usize,
                "state encoding too large for the paged arena (max_state_size too big?)"
            );
            let (page, off) = self.arena.append(&enc);
            self.recs.push(EncRec {
                page,
                off,
                lenflag: enc.len() as u16 | if checkpoint { CHECKPOINT_FLAG } else { 0 },
            });
            self.dists.push(if checkpoint { 0 } else { dist });
            self.encoded_bytes += enc.len() as u64;
            if checkpoint {
                self.checkpoints += 1;
            }
            self.enc_buf = enc;
            if let Some(limit) = self.budget.limit() {
                self.arena.enforce(limit);
            }
            self.arena_peak = self.arena_peak.max(self.arena.hot_bytes() as u64);
        }

        self.hot.push_back(words.into());
        match self.buckets.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut e) => match e.get_mut() {
                SpillBucket::One(a) => {
                    let a = *a;
                    *e.get_mut() = SpillBucket::Many(vec![a, id]);
                }
                SpillBucket::Many(v) => v.push(id),
            },
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SpillBucket::One(id));
            }
        }
        (id, true)
    }

    /// Are state `id`'s words equal to `words`? Hot-window states
    /// compare against pinned decoded words; older states decode their
    /// delta chain (the only path that can fault spilled pages).
    fn words_equal(&mut self, id: u32, words: &[u32]) -> bool {
        if id >= self.hot_base {
            return *self.hot[(id - self.hot_base) as usize] == *words;
        }
        debug_assert!(
            !self.frontier_only,
            "frontier-only buckets never hold out-of-window states"
        );
        self.decode_words(id) == words
    }

    /// Decode state `id`'s words: walk the BFS parent chain to the
    /// nearest checkpoint (≤ K−1 steps), then replay deltas forward.
    fn decode_words(&mut self, id: u32) -> Vec<u32> {
        let mut chain = vec![id];
        while !self.recs[*chain.last().expect("non-empty") as usize].is_checkpoint() {
            let rec = self.recs[*chain.last().expect("non-empty") as usize];
            let parent = self
                .arena
                .with_record(rec, |b| parse_header(b).0)
                .expect("non-checkpoint record has a parent")
                .0;
            chain.push(parent);
        }
        let cp = chain.pop().expect("chain ends at a checkpoint");
        let mut cur: Vec<u32> = Vec::new();
        let rec = self.recs[cp as usize];
        self.arena.with_record(rec, |b| {
            let (_, hdr) = parse_header(b);
            delta::decode_full(&b[hdr..], &mut cur);
        });
        let mut nxt: Vec<u32> = Vec::new();
        for &i in chain.iter().rev() {
            let rec = self.recs[i as usize];
            nxt.clear();
            let base = &cur;
            self.arena.with_record(rec, |b| {
                let (_, hdr) = parse_header(b);
                delta::decode_delta(base, &b[hdr..], &mut nxt);
            });
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur
    }

    /// Reconstruct the update sequence from the root to `id` out of the
    /// on-record provenance (replayable via `GuardedForm::replay`).
    /// `None` in frontier-only mode, which stores no provenance.
    pub fn run_to(&mut self, id: u32) -> Option<Vec<Update>> {
        if self.frontier_only {
            return None;
        }
        let mut rev = Vec::new();
        let mut i = id;
        loop {
            let rec = self.recs[i as usize];
            match self.arena.with_record(rec, |b| parse_header(b).0) {
                Some((p, u)) => {
                    rev.push(u);
                    i = p;
                }
                None => break,
            }
        }
        rev.reverse();
        Some(rev)
    }

    /// The run's memory-hierarchy accounting.
    pub fn report(&self) -> SpillReport {
        SpillReport {
            states: self.count as usize,
            word_bytes: self.word_bytes,
            encoded_bytes: self.encoded_bytes,
            checkpoints: self.checkpoints,
            spilled_pages: self.arena.spilled_pages,
            spilled_bytes: self.arena.spilled_bytes,
            faults: self.arena.faults,
            arena_peak_bytes: self.arena_peak,
            frontier_only: self.frontier_only,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::Schema;
    use std::sync::Arc;

    fn intern_inst(
        store: &mut SpillStore,
        inst: &Instance,
        parent: Option<(u32, Update)>,
        depth: u32,
    ) -> (u32, bool) {
        let key = store.key_of(inst);
        store.intern(key.fingerprint(), key.words(), parent, depth)
    }

    #[test]
    fn arena_append_read_spill_round_trip() {
        let mut arena = PagedArena::default();
        let records: Vec<Vec<u8>> = (0..2000u32)
            .map(|i| {
                (0..50)
                    .map(|j| (i.wrapping_mul(31).wrapping_add(j)) as u8)
                    .collect()
            })
            .collect();
        let recs: Vec<EncRec> = records
            .iter()
            .map(|r| {
                let (page, off) = arena.append(r);
                EncRec {
                    page,
                    off,
                    lenflag: r.len() as u16,
                }
            })
            .collect();
        // ~100 KB over two-ish pages; force everything sealed to spill.
        arena.enforce(0);
        assert!(arena.spilled_pages > 0);
        assert!(arena.hot_bytes() < PAGE_SIZE + 1);
        for (rec, expect) in recs.iter().zip(&records) {
            arena.with_record(*rec, |b| assert_eq!(b, &expect[..]));
        }
        assert!(arena.faults > 0);
        // Second sweep hits the fault cache for at least some pages.
        let faults_after_first = arena.faults;
        for (rec, expect) in recs.iter().zip(&records).take(10) {
            arena.with_record(*rec, |b| assert_eq!(b, &expect[..]));
        }
        assert_eq!(arena.faults, faults_after_first);
    }

    #[test]
    fn header_round_trips() {
        let cases = [
            None,
            Some((
                0,
                Update::Add {
                    parent: InstNodeId(7),
                    edge: SchemaNodeId(3),
                },
            )),
            Some((
                123_456,
                Update::Del {
                    node: InstNodeId(42),
                },
            )),
        ];
        for parent in cases {
            let mut out = Vec::new();
            write_header(&mut out, parent);
            let (parsed, len) = parse_header(&out);
            assert_eq!(parsed, parent);
            assert_eq!(len, out.len());
        }
    }

    /// BFS-shaped interning: dedup agrees with the flat store's
    /// semantics, run_to replays provenance, and cold (out-of-window)
    /// duplicate confirms decode through the spill file.
    #[test]
    fn spill_store_dedups_and_replays_cold() {
        let schema = Arc::new(Schema::parse("a(b), s").unwrap());
        let a = schema.resolve("a").unwrap();
        let b = schema.resolve("a/b").unwrap();
        let s = schema.resolve("s").unwrap();
        // A long chain of instances, each one update apart: checkpoint
        // records grow with the instance, so the arena seals (and, at
        // budget 0, spills) multiple pages.
        const CHAIN: usize = 1500;
        let mut store = SpillStore::new(SymmetryMode::Reduced, MemoryBudget::bytes(0), false);
        let mut cur = Instance::empty(schema.clone());
        let (root_id, _) = intern_inst(&mut store, &cur, None, 0);
        let mut updates: Vec<Update> = Vec::new();
        let an = cur.add_child(InstNodeId::ROOT, a).unwrap();
        updates.push(Update::Add {
            parent: InstNodeId::ROOT,
            edge: a,
        });
        let mut prev = root_id;
        let mut probe = None;
        for k in 0..CHAIN {
            if k > 0 {
                let edge = if k % 3 == 2 { s } else { b };
                let parent = if edge == s { InstNodeId::ROOT } else { an };
                cur.add_child(parent, edge).unwrap();
                updates.push(Update::Add { parent, edge });
            }
            let (id, new) = intern_inst(&mut store, &cur, Some((prev, updates[k])), k as u32 + 1);
            assert!(new, "chain states are distinct");
            assert_eq!(id, k as u32 + 1);
            prev = id;
            if id == 3 {
                probe = Some(cur.clone());
            }
        }
        // Provenance replays from on-record headers.
        assert_eq!(store.run_to(prev), Some(updates.clone()));
        let spilled_before = store.report().spilled_pages;
        assert!(spilled_before > 0, "budget 0 spills sealed pages");
        // Push the hot window far past the chain, then re-intern an old
        // state: the confirm must decode its delta chain from the
        // (budget-0, fully spilled) arena.
        for d in store.count..store.count + 4 {
            store.layer_start.push(store.count);
            // simulate empty deeper layers so begin_layer advances
            store.begin_layer(d);
        }
        assert_eq!(store.hot_base, store.count);
        let probe = probe.expect("state 3 captured");
        let (id, new) = intern_inst(&mut store, &probe, Some((0, updates[0])), 3);
        assert!(!new, "old state is found through the cold path");
        assert_eq!(id, 3);
        assert!(store.report().faults > 0, "cold confirm faulted pages in");
        assert_eq!(store.collisions(), 0);
    }

    /// Frontier-only mode drops closed layers: no arena bytes, no
    /// provenance, and per-layer dedup still catches within-layer
    /// duplicates.
    #[test]
    fn frontier_only_keeps_no_records() {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let a = schema.resolve("a").unwrap();
        let b = schema.resolve("b").unwrap();
        let root = Instance::empty(schema.clone());
        let mut ia = root.clone();
        ia.add_child(InstNodeId::ROOT, a).unwrap();
        let mut ib = root.clone();
        ib.add_child(InstNodeId::ROOT, b).unwrap();
        let mut iab = ia.clone();
        iab.add_child(InstNodeId::ROOT, b).unwrap();
        let mut iba = ib.clone();
        iba.add_child(InstNodeId::ROOT, a).unwrap();

        let mut store = SpillStore::new(SymmetryMode::Reduced, MemoryBudget::unbounded(), true);
        let ua = Update::Add {
            parent: InstNodeId::ROOT,
            edge: a,
        };
        let ub = Update::Add {
            parent: InstNodeId::ROOT,
            edge: b,
        };
        let (r, _) = intern_inst(&mut store, &root, None, 0);
        let (x, _) = intern_inst(&mut store, &ia, Some((r, ua)), 1);
        let (y, _) = intern_inst(&mut store, &ib, Some((r, ub)), 1);
        assert_ne!(x, y);
        store.begin_layer(1);
        let (z, new_z) = intern_inst(&mut store, &iab, Some((x, ub)), 2);
        assert!(new_z);
        // {a,b} discovered again via the other parent: within-layer dedup.
        let (z2, new_z2) = intern_inst(&mut store, &iba, Some((y, ua)), 2);
        assert_eq!((z2, new_z2), (z, false));
        let report = store.report();
        assert_eq!(report.encoded_bytes, 0);
        assert_eq!(report.checkpoints, 0);
        assert!(report.frontier_only);
        assert_eq!(store.run_to(z), None);
    }
}
