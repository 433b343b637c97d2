//! The **record store**: the compressed, spillable memory hierarchy
//! under every state store, which bounds exploration scale by disk
//! instead of RSS.
//!
//! Goal searches ([`Explorer::find`](crate::explore::Explorer::find) and
//! [`Explorer::find_spilled`](crate::explore::Explorer::find_spilled))
//! run on it alone, keeping instances only in the BFS queue
//! (`subset_lattice(16)` peaks at about 240 bytes per state); the
//! [`StateStore`](crate::store::StateStore) of graph builds is this
//! store plus each state's instance and depth. Interning, lookup and
//! witness runs exist here once. The hierarchy makes **zero semantic
//! change**: the BFS driver visits the same states in the same order and
//! returns the same [`SearchStats`](crate::verdict::SearchStats) on
//! every store. Its two tiers — every page in RAM under the default,
//! unbounded [`MemoryBudget`], or cold pages spilled under a bounded
//! one — differ only in where bytes live.
//!
//! 1. **Delta-encoded records.** A state's canonical words are stored as
//!    a varint diff against its BFS parent's words
//!    ([`idar_core::delta`]) — successive states differ by one leaf
//!    update, so most diffs are a few bytes. Every K states along a
//!    parent chain a full-word *checkpoint* is written instead, so
//!    decoding any state replays at most K deltas; so is a successor
//!    whose parent has left the hot window (a resume interns successors
//!    of any retained state). The record also carries the BFS
//!    provenance (parent id + discovering update), so parent pointers
//!    and witness runs live on disk too, not in RAM.
//! 2. **A paged arena.** Records append into 64 KiB pages; a record
//!    too long for its address's 15-bit length field (a state of tens
//!    of thousands of words) is sealed in a page of its own. Under a
//!    [`MemoryBudget`] the oldest sealed pages spill to an anonymous
//!    temp file (plain `File` pread/pwrite, std-only) and are faulted
//!    back through a small fixed LRU cache only when actually read.
//! 3. **A pinned hot set.** Decoded words of the *active frontier
//!    window* — the BFS layers `d−1, d, d+1` when layer `d` is being
//!    expanded — stay resident, because that is where almost every
//!    duplicate lands (a single update moves one layer up or down).
//!    States interned out of BFS order (a resume's) join the window's
//!    end; the window only ever advances, and a resume empties it when
//!    it ends. The dedup index is
//!    [`FingerprintIndex`](crate::store), a 4-byte id slot per
//!    fingerprint: it probes fingerprint-first, and this store adds a
//!    word-length prefilter, so a spilled record is only faulted in on a
//!    true 64-bit fingerprint match outside the hot window.
//!
//! What the budget does and does not bound: the [`MemoryBudget`] caps
//! the *arena-resident encoded bytes* (enforced after every append).
//! The hot window and the engine's frontier queue scale with the
//! frontier width, the dedup index (a 16-byte hash-table slot per
//! fingerprint) with the explored total; both are pinned working state
//! outside the budget.

use crate::store::{FingerprintIndex, StateId, SymmetryMode};
use idar_core::delta::{self, read_varint, write_varint};
use idar_core::{InstNodeId, SchemaNodeId, Update};
use std::collections::VecDeque;
use std::fs::File;

/// A byte budget for the resident (non-spilled) part of the paged state
/// arena of [`Explorer::find`](crate::explore::Explorer::find) and
/// [`Explorer::find_spilled`](crate::explore::Explorer::find_spilled).
/// [`MemoryBudget::unbounded`] (the default) keeps every page hot; a
/// bounded budget spills cold pages to a temp file. Spilling changes
/// where bytes live, never what the search visits or answers.
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

    /// The byte limit, if any.
    pub fn limit(self) -> Option<usize> {
        self.limit
    }
}

/// What a goal search did memory-wise — the observability side
/// of the hierarchy, which the bench harness reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Distinct states interned.
    pub states: usize,
    /// Raw canonical-word bytes that passed through (`4 × word count`).
    pub word_bytes: u64,
    /// Encoded record bytes appended to the arena.
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
}

// --- paged arena -------------------------------------------------------

const PAGE_SIZE: usize = 64 * 1024;
/// Pages kept decoded after a fault (fixed overhead, ≤ 1 MiB): chain
/// decodes revisit the same few pages, and evicting them instantly
/// would re-read one page per delta step.
const FAULT_CACHE_PAGES: usize = 16;

const CHECKPOINT_FLAG: u16 = 0x8000;
const LEN_MASK: u16 = 0x7fff;
/// The length field of a record that fills a page of its own: records
/// of this length or longer get a page each, so the address carries no
/// length and the page's own length bounds the record.
const WHOLE_PAGE: u16 = LEN_MASK;

/// Where one encoded record lives: page index, byte offset in the page,
/// record length (low 15 bits, [`WHOLE_PAGE`] for an oversized record)
/// plus the checkpoint flag (high bit). 8 bytes of RAM per state — the
/// only per-state arena bookkeeping.
#[derive(Debug, Clone, Copy)]
struct EncRec {
    page: u32,
    off: u16,
    lenflag: u16,
}

impl EncRec {
    #[inline]
    fn is_checkpoint(self) -> bool {
        self.lenflag & CHECKPOINT_FLAG != 0
    }

    /// This record's bytes within its page.
    #[inline]
    fn slice(self, page: &[u8]) -> &[u8] {
        let off = self.off as usize;
        match self.lenflag & LEN_MASK {
            WHOLE_PAGE => &page[off..],
            len => &page[off..off + len as usize],
        }
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
/// Single-writer (the record store owns it).
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
    /// Append a record, returning its address. A record too long for
    /// the length field is sealed in a page of its own.
    fn append(&mut self, bytes: &[u8], checkpoint: bool) -> EncRec {
        let flag = if checkpoint { CHECKPOINT_FLAG } else { 0 };
        let oversized = bytes.len() >= WHOLE_PAGE as usize;
        if !self.open.is_empty() && (oversized || self.open.len() + bytes.len() > PAGE_SIZE) {
            let full = std::mem::take(&mut self.open).into_boxed_slice();
            self.seal(full);
        }
        let page = self.sealed.len() as u32;
        if oversized {
            self.seal(bytes.into());
            return EncRec {
                page,
                off: 0,
                lenflag: WHOLE_PAGE | flag,
            };
        }
        // Pages after the first are reserved whole; a store that never
        // fills one (a small session graph) keeps only what it uses.
        if self.open.capacity() == 0 && !self.sealed.is_empty() {
            self.open.reserve(PAGE_SIZE);
        }
        let off = self.open.len() as u16;
        self.open.extend_from_slice(bytes);
        EncRec {
            page,
            off,
            lenflag: bytes.len() as u16 | flag,
        }
    }

    fn seal(&mut self, page: Box<[u8]>) {
        self.hot_sealed_bytes += page.len();
        self.sealed.push(Slot::Hot(page));
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
        if rec.page as usize == self.sealed.len() {
            return f(rec.slice(&self.open));
        }
        let (offset, len) = match &self.sealed[rec.page as usize] {
            Slot::Hot(bytes) => return f(rec.slice(bytes)),
            Slot::Cold { offset, len } => (*offset, *len),
        };
        if let Some(pos) = self.cache.iter().position(|(p, _)| *p == rec.page) {
            let entry = self.cache.remove(pos).expect("position in bounds");
            self.cache.push_back(entry);
        } else {
            self.faults += 1;
            let mut buf = vec![0u8; len as usize];
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
        f(rec.slice(page))
    }

    /// Decode the words of state `id`, whose record address is
    /// `recs[id]`: walk the BFS parent chain to the nearest checkpoint
    /// (≤ K−1 steps), then replay deltas forward.
    fn decode_words(&mut self, recs: &[EncRec], id: u32) -> Vec<u32> {
        let mut chain = vec![id];
        while !recs[*chain.last().expect("non-empty") as usize].is_checkpoint() {
            let rec = recs[*chain.last().expect("non-empty") as usize];
            let parent = self
                .with_record(rec, |b| parse_header(b).0)
                .expect("non-checkpoint record has a parent")
                .0;
            chain.push(parent);
        }
        let cp = chain.pop().expect("chain ends at a checkpoint");
        let mut cur: Vec<u32> = Vec::new();
        self.with_record(recs[cp as usize], |b| {
            let (_, hdr) = parse_header(b);
            delta::decode_full(&b[hdr..], &mut cur);
        });
        let mut nxt: Vec<u32> = Vec::new();
        for &i in chain.iter().rev() {
            nxt.clear();
            let base = &cur;
            self.with_record(recs[i as usize], |b| {
                let (_, hdr) = parse_header(b);
                delta::decode_delta(base, &b[hdr..], &mut nxt);
            });
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur
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

// --- the record store --------------------------------------------------

/// Full-word checkpoint period K: decoding any state replays at most
/// K−1 deltas from the nearest checkpoint ancestor.
const CHECKPOINT_EVERY: u8 = 8;

/// What a probe compares a candidate's words against.
#[derive(Debug, Default)]
struct Records {
    arena: PagedArena,
    /// Record address per state.
    recs: Vec<EncRec>,
    /// Word count per state, saturated to `u16::MAX` — the cheap probe
    /// prefilter (unequal lengths can never be equal words).
    wlens: Vec<u16>,
    /// Decoded words of the hot window `[hot_base, len)`: in a BFS, the
    /// layers `d−1, d, d+1` while layer `d` expands.
    hot: VecDeque<Box<[u32]>>,
    hot_base: u32,
}

impl Records {
    /// Are `words` the words of state `id`? Past the length prefilter, a
    /// hot state compares its pinned words, an older one decodes them.
    #[inline]
    fn hold(&mut self, id: StateId, words: &[u32]) -> bool {
        self.wlens[id.index()] == saturated_len(words)
            && match self.hot_words(id.0) {
                Some(hot) => hot == words,
                None => self.arena.decode_words(&self.recs, id.0) == words,
            }
    }

    /// The pinned words of state `id`, if it is in the hot window.
    #[inline]
    fn hot_words(&self, id: u32) -> Option<&[u32]> {
        let k = id.checked_sub(self.hot_base)?;
        Some(&self.hot[k as usize][..])
    }
}

fn saturated_len(words: &[u32]) -> u16 {
    words.len().min(u16::MAX as usize) as u16
}

/// The spillable, delta-compressed record store under every search. Ids
/// are dense in interning order. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct SpillStore {
    symmetry: SymmetryMode,
    budget: MemoryBudget,
    index: FingerprintIndex,
    records: Records,
    /// Delta-chain distance from the nearest checkpoint.
    dists: Vec<u8>,
    /// First state id of each BFS depth.
    layer_start: Vec<u32>,
    word_bytes: u64,
    encoded_bytes: u64,
    checkpoints: u64,
    arena_peak: u64,
    enc_buf: Vec<u8>,
}

impl SpillStore {
    pub fn new(symmetry: SymmetryMode, budget: MemoryBudget) -> SpillStore {
        SpillStore {
            symmetry,
            budget,
            ..SpillStore::default()
        }
    }

    /// The store's symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.records.recs.len()
    }

    /// Detected 64-bit fingerprint collisions.
    pub fn collisions(&self) -> u64 {
        self.index.collisions()
    }

    /// The dedup index.
    #[cfg(test)]
    pub(crate) fn index(&self) -> &FingerprintIndex {
        &self.index
    }

    /// The first id of the hot window.
    #[cfg(test)]
    pub(crate) fn hot_base(&self) -> u32 {
        self.records.hot_base
    }

    /// Advance the hot window when the engine starts expanding BFS layer
    /// `depth`: drop decoded words below layer `depth − 1` (duplicate
    /// confirms of a layer-`depth` expansion can land one layer down at
    /// the deepest — a single deletion).
    pub fn begin_layer(&mut self, depth: u32) {
        if depth == 0 {
            return;
        }
        let r = &mut self.records;
        let keep_from = self.layer_start.get(depth as usize - 1).copied();
        while keep_from.is_some_and(|k| r.hot_base < k) {
            r.hot.pop_front();
            r.hot_base += 1;
        }
    }

    /// Empty the hot window, so no state keeps its words twice: a resume
    /// calls this when it ends, as no layer of it ever leaves the window.
    pub fn cool(&mut self) {
        let r = &mut self.records;
        r.hot_base += r.hot.len() as u32;
        r.hot = VecDeque::new();
    }

    /// The stored id of the state with dedup key `(fp, words)`, if any.
    pub fn find(&mut self, fp: u64, words: &[u32]) -> Option<StateId> {
        let records = &mut self.records;
        self.index.find(fp, |cand| records.hold(cand, words))
    }

    /// Intern a state by its dedup key `(fingerprint, words)`: return its
    /// dense id and whether it was new. `parent` is the discovering BFS
    /// tree edge (`None` for a root); `depth` its BFS depth, at most one
    /// past the deepest so far. The words are copied only when the state
    /// is new, as a delta against its parent's hot words or else (a root,
    /// every K-th state down a chain, a resume's successor of a cold
    /// parent) as a full-word checkpoint.
    pub fn intern(
        &mut self,
        fp: u64,
        words: &[u32],
        parent: Option<(StateId, Update)>,
        depth: u32,
    ) -> (StateId, bool) {
        let next = StateId(self.len() as u32);
        let records = &mut self.records;
        let (id, is_new) = self
            .index
            .intern(fp, next, |cand| records.hold(cand, words));
        if !is_new {
            return (id, false);
        }

        if depth as usize == self.layer_start.len() {
            self.layer_start.push(id.0);
        }
        self.word_bytes += 4 * words.len() as u64;

        let parent = parent.map(|(p, u)| (p.0, u));
        let dist = match parent {
            Some((p, _)) => self.dists[p as usize].saturating_add(1),
            None => CHECKPOINT_EVERY,
        };
        let base = match parent {
            Some((p, _)) if dist < CHECKPOINT_EVERY => self.records.hot_words(p),
            _ => None,
        };
        let checkpoint = base.is_none();
        let mut enc = std::mem::take(&mut self.enc_buf);
        enc.clear();
        write_header(&mut enc, parent);
        match base {
            Some(base) => delta::encode_delta(base, words, &mut enc),
            None => delta::encode_full(words, &mut enc),
        }
        let records = &mut self.records;
        records.recs.push(records.arena.append(&enc, checkpoint));
        records.wlens.push(saturated_len(words));
        self.dists.push(if checkpoint { 0 } else { dist });
        self.encoded_bytes += enc.len() as u64;
        if checkpoint {
            self.checkpoints += 1;
        }
        self.enc_buf = enc;
        if let Some(limit) = self.budget.limit() {
            records.arena.enforce(limit);
        }
        self.arena_peak = self.arena_peak.max(records.arena.hot_bytes() as u64);

        records.hot.push_back(words.into());
        (id, true)
    }

    /// Reconstruct the update sequence from the root to `id` out of the
    /// on-record provenance (replayable via `GuardedForm::replay`).
    pub fn run_to(&mut self, id: StateId) -> Vec<Update> {
        let Records { arena, recs, .. } = &mut self.records;
        let mut rev = Vec::new();
        let mut i = id.0;
        while let Some((p, u)) = arena.with_record(recs[i as usize], |b| parse_header(b).0) {
            rev.push(u);
            i = p;
        }
        rev.reverse();
        rev
    }

    /// Approximate resident bytes of an in-RAM store: the dedup index,
    /// the arena's pages, the per-state columns and the hot window, each
    /// column counted by its capacity.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let r = &self.records;
        let hot: usize = r.hot.iter().map(|w| size_of_val(&**w)).sum();
        self.index.approx_bytes()
            + r.arena.open.capacity()
            + r.arena.hot_sealed_bytes
            + r.recs.capacity() * size_of::<EncRec>()
            + r.wlens.capacity() * size_of::<u16>()
            + r.hot.capacity() * size_of::<Box<[u32]>>()
            + hot
            + self.dists.capacity() * size_of::<u8>()
            + self.layer_start.capacity() * size_of::<u32>()
            + self.enc_buf.capacity()
    }

    /// The run's memory-hierarchy accounting.
    pub fn report(&self) -> SpillReport {
        SpillReport {
            states: self.len(),
            word_bytes: self.word_bytes,
            encoded_bytes: self.encoded_bytes,
            checkpoints: self.checkpoints,
            spilled_pages: self.records.arena.spilled_pages,
            spilled_bytes: self.records.arena.spilled_bytes,
            faults: self.records.arena.faults,
            arena_peak_bytes: self.arena_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{Instance, Schema};
    use std::sync::Arc;

    fn intern_inst(
        store: &mut SpillStore,
        inst: &Instance,
        parent: Option<(StateId, Update)>,
        depth: u32,
    ) -> (StateId, bool) {
        let key = (store.symmetry().keying().0)(inst);
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
        let recs: Vec<EncRec> = records.iter().map(|r| arena.append(r, false)).collect();
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
        let mut store = SpillStore::new(SymmetryMode::Reduced, MemoryBudget::bytes(0));
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
            assert_eq!(id, StateId(k as u32 + 1));
            prev = id;
            if id == StateId(3) {
                probe = Some(cur.clone());
            }
        }
        // Provenance replays from on-record headers.
        assert_eq!(store.run_to(prev), updates);
        let spilled_before = store.report().spilled_pages;
        assert!(spilled_before > 0, "budget 0 spills sealed pages");
        // Push the hot window far past the chain, then re-intern an old
        // state: the confirm must decode its delta chain from the
        // (budget-0, fully spilled) arena.
        store.cool();
        let probe = probe.expect("state 3 captured");
        let (id, new) = intern_inst(&mut store, &probe, Some((root_id, updates[0])), 3);
        assert!(!new, "old state is found through the cold path");
        assert_eq!(id, StateId(3));
        assert!(store.report().faults > 0, "cold confirm faulted pages in");
        assert_eq!(store.collisions(), 0);
    }

    /// Two different word sequences under one fingerprint stay two
    /// states: each probe compares words, and the second insert counts
    /// one collision.
    #[test]
    fn fingerprint_collisions_keep_distinct_ids() {
        let mut store = SpillStore::new(SymmetryMode::Reduced, MemoryBudget::unbounded());
        let u = Update::Del {
            node: InstNodeId(1),
        };
        let (a, new_a) = store.intern(7, &[1, 2], None, 0);
        let (b, new_b) = store.intern(7, &[3, 4], Some((a, u)), 1);
        assert!(new_a && new_b);
        assert_ne!(a, b);
        assert_eq!(store.intern(7, &[1, 2], Some((b, u)), 2), (a, false));
        assert_eq!(store.intern(7, &[3, 4], Some((a, u)), 1), (b, false));
        assert_eq!(store.report().states, 2);
        assert_eq!(store.collisions(), 1);
    }

    /// Three word sequences under one fingerprint: the second moves the
    /// index slot to its side list, the third grows the list, and every
    /// re-probe — hot or decoded from the arena — finds its own id.
    #[test]
    fn three_way_collision_goes_through_the_side_list() {
        let mut store = SpillStore::new(SymmetryMode::Reduced, MemoryBudget::bytes(0));
        let u = Update::Del {
            node: InstNodeId(1),
        };
        let words: [&[u32]; 3] = [&[1, 2], &[3, 4], &[5, 6, 7]];
        let mut parent = None;
        for (d, w) in words.iter().enumerate() {
            let (id, new) = store.intern(7, w, parent, d as u32);
            assert!(new);
            assert_eq!(id, StateId(d as u32));
            parent = Some((id, u));
        }
        for round in ["hot", "cold"] {
            for (d, w) in words.iter().enumerate() {
                let id = StateId(d as u32);
                assert_eq!(store.intern(7, w, parent, 3), (id, false), "{round}");
            }
            store.cool();
        }
        assert_eq!(store.report().states, 3);
        assert_eq!(store.collisions(), 2);
    }

    /// A record longer than the address's length field gets a page of
    /// its own: a 40,000-word state (checkpoint and delta records over
    /// 32 KiB) interns, re-probes, decodes and replays its run, with
    /// every page resident and with nearly every page spilled.
    #[test]
    fn oversized_records_round_trip() {
        let big: Vec<u32> = (0..40_000).map(|i| i % 100).collect();
        let big2: Vec<u32> = (0..40_000).map(|i| (i * 7 + 3) % 120).collect();
        let mut tail = big2.clone();
        tail.push(5);
        let states: [&[u32]; 4] = [&big, &[1, 2], &big2, &tail];
        let u = |n| Update::Del {
            node: InstNodeId(n),
        };
        for budget in [MemoryBudget::unbounded(), MemoryBudget::bytes(4 * 1024)] {
            let mut store = SpillStore::new(SymmetryMode::Reduced, budget);
            let mut parent = None;
            for (d, w) in states.iter().enumerate() {
                let (id, new) = store.intern(d as u64, w, parent, d as u32);
                assert!(new, "{budget:?}");
                assert_eq!(id, StateId(d as u32));
                parent = Some((id, u(d as u32)));
            }
            assert!(store.report().encoded_bytes > 2 * u64::from(LEN_MASK));
            for round in ["hot", "cold"] {
                for (d, w) in states.iter().enumerate() {
                    let id = StateId(d as u32);
                    assert_eq!(store.intern(d as u64, w, parent, 4), (id, false), "{round}");
                    assert_eq!(
                        store.records.arena.decode_words(&store.records.recs, id.0),
                        *w,
                        "{round}"
                    );
                }
                assert_eq!(store.run_to(StateId(3)), [u(0), u(1), u(2)]);
                store.cool();
            }
            let report = store.report();
            if budget.limit().is_some() {
                assert!(report.spilled_pages >= 3, "{report:?}");
                assert!(report.faults > 0, "{report:?}");
            } else {
                assert_eq!(report.spilled_pages, 0);
            }
        }
    }
}
