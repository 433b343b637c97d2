//! The cross-analysis **verdict cache**: amortising identical sub-problems
//! across analyses, server requests, and manager sessions.
//!
//! Both the server's analyze route and the online form manager keep re-posing the
//! same question: *is this guarded form (rules + completion + some
//! reachable instance) completable / semi-sound / satisfiable under these
//! limits?* The manager's `safe_updates` is the worst offender — it
//! re-solved the completability oracle once per candidate update, even
//! when two candidates lead to **isomorphic** successor instances.
//!
//! The cache key quotients exactly as far as soundness allows:
//!
//! * the **rule signature** — a 128-bit (two independent 64-bit FNV
//!   streams) hash over the canonical text of the schema, the
//!   access-rule table, and the completion formula (the parts of a
//!   [`GuardedForm`] other than the initial instance);
//! * the **canonical fingerprint** of the initial instance
//!   ([`Instance::canon_key`](idar_core::Instance::canon_key)) — so all
//!   iso-value renamings of an instance share one entry (verdicts are
//!   invariant under renaming; the property suite pins this). Entries
//!   additionally store the canonical *word encoding* and compare it on
//!   every hit, so — like the interners and the `StateStore` — a 64-bit
//!   fingerprint collision is **detected** (counted, treated as a miss),
//!   never silently served. Satisfiability reads only the completion
//!   formula and schema, so its entries ignore the initial instance
//!   entirely (no spurious misses across manager states);
//! * the [`AnalysisKind`] and the [`Budget`] — verdict-affecting limits
//!   are part of the key, so a tighter budget can never serve a stale
//!   `Unknown` for a looser one (thread count is *not* keyed: engines
//!   are verdict-identical by contract).
//!
//! Cached entries carry the verdict, method, and stats — **not** witness
//! runs: a witness's update node-ids are only meaningful against the
//! instance the original analysis ran on, and a hit may come from a
//! merely-isomorphic sibling. Callers that need a fresh witness run
//! uncached (the [`analyze`](crate::analysis::analyze) report says which
//! happened via its [`CacheProvenance`](crate::analysis::CacheProvenance)).
//!
//! Key construction serializes the rule table, so the pipeline computes
//! a [`CacheKey`] **once** per request ([`VerdictCache::key_for`]) and
//! probes/stores through it.
//!
//! The table is sharded over mutexes so server workers and manager threads
//! share one cache without contending.

use crate::analysis::{AnalysisKind, Budget};
use crate::verdict::{Method, SearchStats, Verdict};
use idar_core::fragment::Fragment;
use idar_core::{GuardedForm, Right};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cached verdict: everything an [`AnalysisReport`] carries except
/// witnesses (see the module docs for why those never cross the cache).
///
/// [`AnalysisReport`]: crate::analysis::AnalysisReport
#[derive(Debug, Clone)]
pub struct CachedVerdict {
    /// The three-valued answer.
    pub verdict: Verdict,
    /// The algorithm that produced it.
    pub method: Method,
    /// The form's fragment, stored so hits skip re-classification.
    pub fragment: Fragment,
    /// Statistics of the original (cold) run.
    pub stats: SearchStats,
}

/// The memoised 128-bit rule signature of one form's non-instance parts.
/// Compute it once per form ([`rules_signature_of`]) when many requests
/// share the same rules — e.g. a manager vetting successors — and build
/// keys through [`VerdictCache::key_with`].
#[derive(Debug, Clone)]
pub struct RulesSignature((u64, u64));

/// Memoisable form of [`rules_signature`]: both independent streams.
pub fn rules_signature_of(form: &GuardedForm) -> RulesSignature {
    RulesSignature(rules_signatures(form))
}

/// The hashed part of the key; see the module docs for the quotient it
/// implements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    rules_sig: u64,
    initial_fp: u64,
    kind: AnalysisKind,
    budget: Budget,
}

/// The confirmation payload compared on every probe, making fingerprint
/// collisions detectable (the analogue of the word `memcmp` in the
/// interners).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Check {
    rules_sig2: u64,
    initial_words: Box<[u32]>,
}

/// A fully-computed cache key for one `(form, kind, budget)` request.
/// Build it once with [`VerdictCache::key_for`] (it serializes the rule
/// table) and reuse it for the probe and the store.
#[derive(Debug, Clone)]
pub struct CacheKey {
    key: Key,
    check: Check,
}

/// Number of mutex-protected shards. A power of two well above typical
/// thread counts keeps contention negligible.
const SHARDS: usize = 16;

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a cold analysis.
    pub misses: u64,
    /// Probes whose hashed key matched but whose confirmation payload did
    /// not — detected fingerprint collisions, treated as misses.
    /// Expected to stay 0 in practice.
    pub collisions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded verdict cache shared by the workflow `FormManager`s and
/// the server's requests. Cheap to share behind an `Arc`.
#[derive(Debug, Default)]
pub struct VerdictCache {
    shards: [Mutex<HashMap<Key, (Check, CachedVerdict)>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache::default()
    }

    /// Compute the cache key for `(form, kind, budget)`. This serializes
    /// the rule table — call it once per request and reuse the key for
    /// [`VerdictCache::get_keyed`] and [`VerdictCache::put_keyed`].
    pub fn key_for(form: &GuardedForm, kind: AnalysisKind, budget: &Budget) -> CacheKey {
        Self::key_with(&rules_signature_of(form), form, kind, budget)
    }

    /// [`VerdictCache::key_for`] with the rule signature precomputed
    /// ([`rules_signature_of`]) — the fast path for callers whose rules
    /// are fixed across many requests (only the initial instance is
    /// hashed per call).
    pub fn key_with(
        rules: &RulesSignature,
        form: &GuardedForm,
        kind: AnalysisKind,
        budget: &Budget,
    ) -> CacheKey {
        let (rules_sig, rules_sig2) = rules.0;
        // Satisfiability depends only on the completion formula and the
        // schema — never on the initial instance (no spurious misses
        // across manager states of one form).
        let (initial_fp, initial_words) = if kind == AnalysisKind::Satisfiability {
            (0, Box::from(&[][..]))
        } else {
            form.initial().canon_key().into_parts()
        };
        CacheKey {
            key: Key {
                rules_sig,
                initial_fp,
                kind,
                budget: budget.clone(),
            },
            check: Check {
                rules_sig2,
                initial_words,
            },
        }
    }

    fn shard_of(key: &Key) -> usize {
        // Mix the two 64-bit halves; the low bits of either alone may
        // correlate with HashMap buckets inside the shard.
        ((key.rules_sig ^ key.initial_fp.rotate_left(32)) >> 59) as usize % SHARDS
    }

    /// Probe with a precomputed key, counting the hit, miss, or detected
    /// collision (a collision counts as a miss).
    pub fn get_keyed(&self, key: &CacheKey) -> Option<CachedVerdict> {
        let shard = &self.shards[Self::shard_of(&key.key)];
        let found = {
            let map = shard.lock().expect("cache shard poisoned");
            map.get(&key.key).map(|(check, v)| {
                if *check == key.check {
                    Some(v.clone())
                } else {
                    None
                }
            })
        };
        match found {
            Some(Some(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Some(None) => {
                // Hashed key matched, confirmation payload did not: a
                // genuine 64-bit collision, detected rather than served.
                self.collisions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a verdict under a precomputed key.
    pub fn put_keyed(&self, key: &CacheKey, v: CachedVerdict) {
        let shard = &self.shards[Self::shard_of(&key.key)];
        shard
            .lock()
            .expect("cache shard poisoned")
            .insert(key.key.clone(), (key.check.clone(), v));
    }

    /// Convenience probe: [`VerdictCache::key_for`] + [`VerdictCache::get_keyed`].
    pub fn get(
        &self,
        form: &GuardedForm,
        kind: AnalysisKind,
        budget: &Budget,
    ) -> Option<CachedVerdict> {
        self.get_keyed(&Self::key_for(form, kind, budget))
    }

    /// Convenience store: [`VerdictCache::key_for`] + [`VerdictCache::put_keyed`].
    pub fn put(&self, form: &GuardedForm, kind: AnalysisKind, budget: &Budget, v: CachedVerdict) {
        self.put_keyed(&Self::key_for(form, kind, budget), v);
    }

    /// Current hit/miss/collision/entry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len())
                .sum(),
        }
    }

    /// Remove the entry stored under `key`, if present. The retraction
    /// primitive behind [`SessionDelta`]: published session verdicts can
    /// be withdrawn without clearing the whole cache.
    pub fn remove_keyed(&self, key: &CacheKey) -> bool {
        let shard = &self.shards[Self::shard_of(&key.key)];
        shard
            .lock()
            .expect("cache shard poisoned")
            .remove(&key.key)
            .is_some()
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
    }
}

/// The verdict-delta layer of incremental re-analysis: the set of cache
/// entries one retained session graph has published on its own behalf.
///
/// A session that answers vets from its retained graph still shares
/// those verdicts with the process-wide cache — but unlike a cold
/// analysis, the published entries are *tied to the graph's lifetime*:
/// if the graph is evicted (memory budget) the delta retracts exactly
/// the entries whose keyed initial state left the retained subgraph,
/// leaving every entry other sessions or cold analyses produced intact.
///
/// Publication deduplicates per canonical initial fingerprint, so a
/// state's verdict enters the cache once no matter how many vets hit it.
#[derive(Debug, Clone, Default)]
pub struct SessionDelta {
    /// `initial_fp → key` of every entry this session published.
    published: HashMap<u64, CacheKey>,
}

impl SessionDelta {
    /// An empty delta.
    pub fn new() -> SessionDelta {
        SessionDelta::default()
    }

    /// Publish a session-derived verdict to `cache` under `key`, unless
    /// this session already published an entry for the same canonical
    /// initial state.
    pub fn publish(&mut self, cache: &VerdictCache, key: CacheKey, v: CachedVerdict) {
        if let std::collections::hash_map::Entry::Vacant(e) =
            self.published.entry(key.key.initial_fp)
        {
            cache.put_keyed(&key, v);
            e.insert(key);
        }
    }

    /// Retract every published entry whose keyed initial state is no
    /// longer retained (per `retained`, judged on the canonical initial
    /// fingerprint). Full eviction passes `|_| false`. Returns how many
    /// entries were removed from the cache.
    pub fn retract_departed(
        &mut self,
        cache: &VerdictCache,
        retained: impl Fn(u64) -> bool,
    ) -> usize {
        let mut removed = 0;
        self.published.retain(|&fp, key| {
            if retained(fp) {
                true
            } else {
                if cache.remove_keyed(key) {
                    removed += 1;
                }
                false
            }
        });
        removed
    }

    /// Number of live published entries.
    pub fn len(&self) -> usize {
        self.published.len()
    }

    /// Is the delta empty?
    pub fn is_empty(&self) -> bool {
        self.published.is_empty()
    }
}

/// The 64-bit FNV-1a signature of everything in a guarded form *except*
/// the initial instance: schema text, default guard, per-edge rules, and
/// the completion formula — the same canonical ordering
/// `idar_core::serialize::to_ron` uses, minus the instance line.
pub fn rules_signature(form: &GuardedForm) -> u64 {
    rules_signatures(form).0
}

/// Both independent rule-signature streams in one serialization pass.
fn rules_signatures(form: &GuardedForm) -> (u64, u64) {
    let mut h = Fnv2::new();
    h.write(form.schema().to_text().as_bytes());
    h.write(form.rules().default_guard().to_string().as_bytes());
    for e in form.schema().edge_ids() {
        for right in [Right::Add, Right::Del] {
            let guard = form.rules().get(right, e);
            if guard != form.rules().default_guard() {
                h.write(form.schema().path_of(e).as_bytes());
                h.write(&[right as u8 + 1]);
                h.write(guard.to_string().as_bytes());
            }
        }
    }
    h.write(form.completion().to_string().as_bytes());
    h.finish()
}

/// Two incremental FNV-1a streams with distinct offset bases (and a
/// byte-rotated second stream), length-prefixed per field. The pair acts
/// as a 128-bit checksum: the first half keys the map, the second rides
/// in the confirmation payload.
struct Fnv2(u64, u64);

impl Fnv2 {
    fn new() -> Fnv2 {
        Fnv2(0xcbf29ce484222325, 0x84222325cbf29ce4)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Length prefix keeps field boundaries unambiguous.
        for b in (bytes.len() as u32).to_le_bytes() {
            self.push(b);
        }
        for &b in bytes {
            self.push(b);
        }
    }

    #[inline]
    fn push(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        self.1 = (self.1 ^ u64::from(b.rotate_left(3))).wrapping_mul(0x100000001b3);
    }

    fn finish(&self) -> (u64, u64) {
        (self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisKind;
    use idar_core::{AccessRules, Formula, Instance, Schema};
    use std::sync::Arc;

    fn form(initial: &str) -> GuardedForm {
        let schema = Arc::new(Schema::parse("a(b, c), s").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set(
            idar_core::Right::Add,
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
        );
        let init = Instance::parse(schema.clone(), initial).unwrap();
        GuardedForm::new(schema, rules, init, Formula::parse("a").unwrap())
    }

    fn holds() -> CachedVerdict {
        CachedVerdict {
            verdict: Verdict::Holds,
            method: Method::BoundedExploration,
            fragment: idar_core::fragment::classify(&form("a(b)")),
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn hits_quotient_by_isomorphism() {
        let cache = VerdictCache::new();
        let budget = Budget::default();
        let f1 = form("a(b, c), s");
        assert!(cache
            .get(&f1, AnalysisKind::Completability, &budget)
            .is_none());
        cache.put(&f1, AnalysisKind::Completability, &budget, holds());
        // An isomorphic initial instance (permuted siblings) hits.
        let f2 = form("s, a(c, b)");
        let hit = cache.get(&f2, AnalysisKind::Completability, &budget);
        assert_eq!(hit.unwrap().verdict, Verdict::Holds);
        // A different kind misses; a different instance misses.
        assert!(cache
            .get(&f2, AnalysisKind::Semisoundness, &budget)
            .is_none());
        assert!(cache
            .get(&form("a(b)"), AnalysisKind::Completability, &budget)
            .is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.collisions, 0);
        assert_eq!(s.entries, 1);
        assert!(s.hit_rate() > 0.2 && s.hit_rate() < 0.3);
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let cache = VerdictCache::new();
        let f = form("a(b)");
        let tight = Budget::with_limits(crate::ExploreLimits {
            max_states: 10,
            ..crate::ExploreLimits::small()
        });
        cache.put(
            &f,
            AnalysisKind::Completability,
            &tight,
            CachedVerdict {
                verdict: Verdict::Unknown,
                method: Method::BoundedExploration,
                fragment: idar_core::fragment::classify(&f),
                stats: SearchStats::default(),
            },
        );
        // A different budget must not see the tight-budget Unknown.
        assert!(cache
            .get(&f, AnalysisKind::Completability, &Budget::default())
            .is_none());
        assert!(cache
            .get(&f, AnalysisKind::Completability, &tight)
            .is_some());
    }

    #[test]
    fn satisfiability_entries_ignore_the_initial_instance() {
        let cache = VerdictCache::new();
        let budget = Budget::default();
        cache.put(
            &form("a(b)"),
            AnalysisKind::Satisfiability,
            &budget,
            holds(),
        );
        // Any other initial instance of the same rules hits (the tableau
        // never reads it)…
        assert!(cache
            .get(&form("s"), AnalysisKind::Satisfiability, &budget)
            .is_some());
        // …but the instance still separates the stateful kinds.
        assert!(cache
            .get(&form("s"), AnalysisKind::Completability, &budget)
            .is_none());
    }

    #[test]
    fn mismatched_confirmation_counts_as_collision() {
        let cache = VerdictCache::new();
        let budget = Budget::default();
        let f1 = form("a(b)");
        // Forge a key whose hashed half matches f1's entry but whose
        // confirmation payload differs (simulating a 64-bit collision).
        let real = VerdictCache::key_for(&f1, AnalysisKind::Completability, &budget);
        cache.put_keyed(&real, holds());
        let mut forged = real.clone();
        forged.check.initial_words = Box::from(&[42u32][..]);
        assert!(cache.get_keyed(&forged).is_none());
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 1);
        // The genuine key still hits.
        assert!(cache.get_keyed(&real).is_some());
    }

    #[test]
    fn session_delta_publishes_once_and_retracts_departed() {
        let cache = VerdictCache::new();
        let budget = Budget::default();
        let mut delta = SessionDelta::new();
        let k1 = VerdictCache::key_for(&form("a(b)"), AnalysisKind::Completability, &budget);
        let k2 = VerdictCache::key_for(&form("a(b), s"), AnalysisKind::Completability, &budget);
        delta.publish(&cache, k1.clone(), holds());
        delta.publish(&cache, k1.clone(), holds()); // dedup: same initial state
        delta.publish(&cache, k2.clone(), holds());
        assert_eq!(delta.len(), 2);
        assert_eq!(cache.stats().entries, 2);

        // A foreign entry (cold analysis, other session) must survive
        // this session's retraction.
        let foreign = VerdictCache::key_for(&form("s"), AnalysisKind::Completability, &budget);
        cache.put_keyed(&foreign, holds());

        // Evict: nothing retained.
        let removed = delta.retract_departed(&cache, |_| false);
        assert_eq!(removed, 2);
        assert!(delta.is_empty());
        assert!(cache.get_keyed(&k1).is_none());
        assert!(cache.get_keyed(&k2).is_none());
        assert!(cache.get_keyed(&foreign).is_some());
    }

    #[test]
    fn remove_keyed_reports_presence() {
        let cache = VerdictCache::new();
        let budget = Budget::default();
        let key = VerdictCache::key_for(&form("a(b)"), AnalysisKind::Completability, &budget);
        assert!(!cache.remove_keyed(&key));
        cache.put_keyed(&key, holds());
        assert!(cache.remove_keyed(&key));
        assert!(cache.get_keyed(&key).is_none());
    }

    #[test]
    fn rules_signature_separates_rule_tables() {
        let f1 = form("a(b)");
        let schema = f1.schema().clone();
        let mut rules = AccessRules::new(&schema);
        rules.set(
            idar_core::Right::Del,
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
        );
        let f2 = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::parse(schema, "a(b)").unwrap(),
            Formula::parse("a").unwrap(),
        );
        assert_ne!(rules_signature(&f1), rules_signature(&f2));
        assert_eq!(rules_signature(&f1), rules_signature(&f1.clone()));
    }
}
