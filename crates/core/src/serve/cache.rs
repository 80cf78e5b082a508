//! The epoch-guarded result cache.
//!
//! Served workloads repeat themselves: popular keyword combinations come
//! back query after query (the Zipf-shaped access pattern every
//! query-serving system sees). [`ResultCache`] memoizes whole answers
//! keyed on the *canonicalized* query — sorted keyword ids plus every
//! engine option that can change the result — so a repeat costs one hash
//! lookup and a clone instead of a branch-and-bound search.
//!
//! Three properties keep it safe to put in front of an exact algorithm:
//!
//! * **Canonical keys.** [`CacheKey`] sorts the keyword ids (the engine
//!   itself is insensitive to `W_Q` order) and folds in `p`, `k`, `N`,
//!   `γ`, the member ordering, both pruning toggles, and the bitmap
//!   threshold. Worker-thread counts are deliberately *excluded*: results
//!   are byte-identical across thread counts, so including them would
//!   only split the hit rate. Deadlines are excluded for the same reason:
//!   the executor only ever inserts `Exact` answers, and an exact answer
//!   is independent of whatever deadline failed to fire.
//! * **Epoch guard.** Every entry is stamped with the graph epoch it was
//!   computed at. The executor bumps its epoch on each applied edge
//!   update, and only an entry whose stamp equals the lookup epoch can
//!   hit — a post-update query can never observe a pre-update answer.
//!   Stale entries are reclaimed lazily: a lookup that lands on one
//!   removes it, and an over-capacity insert purges the shard's dead
//!   generation *before* evicting any live entry (a long-lived serving
//!   session with edge churn must not let unreachable entries squeeze
//!   out reachable ones). [`ResultCache::reclaimed`] counts them.
//! * **Bounded shards.** Entries live in a fixed stripe array (hashed by
//!   key) with per-shard eviction, so concurrent workers do not
//!   serialize on one lock and a long-running session cannot grow
//!   without limit.
//!
//! ## Eviction policy
//!
//! Eviction is workload-aware: every entry records the solve nanos that
//! produced it and the shard-local logical tick of its last hit,
//! eviction removes the minimum *benefit score* — solve cost halved once
//! per [`HALF_LIFE`] ticks of disuse, insertion sequence as the
//! total-order tie break — and admission rejects a new entry whose cost
//! is below the would-be victim's score (caching a cheap answer by
//! evicting an expensive hot one is a net loss). Clocks are purely
//! logical (per-shard access counters, never wall time, per lint L4):
//! the retained set is a pure function of the access sequence, and
//! since cached answers equal freshly solved ones, eviction decides only
//! hit rates, never *answers*.
//!
//! ## Keyword-subset reuse
//!
//! A side index keyed by [`ParamSig`] (everything of a key *except* the
//! keywords) remembers which keyword sets are resident per parameter
//! combination. [`ResultCache::get_superset`] probes it for a cached
//! answer to a superset query `W' ⊇ W`: the caller re-projects that
//! answer's coverage masks onto `W` and uses the projected coverage
//! counts to seed the branch-and-bound `TopN` floor (see
//! `serve::executor`). Returning a superset answer *verbatim* would be
//! unsound — the top-N groups under `W` can differ from the re-projected
//! top-N under `W'` even at full coverage (smaller-member groups that
//! `W'` ranked below its own top-N may outrank them under `W`) — so the
//! probe only ever tightens the initial bound, which provably preserves
//! the result (DESIGN.md §17).

use ktg_common::{FxHashMap, FxHasher64};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::bb::{BbOptions, MemberOrdering};
use crate::dktg::DktgQuery;
use crate::query::KtgQuery;

/// Number of cache stripes (see [`ktg_index::NeighborhoodCache`] for the
/// same sizing argument: a small power of two keeps the pick cheap while
/// letting a handful of workers proceed in parallel).
const CACHE_SHARDS: usize = 16;

/// Recency half-life in shard ticks: an entry's benefit score halves for
/// every `HALF_LIFE` shard accesses since its last hit.
const HALF_LIFE: u64 = 64;

/// Keyword sets remembered per parameter signature in the subset-reuse
/// side index. A small bound: the index is a best-effort seed source,
/// not a second cache.
const SUBSET_INDEX_WIDTH: usize = 32;

/// Benefit of keeping an entry: what recomputing it would cost, decayed
/// by how long it has gone unreferenced.
fn benefit_score(cost: u64, age: u64) -> u64 {
    cost >> (age / HALF_LIFE).min(63)
}

/// A canonicalized query identity: two queries with the same key are
/// guaranteed the same answer (at the same graph epoch).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 0 = KTG, 1 = DKTG — keeps the two query families from colliding.
    kind: u8,
    /// Query keyword ids, sorted ascending (`W_Q` is a set).
    keywords: Vec<u32>,
    p: usize,
    k: u32,
    n: usize,
    /// `γ.to_bits()` for DKTG, 0 for KTG.
    gamma_bits: u64,
    ordering: u8,
    keyword_pruning: bool,
    kline_filtering: bool,
    bitmap_threshold: usize,
}

fn ordering_tag(ordering: MemberOrdering) -> u8 {
    match ordering {
        MemberOrdering::Qkc => 0,
        MemberOrdering::Vkc => 1,
        MemberOrdering::VkcDeg => 2,
        MemberOrdering::VkcDegDesc => 3,
    }
}

fn sorted_ids(query: &KtgQuery) -> Vec<u32> {
    let mut ids: Vec<u32> = query.keywords().ids().iter().map(|id| id.0).collect();
    ids.sort_unstable();
    ids
}

impl CacheKey {
    /// Canonical key for a KTG query under the given engine options.
    pub fn ktg(query: &KtgQuery, opts: &BbOptions) -> Self {
        CacheKey {
            kind: 0,
            keywords: sorted_ids(query),
            p: query.p(),
            k: query.k(),
            n: query.n(),
            gamma_bits: 0,
            ordering: ordering_tag(opts.ordering),
            keyword_pruning: opts.keyword_pruning,
            kline_filtering: opts.kline_filtering,
            bitmap_threshold: opts.bitmap_threshold,
        }
    }

    /// Canonical key for a DKTG query under the given inner-engine
    /// options.
    pub fn dktg(query: &DktgQuery, opts: &BbOptions) -> Self {
        CacheKey {
            kind: 1,
            gamma_bits: query.gamma().to_bits(),
            ..CacheKey::ktg(query.base(), opts)
        }
    }

    fn shard_index(&self) -> usize {
        let mut h = FxHasher64::default();
        self.hash(&mut h);
        (h.finish() >> 56) as usize % CACHE_SHARDS
    }

    /// The key's identity minus its keyword set — the subset-reuse
    /// side-index bucket it belongs to.
    fn param_sig(&self) -> ParamSig {
        ParamSig {
            kind: self.kind,
            p: self.p,
            k: self.k,
            n: self.n,
            gamma_bits: self.gamma_bits,
            ordering: self.ordering,
            keyword_pruning: self.keyword_pruning,
            kline_filtering: self.kline_filtering,
            bitmap_threshold: self.bitmap_threshold,
        }
    }

    /// The same query identity over a different keyword set.
    fn with_keywords(&self, keywords: Vec<u32>) -> CacheKey {
        CacheKey { keywords, ..self.clone() }
    }

    /// Sorted keyword ids this key canonicalizes.
    pub(crate) fn keywords(&self) -> &[u32] {
        &self.keywords
    }
}

/// Everything of a [`CacheKey`] except the keywords. Stored as the full
/// field set — never a hash — so distinct parameter combinations can
/// never alias a side-index bucket (an aliased bucket would seed floors
/// from answers to *different* queries, which is unsound).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ParamSig {
    kind: u8,
    p: usize,
    k: u32,
    n: usize,
    gamma_bits: u64,
    ordering: u8,
    keyword_pruning: bool,
    kline_filtering: bool,
    bitmap_threshold: usize,
}

/// A resident answer with the graph epoch it was computed at plus the
/// bookkeeping eviction scores by.
struct Entry<V> {
    epoch: u64,
    value: V,
    /// Recorded solve cost (nanoseconds; 1 for inserts with no recording).
    cost: u64,
    /// Shard tick of the last hit or insert.
    last_touch: u64,
    /// Insertion sequence, unique per shard — eviction's total-order tie
    /// break, so the `(score, seq)` minimum is always a single entry.
    seq: u64,
}

struct CacheShard<V> {
    /// Newest epoch this shard has observed (monotone). Entries stamped
    /// below it are dead weight awaiting reclamation; inserts stamped
    /// below it are discarded outright.
    latest: u64,
    map: FxHashMap<CacheKey, Entry<V>>,
    /// Logical access clock: bumped once per lookup or insert.
    tick: u64,
    /// Insertion counter feeding [`Entry::seq`].
    seq: u64,
}

/// A bounded, sharded, epoch-guarded memo of whole query answers.
pub struct ResultCache<V> {
    shards: Vec<Mutex<CacheShard<V>>>,
    per_shard_capacity: usize,
    /// Keyword sets resident per parameter signature, for superset
    /// probes. Best-effort: bounded per bucket, entries may outlive the
    /// answers they point at (a probe just misses then).
    subsets: Mutex<FxHashMap<ParamSig, Vec<Vec<u32>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    reclaimed: AtomicU64,
    subset_hits: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// Creates a cache holding at most `capacity` answers in total
    /// (rounded up to a multiple of the stripe count; a zero capacity
    /// still admits one answer per stripe).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(CacheShard {
                        latest: 0,
                        map: FxHashMap::default(),
                        tick: 0,
                        seq: 0,
                    })
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(CACHE_SHARDS).max(1),
            subsets: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            subset_hits: AtomicU64::new(0),
        }
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh solve so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stale-epoch entries reclaimed so far — lazily on lookup, or in
    /// bulk when an over-capacity insert purges a shard's dead
    /// generation before evicting anything live.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// Successful superset probes ([`get_superset`](Self::get_superset))
    /// so far.
    pub fn subset_hits(&self) -> u64 {
        self.subset_hits.load(Ordering::Relaxed)
    }

    /// Cached answers currently resident (all shards, stale included).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).map.len()).sum()
    }

    /// Whether the cache currently holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock<'a>(&self, shard: &'a Mutex<CacheShard<V>>) -> MutexGuard<'a, CacheShard<V>> {
        // Entries are inserted whole under the lock, so a panicking
        // borrower cannot leave a shard half-written: recover the lock.
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the cached answer for `key` computed at `epoch`, if any.
    ///
    /// Only an entry stamped with exactly `epoch` can hit. A lookup that
    /// lands on a stale entry removes it on the spot (counted by
    /// [`ResultCache::reclaimed`]) and reports a miss. The caller must
    /// pass a monotonically nondecreasing epoch for a given graph state
    /// (the executor's update path guarantees this: mutation takes
    /// `&mut self`, so no lookup can race an epoch bump).
    pub fn get(&self, key: &CacheKey, epoch: u64) -> Option<V> {
        // Fault-injection site, fired *before* the shard lock is taken so
        // an injected panic can never poison (or skew) shard state — a
        // retried lookup sees the cache exactly as the first attempt did.
        ktg_common::fault::inject(ktg_common::fault::FaultSite::CacheLookup);
        let mut shard = self.lock(&self.shards[key.shard_index()]);
        shard.latest = shard.latest.max(epoch);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_touch = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            Some(_) => {
                // Dead on arrival: the entry predates the current graph.
                shard.map.remove(key);
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` as the answer for `key` at `epoch`, with no
    /// recorded solve cost (scored as cost 1).
    pub fn insert(&self, key: CacheKey, epoch: u64, value: V) {
        self.insert_with_cost(key, epoch, value, 1);
    }

    /// Stores `value` as the answer for `key` at `epoch`, recording the
    /// solve nanos that produced it. An insert stamped older than the
    /// newest epoch the shard has seen is discarded (the answer is
    /// already stale).
    ///
    /// When the shard is at capacity, entries from dead generations are
    /// purged **first** — evicting a live entry while unreachable stale
    /// ones still occupy the shard would collapse the hit rate under
    /// edge-update churn. Only if the shard is still full after the
    /// purge does eviction run: the minimum-benefit entry goes *unless*
    /// the incoming answer is cheaper than that entry's current score, in
    /// which case the insert itself is rejected (admission floor).
    pub fn insert_with_cost(&self, key: CacheKey, epoch: u64, value: V, cost_ns: u64) {
        let cost = cost_ns.max(1);
        let mut shard = self.lock(&self.shards[key.shard_index()]);
        if epoch < shard.latest {
            return;
        }
        shard.latest = epoch;
        shard.tick += 1;

        // Make room for a *new* key while the shard is full.
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            let latest = shard.latest;
            let before = shard.map.len();
            shard.map.retain(|_, entry| entry.epoch == latest);
            let dead = before - shard.map.len();
            if dead > 0 {
                self.reclaimed.fetch_add(dead as u64, Ordering::Relaxed);
            }
            if shard.map.len() >= self.per_shard_capacity {
                let tick = shard.tick;
                // `seq` is unique per shard, so the `(score, seq)` minimum
                // is one entry regardless of map iteration order —
                // eviction stays deterministic. An empty shard needs no
                // eviction at all.
                let weakest = shard
                    .map
                    .iter()
                    .map(|(k, e)| {
                        let score = benefit_score(e.cost, tick.saturating_sub(e.last_touch));
                        ((score, e.seq), k.clone())
                    })
                    .min_by_key(|(rank, _)| *rank);
                if let Some(((floor, _), victim)) = weakest {
                    if cost < floor {
                        // Admission floor: the incoming answer is cheaper
                        // to recompute than the benefit of the entry it
                        // would displace.
                        return;
                    }
                    shard.map.remove(&victim);
                }
            }
        }

        shard.seq += 1;
        let (tick, seq) = (shard.tick, shard.seq);
        shard.map.insert(key.clone(), Entry { epoch, value, cost, last_touch: tick, seq });
        drop(shard);

        // Remember the keyword set for superset probes (bounded FIFO per
        // parameter bucket; see `get_superset`).
        let sig = key.param_sig();
        let mut subsets = match self.subsets.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let bucket = subsets.entry(sig).or_default();
        if !bucket.iter().any(|ws| ws == key.keywords()) {
            bucket.push(key.keywords().to_vec());
            if bucket.len() > SUBSET_INDEX_WIDTH {
                bucket.remove(0);
            }
        }
    }

    /// Probes for a resident answer to a *strict-superset* query: same
    /// parameters, keyword set `W' ⊃ W`, same epoch. Returns the
    /// superset's sorted keyword ids and its cached answer. Counters are
    /// untouched except [`subset_hits`](Self::subset_hits) on success —
    /// a failed probe is not a "miss", and the probe must not perturb
    /// the fault-injection or hit-rate accounting of the primary path.
    pub fn get_superset(&self, key: &CacheKey, epoch: u64) -> Option<(Vec<u32>, V)> {
        let candidates: Vec<Vec<u32>> = {
            let subsets = match self.subsets.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let bucket = subsets.get(&key.param_sig())?;
            bucket
                .iter()
                .filter(|ws| {
                    ws.len() > key.keywords().len() && is_subset(key.keywords(), ws)
                })
                .cloned()
                .collect()
        };
        for ws in candidates {
            let skey = key.with_keywords(ws);
            let shard = self.lock(&self.shards[skey.shard_index()]);
            if let Some(entry) = shard.map.get(&skey) {
                if entry.epoch == epoch {
                    let value = entry.value.clone();
                    drop(shard);
                    self.subset_hits.fetch_add(1, Ordering::Relaxed);
                    let CacheKey { keywords, .. } = skey;
                    return Some((keywords, value));
                }
            }
        }
        None
    }
}

/// Is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.by_ref().any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn paper_key(net: &crate::network::AttributedGraph, terms: [&str; 5]) -> CacheKey {
        let query =
            KtgQuery::new(net.query_keywords(terms).unwrap(), 3, 1, 2).unwrap();
        CacheKey::ktg(&query, &BbOptions::vkc_deg())
    }

    /// A family of distinct keys (varying `p`) for filling shards.
    fn key_with_p(net: &crate::network::AttributedGraph, p: usize) -> CacheKey {
        let query =
            KtgQuery::new(net.query_keywords(["SN", "QP"]).unwrap(), p, 1, 1).unwrap();
        CacheKey::ktg(&query, &BbOptions::vkc_deg())
    }

    #[test]
    fn keyword_order_is_canonicalized() {
        let net = fixtures::figure1();
        let a = paper_key(&net, ["SN", "QP", "DQ", "GQ", "GD"]);
        let b = paper_key(&net, ["GD", "GQ", "DQ", "QP", "SN"]);
        assert_eq!(a, b, "W_Q is a set; permutations must share one entry");
    }

    #[test]
    fn options_that_change_results_split_keys() {
        let net = fixtures::figure1();
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            2,
        )
        .unwrap();
        let base = CacheKey::ktg(&query, &BbOptions::vkc_deg());
        assert_ne!(base, CacheKey::ktg(&query, &BbOptions::qkc()));
        assert_ne!(
            base,
            CacheKey::ktg(
                &query,
                &BbOptions { keyword_pruning: false, ..BbOptions::vkc_deg() }
            )
        );
        // Thread count is result-invariant and must NOT split the key.
        assert_eq!(base, CacheKey::ktg(&query, &BbOptions::vkc_deg().with_threads(8)));
        // DKTG with the same base query must not collide with KTG.
        let dq = DktgQuery::new(query.clone(), 0.5).unwrap();
        assert_ne!(base, CacheKey::dktg(&dq, &BbOptions::vkc_deg()));
        let dq2 = DktgQuery::new(query, 0.7).unwrap();
        assert_ne!(
            CacheKey::dktg(&dq2, &BbOptions::vkc_deg()),
            CacheKey::dktg(&DktgQuery::new(dq2.base().clone(), 0.5).unwrap(), &BbOptions::vkc_deg()),
            "gamma is part of the DKTG identity"
        );
    }

    #[test]
    fn get_insert_roundtrip_counts_hits() {
        let net = fixtures::figure1();
        let key = paper_key(&net, ["SN", "QP", "DQ", "GQ", "GD"]);
        let cache: ResultCache<u32> = ResultCache::new(64);
        assert_eq!(cache.get(&key, 1), None);
        cache.insert(key.clone(), 1, 42);
        assert_eq!(cache.get(&key, 1), Some(42));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.reclaimed(), 0);
    }

    #[test]
    fn epoch_change_invalidates() {
        let net = fixtures::figure1();
        let key = paper_key(&net, ["SN", "QP", "DQ", "GQ", "GD"]);
        let cache: ResultCache<u32> = ResultCache::new(64);
        cache.insert(key.clone(), 1, 42);
        assert_eq!(cache.get(&key, 2), None, "post-update lookups must miss");
        assert_eq!(cache.reclaimed(), 1, "the stale entry is reclaimed on touch");
        // A stale insert (computed before the bump) must be discarded.
        cache.insert(key.clone(), 1, 42);
        assert_eq!(cache.get(&key, 2), None);
        cache.insert(key.clone(), 2, 43);
        assert_eq!(cache.get(&key, 2), Some(43));
    }

    #[test]
    fn capacity_is_bounded() {
        let net = fixtures::figure1();
        let cache: ResultCache<usize> = ResultCache::new(16);
        for p in 1..200usize {
            cache.insert(key_with_p(&net, p), 1, p);
        }
        assert!(cache.len() <= 16, "resident {} exceeds capacity", cache.len());
    }

    /// Regression for the epoch-churn eviction bug: an over-capacity
    /// insert must purge the shard's stale (dead-epoch) entries before
    /// evicting anything live. Without the purge, entries computed
    /// before an edge update sit unreachable in the shard and squeeze
    /// out the very answers the current epoch can still hit.
    #[test]
    fn stale_generations_are_purged_before_live_eviction() {
        let net = fixtures::figure1();
        // Capacity 16 ⇒ one entry per shard: any shard already holding
        // an epoch-1 entry overflows on its first epoch-2 insert.
        let cache: ResultCache<usize> = ResultCache::new(16);
        for p in 1..33usize {
            cache.insert(key_with_p(&net, p), 1, p);
        }
        let resident_before = cache.len();
        assert!(resident_before > 0);
        // Edge-update churn: a new generation arrives without any lookup
        // having touched the old one.
        for p in 101..133usize {
            cache.insert(key_with_p(&net, p), 2, p);
        }
        assert!(
            cache.reclaimed() > 0,
            "over-capacity inserts must reclaim the dead generation"
        );
        // The newest entry of the new generation is never the eviction
        // victim: stale entries go first, then the live entries the
        // benefit score ranks lowest.
        assert_eq!(cache.get(&key_with_p(&net, 132), 2), Some(132));
        assert!(cache.len() <= 16, "resident {} exceeds capacity", cache.len());
        // Every surviving entry is from the live generation.
        for p in 1..33usize {
            let dead_hit = {
                let before = cache.hits();
                cache.get(&key_with_p(&net, p), 2);
                cache.hits() != before
            };
            assert!(!dead_hit, "stale entry for p={p} survived the purge and hit");
        }
    }

    /// Groups `p`-parameterized keys by the shard they hash to, so tests
    /// can co-locate keys in one stripe.
    fn shard_groups(net: &crate::network::AttributedGraph) -> Vec<Vec<CacheKey>> {
        let mut groups: Vec<Vec<CacheKey>> = (0..CACHE_SHARDS).map(|_| Vec::new()).collect();
        for p in 1..200usize {
            let key = key_with_p(net, p);
            groups[key.shard_index()].push(key);
        }
        groups
    }

    /// Eviction removes the minimum `(benefit score, seq)` entry
    /// and rejects inserts cheaper than that floor — deterministically.
    #[test]
    fn cost_eviction_order_is_deterministic() {
        let net = fixtures::figure1();
        let groups = shard_groups(&net);
        let keys = groups.iter().find(|g| g.len() >= 6).expect("a stripe with 6 keys");
        // Two independent instances replaying the same access sequence
        // must retain the same set.
        for _ in 0..2 {
            // Capacity 64 → 4 entries per stripe.
            let cache: ResultCache<usize> = ResultCache::new(64);
            let costs = [100u64, 10, 1000, 50];
            for (i, cost) in costs.iter().enumerate() {
                cache.insert_with_cost(keys[i].clone(), 1, i, *cost);
            }
            // Fifth key: the victim is the cheapest resident (cost 10).
            cache.insert_with_cost(keys[4].clone(), 1, 4, 500);
            assert_eq!(cache.get(&keys[1], 1), None, "cheapest entry evicted");
            for i in [0usize, 2, 3, 4] {
                assert_eq!(cache.get(&keys[i], 1), Some(i), "survivor {i}");
            }
            // Admission floor: cheaper than the current minimum benefit
            // (cost 50) ⇒ rejected outright, residents untouched.
            cache.insert_with_cost(keys[5].clone(), 1, 5, 5);
            assert_eq!(cache.get(&keys[5], 1), None, "below-floor insert rejected");
            for i in [0usize, 2, 3, 4] {
                assert_eq!(cache.get(&keys[i], 1), Some(i), "survivor {i} after rejection");
            }
        }
    }

    /// Recency decay: an expensive entry nobody hits eventually scores
    /// below a cheap one that stays hot, and becomes the victim.
    #[test]
    fn cost_eviction_decays_unused_entries() {
        let net = fixtures::figure1();
        let groups = shard_groups(&net);
        let keys = groups.iter().find(|g| g.len() >= 6).expect("a stripe with 6 keys");
        let cache: ResultCache<usize> = ResultCache::new(64);
        cache.insert_with_cost(keys[0].clone(), 1, 0, 1_000_000); // expensive, then cold
        for (i, key) in keys.iter().enumerate().take(4).skip(1) {
            cache.insert_with_cost(key.clone(), 1, i, 10);
        }
        // ~30 half-lives of hits on the cheap entries: the cold entry's
        // score decays to zero while the hot ones stay at full cost.
        for _ in 0..(30 * HALF_LIFE) {
            assert_eq!(cache.get(&keys[1], 1), Some(1));
        }
        cache.insert_with_cost(keys[4].clone(), 1, 4, 10);
        assert_eq!(cache.get(&keys[0], 1), None, "decayed expensive entry evicted");
        for (i, key) in keys.iter().enumerate().take(5).skip(1) {
            assert_eq!(cache.get(key, 1), Some(i), "hot survivor {i}");
        }
    }

    fn key_with_terms(
        net: &crate::network::AttributedGraph,
        terms: &[&str],
        p: usize,
    ) -> CacheKey {
        let kws = net.query_keywords(terms.iter().copied()).unwrap();
        let query = KtgQuery::new(kws, p, 1, 2).unwrap();
        CacheKey::ktg(&query, &BbOptions::vkc_deg())
    }

    #[test]
    fn superset_probe_finds_strict_same_param_supersets_only() {
        let net = fixtures::figure1();
        let sub = key_with_terms(&net, &["SN", "QP"], 3);
        let sup = key_with_terms(&net, &["SN", "QP", "DQ"], 3);
        let cache: ResultCache<usize> = ResultCache::new(64);
        cache.insert_with_cost(sup.clone(), 1, 7, 100);
        assert!(cache.get_superset(&sup, 1).is_none(), "no self-match: strict supersets only");
        let (ws, v) = cache.get_superset(&sub, 1).expect("superset answer is resident");
        assert_eq!(v, 7);
        assert_eq!(ws, sup.keywords().to_vec());
        assert!(cache.get_superset(&sub, 2).is_none(), "stale epochs never seed");
        let other_p = key_with_terms(&net, &["SN", "QP"], 4);
        assert!(
            cache.get_superset(&other_p, 1).is_none(),
            "parameter signatures must not alias"
        );
        assert_eq!(cache.subset_hits(), 1);
        assert_eq!(cache.misses(), 0, "probes never skew the primary hit accounting");
    }
}
