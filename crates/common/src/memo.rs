//! The sharded, bounded memo behind both serving caches.
//!
//! A serving session memoizes two things across queries: whole answers
//! (the result cache, keyed on the canonical query) and `(vertex, k)`
//! conflict rows (the row memo). Both are instances of [`Memo`], so both
//! run one policy:
//!
//! * **Sharding.** Entries live in 16 stripes picked by an
//!   [`FxHasher64`] hash of the key, each holding at most
//!   `capacity.div_ceil(16).max(1)` entries, so concurrent workers do not
//!   serialize on one lock and a long-running session cannot grow without
//!   limit.
//! * **Invalidation by retaining.** A value is valid until the state it
//!   was computed from changes in a way that can reach it. The owner
//!   then calls [`Memo::retain`] with a predicate that keeps exactly the
//!   entries the change cannot reach. It takes `&mut self`: the borrow
//!   checker proves no lookup or insert is in flight, so no pre-change
//!   value it drops can be read or stored afterwards. Each dropped entry
//!   counts as [`reclaimed`](Memo::reclaimed).
//! * **Cost eviction with recency decay.** Each entry records the cost
//!   its caller reports for recomputing it and the shard-local tick of its
//!   last hit. A full shard evicts the entry with the lowest
//!   `(cost >> (age / HALF_LIFE), seq)`, where `seq` is the unique
//!   insertion sequence, and refuses an insert cheaper than that score
//!   (caching a cheap value by evicting a more valuable one is a net
//!   loss). Clocks are logical access counters, never wall time, so the
//!   retained set is a pure function of the access sequence.
//!
//! The memo decides only what is resident: a miss falls through to the
//! caller's fresh computation, whose result equals the cached one.

use crate::hash::{FxHashMap, FxHasher64};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of stripes: a small power of two keeps the pick cheap while
/// letting a handful of workers proceed in parallel.
const SHARDS: usize = 16;

/// Recency half-life in shard ticks: an entry's benefit score halves for
/// every `HALF_LIFE` shard accesses since its last hit.
const HALF_LIFE: u64 = 64;

/// Benefit of keeping an entry: what recomputing it would cost, decayed
/// by how long it has gone unreferenced.
fn benefit_score(cost: u64, age: u64) -> u64 {
    cost >> (age / HALF_LIFE).min(63)
}

/// A resident value plus the bookkeeping eviction scores it by.
struct Entry<V> {
    value: V,
    /// Recomputation cost reported at insert (at least 1).
    cost: u64,
    /// Shard tick of the last hit or insert.
    last_touch: u64,
    /// Insertion sequence, unique per shard — eviction's total-order tie
    /// break, so the `(score, seq)` minimum is always a single entry.
    seq: u64,
}

struct Shard<K, V> {
    map: FxHashMap<K, Entry<V>>,
    /// Logical access clock: bumped once per lookup or insert.
    tick: u64,
    /// Insertion counter feeding [`Entry::seq`].
    seq: u64,
}

/// A bounded, sharded memo with cost-aware eviction (see the module
/// docs for the policy).
pub struct Memo<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Written only by [`Memo::retain`], under `&mut self`.
    reclaimed: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// Creates a memo holding at most `capacity` entries in total
    /// (rounded up to a multiple of the stripe count; a zero capacity
    /// still admits one entry per stripe).
    pub fn new(capacity: usize) -> Self {
        Memo {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard { map: FxHashMap::default(), tick: 0, seq: 0 }))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            reclaimed: 0,
        }
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entries displaced by cost eviction so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`Memo::retain`] so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Entries currently resident (all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).map.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(key: &K) -> usize {
        let mut h = FxHasher64::default();
        key.hash(&mut h);
        (h.finish() >> 56) as usize % SHARDS
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        lock(&self.shards[Self::shard_index(key)])
    }

    /// Drops every resident entry whose key fails `keep`, adding each to
    /// [`reclaimed`](Memo::reclaimed); survivors keep their values, costs
    /// and recency. Exclusive access means no lock is taken and no
    /// concurrent lookup or insert can straddle the pass. Shard clocks
    /// keep running, so eviction stays a pure function of the access
    /// sequence.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        for shard in &mut self.shards {
            // Same poison recovery as `lock`: entries are whole.
            let shard = match shard.get_mut() {
                Ok(shard) => shard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let before = shard.map.len();
            shard.map.retain(|key, _| keep(key));
            self.reclaimed += (before - shard.map.len()) as u64;
        }
    }

    /// Returns the value cached for `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_touch = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` for `key`, recording what recomputing it costs
    /// (clamped to at least 1). A new key in a full shard evicts the
    /// lowest-scoring entry, unless `cost` is below that score, in which
    /// case the insert itself is refused.
    pub fn insert(&self, key: K, value: V, cost: u64) {
        let cost = cost.max(1);
        let mut shard = self.shard(&key);
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            let weakest = shard
                .map
                .iter()
                .map(|(k, e)| {
                    let score = benefit_score(e.cost, tick.saturating_sub(e.last_touch));
                    ((score, e.seq), k)
                })
                .min_by_key(|(rank, _)| *rank)
                .map(|((score, _), k)| (score, k.clone()));
            if let Some((floor, victim)) = weakest {
                if cost < floor {
                    return;
                }
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.seq += 1;
        let seq = shard.seq;
        shard.map.insert(key, Entry { value, cost, last_touch: tick, seq });
    }
}

fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    // Entries are inserted whole under the lock, so a panicking borrower
    // cannot leave a shard half-written: recover the lock.
    match shard.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    /// `count` distinct keys that hash to one shard, in ascending order.
    fn same_shard_keys(count: usize) -> Vec<u64> {
        let shard = Memo::<u64, u64>::shard_index(&0);
        (0u64..)
            .filter(|k| Memo::<u64, u64>::shard_index(k) == shard)
            .take(count)
            .collect()
    }

    /// Whether `key` is resident, without counting a lookup or moving a
    /// shard clock.
    fn is_resident<K: Hash + Eq + Clone, V: Clone>(memo: &Memo<K, V>, key: &K) -> bool {
        memo.shard(key).map.contains_key(key)
    }

    fn is_hit(memo: &Memo<u64, u64>, key: u64) -> bool {
        let before = memo.hits();
        memo.get(&key);
        memo.hits() != before
    }

    #[test]
    fn benefit_score_decays_with_age() {
        assert_eq!(benefit_score(1024, 0), 1024);
        assert_eq!(benefit_score(1024, HALF_LIFE - 1), 1024);
        assert_eq!(benefit_score(1024, HALF_LIFE), 512);
        assert_eq!(benefit_score(1024, 10 * HALF_LIFE), 1);
        assert_eq!(benefit_score(1024, 64 * HALF_LIFE), 0, "shift clamps at 63");
        assert_eq!(benefit_score(u64::MAX, u64::MAX), 1, "no overflow at extremes");
    }

    #[test]
    fn retain_drops_exactly_the_failing_keys_and_counts_them() {
        let mut memo: Memo<u64, u64> = Memo::new(256);
        for key in 0..40u64 {
            memo.insert(key, key * 10, 1);
        }
        memo.retain(|key| key % 3 != 0);
        assert_eq!(memo.reclaimed(), 14, "keys 0, 3, …, 39 are counted as reclaimed");
        assert_eq!(memo.len(), 26);
        for key in 0..40u64 {
            let expect = (key % 3 != 0).then_some(key * 10);
            assert_eq!(memo.get(&key), expect, "key {key}: survivors keep their values");
        }
        assert_eq!((memo.hits(), memo.misses()), (26, 14), "survivors still hit");
        memo.retain(|_| true);
        assert_eq!(memo.reclaimed(), 14, "keeping everything reclaims nothing");
        memo.retain(|_| false);
        assert_eq!(memo.reclaimed(), 40, "dropping everything reclaims every survivor");
        assert!(memo.is_empty());
        memo.retain(|_| false);
        assert_eq!(memo.reclaimed(), 40, "an empty memo reclaims nothing");
        memo.insert(7, 44, 1);
        assert_eq!(memo.get(&7), Some(44), "a dropped key can be stored again");
    }

    #[test]
    fn capacity_is_bounded() {
        let memo: Memo<u64, u64> = Memo::new(16);
        for key in 1..200u64 {
            memo.insert(key, key, 1);
        }
        assert!(memo.len() <= 16, "resident {} exceeds capacity", memo.len());
        // Rows report their ball length as cost: unequal costs keep the
        // bound too (cheap inserts are refused instead of evicting).
        let rows: Memo<(u32, u32), u64> = Memo::new(16);
        for v in 0..64u32 {
            rows.insert((v, 2), u64::from(v), u64::from(v % 7) + 1);
        }
        assert!(rows.len() <= 16, "resident {} exceeds capacity", rows.len());
    }

    /// A shard emptied by `retain` frees its whole capacity: entries
    /// computed afterwards never evict anything to make room.
    #[test]
    fn cleared_entries_never_compete_with_live_ones() {
        let keys = same_shard_keys(8);
        // Capacity 64 ⇒ four entries per shard.
        let mut memo: Memo<u64, u64> = Memo::new(64);
        for &key in &keys[..4] {
            memo.insert(key, key, 1);
        }
        assert_eq!(memo.len(), 4);
        memo.retain(|_| false);
        for &key in &keys[4..] {
            memo.insert(key, key, 1);
        }
        assert_eq!(memo.reclaimed(), 4, "the whole full shard is reclaimed");
        assert_eq!(memo.evictions(), 0, "no live entry was evicted to make room");
        for &key in &keys[4..] {
            assert!(is_hit(&memo, key), "live entry {key} must be resident");
        }
        for &key in &keys[..4] {
            assert!(!is_hit(&memo, key), "cleared entry {key} survived and hit");
        }
    }

    /// Eviction removes the minimum `(benefit score, seq)` entry and
    /// rejects inserts cheaper than that floor — deterministically.
    #[test]
    fn cost_eviction_order_is_deterministic() {
        let keys = same_shard_keys(6);
        // Two independent instances replaying the same access sequence
        // must retain the same set.
        for _ in 0..2 {
            // Capacity 64 → 4 entries per stripe.
            let memo: Memo<u64, usize> = Memo::new(64);
            let costs = [100u64, 10, 1000, 50];
            for (i, cost) in costs.iter().enumerate() {
                memo.insert(keys[i], i, *cost);
            }
            // Fifth key: the victim is the cheapest resident (cost 10).
            memo.insert(keys[4], 4, 500);
            assert_eq!(memo.get(&keys[1]), None, "cheapest entry evicted");
            for i in [0usize, 2, 3, 4] {
                assert_eq!(memo.get(&keys[i]), Some(i), "survivor {i}");
            }
            // Admission floor: cheaper than the current minimum benefit
            // (cost 50) ⇒ rejected outright, residents untouched.
            memo.insert(keys[5], 5, 5);
            assert_eq!(memo.get(&keys[5]), None, "below-floor insert rejected");
            for i in [0usize, 2, 3, 4] {
                assert_eq!(memo.get(&keys[i]), Some(i), "survivor {i} after rejection");
            }
            assert_eq!(memo.evictions(), 1);
        }
    }

    /// Recency decay: an expensive entry nobody hits eventually scores
    /// below a cheap one that stays hot, and becomes the victim.
    #[test]
    fn cost_eviction_decays_unused_entries() {
        let keys = same_shard_keys(5);
        let memo: Memo<u64, usize> = Memo::new(64);
        memo.insert(keys[0], 0, 1_000_000); // expensive, then cold
        for (i, &key) in keys.iter().enumerate().take(4).skip(1) {
            memo.insert(key, i, 10);
        }
        // ~30 half-lives of hits on the cheap entries: the cold entry's
        // score decays to zero while the hot ones stay at full cost.
        for _ in 0..(30 * HALF_LIFE) {
            assert_eq!(memo.get(&keys[1]), Some(1));
        }
        memo.insert(keys[4], 4, 10);
        assert_eq!(memo.get(&keys[0]), None, "decayed expensive entry evicted");
        for (i, key) in keys.iter().enumerate().take(5).skip(1) {
            assert_eq!(memo.get(key), Some(i), "hot survivor {i}");
        }
    }

    #[test]
    fn eviction_keeps_the_expensive_row_and_drops_the_oldest_cheap_one() {
        // A star's hub row holds every leaf (cost 128, expensive to
        // rebuild); a leaf's row is just the hub (cost 2).
        let keys = same_shard_keys(5);
        let (hub, leaves) = (keys[0], &keys[1..]);
        // Capacity 64 → 4 rows per stripe.
        let memo: Memo<u64, u64> = Memo::new(64);
        memo.insert(hub, hub, 128);
        for &leaf in &leaves[..3] {
            memo.insert(leaf, leaf, 2);
        }
        assert_eq!(memo.evictions(), 0);

        // Fifth key in a full stripe: the victim is the minimum
        // (benefit, seq) — the *first-inserted cheap leaf*, never the
        // expensive hub row even though the hub is the oldest insert.
        memo.insert(leaves[3], leaves[3], 2);
        assert_eq!(memo.evictions(), 1);
        assert!(is_hit(&memo, hub), "hub row survived");
        assert!(!is_hit(&memo, leaves[0]), "oldest cheap row was evicted");
        memo.insert(leaves[0], leaves[0], 2);
        assert_eq!(memo.evictions(), 2, "its re-insert displaced the next-oldest leaf");
        assert!(!is_hit(&memo, leaves[1]));
        assert!(is_hit(&memo, leaves[0]));
    }

    /// Seeded model check: random gets, inserts (random costs) and
    /// `retain` passes with a random predicate against a plain map of the
    /// last value inserted per key that no pass has dropped since. Eviction
    /// may turn any hit into a miss, but a hit must return exactly the
    /// model's value, and a pass reclaims exactly the resident keys its
    /// predicate rejects.
    #[test]
    fn random_operations_agree_with_a_plain_map_model() {
        for seed in 0..8u64 {
            let mut rng = SeededRng::seed_from_u64(0x3e30 ^ seed);
            let capacity = [16usize, 32, 48][seed as usize % 3];
            let mut memo: Memo<u32, u64> = Memo::new(capacity);
            let mut model: FxHashMap<u32, u64> = FxHashMap::default();
            let mut next_value = 0u64;
            for step in 0..4000 {
                let key = rng.gen_range(0..96u32);
                match rng.gen_range(0..100u32) {
                    0..=54 => {
                        if let Some(got) = memo.get(&key) {
                            assert_eq!(
                                Some(got),
                                model.get(&key).copied(),
                                "seed {seed} step {step}: key {key}"
                            );
                        }
                    }
                    55..=96 => {
                        next_value += 1;
                        let cost = rng.gen_range(1..2000u64);
                        memo.insert(key, next_value, cost);
                        model.insert(key, next_value);
                    }
                    _ => {
                        // Keep the keys whose bit is set in a random mask.
                        let mask = [rng.next_u64(), rng.next_u64()];
                        let keep = |key: &u32| mask[*key as usize / 64] >> (key % 64) & 1 == 1;
                        let resident: Vec<u32> =
                            (0..96u32).filter(|key| is_resident(&memo, key)).collect();
                        let dropped = resident.iter().filter(|key| !keep(key)).count() as u64;
                        let before = memo.reclaimed();
                        memo.retain(keep);
                        model.retain(|key, _| keep(key));
                        assert_eq!(memo.reclaimed(), before + dropped, "seed {seed} step {step}");
                        for key in resident {
                            assert_eq!(
                                is_resident(&memo, &key),
                                keep(&key),
                                "seed {seed} step {step}: key {key} kept iff the predicate holds"
                            );
                        }
                    }
                }
                assert!(
                    memo.len() <= capacity,
                    "seed {seed} step {step}: {} resident over capacity {capacity}",
                    memo.len()
                );
            }
            assert!(memo.hits() > 0 && memo.evictions() > 0 && memo.reclaimed() > 0);
        }
    }
}
