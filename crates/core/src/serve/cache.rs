//! The result cache and its query key.
//!
//! Served workloads repeat themselves: popular keyword combinations come
//! back query after query (the Zipf-shaped access pattern every
//! query-serving system sees). [`ResultCache`] memoizes whole answers
//! keyed on the query, so a repeat costs one hash lookup
//! and a clone instead of a branch-and-bound search. It is one instance
//! of [`ktg_common::Memo`], the sharded, bounded memo with cost-aware
//! eviction that also holds the `(vertex, k)` conflict rows; each entry's
//! cost is the solve nanos that produced it. After every applied edge
//! update the session drops exactly the entries the edit can change,
//! reading only [`CacheKey::keywords`] and [`CacheKey::k`].
//!
//! [`CacheKey`] is the query's identity and nothing else: the kind (KTG
//! or DKTG), the keyword ids in the query's own bit order, `p`, `k`, `N`
//! and `γ`. The workload parser sorts every query's keyword ids, so
//! permuted workload lines share one key; a programmatic query in
//! another order gets its own entry, whose stored coverage masks are in
//! its bit order. Engine options are not part of it: a cache belongs to
//! one session, and a session's engine options never change. Deadlines
//! do not matter either, because the executor only ever inserts `Exact`
//! answers, and an exact answer is independent of whatever deadline
//! failed to fire.

use ktg_common::Memo;

use crate::dktg::DktgQuery;
use crate::query::KtgQuery;

/// The session's whole-answer memo.
pub type ResultCache<V> = Memo<CacheKey, V>;

/// A query identity: two queries with the same key are guaranteed the
/// same answer (in one session, until an applied update reaches a holder
/// of its keywords).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 0 = KTG, 1 = DKTG — keeps the two query families from colliding.
    kind: u8,
    /// Query keyword ids in mask-bit order.
    keywords: Vec<u32>,
    p: usize,
    k: u32,
    n: usize,
    /// `γ.to_bits()` for DKTG, 0 for KTG.
    gamma_bits: u64,
}

impl CacheKey {
    /// Key for a KTG query.
    pub fn ktg(query: &KtgQuery) -> Self {
        let keywords: Vec<u32> = query.keywords().ids().iter().map(|id| id.0).collect();
        CacheKey { kind: 0, keywords, p: query.p(), k: query.k(), n: query.n(), gamma_bits: 0 }
    }

    /// Key for a DKTG query.
    pub fn dktg(query: &DktgQuery) -> Self {
        CacheKey { kind: 1, gamma_bits: query.gamma().to_bits(), ..CacheKey::ktg(query.base()) }
    }

    /// The query's keyword ids, in mask-bit order: its candidates are
    /// the holders of these ids.
    pub fn keywords(&self) -> &[u32] {
        &self.keywords
    }

    /// The query's tenuity bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn paper_key(net: &crate::network::AttributedGraph, terms: [&str; 5]) -> CacheKey {
        let query =
            KtgQuery::new(net.query_keywords(terms).unwrap(), 3, 1, 2).unwrap();
        CacheKey::ktg(&query)
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
        let base = CacheKey::ktg(&query);
        assert_ne!(base, CacheKey::ktg(&query.with_n(3).unwrap()));
        // DKTG with the same base query must not collide with KTG.
        let dq = DktgQuery::new(query.clone(), 0.5).unwrap();
        assert_ne!(base, CacheKey::dktg(&dq));
        let dq2 = DktgQuery::new(query, 0.7).unwrap();
        assert_ne!(CacheKey::dktg(&dq2), CacheKey::dktg(&dq), "gamma is part of the DKTG identity");
    }

    #[test]
    fn get_insert_roundtrip_counts_hits() {
        let net = fixtures::figure1();
        let key = paper_key(&net, ["SN", "QP", "DQ", "GQ", "GD"]);
        let cache: ResultCache<u32> = ResultCache::new(64);
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), 42, 1);
        assert_eq!(cache.get(&key), Some(42));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.reclaimed(), 0);
    }
}
