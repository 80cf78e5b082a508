//! Cross-query reuse of k-line conflict rows.
//!
//! A conflict-bitmap row for candidate `c` is determined by the ball
//! `{v : 0 < dist(c, v) ≤ k}` — a function of the *graph* and `k` only,
//! never of the query keywords. Queries served against one shared graph
//! overwhelmingly repeat the same `k` values (the paper evaluates
//! `k ∈ {1..4}`), so the batched executor memoizes those balls in a
//! [`NeighborhoodCache`] keyed `(vertex, k)` and remaps them onto each
//! query's private candidate index space instead of re-running one
//! bounded BFS per candidate per query.
//!
//! The memo is a [`ktg_common::Memo`], the same sharded, bounded type as
//! the serving layer's result cache. A row is valid until an edit changes
//! its ball. After every applied edge update the serving session drops,
//! under exclusive access, exactly the rows the edit can reach: row
//! `(s, k)` goes iff the edit moved `s`'s distance to an endpoint and `s`
//! lay within `k − 1` hops of one before it (the lemma is on the
//! session's invalidation). A stale conflict row is unreachable by
//! construction.

#[cfg(test)]
use crate::batch::kline_conflict_bitmaps;
use ktg_common::{FixedBitSet, Memo, VertexId};
use ktg_graph::bfs::{bfs_levels, BfsScratch};
use ktg_graph::csr::Adjacency;
use std::sync::Arc;

/// The `(vertex, k)` conflict-row memo: one [`Memo`] instance keyed by
/// `(vertex id, k)`. A row is the key vertex's within-`k` ball — every
/// vertex at hop distance `1..=k`, in BFS discovery order, in graph-space
/// ids (query independent by design). Its eviction cost is the ball
/// length + 1, a deterministic proxy for the frontier work a
/// recomputation would pay.
pub type NeighborhoodCache = Memo<(u32, u32), Arc<Vec<VertexId>>>;

/// Returns the within-`k` ball of `v`: from the memo when the row is
/// resident, otherwise by a bounded BFS run outside any lock (concurrent misses in one stripe do not serialize
/// their BFS work; a racing duplicate insert stores an identical row).
fn row<A: Adjacency>(
    cache: &NeighborhoodCache,
    graph: &A,
    v: VertexId,
    k: u32,
    scratch: &mut BfsScratch,
) -> Arc<Vec<VertexId>> {
    if let Some(row) = cache.get(&(v.0, k)) {
        return row;
    }
    scratch.fit(graph.num_vertices());
    let mut ball = Vec::new();
    bfs_levels(graph, v, k as usize, scratch, |w, _| ball.push(w));
    let row = Arc::new(ball);
    cache.insert((v.0, k), Arc::clone(&row), row.len() as u64 + 1);
    row
}

/// Reusable per-worker scratch for [`conflict_bitmaps_cached`]: the BFS
/// arena plus the graph-sized vertex → candidate-index map, kept between
/// queries so steady-state kernel construction allocates nothing.
#[derive(Default)]
pub struct KernelScratch {
    bfs: BfsScratch,
    /// `index_of[v] = i` while building a kernel whose `sources[i] = v`;
    /// `u32::MAX` elsewhere. Restored to all-`MAX` before returning, so
    /// the reset costs O(|sources|), not O(|V|).
    index_of: Vec<u32>,
}

/// [`kline_conflict_bitmaps`](crate::batch::kline_conflict_bitmaps)'s memoizing twin: builds the same
/// per-candidate conflict bitsets, but sources each candidate's
/// within-`k` ball from `cache` (computing only the missing rows) and
/// remaps graph-space balls onto the query's candidate index space with
/// the pooled `scratch.index_of` table. `out` rows are recycled via
/// [`FixedBitSet::reset`].
///
/// The result is bit-for-bit the matrix that
/// [`kline_conflict_bitmaps`](crate::batch::kline_conflict_bitmaps)
/// returns for the same `(graph, sources, k)` — both answer "is
/// `dist(sources[i], sources[j])` in `1..=k`" from the same BFS ground
/// truth — which is what keeps cached serving byte-identical to fresh
/// solves.
pub fn conflict_bitmaps_cached<A: Adjacency>(
    graph: &A,
    sources: &[VertexId],
    k: u32,
    cache: &NeighborhoodCache,
    scratch: &mut KernelScratch,
    out: &mut Vec<FixedBitSet>,
) {
    let m = sources.len();
    if scratch.index_of.len() < graph.num_vertices() {
        scratch.index_of.resize(graph.num_vertices(), u32::MAX);
    }
    for (i, v) in sources.iter().enumerate() {
        scratch.index_of[v.index()] = i as u32;
    }

    out.truncate(m);
    while out.len() < m {
        out.push(FixedBitSet::new(m));
    }
    for (i, (src, bitmap)) in sources.iter().zip(out.iter_mut()).enumerate() {
        bitmap.reset(m);
        let ball = row(cache, graph, *src, k, &mut scratch.bfs);
        for w in ball.iter() {
            let j = scratch.index_of[w.index()];
            if j != u32::MAX {
                debug_assert!(j as usize != i, "BFS never reports its source");
                bitmap.insert(j as usize);
            }
        }
    }

    // Sparse undo: only candidate slots were written.
    for v in sources {
        scratch.index_of[v.index()] = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_graph::csr::CsrGraph;

    fn random_graph(n: u32, density: f64, seed: u64) -> CsrGraph {
        let mut rng = ktg_common::SeededRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(density) {
                    edges.push((u, v));
                }
            }
        }
        CsrGraph::from_edges(n as usize, &edges).unwrap()
    }

    #[test]
    fn cached_matches_uncached_and_hits_on_repeat() {
        let g = random_graph(40, 0.08, 0xCAFE);
        let cache = NeighborhoodCache::new(1024);
        let mut scratch = KernelScratch::default();
        let mut out = Vec::new();
        for k in [1u32, 2, 3] {
            let sources: Vec<VertexId> =
                (0..40).filter(|u| u % (k + 2) != 1).map(VertexId).collect();
            let fresh = kline_conflict_bitmaps(&g, &sources, k);
            conflict_bitmaps_cached(&g, &sources, k, &cache, &mut scratch, &mut out);
            assert_eq!(out, fresh, "k={k}");
            // Second build over a *different* candidate subset sharing
            // vertices: rows come from the memo, result still matches.
            let misses_before = cache.misses();
            let subset: Vec<VertexId> = sources.iter().copied().step_by(2).collect();
            let fresh_subset = kline_conflict_bitmaps(&g, &subset, k);
            conflict_bitmaps_cached(&g, &subset, k, &cache, &mut scratch, &mut out);
            assert_eq!(out, fresh_subset, "subset k={k}");
            assert_eq!(cache.misses(), misses_before, "all subset rows memoized");
            assert!(cache.hits() > 0);
        }
        // index_of must have been restored for every candidate slot.
        assert!(scratch.index_of.iter().all(|&x| x == u32::MAX));
    }

    /// The locality rule on rows: after an edit, dropping exactly the
    /// rows `(s, k)` whose `s` the edit moved with `d(s) < k` (the set and
    /// distances [`NlrnlIndex::apply_update`](crate::NlrnlIndex::apply_update)
    /// returns) leaves a memo whose kernels equal fresh ones on the edited
    /// graph. Kept rows still hit; only dropped rows are recomputed.
    #[test]
    fn retain_invalidates_only_the_rows_an_edit_reaches() {
        let n = 30u32;
        let sources: Vec<VertexId> = (0..n).map(VertexId).collect();
        let mut rng = ktg_common::SeededRng::seed_from_u64(0x20E5);
        let (mut kept, mut dropped) = (0u64, 0u64);
        for case in 0..40u64 {
            let before = random_graph(n, 0.08, case);
            let edges: Vec<(VertexId, VertexId)> = before
                .vertices()
                .flat_map(|u| before.neighbors(u).iter().map(move |&v| (u, v)))
                .collect();
            let (u, v) = match rng.choose(&edges) {
                Some(&edge) if rng.gen_bool(0.5) => edge,
                _ => loop {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        break (VertexId(u), VertexId(v));
                    }
                },
            };
            let mut index = crate::NlrnlIndex::build_with_threads(&before, 1);
            let update = index.prepare_update(&before, u, v);
            let mut after = before.clone();
            if after.has_edge(u, v) {
                after.remove_edge(u, v).unwrap();
            } else {
                after.insert_edge(u, v).unwrap();
            }
            let moved = index.apply_update(&after, update);
            let near = |s: u32, k: u32| {
                moved.binary_search_by_key(&VertexId(s), |&(w, _)| w).is_ok_and(|i| moved[i].1 < k)
            };
            for k in 1..=3u32 {
                let mut cache = NeighborhoodCache::new(1024);
                let mut scratch = KernelScratch::default();
                let mut out = Vec::new();
                conflict_bitmaps_cached(&before, &sources, k, &cache, &mut scratch, &mut out);
                cache.retain(|&(s, k)| !near(s, k));
                let reclaimed = cache.reclaimed();
                assert_eq!(reclaimed, (0..n).filter(|&s| near(s, k)).count() as u64);
                let (hits, misses) = (cache.hits(), cache.misses());
                conflict_bitmaps_cached(&after, &sources, k, &cache, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    kline_conflict_bitmaps(&after, &sources, k),
                    "case {case} k={k}: a kept row is stale after editing ({u:?}, {v:?})"
                );
                assert_eq!(cache.misses() - misses, reclaimed, "only dropped rows recompute");
                assert_eq!(cache.hits() - hits, u64::from(n) - reclaimed, "kept rows hit");
                kept += u64::from(n) - reclaimed;
                dropped += reclaimed;
            }
        }
        assert!(kept > 0 && dropped > 0, "{kept} rows kept, {dropped} dropped");
    }

    #[test]
    fn capacity_is_bounded() {
        let g = random_graph(64, 0.1, 3);
        let cache = NeighborhoodCache::new(16);
        let mut scratch = KernelScratch::default();
        let sources: Vec<VertexId> = (0..64).map(VertexId).collect();
        let mut out = Vec::new();
        conflict_bitmaps_cached(&g, &sources, 2, &cache, &mut scratch, &mut out);
        let cached: usize = (0..64)
            .filter(|&u| {
                let mut s = BfsScratch::new(64);
                let before = cache.hits();
                row(&cache, &g, VertexId(u), 2, &mut s);
                cache.hits() > before
            })
            .count();
        // 16 stripes × ceil(16/16)=1 row each at most.
        assert!(cached <= 16, "{cached} rows retained past the bound");
    }

    #[test]
    fn rows_exclude_the_source() {
        let g = random_graph(12, 0.3, 9);
        let cache = NeighborhoodCache::new(64);
        let mut scratch = BfsScratch::new(12);
        for u in 0..12 {
            let ball = row(&cache, &g, VertexId(u), 3, &mut scratch);
            assert!(!ball.contains(&VertexId(u)));
        }
    }
}
