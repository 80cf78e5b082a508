//! The **NL** index — per-vertex h-hop neighbor lists (paper §V-A).
//!
//! For every vertex the index stores the hop levels `1..=h`, where `h` is
//! chosen as *the level with the most neighbors* ("we choose the number of
//! m-hop neighbors with the maximal one as h value"). Checking whether
//! `Dis(u, v) > k` (Algorithm 2) then has two regimes:
//!
//! * `h ≥ k` — scan the stored levels `1..=k` for `v`; miss ⇒ farther.
//! * `h < k` — scan the stored levels, then **expand** level by level
//!   (neighbors of the current deepest level, minus everything already
//!   within it) up to level `k`. Expanded levels are cached back into the
//!   index, mirroring the paper's `L[u_j][j+1] = expandNeighbor(...)`
//!   assignment. This expansion is the cost the NLRNL index removes, and
//!   is why NL degrades for large `k` (paper Figure 7b).
//!
//! Unlike NLRNL, NL stores *full* lists — both directions of every pair —
//! which is why its space footprint is larger (paper Figure 9a).

use crate::leveled::LeveledList;
use crate::oracle::DistanceOracle;
use crate::space::{BuildStats, IndexSpace};
use ktg_common::{parallel, EpochMarker, FxHashMap, Stopwatch, VertexId};
use ktg_graph::{bfs, Adjacency, BfsScratch, CsrGraph};
use std::sync::{Mutex, MutexGuard};

/// Number of expansion-cache shards. Expansion state is keyed by the
/// *source* vertex, so striping the cache by a vertex-hash lets
/// concurrent searches (the `bb::parallel` workers of
/// `ktg query --oracle nl --threads N`, which share one index) expand
/// different sources without serializing on a single lock. A small fixed
/// power of two keeps the shard pick one multiply + shift.
const EXPANSION_SHARDS: usize = 16;

/// The NL (h-hop neighbors list) index.
pub struct NlIndex<'g, G: Adjacency = CsrGraph> {
    graph: &'g G,
    /// Per-vertex `h` (0 for isolated vertices).
    h: Vec<u32>,
    /// Per-vertex stored levels `1..=h` (slot `i` ⇔ hop `i + 1`).
    levels: Vec<LeveledList>,
    /// Query-time cache of expanded levels, striped by source-vertex
    /// hash: vertex → levels `h+1, h+2, …`. An empty level marks frontier
    /// exhaustion (all deeper levels empty).
    expanded: [Mutex<ExpansionShard>; EXPANSION_SHARDS],
    stats: BuildStats,
}

/// One stripe of the expansion cache. Each shard owns a private
/// [`EpochMarker`] (grown lazily to `|V|` on first expansion through the
/// shard, preserving the wrap-around epoch semantics), so concurrent
/// expansions in different shards never share marking state.
#[derive(Default)]
struct ExpansionShard {
    extra: FxHashMap<u32, Vec<Vec<VertexId>>>,
    marker: EpochMarker,
}

/// Fibonacci-hash shard pick for a source vertex.
#[inline]
fn shard_of(u: VertexId) -> usize {
    ((u.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % EXPANSION_SHARDS
}

impl<'g, G: Adjacency + Sync> NlIndex<'g, G> {
    /// Builds the index with one full BFS per vertex, parallelized across
    /// available cores.
    pub fn build(graph: &'g G) -> Self {
        let start = Stopwatch::start();
        let n = graph.num_vertices();
        let mut h = vec![0u32; n];
        let mut levels: Vec<LeveledList> = vec![LeveledList::default(); n];

        let chunk = parallel::chunk_size(n, parallel::worker_count());
        let entries: usize = parallel::scope_join(
            h.chunks_mut(chunk)
                .zip(levels.chunks_mut(chunk))
                .enumerate()
                .map(|(ci, (h_chunk, level_chunk))| {
                    move || {
                        let mut scratch = BfsScratch::new(n);
                        let base = ci * chunk;
                        let mut local_entries = 0usize;
                        for (off, (hv, lv)) in
                            h_chunk.iter_mut().zip(level_chunk.iter_mut()).enumerate()
                        {
                            let v = VertexId::new(base + off);
                            // The paper picks `h` as the widest level. Hop
                            // widths of small-world graphs are unimodal, so
                            // the traversal stops one level past the first
                            // width decrease — this truncation is what makes
                            // the NL build cheaper than NLRNL's full BFS
                            // (Figure 9b). A later width peak would merely
                            // pick a smaller `h`; correctness never depends
                            // on the choice (deeper levels expand on demand).
                            let mut levels =
                                bfs::collect_levels_while(graph, v, &mut scratch, |lv| {
                                    lv.len() < 2
                                        || lv[lv.len() - 1].len() >= lv[lv.len() - 2].len()
                                });
                            for level in &mut levels {
                                level.sort_unstable();
                            }
                            let chosen = argmax_level(&levels);
                            *hv = chosen as u32;
                            *lv = LeveledList::from_levels(&levels[..chosen]);
                            local_entries += lv.total_len();
                        }
                        local_entries
                    }
                }),
        )
        .into_iter()
        .sum();

        NlIndex {
            graph,
            h,
            levels,
            // Shard markers start empty and grow to |V| on first use, so
            // an index over a graph that never needs expansion pays no
            // per-shard arena cost.
            expanded: std::array::from_fn(|_| Mutex::new(ExpansionShard::default())),
            stats: BuildStats { elapsed: start.elapsed(), traversals: n, entries },
        }
    }

    /// Locks one expansion shard, recovering from poisoning: a panicking
    /// expander can leave at most a *shorter* cached prefix of levels,
    /// never an inconsistent one (levels are pushed fully formed).
    fn shard(&self, u: VertexId) -> MutexGuard<'_, ExpansionShard> {
        match self.expanded[shard_of(u)].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The per-vertex `h` value.
    pub fn h(&self, v: VertexId) -> u32 {
        self.h[v.index()]
    }

    /// Construction statistics.
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Storage breakdown. NL has no reverse lists; the expansion cache is
    /// query-time state and reported under `aux_bytes`, summed across the
    /// shards.
    pub fn space(&self) -> IndexSpace {
        let forward_bytes: usize = self.levels.iter().map(LeveledList::heap_bytes).sum();
        let mut cache_bytes = 0usize;
        for shard in &self.expanded {
            let shard = match shard.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            cache_bytes += shard
                .extra
                .values()
                .flat_map(|lvls| lvls.iter())
                .map(|l| l.len() * std::mem::size_of::<VertexId>())
                .sum::<usize>();
        }
        IndexSpace {
            forward_bytes,
            reverse_bytes: 0,
            aux_bytes: self.h.len() * std::mem::size_of::<u32>() + cache_bytes,
        }
    }

    /// Algorithm 2: `true` iff `Dis(u, v) > k`, answered from `u`'s lists.
    fn check(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        if u == v {
            return false;
        }
        if k == 0 {
            return true; // distinct vertices are at distance ≥ 1 > 0
        }
        let h = self.h[u.index()];
        let lists = &self.levels[u.index()];
        if h >= k {
            // Case 1: everything we need is stored.
            return lists.find_up_to(k as usize - 1, v).is_none();
        }
        // Case 2: scan what is stored, then expand h+1 ..= k.
        if lists.find_up_to(h.saturating_sub(1) as usize, v).is_some() {
            return false;
        }
        self.check_with_expansion(u, v, k, h)
    }

    /// Expands `u`'s hop levels beyond `h` up to level `k`, caching the
    /// results, and reports whether `v` was found (⇒ within `k`).
    /// Only `u`'s shard is locked, so expansions from sources hashing to
    /// different stripes proceed concurrently.
    fn check_with_expansion(&self, u: VertexId, v: VertexId, k: u32, h: u32) -> bool {
        let mut shard = self.shard(u);
        let ExpansionShard { extra, marker } = &mut *shard;
        let extra = extra.entry(u.0).or_default();

        // Check already-cached expansion levels (h+1 ..= h+len).
        for (i, level) in extra.iter().enumerate() {
            if h + 1 + i as u32 > k {
                return true;
            }
            if level.binary_search(&v).is_ok() {
                return false;
            }
            if level.is_empty() {
                return true; // frontier exhausted earlier
            }
        }

        let mut depth = h + extra.len() as u32;
        if depth >= k {
            return true;
        }

        // Mark everything within `depth` hops of u.
        marker.grow(self.graph.num_vertices());
        marker.reset();
        marker.mark_vertex(u);
        let stored = &self.levels[u.index()];
        for slot in 0..stored.num_levels() {
            for &x in stored.level(slot) {
                marker.mark_vertex(x);
            }
        }
        for level in extra.iter() {
            for &x in level {
                marker.mark_vertex(x);
            }
        }

        while depth < k {
            // The current deepest level is the expansion frontier.
            let frontier: Vec<VertexId> = if depth == 0 {
                vec![u]
            } else if depth <= h {
                stored.level(depth as usize - 1).to_vec()
            } else {
                extra[(depth - h) as usize - 1].clone()
            };
            let mut next: Vec<VertexId> = Vec::new();
            for x in frontier {
                self.graph.for_each_neighbor(x, |y| {
                    if marker.mark_vertex(y) {
                        next.push(y);
                    }
                });
            }
            next.sort_unstable();
            let found = next.binary_search(&v).is_ok();
            let exhausted = next.is_empty();
            extra.push(next);
            depth += 1;
            if found {
                return false;
            }
            if exhausted {
                return true;
            }
        }
        true
    }
}

impl<G: Adjacency + Sync> DistanceOracle for NlIndex<'_, G> {
    fn farther_than(&self, u: VertexId, v: VertexId, k: u32) -> bool {
        self.check(u, v, k)
    }

    fn name(&self) -> &'static str {
        "nl"
    }
}

/// 1-based index of the widest level (0 for no levels). Ties pick the
/// shallowest, maximizing how many checks stay in Case 1.
fn argmax_level(levels: &[Vec<VertexId>]) -> usize {
    let mut best = 0usize;
    let mut best_len = 0usize;
    for (i, level) in levels.iter().enumerate() {
        if level.len() > best_len {
            best_len = level.len();
            best = i + 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactOracle;

    /// Path 0-1-2-3-4-5 — distances are easy to eyeball; every level has
    /// width ≤ 2, h lands at 1.
    fn path6() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap()
    }

    fn assert_matches_exact(g: &CsrGraph, k_max: u32) {
        let nl = NlIndex::build(g);
        let exact = ExactOracle::build(g);
        for u in g.vertices() {
            for v in g.vertices() {
                for k in 0..=k_max {
                    assert_eq!(
                        nl.farther_than(u, v, k),
                        exact.farther_than(u, v, k),
                        "({u:?}, {v:?}, k={k})"
                    );
                }
            }
        }
    }

    #[test]
    fn path_all_pairs_all_k() {
        assert_matches_exact(&path6(), 7);
    }

    #[test]
    fn star_all_pairs() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        assert_matches_exact(&g, 4);
    }

    #[test]
    fn disconnected_all_pairs() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        assert_matches_exact(&g, 5);
    }

    #[test]
    fn h_is_widest_level() {
        // Star from 0: level 1 has 5 vertices → h(0) = 1. Leaf 1: level 1
        // = {0}, level 2 = {2,3,4,5} → h(1) = 2.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let nl = NlIndex::build(&g);
        assert_eq!(nl.h(VertexId(0)), 1);
        assert_eq!(nl.h(VertexId(1)), 2);
    }

    #[test]
    fn expansion_is_cached_and_consistent() {
        let g = path6();
        let nl = NlIndex::build(&g);
        // k = 4 from vertex 0 forces expansion past h.
        let first = nl.farther_than(VertexId(0), VertexId(5), 4);
        let second = nl.farther_than(VertexId(0), VertexId(5), 4);
        assert_eq!(first, second);
        assert!(first, "Dis(0,5) = 5 > 4");
        assert!(!nl.farther_than(VertexId(0), VertexId(4), 4));
        let space = nl.space();
        assert!(space.aux_bytes > 0, "expansion cache accounted");
    }

    /// Four threads hammer the same index with expansion-forcing queries
    /// (k far past every per-vertex h): every answer must match the exact
    /// oracle no matter how the striped shards interleave, and the cache
    /// must end up populated.
    #[test]
    fn concurrent_expansion_matches_exact() {
        let g = CsrGraph::from_edges(
            10,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
        )
        .unwrap();
        let nl = NlIndex::build(&g);
        let exact = ExactOracle::build(&g);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let nl = &nl;
                let exact = &exact;
                let g = &g;
                s.spawn(move || {
                    for u in g.vertices() {
                        for v in g.vertices() {
                            // Different threads sweep k in different
                            // orders to vary the expansion interleaving.
                            for i in 0..=10u32 {
                                let k = if t % 2 == 0 { i } else { 10 - i };
                                assert_eq!(
                                    nl.farther_than(u, v, k),
                                    exact.farther_than(u, v, k),
                                    "({u:?}, {v:?}, k={k})"
                                );
                            }
                        }
                    }
                });
            }
        });
        assert!(nl.space().aux_bytes > 0, "expansion cache populated");
    }

    #[test]
    fn isolated_vertex_always_farther() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let nl = NlIndex::build(&g);
        assert!(nl.farther_than(VertexId(0), VertexId(2), 100));
        assert!(nl.farther_than(VertexId(2), VertexId(0), 100));
        assert_eq!(nl.h(VertexId(2)), 0);
    }

    #[test]
    fn k_zero_semantics() {
        let g = path6();
        let nl = NlIndex::build(&g);
        assert!(nl.farther_than(VertexId(0), VertexId(1), 0));
        assert!(!nl.farther_than(VertexId(0), VertexId(0), 0));
    }

    #[test]
    fn space_positive_for_nonempty() {
        let g = path6();
        let nl = NlIndex::build(&g);
        assert!(nl.space().forward_bytes > 0);
        assert!(nl.build_stats().entries > 0);
        assert_eq!(nl.build_stats().traversals, 6);
    }

    #[test]
    fn cycle_all_pairs() {
        let g =
            CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
                .unwrap();
        assert_matches_exact(&g, 6);
    }

    /// Differential audit of the truncation boundary: `argmax_level`
    /// chooses `h` and exactly `levels[..h]` (hops `1..=h`) is stored, so
    /// any off-by-one between the stored depth and the Case-1/Case-2 split
    /// in `check` shows up as a disagreement with brute-force BFS. Random
    /// graphs across densities exercise `h = 0` (isolated), `h = 1`
    /// (dense), deep truncated BFS (sparse paths), and disconnected pairs.
    #[test]
    fn truncation_boundary_matches_bfs_on_random_graphs() {
        let mut rng = ktg_common::SeededRng::seed_from_u64(0xA11CE);
        for case in 0..40 {
            let n = rng.gen_range(2usize..18);
            let density = rng.gen_range(0.0..0.5);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(density) {
                        edges.push((u as u32, v as u32));
                    }
                }
            }
            let g = CsrGraph::from_edges(n, &edges).unwrap();
            let nl = NlIndex::build(&g);
            let exact = ExactOracle::build(&g);
            // k sweeps past the diameter, and past every per-vertex h.
            for u in g.vertices() {
                for v in g.vertices() {
                    for k in 0..(n as u32 + 2) {
                        assert_eq!(
                            nl.farther_than(u, v, k),
                            exact.farther_than(u, v, k),
                            "case {case} n={n} ({u:?}, {v:?}, k={k}), h(u)={}",
                            nl.h(u)
                        );
                    }
                }
            }
        }
    }

    /// The boundary ks specifically: for every vertex, query exactly at
    /// `k = h - 1`, `h`, and `h + 1`, where Case 1 hands over to Case 2.
    #[test]
    fn queries_at_the_stored_depth_boundary() {
        let mut rng = ktg_common::SeededRng::seed_from_u64(0xB0B);
        for _ in 0..20 {
            let n = rng.gen_range(3usize..14);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.25) {
                        edges.push((u as u32, v as u32));
                    }
                }
            }
            let g = CsrGraph::from_edges(n, &edges).unwrap();
            let nl = NlIndex::build(&g);
            let exact = ExactOracle::build(&g);
            for u in g.vertices() {
                let h = nl.h(u);
                for v in g.vertices() {
                    for k in h.saturating_sub(1)..=h + 1 {
                        assert_eq!(
                            nl.farther_than(u, v, k),
                            exact.farther_than(u, v, k),
                            "boundary ({u:?}, {v:?}) h={h} k={k}"
                        );
                    }
                }
            }
        }
    }
}
