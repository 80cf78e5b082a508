//! Batch construction of k-line conflict bitmaps.
//!
//! The conflict-bitmap kernel of the branch-and-bound search (paper §IV,
//! Theorem 3) needs, for every candidate `c`, the set of *other candidates*
//! within `k` hops of `c` — the vertices that can never share a socially
//! tenuous group with it. Computing that set once per candidate up front
//! turns the per-node k-line filtering of the DFS into a word-parallel
//! `AND-NOT` over candidate-index bitsets instead of one oracle probe per
//! (selected, remaining) pair.
//!
//! [`kline_conflict_bitmaps`] runs one hop-bounded BFS per candidate,
//! fanned out over [`ktg_common::parallel::worker_count`] scoped threads
//! with a per-worker [`BfsScratch`]. The result is exact (BFS is the
//! ground truth every [`crate::DistanceOracle`] implements), so a search
//! using these bitmaps returns byte-identical groups to one using any
//! correct oracle.

use ktg_common::parallel::{chunk_size, scope_join, worker_count};
use ktg_common::{FixedBitSet, VertexId};
use ktg_graph::bfs::{bfs_levels, BfsScratch};
use ktg_graph::csr::Adjacency;

/// Builds one conflict bitmap per source candidate, in `sources` order.
///
/// Bit `j` of bitmap `i` is set iff `0 < dist(sources[i], sources[j]) <= k`
/// — i.e. candidate `j` conflicts with candidate `i` under tenuity
/// constraint `k`. Bits index into `sources`, not into the graph's vertex
/// space. A candidate's own bit is always unset (a BFS does not revisit
/// its source), and `k = 0` therefore yields all-empty bitmaps.
///
/// Conflict is symmetric, so the returned matrix is too; both halves are
/// still materialized because the DFS masks whole rows.
pub fn kline_conflict_bitmaps<A: Adjacency + Sync>(
    graph: &A,
    sources: &[VertexId],
    k: u32,
) -> Vec<FixedBitSet> {
    let n = graph.num_vertices();
    // Vertex id -> candidate index, u32::MAX for non-candidates.
    let mut index_of = vec![u32::MAX; n];
    for (i, v) in sources.iter().enumerate() {
        index_of[v.index()] = i as u32;
    }

    let mut bitmaps: Vec<FixedBitSet> =
        (0..sources.len()).map(|_| FixedBitSet::new(sources.len())).collect();

    let chunk = chunk_size(sources.len(), worker_count());
    let index_of = &index_of;
    scope_join(sources.chunks(chunk).zip(bitmaps.chunks_mut(chunk)).map(
        |(src_chunk, bm_chunk)| {
            move || {
                let mut scratch = BfsScratch::new(n);
                for (src, bitmap) in src_chunk.iter().zip(bm_chunk.iter_mut()) {
                    bfs_levels(graph, *src, k as usize, &mut scratch, |v, _| {
                        let j = index_of[v.index()];
                        if j != u32::MAX {
                            bitmap.insert(j as usize);
                        }
                    });
                }
            }
        },
    ));

    bitmaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use crate::ExactOracle;
    use ktg_graph::csr::CsrGraph;

    /// 0-1-2-3 path plus isolated 4.
    fn fixture() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn marks_exactly_the_within_k_candidates() {
        let g = fixture();
        let sources: Vec<VertexId> = (0..5).map(VertexId).collect();
        let bitmaps = kline_conflict_bitmaps(&g, &sources, 2);
        // Vertex 0 reaches 1 (d=1) and 2 (d=2) within 2 hops; not 3 or 4.
        assert!(bitmaps[0].contains(1));
        assert!(bitmaps[0].contains(2));
        assert!(!bitmaps[0].contains(0), "own bit stays unset");
        assert!(!bitmaps[0].contains(3));
        assert!(!bitmaps[0].contains(4));
        // Isolated vertex conflicts with nothing.
        assert_eq!(bitmaps[4].count_ones(), 0);
    }

    #[test]
    fn k_zero_yields_empty_bitmaps() {
        let g = fixture();
        let sources: Vec<VertexId> = (0..5).map(VertexId).collect();
        for bm in kline_conflict_bitmaps(&g, &sources, 0) {
            assert_eq!(bm.count_ones(), 0);
        }
    }

    #[test]
    fn restricted_source_set_uses_candidate_indices() {
        let g = fixture();
        // Candidates are vertices {1, 3}: dist(1,3) = 2.
        let sources = vec![VertexId(1), VertexId(3)];
        let within_2 = kline_conflict_bitmaps(&g, &sources, 2);
        assert!(within_2[0].contains(1), "bit 1 means candidate 3, not vertex 1");
        assert!(within_2[1].contains(0));
        let within_1 = kline_conflict_bitmaps(&g, &sources, 1);
        assert_eq!(within_1[0].count_ones(), 0);
        assert_eq!(within_1[1].count_ones(), 0);
    }

    #[test]
    fn agrees_with_exact_oracle_on_random_graph() {
        let mut rng = ktg_common::SeededRng::seed_from_u64(0x5eed_ba7c);
        let n = 40;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.07) {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(n as usize, &edges).unwrap();
        let oracle = ExactOracle::build(&g);
        // An arbitrary subset of vertices as candidates.
        let sources: Vec<VertexId> = (0..n).filter(|u| u % 3 != 1).map(VertexId).collect();
        for k in [0u32, 1, 2, 3] {
            let bitmaps = kline_conflict_bitmaps(&g, &sources, k);
            for (i, &u) in sources.iter().enumerate() {
                for (j, &v) in sources.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let conflict = !oracle.farther_than(u, v, k);
                    assert_eq!(
                        bitmaps[i].contains(j),
                        conflict,
                        "k={k} u={u:?} v={v:?}"
                    );
                }
            }
        }
    }
}
