//! The conflict-bitmap kernel and the one function that builds its rows.
//!
//! Theorem 3 (k-line filtering) removes, after each selection, every
//! remaining candidate within `k` hops of the new member. The classic
//! engine answers each "within k hops?" question with one
//! `DistanceOracle` probe per (selected, remaining) pair at every tree
//! node — the dominant cost of the search. The kernel hoists all of that
//! to query start: one hop-bounded BFS per candidate yields a
//! `FixedBitSet` of conflicting *candidate indices* per candidate, and
//! the DFS then derives each child pool with a single word-parallel
//! AND-NOT.
//!
//! The bitmaps cost `|C|²/64` words, so [`ConflictKernel::build`] only
//! materializes them while the candidate set fits under
//! [`BbOptions::bitmap_threshold`]; larger pools keep the oracle path.
//! Both paths compute the same hop distances over the same graph, so the
//! search result is identical either way.
//!
//! **Row reuse.** A row is determined by the ball
//! `{v : 0 < dist(c, v) ≤ k}`, a function of the graph and `k` only,
//! never of the query keywords. A serving session therefore memoizes the
//! balls in a `NeighborhoodCache` keyed `(vertex, k)` and remaps them
//! onto each query's candidate indices instead of re-running one bounded
//! BFS per candidate per query. Without a memo, each candidate's BFS
//! writes straight into its row. Either way the rows are built on the
//! calling thread; parallelism lives in the search and in the session's
//! workers.
//!
//! A memoized row is valid until an edit changes its ball. After every
//! applied edge update the session drops, under exclusive access,
//! exactly the rows the edit can reach: row `(s, k)` goes iff the edit
//! moved `s`'s distance to an endpoint and `s` lay within `k − 1` hops of
//! one before it (the lemma is on the session's invalidation). A stale
//! row is unreachable by construction.

use super::BbOptions;
use crate::candidates::Candidate;
use ktg_common::{FixedBitSet, Memo, VertexId};
use ktg_graph::bfs::{bfs_levels, BfsScratch};
use ktg_graph::Adjacency;
use std::sync::Arc;

/// The `(vertex, k)` conflict-row memo: one [`Memo`] instance keyed by
/// `(vertex id, k)`. A row is the key vertex's within-`k` ball — every
/// vertex at hop distance `1..=k`, in BFS discovery order, in graph-space
/// ids (query independent by design). Its eviction cost is the ball
/// length + 1, a deterministic proxy for the frontier work a
/// recomputation would pay.
pub(crate) type NeighborhoodCache = Memo<(u32, u32), Arc<Vec<VertexId>>>;

/// Reusable scratch for building rows: the BFS arena plus the
/// graph-sized vertex → candidate-index map, kept between queries by a
/// serving session so steady-state kernel construction allocates
/// nothing.
#[derive(Default)]
pub(crate) struct KernelScratch {
    bfs: BfsScratch,
    /// `index_of[v] = i` while building the rows of a candidate slice
    /// whose `cands[i].v = v`; `u32::MAX` elsewhere. Restored to all-`MAX`
    /// before `conflict_rows` returns, so the reset costs O(|C|), not O(|V|).
    index_of: Vec<u32>,
}

/// How the engine answers k-line conflict questions.
#[derive(Clone, Debug)]
pub enum ConflictKernel {
    /// Probe the `DistanceOracle` pair by pair (the classic path; the
    /// only option when no graph is available or the candidate set is
    /// too large for bitmaps).
    Oracle,
    /// Precomputed conflict bitsets, one per candidate, indexed by
    /// position in the candidate vector: bit `j` of entry `i` means
    /// "candidates `i` and `j` are within `k` hops".
    Bitmap(Vec<FixedBitSet>),
}

impl ConflictKernel {
    /// Builds the kernel for a query: bitmaps when the candidate set fits
    /// under `opts.bitmap_threshold` (and the threshold is non-zero),
    /// otherwise the oracle path. Each row comes from a fresh bounded BFS.
    pub fn build<A: Adjacency>(graph: &A, cands: &[Candidate], k: u32, opts: &BbOptions) -> Self {
        let mut scratch = KernelScratch::default();
        Self::build_with(graph, cands, k, opts, None, &mut scratch, &mut Vec::new())
    }

    /// [`ConflictKernel::build`] for a serving session: balls come from
    /// `memo` when it is given, and the scratch and the `rows` of an
    /// earlier kernel (handed back by [`ConflictKernel::into_bitmaps`])
    /// are reused. `rows` is left untouched on the oracle path.
    pub(crate) fn build_with<A: Adjacency>(
        graph: &A,
        cands: &[Candidate],
        k: u32,
        opts: &BbOptions,
        memo: Option<&NeighborhoodCache>,
        scratch: &mut KernelScratch,
        rows: &mut Vec<FixedBitSet>,
    ) -> Self {
        if opts.bitmap_threshold == 0 || cands.len() > opts.bitmap_threshold {
            return ConflictKernel::Oracle;
        }
        conflict_rows(graph, cands, k, memo, scratch, rows);
        ConflictKernel::Bitmap(std::mem::take(rows))
    }

    /// Whether this kernel holds precomputed bitmaps.
    #[inline]
    pub fn is_bitmap(&self) -> bool {
        matches!(self, ConflictKernel::Bitmap(_))
    }

    /// Reclaims the bitmap rows (`None` for the oracle path) so a pooled
    /// arena can recycle their allocations for the next query.
    pub fn into_bitmaps(self) -> Option<Vec<FixedBitSet>> {
        match self {
            ConflictKernel::Oracle => None,
            ConflictKernel::Bitmap(rows) => Some(rows),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ConflictKernel::Oracle => "oracle",
            ConflictKernel::Bitmap(_) => "bitmap",
        }
    }
}

/// Fills `out` with one conflict row per candidate, in `cands` order:
/// bit `j` of row `i` is set iff `0 < dist(cands[i].v, cands[j].v) ≤ k`.
/// Bits index into `cands`, not into the graph's vertex space. A
/// candidate's own bit is always unset (a BFS does not report its
/// source), so `k = 0` yields empty rows, and the matrix is symmetric;
/// both halves are materialized because the DFS masks whole rows.
///
/// With a `memo`, each candidate's ball is read from it or computed and
/// inserted; without one, each candidate's BFS marks its row directly.
/// Both answer the question from the same BFS ground truth, so the rows
/// are bit-for-bit the same. `out` rows are recycled via
/// [`FixedBitSet::reset`].
fn conflict_rows<A: Adjacency>(
    graph: &A,
    cands: &[Candidate],
    k: u32,
    memo: Option<&NeighborhoodCache>,
    scratch: &mut KernelScratch,
    out: &mut Vec<FixedBitSet>,
) {
    let m = cands.len();
    if scratch.index_of.len() < graph.num_vertices() {
        scratch.index_of.resize(graph.num_vertices(), u32::MAX);
    }
    for (i, c) in cands.iter().enumerate() {
        scratch.index_of[c.v.index()] = i as u32;
    }
    out.truncate(m);
    out.resize_with(m, || FixedBitSet::new(m));

    let KernelScratch { bfs, index_of } = scratch;
    for (i, (c, row)) in cands.iter().zip(out.iter_mut()).enumerate() {
        row.reset(m);
        let mut mark = |w: VertexId| {
            let j = index_of[w.index()];
            if j != u32::MAX {
                debug_assert!(j as usize != i, "BFS never reports its source");
                row.insert(j as usize);
            }
        };
        match memo {
            Some(memo) => ball(memo, graph, c.v, k, bfs).iter().for_each(|&w| mark(w)),
            None => bfs_levels(graph, c.v, k as usize, bfs, |w, _| mark(w)),
        }
    }

    // Sparse undo: only candidate slots were written.
    for c in cands {
        index_of[c.v.index()] = u32::MAX;
    }
}

/// Returns the within-`k` ball of `v`: from the memo when the row is
/// resident, otherwise by a bounded BFS run outside any lock (concurrent
/// misses in one stripe do not serialize their BFS work; a racing
/// duplicate insert stores an identical row).
fn ball<A: Adjacency>(
    memo: &NeighborhoodCache,
    graph: &A,
    v: VertexId,
    k: u32,
    bfs: &mut BfsScratch,
) -> Arc<Vec<VertexId>> {
    if let Some(row) = memo.get(&(v.0, k)) {
        return row;
    }
    let mut ball = Vec::new();
    bfs_levels(graph, v, k as usize, bfs, |w, _| ball.push(w));
    let row = Arc::new(ball);
    memo.insert((v.0, k), Arc::clone(&row), row.len() as u64 + 1);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_graph::CsrGraph;
    use ktg_index::{DistanceOracle, ExactOracle, NlrnlIndex};

    fn figure1_parts() -> (CsrGraph, Vec<Candidate>) {
        let net = crate::fixtures::figure1();
        let query = crate::query::KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            2,
        )
        .unwrap();
        let masks = net.compile(query.keywords());
        let cands = crate::candidates::collect_vec(net.graph(), &masks);
        (net.graph().clone(), cands)
    }

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

    /// Candidates over the given vertices; `conflict_rows` reads only `v`.
    fn cands_of(vertices: impl IntoIterator<Item = u32>) -> Vec<Candidate> {
        vertices.into_iter().map(|v| Candidate { v: VertexId(v), mask: 1, degree: 0 }).collect()
    }

    /// The rows `conflict_rows` builds from a fresh scratch.
    fn rows(
        graph: &CsrGraph,
        cands: &[Candidate],
        k: u32,
        memo: Option<&NeighborhoodCache>,
    ) -> Vec<FixedBitSet> {
        let mut out = Vec::new();
        conflict_rows(graph, cands, k, memo, &mut KernelScratch::default(), &mut out);
        out
    }

    /// The reference: every pair asked of the all-pairs `ExactOracle`.
    fn assert_exact(
        graph: &CsrGraph,
        cands: &[Candidate],
        k: u32,
        got: &[FixedBitSet],
        what: &str,
    ) {
        let oracle = ExactOracle::build(graph);
        assert_eq!(got.len(), cands.len(), "{what}: one row per candidate");
        for (i, a) in cands.iter().enumerate() {
            assert_eq!(got[i].len(), cands.len(), "{what}: row {i} spans the candidates");
            for (j, b) in cands.iter().enumerate() {
                let conflict = i != j && !oracle.farther_than(a.v, b.v, k);
                assert_eq!(got[i].contains(j), conflict, "{what}: k={k} {:?} {:?}", a.v, b.v);
            }
        }
    }

    #[test]
    fn threshold_gates_bitmap_construction() {
        let (graph, cands) = figure1_parts();
        let small = BbOptions { bitmap_threshold: cands.len(), ..BbOptions::vkc() };
        assert!(ConflictKernel::build(&graph, &cands, 1, &small).is_bitmap());
        let too_small = BbOptions { bitmap_threshold: cands.len() - 1, ..BbOptions::vkc() };
        assert!(!ConflictKernel::build(&graph, &cands, 1, &too_small).is_bitmap());
        let disabled = BbOptions { bitmap_threshold: 0, ..BbOptions::vkc() };
        assert!(!ConflictKernel::build(&graph, &cands, 1, &disabled).is_bitmap());
    }

    #[test]
    fn bitmaps_are_symmetric_and_self_free() {
        let (graph, cands) = figure1_parts();
        let kernel = ConflictKernel::build(&graph, &cands, 2, &BbOptions::vkc());
        let ConflictKernel::Bitmap(maps) = kernel else {
            panic!("expected bitmaps under the default threshold")
        };
        assert_eq!(maps.len(), cands.len());
        for (i, map) in maps.iter().enumerate() {
            assert!(!map.contains(i), "candidate {i} must not conflict with itself");
            for j in map.iter_ones() {
                assert!(maps[j].contains(i), "conflict {i}<->{j} must be symmetric");
            }
        }
    }

    #[test]
    fn names() {
        let (graph, cands) = figure1_parts();
        assert_eq!(ConflictKernel::Oracle.name(), "oracle");
        assert_eq!(ConflictKernel::build(&graph, &cands, 1, &BbOptions::vkc()).name(), "bitmap");
    }

    /// 0-1-2-3 path plus isolated 4.
    fn path() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn marks_exactly_the_within_k_candidates() {
        let rows = rows(&path(), &cands_of(0..5), 2, None);
        // Vertex 0 reaches 1 (d=1) and 2 (d=2) within 2 hops; not 3 or 4.
        assert_eq!(rows[0].iter_ones().collect::<Vec<_>>(), vec![1, 2], "own bit stays unset");
        // Isolated vertex conflicts with nothing.
        assert_eq!(rows[4].count_ones(), 0);
    }

    #[test]
    fn k_zero_yields_empty_bitmaps() {
        let memo = NeighborhoodCache::new(64);
        for memo in [None, Some(&memo)] {
            for row in rows(&path(), &cands_of(0..5), 0, memo) {
                assert_eq!(row.count_ones(), 0);
            }
        }
    }

    #[test]
    fn restricted_source_set_uses_candidate_indices() {
        // Candidates are vertices {1, 3}: dist(1,3) = 2.
        let cands = cands_of([1, 3]);
        let within_2 = rows(&path(), &cands, 2, None);
        assert!(within_2[0].contains(1), "bit 1 means candidate 3, not vertex 1");
        assert!(within_2[1].contains(0));
        let within_1 = rows(&path(), &cands, 1, None);
        assert_eq!(within_1[0].count_ones(), 0);
        assert_eq!(within_1[1].count_ones(), 0);
    }

    /// Both modes against the pairwise reference, over candidate subsets
    /// of a random graph.
    #[test]
    fn agrees_with_exact_oracle_on_random_graph() {
        let g = random_graph(40, 0.08, 0x5eed_ba7c);
        let memo = NeighborhoodCache::new(1024);
        for k in [0u32, 1, 2, 3] {
            let cands = cands_of((0..40).filter(|u| u % (k + 2) != 1));
            assert_exact(&g, &cands, k, &rows(&g, &cands, k, None), "no memo");
            assert_exact(&g, &cands, k, &rows(&g, &cands, k, Some(&memo)), "memo");
        }
    }

    /// The memo mode builds the same rows as the memo-less mode, then a
    /// second, overlapping subset from memoized balls alone, through a
    /// recycled scratch and recycled rows.
    #[test]
    fn cached_matches_uncached_and_hits_on_repeat() {
        let g = random_graph(40, 0.08, 0xCAFE);
        let memo = NeighborhoodCache::new(1024);
        let mut scratch = KernelScratch::default();
        let mut out = Vec::new();
        for k in [1u32, 2, 3] {
            let cands = cands_of((0..40).filter(|u| u % (k + 2) != 1));
            conflict_rows(&g, &cands, k, Some(&memo), &mut scratch, &mut out);
            assert_eq!(out, rows(&g, &cands, k, None), "k={k}");
            let misses = memo.misses();
            let subset: Vec<Candidate> = cands.iter().copied().step_by(2).collect();
            conflict_rows(&g, &subset, k, Some(&memo), &mut scratch, &mut out);
            assert_eq!(out, rows(&g, &subset, k, None), "subset k={k}");
            assert_eq!(memo.misses(), misses, "k={k}: every subset row was memoized");
            assert!(memo.hits() > 0);
        }
        assert!(scratch.index_of.iter().all(|&x| x == u32::MAX), "index_of is restored");
    }

    /// The locality rule on rows: after an edit, dropping exactly the
    /// rows `(s, k)` whose `s` the edit moved with `d(s) < k` (the set and
    /// distances [`NlrnlIndex::apply_update`] returns) leaves a memo whose
    /// rows equal the pairwise reference on the edited graph. Kept rows
    /// still hit; only dropped rows are recomputed.
    #[test]
    fn retain_invalidates_only_the_rows_an_edit_reaches() {
        let n = 30u32;
        let cands = cands_of(0..n);
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
            let mut index = NlrnlIndex::build_with_threads(&before, 1);
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
                let mut memo = NeighborhoodCache::new(1024);
                let mut scratch = KernelScratch::default();
                let mut out = Vec::new();
                conflict_rows(&before, &cands, k, Some(&memo), &mut scratch, &mut out);
                memo.retain(|&(s, k)| !near(s, k));
                let reclaimed = memo.reclaimed();
                assert_eq!(reclaimed, (0..n).filter(|&s| near(s, k)).count() as u64);
                let (hits, misses) = (memo.hits(), memo.misses());
                conflict_rows(&after, &cands, k, Some(&memo), &mut scratch, &mut out);
                let what = format!("case {case}, after editing ({u:?}, {v:?})");
                assert_exact(&after, &cands, k, &out, &what);
                assert_eq!(memo.misses() - misses, reclaimed, "only dropped rows recompute");
                assert_eq!(memo.hits() - hits, u64::from(n) - reclaimed, "kept rows hit");
                kept += u64::from(n) - reclaimed;
                dropped += reclaimed;
            }
        }
        assert!(kept > 0 && dropped > 0, "{kept} rows kept, {dropped} dropped");
    }

    #[test]
    fn capacity_is_bounded() {
        let g = random_graph(64, 0.1, 3);
        let memo = NeighborhoodCache::new(16);
        rows(&g, &cands_of(0..64), 2, Some(&memo));
        let resident = (0..64)
            .filter(|&u| {
                let before = memo.hits();
                ball(&memo, &g, VertexId(u), 2, &mut BfsScratch::new(64));
                memo.hits() > before
            })
            .count();
        // 16 stripes × ceil(16/16)=1 row each at most.
        assert!(resident <= 16, "{resident} rows retained past the bound");
    }

    #[test]
    fn rows_exclude_the_source() {
        let g = random_graph(12, 0.3, 9);
        let memo = NeighborhoodCache::new(64);
        let mut bfs = BfsScratch::new(12);
        for u in 0..12 {
            assert!(!ball(&memo, &g, VertexId(u), 3, &mut bfs).contains(&VertexId(u)));
        }
    }
}
