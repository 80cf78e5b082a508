//! The conflict-bitmap kernel.
//!
//! Theorem 3 (k-line filtering) removes, after each selection, every
//! remaining candidate within `k` hops of the new member. The classic
//! engine answers each "within k hops?" question with one
//! `DistanceOracle` probe per (selected, remaining) pair at every tree
//! node — the dominant cost of the search. The kernel hoists all of that
//! to query start: one hop-bounded BFS per candidate (run in parallel by
//! [`ktg_index::kline_conflict_bitmaps`]) yields a `FixedBitSet` of
//! conflicting *candidate indices* per candidate, and the DFS then
//! derives each child pool with a single word-parallel AND-NOT.
//!
//! The bitmaps cost `|C|²/64` words, so [`ConflictKernel::build`] only
//! materializes them while the candidate set fits under
//! [`BbOptions::bitmap_threshold`]; larger pools keep the oracle path.
//! Both paths compute the same hop distances over the same graph, so the
//! search result is identical either way.

use super::BbOptions;
use crate::candidates::Candidate;
use ktg_common::{FixedBitSet, VertexId};
use ktg_graph::Adjacency;

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
    /// The gating predicate of [`ConflictKernel::build`]: whether a
    /// candidate set of `len` gets bitmaps under these options. Exposed so
    /// the batched executor (which assembles its rows through the
    /// [`ktg_index::NeighborhoodCache`] memo instead of calling `build`)
    /// takes the bitmap-vs-oracle fork on *exactly* the same condition —
    /// a divergence here would still be correct but would break the
    /// byte-identical-stats contract with fresh solves.
    #[inline]
    pub fn wants_bitmap(len: usize, opts: &BbOptions) -> bool {
        opts.bitmap_threshold != 0 && len <= opts.bitmap_threshold
    }

    /// Builds the kernel for a query: bitmaps when the candidate set fits
    /// under `opts.bitmap_threshold` (and the threshold is non-zero),
    /// otherwise the oracle path.
    pub fn build<A: Adjacency + Sync>(graph: &A, cands: &[Candidate], k: u32, opts: &BbOptions) -> Self {
        if !Self::wants_bitmap(cands.len(), opts) {
            return ConflictKernel::Oracle;
        }
        let sources: Vec<VertexId> = cands.iter().map(|c| c.v).collect();
        ConflictKernel::Bitmap(ktg_index::kline_conflict_bitmaps(graph, &sources, k))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_parts() -> (ktg_graph::CsrGraph, Vec<Candidate>) {
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
}
