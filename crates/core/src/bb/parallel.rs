//! The root-level parallel driver.
//!
//! The first-level branches of Algorithm 1 are independent subtrees:
//! branch `i` enumerates exactly the groups whose highest-ranked member
//! (in root order) is `ord[i]`, so a round-robin partition of the root
//! indices covers every feasible group exactly once with zero
//! coordination. Each worker runs the full sequential [`Engine`] over its
//! share with a private `TopN` and [`SearchStats`]; the only shared state
//! is one [`SharedThreshold`] carrying the best proven N-th-best coverage
//! (a monotone pruning floor — it can tighten Theorem 2 early but can
//! never change what is enumerable).
//!
//! Determinism: the result ranking is a pure function of the group set
//! (canonical order, see [`crate::group::RankedGroup`]), every group
//! ranked at least as high as the final N-th best is provably explored by
//! whichever worker owns its root branch, and merging the per-worker
//! heaps through one more `TopN` selects the same N groups in the same
//! order no matter how the workers interleaved. The merged output is
//! byte-identical to the sequential engine's. Stats, by contrast, are
//! honest aggregates of work performed and do vary with thread count.

use super::kernel::ConflictKernel;
use super::sequential::Engine;
use super::{BbOptions, KtgOutcome};
use crate::candidates::Candidate;
use crate::group::RankedGroup;
use crate::query::KtgQuery;
use crate::stats::SearchStats;
use ktg_common::parallel::scope_join;
use ktg_common::{CancelToken, CompletionStatus, SharedThreshold, TopN};
use ktg_index::DistanceOracle;

/// Fans the search out over `workers` threads and deterministically
/// merges the per-worker results. All workers share one `token`: the
/// first to poll an expired deadline fires it for everyone, so the whole
/// query — not each worker — observes a single budget.
pub(super) fn run_parallel(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    kernel: &ConflictKernel,
    opts: &BbOptions,
    workers: usize,
    token: Option<&CancelToken>,
) -> KtgOutcome {
    debug_assert!(workers > 1, "run_parallel needs at least two workers");
    let shared = SharedThreshold::new();
    let shared_ref = &shared;
    let worker_parts = scope_join((0..workers).map(|offset| {
        move || {
            let mut engine = Engine::new(
                query, oracle, cands, kernel, opts, Some(shared_ref), offset, workers, token,
            );
            engine.run();
            engine.into_parts()
        }
    }));

    // Deterministic merge: workers enumerate disjoint group sets, and the
    // canonical RankedGroup order is total, so feeding every retained
    // group through one more TopN yields the N globally best groups
    // regardless of worker completion order.
    let mut merged: TopN<RankedGroup> = TopN::new(query.n());
    let mut stats = SearchStats::default();
    for (results, worker_stats) in worker_parts {
        stats.merge(&worker_stats);
        for ranked in results.into_sorted_desc() {
            merged.offer(ranked);
        }
    }
    KtgOutcome {
        groups: merged.into_sorted_desc().into_iter().map(|r| r.group).collect(),
        stats,
        // Placeholder: the dispatcher (`bb::run_with_token`) derives the
        // real status from the merged stats and the token.
        status: CompletionStatus::Exact,
    }
}
