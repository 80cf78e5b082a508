//! The brute-force exact baseline (paper §III).
//!
//! Enumerates every `C(|candidates|, p)` combination, keeps the feasible
//! k-distance groups, and returns the top-N by coverage with the same tie
//! semantics as the branch-and-bound engine. `O(|V|^p)` — the paper's
//! strawman, retained as the ground truth for the property-test suite and
//! as the slow end of the ablation benches.

use crate::candidates::{self, Candidate};
use crate::bb::KtgOutcome;
use crate::group::{Group, RankedGroup};
use crate::network::AttributedGraph;
use crate::query::KtgQuery;
use crate::stats::SearchStats;
use ktg_common::TopN;
use ktg_index::DistanceOracle;

/// Runs the brute-force search end to end.
pub fn solve(
    net: &AttributedGraph,
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
) -> KtgOutcome {
    let masks = net.compile(query.keywords());
    let cands = candidates::collect_vec(net.graph(), &masks);
    solve_with_candidates(query, oracle, cands)
}

/// Brute-force search over a pre-extracted candidate pool.
pub fn solve_with_candidates(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: Vec<Candidate>,
) -> KtgOutcome {
    let mut results: TopN<RankedGroup> = TopN::new(query.n());
    let mut stats = SearchStats::default();
    let mut chosen: Vec<usize> = Vec::with_capacity(query.p());
    enumerate(&cands, query, oracle, 0, 0, &mut chosen, &mut results, &mut stats);
    KtgOutcome {
        groups: results.into_sorted_desc().into_iter().map(|r| r.group).collect(),
        stats,
        status: ktg_common::CompletionStatus::Exact,
    }
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    cands: &[Candidate],
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    start: usize,
    covered: u64,
    chosen: &mut Vec<usize>,
    results: &mut TopN<RankedGroup>,
    stats: &mut SearchStats,
) {
    stats.nodes += 1;
    if chosen.len() == query.p() {
        stats.groups_evaluated += 1;
        let members = chosen.iter().map(|&i| cands[i].v).collect();
        results.offer(RankedGroup::new(Group::new(members, covered)));
        return;
    }
    for i in start..cands.len() {
        // Plain combination enumeration: the only cut is the tenuity
        // check itself (the brute-force method of §III verifies each
        // complete group; checking incrementally is equivalent and keeps
        // the runtime survivable for tests).
        stats.distance_checks += chosen.len() as u64;
        let feasible = chosen
            .iter()
            .all(|&j| oracle.farther_than(cands[j].v, cands[i].v, query.k()));
        if !feasible {
            continue;
        }
        chosen.push(i);
        enumerate(cands, query, oracle, i + 1, covered | cands[i].mask, chosen, results, stats);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{self, BbOptions, MemberOrdering};
    use crate::fixtures;
    use ktg_index::ExactOracle;

    #[test]
    fn matches_bb_on_figure1() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        for (p, k, n) in [(3usize, 1u32, 2usize), (2, 2, 3), (4, 1, 1), (3, 2, 5)] {
            let query = KtgQuery::new(
                net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
                p,
                k,
                n,
            )
            .unwrap();
            let brute = solve(&net, &query, &oracle);
            for ordering in
                [MemberOrdering::Qkc, MemberOrdering::Vkc, MemberOrdering::VkcDeg]
            {
                let fast =
                    bb::solve(&net, &query, &oracle, &BbOptions::vkc().with_ordering(ordering));
                assert_eq!(brute.groups, fast.groups, "p={p} k={k} n={n} ordering={ordering:?}");
                for g in &fast.groups {
                    fixtures::assert_k_distance(net.graph(), g.members(), k);
                }
            }
        }
    }

    #[test]
    fn empty_candidates_yield_no_groups() {
        let net = fixtures::figure1();
        // ML and IR are carried only by u6, u8, u9 — a feasible group of
        // size 3 needs them pairwise farther than 2, which fails.
        let query =
            KtgQuery::new(net.query_keywords(["ML", "IR"]).unwrap(), 3, 2, 1).unwrap();
        let oracle = ExactOracle::build(net.graph());
        let out = solve(&net, &query, &oracle);
        assert!(out.groups.is_empty());
    }
}
