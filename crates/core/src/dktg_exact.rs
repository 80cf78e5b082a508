//! Exact DKTG solving on small instances.
//!
//! The paper analyzes DKTG-Greedy's quality only through the `1 − α`
//! approximation bound (§VI-C). This module provides the missing ground
//! truth: enumerate the feasible groups, then search every `N`-subset for
//! the one maximizing `score(RG) = γ·min QKC + (1−γ)·dL` (Eq. 4). Doubly
//! exponential in general — usable for tests, ablation benches, and
//! quality studies on bounded instances, which is exactly where a
//! ground-truth oracle matters.

use crate::candidates::{self, Candidate};
use crate::dktg::{self, DktgQuery};
use crate::group::Group;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;
use ktg_common::{KtgError, Result};
use ktg_index::DistanceOracle;

/// Upper bounds keeping the exact search tractable.
#[derive(Clone, Copy, Debug)]
pub struct ExactLimits {
    /// Maximum number of feasible groups to enumerate before giving up.
    pub max_groups: usize,
    /// Maximum number of `N`-subsets to score before giving up.
    pub max_subsets: u64,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits { max_groups: 64, max_subsets: 5_000_000 }
    }
}

/// The exact optimum for a DKTG query.
#[derive(Clone, Debug)]
pub struct ExactDktg {
    /// The score-optimal result set (discovery order within the set is
    /// meaningless).
    pub groups: Vec<Group>,
    /// Its score.
    pub score: f64,
    /// How many feasible groups the instance admits.
    pub feasible_groups: usize,
}

/// Enumerates **all** feasible groups of the KTG query (every size-`p`
/// k-distance group whose members each cover a query keyword), up to
/// `cap`.
///
/// # Errors
/// [`KtgError::InvalidQuery`] if the instance admits more than `cap`
/// feasible groups (the caller should shrink the instance).
pub fn enumerate_feasible(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    cap: usize,
) -> Result<Vec<Group>> {
    let mut groups = Vec::new();
    let mut chosen: Vec<usize> = Vec::with_capacity(query.p());
    enumerate_rec(query, oracle, cands, 0, 0, &mut chosen, &mut groups, cap)?;
    Ok(groups)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    start: usize,
    covered: u64,
    chosen: &mut Vec<usize>,
    out: &mut Vec<Group>,
    cap: usize,
) -> Result<()> {
    if chosen.len() == query.p() {
        if out.len() >= cap {
            return Err(KtgError::query(format!(
                "instance admits more than {cap} feasible groups; exact DKTG intractable"
            )));
        }
        out.push(Group::new(chosen.iter().map(|&i| cands[i].v).collect(), covered));
        return Ok(());
    }
    for i in start..cands.len() {
        if cands.len() - i < query.p() - chosen.len() {
            return Ok(());
        }
        let feasible = chosen
            .iter()
            .all(|&j| oracle.farther_than(cands[j].v, cands[i].v, query.k()));
        if !feasible {
            continue;
        }
        chosen.push(i);
        enumerate_rec(query, oracle, cands, i + 1, covered | cands[i].mask, chosen, out, cap)?;
        chosen.pop();
    }
    Ok(())
}

/// Finds the score-optimal `N`-subset of feasible groups by exhaustive
/// subset search.
///
/// Result sets smaller than `N` are considered only when fewer than `N`
/// feasible groups exist (matching DKTG-Greedy, which always emits as many
/// groups as it can).
///
/// # Errors
/// [`KtgError::InvalidQuery`] when the instance exceeds [`ExactLimits`].
pub fn solve(
    net: &AttributedGraph,
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
    limits: &ExactLimits,
) -> Result<ExactDktg> {
    let masks = net.compile(query.base().keywords());
    let cands = candidates::collect_vec(net.graph(), &masks);
    let all = enumerate_feasible(query.base(), oracle, &cands, limits.max_groups)?;
    let n = query.base().n().min(all.len());
    let num_kw = query.base().keywords().len();
    if n == 0 {
        return Ok(ExactDktg { groups: Vec::new(), score: 0.0, feasible_groups: 0 });
    }

    // Guard the C(|all|, n) subset walk.
    let mut subsets: u64 = 1;
    for i in 0..n as u64 {
        subsets = subsets.saturating_mul(all.len() as u64 - i) / (i + 1);
        if subsets > limits.max_subsets {
            return Err(KtgError::query(format!(
                "C({}, {n}) subsets exceed the {} limit",
                all.len(),
                limits.max_subsets
            )));
        }
    }

    let mut best_score = f64::NEG_INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(n);
    subset_search(&all, n, 0, &mut current, query.gamma(), num_kw, &mut best_score, &mut best);

    Ok(ExactDktg {
        groups: best.iter().map(|&i| all[i].clone()).collect(),
        score: best_score,
        feasible_groups: all.len(),
    })
}

#[allow(clippy::too_many_arguments)]
fn subset_search(
    all: &[Group],
    n: usize,
    start: usize,
    current: &mut Vec<usize>,
    gamma: f64,
    num_kw: usize,
    best_score: &mut f64,
    best: &mut Vec<usize>,
) {
    if current.len() == n {
        let groups: Vec<Group> = current.iter().map(|&i| all[i].clone()).collect();
        let s = dktg::score(&groups, gamma, num_kw);
        if s > *best_score {
            *best_score = s;
            *best = current.clone();
        }
        return;
    }
    for i in start..all.len() {
        if all.len() - i < n - current.len() {
            return;
        }
        current.push(i);
        subset_search(all, n, i + 1, current, gamma, num_kw, best_score, best);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{self, BbOptions, ConflictKernel};
    use crate::fixtures;
    use ktg_common::TopN;
    use ktg_index::ExactOracle;

    /// The ratio `greedy_score / exact_score` on one instance (1.0 when
    /// both are empty).
    fn greedy_quality(
        net: &AttributedGraph,
        query: &DktgQuery,
        oracle: &impl DistanceOracle,
        limits: &ExactLimits,
    ) -> Result<f64> {
        let exact = solve(net, query, oracle, limits)?;
        let greedy = dktg::solve(net, query, oracle);
        if exact.groups.is_empty() && greedy.groups.is_empty() {
            return Ok(1.0);
        }
        if exact.score <= 0.0 {
            return Ok(1.0);
        }
        Ok(greedy.score / exact.score)
    }

    /// All feasible groups of a KTG query, up to `cap`.
    fn feasible_groups_of(
        net: &AttributedGraph,
        query: &KtgQuery,
        oracle: &impl DistanceOracle,
        cap: usize,
    ) -> Result<Vec<Group>> {
        let masks = net.compile(query.keywords());
        let cands = candidates::collect_vec(net.graph(), &masks);
        enumerate_feasible(query, oracle, &cands, cap)
    }

    /// Whether `enumerate_feasible` and the branch-and-bound engine (on the
    /// oracle kernel) agree on the best coverage.
    fn check_enumeration_consistency(
        query: &KtgQuery,
        oracle: &impl DistanceOracle,
        cands: Vec<Candidate>,
        cap: usize,
    ) -> Result<bool> {
        let all = enumerate_feasible(query, oracle, &cands, cap)?;
        let mut top: TopN<u32> = TopN::new(1);
        for g in &all {
            top.offer(g.coverage_count());
        }
        let opts = BbOptions::vkc_deg();
        let bb_out = bb::run(query, oracle, &cands, &ConflictKernel::Oracle, &opts, None);
        let bb_best = bb_out.groups.first().map(Group::coverage_count);
        let enum_best = top.into_sorted_desc().into_iter().next();
        Ok(bb_best == enum_best)
    }

    fn figure1_query(n: usize) -> (AttributedGraph, DktgQuery) {
        let net = fixtures::figure1();
        let base = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            n,
        )
        .unwrap();
        let q = DktgQuery::new(base, 0.5).unwrap();
        (net, q)
    }

    #[test]
    fn enumeration_counts_feasible_groups() {
        let (net, q) = figure1_query(2);
        let oracle = ExactOracle::build(net.graph());
        let all = feasible_groups_of(&net, q.base(), &oracle, 10_000).unwrap();
        assert!(!all.is_empty());
        // Every enumerated group is feasible and canonical.
        for g in &all {
            assert_eq!(g.len(), 3);
            fixtures::assert_k_distance(net.graph(), g.members(), 1);
        }
        // No duplicates.
        let mut keys: Vec<Vec<u32>> =
            all.iter().map(|g| g.members().iter().map(|v| v.0).collect()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn exact_beats_or_ties_greedy() {
        let (net, q) = figure1_query(2);
        let oracle = ExactOracle::build(net.graph());
        let exact = solve(&net, &q, &oracle, &ExactLimits::default()).unwrap();
        let greedy = dktg::solve(&net, &q, &oracle);
        assert!(
            exact.score >= greedy.score - 1e-9,
            "exact {} < greedy {}",
            exact.score,
            greedy.score
        );
        assert_eq!(exact.groups.len(), 2);
    }

    #[test]
    fn greedy_quality_in_unit_interval() {
        let (net, q) = figure1_query(2);
        let oracle = ExactOracle::build(net.graph());
        let ratio = greedy_quality(&net, &q, &oracle, &ExactLimits::default()).unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9, "ratio {ratio}");
        // On Figure 1 greedy achieves disjoint full-coverage groups; its
        // quality should be high.
        assert!(ratio > 0.9, "ratio {ratio}");
    }

    #[test]
    fn cap_exceeded_is_reported() {
        let (net, q) = figure1_query(2);
        let oracle = ExactOracle::build(net.graph());
        let result = feasible_groups_of(&net, q.base(), &oracle, 1);
        assert!(result.is_err());
    }

    #[test]
    fn enumeration_consistent_with_bb() {
        let (net, q) = figure1_query(2);
        let oracle = ExactOracle::build(net.graph());
        let masks = net.compile(q.base().keywords());
        let cands = candidates::collect_vec(net.graph(), &masks);
        assert!(check_enumeration_consistency(q.base(), &oracle, cands, 10_000).unwrap());
    }

    #[test]
    fn empty_when_no_feasible_groups() {
        let net = fixtures::figure1();
        let base = KtgQuery::new(
            net.query_keywords(["ML", "IR"]).unwrap(),
            3,
            2,
            2,
        )
        .unwrap();
        let q = DktgQuery::new(base, 0.5).unwrap();
        let oracle = ExactOracle::build(net.graph());
        let exact = solve(&net, &q, &oracle, &ExactLimits::default()).unwrap();
        assert!(exact.groups.is_empty());
        assert_eq!(exact.feasible_groups, 0);
    }
}
