//! Diversified KTG queries (paper §VI).
//!
//! KTG result sets are often heavily overlapped ("u1u2u3, u1u2u4,
//! u1u2u5"); DKTG (Definition 10) trades pure coverage for diversity:
//!
//! ```text
//! score(RG) = γ · min_{g ∈ RG} QKC(g) + (1 − γ) · dL(RG)
//! ```
//!
//! where `dL` is the mean pairwise Jaccard distance between result groups
//! (Definition 9). [`solve`] implements **DKTG-Greedy** (§VI-B): find the
//! best group, remove its members from the candidate pool, and repeat —
//! each inner search runs KTG-VKC-DEG with `N = 1` and stops early at the
//! current coverage bar `C_max`; when the bar is unreachable the paper's
//! strategy (2) keeps the best lower-coverage group and lowers the bar.
//! With disjoint groups `dL(RG) = 1`, giving the `1 − α` approximation
//! guarantee of §VI-C (see [`approximation_ratio`]).

use crate::bb::{self, BbOptions, ConflictKernel};
use crate::candidates::{self, Candidate};
use crate::group::Group;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;
use crate::stats::SearchStats;
use ktg_common::{CancelToken, CompletionStatus, FxHashSet, KtgError, Result, VertexId};
use ktg_index::DistanceOracle;

/// A validated DKTG query: a KTG query plus the score weight `γ`.
#[derive(Clone, Debug)]
pub struct DktgQuery {
    base: KtgQuery,
    gamma: f64,
}

impl DktgQuery {
    /// Creates a DKTG query.
    ///
    /// # Errors
    /// [`KtgError::InvalidQuery`] if `γ ∉ [0, 1]`.
    pub fn new(base: KtgQuery, gamma: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&gamma) || gamma.is_nan() {
            return Err(KtgError::query(format!("gamma = {gamma} outside [0, 1]")));
        }
        Ok(DktgQuery { base, gamma })
    }

    /// The underlying KTG query.
    #[inline]
    pub fn base(&self) -> &KtgQuery {
        &self.base
    }

    /// The diversity/coverage weight `γ`.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

/// The outcome of a DKTG query.
#[derive(Clone, Debug)]
pub struct DktgOutcome {
    /// Result groups in discovery order (first = highest coverage found).
    pub groups: Vec<Group>,
    /// `dL(RG)` — mean pairwise Jaccard distance (Definition 9).
    pub diversity: f64,
    /// `min_{g} QKC(g)` over the result groups.
    pub min_qkc: f64,
    /// The combined score (Eq. 4).
    pub score: f64,
    /// Aggregated search instrumentation across the greedy iterations.
    pub stats: SearchStats,
    /// Whether every greedy round ran to completion
    /// ([`CompletionStatus::Exact`]) or the chain was cut short by a
    /// deadline/cancellation/node budget ([`CompletionStatus::Degraded`]):
    /// the groups found so far are still valid and disjoint, there may
    /// just be fewer (or lower-coverage) panels than an unbudgeted run
    /// would find.
    pub status: CompletionStatus,
}

/// Jaccard distance between two groups (Definition 9):
/// `(|g1 ∪ g2| − |g1 ∩ g2|) / |g1 ∪ g2|`.
pub fn diversity_dl(g1: &Group, g2: &Group) -> f64 {
    let a: FxHashSet<VertexId> = g1.members().iter().copied().collect();
    let mut intersection = 0usize;
    for v in g2.members() {
        if a.contains(v) {
            intersection += 1;
        }
    }
    let union = g1.len() + g2.len() - intersection;
    if union == 0 {
        return 0.0;
    }
    (union - intersection) as f64 / union as f64
}

/// Mean pairwise diversity `dL(RG)` over a result set. Defined as 0 for
/// fewer than two groups (no pairs to average).
pub fn diversity_set(groups: &[Group]) -> f64 {
    let n = groups.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            total += diversity_dl(&groups[i], &groups[j]);
        }
    }
    2.0 * total / (n as f64 * (n - 1) as f64)
}

/// The combined DKTG score (Eq. 4):
/// `γ · min QKC + (1 − γ) · dL`.
pub fn score(groups: &[Group], gamma: f64, num_query_keywords: usize) -> f64 {
    if groups.is_empty() {
        return 0.0;
    }
    let min_qkc = groups
        .iter()
        .map(|g| g.qkc(num_query_keywords))
        .fold(f64::INFINITY, f64::min);
    gamma * min_qkc + (1.0 - gamma) * diversity_set(groups)
}

/// The §VI-C lower bound on DKTG-Greedy's score: `1 − α` where
/// `α = γ · (|W_Q| − 1) / |W_Q|`.
pub fn approximation_ratio(gamma: f64, num_query_keywords: usize) -> f64 {
    let w = num_query_keywords as f64;
    1.0 - gamma * (w - 1.0) / w
}

/// Runs DKTG-Greedy end to end with the default inner engine
/// (KTG-VKC-DEG, no node budget).
///
/// ```
/// use ktg_core::dktg::{self, DktgQuery};
/// use ktg_core::KtgQuery;
/// use ktg_index::BfsOracle;
///
/// let net = ktg_core::fixtures::figure1();
/// let base = KtgQuery::new(
///     net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
///     3, 1, 2,
/// ).unwrap();
/// let query = DktgQuery::new(base, 0.5).unwrap();
/// let oracle = BfsOracle::new(net.graph());
/// let out = dktg::solve(&net, &query, &oracle);
/// assert_eq!(out.groups.len(), 2);
/// assert!((out.diversity - 1.0).abs() < 1e-9, "greedy panels are disjoint");
/// ```
pub fn solve(
    net: &AttributedGraph,
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
) -> DktgOutcome {
    solve_with_options(net, query, oracle, &BbOptions::vkc_deg())
}

/// Runs DKTG-Greedy with a caller-configured inner engine (ordering,
/// pruning toggles, node budget — `stop_at_coverage` is managed by the
/// greedy loop and overridden).
pub fn solve_with_options(
    net: &AttributedGraph,
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
    inner_opts: &BbOptions,
) -> DktgOutcome {
    let masks = net.compile(query.base.keywords());
    let mut cands = candidates::collect_vec(net.graph(), &masks);
    let outcome = solve_with_candidates(query, oracle, &mut cands, inner_opts);
    crate::verify::enforce_dktg(net, query, &outcome.groups);
    outcome
}

/// DKTG-Greedy over a pre-extracted candidate pool. The pool is consumed
/// in place (each greedy round retains only the non-selected candidates)
/// but the *allocation* is the caller's, so a caller that times candidate
/// extraction apart from the greedy rounds (perfbench's tracer) can.
pub fn solve_with_candidates(
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
    pool: &mut Vec<Candidate>,
    inner_opts: &BbOptions,
) -> DktgOutcome {
    // One token for the whole greedy chain: `deadline_ms` budgets the
    // DKTG query end to end, not each inner N = 1 solve separately.
    let token = CancelToken::for_deadline_ms(inner_opts.deadline_ms);
    greedy(query, oracle, pool, inner_opts, token.as_ref())
}

/// The greedy rounds of [`solve_with_candidates`] under one token shared
/// by every round (`inner_opts.deadline_ms` is not read).
fn greedy(
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
    pool: &mut Vec<Candidate>,
    inner_opts: &BbOptions,
    cancel: Option<&CancelToken>,
) -> DktgOutcome {
    let mut groups: Vec<Group> = Vec::new();
    let mut stats = SearchStats::default();
    // The coverage bar C_max: None until the first group fixes it.
    let mut c_max: Option<u32> = None;

    // N = 1 is always a valid result size, so `with_n(1)` can only fail
    // if the base query were somehow out of domain — in that case the
    // greedy loop has nothing to iterate and the empty outcome below is
    // the honest answer (no panic in library code).
    if let Ok(inner_query) = query.base.with_n(1) {
        while groups.len() < query.base.n() && pool.len() >= query.base.p() {
            // Between-round check: the inner engines poll the clock; here a
            // relaxed load suffices to stop starting new rounds.
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    stats.cancelled = true;
                    break;
                }
            }
            let opts = BbOptions { stop_at_coverage: c_max, ..*inner_opts };
            // The engine sorts a private index vector, never the slice, so
            // the pool passes down by reference — no per-round clone. Every
            // distance question goes to the oracle: the rounds build no
            // conflict rows.
            let outcome =
                bb::run(&inner_query, oracle, pool, &ConflictKernel::Oracle, &opts, cancel);
            stats.merge(&outcome.stats);
            let Some(best) = outcome.groups.into_iter().next() else {
                break; // no feasible group left in the remaining pool
            };
            // Strategy (2) of §VI-B: if the bar was missed, keep the group
            // anyway and lower the bar to its coverage.
            c_max = Some(best.coverage_count());
            // Remove the new group's members from the pool — the maximal
            // contribution to the diversity term.
            pool.retain(|c| !best.contains(c.v));
            groups.push(best);
        }
    }

    let num_kw = query.base.keywords().len();
    DktgOutcome {
        diversity: diversity_set(&groups),
        min_qkc: groups
            .iter()
            .map(|g| g.qkc(num_kw))
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        score: score(&groups, query.gamma, num_kw),
        groups,
        status: bb::completion_status(&stats, cancel),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use ktg_index::ExactOracle;

    fn paper_dktg(net: &AttributedGraph, n: usize) -> DktgQuery {
        let base = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            n,
        )
        .unwrap();
        DktgQuery::new(base, 0.5).unwrap()
    }

    #[test]
    fn gamma_validation() {
        let net = fixtures::figure1();
        let base = paper_dktg(&net, 2).base;
        assert!(DktgQuery::new(base.clone(), 1.5).is_err());
        assert!(DktgQuery::new(base.clone(), -0.1).is_err());
        assert!(DktgQuery::new(base.clone(), f64::NAN).is_err());
        assert!(DktgQuery::new(base, 0.0).is_ok());
    }

    #[test]
    fn diversity_formula_matches_paper_examples() {
        // §VI-B: groups sharing 2 of 3 members → dL = (4 − 2) / 4 = 0.5;
        // disjoint groups → dL = 6/6 = 1.
        let g1 = Group::new(vec![VertexId(10), VertexId(5), VertexId(1)], 0);
        let g2 = Group::new(vec![VertexId(10), VertexId(5), VertexId(2)], 0);
        let g3 = Group::new(vec![VertexId(11), VertexId(7), VertexId(2)], 0);
        assert!((diversity_dl(&g1, &g2) - 0.5).abs() < 1e-12);
        assert!((diversity_dl(&g1, &g3) - 1.0).abs() < 1e-12);
        assert_eq!(diversity_dl(&g1, &g1), 0.0);
    }

    #[test]
    fn greedy_returns_disjoint_groups() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let out = solve(&net, &paper_dktg(&net, 2), &oracle);
        assert_eq!(out.groups.len(), 2);
        assert!((out.diversity - 1.0).abs() < 1e-12, "disjoint groups have dL = 1");
        for g in &out.groups {
            fixtures::assert_k_distance(net.graph(), g.members(), 1);
        }
        let all: Vec<VertexId> =
            out.groups.iter().flat_map(|g| g.members().iter().copied()).collect();
        let distinct: FxHashSet<VertexId> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "members must not repeat across groups");
    }

    #[test]
    fn first_group_has_max_coverage() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let out = solve(&net, &paper_dktg(&net, 2), &oracle);
        assert_eq!(out.groups[0].coverage_count(), 4, "greedy starts at the optimum");
    }

    #[test]
    fn score_respects_approximation_bound() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        for n in [2usize, 3] {
            let query = paper_dktg(&net, n);
            let out = solve(&net, &query, &oracle);
            if out.groups.len() == n {
                let bound = approximation_ratio(query.gamma(), query.base().keywords().len());
                assert!(
                    out.score >= bound - 1e-9,
                    "score {} below bound {} (n={n})",
                    out.score,
                    bound
                );
            }
        }
    }

    #[test]
    fn pool_exhaustion_returns_fewer_groups() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        // 9 qualified candidates; disjoint groups of 3 → at most 3 groups,
        // and social constraints reduce it further.
        let out = solve(&net, &paper_dktg(&net, 10), &oracle);
        assert!(out.groups.len() < 10);
        assert!(!out.groups.is_empty());
    }

    #[test]
    fn cancelled_token_degrades_gracefully() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let query = paper_dktg(&net, 2);
        let masks = net.compile(query.base.keywords());
        let mut pool = crate::candidates::collect_vec(net.graph(), &masks);
        let token = CancelToken::new();
        token.cancel();
        let out = greedy(&query, &oracle, &mut pool, &BbOptions::vkc_deg(), Some(&token));
        assert!(out.groups.is_empty(), "pre-cancelled chain starts no rounds");
        assert_eq!(
            out.status,
            CompletionStatus::Degraded(ktg_common::DegradeReason::Cancelled)
        );
        assert_eq!(out.score, 0.0);
    }

    #[test]
    fn unfired_deadline_keeps_exact_status() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let query = paper_dktg(&net, 2);
        let out = solve_with_options(
            &net,
            &query,
            &oracle,
            &BbOptions::vkc_deg().with_deadline_ms(Some(600_000)),
        );
        let plain = solve(&net, &query, &oracle);
        assert_eq!(out.status, CompletionStatus::Exact);
        assert_eq!(out.groups, plain.groups);
    }

    #[test]
    fn score_components_in_unit_interval() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let out = solve(&net, &paper_dktg(&net, 3), &oracle);
        assert!((0.0..=1.0).contains(&out.diversity));
        assert!((0.0..=1.0).contains(&out.min_qkc));
        assert!((0.0..=1.0).contains(&out.score));
    }
}
