//! The exact branch-and-bound engine (paper §IV, Algorithm 1).
//!
//! One engine implements all three exact algorithm variants evaluated in
//! the paper; they differ only in the [`MemberOrdering`] used to rank the
//! remaining candidate set `S_R`:
//!
//! * **KTG-QKC** — static sort by query keyword coverage (Definition 5),
//!   computed once and never refreshed ("only need sorting once").
//! * **KTG-VKC** — dynamic sort by *valid* keyword coverage
//!   (Definition 8), recomputed against the covered set after every
//!   selection.
//! * **KTG-VKC-DEG** — VKC order with an ascending-degree tiebreak: among
//!   equal-VKC candidates, low-degree members conflict with fewer others,
//!   so feasible groups form earlier (§IV-B; see DESIGN.md on the paper's
//!   self-contradictory phrasing of the direction).
//!
//! The engine applies three cuts, each toggleable for ablation studies:
//!
//! * **Keyword pruning** (Theorem 2): a branch dies when even the top
//!   `p − |S_I|` remaining VKC values cannot lift the coverage to the
//!   current N-th best. A branch whose bound only ties the engine's own
//!   N-th best dies too when even its smallest completion (`S_I` plus the
//!   smallest remaining ids) is not canonically smaller than the N-th's
//!   member list: every group it holds would rank at or below the N-th
//!   best, which only rises, so the result is the one a search entering
//!   every tie would return.
//! * **k-line filtering** (Theorem 3): after selecting `v`, every
//!   remaining candidate within `k` hops of `v` is removed. When disabled,
//!   feasibility is enforced lazily by pairwise checks at selection time
//!   (the search stays exact either way).
//! * **Feasibility cut**: a branch with `|S_I| + |S_R| < p` cannot reach
//!   size `p`.
//!
//! Exploration order matches Algorithm 1: at each node take the head of
//! the ordered `S_R`, recurse, then permanently exclude it at this level
//! and continue — enumerating unordered groups exactly once.
//!
//! ## Performance architecture
//!
//! The engine is split into three submodules behind the same options
//! struct (see DESIGN.md §12 for the exactness argument):
//!
//! * [`kernel`] — the **conflict-bitmap kernel**. At query start (when
//!   the candidate set fits under [`BbOptions::bitmap_threshold`]) one
//!   `FixedBitSet` of k-line conflicts is precomputed per candidate by
//!   bounded BFS, or from a serving session's `(vertex, k)` row memo;
//!   the DFS then derives each child `S_R` with a word-parallel AND-NOT
//!   instead of per-pair oracle probes.
//! * [`sequential`] — the single-threaded DFS over candidate *indices*,
//!   parameterized by kernel, root-branch partition, and an optional
//!   shared cross-worker pruning floor.
//! * [`parallel`] — the root-level parallel driver: first-level branches
//!   are partitioned round-robin across workers, each running the
//!   sequential engine with its own `TopN`, publishing its N-th-best
//!   coverage into a `SharedThreshold` so any worker's discovery tightens
//!   every worker's Theorem-2 pruning. Results merge deterministically:
//!   ranking is a pure function of the group set ([`RankedGroup`]'s
//!   canonical order), and a tied branch is cut only against the worker's
//!   own N-th best, which ranks no higher than the merged one, so the
//!   output is byte-identical to the sequential engine regardless of
//!   thread count or timing.

use crate::candidates::{self, Candidate};
use crate::group::Group;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;
use crate::stats::SearchStats;
use ktg_common::{CancelToken, CompletionStatus, DegradeReason};
use ktg_index::DistanceOracle;
use ktg_keywords::coverage;

pub mod kernel;
pub mod parallel;
pub mod sequential;

pub use kernel::ConflictKernel;

#[cfg(doc)]
use crate::group::RankedGroup;

/// Default [`BbOptions::bitmap_threshold`]: bitmaps cost
/// `|C|²/8` bytes (512 KiB at 2048 candidates), far below the search tree
/// they accelerate, while huge candidate sets fall back to the oracle.
pub const DEFAULT_BITMAP_THRESHOLD: usize = 4096;

/// Candidate-ordering strategy for `S_R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberOrdering {
    /// Static query-keyword-coverage order (KTG-QKC).
    Qkc,
    /// Dynamic valid-keyword-coverage order (KTG-VKC).
    Vkc,
    /// VKC with ascending-degree tiebreak (KTG-VKC-DEG).
    VkcDeg,
    /// VKC with **descending**-degree tiebreak — not in the paper; exists
    /// to ablate the tiebreak direction (see DESIGN.md §3).
    VkcDegDesc,
}

impl MemberOrdering {
    /// Whether this ordering keeps `S_R` sorted by current VKC, letting
    /// the keyword-pruning bound read the top values off the list head.
    #[inline]
    fn vkc_sorted(self) -> bool {
        !matches!(self, MemberOrdering::Qkc)
    }

    /// Sorts `cands` for the given covered mask. For [`MemberOrdering::Qkc`]
    /// the key ignores `covered` (static QKC order). The engine itself
    /// sorts index vectors ([`MemberOrdering::sort_indices`]); this
    /// value-based twin remains as the differential reference for tests.
    #[cfg(test)]
    fn sort(self, covered: u64, cands: &mut [Candidate]) {
        match self {
            MemberOrdering::Qkc => {
                cands.sort_by_key(|c| (std::cmp::Reverse(c.mask.count_ones()), c.v));
            }
            MemberOrdering::Vkc => {
                cands.sort_by_key(|c| {
                    (std::cmp::Reverse(coverage::vkc_count(c.mask, covered)), c.v)
                });
            }
            MemberOrdering::VkcDeg => {
                cands.sort_by_key(|c| {
                    (std::cmp::Reverse(coverage::vkc_count(c.mask, covered)), c.degree, c.v)
                });
            }
            MemberOrdering::VkcDegDesc => {
                cands.sort_by_key(|c| {
                    (
                        std::cmp::Reverse(coverage::vkc_count(c.mask, covered)),
                        std::cmp::Reverse(c.degree),
                        c.v,
                    )
                });
            }
        }
    }

    /// Sorts a slice of candidate *indices* with the same keys as
    /// [`MemberOrdering::sort`]. Every key ends in the (unique) vertex id,
    /// so the result is a total order independent of the input
    /// permutation — the property the conflict-bitmap DFS relies on when
    /// it rebuilds child pools from bitset iteration order.
    fn sort_indices(self, covered: u64, cands: &[Candidate], idx: &mut [u32]) {
        match self {
            MemberOrdering::Qkc => {
                idx.sort_unstable_by_key(|&i| {
                    let c = &cands[i as usize];
                    (std::cmp::Reverse(c.mask.count_ones()), c.v)
                });
            }
            MemberOrdering::Vkc => {
                idx.sort_unstable_by_key(|&i| {
                    let c = &cands[i as usize];
                    (std::cmp::Reverse(coverage::vkc_count(c.mask, covered)), c.v)
                });
            }
            MemberOrdering::VkcDeg => {
                idx.sort_unstable_by_key(|&i| {
                    let c = &cands[i as usize];
                    (std::cmp::Reverse(coverage::vkc_count(c.mask, covered)), c.degree, c.v)
                });
            }
            MemberOrdering::VkcDegDesc => {
                idx.sort_unstable_by_key(|&i| {
                    let c = &cands[i as usize];
                    (
                        std::cmp::Reverse(coverage::vkc_count(c.mask, covered)),
                        std::cmp::Reverse(c.degree),
                        c.v,
                    )
                });
            }
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MemberOrdering::Qkc => "qkc",
            MemberOrdering::Vkc => "vkc",
            MemberOrdering::VkcDeg => "vkc-deg",
            MemberOrdering::VkcDegDesc => "vkc-deg-desc",
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct BbOptions {
    /// Candidate ordering (the paper's algorithm variants).
    pub ordering: MemberOrdering,
    /// Apply Theorem 2 keyword pruning.
    pub keyword_pruning: bool,
    /// Apply Theorem 3 eager k-line filtering. When `false`, tenuity is
    /// enforced by lazy pairwise checks instead (still exact).
    pub kline_filtering: bool,
    /// Stop the whole search as soon as a group with at least this
    /// coverage count is admitted (DKTG-Greedy's "not less than `C_max`"
    /// early exit). `None` runs to optimality. Forces the sequential
    /// engine: the early exit is defined by discovery order.
    pub stop_at_coverage: Option<u32>,
    /// Safety valve for benchmarks: abandon the search after visiting this
    /// many tree nodes. The result is then possibly sub-optimal and
    /// [`SearchStats::truncated`] is set. `None` (the default everywhere
    /// outside the harness) runs to completion. Forces the sequential
    /// engine: which prefix of the tree fits a budget is defined by
    /// discovery order.
    pub node_budget: Option<u64>,
    /// Worker threads for the root-level parallel search: `1` (the
    /// default) runs the sequential engine, `0` asks
    /// [`ktg_common::parallel::worker_count`] (honoring `KTG_THREADS`),
    /// any other value is used as given. The result is byte-identical for
    /// every setting.
    pub threads: usize,
    /// Largest candidate-set size for which the conflict-bitmap kernel is
    /// built; beyond it (or at `0`, which disables bitmaps entirely) the
    /// engine probes the distance oracle pair by pair.
    pub bitmap_threshold: usize,
    /// Per-query wall-clock budget in milliseconds. When it expires the
    /// search stops cooperatively and returns its anytime best-so-far
    /// groups with [`CompletionStatus::Degraded`]. `None` (the default)
    /// runs to completion. Unlike `node_budget` this does **not** force
    /// the sequential engine: a deadline that never fires leaves the
    /// result exact and byte-identical across thread counts, and one
    /// that does fire flags the result as degraded.
    pub deadline_ms: Option<u64>,
}

impl BbOptions {
    /// KTG-VKC (Algorithm 1).
    pub fn vkc() -> Self {
        BbOptions {
            ordering: MemberOrdering::Vkc,
            keyword_pruning: true,
            kline_filtering: true,
            stop_at_coverage: None,
            node_budget: None,
            threads: 1,
            bitmap_threshold: DEFAULT_BITMAP_THRESHOLD,
            deadline_ms: None,
        }
    }

    /// KTG-VKC-DEG (§IV-B).
    pub fn vkc_deg() -> Self {
        BbOptions { ordering: MemberOrdering::VkcDeg, ..Self::vkc() }
    }

    /// KTG-QKC (the §VII comparison variant).
    pub fn qkc() -> Self {
        BbOptions { ordering: MemberOrdering::Qkc, ..Self::vkc() }
    }

    /// Same options with a different ordering.
    pub fn with_ordering(self, ordering: MemberOrdering) -> Self {
        BbOptions { ordering, ..self }
    }

    /// Same options with an explicit worker-thread count (`0` = auto).
    pub fn with_threads(self, threads: usize) -> Self {
        BbOptions { threads, ..self }
    }

    /// Same options with a different bitmap-kernel size cap (`0` disables
    /// the bitmap kernel).
    pub fn with_bitmap_threshold(self, bitmap_threshold: usize) -> Self {
        BbOptions { bitmap_threshold, ..self }
    }

    /// Same options with a per-query wall-clock deadline in milliseconds
    /// (`None` removes the deadline).
    pub fn with_deadline_ms(self, deadline_ms: Option<u64>) -> Self {
        BbOptions { deadline_ms, ..self }
    }

    /// The worker count this configuration resolves to.
    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            ktg_common::parallel::worker_count()
        } else {
            self.threads
        }
    }
}

/// The outcome of one KTG query.
#[derive(Clone, Debug)]
pub struct KtgOutcome {
    /// Result groups in descending coverage order, ties broken by
    /// canonical member order; at most `N`, fewer when the graph does not
    /// admit `N` feasible groups. The list is a pure function of the
    /// query — identical across thread counts, kernels, and oracles.
    pub groups: Vec<Group>,
    /// Search instrumentation. Unlike `groups`, the counters describe the
    /// work actually performed: in parallel runs they aggregate all
    /// workers and vary with thread count and timing.
    pub stats: SearchStats,
    /// Whether `groups` is the proven optimum ([`CompletionStatus::Exact`])
    /// or an anytime best-so-far cut short by a deadline, cancellation, or
    /// node budget ([`CompletionStatus::Degraded`]). Degraded groups are
    /// still *valid* — size, tenuity, coverage masks, and ordering all
    /// hold, and they pass the checked-mode audit.
    pub status: CompletionStatus,
}

/// Runs a KTG query end to end: compile masks, collect candidates, build
/// the conflict kernel, search.
pub fn solve(
    net: &AttributedGraph,
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    opts: &BbOptions,
) -> KtgOutcome {
    let masks = net.compile(query.keywords());
    let cands = candidates::collect_vec(net.graph(), &masks);
    solve_prepared(net, query, oracle, cands, opts)
}

/// Runs the search over a pre-extracted candidate slice and a pre-built
/// conflict kernel under a deadline token made from `opts.deadline_ms`,
/// then applies checked-mode verification. This is the batched
/// executor's entry point: the executor owns pooled candidate vectors and
/// recycled kernel rows, so nothing here may take ownership.
pub(crate) fn solve_with_kernel(
    net: &AttributedGraph,
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    kernel: &ConflictKernel,
    opts: &BbOptions,
) -> KtgOutcome {
    let token = CancelToken::for_deadline_ms(opts.deadline_ms);
    let outcome = run(query, oracle, cands, kernel, opts, token.as_ref());
    // Truncated searches may hold a sub-optimal (but still well-formed)
    // result; the audit's ordering/tenuity/coverage contract holds either
    // way, so checked mode gates every driver exit.
    crate::verify::enforce(net, query, &outcome.groups);
    outcome
}

/// Runs a KTG query over a pre-extracted candidate pool: builds the
/// conflict kernel the options ask for, then searches it as the batched
/// executor does.
pub fn solve_prepared(
    net: &AttributedGraph,
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: Vec<Candidate>,
    opts: &BbOptions,
) -> KtgOutcome {
    let kernel = ConflictKernel::build(net.graph(), &cands, query.k(), opts);
    solve_with_kernel(net, query, oracle, &cands, &kernel, opts)
}

/// Derives the outcome status from what the engines observed: a fired
/// token wins (with its reason), then a node-budget truncation, then
/// exact. The token's reason is read only when a worker actually stopped
/// on it — a deadline that fires after the tree is exhausted leaves the
/// result exact.
pub(crate) fn completion_status(
    stats: &SearchStats,
    cancel: Option<&CancelToken>,
) -> CompletionStatus {
    if stats.cancelled {
        let reason =
            cancel.and_then(CancelToken::reason).unwrap_or(DegradeReason::Cancelled);
        CompletionStatus::Degraded(reason)
    } else if stats.truncated {
        CompletionStatus::Degraded(DegradeReason::NodeBudget)
    } else {
        CompletionStatus::Exact
    }
}

/// Dispatches to the sequential or parallel driver under `cancel`
/// (`opts.deadline_ms` is not read here: callers make the token, so
/// DKTG-Greedy can share one across all its rounds).
///
/// `stop_at_coverage` and `node_budget` force the sequential engine: both
/// semantics are defined by DFS discovery order ("the first admitted
/// group reaching the floor", "the first `B` nodes"), which racing
/// workers cannot reproduce bit-for-bit. Exact searches parallelize
/// freely — their result is discovery-order independent. A deadline does
/// *not* force sequential: if it fires, the (timing-dependent) result is
/// flagged `Degraded`; if it never fires, the result is exact.
///
/// A query whose `p` exceeds the candidate count has no group of `p`
/// distinct candidates, so it returns the empty exact answer before any
/// per-depth state (sized by `p`) is allocated.
pub(crate) fn run(
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    cands: &[Candidate],
    kernel: &ConflictKernel,
    opts: &BbOptions,
    cancel: Option<&CancelToken>,
) -> KtgOutcome {
    if query.p() > cands.len() {
        return KtgOutcome {
            groups: Vec::new(),
            stats: SearchStats::default(),
            status: CompletionStatus::Exact,
        };
    }
    let workers = opts.resolved_threads().min(cands.len().max(1));
    let order_dependent = opts.stop_at_coverage.is_some() || opts.node_budget.is_some();
    let mut outcome = if workers <= 1 || order_dependent {
        sequential::run_sequential(query, oracle, cands, kernel, opts, cancel)
    } else {
        parallel::run_parallel(query, oracle, cands, kernel, opts, workers, cancel)
    };
    outcome.status = completion_status(&outcome.stats, cancel);
    outcome
}

/// Sum of the `need` largest VKC counts in `s_r` w.r.t. `covered`.
///
/// When the list is VKC-sorted this is the sum of the head; otherwise a
/// selection scan keeps a tiny descending buffer (need ≤ p, and p ≤ 7 in
/// every evaluated configuration). The engine feeds masks straight into
/// [`top_vkc_sum_masks`]; this slice wrapper remains for tests.
#[cfg(test)]
fn top_vkc_sum(covered: u64, s_r: &[Candidate], need: usize, sorted: bool) -> u32 {
    top_vkc_sum_masks(covered, s_r.iter().map(|c| c.mask), need, sorted)
}

/// [`top_vkc_sum`] over raw coverage masks (the index-based engine feeds
/// candidate indices through here without materializing a slice).
///
/// The unsorted path is a single-pass selection scan: the buffer stays
/// descending by shifting each accepted value into place — O(need) per
/// accepted element, no re-sort.
fn top_vkc_sum_masks(
    covered: u64,
    masks: impl Iterator<Item = u64>,
    need: usize,
    sorted: bool,
) -> u32 {
    if sorted {
        return masks.take(need).map(|m| coverage::vkc_count(m, covered)).sum();
    }
    let mut top: Vec<u32> = Vec::with_capacity(need);
    for m in masks {
        let val = coverage::vkc_count(m, covered);
        if top.len() < need {
            let pos = top.partition_point(|&x| x >= val);
            top.insert(pos, val);
        } else if let Some(&min) = top.last() {
            // `top` is full (need > 0 on every caller path) and sorted
            // descending, so the minimum sits at the end.
            if val > min {
                let mut i = top.len() - 1;
                while i > 0 && top[i - 1] < val {
                    top[i] = top[i - 1];
                    i -= 1;
                }
                top[i] = val;
            }
        }
    }
    top.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use ktg_index::{BfsOracle, ExactOracle, NlIndex, NlrnlIndex};

    fn paper_query(net: &AttributedGraph) -> KtgQuery {
        KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            2,
        )
        .unwrap()
    }

    /// The paper's running query: top-2 groups of size 3 with k = 1 cover
    /// 4 of 5 query keywords ({SN, QP, DQ, GD}; nobody has GQ).
    #[test]
    fn figure1_query_all_orderings() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = BfsOracle::new(net.graph());
        for opts in [BbOptions::vkc(), BbOptions::vkc_deg(), BbOptions::qkc()] {
            let out = solve(&net, &query, &oracle, &opts);
            assert_eq!(out.groups.len(), 2, "{:?}", opts.ordering);
            for g in &out.groups {
                assert_eq!(g.coverage_count(), 4, "{:?}", opts.ordering);
                assert_eq!(g.len(), 3);
                fixtures::assert_k_distance(net.graph(), g.members(), 1);
            }
        }
    }

    #[test]
    fn all_oracles_agree_on_figure1() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let bfs = BfsOracle::new(net.graph());
        let nl = NlIndex::build(net.graph());
        let nlrnl = NlrnlIndex::build(net.graph());
        let exact = ExactOracle::build(net.graph());
        // bitmap_threshold 0 keeps every distance question on the oracle
        // under test (the default would route them to the bitmap kernel).
        let opts = BbOptions::vkc_deg().with_bitmap_threshold(0);
        let a = solve(&net, &query, &bfs, &opts);
        let b = solve(&net, &query, &nl, &opts);
        let c = solve(&net, &query, &nlrnl, &opts);
        let d = solve(&net, &query, &exact, &opts);
        assert_eq!(a.groups, b.groups);
        assert_eq!(b.groups, c.groups);
        assert_eq!(c.groups, d.groups);
    }

    #[test]
    fn bitmap_kernel_matches_oracle_path() {
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
            for base in [BbOptions::vkc(), BbOptions::vkc_deg(), BbOptions::qkc()] {
                let with_bitmaps = solve(&net, &query, &oracle, &base);
                let without = solve(&net, &query, &oracle, &base.with_bitmap_threshold(0));
                assert_eq!(with_bitmaps.groups, without.groups, "p={p} k={k} n={n}");
            }
        }
    }

    #[test]
    fn bitmap_kernel_skips_oracle_probes() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let bitmap = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        let probing = solve(&net, &query, &oracle, &BbOptions::vkc_deg().with_bitmap_threshold(0));
        assert_eq!(bitmap.groups, probing.groups);
        assert_eq!(bitmap.stats.distance_checks, 0, "bitmaps answer every distance question");
        assert!(probing.stats.distance_checks > 0);
        assert_eq!(
            bitmap.stats.kline_filtered, probing.stats.kline_filtered,
            "both paths remove exactly the same conflicting candidates"
        );
    }

    #[test]
    fn parallel_matches_sequential_on_figure1() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = BfsOracle::new(net.graph());
        let sequential = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        for threads in [0usize, 2, 3, 8] {
            let parallel = solve(&net, &query, &oracle, &BbOptions::vkc_deg().with_threads(threads));
            assert_eq!(sequential.groups, parallel.groups, "threads={threads}");
        }
    }

    #[test]
    fn pruning_toggles_preserve_exactness() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let reference = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        for (kp, kf) in [(false, true), (true, false), (false, false)] {
            let opts = BbOptions { keyword_pruning: kp, kline_filtering: kf, ..BbOptions::vkc_deg() };
            let out = solve(&net, &query, &oracle, &opts);
            assert_eq!(out.groups, reference.groups, "kp={kp} kf={kf}");
        }
    }

    /// `n` isolated vertices that each hold both of the network's two
    /// keywords: every group is tenuous and covers both, so all tie.
    fn all_tied_network(n: usize) -> AttributedGraph {
        let graph = ktg_graph::GraphBuilder::new(n).build();
        let mut kb = ktg_keywords::VertexKeywordsBuilder::new(n);
        for v in 0..n {
            for kw in 0..2 {
                kb.add(ktg_common::VertexId::new(v), ktg_keywords::KeywordId(kw));
            }
        }
        AttributedGraph::new(graph, ktg_keywords::Vocabulary::synthetic(2), kb.build())
    }

    fn member_ids(groups: &[Group]) -> Vec<Vec<u32>> {
        groups.iter().map(|g| g.members().iter().map(|v| v.0).collect()).collect()
    }

    /// All 4,060 triples of 30 vertices tie at full coverage. The answer
    /// is the canonically smallest triples, and once the heap holds them
    /// the lexicographic completion bound cuts every other tied branch,
    /// where entering every tie would evaluate all 4,060.
    #[test]
    fn tied_branches_that_cannot_win_are_cut() {
        let net = all_tied_network(30);
        let oracle = ExactOracle::build(net.graph());
        let base = KtgQuery::new(net.query_keywords(["t0", "t1"]).unwrap(), 3, 1, 1).unwrap();
        for n in [1usize, 2, 5] {
            let query = base.with_n(n).unwrap();
            let out = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
            let expect: Vec<Vec<u32>> = (2..2 + n as u32).map(|c| vec![0, 1, c]).collect();
            assert_eq!(member_ids(&out.groups), expect, "N={n}");
            assert!(out.stats.nodes <= 64, "N={n}: {} nodes", out.stats.nodes);
            for threads in [1usize, 4] {
                for bitmap_threshold in [DEFAULT_BITMAP_THRESHOLD, 0] {
                    let opts = BbOptions::vkc_deg()
                        .with_threads(threads)
                        .with_bitmap_threshold(bitmap_threshold);
                    let other = solve(&net, &query, &oracle, &opts);
                    assert_eq!(
                        other.groups, out.groups,
                        "N={n} threads={threads} bitmap_threshold={bitmap_threshold}"
                    );
                }
            }
        }

        // DKTG-Greedy's N = 1 rounds get the cut through the same engine.
        let dktg_query = crate::dktg::DktgQuery::new(base.with_n(5).unwrap(), 0.5).unwrap();
        let out = crate::dktg::solve(&net, &dktg_query, &oracle);
        let expect: Vec<Vec<u32>> = (0..5u32).map(|r| vec![3 * r, 3 * r + 1, 3 * r + 2]).collect();
        assert_eq!(member_ids(&out.groups), expect);
        assert!(out.stats.nodes <= 64, "DKTG: {} nodes", out.stats.nodes);
    }

    #[test]
    fn pruning_reduces_work() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let with = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        let without = solve(
            &net,
            &query,
            &oracle,
            &BbOptions { keyword_pruning: false, ..BbOptions::vkc_deg() },
        );
        assert!(with.stats.nodes <= without.stats.nodes);
        assert!(with.stats.keyword_pruned > 0);
    }

    #[test]
    fn infeasible_when_k_too_large() {
        let net = fixtures::figure1();
        // k = 10 exceeds the main component's diameter: no 3 candidates
        // are pairwise farther than 10 hops.
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            10,
            2,
        )
        .unwrap();
        let oracle = BfsOracle::new(net.graph());
        let out = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        assert!(out.groups.is_empty());
    }

    #[test]
    fn k_zero_admits_any_distinct_candidates() {
        let net = fixtures::figure1();
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            0,
            1,
        )
        .unwrap();
        let oracle = BfsOracle::new(net.graph());
        let out = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].coverage_count(), 4, "still no GQ anywhere");
    }

    #[test]
    fn stop_at_coverage_exits_early() {
        let net = fixtures::figure1();
        let query = paper_query(&net).with_n(1).unwrap();
        let oracle = ExactOracle::build(net.graph());
        let full = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        let early = solve(
            &net,
            &query,
            &oracle,
            &BbOptions { stop_at_coverage: Some(4), ..BbOptions::vkc_deg() },
        );
        assert_eq!(early.groups[0].coverage_count(), 4);
        assert!(early.stats.nodes <= full.stats.nodes);
    }

    #[test]
    fn p_one_returns_best_single_vertices() {
        let net = fixtures::figure1();
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            1,
            1,
            3,
        )
        .unwrap();
        let oracle = BfsOracle::new(net.graph());
        let out = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        assert_eq!(out.groups.len(), 3);
        // u0 covers 3 query keywords — the unique best single vertex.
        assert_eq!(out.groups[0].coverage_count(), 3);
    }

    #[test]
    fn ordering_sort_keys() {
        let mk = |v: u32, mask: u64, degree: u32| Candidate {
            v: ktg_common::VertexId(v),
            mask,
            degree,
        };
        // Three candidates: equal VKC for (1, 2), different degrees.
        let cands = vec![mk(0, 0b0001, 9), mk(1, 0b0110, 5), mk(2, 0b0011, 2)];

        let mut qkc = cands.clone();
        MemberOrdering::Qkc.sort(0, &mut qkc);
        // Static popcount order: v1 (2) ties v2 (2) → id asc; v0 (1) last.
        assert_eq!(qkc.iter().map(|c| c.v.0).collect::<Vec<_>>(), vec![1, 2, 0]);

        // covered = 0b0010: VKC = [1, 1, 1] → pure id order under Vkc.
        let mut vkc = cands.clone();
        MemberOrdering::Vkc.sort(0b0010, &mut vkc);
        assert_eq!(vkc.iter().map(|c| c.v.0).collect::<Vec<_>>(), vec![0, 1, 2]);

        // Same covered, VkcDeg: ties broken by ascending degree.
        let mut deg = cands.clone();
        MemberOrdering::VkcDeg.sort(0b0010, &mut deg);
        assert_eq!(deg.iter().map(|c| c.v.0).collect::<Vec<_>>(), vec![2, 1, 0]);

        // Descending-degree ablation ordering is the reverse tiebreak.
        let mut desc = cands.clone();
        MemberOrdering::VkcDegDesc.sort(0b0010, &mut desc);
        assert_eq!(desc.iter().map(|c| c.v.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn sort_indices_matches_sort() {
        let mk = |v: u32, mask: u64, degree: u32| Candidate {
            v: ktg_common::VertexId(v),
            mask,
            degree,
        };
        let cands =
            vec![mk(0, 0b0001, 9), mk(1, 0b0110, 5), mk(2, 0b0011, 2), mk(3, 0b1111, 5)];
        for ordering in [
            MemberOrdering::Qkc,
            MemberOrdering::Vkc,
            MemberOrdering::VkcDeg,
            MemberOrdering::VkcDegDesc,
        ] {
            for covered in [0u64, 0b0010, 0b0111] {
                let mut by_value = cands.clone();
                ordering.sort(covered, &mut by_value);
                // Feed the index sort a scrambled permutation: the result
                // must still match (keys end in the unique vertex id).
                let mut idx: Vec<u32> = vec![2, 0, 3, 1];
                ordering.sort_indices(covered, &cands, &mut idx);
                let by_index: Vec<u32> = idx.iter().map(|&i| cands[i as usize].v.0).collect();
                let expect: Vec<u32> = by_value.iter().map(|c| c.v.0).collect();
                assert_eq!(by_index, expect, "{ordering:?} covered={covered:#b}");
            }
        }
    }

    #[test]
    fn ordering_names() {
        assert_eq!(MemberOrdering::Qkc.name(), "qkc");
        assert_eq!(MemberOrdering::Vkc.name(), "vkc");
        assert_eq!(MemberOrdering::VkcDeg.name(), "vkc-deg");
        assert_eq!(MemberOrdering::VkcDegDesc.name(), "vkc-deg-desc");
    }

    #[test]
    fn node_budget_sets_truncated_flag() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let out = solve(
            &net,
            &query,
            &oracle,
            &BbOptions { node_budget: Some(2), ..BbOptions::vkc_deg() },
        );
        assert!(out.stats.truncated);
        let full = solve(
            &net,
            &query,
            &oracle,
            &BbOptions { node_budget: Some(u64::MAX), ..BbOptions::vkc_deg() },
        );
        assert!(!full.stats.truncated);
    }

    #[test]
    fn node_budget_status_is_degraded() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let truncated = solve(
            &net,
            &query,
            &oracle,
            &BbOptions { node_budget: Some(2), ..BbOptions::vkc_deg() },
        );
        assert_eq!(
            truncated.status,
            CompletionStatus::Degraded(DegradeReason::NodeBudget)
        );
        let full = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        assert_eq!(full.status, CompletionStatus::Exact);
    }

    #[test]
    fn generous_deadline_stays_exact_and_identical() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = ExactOracle::build(net.graph());
        let plain = solve(&net, &query, &oracle, &BbOptions::vkc_deg());
        let budgeted = solve(
            &net,
            &query,
            &oracle,
            &BbOptions::vkc_deg().with_deadline_ms(Some(600_000)),
        );
        assert_eq!(budgeted.status, CompletionStatus::Exact);
        assert_eq!(budgeted.groups, plain.groups, "unfired deadline must not change anything");
    }

    #[test]
    fn fired_token_stops_search_with_degraded_status() {
        let net = fixtures::figure1();
        let query = paper_query(&net);
        let oracle = BfsOracle::new(net.graph());
        let masks = net.compile(query.keywords());
        let cands = candidates::collect_vec(net.graph(), &masks);

        // An already-fired deadline token: the very first node check
        // observes it, so the search stops deterministically at the root
        // with an empty (valid, trivially verifier-clean) result.
        let token = ktg_common::CancelToken::with_deadline_ms(0);
        assert!(token.poll(), "0 ms deadline fires on first poll");
        let opts = BbOptions::vkc_deg();
        let oracle_run = |cancel: Option<&CancelToken>| {
            run(&query, &oracle, &cands, &ConflictKernel::Oracle, &opts, cancel)
        };
        let out = oracle_run(Some(&token));
        assert!(out.stats.cancelled);
        assert_eq!(out.status, CompletionStatus::Degraded(DegradeReason::Deadline));
        assert!(out.stats.nodes <= 1, "cancelled search must stop immediately");

        // Explicit cancellation reports its own reason.
        let manual = ktg_common::CancelToken::new();
        manual.cancel();
        let out = oracle_run(Some(&manual));
        assert_eq!(out.status, CompletionStatus::Degraded(DegradeReason::Cancelled));

        // A live token changes nothing.
        let live = ktg_common::CancelToken::new();
        let with_live = oracle_run(Some(&live));
        let without = oracle_run(None);
        assert_eq!(with_live.status, CompletionStatus::Exact);
        assert_eq!(with_live.groups, without.groups);
    }

    #[test]
    fn top_vkc_sum_selection_scan_matches_sorted() {
        let cands: Vec<Candidate> = [(0u32, 0b0111u64, 1u32), (1, 0b1000, 2), (2, 0b0011, 3)]
            .iter()
            .map(|&(v, mask, degree)| Candidate { v: ktg_common::VertexId(v), mask, degree })
            .collect();
        // covered = 0b0001 → vkc counts = [2, 1, 1]; top-2 = 3.
        assert_eq!(top_vkc_sum(0b0001, &cands, 2, false), 3);
        let mut sorted = cands.clone();
        MemberOrdering::Vkc.sort(0b0001, &mut sorted);
        assert_eq!(top_vkc_sum(0b0001, &sorted, 2, true), 3);
    }

    #[test]
    fn top_vkc_sum_shift_into_place_randomized() {
        // The selection scan must match "sort desc, take need, sum" for
        // arbitrary value streams and every buffer size.
        let mut rng = ktg_common::SeededRng::seed_from_u64(0x70b5);
        for _ in 0..200 {
            let len = rng.gen_range(0..20u32) as usize;
            let masks: Vec<u64> = (0..len).map(|_| rng.gen_range(0..64u64)).collect();
            for need in 1..=6usize {
                let got = top_vkc_sum_masks(0, masks.iter().copied(), need, false);
                let mut counts: Vec<u32> =
                    masks.iter().map(|&m| coverage::vkc_count(m, 0)).collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                let expect: u32 = counts.iter().take(need).sum();
                assert_eq!(got, expect, "masks={masks:?} need={need}");
            }
        }
    }
}
