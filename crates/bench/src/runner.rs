//! Shared benchmark machinery.
//!
//! [`Workbench`] owns one instantiated dataset plus all three distance
//! oracles, and executes any of the paper's algorithm configurations
//! ([`Algo`]) over a query batch, reporting mean latency and aggregated
//! search stats. The algorithm names follow §VII-A exactly:
//! `<search>-<index>`, e.g. `KTG-VKC-DEG-NLRNL`.

use crate::params::Params;
use ktg_common::Result;
use ktg_core::dktg::{self, DktgQuery};
use ktg_core::{bb, AttributedGraph, KtgQuery, SearchStats};
use ktg_datasets::{DatasetProfile, QueryGen};
use ktg_graph::CsrGraph;
use ktg_index::{BfsOracle, DistanceOracle, NlIndex, NlrnlIndex};
use ktg_keywords::QueryKeywords;
use std::time::{Duration, Instant};

/// The algorithm configurations compared in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// KTG-QKC-NLRNL — static QKC ordering, NLRNL index (Fig 3 only).
    KtgQkcNlrnl,
    /// KTG-VKC-NL — VKC ordering, NL index.
    KtgVkcNl,
    /// KTG-VKC-NLRNL — VKC ordering, NLRNL index.
    KtgVkcNlrnl,
    /// KTG-VKC-DEG-NLRNL — VKC + degree ordering, NLRNL index.
    KtgVkcDegNlrnl,
    /// DKTG-Greedy (internally KTG-VKC-DEG-NLRNL with N = 1 per round).
    DktgGreedy,
    /// KTG-VKC-DEG with the index-free BFS oracle (ablation).
    KtgVkcDegBfs,
}

impl Algo {
    /// The paper's lineup for Figure 3 (the only figure including QKC).
    pub const FIG3: [Algo; 5] = [
        Algo::KtgQkcNlrnl,
        Algo::KtgVkcNl,
        Algo::KtgVkcNlrnl,
        Algo::KtgVkcDegNlrnl,
        Algo::DktgGreedy,
    ];

    /// The lineup for Figures 4–6 (QKC dropped, as in the paper).
    pub const FIG456: [Algo; 4] =
        [Algo::KtgVkcNl, Algo::KtgVkcNlrnl, Algo::KtgVkcDegNlrnl, Algo::DktgGreedy];

    /// Display name matching §VII-A.
    pub fn name(self) -> &'static str {
        match self {
            Algo::KtgQkcNlrnl => "KTG-QKC-NLRNL",
            Algo::KtgVkcNl => "KTG-VKC-NL",
            Algo::KtgVkcNlrnl => "KTG-VKC-NLRNL",
            Algo::KtgVkcDegNlrnl => "KTG-VKC-DEG-NLRNL",
            Algo::DktgGreedy => "DKTG-Greedy",
            Algo::KtgVkcDegBfs => "KTG-VKC-DEG-BFS",
        }
    }
}

/// Aggregate of one (algorithm, configuration) measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean per-query latency over the batch.
    pub mean_latency: Duration,
    /// Aggregated search counters.
    pub stats: SearchStats,
    /// Queries that returned at least one group.
    pub solved: usize,
    /// Batch size.
    pub queries: usize,
}

/// One dataset instance plus its three distance oracles.
pub struct Workbench<'g> {
    net: &'g AttributedGraph,
    bfs: BfsOracle<'g, CsrGraph>,
    nl: NlIndex<'g, CsrGraph>,
    nlrnl: NlrnlIndex,
}

impl<'g> Workbench<'g> {
    /// Builds all oracles for `net` (NL and NLRNL construction is
    /// parallelized internally).
    pub fn new(net: &'g AttributedGraph) -> Self {
        Workbench {
            bfs: BfsOracle::new(net.graph()),
            nl: NlIndex::build(net.graph()),
            nlrnl: NlrnlIndex::build(net.graph()),
            net,
        }
    }

    /// The underlying network.
    pub fn net(&self) -> &AttributedGraph {
        self.net
    }

    /// The NL index (for Figure 9 space/build reporting).
    pub fn nl(&self) -> &NlIndex<'g, CsrGraph> {
        &self.nl
    }

    /// The NLRNL index (for Figure 9 space/build reporting).
    pub fn nlrnl(&self) -> &NlrnlIndex {
        &self.nlrnl
    }

    /// Runs one algorithm over one query, returning elapsed time, stats,
    /// and whether any group was found.
    ///
    /// # Errors
    /// Propagates invalid `(p, k, n, gamma)` parameter combinations.
    pub fn run_query(
        &self,
        algo: Algo,
        keywords: &QueryKeywords,
        params: &Params,
        node_budget: Option<u64>,
    ) -> Result<(Duration, SearchStats, bool)> {
        let query = KtgQuery::new(keywords.clone(), params.p, params.k, params.n)?;
        Ok(match algo {
            Algo::KtgQkcNlrnl => self.run_bb(&query, &self.nlrnl, bb::BbOptions::qkc(), node_budget),
            Algo::KtgVkcNl => self.run_bb(&query, &self.nl, bb::BbOptions::vkc(), node_budget),
            Algo::KtgVkcNlrnl => self.run_bb(&query, &self.nlrnl, bb::BbOptions::vkc(), node_budget),
            Algo::KtgVkcDegNlrnl => {
                self.run_bb(&query, &self.nlrnl, bb::BbOptions::vkc_deg(), node_budget)
            }
            Algo::KtgVkcDegBfs => {
                self.run_bb(&query, &self.bfs, bb::BbOptions::vkc_deg(), node_budget)
            }
            Algo::DktgGreedy => {
                let dq = DktgQuery::new(query, params.gamma)?;
                let inner = bb::BbOptions { node_budget, ..bb::BbOptions::vkc_deg() };
                let start = Instant::now();
                let out = dktg::solve_with_options(self.net, &dq, &self.nlrnl, &inner);
                (start.elapsed(), out.stats, !out.groups.is_empty())
            }
        })
    }

    /// Runs one KTG search with every distance check going to `oracle`
    /// (`bitmap_threshold: 0`), as Algorithm 1 and §V do: the default
    /// bitmap kernel would answer them all by BFS, whatever the index.
    fn run_bb(
        &self,
        query: &KtgQuery,
        oracle: &impl DistanceOracle,
        mut opts: bb::BbOptions,
        node_budget: Option<u64>,
    ) -> (Duration, SearchStats, bool) {
        opts.node_budget = node_budget;
        opts.bitmap_threshold = 0;
        let start = Instant::now();
        let out = bb::solve(self.net, query, oracle, &opts);
        (start.elapsed(), out.stats, !out.groups.is_empty())
    }

    /// Runs a whole batch, returning the aggregate measurement. An empty
    /// batch yields the all-zero [`Measurement`] (not a division by zero).
    ///
    /// # Errors
    /// Propagates the first [`Workbench::run_query`] failure.
    pub fn run_batch(
        &self,
        algo: Algo,
        batch: &[QueryKeywords],
        params: &Params,
        node_budget: Option<u64>,
    ) -> Result<Measurement> {
        if batch.is_empty() {
            return Ok(Measurement {
                mean_latency: Duration::ZERO,
                stats: SearchStats::default(),
                solved: 0,
                queries: 0,
            });
        }
        let mut total = Duration::ZERO;
        let mut stats = SearchStats::default();
        let mut solved = 0;
        for q in batch {
            let (elapsed, s, found) = self.run_query(algo, q, params, node_budget)?;
            total += elapsed;
            stats.merge(&s);
            solved += usize::from(found);
        }
        Ok(Measurement {
            mean_latency: total / batch.len() as u32,
            stats,
            solved,
            queries: batch.len(),
        })
    }
}

/// Instantiates a profile and a deterministic query batch for it.
///
/// # Errors
/// Propagates query-generation failures (e.g. `wq` exceeding the
/// instantiated vocabulary).
pub fn dataset_with_queries(
    profile: DatasetProfile,
    scale: usize,
    seed: u64,
    queries: usize,
    wq: usize,
) -> Result<(AttributedGraph, Vec<QueryKeywords>)> {
    let net = profile.instantiate(scale, seed);
    let batch = QueryGen::new(&net, seed ^ 0xBEEF).batch(queries, wq)?;
    Ok((net, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DEFAULTS;

    #[test]
    fn all_algorithms_run_on_scaled_dataset() {
        let (net, batch) =
            dataset_with_queries(DatasetProfile::Brightkite, 400, 3, 3, DEFAULTS.wq).unwrap();
        let bench = Workbench::new(&net);
        for algo in Algo::FIG3.into_iter().chain([Algo::KtgVkcDegBfs]) {
            let m = bench.run_batch(algo, &batch, &DEFAULTS, Some(2_000_000)).unwrap();
            assert_eq!(m.queries, 3, "{}", algo.name());
            assert!(m.stats.nodes > 0, "{}", algo.name());
            if algo != Algo::DktgGreedy {
                // The figures compare indexes, so every KTG search must
                // probe its oracle rather than the BFS bitmap kernel.
                assert!(m.stats.distance_checks > 0, "{} never probed its oracle", algo.name());
            }
        }
    }

    #[test]
    fn index_variants_agree_on_results() {
        let (net, batch) =
            dataset_with_queries(DatasetProfile::Gowalla, 400, 11, 5, DEFAULTS.wq).unwrap();
        let bench = Workbench::new(&net);
        for q in &batch {
            let query = KtgQuery::new(q.clone(), DEFAULTS.p, DEFAULTS.k, DEFAULTS.n).unwrap();
            let a = bb::solve(&net, &query, &bench.nl, &bb::BbOptions::vkc());
            let b = bb::solve(&net, &query, &bench.nlrnl, &bb::BbOptions::vkc());
            let c = bb::solve(&net, &query, &bench.bfs, &bb::BbOptions::vkc());
            assert_eq!(a.groups, b.groups);
            assert_eq!(b.groups, c.groups);
        }
    }

    #[test]
    fn empty_batch_is_a_zero_measurement() {
        let (net, _) =
            dataset_with_queries(DatasetProfile::Brightkite, 800, 3, 0, DEFAULTS.wq).unwrap();
        let bench = Workbench::new(&net);
        let m = bench.run_batch(Algo::KtgVkcDegNlrnl, &[], &DEFAULTS, None).unwrap();
        assert_eq!(m.queries, 0);
        assert_eq!(m.solved, 0);
        assert_eq!(m.mean_latency, Duration::ZERO);
        assert_eq!(m.stats.nodes, 0);
    }

    #[test]
    fn algo_names_match_paper() {
        assert_eq!(Algo::KtgVkcDegNlrnl.name(), "KTG-VKC-DEG-NLRNL");
        assert_eq!(Algo::FIG3.len(), 5);
        assert_eq!(Algo::FIG456.len(), 4);
    }
}
