//! Differential tests: the parallel engine is **byte-identical** to the
//! sequential one.
//!
//! The root-level parallel driver (DESIGN.md §12) claims its merged
//! output equals the sequential engine's for every thread count, member
//! ordering, conflict kernel, and distance oracle — not just the same
//! coverage multiset but the exact same groups in the exact same order.
//! These suites check that claim on randomized networks and on
//! planted-partition (SBM) graphs, including the order-dependent modes
//! (`node_budget`, `stop_at_coverage`) that must dispatch to the
//! sequential engine regardless of the requested thread count.

use ktg_common::SeededRng;
use ktg_core::{bb, AttributedGraph, KtgQuery, MemberOrdering};
use ktg_index::{BfsOracle, DistanceOracle, NlrnlIndex};
use ktg_integration_tests::{random_network, random_query};

const ORDERINGS: [MemberOrdering; 4] = [
    MemberOrdering::Qkc,
    MemberOrdering::Vkc,
    MemberOrdering::VkcDeg,
    MemberOrdering::VkcDegDesc,
];

/// Thread counts to sweep; `0` resolves to the machine's worker count
/// (CI pins it via `KTG_THREADS=4`).
const THREADS: [usize; 4] = [2, 3, 8, 0];

/// Asserts that every (threads, kernel) configuration of `ordering`
/// returns exactly the groups the single-thread run returns.
fn assert_parallel_matches_sequential(
    label: &str,
    net: &AttributedGraph,
    query: &KtgQuery,
    oracle: &impl DistanceOracle,
    ordering: MemberOrdering,
) {
    for bitmap_threshold in [bb::DEFAULT_BITMAP_THRESHOLD, 0] {
        let base = bb::BbOptions::vkc()
            .with_ordering(ordering)
            .with_bitmap_threshold(bitmap_threshold);
        let sequential = bb::solve(net, query, oracle, &base.with_threads(1));
        for threads in THREADS {
            let parallel = bb::solve(net, query, oracle, &base.with_threads(threads));
            assert_eq!(
                sequential.groups, parallel.groups,
                "{label}: ordering {ordering:?}, bitmap_threshold {bitmap_threshold}, \
                 threads {threads} diverged from sequential"
            );
        }
    }
}

#[test]
fn parallel_matches_sequential_on_random_networks() {
    let mut rng = SeededRng::seed_from_u64(0xD1FF);
    for case in 0..10 {
        let n = rng.gen_range(16..48usize);
        let density = rng.gen_range(0.05..0.4);
        let seed = rng.gen_range(0u64..1000);
        let p = rng.gen_range(2..4usize);
        let k = rng.gen_range(0u32..3);
        let top_n = rng.gen_range(1..5usize);
        let net = random_network(n, density, 6, 3, seed);
        let query = KtgQuery::new(random_query(&net, 4, seed), p, k, top_n).expect("valid");
        let bfs = BfsOracle::new(net.graph());
        let nlrnl = NlrnlIndex::build(net.graph());
        for ordering in ORDERINGS {
            let label = format!("case {case} (bfs)");
            assert_parallel_matches_sequential(&label, &net, &query, &bfs, ordering);
            let label = format!("case {case} (nlrnl)");
            assert_parallel_matches_sequential(&label, &net, &query, &nlrnl, ordering);
        }
    }
}

#[test]
fn parallel_matches_sequential_on_sbm_graphs() {
    use ktg_datasets::keywords::{assign_zipf, KeywordModel};
    use ktg_datasets::sbm::{planted_partition, SbmParams};

    for (seed, blocks) in [(3u64, 4usize), (17, 6)] {
        let n = 120;
        let params = SbmParams { n, blocks, p_in: 0.15, p_out: 0.01 };
        let graph = planted_partition(&params, seed);
        let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), seed ^ 0xF00D);
        let net = AttributedGraph::new(graph, vocab, vk);
        let query = KtgQuery::new(random_query(&net, 5, seed), 3, 2, 5).expect("valid");
        let nlrnl = NlrnlIndex::build(net.graph());
        for ordering in ORDERINGS {
            let label = format!("sbm seed {seed}");
            assert_parallel_matches_sequential(&label, &net, &query, &nlrnl, ordering);
        }
    }
}

#[test]
fn bitmap_and_oracle_kernels_agree_in_parallel() {
    let mut rng = SeededRng::seed_from_u64(0xCE12);
    for case in 0..12 {
        let n = rng.gen_range(12..40usize);
        let seed = rng.gen_range(0u64..1000);
        let k = rng.gen_range(0u32..4);
        let net = random_network(n, 0.2, 6, 3, seed);
        let query = KtgQuery::new(random_query(&net, 4, seed), 3, k, 3).expect("valid");
        let oracle = NlrnlIndex::build(net.graph());
        for threads in [1usize, 4] {
            let base = bb::BbOptions::vkc_deg().with_threads(threads);
            let bitmap = bb::solve(&net, &query, &oracle, &base);
            let probing =
                bb::solve(&net, &query, &oracle, &base.with_bitmap_threshold(0));
            assert_eq!(
                bitmap.groups, probing.groups,
                "case {case}: kernels diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn order_dependent_modes_match_exactly_at_any_thread_count() {
    // node_budget and stop_at_coverage results are defined by discovery
    // order, so `run` must dispatch them to the sequential engine: the
    // groups AND the work counters must be identical at any requested
    // thread count.
    let mut rng = SeededRng::seed_from_u64(0x0DEB);
    for case in 0..12 {
        let n = rng.gen_range(12..36usize);
        let seed = rng.gen_range(0u64..1000);
        let net = random_network(n, 0.25, 6, 3, seed);
        let query = KtgQuery::new(random_query(&net, 4, seed), 3, 1, 2).expect("valid");
        let oracle = NlrnlIndex::build(net.graph());

        let truncating = bb::BbOptions { node_budget: Some(8), ..bb::BbOptions::vkc_deg() };
        let early_stop =
            bb::BbOptions { stop_at_coverage: Some(1), ..bb::BbOptions::vkc_deg() };
        for (mode, opts) in [("node_budget", truncating), ("stop_at_coverage", early_stop)] {
            let sequential = bb::solve(&net, &query, &oracle, &opts.with_threads(1));
            for threads in [2usize, 8, 0] {
                let parallel = bb::solve(&net, &query, &oracle, &opts.with_threads(threads));
                assert_eq!(
                    sequential.groups, parallel.groups,
                    "case {case}: {mode} groups diverged at {threads} threads"
                );
                assert_eq!(
                    sequential.stats, parallel.stats,
                    "case {case}: {mode} must run the identical sequential engine"
                );
            }
        }
    }
}

#[test]
fn truncated_runs_report_truncation_at_every_thread_count() {
    let net = random_network(30, 0.2, 6, 3, 77);
    let query = KtgQuery::new(random_query(&net, 4, 77), 3, 1, 2).expect("valid");
    let oracle = NlrnlIndex::build(net.graph());
    let opts = bb::BbOptions { node_budget: Some(2), ..bb::BbOptions::vkc_deg() };
    for threads in [1usize, 4] {
        let out = bb::solve(&net, &query, &oracle, &opts.with_threads(threads));
        assert!(out.stats.truncated, "budget of 2 nodes must truncate ({threads} threads)");
    }
}
