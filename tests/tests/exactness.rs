//! Randomized tests: every branch-and-bound variant is **exact**.
//!
//! On arbitrary attributed networks, each algorithm configuration must
//! return exactly brute force's groups (members, masks and canonical tie
//! order), and every returned group must be feasible (size p, every
//! pairwise distance over k, every member covering ≥ 1 query keyword).
//! Cases come from a fixed-seed RNG so failures reproduce exactly.

use ktg_common::SeededRng;
use ktg_core::{bb, brute, KtgQuery, MemberOrdering};
use ktg_index::{DistanceOracle, ExactOracle};
use ktg_integration_tests::{random_network, random_query};

/// Brute force against every ordering, over the axes that decide which
/// tied branches the engine may cut: group size up to 5, `N` up to 7,
/// one worker and `threads = 0` (auto: `KTG_THREADS` sets the worker
/// count, so the shared floor meets the local cut), and both conflict
/// kernels.
#[test]
fn bb_matches_brute_force() {
    let mut rng = SeededRng::seed_from_u64(0xB8);
    for case in 0..2000 {
        let n = rng.gen_range(4..18usize);
        let density = rng.gen_range(0.05..0.5);
        let seed = rng.gen_range(0u64..1000);
        let p = rng.gen_range(2..6usize);
        let k = rng.gen_range(0u32..4);
        let top_n = rng.gen_range(1..8usize);
        let wq = rng.gen_range(2..5usize);
        let net = random_network(n, density, 6, 3, seed);
        let query = KtgQuery::new(random_query(&net, wq, seed), p, k, top_n).expect("valid");
        let oracle = ExactOracle::build(net.graph());
        let reference = brute::solve(&net, &query, &oracle);

        for ordering in [
            MemberOrdering::Qkc,
            MemberOrdering::Vkc,
            MemberOrdering::VkcDeg,
            MemberOrdering::VkcDegDesc,
        ] {
            for threads in [1usize, 0] {
                for bitmap_threshold in [bb::DEFAULT_BITMAP_THRESHOLD, 0] {
                    let opts = bb::BbOptions::vkc()
                        .with_ordering(ordering)
                        .with_threads(threads)
                        .with_bitmap_threshold(bitmap_threshold);
                    let out = bb::solve(&net, &query, &oracle, &opts);
                    assert_eq!(
                        out.groups, reference.groups,
                        "case {case}: ordering {ordering:?} threads {threads} \
                         bitmap_threshold {bitmap_threshold} diverged from brute force"
                    );
                }
            }
        }
    }
}

#[test]
fn pruning_toggles_stay_exact() {
    let mut rng = SeededRng::seed_from_u64(0x9121);
    for case in 0..2000 {
        let n = rng.gen_range(4..16usize);
        let density = rng.gen_range(0.05..0.5);
        let seed = rng.gen_range(0u64..1000);
        let k = rng.gen_range(0u32..3);
        let net = random_network(n, density, 5, 3, seed);
        let query = KtgQuery::new(random_query(&net, 3, seed), 3, k, 2).expect("valid");
        let oracle = ExactOracle::build(net.graph());
        let reference = brute::solve(&net, &query, &oracle);
        for (kp, kf) in [(true, true), (false, true), (true, false), (false, false)] {
            let opts = bb::BbOptions {
                keyword_pruning: kp,
                kline_filtering: kf,
                ..bb::BbOptions::vkc_deg()
            };
            let out = bb::solve(&net, &query, &oracle, &opts);
            assert_eq!(out.groups, reference.groups, "case {case}: kp={kp} kf={kf}");
        }
    }
}

#[test]
fn results_are_always_feasible() {
    let mut rng = SeededRng::seed_from_u64(0xFEA5);
    for case in 0..64 {
        let n = rng.gen_range(4..20usize);
        let density = rng.gen_range(0.05..0.6);
        let seed = rng.gen_range(0u64..1000);
        let p = rng.gen_range(2..5usize);
        let k = rng.gen_range(0u32..4);
        let net = random_network(n, density, 6, 3, seed);
        let query = KtgQuery::new(random_query(&net, 4, seed), p, k, 3).expect("valid");
        let oracle = ExactOracle::build(net.graph());
        let masks = net.compile(query.keywords());
        let out = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
        for g in &out.groups {
            assert_eq!(g.len(), p, "case {case}: group size must be exactly p");
            // Pairwise tenuity.
            for (i, &u) in g.members().iter().enumerate() {
                for &v in &g.members()[i + 1..] {
                    assert!(
                        oracle.farther_than(u, v, k),
                        "case {case}: {u:?} and {v:?} within {k} hops"
                    );
                }
            }
            // Per-member keyword constraint: 0 < QKC(v).
            for &v in g.members() {
                assert!(masks.mask(v) != 0, "case {case}: {v:?} covers no query keyword");
            }
            // Reported mask is the true union.
            let union = g.members().iter().fold(0u64, |m, &v| m | masks.mask(v));
            assert_eq!(g.mask(), union, "case {case}");
        }
        // Descending coverage order.
        for w in out.groups.windows(2) {
            assert!(w[0].coverage_count() >= w[1].coverage_count(), "case {case}");
        }
    }
}

#[test]
fn node_budget_degrades_gracefully() {
    let mut rng = SeededRng::seed_from_u64(0xB0D6);
    for case in 0..64 {
        let n = rng.gen_range(6..16usize);
        let seed = rng.gen_range(0u64..500);
        let net = random_network(n, 0.2, 5, 3, seed);
        let query = KtgQuery::new(random_query(&net, 3, seed), 3, 1, 2).expect("valid");
        let oracle = ExactOracle::build(net.graph());
        let opts = bb::BbOptions { node_budget: Some(3), ..bb::BbOptions::vkc_deg() };
        let out = bb::solve(&net, &query, &oracle, &opts);
        // Whatever is returned must still be feasible.
        for g in &out.groups {
            assert_eq!(g.len(), 3, "case {case}");
        }
        assert!(out.stats.nodes <= 5, "case {case}: budget respected (± the final node)");
    }
}
