//! End-to-end integration: dataset profile → indexes → queries → results.
//!
//! These run on small scaled profiles (hundreds of vertices) and check
//! the cross-crate contracts the benches rely on: deterministic
//! workloads, index/result agreement, TAGQ vs KTG behaviour, and the
//! multi-query-vertex extension.

use ktg_core::tagq::{self, TagqOptions};
use ktg_core::{bb, brute, candidates, multi_query, KtgQuery};
use ktg_datasets::{DatasetProfile, QueryGen};
use ktg_index::{BfsOracle, DistanceOracle, NlIndex, NlrnlIndex};

fn scaled_net() -> ktg_core::AttributedGraph {
    DatasetProfile::Brightkite.instantiate(400, 17)
}

#[test]
fn full_pipeline_all_indexes_agree() {
    let net = scaled_net();
    let nl = NlIndex::build(net.graph());
    let nlrnl = NlrnlIndex::build(net.graph());
    let bfs = BfsOracle::new(net.graph());
    let mut qg = QueryGen::new(&net, 3);
    for _ in 0..5 {
        let query = KtgQuery::new(qg.query(6).expect("workload"), 3, 2, 5).expect("valid");
        let a = bb::solve(&net, &query, &nl, &bb::BbOptions::vkc_deg());
        let b = bb::solve(&net, &query, &nlrnl, &bb::BbOptions::vkc_deg());
        let c = bb::solve(&net, &query, &bfs, &bb::BbOptions::vkc_deg());
        assert_eq!(a.groups, b.groups, "NL vs NLRNL");
        assert_eq!(b.groups, c.groups, "NLRNL vs BFS");
    }
}

#[test]
fn orderings_agree_on_coverage_at_scale() {
    let net = scaled_net();
    let nlrnl = NlrnlIndex::build(net.graph());
    let mut qg = QueryGen::new(&net, 23);
    for _ in 0..3 {
        let query = KtgQuery::new(qg.query(5).expect("workload"), 3, 1, 3).expect("valid");
        let vkc = bb::solve(&net, &query, &nlrnl, &bb::BbOptions::vkc());
        let deg = bb::solve(&net, &query, &nlrnl, &bb::BbOptions::vkc_deg());
        let qkc = bb::solve(&net, &query, &nlrnl, &bb::BbOptions::qkc());
        let counts = |o: &bb::KtgOutcome| -> Vec<u32> {
            o.groups.iter().map(|g| g.coverage_count()).collect()
        };
        assert_eq!(counts(&vkc), counts(&deg));
        assert_eq!(counts(&deg), counts(&qkc));
    }
}

#[test]
fn brute_force_confirms_bb_on_tiny_profile() {
    // A very small instance where |V|^p is survivable.
    let net = DatasetProfile::Brightkite.instantiate(1200, 5);
    let oracle = BfsOracle::new(net.graph());
    let mut qg = QueryGen::new(&net, 7);
    let query = KtgQuery::new(qg.query(4).expect("workload"), 3, 1, 2).expect("valid");
    let fast = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
    let slow = brute::solve(&net, &query, &oracle);
    let counts = |groups: &[ktg_core::Group]| -> Vec<u32> {
        groups.iter().map(|g| g.coverage_count()).collect()
    };
    assert_eq!(counts(&fast.groups), counts(&slow.groups));
    assert!(fast.stats.nodes <= slow.stats.nodes, "BB must not explore more than brute force");
}

#[test]
fn workload_batches_are_reproducible() {
    let net = scaled_net();
    let a = QueryGen::new(&net, 77).batch(10, 6).expect("workload");
    let b = QueryGen::new(&net, 77).batch(10, 6).expect("workload");
    assert_eq!(a, b);
}

#[test]
fn tagq_never_beats_ktg_on_union_coverage() {
    // KTG maximizes the union; TAGQ maximizes the sum. On the same
    // tenuity constraint, the union coverage of TAGQ's best group can
    // never exceed KTG's optimum.
    let net = scaled_net();
    let oracle = NlrnlIndex::build(net.graph());
    let mut qg = QueryGen::new(&net, 31);
    for _ in 0..3 {
        let query = KtgQuery::new(qg.query(5).expect("workload"), 3, 1, 1).expect("valid");
        let ktg = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
        let tq = tagq::solve(&net, &query, &oracle, &TagqOptions::default());
        if let (Some(kg), Some(tg)) = (ktg.groups.first(), tq.groups.first()) {
            assert!(
                tg.group.coverage_count() <= kg.coverage_count(),
                "TAGQ union {} exceeded KTG optimum {}",
                tg.group.coverage_count(),
                kg.coverage_count()
            );
        }
    }
}

#[test]
fn multi_query_vertex_results_avoid_author_neighborhood() {
    let net = scaled_net();
    let oracle = NlrnlIndex::build(net.graph());
    let mut qg = QueryGen::new(&net, 41);
    let query = KtgQuery::new(qg.query(6).expect("workload"), 3, 1, 3).expect("valid");
    let masks = net.compile(query.keywords());
    let mut cands = candidates::collect_vec(net.graph(), &masks);
    // Use the highest-degree vertex as the "author".
    let author = net
        .graph()
        .vertices()
        .max_by_key(|&v| net.graph().degree(v))
        .expect("non-empty graph");
    multi_query::restrict_candidates(&oracle, &[author], 2, &mut cands);
    let out = bb::solve_with_candidates(&query, &oracle, &cands, &bb::BbOptions::vkc_deg());
    for g in &out.groups {
        for &v in g.members() {
            assert!(v != author);
            assert!(oracle.farther_than(author, v, 2));
        }
    }
}

#[test]
fn index_space_ordering_matches_paper() {
    // Figure 9a's claim: NLRNL stores less than NL (half storage and the
    // widest level dropped).
    for profile in [DatasetProfile::Gowalla, DatasetProfile::Brightkite] {
        let net = profile.instantiate(400, 9);
        let nl = NlIndex::build(net.graph());
        let nlrnl = NlrnlIndex::build(net.graph());
        assert!(
            nlrnl.space().total_bytes() < nl.space().total_bytes(),
            "{profile}: NLRNL {} !< NL {}",
            nlrnl.space().total_bytes(),
            nl.space().total_bytes()
        );
    }
}

#[test]
fn unsatisfiable_queries_return_empty() {
    let net = scaled_net();
    let oracle = BfsOracle::new(net.graph());
    // k larger than the diameter: no pair qualifies.
    let mut qg = QueryGen::new(&net, 53);
    let query = KtgQuery::new(qg.query(6).expect("workload"), 3, 60, 2).expect("valid");
    let out = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
    // Groups can only exist across disconnected components; with p = 3 we
    // need 3 mutually unreachable candidates. Verify feasibility if any.
    for g in &out.groups {
        for (i, &u) in g.members().iter().enumerate() {
            for &v in &g.members()[i + 1..] {
                assert!(oracle.farther_than(u, v, 60));
            }
        }
    }
}

#[test]
fn tenuity_reports_consistent_with_results() {
    // Every group returned by the engine must be a k-distance group under
    // the tenuity metrics module, with group tenuity > k.
    use ktg_core::tenuity;
    let net = scaled_net();
    let index = NlrnlIndex::build(net.graph());
    let mut qg = QueryGen::new(&net, 71);
    let k = 2u32;
    let query = KtgQuery::new(qg.query(6).expect("workload"), 3, k, 5).expect("valid");
    let out = bb::solve(&net, &query, &index, &bb::BbOptions::vkc_deg());
    for g in &out.groups {
        let r = tenuity::report(&index, g.members(), k);
        assert!(r.is_k_distance_group());
        assert_eq!(r.ktriangles, 0);
        let t = tenuity::group_tenuity(g.members(), |u, v| index.distance(u, v));
        if let Some(t) = t {
            assert!(t > k, "tenuity {t} must exceed k={k}");
        }
    }
}
