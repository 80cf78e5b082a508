//! Ablation benches beyond the paper's figures (DESIGN.md §5):
//!
//! * keyword pruning on/off and k-line filtering on/off;
//! * degree tiebreak direction (ascending — the paper's rationale — vs
//!   descending — the paper's literal phrasing);
//! * distance oracle choice (BFS vs NL vs NLRNL) under one algorithm;
//! * brute force vs branch-and-bound on a small instance;
//! * community structure (planted-partition vs flat Erdős–Rényi);
//! * DKTG exact subset optimum vs the greedy heuristic.

use ktg_bench::harness::BenchGroup;
use ktg_bench::params::DEFAULTS;
use ktg_bench::runner::{dataset_with_queries, Algo, Workbench};
use ktg_core::{bb, brute, KtgQuery, MemberOrdering};
use ktg_datasets::DatasetProfile;
use ktg_index::NlrnlIndex;
use std::time::Duration;

fn pruning_rules() {
    let (net, batch) = dataset_with_queries(DatasetProfile::Gowalla, 100, 42, 2, DEFAULTS.wq).expect("bench workload");
    let index = NlrnlIndex::build(net.graph());
    let mut group = BenchGroup::new("ablation_pruning");
    group.sample_size(10).warm_up_time(Duration::from_millis(500));
    for (name, kp, kf) in [
        ("both", true, true),
        ("no-keyword-pruning", false, true),
        ("no-kline-filtering", true, false),
        ("neither", false, false),
    ] {
        let opts = bb::BbOptions {
            keyword_pruning: kp,
            kline_filtering: kf,
            node_budget: Some(50_000),
            ..bb::BbOptions::vkc_deg()
        };
        group.bench("vkc-deg", name, || {
            for q in &batch {
                let query =
                    KtgQuery::new(q.clone(), DEFAULTS.p, DEFAULTS.k, DEFAULTS.n).expect("valid");
                bb::solve(&net, &query, &index, &opts);
            }
        });
    }
}

fn degree_direction() {
    let (net, batch) = dataset_with_queries(DatasetProfile::Gowalla, 100, 42, 2, DEFAULTS.wq).expect("bench workload");
    let index = NlrnlIndex::build(net.graph());
    let mut group = BenchGroup::new("ablation_degree_order");
    group.sample_size(10).warm_up_time(Duration::from_millis(500));
    for (name, ordering) in [
        ("degree-ascending", MemberOrdering::VkcDeg),
        ("degree-descending", MemberOrdering::VkcDegDesc),
        ("no-tiebreak", MemberOrdering::Vkc),
    ] {
        let opts = bb::BbOptions {
            node_budget: Some(50_000),
            ..bb::BbOptions::vkc().with_ordering(ordering)
        };
        group.bench(name, "", || {
            for q in &batch {
                let query =
                    KtgQuery::new(q.clone(), DEFAULTS.p, DEFAULTS.k, DEFAULTS.n).expect("valid");
                bb::solve(&net, &query, &index, &opts);
            }
        });
    }
}

fn oracle_choice() {
    let (net, batch) = dataset_with_queries(DatasetProfile::Gowalla, 100, 42, 2, DEFAULTS.wq).expect("bench workload");
    let bench = Workbench::new(&net);
    let mut group = BenchGroup::new("ablation_oracles");
    group.sample_size(10).warm_up_time(Duration::from_millis(500));
    for algo in [Algo::KtgVkcDegBfs, Algo::KtgVkcNl, Algo::KtgVkcDegNlrnl] {
        group.bench(algo.name(), "", || bench.run_batch(algo, &batch, &DEFAULTS, Some(50_000)).expect("bench query"));
    }
}

fn brute_vs_bb() {
    // Brute force is O(|V|^p): keep the instance tiny.
    let (net, batch) = dataset_with_queries(DatasetProfile::Brightkite, 800, 42, 1, 4).expect("bench workload");
    let index = NlrnlIndex::build(net.graph());
    let query = KtgQuery::new(batch[0].clone(), 3, 1, 2).expect("valid");
    let mut group = BenchGroup::new("ablation_brute_vs_bb");
    group.sample_size(10).warm_up_time(Duration::from_millis(500));
    group.bench("brute-force", "", || brute::solve(&net, &query, &index));
    group.bench("ktg-vkc-deg", "", || {
        bb::solve(&net, &query, &index, &bb::BbOptions::vkc_deg())
    });
}

fn community_structure() {
    // Does community structure (high modularity) change the algorithm
    // picture relative to an equally dense unstructured graph? Planted
    // partitions make intra-community pairs near-universally k-line for
    // k >= 2, pushing feasible groups across communities.
    use ktg_core::AttributedGraph;
    use ktg_datasets::sbm::{planted_partition, SbmParams};

    let n = 600;
    let params = SbmParams { n, blocks: 6, p_in: 0.08, p_out: 0.004 };
    let sbm_graph = planted_partition(&params, 42);
    let flat_graph = ktg_datasets::gen::erdos_renyi(n, sbm_graph.num_edges(), 42);
    let (vocab_a, kw_a) = ktg_datasets::keywords::assign_zipf(
        n,
        &ktg_datasets::keywords::KeywordModel::default(),
        7,
    );
    let (vocab_b, kw_b) = ktg_datasets::keywords::assign_zipf(
        n,
        &ktg_datasets::keywords::KeywordModel::default(),
        7,
    );
    let nets = [
        ("sbm", AttributedGraph::new(sbm_graph, vocab_a, kw_a)),
        ("flat", AttributedGraph::new(flat_graph, vocab_b, kw_b)),
    ];

    let mut group = BenchGroup::new("ablation_community_structure");
    group.sample_size(10).warm_up_time(Duration::from_millis(500));
    for (name, net) in &nets {
        let index = NlrnlIndex::build(net.graph());
        let batch = ktg_datasets::QueryGen::new(net, 5).batch(2, DEFAULTS.wq).expect("bench workload");
        group.bench("vkc-deg", name, || {
            for q in &batch {
                let query =
                    KtgQuery::new(q.clone(), DEFAULTS.p, DEFAULTS.k, DEFAULTS.n).expect("valid");
                let opts = bb::BbOptions {
                    node_budget: Some(50_000),
                    ..bb::BbOptions::vkc_deg()
                };
                bb::solve(net, &query, &index, &opts);
            }
        });
    }
}

fn dktg_exact_vs_greedy() {
    // Quality-vs-cost of DKTG-Greedy against the exact subset optimum on
    // a small instance where exact search is tractable.
    use ktg_core::dktg::{self, DktgQuery};
    use ktg_core::dktg_exact::{self, ExactLimits};

    let net = ktg_core::fixtures::figure1();
    let base = KtgQuery::new(
        net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).expect("fixture terms"),
        3,
        1,
        2,
    )
    .expect("valid");
    let query = DktgQuery::new(base, 0.5).expect("gamma");
    let oracle = NlrnlIndex::build(net.graph());

    let mut group = BenchGroup::new("ablation_dktg_exact_vs_greedy");
    group.sample_size(20).warm_up_time(Duration::from_millis(500));
    group.bench("greedy", "", || dktg::solve(&net, &query, &oracle));
    group.bench("exact", "", || {
        dktg_exact::solve(&net, &query, &oracle, &ExactLimits::default()).expect("tractable")
    });
}

fn main() {
    pruning_rules();
    degree_direction();
    oracle_choice();
    brute_vs_bb();
    community_structure();
    dktg_exact_vs_greedy();
}
