//! Randomized tests: every distance oracle agrees with ground truth.
//!
//! NL, NLRNL and the BFS oracle must answer `Dis(u, v) > k` identically
//! to the all-pairs table, for every pair and every k, on arbitrary
//! graphs — including disconnected ones. NLRNL's exact distance recovery
//! and dynamic maintenance are covered here too. All cases are drawn from
//! a fixed-seed RNG, so failures reproduce exactly.

use ktg_common::SeededRng;
use ktg_graph::{bfs, DynamicGraph, VertexId};
use ktg_index::{BfsOracle, DistanceOracle, ExactOracle, NlIndex, NlrnlIndex};
use ktg_integration_tests::random_graph;

#[test]
fn all_oracles_agree_with_ground_truth() {
    let mut rng = SeededRng::seed_from_u64(0x04AC1E);
    for case in 0..48 {
        let n = rng.gen_range(2..24usize);
        let density = rng.gen_range(0.0..0.6);
        let seed = rng.gen_range(0u64..2000);
        let g = random_graph(n, density, seed);
        let exact = ExactOracle::build(&g);
        let nl = NlIndex::build(&g);
        let nlrnl = NlrnlIndex::build(&g);
        let bfs_oracle = BfsOracle::new(&g);
        let k_max = 2 + n as u32; // beyond any possible diameter
        for u in g.vertices() {
            for v in g.vertices() {
                for k in 0..k_max {
                    let truth = exact.farther_than(u, v, k);
                    assert_eq!(nl.farther_than(u, v, k), truth, "case {case}: NL ({u:?},{v:?},{k})");
                    assert_eq!(
                        nlrnl.farther_than(u, v, k),
                        truth,
                        "case {case}: NLRNL ({u:?},{v:?},{k})"
                    );
                    assert_eq!(
                        bfs_oracle.farther_than(u, v, k),
                        truth,
                        "case {case}: BFS ({u:?},{v:?},{k})"
                    );
                }
            }
        }
    }
}

#[test]
fn nlrnl_distance_recovery_is_exact() {
    let mut rng = SeededRng::seed_from_u64(0xD157);
    for case in 0..48 {
        let n = rng.gen_range(2..20usize);
        let density = rng.gen_range(0.0..0.6);
        let seed = rng.gen_range(0u64..2000);
        let g = random_graph(n, density, seed);
        let exact = ExactOracle::build(&g);
        let nlrnl = NlrnlIndex::build(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                let truth = exact.distance(u, v);
                let got = nlrnl.distance(u, v);
                if truth == u32::MAX {
                    assert_eq!(got, None, "case {case}: ({u:?}, {v:?})");
                } else {
                    assert_eq!(got, Some(truth), "case {case}: ({u:?}, {v:?})");
                }
            }
        }
    }
}

#[test]
fn nlrnl_dynamic_updates_match_rebuild() {
    let mut rng = SeededRng::seed_from_u64(0xD1AC);
    for case in 0..48 {
        let n = rng.gen_range(3..16usize);
        let density = rng.gen_range(0.05..0.5);
        let seed = rng.gen_range(0u64..1000);
        let mutations = rng.gen_range(1..6usize);
        let csr = random_graph(n, density, seed);
        let mut graph = DynamicGraph::from_csr(&csr);
        let mut index = NlrnlIndex::build(&graph);
        for _ in 0..mutations {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            let update = index.prepare_update(&graph, u, v);
            if graph.has_edge(u, v) {
                graph.remove_edge(u, v).expect("in range");
            } else {
                graph.insert_edge(u, v).expect("in range");
            }
            index.apply_update(&graph, update);

            let fresh = NlrnlIndex::build(&graph);
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (VertexId(a as u32), VertexId(b as u32));
                    assert_eq!(
                        index.distance(a, b),
                        fresh.distance(a, b),
                        "case {case}: distance mismatch after mutating ({u:?}, {v:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn nl_expansion_cache_is_stable() {
    let mut rng = SeededRng::seed_from_u64(0xCAC4E);
    for case in 0..48 {
        let n = rng.gen_range(4..20usize);
        let density = rng.gen_range(0.05..0.3);
        let seed = rng.gen_range(0u64..1000);
        let g = random_graph(n, density, seed);
        let nl = NlIndex::build(&g);
        let exact = ExactOracle::build(&g);
        // Ask in an order that forces expansion (large k first), then
        // re-ask everything: cached answers must stay correct.
        let k_max = 2 + n as u32;
        for round in 0..2 {
            for u in g.vertices() {
                for v in g.vertices() {
                    for k in (0..k_max).rev() {
                        assert_eq!(
                            nl.farther_than(u, v, k),
                            exact.farther_than(u, v, k),
                            "case {case}: round {round} ({u:?},{v:?},{k})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bounded_bfs_matches_table() {
    let mut rng = SeededRng::seed_from_u64(0xBF5);
    for case in 0..48 {
        let n = rng.gen_range(2..24usize);
        let density = rng.gen_range(0.0..0.5);
        let seed = rng.gen_range(0u64..2000);
        let g = random_graph(n, density, seed);
        let table = bfs::all_pairs_distances(&g);
        let mut scratch = ktg_graph::BfsScratch::new(n);
        for u in g.vertices() {
            for v in g.vertices() {
                let truth = table[u.index()][v.index()];
                let got = bfs::distance_bounded(&g, u, v, n + 2, &mut scratch);
                if truth == u32::MAX {
                    assert_eq!(got, None, "case {case}");
                } else {
                    assert_eq!(got, Some(truth), "case {case}");
                }
            }
        }
    }
}

#[test]
fn nlrnl_persistence_roundtrip() {
    use ktg_index::persist;
    use ktg_keywords::{VertexKeywords, Vocabulary};
    let mut rng = SeededRng::seed_from_u64(0x9E4515);
    for case in 0..32 {
        let n = rng.gen_range(2..20usize);
        let density = rng.gen_range(0.0..0.5);
        let seed = rng.gen_range(0u64..1000);
        let g = random_graph(n, density, seed);
        let index = NlrnlIndex::build(&g);
        let keywords = VertexKeywords::from_lists(&vec![Vec::new(); n]);
        let mut buf = Vec::new();
        persist::save_bundle(&g, &Vocabulary::new(), &keywords, Some(&index), &mut buf)
            .expect("serialize");
        let bundle = persist::load_bundle(buf.as_slice()).expect("deserialize");
        assert_eq!(bundle.graph, g, "case {case}");
        let loaded = bundle.index.expect("index section present");
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(index.distance(u, v), loaded.distance(u, v), "case {case}");
                for k in 0..(n as u32 + 2) {
                    assert_eq!(
                        index.farther_than(u, v, k),
                        loaded.farther_than(u, v, k),
                        "case {case}"
                    );
                }
            }
        }
    }
}

#[test]
fn dynamic_wrapper_matches_exact_after_mutations() {
    use ktg_index::DynamicNlrnl;
    let mut rng = SeededRng::seed_from_u64(0xD7A);
    for case in 0..32 {
        let n = rng.gen_range(3..14usize);
        let density = rng.gen_range(0.05..0.5);
        let seed = rng.gen_range(0u64..500);
        let mutations = rng.gen_range(1..5usize);
        let csr = random_graph(n, density, seed);
        let mut dynamic = DynamicNlrnl::new(&csr);
        for _ in 0..mutations {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            if dynamic.graph().has_edge(u, v) {
                dynamic.remove_edge(u, v).expect("valid");
            } else {
                dynamic.insert_edge(u, v).expect("valid");
            }
        }
        let exact = ExactOracle::build(&dynamic.graph().to_csr());
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                for k in 0..(n as u32 + 2) {
                    let (u, v) = (VertexId(u), VertexId(v));
                    assert_eq!(
                        dynamic.farther_than(u, v, k),
                        exact.farther_than(u, v, k),
                        "case {case}"
                    );
                }
            }
        }
    }
}
