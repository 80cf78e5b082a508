//! Dynamic NLRNL maintenance (paper §V-B): keep the index consistent
//! across edge insertions and deletions without full rebuilds.
//!
//! Simulates a living social network: friendships form and dissolve, and
//! after every mutation the maintained index must equal a freshly built
//! one: every vertex's `c`, forward and reverse lists, and component.
//!
//! ```text
//! cargo run --release -p ktg-examples --bin dynamic_index
//! ```

use ktg_common::SeededRng;
use ktg_datasets::gen;
use ktg_graph::{DynamicGraph, VertexId};
use ktg_index::NlrnlIndex;

fn main() {
    let csr = gen::watts_strogatz(300, 6, 0.1, 13);
    let mut graph = DynamicGraph::from_csr(&csr);
    let mut index = NlrnlIndex::build(&graph);
    let mut rng = SeededRng::seed_from_u64(99);
    let n = graph.num_vertices() as u32;

    println!("maintaining NLRNL over 20 random edge mutations on a 300-vertex graph");
    for step in 0..20 {
        let u = VertexId(rng.gen_range(0..n));
        let v = VertexId(rng.gen_range(0..n));
        if u == v {
            continue;
        }
        let insert = !graph.has_edge(u, v);
        let update = index.prepare_update(&graph, u, v);
        if insert {
            graph.insert_edge(u, v).expect("in range");
        } else {
            graph.remove_edge(u, v).expect("in range");
        }
        index.apply_update(&graph, update);

        // Compare every vertex with a fresh rebuild.
        let fresh = NlrnlIndex::build(&graph);
        for a in (0..n).map(VertexId) {
            assert_eq!(index.c(a), fresh.c(a), "c of {a} after step {step}");
            assert_eq!(
                index.forward_lists(a),
                fresh.forward_lists(a),
                "forward lists of {a} after step {step}"
            );
            assert_eq!(
                index.reverse_lists(a),
                fresh.reverse_lists(a),
                "reverse lists of {a} after step {step}"
            );
            assert_eq!(
                index.component(a),
                fresh.component(a),
                "component of {a} after step {step}"
            );
        }
        println!(
            "  step {step:2}: {} ({u}, {v}) — all {n} vertices match a fresh build",
            if insert { "insert" } else { "remove" }
        );
    }
    println!("maintained index matched a fresh rebuild after every mutation.");
}
