//! Synthetic graph generators.
//!
//! Three classic models, all seeded and deterministic:
//!
//! * [`erdos_renyi`] — `G(n, m)`: `m` uniform random edges. The
//!   no-structure baseline.
//! * [`watts_strogatz`] — ring lattice with rewiring: high clustering,
//!   small diameter.
//! * [`chung_lu`] — expected-degree model against an explicit power-law
//!   weight sequence: hits a target edge count while matching the heavy
//!   tail of real social networks. The dataset profiles use this.

use ktg_common::{FxHashSet, SeededRng, VertexId};
use ktg_graph::{CsrGraph, GraphBuilder};

/// `G(n, m)`: exactly `min(m, C(n,2))` distinct uniform random edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = SeededRng::seed_from_u64(seed);
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut builder = GraphBuilder::with_edge_capacity(n, m);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    while seen.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            builder.add_edge_unchecked(VertexId(key.0), VertexId(key.1));
        }
    }
    builder.build()
}

/// Watts–Strogatz small world: ring lattice where each vertex connects to
/// its `k/2` nearest neighbors on each side, then each edge is rewired to
/// a uniform random endpoint with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(k >= 2 && k.is_multiple_of(2), "lattice degree k must be even and ≥ 2");
    assert!(n > k, "need n > k");
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut edges: FxHashSet<(u32, u32)> = FxHashSet::default();
    let canon = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
    for u in 0..n as u32 {
        for j in 1..=(k / 2) as u32 {
            let v = (u + j) % n as u32;
            edges.insert(canon(u, v));
        }
    }
    let lattice: Vec<(u32, u32)> = {
        let mut v: Vec<_> = edges.iter().copied().collect();
        v.sort_unstable(); // determinism: iterate in canonical order
        v
    };
    for (u, v) in lattice {
        if rng.gen_bool(beta) {
            // Rewire the far endpoint.
            for _ in 0..16 {
                let w = rng.gen_range(0..n as u32);
                let cand = canon(u, w);
                if w != u && !edges.contains(&cand) {
                    edges.remove(&canon(u, v));
                    edges.insert(cand);
                    break;
                }
            }
        }
    }
    let mut builder = GraphBuilder::with_edge_capacity(n, edges.len());
    for (u, v) in edges {
        builder.add_edge_unchecked(VertexId(u), VertexId(v));
    }
    builder.build()
}

/// Chung–Lu expected-degree power-law graph.
///
/// Weights `w_i ∝ (i + i0)^(−1/(γ−1))` give a degree exponent of `γ`; the
/// edge-sampling loop draws `target_m` endpoint pairs proportionally to
/// weight, skipping duplicates, so the realized edge count lands slightly
/// under `target_m` on dense heads (matching how the real datasets were
/// thinned in scaling).
pub fn chung_lu(n: usize, target_m: usize, gamma: f64, seed: u64) -> CsrGraph {
    assert!(gamma > 2.0, "degree exponent must exceed 2 for finite mean");
    let mut rng = SeededRng::seed_from_u64(seed);
    let exponent = -1.0 / (gamma - 1.0);
    // Offset i0 tames the head so the max weight stays realizable.
    let i0 = 1.0 + (n as f64).powf(0.25);
    let weights: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(exponent)).collect();
    // Cumulative table for O(log n) weighted sampling.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    let total = acc;

    let sample = |rng: &mut SeededRng| -> u32 {
        let x = rng.gen_range(0.0..total);
        cumulative.partition_point(|&c| c <= x) as u32
    };

    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let target_m = target_m.min(max_edges);
    let mut edges: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut attempts = 0usize;
    let attempt_cap = target_m.saturating_mul(20).max(1000);
    while edges.len() < target_m && attempts < attempt_cap {
        attempts += 1;
        let u = sample(&mut rng);
        let v = sample(&mut rng);
        if u == v {
            continue;
        }
        edges.insert(if u < v { (u, v) } else { (v, u) });
    }
    let mut builder = GraphBuilder::with_edge_capacity(n, edges.len());
    for (u, v) in edges {
        builder.add_edge_unchecked(VertexId(u), VertexId(v));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_graph::stats;

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi(100, 300, 7);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn erdos_renyi_caps_at_complete_graph() {
        let g = erdos_renyi(5, 1000, 7);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(erdos_renyi(50, 100, 42), erdos_renyi(50, 100, 42));
        assert_eq!(watts_strogatz(50, 4, 0.1, 42), watts_strogatz(50, 4, 0.1, 42));
        assert_eq!(chung_lu(50, 120, 2.5, 42), chung_lu(50, 120, 2.5, 42));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(erdos_renyi(50, 100, 1), erdos_renyi(50, 100, 2));
    }

    #[test]
    fn watts_strogatz_keeps_edge_count() {
        let n = 100;
        let k = 6;
        let g = watts_strogatz(n, k, 0.2, 5);
        // Rewiring preserves the lattice edge count (n·k/2) unless a
        // rewire attempt fails; allow a tiny deficit.
        let expected = n * k / 2;
        assert!(g.num_edges() >= expected - 5 && g.num_edges() <= expected);
    }

    #[test]
    fn chung_lu_hits_target_and_skews() {
        let g = chung_lu(500, 1500, 2.5, 11);
        assert!(g.num_edges() > 1300, "realized {} edges", g.num_edges());
        let s = stats::degree_stats(&g);
        assert!(
            s.max as f64 > 4.0 * s.mean,
            "power law should produce hubs: max {} mean {}",
            s.max,
            s.mean
        );
    }
}
