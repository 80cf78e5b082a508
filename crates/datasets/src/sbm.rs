//! Planted-partition (stochastic block model) graphs.
//!
//! Tenuous-group queries interact with community structure: inside a
//! community almost every pair is within 2 hops, so feasible groups must
//! straddle communities. The paper's datasets have natural communities;
//! the Chung–Lu profiles reproduce degree skew but not modularity. This
//! generator fills that gap for the community-structure ablation bench
//! (`ablations::community_structure`): `blocks` equally sized communities
//! with intra-community edge probability `p_in` and inter-community
//! probability `p_out`.

use ktg_common::rng::SplitMix64;
use ktg_common::{Result, SeededRng, VertexId};
use ktg_graph::{CsrGraph, GraphBuilder, StreamingGraphBuilder};

/// Parameters of a planted-partition graph.
#[derive(Clone, Copy, Debug)]
pub struct SbmParams {
    /// Number of vertices.
    pub n: usize,
    /// Number of equally sized communities (the last takes the remainder).
    pub blocks: usize,
    /// Intra-community edge probability.
    pub p_in: f64,
    /// Inter-community edge probability.
    pub p_out: f64,
}

impl SbmParams {
    /// A strongly modular default: dense blocks, sparse cut.
    pub fn modular(n: usize, blocks: usize) -> Self {
        SbmParams { n, blocks, p_in: 0.2, p_out: 0.005 }
    }
}

/// The community label of vertex `v` under equal-size blocking.
pub fn block_of(params: &SbmParams, v: VertexId) -> usize {
    let size = params.n.div_ceil(params.blocks);
    (v.index() / size).min(params.blocks - 1)
}

/// Generates a planted-partition graph. Deterministic in `seed`.
///
/// # Panics
/// Panics when `blocks` is zero or exceeds `n`, or probabilities are
/// outside `[0, 1]`.
pub fn planted_partition(params: &SbmParams, seed: u64) -> CsrGraph {
    assert!(params.blocks >= 1 && params.blocks <= params.n, "invalid block count");
    assert!((0.0..=1.0).contains(&params.p_in), "p_in out of range");
    assert!((0.0..=1.0).contains(&params.p_out), "p_out out of range");
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(params.n);
    for u in 0..params.n {
        let bu = block_of(params, VertexId::new(u));
        for v in (u + 1)..params.n {
            let p = if bu == block_of(params, VertexId::new(v)) {
                params.p_in
            } else {
                params.p_out
            };
            if p > 0.0 && rng.gen_bool(p) {
                builder.add_edge_unchecked(VertexId::new(u), VertexId::new(v));
            }
        }
    }
    builder.build()
}


/// Derives an independent RNG for one block-pair region. Seeding by
/// `(seed, region)` — not by a shared stream — is what makes the chunked
/// generator's output independent of region visit order and chunk size.
fn region_rng(seed: u64, region: u64) -> SeededRng {
    let mut sm = SplitMix64::new(seed ^ region.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SeededRng::seed_from_u64(sm.next_u64())
}

/// Visits every sampled index of a Bernoulli(p) process over `0..total`
/// by geometric skips — O(hits) instead of O(total) coin flips, which is
/// what keeps sparse 10M-vertex regions cheap.
fn for_each_hit<F: FnMut(u64)>(total: u64, p: f64, rng: &mut SeededRng, mut f: F) {
    if total == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    let ln_q = (1.0 - p).ln();
    let mut i = 0u64;
    loop {
        // skips ~ Geometric(p): misses before the next hit.
        let skip = ((1.0 - rng.gen_f64()).ln() / ln_q).floor();
        if !skip.is_finite() || skip >= (total - i) as f64 {
            return;
        }
        i += skip as u64;
        f(i);
        i += 1;
        if i >= total {
            return;
        }
    }
}

/// Unranks pair index `t` of the upper triangle over `0..s` into `(a, b)`
/// with `a < b`. The float estimate is corrected by integer search, so
/// the result is exact for every region size the f64 mantissa can seed.
fn tri_unrank(t: u64, s: u64) -> (u64, u64) {
    let before = |a: u64| a * (s - 1) - a.saturating_sub(1) * a / 2;
    let sf = s as f64 - 0.5;
    let mut a = (sf - (sf * sf - 2.0 * t as f64).max(0.0).sqrt()).max(0.0) as u64;
    a = a.min(s.saturating_sub(2));
    while a + 2 < s && before(a + 1) <= t {
        a += 1;
    }
    while a > 0 && before(a) > t {
        a -= 1;
    }
    (a, a + 1 + (t - before(a)))
}

/// The half-open vertex span of block `b` under equal-size blocking
/// (mirrors [`block_of`]: the last block absorbs the remainder).
fn block_span(params: &SbmParams, b: usize) -> (u64, u64) {
    let size = params.n.div_ceil(params.blocks) as u64;
    let start = b as u64 * size;
    let end = if b + 1 == params.blocks { params.n as u64 } else { ((b as u64 + 1) * size).min(params.n as u64) };
    (start, end.max(start))
}

/// Streams the edges of a planted-partition graph region by region
/// without materializing pair lists. Deterministic in `seed` and — by
/// per-region derived RNGs — independent of visit order, so any subset of
/// regions can be regenerated in isolation.
///
/// # Panics
/// Same parameter validation as [`planted_partition`].
pub fn for_each_sbm_edge<F: FnMut(VertexId, VertexId)>(params: &SbmParams, seed: u64, mut f: F) {
    assert!(params.blocks >= 1 && params.blocks <= params.n, "invalid block count");
    assert!((0.0..=1.0).contains(&params.p_in), "p_in out of range");
    assert!((0.0..=1.0).contains(&params.p_out), "p_out out of range");
    let blocks = params.blocks as u64;
    for bi in 0..params.blocks {
        let (is, ie) = block_span(params, bi);
        let side = ie - is;
        // Intra region: upper triangle over the block.
        let mut rng = region_rng(seed, bi as u64 * blocks + bi as u64);
        for_each_hit(side * side.saturating_sub(1) / 2, params.p_in, &mut rng, |t| {
            let (a, b) = tri_unrank(t, side);
            f(VertexId((is + a) as u32), VertexId((is + b) as u32));
        });
        if params.p_out <= 0.0 {
            continue;
        }
        // Inter regions: full rectangles against every later block.
        for bj in (bi + 1)..params.blocks {
            let (js, je) = block_span(params, bj);
            let width = je - js;
            let mut rng = region_rng(seed, bi as u64 * blocks + bj as u64);
            for_each_hit(side * width, params.p_out, &mut rng, |t| {
                f(VertexId((is + t / width) as u32), VertexId((js + t % width) as u32));
            });
        }
    }
}

/// Generates a planted-partition graph through the bounded-memory
/// streaming builder — the 10M-vertex path. Deterministic in `seed`
/// (a different edge stream than [`planted_partition`]'s per-pair coin
/// flips, but the same model).
///
/// # Errors
/// Propagates spill-file I/O errors from the streaming builder.
pub fn planted_partition_chunked(
    params: &SbmParams,
    seed: u64,
    chunk_capacity: usize,
) -> Result<CsrGraph> {
    let mut b = StreamingGraphBuilder::with_chunk_capacity(params.n, chunk_capacity);
    let mut pending = Ok(());
    for_each_sbm_edge(params, seed, |u, v| {
        if pending.is_ok() {
            pending = b.add_edge(u, v);
        }
    });
    pending?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of edges that stay inside a community — a cheap
    /// modularity proxy.
    fn intra_fraction(params: &SbmParams, graph: &CsrGraph) -> f64 {
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in graph.edges() {
            total += 1;
            if block_of(params, u) == block_of(params, v) {
                intra += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        intra as f64 / total as f64
    }

    #[test]
    fn deterministic() {
        let p = SbmParams::modular(100, 4);
        assert_eq!(planted_partition(&p, 3), planted_partition(&p, 3));
        assert_ne!(planted_partition(&p, 3), planted_partition(&p, 4));
    }

    #[test]
    fn modular_graph_is_mostly_intra() {
        let p = SbmParams::modular(200, 4);
        let g = planted_partition(&p, 7);
        let frac = intra_fraction(&p, &g);
        assert!(frac > 0.8, "intra fraction {frac}");
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn uniform_probabilities_are_not_modular() {
        let p = SbmParams { n: 200, blocks: 4, p_in: 0.05, p_out: 0.05 };
        let g = planted_partition(&p, 7);
        let frac = intra_fraction(&p, &g);
        // 4 equal blocks: ~24.6% of pairs are intra.
        assert!(frac < 0.4, "intra fraction {frac}");
    }

    #[test]
    fn blocks_partition_the_vertices() {
        let p = SbmParams::modular(10, 3);
        let labels: Vec<usize> = (0..10).map(|v| block_of(&p, VertexId::new(v))).collect();
        assert_eq!(labels, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn zero_out_probability_disconnects_blocks() {
        let p = SbmParams { n: 60, blocks: 3, p_in: 0.5, p_out: 0.0 };
        let g = planted_partition(&p, 11);
        let comps = ktg_graph::components::Components::compute(&g);
        assert!(comps.count() >= 3, "blocks must stay disconnected, got {}", comps.count());
        assert!((intra_fraction(&p, &g) - 1.0).abs() < 1e-12);
    }


    #[test]
    fn chunked_is_deterministic_and_chunk_size_invariant() {
        let p = SbmParams::modular(300, 6);
        let a = planted_partition_chunked(&p, 5, 64).unwrap();
        let b = planted_partition_chunked(&p, 5, 7).unwrap();
        let c = planted_partition_chunked(&p, 6, 64).unwrap();
        assert_eq!(a, b, "chunk capacity must not change the graph");
        assert_ne!(a, c, "seed must");
        assert!(a.num_edges() > 0);
    }

    #[test]
    fn chunked_matches_model_statistics() {
        let p = SbmParams::modular(400, 4);
        let g = planted_partition_chunked(&p, 9, 1024).unwrap();
        let frac = intra_fraction(&p, &g);
        assert!(frac > 0.8, "intra fraction {frac}");
        // Expected intra edges: blocks * C(100,2) * p_in = 4 * 4950 * 0.2.
        let expect = 4.0 * 4950.0 * 0.2;
        let intra = g.num_edges() as f64 * frac;
        assert!((intra - expect).abs() < expect * 0.25, "intra {intra} vs {expect}");
    }

    #[test]
    fn tri_unrank_covers_the_triangle() {
        let s = 9u64;
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..s * (s - 1) / 2 {
            let (a, b) = tri_unrank(t, s);
            assert!(a < b && b < s, "t={t} -> ({a}, {b})");
            assert!(seen.insert((a, b)), "t={t} duplicated ({a}, {b})");
        }
        assert_eq!(seen.len() as u64, s * (s - 1) / 2);
    }

    #[test]
    fn zero_out_chunked_disconnects_blocks() {
        let p = SbmParams { n: 90, blocks: 3, p_in: 0.5, p_out: 0.0 };
        let g = planted_partition_chunked(&p, 11, 32).unwrap();
        let comps = ktg_graph::components::Components::compute(&g);
        assert!(comps.count() >= 3);
        assert!((intra_fraction(&p, &g) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid block count")]
    fn zero_blocks_panics() {
        planted_partition(&SbmParams { n: 10, blocks: 0, p_in: 0.1, p_out: 0.1 }, 1);
    }
}
