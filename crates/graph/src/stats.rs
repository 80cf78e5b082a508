//! Graph statistics.
//!
//! Used in three places: dataset profiling (checking that a synthetic graph
//! matches its target `(n, m)` and degree shape), index parameter selection
//! (hop-level widths drive the NL/NLRNL `h`/`c` choices), and the experiment
//! reports.

use crate::bfs::{bfs_levels, BfsScratch};
use crate::csr::Adjacency;
use ktg_common::id::vertex_range;
use ktg_common::VertexId;

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m / n`).
    pub mean: f64,
    /// Median degree.
    pub median: usize,
}

/// Computes degree statistics (O(n log n) for the median sort).
pub fn degree_stats<A: Adjacency>(graph: &A) -> DegreeStats {
    let n = graph.num_vertices();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0, median: 0 };
    }
    let mut degrees: Vec<usize> = vertex_range(n).map(|v| graph.degree(v)).collect();
    degrees.sort_unstable();
    DegreeStats {
        min: degrees[0],
        max: degrees[n - 1],
        mean: 2.0 * graph.num_edges() as f64 / n as f64,
        median: degrees[n / 2],
    }
}

/// Estimates the graph's effective diameter and mean distance by BFS from a
/// deterministic sample of `samples` sources (every `n/samples`-th vertex).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopStats {
    /// Largest distance observed from any sampled source.
    pub max_hops: u32,
    /// Mean finite distance over all sampled (source, target) pairs.
    pub mean_hops: f64,
}

/// Samples hop statistics. `samples` is clamped to `[1, n]`.
pub fn sample_hop_stats<A: Adjacency>(graph: &A, samples: usize) -> HopStats {
    let n = graph.num_vertices();
    if n == 0 {
        return HopStats { max_hops: 0, mean_hops: 0.0 };
    }
    let samples = samples.clamp(1, n);
    let stride = n / samples;
    let mut scratch = BfsScratch::new(n);
    let mut max_hops = 0u32;
    let mut total = 0u64;
    let mut count = 0u64;
    for i in 0..samples {
        let src = VertexId::new(i * stride);
        bfs_levels(graph, src, usize::MAX, &mut scratch, |_, d| {
            max_hops = max_hops.max(d);
            total += d as u64;
            count += 1;
        });
    }
    HopStats {
        max_hops,
        mean_hops: if count == 0 { 0.0 } else { total as f64 / count as f64 },
    }
}

/// One-line human-readable summary used by examples and the bench harness.
pub fn summary<A: Adjacency>(graph: &A) -> String {
    let d = degree_stats(graph);
    format!(
        "|V|={} |E|={} deg(min/med/mean/max)={}/{}/{:.2}/{}",
        graph.num_vertices(),
        graph.num_edges(),
        d.min,
        d.median,
        d.mean,
        d.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn star() -> CsrGraph {
        // Center 0 with leaves 1..=4.
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap()
    }

    #[test]
    fn degree_stats_star() {
        let s = degree_stats(&star());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 1);
        assert!((s.mean - 1.6).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_empty() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s, DegreeStats { min: 0, max: 0, mean: 0.0, median: 0 });
    }

    #[test]
    fn hop_stats_path() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = sample_hop_stats(&g, 4);
        assert_eq!(h.max_hops, 3);
        // All pairs: distances 1,2,3,1,2,1 both directions → mean 10/6.
        assert!((h.mean_hops - 10.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn summary_contains_counts() {
        let text = summary(&star());
        assert!(text.contains("|V|=5"));
        assert!(text.contains("|E|=4"));
    }
}
