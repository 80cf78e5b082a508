//! Named dataset profiles mirroring the paper's evaluation graphs.
//!
//! §VII evaluates on four base datasets plus two scalability graphs:
//!
//! | dataset    | nodes     | edges     | role                    |
//! |------------|-----------|-----------|-------------------------|
//! | DBLP       | 200,000   | 1,228,923 | co-authorship           |
//! | Gowalla    | 67,320    | 559,200   | location social network |
//! | Brightkite | 58,288    | 214,038   | location social network |
//! | Flickr     | 157,681   | 1,344,397 | media social network    |
//! | Twitter    | 81,306    | 1,768,149 | denser graph (Fig 7a)   |
//! | DBLP-1M    | 1,000,000 | ~6.1M     | large graph (Fig 7b)    |
//!
//! A profile instantiates as a Chung–Lu power-law graph matching the
//! (scaled) node/edge counts plus a Zipf keyword assignment. The paper's
//! testbed had 120 GB of RAM because NL/NLRNL storage grows toward n²/2;
//! the `scale` divisor keeps index experiments laptop-sized while
//! preserving density, degree skew, and hop structure (DESIGN.md §4).

use crate::gen;
use crate::keywords::{self, KeywordModel};
use ktg_core::AttributedGraph;

/// The paper's evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// DBLP co-authorship: 200k nodes, 1.23M edges.
    Dblp,
    /// Gowalla: 67,320 nodes, 559,200 edges.
    Gowalla,
    /// Brightkite: 58,288 nodes, 214,038 edges.
    Brightkite,
    /// Flickr: 157,681 nodes, 1,344,397 edges.
    Flickr,
    /// Twitter (denser, Fig 7a): 81,306 nodes, 1,768,149 edges.
    Twitter,
    /// The 1M-node DBLP variant (Fig 7b); edge count extrapolated at
    /// DBLP's density.
    DblpLarge,
}

impl DatasetProfile {
    /// All four primary datasets, in the order the paper's figures use.
    pub const PRIMARY: [DatasetProfile; 4] = [
        DatasetProfile::Gowalla,
        DatasetProfile::Brightkite,
        DatasetProfile::Flickr,
        DatasetProfile::Dblp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::Dblp => "dblp",
            DatasetProfile::Gowalla => "gowalla",
            DatasetProfile::Brightkite => "brightkite",
            DatasetProfile::Flickr => "flickr",
            DatasetProfile::Twitter => "twitter",
            DatasetProfile::DblpLarge => "dblp-1m",
        }
    }

    /// Full-scale `(nodes, edges)` as reported in §VII.
    pub fn full_size(self) -> (usize, usize) {
        match self {
            DatasetProfile::Dblp => (200_000, 1_228_923),
            DatasetProfile::Gowalla => (67_320, 559_200),
            DatasetProfile::Brightkite => (58_288, 214_038),
            DatasetProfile::Flickr => (157_681, 1_344_397),
            DatasetProfile::Twitter => (81_306, 1_768_149),
            DatasetProfile::DblpLarge => (1_000_000, 6_144_615),
        }
    }

    /// The keyword model paired with this dataset (vocabulary scales
    /// roughly with graph size; per-vertex counts follow typical profile
    /// lengths).
    pub fn keyword_model(self, scale: usize) -> KeywordModel {
        let (nodes, _) = self.full_size();
        let scaled_nodes = (nodes / scale.max(1)).max(64);
        KeywordModel {
            // ~1 keyword type per 20 users, clamped to a practical band.
            vocab_size: (scaled_nodes / 20).clamp(200, 10_000),
            min_per_vertex: 3,
            max_per_vertex: 8,
            zipf_exponent: 1.0,
        }
    }

    /// Instantiates the profile at `1/scale` of full size (`scale = 1` is
    /// the paper's size). Deterministic in `seed`.
    pub fn instantiate(self, scale: usize, seed: u64) -> AttributedGraph {
        let scale = scale.max(1);
        let (nodes, edges) = self.full_size();
        let n = (nodes / scale).max(64);
        let m = (edges / scale).max(128);
        // Seed-split so topology and keywords are independent draws.
        let graph = gen::chung_lu(n, m, 2.5, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let model = self.keyword_model(scale);
        let (vocab, vk) = keywords::assign_zipf(n, &model, seed.wrapping_mul(0x85EB_CA6B).wrapping_add(2));
        AttributedGraph::new(graph, vocab, vk)
    }
}

impl std::fmt::Display for DatasetProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_graph::stats;

    #[test]
    fn scaled_sizes_track_targets() {
        let net = DatasetProfile::Brightkite.instantiate(40, 7);
        let (nodes, edges) = DatasetProfile::Brightkite.full_size();
        let n = net.num_vertices();
        let m = net.graph().num_edges();
        assert_eq!(n, nodes / 40);
        // Chung–Lu may fall slightly short of the target edge count.
        assert!(m as f64 > 0.85 * (edges / 40) as f64, "m = {m}");
        assert!(m <= edges / 40);
    }

    #[test]
    fn density_preserved_across_scales() {
        let a = DatasetProfile::Gowalla.instantiate(20, 3);
        let b = DatasetProfile::Gowalla.instantiate(40, 3);
        let da = stats::degree_stats(a.graph()).mean;
        let db = stats::degree_stats(b.graph()).mean;
        assert!((da - db).abs() / da < 0.25, "mean degree drifted: {da} vs {db}");
    }

    #[test]
    fn instantiation_is_deterministic() {
        let a = DatasetProfile::Twitter.instantiate(100, 5);
        let b = DatasetProfile::Twitter.instantiate(100, 5);
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.keywords(), b.keywords());
    }

    #[test]
    fn twitter_denser_than_brightkite() {
        let t = DatasetProfile::Twitter.instantiate(50, 1);
        let b = DatasetProfile::Brightkite.instantiate(50, 1);
        let dt = stats::degree_stats(t.graph()).mean;
        let db = stats::degree_stats(b.graph()).mean;
        assert!(dt > 2.0 * db, "twitter {dt} vs brightkite {db}");
    }

    /// A scaled profile stands in for its dataset only if the properties
    /// the algorithms are sensitive to survive the scaling: size,
    /// density, degree skew, small-world hop structure and keyword
    /// selectivity skew.
    #[test]
    fn scaled_profiles_pass_their_envelope() {
        let scale = 200;
        for profile in DatasetProfile::PRIMARY {
            let net = profile.instantiate(scale, 42);
            let graph = net.graph();
            let (nodes, edges) = profile.full_size();
            let (nodes, edges) = (nodes / scale, edges / scale);
            assert_eq!(graph.num_vertices(), nodes, "{profile}");
            let m = graph.num_edges();
            assert!(m >= edges * 4 / 5 && m <= edges, "{profile}: {m} edges, target {edges}");
            let deg = stats::degree_stats(graph);
            let degree_skew = deg.max as f64 / deg.mean;
            assert!(degree_skew >= 3.0, "{profile}: degree skew {degree_skew:.2}");
            let mean_hops = stats::sample_hop_stats(graph, 16).mean_hops;
            assert!(mean_hops <= 6.0, "{profile}: mean hops {mean_hops:.2}");
            let used: Vec<usize> = (0..net.vocab().len())
                .map(|k| net.inverted().frequency(ktg_keywords::KeywordId(k as u32)))
                .filter(|&f| f > 0)
                .collect();
            let mean = used.iter().sum::<usize>() as f64 / used.len() as f64;
            let keyword_skew = used.iter().copied().max().unwrap_or(0) as f64 / mean;
            assert!(keyword_skew >= 3.0, "{profile}: keyword skew {keyword_skew:.2}");
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(DatasetProfile::Dblp.name(), "dblp");
        assert_eq!(DatasetProfile::DblpLarge.to_string(), "dblp-1m");
        assert_eq!(DatasetProfile::PRIMARY.len(), 4);
    }

    #[test]
    fn keywords_cover_every_vertex() {
        let net = DatasetProfile::Gowalla.instantiate(100, 1);
        for v in 0..net.num_vertices() {
            assert!(
                !net.keywords().keywords(ktg_common::VertexId::new(v)).is_empty(),
                "vertex {v} has no keywords"
            );
        }
    }
}
