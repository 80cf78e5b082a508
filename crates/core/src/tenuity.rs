//! Tenuity metrics from the paper and its related work (§II-A).
//!
//! The literature measures how "socially tenuous" a group is in several
//! inequivalent ways; the paper's §II discusses all of them and §III picks
//! the strictest. This module implements each so result groups can be
//! compared across definitions (the case study and the TAGQ comparator
//! rely on them):
//!
//! * **k-line count** (Li, ICDMW'18 [2]): number of member pairs within
//!   `k` hops. The paper's k-distance group is exactly "zero k-lines".
//! * **k-triangle count** (Shen et al., KDD'17 [1]): number of member
//!   triples pairwise within `k` hops.
//! * **k-tenuity** (Li et al. [18]): fraction of member pairs within `k`
//!   hops — the relaxation TAGQ optimizes under.
//! * **group tenuity** (paper Definition 4): the smallest pairwise
//!   distance in the group (`None` = all pairs unreachable, maximally
//!   tenuous).

use ktg_common::VertexId;
use ktg_index::DistanceOracle;

/// All pairwise metrics of one group under one `k`, computed with
/// `C(p, 2)` oracle probes (plus `C(p, 3)` set checks for triangles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenuityReport {
    /// Member pairs with `Dis ≤ k` (k-lines, Definition 2).
    pub kline_pairs: u32,
    /// Member triples pairwise within `k` (k-triangles).
    pub ktriangles: u32,
    /// Total member pairs `C(p, 2)`.
    pub total_pairs: u32,
}

impl TenuityReport {
    /// The k-tenuity ratio of [18]: `kline_pairs / total_pairs`
    /// (0 for groups with fewer than 2 members).
    pub fn ktenuity(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        self.kline_pairs as f64 / self.total_pairs as f64
    }

    /// Whether the group is a k-distance group (Definition 3).
    pub fn is_k_distance_group(&self) -> bool {
        self.kline_pairs == 0
    }
}

/// Computes the pairwise/triple metrics of `members` under `k`.
pub fn report(oracle: &impl DistanceOracle, members: &[VertexId], k: u32) -> TenuityReport {
    let p = members.len();
    let mut within = vec![false; p * p];
    let mut kline_pairs = 0u32;
    for i in 0..p {
        for j in (i + 1)..p {
            if oracle.is_kline(members[i], members[j], k) {
                within[i * p + j] = true;
                kline_pairs += 1;
            }
        }
    }
    let mut ktriangles = 0u32;
    for i in 0..p {
        for j in (i + 1)..p {
            if !within[i * p + j] {
                continue;
            }
            for l in (j + 1)..p {
                if within[i * p + l] && within[j * p + l] {
                    ktriangles += 1;
                }
            }
        }
    }
    TenuityReport {
        kline_pairs,
        ktriangles,
        total_pairs: (p * p.saturating_sub(1) / 2) as u32,
    }
}

/// The paper's Definition 4: the smallest pairwise distance in the group.
/// `None` when no pair is reachable (or fewer than two members) — the
/// maximally tenuous case.
///
/// Requires an oracle exposing exact distances, such as
/// [`ktg_index::NlrnlIndex`]. This function takes the distances through
/// a closure so any such oracle (or a plain BFS) plugs in.
pub fn group_tenuity<F>(members: &[VertexId], mut distance: F) -> Option<u32>
where
    F: FnMut(VertexId, VertexId) -> Option<u32>,
{
    let mut min: Option<u32> = None;
    for (i, &u) in members.iter().enumerate() {
        for &v in &members[i + 1..] {
            if let Some(d) = distance(u, v) {
                min = Some(min.map_or(d, |m| m.min(d)));
            }
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use ktg_index::{ExactOracle, NlrnlIndex};

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn paper_result_group_is_zero_kline() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let r = report(&oracle, &ids(&[10, 1, 4]), 1);
        assert_eq!(r.kline_pairs, 0);
        assert_eq!(r.ktriangles, 0);
        assert!(r.is_k_distance_group());
        assert_eq!(r.ktenuity(), 0.0);
        assert_eq!(r.total_pairs, 3);
    }

    #[test]
    fn dense_corner_counts_triangles() {
        // u4, u6, u7 are pairwise within 1 hop in the Figure 1 graph.
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let r = report(&oracle, &ids(&[4, 6, 7]), 1);
        assert_eq!(r.kline_pairs, 3);
        assert_eq!(r.ktriangles, 1);
        assert!(!r.is_k_distance_group());
        assert!((r.ktenuity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_group_partial_tenuity() {
        // u6-u7 adjacent; u10 far from both → 1 k-line of 3 pairs.
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let r = report(&oracle, &ids(&[6, 7, 10]), 1);
        assert_eq!(r.kline_pairs, 1);
        assert_eq!(r.ktriangles, 0);
        assert!((r.ktenuity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tenuity_definition4() {
        let net = fixtures::figure1();
        let index = NlrnlIndex::build(net.graph());
        // The paper group {u10, u1, u4}: all pairwise distances ≥ 2.
        let t = group_tenuity(&ids(&[10, 1, 4]), |u, v| index.distance(u, v));
        assert!(t.expect("connected") >= 2);
        // Adjacent pair drops tenuity to 1.
        let t2 = group_tenuity(&ids(&[6, 7]), |u, v| index.distance(u, v));
        assert_eq!(t2, Some(1));
    }

    #[test]
    fn degenerate_groups() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let r = report(&oracle, &ids(&[3]), 2);
        assert_eq!(r.total_pairs, 0);
        assert_eq!(r.ktenuity(), 0.0);
        assert!(r.is_k_distance_group());
        assert_eq!(group_tenuity(&ids(&[3]), |_, _| Some(1)), None);
    }

    #[test]
    fn ktenuity_matches_tagq_budget_semantics() {
        // The TAGQ comparator admits a group iff its k-line count stays
        // within ⌊θ·C(p,2)⌋ — i.e. k-tenuity ≤ θ (up to flooring).
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let r = report(&oracle, &ids(&[6, 7, 10]), 1);
        let budget = crate::tagq::allowed_kline_pairs(3, 0.34);
        assert!(r.kline_pairs <= budget, "one k-line fits a θ=0.34 budget");
    }
}
