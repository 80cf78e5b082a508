//! Multi-query-vertex extension (paper §IV-B, *Discussion*).
//!
//! "To handle the scenarios in which the authors are familiar with the
//! reviewers, our techniques can be extended to handle the query including
//! multiple query vertices (i.e., the authors). The main idea is to remove
//! those reviewers who are familiar with the authors, i.e., only reviewers
//! whose social distance from the authors is greater than k remain."
//!
//! [`restrict_candidates`] applies exactly that filter; compose it with
//! [`crate::bb::solve_prepared`] to run an author-aware query.

use crate::candidates::Candidate;
use ktg_common::VertexId;
use ktg_index::DistanceOracle;

/// Removes candidates within `k` hops of any query vertex (and the query
/// vertices themselves — an author cannot review their own paper).
/// Returns the number of candidates removed.
pub fn restrict_candidates(
    oracle: &impl DistanceOracle,
    query_vertices: &[VertexId],
    k: u32,
    candidates: &mut Vec<Candidate>,
) -> usize {
    let before = candidates.len();
    candidates.retain(|c| {
        query_vertices
            .iter()
            .all(|&a| c.v != a && oracle.farther_than(a, c.v, k))
    });
    before - candidates.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{self, BbOptions};
    use crate::candidates;
    use crate::fixtures;
    use crate::query::KtgQuery;
    use ktg_index::ExactOracle;

    #[test]
    fn removes_close_reviewers() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let q = net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap();
        let masks = net.compile(&q);
        let mut cands = candidates::collect_vec(net.graph(), &masks);
        let before = cands.len();
        // Author u0 with k = 1: all of u0's qualified neighbors go.
        let removed = restrict_candidates(&oracle, &[ktg_common::VertexId(0)], 1, &mut cands);
        assert!(removed > 0);
        assert_eq!(before - removed, cands.len());
        for c in &cands {
            assert!(oracle.farther_than(ktg_common::VertexId(0), c.v, 1));
        }
    }

    #[test]
    fn author_themselves_excluded() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let q = net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap();
        let masks = net.compile(&q);
        let mut cands = candidates::collect_vec(net.graph(), &masks);
        // k = 0 removes nobody by distance, but the author must still go.
        restrict_candidates(&oracle, &[ktg_common::VertexId(7)], 0, &mut cands);
        assert!(cands.iter().all(|c| c.v != ktg_common::VertexId(7)));
    }

    #[test]
    fn end_to_end_author_aware_query() {
        let net = fixtures::figure1();
        let oracle = ExactOracle::build(net.graph());
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            2,
        )
        .unwrap();
        let masks = net.compile(query.keywords());
        let mut cands = candidates::collect_vec(net.graph(), &masks);
        restrict_candidates(&oracle, &[ktg_common::VertexId(2)], 1, &mut cands);
        let out = bb::solve_prepared(&net, &query, &oracle, cands, &BbOptions::vkc_deg());
        for g in &out.groups {
            fixtures::assert_k_distance(net.graph(), g.members(), 1);
            // u2 and its neighbors (u0, u3, u10) cannot appear.
            for banned in [0u32, 2, 3, 10] {
                assert!(!g.contains(ktg_common::VertexId(banned)), "u{banned} in {g:?}");
            }
        }
    }
}
