//! Checked-mode result verification.
//!
//! An independent auditor for KTG/DKTG result sets: every property the
//! solvers are supposed to guarantee is *recomputed from first
//! principles* against the raw CSR graph and keyword arenas — fresh
//! bounded BFS for pairwise distances (never the distance oracle the
//! search used), per-member masks rebuilt from `κ(v)` (never the
//! inverted index), group coverage re-unioned from those masks. A bug in
//! an oracle, the candidate extraction, or the branch-and-bound pruning
//! therefore cannot hide from the audit, because the audit shares no
//! code path with any of them.
//!
//! Two ways in:
//!
//! * [`audit_results`] / [`audit_dktg_results`] return an [`AuditReport`]
//!   for callers that want to inspect violations (tests, the CLI).
//! * [`enforce`] / [`enforce_dktg`] assert on a clean report, and are
//!   wired into the algorithm drivers ([`crate::bb::solve`],
//!   [`crate::dktg::solve_with_options`]). They run when
//!   [`checked_mode_enabled`] holds: always in debug builds, and in
//!   release builds when the environment sets `KTG_VERIFY=1` — the knob
//!   CI uses to smoke-test release binaries.
//!
//! The checks, mirroring the paper's Definitions 1–7:
//!
//! * result-set size ≤ `N`, group size = `p`;
//! * members sorted, duplicate-free, in `0..|V|`;
//! * every member covers ≥ 1 query keyword (candidates by Def. 5);
//! * pairwise `Dis(u, v) > k` for every member pair (Defs. 1–3), via a
//!   fresh BFS bounded at depth `k`;
//! * the group's claimed coverage mask equals the re-unioned member
//!   masks (Def. 6);
//! * groups arrive in non-increasing coverage order (top-`N` contract),
//!   and groups of equal coverage in strictly ascending member order (the
//!   canonical tie order, which also rules out a group listed twice);
//! * DKTG only: panels are pairwise member-disjoint (greedy invariant).

use crate::group::Group;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;
use ktg_common::VertexId;
use ktg_graph::bfs;
use ktg_graph::BfsScratch;
use std::fmt;
use std::sync::OnceLock;

/// One way a result set can violate the KTG/DKTG contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// More groups than the query's `N`.
    TooManyGroups {
        /// Number of groups returned.
        got: usize,
        /// The query's `N`.
        n: usize,
    },
    /// A group whose size is not the query's `p`.
    GroupSize {
        /// Index of the offending group in the result order.
        group: usize,
        /// Its member count.
        got: usize,
        /// The query's `p`.
        p: usize,
    },
    /// A vertex appearing twice in one group.
    DuplicateMember {
        /// Index of the offending group.
        group: usize,
        /// The repeated vertex.
        v: VertexId,
    },
    /// A member outside the graph's vertex range.
    MemberOutOfRange {
        /// Index of the offending group.
        group: usize,
        /// The out-of-range vertex.
        v: VertexId,
        /// `|V|` of the graph.
        num_vertices: usize,
    },
    /// A member covering none of the query keywords (not a candidate by
    /// Definition 5, so its VKC/QKC contribution is zero).
    MemberWithoutKeyword {
        /// Index of the offending group.
        group: usize,
        /// The keyword-less vertex.
        v: VertexId,
    },
    /// A member pair within `k` hops: the group is not `k`-tenuous.
    KLine {
        /// Index of the offending group.
        group: usize,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Recomputed hop distance (≤ `k`).
        dist: u32,
        /// The query's tenuity parameter.
        k: u32,
    },
    /// The group's stored coverage mask disagrees with the union of its
    /// members' recomputed masks.
    CoverageMismatch {
        /// Index of the offending group.
        group: usize,
        /// The mask the solver stored.
        claimed: u64,
        /// The mask recomputed from raw keyword sets.
        actual: u64,
    },
    /// A later group with strictly higher coverage than an earlier one.
    OrderingViolation {
        /// Index of the out-of-order group.
        group: usize,
        /// Coverage count of its predecessor.
        prev: u32,
        /// Its own coverage count.
        cur: u32,
    },
    /// A group tying its predecessor's coverage whose member list is not
    /// lexicographically greater than the predecessor's: ties must come in
    /// canonical order, and no group may appear twice.
    TieOrderViolation {
        /// Index of the out-of-order group.
        group: usize,
        /// The coverage count both groups share.
        count: u32,
    },
    /// Two DKTG panels sharing a member (greedy panels are disjoint).
    MembersNotDisjoint {
        /// Index of the earlier group.
        group_a: usize,
        /// Index of the later group.
        group_b: usize,
        /// The shared vertex.
        v: VertexId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TooManyGroups { got, n } => {
                write!(f, "{got} groups returned for a top-{n} query")
            }
            Violation::GroupSize { group, got, p } => {
                write!(f, "group {group}: {got} members, query requires p = {p}")
            }
            Violation::DuplicateMember { group, v } => {
                write!(f, "group {group}: duplicate member {v}")
            }
            Violation::MemberOutOfRange { group, v, num_vertices } => {
                write!(f, "group {group}: member {v} out of range for {num_vertices} vertices")
            }
            Violation::MemberWithoutKeyword { group, v } => {
                write!(f, "group {group}: member {v} covers no query keyword")
            }
            Violation::KLine { group, u, v, dist, k } => {
                write!(
                    f,
                    "group {group}: Dis({u}, {v}) = {dist} ≤ k = {k} — not {k}-tenuous"
                )
            }
            Violation::CoverageMismatch { group, claimed, actual } => {
                write!(
                    f,
                    "group {group}: claimed coverage mask {claimed:#b}, recomputed {actual:#b}"
                )
            }
            Violation::OrderingViolation { group, prev, cur } => {
                write!(
                    f,
                    "group {group}: coverage {cur} exceeds predecessor's {prev} — result not sorted"
                )
            }
            Violation::TieOrderViolation { group, count } => {
                write!(
                    f,
                    "group {group}: ties its predecessor at coverage {count} but its members \
                     do not follow the predecessor's in canonical order"
                )
            }
            Violation::MembersNotDisjoint { group_a, group_b, v } => {
                write!(f, "groups {group_a} and {group_b} share member {v}")
            }
        }
    }
}

/// The outcome of auditing one result set.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every contract violation found, in group order.
    pub violations: Vec<Violation>,
    /// Number of groups examined.
    pub groups_checked: usize,
    /// Number of member pairs whose distance was recomputed.
    pub pairs_checked: usize,
}

impl AuditReport {
    /// Whether the result set passed every check.
    #[inline]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(
                f,
                "verified: {} group(s), {} pairwise distance(s) recomputed",
                self.groups_checked, self.pairs_checked
            );
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Whether checked mode is active: always in debug builds, and in
/// release builds when `KTG_VERIFY=1` is set. Cached after first read.
pub fn checked_mode_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        cfg!(debug_assertions) || std::env::var_os("KTG_VERIFY").is_some_and(|v| v == "1")
    })
}

/// Recomputes a vertex's query-keyword mask from the raw keyword arena —
/// deliberately bypassing the inverted index and compiled [`ktg_keywords::QueryMasks`].
fn recompute_mask(net: &AttributedGraph, query: &KtgQuery, v: VertexId) -> u64 {
    let mut mask = 0u64;
    for (bit, &kw) in query.keywords().ids().iter().enumerate() {
        if net.keywords().has_keyword(v, kw) {
            mask |= 1 << bit;
        }
    }
    mask
}

/// Audits one group in isolation (structure, candidacy, tenuity,
/// coverage); shared by the KTG and DKTG entry points.
fn audit_group(
    net: &AttributedGraph,
    query: &KtgQuery,
    idx: usize,
    group: &Group,
    scratch: &mut BfsScratch,
    report: &mut AuditReport,
) {
    let members = group.members();
    if members.len() != query.p() {
        report.violations.push(Violation::GroupSize {
            group: idx,
            got: members.len(),
            p: query.p(),
        });
    }
    let n = net.num_vertices();
    let mut structurally_sound = true;
    for w in members.windows(2) {
        if w[0] == w[1] {
            report.violations.push(Violation::DuplicateMember { group: idx, v: w[0] });
            structurally_sound = false;
        }
    }
    for &v in members {
        if v.index() >= n {
            report.violations.push(Violation::MemberOutOfRange {
                group: idx,
                v,
                num_vertices: n,
            });
            structurally_sound = false;
        }
    }
    if !structurally_sound {
        // Distance/coverage recomputation would index out of bounds or
        // double-count; the structural violations already fail the audit.
        return;
    }

    let mut actual = 0u64;
    for &v in members {
        let mask = recompute_mask(net, query, v);
        if mask == 0 {
            report.violations.push(Violation::MemberWithoutKeyword { group: idx, v });
        }
        actual |= mask;
    }
    if actual != group.mask() {
        report.violations.push(Violation::CoverageMismatch {
            group: idx,
            claimed: group.mask(),
            actual,
        });
    }

    let k = query.k();
    for (i, &u) in members.iter().enumerate() {
        for &v in &members[i + 1..] {
            report.pairs_checked += 1;
            if let Some(dist) = bfs::distance_bounded(net.graph(), u, v, k as usize, scratch) {
                report.violations.push(Violation::KLine { group: idx, u, v, dist, k });
            }
        }
    }
}

/// Independently re-validates a KTG result set against the raw graph.
///
/// `groups` is expected in result order (descending coverage); the
/// ordering itself is among the audited properties.
pub fn audit_results(net: &AttributedGraph, query: &KtgQuery, groups: &[Group]) -> AuditReport {
    let mut report = AuditReport::default();
    let mut scratch = BfsScratch::new(net.num_vertices());
    if groups.len() > query.n() {
        report.violations.push(Violation::TooManyGroups { got: groups.len(), n: query.n() });
    }
    let mut prev: Option<(u32, &Group)> = None;
    for (idx, group) in groups.iter().enumerate() {
        report.groups_checked += 1;
        audit_group(net, query, idx, group, &mut scratch, &mut report);
        let count = recompute_count(net, query, group);
        if let Some((prev_count, prev_group)) = prev {
            if count > prev_count {
                report.violations.push(Violation::OrderingViolation {
                    group: idx,
                    prev: prev_count,
                    cur: count,
                });
            } else if count == prev_count && group.members() <= prev_group.members() {
                report.violations.push(Violation::TieOrderViolation { group: idx, count });
            }
        }
        prev = Some((count, group));
    }
    report
}

/// Audits a DKTG panel set: every per-group property of
/// [`audit_results`] (against the base query, minus the ordering check —
/// greedy panels rank by marginal score, not raw coverage) plus
/// pairwise member-disjointness.
pub fn audit_dktg_results(
    net: &AttributedGraph,
    query: &crate::dktg::DktgQuery,
    groups: &[Group],
) -> AuditReport {
    let base = query.base();
    let mut report = AuditReport::default();
    let mut scratch = BfsScratch::new(net.num_vertices());
    if groups.len() > base.n() {
        report.violations.push(Violation::TooManyGroups { got: groups.len(), n: base.n() });
    }
    for (idx, group) in groups.iter().enumerate() {
        report.groups_checked += 1;
        audit_group(net, base, idx, group, &mut scratch, &mut report);
    }
    for (a, ga) in groups.iter().enumerate() {
        for (off, gb) in groups[a + 1..].iter().enumerate() {
            for &v in ga.members() {
                if gb.contains(v) {
                    report.violations.push(Violation::MembersNotDisjoint {
                        group_a: a,
                        group_b: a + 1 + off,
                        v,
                    });
                }
            }
        }
    }
    report
}

/// The independently recomputed coverage count of a group.
fn recompute_count(net: &AttributedGraph, query: &KtgQuery, group: &Group) -> u32 {
    let mut mask = 0u64;
    for &v in group.members() {
        if v.index() < net.num_vertices() {
            mask |= recompute_mask(net, query, v);
        }
    }
    mask.count_ones()
}

/// Checked-mode gate for the KTG driver: audits and asserts when
/// [`checked_mode_enabled`]. A no-op (zero audit cost) otherwise.
pub fn enforce(net: &AttributedGraph, query: &KtgQuery, groups: &[Group]) {
    if !checked_mode_enabled() {
        return;
    }
    let report = audit_results(net, query, groups);
    assert!(report.is_ok(), "KTG checked-mode verification failed: {report}");
}

/// Checked-mode gate for the DKTG driver.
pub fn enforce_dktg(net: &AttributedGraph, query: &crate::dktg::DktgQuery, groups: &[Group]) {
    if !checked_mode_enabled() {
        return;
    }
    let report = audit_dktg_results(net, query, groups);
    assert!(report.is_ok(), "DKTG checked-mode verification failed: {report}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{self, BbOptions};
    use crate::dktg::{self, DktgQuery};
    use crate::fixtures;
    use ktg_index::BfsOracle;

    fn paper_query(net: &AttributedGraph, n: usize) -> KtgQuery {
        KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            n,
        )
        .unwrap()
    }

    fn solved(n: usize) -> (AttributedGraph, KtgQuery, Vec<Group>) {
        let net = fixtures::figure1();
        let query = paper_query(&net, n);
        let oracle = BfsOracle::new(net.graph());
        let out = bb::solve(&net, &query, &oracle, &BbOptions::vkc());
        assert!(!out.groups.is_empty(), "fixture admits feasible groups");
        (net, query, out.groups)
    }

    #[test]
    fn genuine_results_audit_clean() {
        let (net, query, groups) = solved(2);
        let report = audit_results(&net, &query, &groups);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.groups_checked, groups.len());
        assert!(report.pairs_checked > 0, "pairwise distances recomputed");
    }

    #[test]
    fn corrupt_member_breaks_tenuity() {
        let (net, query, groups) = solved(1);
        // Replace one member with a neighbor of another member: the pair
        // sits at distance 1 ≤ k, so the audit must flag a k-line.
        let g = &groups[0];
        let keep = g.members()[0];
        let close = net.graph().neighbors(keep)[0];
        assert!(!g.contains(close), "neighbor must be a genuine substitution");
        let mut members = g.members().to_vec();
        members[1] = close;
        let corrupted = Group::new(members, g.mask());
        let report = audit_results(&net, &query, &[corrupted]);
        assert!(
            report.violations.iter().any(|v| matches!(v, Violation::KLine { .. })),
            "{report}"
        );
    }

    #[test]
    fn inflated_mask_is_coverage_mismatch() {
        let (net, query, groups) = solved(1);
        let g = &groups[0];
        let full = (1u64 << query.keywords().len()) - 1;
        assert_ne!(g.mask(), full, "fixture's best group does not cover all 5");
        let inflated = Group::new(g.members().to_vec(), full);
        let report = audit_results(&net, &query, &[inflated]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::CoverageMismatch { .. })),
            "{report}"
        );
    }

    #[test]
    fn wrong_group_size_flagged() {
        let (net, query, groups) = solved(1);
        let g = &groups[0];
        let shrunk = Group::new(g.members()[..2].to_vec(), g.mask());
        let report = audit_results(&net, &query, &[shrunk]);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::GroupSize { got: 2, .. } | Violation::CoverageMismatch { .. }
            )),
            "{report}"
        );
    }

    #[test]
    fn keywordless_member_flagged() {
        let net = fixtures::figure1();
        // Query on SN only: u5 {GD} and u6 {ML} cover nothing. They sit
        // 2 hops apart (u5–u7–u6), so the pair is 1-tenuous and the only
        // violations must be the two unqualified members.
        let query = KtgQuery::new(net.query_keywords(["SN"]).unwrap(), 2, 1, 1).unwrap();
        let bogus = Group::new(vec![VertexId(5), VertexId(6)], 0);
        let report = audit_results(&net, &query, &[bogus]);
        let unqualified = report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::MemberWithoutKeyword { .. }))
            .count();
        assert_eq!(unqualified, 2, "{report}");
        assert!(
            !report.violations.iter().any(|v| matches!(v, Violation::KLine { .. })),
            "{report}"
        );
    }

    #[test]
    fn out_of_range_member_flagged_without_panicking() {
        let (net, query, groups) = solved(1);
        let g = &groups[0];
        let mut members = g.members().to_vec();
        members[0] = VertexId::new(net.num_vertices() + 7);
        let corrupted = Group::new(members, g.mask());
        let report = audit_results(&net, &query, &[corrupted]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MemberOutOfRange { .. })),
            "{report}"
        );
    }

    #[test]
    fn misordered_results_flagged() {
        let (net, query, groups) = solved(2);
        // {u1, u4, u5} is 1-tenuous with coverage 3 (SN, DQ, GD) —
        // strictly below the optimum's 4. Listing it *before* an optimal
        // group breaks the descending-coverage contract.
        let low = Group::new(vec![VertexId(1), VertexId(4), VertexId(5)], 0b10101);
        let sanity = audit_results(&net, &query, std::slice::from_ref(&low));
        assert!(sanity.is_ok(), "hand-built group must itself be valid: {sanity}");
        assert!(groups[0].coverage_count() > low.coverage_count());
        let report = audit_results(&net, &query, &[low, groups[0].clone()]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::OrderingViolation { .. })),
            "{report}"
        );
    }

    #[test]
    fn tie_order_violations_flagged() {
        let (net, query, groups) = solved(2);
        let count = groups[0].coverage_count();
        assert_eq!(groups[1].coverage_count(), count, "figure 1's top two groups tie");
        let swapped = vec![groups[1].clone(), groups[0].clone()];
        let duplicated = vec![groups[0].clone(), groups[0].clone()];
        for bad in [swapped, duplicated] {
            let report = audit_results(&net, &query, &bad);
            assert_eq!(
                report.violations,
                vec![Violation::TieOrderViolation { group: 1, count }],
                "{report}"
            );
        }
    }

    #[test]
    fn too_many_groups_flagged() {
        let (net, query, groups) = solved(1);
        let doubled: Vec<Group> = vec![groups[0].clone(), groups[0].clone()];
        let report = audit_results(&net, &query, &doubled);
        assert!(
            report.violations.iter().any(|v| matches!(v, Violation::TooManyGroups { .. })),
            "{report}"
        );
    }

    #[test]
    fn dktg_panels_audit_clean_and_overlap_is_flagged() {
        let net = fixtures::figure1();
        let base = paper_query(&net, 2);
        let query = DktgQuery::new(base, 0.5).unwrap();
        let oracle = BfsOracle::new(net.graph());
        let out = dktg::solve(&net, &query, &oracle);
        let report = audit_dktg_results(&net, &query, &out.groups);
        assert!(report.is_ok(), "{report}");

        if out.groups.len() >= 2 {
            let overlapping = vec![out.groups[0].clone(), out.groups[0].clone()];
            let report = audit_dktg_results(&net, &query, &overlapping);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::MembersNotDisjoint { .. })),
                "{report}"
            );
        }
    }

    #[test]
    fn checked_mode_is_on_in_debug_builds() {
        if cfg!(debug_assertions) {
            assert!(checked_mode_enabled());
        }
    }

    #[test]
    fn report_display_is_readable() {
        let (net, query, groups) = solved(1);
        let ok = audit_results(&net, &query, &groups);
        assert!(ok.to_string().starts_with("verified:"), "{ok}");
        let g = &groups[0];
        let inflated =
            Group::new(g.members().to_vec(), (1u64 << query.keywords().len()) - 1);
        let bad = audit_results(&net, &query, &[inflated]);
        assert!(bad.to_string().contains("violation(s):"), "{bad}");
    }
}
