//! # `ktg-core`
//!
//! The primary contribution of *"Keyword-based Socially Tenuous Group
//! Queries"* (Zhu et al., ICDE 2023), implemented in full:
//!
//! * [`KtgQuery`] / [`DktgQuery`] — the query forms `⟨W_Q, p, k, N⟩` and
//!   their validation (Definitions 7 and 10).
//! * [`bb`] — the exact branch-and-bound engine behind **KTG-VKC** and
//!   **KTG-VKC-DEG** (and the **KTG-QKC** variant evaluated in §VII),
//!   with *keyword pruning* (Theorem 2) and *k-line filtering*
//!   (Theorem 3), each independently toggleable for ablations.
//! * [`brute`] — the brute-force exact baseline from §III, used as ground
//!   truth by the test suite.
//! * [`dktg`] — the diversified variant: Jaccard diversity `dL`
//!   (Definition 9), the combined score (Eq. 4), **DKTG-Greedy** (§VI-B)
//!   and the `1 − α` approximation bound of §VI-C.
//! * [`tagq`] — a faithful comparator for TAGQ [18] (maximize *average*
//!   coverage under a k-tenuity budget), used by the Figure 8 case study.
//! * [`multi_query`] — the §IV-B *Discussion* extension: exclude
//!   candidates socially close to given query vertices (paper authors).
//! * [`serve`] — the batched query-serving layer: workload executor with
//!   pooled scratch arenas, a result cache, and cross-query conflict-row
//!   reuse, both invalidated by update locality (byte-identical to fresh
//!   solves).
//! * [`network`] — [`network::AttributedGraph`], the ergonomic facade
//!   bundling topology + keywords that examples and downstream users
//!   interact with.
//! * [`fixtures`] — the paper's Figure 1 running example, reconstructed
//!   from the worked examples in §§III–VI and shared by tests, examples
//!   and the case study.
//!
//! ## Quick start
//!
//! ```
//! use ktg_core::network::AttributedGraph;
//! use ktg_core::{bb, KtgQuery, MemberOrdering};
//! use ktg_index::BfsOracle;
//!
//! let net = ktg_core::fixtures::figure1();
//! let query = KtgQuery::new(
//!     net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
//!     3,    // group size p
//!     1,    // tenuity constraint k
//!     2,    // top N
//! )
//! .unwrap();
//! let oracle = BfsOracle::new(net.graph());
//! let outcome = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
//! assert_eq!(outcome.groups[0].coverage_count(), 4); // 4 of 5 keywords
//! ```


#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bb;
pub mod brute;
pub mod candidates;
pub mod dktg;
pub mod dktg_exact;
pub mod explain;
pub mod fixtures;
pub mod group;
pub mod multi_query;
pub mod network;
pub mod query;
pub mod serve;
pub mod stats;
pub mod tagq;
pub mod verify;

pub use bb::{BbOptions, KtgOutcome, MemberOrdering};
pub use candidates::Candidate;
pub use dktg::{DktgOutcome, DktgQuery};
pub use group::Group;
pub use network::AttributedGraph;
pub use query::KtgQuery;
pub use stats::SearchStats;
pub use verify::{audit_results, AuditReport, Violation};
