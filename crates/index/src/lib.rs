//! # `ktg-index`
//!
//! Distance oracles for the KTG (ICDE 2023) reproduction — the paper's §V,
//! "Index-based algorithm for fast social distance checking".
//!
//! The k-line filtering step of the branch-and-bound search asks one
//! question over and over: *is the social distance of `u` and `v` greater
//! than the tenuity constraint `k`?* ([`DistanceOracle::farther_than`]).
//! Four implementations answer it:
//!
//! * [`BfsOracle`] — no index: a hop-bounded BFS per (source, k), memoized
//!   for the repeated-source access pattern of k-line filtering. The
//!   baseline every index must beat.
//! * [`NlIndex`] — the paper's **NL** index: per-vertex `h`-hop neighbor
//!   lists where `h` is the hop level with the most neighbors; levels past
//!   `h` are expanded on demand (and cached), exactly as Algorithm 2
//!   mutates `L[u_j][j+1]`.
//! * [`NlrnlIndex`] — the paper's **NLRNL** index: per-vertex `(c−1)`-hop
//!   lists plus *reverse* lists for levels `> c` (level `c` itself — the
//!   widest — is the one deliberately not stored), with id-ordered half
//!   storage. Component labels disambiguate "distance exactly c" from
//!   "unreachable", a detail the paper leaves implicit.
//! * [`ExactOracle`] — all-pairs ground truth for tests and tiny graphs.
//!
//! Both indexes report [`space::IndexSpace`] and [`space::BuildStats`],
//! powering the Figure 9 experiments, and [`NlrnlIndex`] supports the
//! paper's dynamic maintenance under edge insertion/deletion
//! ([`NlrnlIndex::prepare_update`] before the edit,
//! [`NlrnlIndex::apply_update`] after it, on whatever graph the caller
//! edits; [`DynamicNlrnl`] packages the pair over a [`ktg_graph::DynamicGraph`]).
//!
//! The crate holds oracles, the bundle format ([`persist`]) and the
//! write-ahead log ([`wal`]), nothing else. The search's conflict rows,
//! and their `(vertex, k)` memo, live beside the kernel that reads them
//! in `ktg_core::bb::kernel`.


#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_oracle;
pub mod dynamic;
pub mod exact;
pub mod leveled;
pub mod nl;
pub mod nlrnl;
pub mod oracle;
pub mod persist;
pub mod space;
pub mod wal;

pub use bfs_oracle::BfsOracle;
pub use dynamic::DynamicNlrnl;
pub use exact::ExactOracle;
pub use nl::NlIndex;
pub use nlrnl::{EdgeUpdate, NlrnlIndex};
pub use oracle::DistanceOracle;
pub use space::{BuildStats, IndexSpace};
pub use wal::{WalRecord, WalReplay, WalSync, WalWriter};
