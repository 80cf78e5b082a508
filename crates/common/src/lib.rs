//! # `ktg-common`
//!
//! Shared utilities for the KTG (Keyword-based Socially Tenuous Group
//! Queries, ICDE 2023) reproduction workspace.
//!
//! This crate deliberately has **zero dependencies**: everything the rest of
//! the workspace needs that is not domain-specific lives here, built from
//! scratch:
//!
//! * [`VertexId`] — a compact `u32` vertex handle used across all crates.
//! * [`FxHashMap`] / [`FxHashSet`] — hash containers with a fast
//!   multiply-based hasher ([`hash::FxHasher64`]), suitable for the integer
//!   keys that dominate this workload.
//! * [`FixedBitSet`] and [`EpochMarker`] — dense membership structures used
//!   for BFS visited sets and candidate filtering without per-query O(n)
//!   clears.
//! * [`TopN`] — a bounded min-heap maintaining the N best items with the
//!   paper's tie semantics (an item that merely equals the current N-th best
//!   does not displace an incumbent).
//! * [`rng`] — seeded from-scratch PRNGs ([`SeededRng`] is xoshiro256++
//!   expanded from a `u64` seed via SplitMix64) with `gen_range`,
//!   `gen_bool`, `shuffle`, and distinct-`sample`, replacing the `rand`
//!   crate for dataset generation and randomized tests.
//! * [`parallel`] — chunked scoped-thread helpers on `std::thread::scope`
//!   with panic propagation and `KTG_THREADS` worker-count control,
//!   replacing `crossbeam::thread::scope`.
//! * [`SharedThreshold`] — a max-accumulating atomic coverage floor that
//!   lets parallel branch-and-bound workers share Theorem-2 pruning power.
//! * [`pool`] — mutex-guarded free lists ([`Pool`]) recycling per-worker
//!   arenas (BFS scratch, candidate vectors, bitmap rows) so the batched
//!   query executor serves steady-state traffic without reallocating.
//! * [`memo`] — [`Memo`], the sharded, bounded memo with cost-aware
//!   eviction behind both serving caches (whole answers and `(vertex, k)`
//!   conflict rows), invalidated by [`Memo::retain`] under `&mut self`.
//! * [`cancel`] — cooperative [`CancelToken`]s with per-query wall-clock
//!   deadlines, the [`CompletionStatus`] tag distinguishing exact
//!   answers from anytime best-so-far ones, and the [`Stopwatch`]
//!   latency measurer (the only lib module allowed to read the wall
//!   clock; see the module docs for why that is sound).
//! * [`net`] — blocking line-framing over byte streams ([`LineReader`] /
//!   [`write_line`]): timeout-tolerant, overlong-line-safe, the I/O
//!   substrate under the `ktg serve` TCP front-end.
//! * [`fault`] — a deterministic, seeded fault-injection registry
//!   (`KTG_FAULTS`) that the robustness test suites use to prove the
//!   serving stack recovers from transient worker faults byte-identically.
//! * [`KtgError`] — the workspace error type.


#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cancel;
pub mod error;
pub mod fault;
pub mod hash;
pub mod id;
pub mod memo;
pub mod net;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod threshold;
pub mod topn;

pub use bitset::{EpochMarker, FixedBitSet};
pub use cancel::{CancelToken, CompletionStatus, DegradeReason, Stopwatch};
pub use error::{KtgError, Result};
pub use fault::{FaultConfig, FaultSite, InjectedFault};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher64};
pub use id::VertexId;
pub use memo::Memo;
pub use net::{write_line, Frame, LineReader};
pub use pool::{Pool, PoolGuard};
pub use rng::{SeededRng, SplitMix64};
pub use threshold::SharedThreshold;
pub use topn::TopN;
