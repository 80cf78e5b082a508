//! # `ktg-bench`
//!
//! Benchmark harness reproducing the paper's evaluation (§VII): every
//! figure has a sweep command in the `experiments` binary that prints
//! the same rows/series the paper plots, and the ablation and `scale`
//! benches run on the hand-rolled timing harness in [`harness`] (warmup,
//! fixed sample count, min/mean/median/p95, one JSON line per
//! measurement — the offline `criterion` replacement). Serving speed
//! (`ktg batch`, `ktg serve`) is measured end to end by `perfbench/`,
//! a separate workspace, not here. Table I's
//! parameter grid lives in [`params`]; the shared machinery (dataset
//! instantiation, index construction, per-algorithm query execution,
//! latency aggregation) in [`runner`]; plain-text/CSV emission in
//! [`report`].
//!
//! Scale: the paper ran full-size graphs on a 120 GB testbed. The harness
//! defaults to `1/100` scale (override with `--scale` or `KTG_SCALE`),
//! which preserves every comparative shape — see DESIGN.md §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod params;
pub mod report;
pub mod runner;

pub use harness::{BenchGroup, Summary};
pub use params::{Params, DEFAULTS};
pub use runner::{Algo, Workbench};
