//! # `ktg-graph`
//!
//! Graph substrate for the KTG (ICDE 2023) reproduction. The paper's
//! attributed social network `G = (V, E, κ)` is split across two crates:
//! this one holds the topology `(V, E)`; `ktg-keywords` holds `κ`.
//!
//! Everything is built from scratch (no `petgraph`):
//!
//! * [`CsrGraph`] — a cache-friendly compressed-sparse-row undirected
//!   graph, the form all algorithms and indexes consume; single edges are
//!   inserted and removed in place, so a serving session keeps this one
//!   topology across updates.
//! * [`GraphBuilder`] — deduplicating, self-loop-stripping construction.
//! * [`bfs`] — full and hop-bounded breadth-first traversals with reusable
//!   scratch space ([`bfs::BfsScratch`]); these power the paper's social
//!   distance `Dis(u, v)` (Definition 1) and index construction.
//! * [`components`] — connected component labelling (needed by the NLRNL
//!   index to distinguish "distance = c" from "unreachable").
//! * [`DynamicGraph`] — an adjacency-list mutable variant supporting the
//!   edge insertions/deletions of the paper's index-maintenance discussion
//!   (`DynamicNlrnl` in `ktg-index`), and an independent reference for
//!   the in-place CSR edits.
//! * [`io`] — SNAP-style edge-list text I/O so real datasets drop in.
//! * [`stats`] — degree/hop statistics used by dataset profiling and the
//!   experiment reports.


#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod components;
pub mod csr;
pub mod dynamic;
pub mod io;
pub mod stats;
pub mod streaming;

pub use bfs::BfsScratch;
pub use csr::{Adjacency, CsrGraph, GraphBuilder};
pub use dynamic::DynamicGraph;
pub use ktg_common::VertexId;
pub use streaming::StreamingGraphBuilder;
