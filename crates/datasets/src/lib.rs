//! # `ktg-datasets`
//!
//! Dataset substrate for the KTG (ICDE 2023) reproduction.
//!
//! The paper evaluates on real SNAP/DBLP graphs (58k–1M vertices) with
//! keyword profiles mined from user data. Neither is redistributable
//! here, so this crate builds the closest synthetic equivalents — the
//! substitution rationale is in DESIGN.md §4:
//!
//! * [`gen`] — graph generators built from scratch: Erdős–Rényi `G(n, m)`,
//!   Watts–Strogatz small-world, and Chung–Lu power-law (the default for dataset profiles, since it
//!   matches a target degree distribution *and* edge count).
//! * [`keywords`] — Zipf-distributed keyword assignment over a synthetic
//!   vocabulary, reproducing the head-heavy selectivity of real term
//!   distributions.
//! * [`profile`] — named [`profile::DatasetProfile`]s mirroring each
//!   evaluation dataset's `(n, m)` (DBLP, Gowalla, Brightkite, Flickr,
//!   Twitter, DBLP-1M) with a `scale` knob for laptop-sized runs.
//! * [`workload`] — the §VII query workload: seeded batches of random
//!   queries with frequency-weighted keyword selection.
//!
//! A real SNAP edge list needs no module here: `ktg … --edges FILE`
//! without `--keywords` reads it with `ktg_graph::io::read_edge_list`
//! and attaches Zipf keywords through [`keywords::assign_zipf`].
//!
//! Everything is deterministic under a caller-supplied seed.


#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod keywords;
pub mod profile;
pub mod sbm;
pub mod workload;

pub use profile::DatasetProfile;
pub use workload::QueryGen;
