//! Batched query serving (the throughput layer; DESIGN.md §13).
//!
//! The algorithm modules answer one query at a time; a serving deployment
//! answers *streams* of them against one long-lived network, with edge
//! updates interleaved. This module adds the machinery that makes the
//! repeated case cheap without ever changing an answer:
//!
//! * [`workload`] — the line-oriented workload format (KTG/DKTG queries
//!   plus `insert`/`remove` edge updates) and its parser.
//! * [`cache`] — [`ResultCache`], the whole-answer memo keyed on
//!   [`CacheKey`].
//! * [`executor`] — [`ServeSession`], which replays workloads with
//!   worker fan-out, pooled per-worker scratch arenas, the result cache,
//!   and cross-query `(vertex, k)` conflict-row reuse through
//!   `bb::kernel::NeighborhoodCache`. Both caches are instances of
//!   [`ktg_common::Memo`], one sharded, bounded type with cost-aware
//!   eviction, and every applied edge update drops from both exactly the
//!   entries it can change. Updates edit the session's one CSR topology
//!   in place and maintain its NLRNL index across the edit.
//!
//! The contract throughout: every outcome is byte-identical to a fresh
//! sequential solve against the session's current graph. Caches
//! accelerate, they never approximate.
//!
//! ```
//! use ktg_core::serve::{parse_workload, ServeOptions, ServeSession, ItemOutcome};
//!
//! let net = ktg_core::fixtures::figure1();
//! let workload = parse_workload(
//!     "ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2\n\
//!      ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2\n",
//!     &net,
//! )
//! .unwrap();
//! // One worker, so the repeat cannot race the first query's insert.
//! let options = ServeOptions { threads: 1, ..ServeOptions::default() };
//! let mut session = ServeSession::new(net, options);
//! let outcomes = session.run(&workload);
//! let ItemOutcome::Ktg(repeat) = &outcomes[1] else { unreachable!() };
//! assert!(repeat.cached, "the second identical query is a cache hit");
//! assert_eq!(repeat.groups[0].coverage_count(), 4);
//! ```

use crate::bb::BbOptions;

pub mod cache;
pub mod executor;
pub mod workload;

pub use cache::{CacheKey, ResultCache};
pub use executor::{DktgAnswer, ItemOutcome, KtgAnswer, ServeSession, ServeStats};
pub use workload::{parse_request_line, parse_workload, WorkloadItem};

/// Configuration for a [`ServeSession`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads fanned out across consecutive queries: `0` asks
    /// [`ktg_common::parallel::worker_count`] (honoring `KTG_THREADS`),
    /// `1` serves sequentially. Individual solves always run
    /// single-threaded — parallelism lives at the workload level.
    pub threads: usize,
    /// Master switch for the result cache and the conflict-row memo.
    /// Off, every query is a fresh solve: the baseline that `--no-cache`
    /// selects, that perfbench's in-process reference replays, and that
    /// CI's cache smoke times the cache against.
    pub use_cache: bool,
    /// Capacity (in entries) of each of the two caches: the result cache
    /// and the conflict-row memo. Ignored when `use_cache` is off.
    pub cache_entries: usize,
    /// Inner engine configuration, fixed for the session's lifetime
    /// (which is why cache keys hold only the query). The `threads`
    /// field is overridden to `1` per solve.
    pub engine: BbOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 0,
            use_cache: true,
            cache_entries: 4096,
            engine: BbOptions::vkc_deg(),
        }
    }
}
