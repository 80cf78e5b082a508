//! The batched workload executor.
//!
//! [`ServeSession`] owns one attributed network and replays
//! [`WorkloadItem`] scripts against it, amortizing everything that a
//! query-at-a-time loop re-pays per query:
//!
//! * **Scratch pooling** — each fresh solve borrows an [`Arena`]
//!   (candidate vector, kernel scratch, bitmap rows) from a
//!   [`ktg_common::Pool`]; steady state performs no large allocations
//!   per query.
//! * **Result caching** — whole answers are memoized in a
//!   [`ResultCache`] keyed on the query.
//! * **Conflict-row reuse** — fresh solves assemble their conflict-bitmap
//!   kernels through the [`ktg_index::NeighborhoodCache`] `(vertex, k)`
//!   memo instead of re-running one bounded BFS per candidate per query.
//!
//! Updates are serialization points: [`ServeSession::run`] splits the
//! workload into maximal query runs separated by edge updates, fans each
//! run out over [`ktg_common::parallel::scope_join`] workers (atomic
//! work claiming, results merged positionally so output order equals
//! workload order), and applies updates sequentially under `&mut self`.
//! An applied update edits the session's one topology, the CSR inside
//! its [`AttributedGraph`], in place, maintains the NLRNL index across
//! the edit, and drops from both memos exactly the answers and rows the
//! edit can change: those that read a vertex whose distance to an
//! endpoint moved and that lay within `k − 1` hops of one (the lemma is
//! on `ServeSession::invalidate`). The drop holds `&mut self`, so no
//! lookup or insert can straddle it, and a stale answer or row is
//! unreachable by construction.
//!
//! **Answer fidelity.** Every path — pooled, cached, parallel — returns
//! groups and scores byte-identical to a fresh sequential
//! [`bb::solve`] / [`crate::dktg::solve_with_options`] call against the
//! current graph: candidate extraction is shared, the bitmap-vs-oracle
//! fork runs on [`ConflictKernel::wants_bitmap`] exactly, and the cached
//! kernel rows are bit-for-bit those of
//! [`ktg_index::kline_conflict_bitmaps`]. The differential suite
//! (`tests/tests/serve_diff.rs`) enforces this across thread counts,
//! cache settings, and interleaved updates.
//!
//! **Robustness.** Every workload item executes under
//! [`std::panic::catch_unwind`]: a panicking item (injected fault or
//! genuine bug) drops the arena it borrowed as the panic unwinds —
//! half-mutated scratch never returns to the pool — is retried once
//! with fault injection suppressed, and on a second failure becomes an
//! [`ItemOutcome::Failed`] record while the session keeps draining the
//! rest of the run. Deadline-cut solves come back flagged
//! [`CompletionStatus::Degraded`]; only `Exact` answers ever enter the
//! result cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use ktg_common::fault::{self, FaultSite};
use ktg_common::parallel::{scope_join, worker_count};
use ktg_common::{CompletionStatus, FixedBitSet, FxHashMap, Pool, Stopwatch, VertexId};
use ktg_index::{
    conflict_bitmaps_cached, kline_conflict_bitmaps, KernelScratch, NeighborhoodCache,
    NlrnlIndex,
};

use crate::bb::{self, BbOptions, ConflictKernel, KtgOutcome};
use crate::candidates::{self, Candidate};
use crate::dktg::{self, DktgQuery};
use crate::group::Group;
use crate::network::AttributedGraph;
use crate::query::KtgQuery;

use super::cache::{CacheKey, ResultCache};
use super::workload::WorkloadItem;
use super::ServeOptions;

/// The answer to one KTG workload item.
#[derive(Clone, Debug, PartialEq)]
pub struct KtgAnswer {
    /// Result groups, identical to a fresh sequential solve.
    pub groups: Vec<Group>,
    /// Whether this answer came out of the result cache.
    pub cached: bool,
    /// `Exact`, or `Degraded` when a deadline/budget cut the search and
    /// the groups are best-so-far. Cache hits are always `Exact` (only
    /// exact answers are inserted).
    pub status: CompletionStatus,
}

/// The answer to one DKTG workload item.
#[derive(Clone, Debug, PartialEq)]
pub struct DktgAnswer {
    /// Result groups in greedy discovery order.
    pub groups: Vec<Group>,
    /// `dL(RG)` — mean pairwise Jaccard distance.
    pub diversity: f64,
    /// `min_g QKC(g)` over the result groups.
    pub min_qkc: f64,
    /// The combined score (Eq. 4).
    pub score: f64,
    /// Whether this answer came out of the result cache.
    pub cached: bool,
    /// `Exact`, or `Degraded` when the shared greedy-round budget fired
    /// and the groups found so far were kept. Cache hits are always
    /// `Exact`.
    pub status: CompletionStatus,
}

/// The outcome of one workload item, in workload order.
#[derive(Clone, Debug, PartialEq)]
pub enum ItemOutcome {
    /// Answer to a [`WorkloadItem::Ktg`] line.
    Ktg(KtgAnswer),
    /// Answer to a [`WorkloadItem::Dktg`] line.
    Dktg(DktgAnswer),
    /// Report for an [`WorkloadItem::Insert`] / [`WorkloadItem::Remove`]
    /// line: `applied` is `false` when the edge already existed (insert),
    /// was already absent (remove), or the endpoints were invalid.
    Update {
        /// Whether the graph actually changed (the update count advanced
        /// and both memos dropped the entries the edit can reach).
        applied: bool,
    },
    /// The item's worker panicked on the solve *and* on the suppressed
    /// retry; its arena was dropped both times and the session moved
    /// on. `reason` renders the second panic's payload.
    Failed {
        /// Human-readable panic payload of the final attempt.
        reason: String,
    },
}

/// What a cached entry stores: exactly the result-bearing fields, never
/// the search stats (counters describe work performed, and a cache hit
/// performs none). Groups are stored as solved: the key fixes the
/// query's keyword order, so their coverage masks are in its bit order.
#[derive(Clone)]
enum CachedAnswer {
    Ktg(Vec<Group>),
    Dktg { groups: Vec<Group>, diversity: f64, min_qkc: f64, score: f64 },
}

/// Recycled scratch: everything a fresh solve needs that is
/// sized by the query, pooled so steady-state serving allocates nothing
/// large. (The per-query keyword-mask compile still allocates inside
/// `ktg-keywords`; see DESIGN.md §13.)
#[derive(Default)]
struct Arena {
    kernel: KernelScratch,
    cands: Vec<Candidate>,
    sources: Vec<VertexId>,
    bitmaps: Vec<FixedBitSet>,
}

/// Aggregate cache instrumentation for one session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Whole answers served from the result cache.
    pub result_hits: u64,
    /// Queries that fell through to a fresh solve.
    pub result_misses: u64,
    /// Result entries dropped by applied updates: the answers whose
    /// keywords a moved vertex near the edit holds.
    pub result_reclaimed: u64,
    /// Conflict rows served from the `(vertex, k)` memo.
    pub row_hits: u64,
    /// Conflict rows computed by bounded BFS.
    pub row_misses: u64,
    /// Conflict rows evicted from the bounded `(vertex, k)` memo by its
    /// benefit-score policy.
    pub row_evictions: u64,
    /// Conflict rows dropped by applied updates: the rows whose ball the
    /// edit can reach.
    pub row_reclaimed: u64,
    /// Retired: counted keyword-subset floor seeds, which no longer
    /// exist. Always 0; kept so existing readers of the struct still
    /// build.
    pub subset_hits: u64,
    /// Number of applied edge updates.
    pub epoch: u64,
}

/// A long-lived query-serving session over one attributed network.
pub struct ServeSession {
    /// The one topology: updates edit its CSR in place.
    net: AttributedGraph,
    /// NLRNL over `net`'s graph, maintained across every applied update
    /// and immutable between them, so every worker reads it concurrently
    /// without a lock.
    index: NlrnlIndex,
    /// Number of applied edge updates.
    epoch: u64,
    options: ServeOptions,
    results: ResultCache<CachedAnswer>,
    rows: NeighborhoodCache,
    arenas: Pool<Arena>,
}

impl ServeSession {
    /// Opens a session over `net` with the given serving options.
    pub fn new(net: AttributedGraph, options: ServeOptions) -> Self {
        Self::with_index(net, options, None)
    }

    /// Opens a session reusing a pre-built NLRNL index (the bundle-reload
    /// path). An index covering a different vertex count is ignored and
    /// rebuilt — the session must always open consistent.
    pub fn with_index(
        net: AttributedGraph,
        options: ServeOptions,
        index: Option<NlrnlIndex>,
    ) -> Self {
        let index = index
            .filter(|index| index.num_vertices() == net.num_vertices())
            .unwrap_or_else(|| NlrnlIndex::build(net.graph()));
        ServeSession {
            index,
            epoch: 0,
            results: ResultCache::new(options.cache_entries),
            rows: NeighborhoodCache::new(options.cache_entries),
            arenas: Pool::new(),
            options,
            net,
        }
    }

    /// The network in its current (post-update) state.
    #[inline]
    pub fn net(&self) -> &AttributedGraph {
        &self.net
    }

    /// The number of applied edge updates.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live NLRNL index — always `Some`; the `Option` matches
    /// [`ktg_index::persist::save_bundle`]'s optional index argument.
    /// This is the checkpoint seam: the server persists it into the
    /// rewritten bundle so a recovery reload skips reconstruction.
    pub fn nlrnl_index(&self) -> Option<&NlrnlIndex> {
        Some(&self.index)
    }

    /// Cache instrumentation so far.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            result_hits: self.results.hits(),
            result_misses: self.results.misses(),
            result_reclaimed: self.results.reclaimed(),
            row_hits: self.rows.hits(),
            row_misses: self.rows.misses(),
            row_evictions: self.rows.evictions(),
            row_reclaimed: self.rows.reclaimed(),
            subset_hits: 0,
            epoch: self.epoch,
        }
    }

    /// Replays a workload, returning one outcome per item in workload
    /// order. Maximal runs of queries execute in parallel; updates apply
    /// sequentially between them.
    pub fn run(&mut self, workload: &[WorkloadItem]) -> Vec<ItemOutcome> {
        let mut out = Vec::with_capacity(workload.len());
        let mut i = 0;
        while i < workload.len() {
            match workload[i] {
                WorkloadItem::Insert(u, v) => {
                    out.push(self.apply_update(true, u, v));
                    i += 1;
                }
                WorkloadItem::Remove(u, v) => {
                    out.push(self.apply_update(false, u, v));
                    i += 1;
                }
                _ => {
                    let start = i;
                    while i < workload.len() && workload[i].is_query() {
                        i += 1;
                    }
                    self.run_queries(&workload[start..i], &mut out);
                }
            }
        }
        out
    }

    /// Answers one *query* item through the full isolated pipeline
    /// (cache, pooled arena, panic isolation, retry-once) without
    /// mutating the session.
    ///
    /// This is the network server's read-path entry point: because it
    /// takes `&self`, many connections can answer concurrently under a
    /// shared read lock while edge updates serialize behind the write
    /// lock via [`ServeSession::apply_item`]. Update items are not
    /// accepted here — they would need `&mut self` — and come back as
    /// [`ItemOutcome::Failed`] rather than panicking, so a misrouted
    /// item degrades one response instead of the whole connection.
    pub fn answer_query(&self, item: &WorkloadItem) -> ItemOutcome {
        if !item.is_query() {
            return ItemOutcome::Failed {
                reason: "update items require exclusive session access".to_string(),
            };
        }
        self.answer_isolated(item)
    }

    /// Executes one item of any kind, taking `&mut self`: queries go
    /// through the same pipeline as [`ServeSession::answer_query`], edge
    /// updates apply (bumping the update count on a real change). The
    /// network server routes update lines here under its write lock.
    pub fn apply_item(&mut self, item: &WorkloadItem) -> ItemOutcome {
        match *item {
            WorkloadItem::Insert(u, v) => self.apply_update(true, u, v),
            WorkloadItem::Remove(u, v) => self.apply_update(false, u, v),
            _ => self.answer_query(item),
        }
    }

    /// Applies one edge update: snapshot the index, edit the CSR in
    /// place, maintain the index over the edited graph, then drop the
    /// cached answers and conflict rows the edit can change
    /// ([`ServeSession::invalidate`]). An invalid edge, a duplicate insert
    /// or the removal of an absent edge touches nothing, so caches stay
    /// warm and the two full BFS runs of [`NlrnlIndex::prepare_update`]
    /// are paid only for real changes.
    fn apply_update(&mut self, insert: bool, u: VertexId, v: VertexId) -> ItemOutcome {
        // Out-of-range/self-loop updates are reported, not fatal: a
        // workload replay keeps going (the parser already rejects them in
        // files; this arm covers programmatic workloads).
        let graph = self.net.graph();
        if graph.check_edge(u, v).is_err() || graph.has_edge(u, v) == insert {
            return ItemOutcome::Update { applied: false };
        }
        let update = self.index.prepare_update(graph, u, v);
        let graph = self.net.graph_mut();
        let edited = if insert { graph.insert_edge(u, v) } else { graph.remove_edge(u, v) };
        debug_assert!(matches!(edited, Ok(true)), "a checked edit must change the graph");
        let moved = self.index.apply_update(self.net.graph(), update);
        self.epoch += 1;
        self.invalidate(&moved);
        ItemOutcome::Update { applied: true }
    }

    /// Drops exactly the cached answers and conflict rows that an applied
    /// edit of `{x, y}` can change. `moved` is the set `A` of vertices
    /// whose distance to `x` or to `y` changed, in ascending order, each
    /// with `d(s) = min(dx_old(s), dy_old(s))`, as
    /// [`NlrnlIndex::apply_update`] returns it.
    ///
    /// **Lemma.** If the edit flips whether `Dis(s, t) ≤ k`, then `s` and
    /// `t` lie in `A`, and `d(s) < k` and `d(t) < k`.
    /// * `Dis(s, t)` changed, so both lie in `A` (the lemma on
    ///   [`NlrnlIndex::apply_update`]).
    /// * Take a shortest `s`–`t` path on the side of the edit where
    ///   `Dis(s, t) ≤ k`: after an insert, before a delete. It must use
    ///   `{x, y}`, or it would exist on both sides, and it uses it once.
    ///   Its part from `s` up to the edge avoids the edge, so it exists
    ///   before the edit and is at most `k − 1` long. The same holds for
    ///   `t`.
    ///
    /// **Rows.** Row `(s, k)` is the ball `{t : 0 < Dis(s, t) ≤ k}`; it is
    /// dropped iff `s ∈ A` and `d(s) < k`.
    ///
    /// **Answers.** A cached KTG or DKTG answer with keyword ids `W_Q` and
    /// distance `k` is dropped iff some `s ∈ A` with `d(s) < max(k, 1)`
    /// holds a keyword of `W_Q`. This is sound because:
    /// * an exact answer depends only on the holders of `W_Q`, their
    ///   masks, their degrees and which candidate pairs lie within `k`;
    /// * edits never change keywords;
    /// * only `Exact` answers are cached;
    /// * KTG's canonical tie order compares ids, not degrees. DKTG's
    ///   stop-at-coverage rounds keep the first group the VKC-DEG order
    ///   reaches, so they read degrees, but only `x` and `y` change
    ///   degree, and they are the vertices with `d = 0`: the `max(k, 1)`
    ///   covers them at `k = 0`, where no distance matters.
    fn invalidate(&mut self, moved: &[(VertexId, u32)]) {
        // The least `d(s)` over the moved holders of each keyword id.
        let mut nearest: FxHashMap<u32, u32> = FxHashMap::default();
        for &(s, d) in moved {
            for w in self.net.keywords().keywords(s) {
                let least = nearest.entry(w.0).or_insert(d);
                *least = (*least).min(d);
            }
        }
        self.results.retain(|key| {
            let reach = key.k().max(1);
            !key.keywords().iter().any(|w| nearest.get(w).is_some_and(|&d| d < reach))
        });
        self.rows.retain(|&(s, k)| match moved.binary_search_by_key(&s, |&(v, _)| v.0) {
            Ok(i) => moved[i].1 >= k,
            Err(_) => true,
        });
    }

    /// Answers a run of consecutive queries, fanning out across workers
    /// when both the options and the run length allow it.
    fn run_queries(&self, items: &[WorkloadItem], out: &mut Vec<ItemOutcome>) {
        let workers = match self.options.threads {
            0 => worker_count(),
            t => t,
        }
        .min(items.len())
        .max(1);

        // The session's index is immutable between updates, so every
        // worker reads the same oracle lock-free — the shared-index
        // amortization that makes the fan-out actually scale (per-worker
        // memoizing oracles would redo each other's BFS work).
        if workers <= 1 {
            out.extend(items.iter().map(|item| self.answer_isolated(item)));
            return;
        }

        let next = AtomicUsize::new(0);
        let parts = scope_join((0..workers).map(|_| {
            let next = &next;
            move || {
                let mut local = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx) else { break };
                    local.push((idx, self.answer_isolated(item)));
                }
                local
            }
        }));

        // Positional merge: claiming hands out each index exactly once,
        // so the output is in workload order regardless of worker timing.
        let mut slots: Vec<Option<ItemOutcome>> = items.iter().map(|_| None).collect();
        for (idx, outcome) in parts.into_iter().flatten() {
            slots[idx] = Some(outcome);
        }
        out.extend(slots.into_iter().map(|slot| match slot {
            Some(outcome) => outcome,
            None => unreachable!("every claimed index produces an outcome"),
        }));
    }

    /// Answers one item with panic isolation and a retry-once policy.
    ///
    /// A panicking attempt drops the arena it borrowed, so half-mutated
    /// scratch never re-enters the pool, then retries once under
    /// [`fault::suppressed`]: an *injected* fault cannot re-fire, so
    /// transients always recover to the byte-identical answer, while a
    /// genuine persistent bug fails again and is recorded as
    /// [`ItemOutcome::Failed`] — the session keeps draining.
    fn answer_isolated(&self, item: &WorkloadItem) -> ItemOutcome {
        match self.attempt(item) {
            Ok(outcome) => outcome,
            Err(_first) => match fault::suppressed(|| self.attempt(item)) {
                Ok(outcome) => outcome,
                Err(second) => ItemOutcome::Failed { reason: panic_reason(second.as_ref()) },
            },
        }
    }

    /// One guarded solve attempt. `AssertUnwindSafe` is justified because
    /// the unwind itself drops the only state a panicking attempt can
    /// leave half-mutated: the arena, borrowed inside this closure on a
    /// cache miss, whose [`ktg_common::PoolGuard`] drops it instead of
    /// parking it when dropped by a panic. The caches mutate whole entries
    /// under poison-recovering locks, and all fault sites fire *before*
    /// their lock is taken, so no lock is held while a guard unwinds.
    fn attempt(&self, item: &WorkloadItem) -> std::thread::Result<ItemOutcome> {
        catch_unwind(AssertUnwindSafe(|| {
            fault::inject(FaultSite::WorkerSolve);
            self.answer(item)
        }))
    }

    /// Engine options for inner solves: worker parallelism lives at the
    /// workload level, so each individual search runs sequentially (which
    /// is also what makes outcomes independent of the fan-out).
    fn inner_opts(&self) -> BbOptions {
        BbOptions { threads: 1, ..self.options.engine }
    }

    fn answer(&self, item: &WorkloadItem) -> ItemOutcome {
        match item {
            WorkloadItem::Ktg(query) => ItemOutcome::Ktg(self.answer_ktg(query)),
            WorkloadItem::Dktg(query) => ItemOutcome::Dktg(self.answer_dktg(query)),
            WorkloadItem::Insert(..) | WorkloadItem::Remove(..) => {
                unreachable!("updates are split out of query runs")
            }
        }
    }

    fn answer_ktg(&self, query: &KtgQuery) -> KtgAnswer {
        let opts = self.inner_opts();
        let key = self.options.use_cache.then(|| CacheKey::ktg(query));
        if let Some(key) = &key {
            if let Some(CachedAnswer::Ktg(groups)) = self.cached(key) {
                // Checked mode re-audits even cached answers: a cache bug
                // shows up as a verification failure, not a wrong result.
                crate::verify::enforce(&self.net, query, &groups);
                return KtgAnswer { groups, cached: true, status: CompletionStatus::Exact };
            }
        }
        let mut arena = self.arenas.acquire_with(Arena::default);
        let clock = Stopwatch::start();
        let outcome = self.solve_ktg(query, &mut arena, &opts);
        let solve_ns = clock.elapsed_nanos();
        // Only exact answers are cacheable: a deadline-cut result is
        // valid best-so-far but not canonical, and must not shadow the
        // exact answer for later repeats of the same query.
        if outcome.status.is_exact() {
            if let Some(key) = key {
                self.results.insert(key, CachedAnswer::Ktg(outcome.groups.clone()), solve_ns);
            }
        }
        KtgAnswer { groups: outcome.groups, cached: false, status: outcome.status }
    }

    /// Result-cache lookup. The cache fault site fires first, before any
    /// shard lock is taken, so an injected panic can never poison (or
    /// skew) shard state: a retried lookup sees the cache exactly as the
    /// first attempt did.
    fn cached(&self, key: &CacheKey) -> Option<CachedAnswer> {
        fault::inject(FaultSite::CacheLookup);
        self.results.get(key)
    }

    /// A fresh KTG solve through the pooled arena, taking the
    /// bitmap-vs-oracle fork on exactly [`ConflictKernel::wants_bitmap`]
    /// so stats and results match [`bb::solve`] bit for bit.
    fn solve_ktg(&self, query: &KtgQuery, arena: &mut Arena, opts: &BbOptions) -> KtgOutcome {
        let masks = self.net.compile(query.keywords());
        candidates::collect(self.net.graph(), &masks, &mut arena.cands);
        if !ConflictKernel::wants_bitmap(arena.cands.len(), opts) {
            return bb::solve_with_kernel(
                &self.net,
                query,
                &self.index,
                &arena.cands,
                &ConflictKernel::Oracle,
                opts,
            );
        }
        arena.sources.clear();
        arena.sources.extend(arena.cands.iter().map(|c| c.v));
        if self.options.use_cache {
            conflict_bitmaps_cached(
                self.net.graph(),
                &arena.sources,
                query.k(),
                &self.rows,
                &mut arena.kernel,
                &mut arena.bitmaps,
            );
        } else {
            arena.bitmaps = kline_conflict_bitmaps(self.net.graph(), &arena.sources, query.k());
        }
        let kernel = ConflictKernel::Bitmap(std::mem::take(&mut arena.bitmaps));
        let outcome =
            bb::solve_with_kernel(&self.net, query, &self.index, &arena.cands, &kernel, opts);
        if let Some(rows) = kernel.into_bitmaps() {
            // Hand the rows back to the arena so the next query reuses
            // their word allocations.
            arena.bitmaps = rows;
        }
        outcome
    }

    fn answer_dktg(&self, query: &DktgQuery) -> DktgAnswer {
        let opts = self.inner_opts();
        let key = self.options.use_cache.then(|| CacheKey::dktg(query));
        if let Some(key) = &key {
            if let Some(CachedAnswer::Dktg { groups, diversity, min_qkc, score }) = self.cached(key)
            {
                crate::verify::enforce_dktg(&self.net, query, &groups);
                return DktgAnswer {
                    groups,
                    diversity,
                    min_qkc,
                    score,
                    cached: true,
                    status: CompletionStatus::Exact,
                };
            }
        }
        // Same code path as `dktg::solve_with_options`, minus the
        // candidate-vector allocation: greedy rounds consume the pooled
        // vector in place.
        let mut arena = self.arenas.acquire_with(Arena::default);
        let clock = Stopwatch::start();
        let masks = self.net.compile(query.base().keywords());
        candidates::collect(self.net.graph(), &masks, &mut arena.cands);
        let outcome = dktg::solve_with_candidates(query, &self.index, &mut arena.cands, &opts);
        let solve_ns = clock.elapsed_nanos();
        crate::verify::enforce_dktg(&self.net, query, &outcome.groups);
        if let Some(key) = key.filter(|_| outcome.status.is_exact()) {
            self.results.insert(
                key,
                CachedAnswer::Dktg {
                    groups: outcome.groups.clone(),
                    diversity: outcome.diversity,
                    min_qkc: outcome.min_qkc,
                    score: outcome.score,
                },
                solve_ns,
            );
        }
        DktgAnswer {
            groups: outcome.groups,
            diversity: outcome.diversity,
            min_qkc: outcome.min_qkc,
            score: outcome.score,
            cached: false,
            status: outcome.status,
        }
    }
}

/// Renders a caught panic payload for an [`ItemOutcome::Failed`] record.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<fault::InjectedFault>() {
        return injected.to_string();
    }
    if let Some(msg) = payload.downcast_ref::<&str>() {
        return (*msg).to_string();
    }
    if let Some(msg) = payload.downcast_ref::<String>() {
        return msg.clone();
    }
    "worker panicked with a non-string payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::serve::workload::parse_workload;
    use ktg_graph::DynamicGraph;
    use ktg_index::BfsOracle;
    use ktg_keywords::QueryKeywords;

    fn paper_workload(net: &AttributedGraph) -> Vec<WorkloadItem> {
        parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
dktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2 gamma=0.5
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
dktg terms=GD,QP,SN,DQ,GQ p=3 k=1 n=2 gamma=0.5
",
            net,
        )
        .unwrap()
    }

    /// Options for tests that assert cache hits: with more than one
    /// worker, two workers can claim identical queries at once and both
    /// miss.
    fn sequential() -> ServeOptions {
        ServeOptions { threads: 1, ..ServeOptions::default() }
    }

    fn reference_ktg(net: &AttributedGraph) -> Vec<Group> {
        let query = KtgQuery::new(
            net.query_keywords(["SN", "QP", "DQ", "GQ", "GD"]).unwrap(),
            3,
            1,
            2,
        )
        .unwrap();
        let oracle = BfsOracle::new(net.graph());
        bb::solve(net, &query, &oracle, &BbOptions::vkc_deg()).groups
    }

    #[test]
    fn serves_paper_answers_and_caches_repeats() {
        let net = fixtures::figure1();
        let expect = reference_ktg(&net);
        // One worker: racing workers can both miss on identical queries.
        let mut session = ServeSession::new(net.clone(), sequential());
        let outcomes = session.run(&paper_workload(&net));
        let ItemOutcome::Ktg(first) = &outcomes[0] else { panic!("expected ktg") };
        assert_eq!(first.groups, expect);
        assert!(!first.cached);
        let ItemOutcome::Ktg(repeat) = &outcomes[2] else { panic!("expected ktg") };
        assert!(repeat.cached, "identical query must hit the cache");
        assert_eq!(repeat.groups, expect);
        let ItemOutcome::Dktg(permuted) = &outcomes[3] else { panic!("expected dktg") };
        assert!(permuted.cached, "permuted terms parse to one key");
        let stats = session.stats();
        assert_eq!(stats.result_hits, 2);
        assert_eq!(stats.result_misses, 2);
    }

    #[test]
    fn no_cache_mode_still_matches() {
        let net = fixtures::figure1();
        let expect = reference_ktg(&net);
        let opts = ServeOptions { use_cache: false, ..ServeOptions::default() };
        let mut session = ServeSession::new(net.clone(), opts);
        let outcomes = session.run(&paper_workload(&net));
        for outcome in &outcomes {
            if let ItemOutcome::Ktg(ans) = outcome {
                assert!(!ans.cached);
                assert_eq!(ans.groups, expect);
            }
        }
        assert_eq!(session.stats().result_hits, 0);
        assert_eq!(session.stats().row_hits, 0);
    }

    #[test]
    fn parallel_output_is_in_workload_order() {
        let net = fixtures::figure1();
        let mut workload = paper_workload(&net);
        for _ in 0..4 {
            workload.extend(paper_workload(&net));
        }
        let sequential = ServeSession::new(net.clone(), ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .run(&workload);
        for threads in [2usize, 4, 0] {
            let parallel = ServeSession::new(net.clone(), ServeOptions {
                threads,
                ..ServeOptions::default()
            })
            .run(&workload);
            // `cached` flags may differ (racing workers can both miss),
            // so compare the result-bearing fields.
            assert_eq!(sequential.len(), parallel.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                match (s, p) {
                    (ItemOutcome::Ktg(a), ItemOutcome::Ktg(b)) => assert_eq!(a.groups, b.groups),
                    (ItemOutcome::Dktg(a), ItemOutcome::Dktg(b)) => {
                        assert_eq!(a.groups, b.groups);
                        assert_eq!(a.score, b.score);
                    }
                    other => panic!("outcome shape diverged: {other:?}"),
                }
            }
        }
    }

    /// Permuted `terms=` lines parse to one query, so the second hits
    /// the first one's entry with a fresh solve's groups, coverage masks
    /// included. A programmatic query in another keyword order gets its
    /// own entry, whose masks are in its own bit order.
    #[test]
    fn permuted_keyword_lines_hit_one_entry() {
        let net = fixtures::figure1();
        let mut session = ServeSession::new(net.clone(), sequential());
        let workload = parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
ktg terms=GD,GQ,DQ,QP,SN p=3 k=1 n=2
",
            &net,
        )
        .unwrap();
        let out = session.run(&workload);
        let ItemOutcome::Ktg(second) = &out[1] else { panic!("expected ktg") };
        assert!(second.cached, "permuted lines share one entry");
        let WorkloadItem::Ktg(parsed) = &workload[1] else { panic!("expected ktg") };
        let oracle = BfsOracle::new(net.graph());
        let fresh = bb::solve(&net, parsed, &oracle, &BbOptions::vkc_deg());
        assert_eq!(second.groups, fresh.groups);

        let mut ids = parsed.keywords().ids().to_vec();
        ids.reverse();
        let reversed = KtgQuery::new(QueryKeywords::new(ids).unwrap(), 3, 1, 2).unwrap();
        let out = session.run(&[WorkloadItem::Ktg(reversed.clone())]);
        let ItemOutcome::Ktg(own) = &out[0] else { panic!("expected ktg") };
        assert!(!own.cached, "another bit order is another entry");
        let fresh = bb::solve(&net, &reversed, &oracle, &BbOptions::vkc_deg());
        assert_eq!(own.groups, fresh.groups);
    }

    #[test]
    fn updates_bump_epoch_and_invalidate() {
        let net = fixtures::figure1();
        let mut session = ServeSession::new(net.clone(), ServeOptions::default());
        let workload = parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
insert 0 5
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
insert 0 5
remove 0 5
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
",
            &net,
        )
        .unwrap();
        let outcomes = session.run(&workload);
        assert_eq!(outcomes[1], ItemOutcome::Update { applied: true });
        let ItemOutcome::Ktg(after) = &outcomes[2] else { panic!("expected ktg") };
        assert!(!after.cached, "update must invalidate the cached answer");
        // Post-update answer matches a fresh solve against the new graph.
        let mut dyn_g = DynamicGraph::from_graph(net.graph());
        dyn_g.insert_edge(VertexId(0), VertexId(5)).unwrap();
        let mutated = AttributedGraph::new(
            dyn_g.to_csr(),
            net.vocab().clone(),
            net.keywords().clone(),
        );
        assert_eq!(after.groups, reference_ktg(&mutated));
        assert_eq!(outcomes[3], ItemOutcome::Update { applied: false }, "duplicate insert");
        assert_eq!(outcomes[4], ItemOutcome::Update { applied: true });
        let ItemOutcome::Ktg(restored) = &outcomes[5] else { panic!("expected ktg") };
        assert_eq!(restored.groups, reference_ktg(&net), "remove restored the topology");
        assert_eq!(session.net().graph(), net.graph());
        assert_eq!(session.epoch(), 2);
        // Each applied update dropped the one answer cached before it.
        assert_eq!(session.stats().result_reclaimed, 2);
    }

    /// Invalid and no-op updates are reported, not fatal, and touch
    /// nothing: the graph, the update count and both warm caches survive.
    #[test]
    fn invalid_programmatic_update_is_reported_not_fatal() {
        let net = fixtures::figure1();
        let mut session = ServeSession::new(net.clone(), sequential());
        let query = paper_workload(&net).remove(0);
        session.run(std::slice::from_ref(&query));
        let rows_before = session.stats().row_misses;
        let (u, v) = (VertexId(0), VertexId(1));
        assert!(net.graph().has_edge(u, v));
        let out = session.run(&[
            WorkloadItem::Insert(VertexId(0), VertexId(9999)),
            WorkloadItem::Remove(VertexId(9999), VertexId(0)),
            WorkloadItem::Insert(VertexId(3), VertexId(3)),
            WorkloadItem::Insert(u, v),
            WorkloadItem::Remove(VertexId(0), VertexId(5)),
            query,
        ]);
        for outcome in &out[..5] {
            assert_eq!(*outcome, ItemOutcome::Update { applied: false });
        }
        let ItemOutcome::Ktg(repeat) = &out[5] else { panic!("expected ktg") };
        assert!(repeat.cached, "a no-op update must leave the result cache warm");
        assert_eq!(session.net().graph(), net.graph());
        let stats = session.stats();
        assert_eq!((stats.epoch, stats.result_reclaimed), (0, 0));
        assert_eq!(stats.row_misses, rows_before);
    }

    /// Serializes tests that arm the process-global fault registry.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A query interned against a larger vocabulary: its keyword id is
    /// out of range for figure1's inverted index, so compiling it panics
    /// (a genuine, persistent bug — unlike an injected fault, the retry
    /// fails the same way).
    fn poison_item() -> WorkloadItem {
        let mut vocab = ktg_keywords::Vocabulary::new();
        vocab.intern_all(fixtures::FIGURE1_TERMS);
        vocab.intern_all(["XX"]);
        let qk = ktg_keywords::QueryKeywords::from_terms(&vocab, ["XX"]).unwrap();
        WorkloadItem::Ktg(KtgQuery::new(qk, 2, 1, 1).unwrap())
    }

    #[test]
    fn worker_panic_is_isolated_and_session_drains() {
        let net = fixtures::figure1();
        let expect = reference_ktg(&net);
        for threads in [1usize, 2] {
            let mut session = ServeSession::new(
                net.clone(),
                ServeOptions { threads, ..ServeOptions::default() },
            );
            let mut workload = paper_workload(&net);
            workload.insert(1, poison_item());
            let out = session.run(&workload);
            assert_eq!(out.len(), 5);
            let ItemOutcome::Failed { reason } = &out[1] else {
                panic!("expected Failed, got {:?}", out[1])
            };
            assert!(reason.contains("index out of bounds"), "reason: {reason}");
            let ItemOutcome::Ktg(first) = &out[0] else { panic!("expected ktg") };
            assert_eq!(first.groups, expect);
            let ItemOutcome::Ktg(repeat) = &out[3] else { panic!("expected ktg") };
            assert_eq!(repeat.groups, expect, "items after the failure still answer");
            // The session itself survives the panic: a fresh run works.
            let again = session.run(&paper_workload(&net));
            assert!(matches!(&again[0], ItemOutcome::Ktg(a) if a.groups == expect));
        }
    }

    #[test]
    fn injected_faults_recover_byte_identically() {
        let _guard = fault_lock();
        let net = fixtures::figure1();
        let mut workload = paper_workload(&net);
        workload.extend(paper_workload(&net));
        let opts = || ServeOptions { threads: 1, ..ServeOptions::default() };
        let baseline = ServeSession::new(net.clone(), opts()).run(&workload);
        for seed in [1u64, 7, 99] {
            ktg_common::fault::set_config(Some(ktg_common::FaultConfig::new(
                &ktg_common::fault::ALL_SITES,
                1.0,
                seed,
            )));
            let faulted = ServeSession::new(net.clone(), opts()).run(&workload);
            ktg_common::fault::set_config(None);
            assert_eq!(baseline, faulted, "seed {seed}: retries must restore the answers");
            assert!(
                !faulted.iter().any(|o| matches!(o, ItemOutcome::Failed { .. })),
                "injected faults are transient — retry-once must absorb them"
            );
        }
    }

    #[test]
    fn degraded_answers_are_flagged_and_never_cached() {
        let net = fixtures::figure1();
        let engine = BbOptions { node_budget: Some(1), ..BbOptions::vkc_deg() };
        let mut session = ServeSession::new(
            net.clone(),
            ServeOptions { threads: 1, engine, ..ServeOptions::default() },
        );
        let workload = parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
",
            &net,
        )
        .unwrap();
        let out = session.run(&workload);
        for o in &out {
            let ItemOutcome::Ktg(ans) = o else { panic!("expected ktg") };
            assert!(!ans.status.is_exact(), "budget-cut solves must be flagged");
            assert!(!ans.cached, "degraded answers must not come from the cache");
        }
        assert_eq!(session.stats().result_hits, 0, "nothing degraded was inserted");
    }

    /// The server's item-at-a-time entry points must produce the same
    /// result-bearing outcomes as the batched `run` path — this is the
    /// contract that makes TCP responses byte-identical to `ktg batch`.
    #[test]
    fn shared_entry_points_match_run() {
        let net = fixtures::figure1();
        let workload = parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
insert 0 5
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
dktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2 gamma=0.5
remove 0 5
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
",
            &net,
        )
        .unwrap();
        let opts = || ServeOptions { threads: 1, ..ServeOptions::default() };
        let batched = ServeSession::new(net.clone(), opts()).run(&workload);
        let mut item_session = ServeSession::new(net.clone(), opts());
        let itemized: Vec<ItemOutcome> =
            workload.iter().map(|item| item_session.apply_item(item)).collect();
        assert_eq!(batched, itemized);
        // answer_query never mutates: an update item routed there is a
        // reported failure, and the epoch stands still.
        let epoch = item_session.epoch();
        let misrouted = item_session.answer_query(&WorkloadItem::Insert(VertexId(0), VertexId(5)));
        assert!(matches!(misrouted, ItemOutcome::Failed { .. }));
        assert_eq!(item_session.epoch(), epoch);
    }

    /// `p` and `N` are workload input: values far beyond the graph must
    /// be answered exactly, never sized into an allocation.
    #[test]
    fn huge_p_and_n_are_answered_exactly() {
        let net = fixtures::figure1();
        let huge = 1_000_000_000_000usize;
        let mut session = ServeSession::new(net.clone(), sequential());
        let mut answer = |line: String| {
            session.run(&parse_workload(&line, &net).unwrap()).remove(0)
        };
        let ktg = |p: usize, n: usize| format!("ktg terms=SN,QP,DQ,GQ,GD p={p} k=1 n={n}");
        let dktg =
            |n: usize| format!("dktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n={n} gamma=0.5");

        // No group of `p` distinct candidates exists.
        let ItemOutcome::Ktg(none) = answer(ktg(huge, 2)) else { panic!("expected ktg") };
        assert!(none.groups.is_empty());
        assert_eq!(none.status, CompletionStatus::Exact);

        // Huge `N` returns every feasible group: exactly what `N` set to
        // that count returns.
        let ItemOutcome::Ktg(all) = answer(ktg(3, huge)) else { panic!("expected ktg") };
        assert!(all.groups.len() > 2, "figure1 has more than two feasible groups");
        assert_eq!(all.status, CompletionStatus::Exact);
        let ItemOutcome::Ktg(exact) = answer(ktg(3, all.groups.len())) else {
            panic!("expected ktg")
        };
        assert_eq!(all.groups, exact.groups);

        let ItemOutcome::Dktg(panels) = answer(dktg(huge)) else { panic!("expected dktg") };
        assert!(!panels.groups.is_empty());
        assert_eq!(panels.status, CompletionStatus::Exact);
        let ItemOutcome::Dktg(exact) = answer(dktg(panels.groups.len())) else {
            panic!("expected dktg")
        };
        assert_eq!(panels.groups, exact.groups);
        assert_eq!(panels.score.to_bits(), exact.score.to_bits());
    }

    /// A network over the synthetic vocabulary `t0, t1, …`: `holders[v]`
    /// lists the keyword ids vertex `v` holds.
    fn tagged_network(edges: &[(u32, u32)], holders: &[&[u32]]) -> AttributedGraph {
        let lists: Vec<Vec<ktg_keywords::KeywordId>> = holders
            .iter()
            .map(|ids| ids.iter().map(|&id| ktg_keywords::KeywordId(id)).collect())
            .collect();
        AttributedGraph::new(
            ktg_graph::CsrGraph::from_edges(holders.len(), edges).unwrap(),
            ktg_keywords::Vocabulary::synthetic(2),
            ktg_keywords::VertexKeywords::from_lists(&lists),
        )
    }

    /// The answer a fresh sequential solve gives on `net` as edited.
    fn fresh_groups(
        net: &AttributedGraph,
        edits: &[(bool, u32, u32)],
        item: &WorkloadItem,
    ) -> Vec<Group> {
        let mut graph = DynamicGraph::from_graph(net.graph());
        for &(insert, u, v) in edits {
            let (u, v) = (VertexId(u), VertexId(v));
            if insert { graph.insert_edge(u, v) } else { graph.remove_edge(u, v) }.unwrap();
        }
        let edited =
            AttributedGraph::new(graph.to_csr(), net.vocab().clone(), net.keywords().clone());
        let oracle = BfsOracle::new(edited.graph());
        match item {
            WorkloadItem::Ktg(q) => bb::solve(&edited, q, &oracle, &BbOptions::vkc_deg()).groups,
            WorkloadItem::Dktg(q) => {
                dktg::solve_with_options(&edited, q, &oracle, &BbOptions::vkc_deg()).groups
            }
            _ => unreachable!("queries only"),
        }
    }

    /// Candidates 0–3 hold `t0`/`t1`, 0 and 1 two hops apart through the
    /// keyword-free 4; 5–7 hold nothing. An edit among 5–7 keeps the
    /// cached answer and every row. Joining 0 and 1 drops the answer and
    /// exactly their two rows, and the re-solve matches a fresh one.
    #[test]
    fn edits_drop_only_the_entries_they_can_reach() {
        let holders: [&[u32]; 8] = [&[0], &[1], &[0], &[1], &[], &[], &[], &[]];
        let net = tagged_network(&[(0, 4), (4, 1), (5, 6)], &holders);
        let mut session = ServeSession::new(net.clone(), sequential());
        let query = parse_workload("ktg terms=t0,t1 p=2 k=1 n=1", &net).unwrap().remove(0);
        let answer = |session: &mut ServeSession| {
            match session.run(std::slice::from_ref(&query)).remove(0) {
                ItemOutcome::Ktg(answer) => answer,
                other => panic!("expected ktg, got {other:?}"),
            }
        };
        let first = answer(&mut session);
        assert_eq!(first.groups, fresh_groups(&net, &[], &query));
        let rows = session.stats().row_misses;
        assert_eq!(rows, 4, "one row per candidate");

        session.run(&[WorkloadItem::Insert(VertexId(6), VertexId(7))]);
        let far = answer(&mut session);
        assert!(far.cached, "an edit among keyword-free vertices keeps the answer");
        assert_eq!(far.groups, first.groups);
        let stats = session.stats();
        assert_eq!((stats.result_reclaimed, stats.row_reclaimed), (0, 0));

        session.run(&[WorkloadItem::Insert(VertexId(0), VertexId(1))]);
        let near = answer(&mut session);
        assert!(!near.cached, "joining two members drops the answer");
        assert_ne!(near.groups, first.groups, "the old group is no longer tenuous");
        assert_eq!(near.groups, fresh_groups(&net, &[(true, 6, 7), (true, 0, 1)], &query));
        let stats = session.stats();
        assert_eq!((stats.result_reclaimed, stats.row_reclaimed), (1, 2), "rows of 0 and 1 only");
        assert_eq!(stats.row_misses, rows + 2, "the rows of 2 and 3 still hit");
    }

    /// At `k = 0` no distance matters, but DKTG's stop-at-coverage round
    /// keeps the first group the VKC-DEG order reaches, which reads
    /// degrees: an edit at a candidate must still drop its answer.
    #[test]
    fn a_k_zero_dktg_answer_follows_a_degree_change() {
        let net = tagged_network(&[], &[&[0], &[1], &[0], &[1], &[0], &[1], &[]]);
        let mut session = ServeSession::new(net.clone(), sequential());
        let query =
            parse_workload("dktg terms=t0,t1 p=2 k=0 n=2 gamma=0.5", &net).unwrap().remove(0);
        let edit = WorkloadItem::Insert(VertexId(2), VertexId(6));
        let out = session.run(&[query.clone(), edit, query.clone()]);
        let (ItemOutcome::Dktg(before), ItemOutcome::Dktg(after)) = (&out[0], &out[2]) else {
            panic!("expected dktg answers, got {out:?}")
        };
        assert!(!after.cached, "the edit raised candidate 2's degree");
        assert_ne!(before.groups, after.groups, "the second round now starts elsewhere");
        assert_eq!(after.groups, fresh_groups(&net, &[(true, 2, 6)], &query));
    }

    #[test]
    fn row_cache_reused_across_distinct_queries() {
        let net = fixtures::figure1();
        let mut session = ServeSession::new(net.clone(), sequential());
        // Distinct p ⇒ distinct result-cache keys, but identical k and
        // candidate sets ⇒ the second query's conflict rows all hit.
        let workload = parse_workload(
            "\
ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2
ktg terms=SN,QP,DQ,GQ,GD p=2 k=1 n=2
",
            &net,
        )
        .unwrap();
        session.run(&workload);
        let stats = session.stats();
        assert_eq!(stats.result_hits, 0);
        assert!(stats.row_hits > 0, "second query must reuse (vertex, k) rows");
    }
}
