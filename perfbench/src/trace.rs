//! The traced run: the workload's exact line sequence replayed in process and in sequence over a session opened from the
//! same bundle with the server's options, making the calls `ktg serve`
//! makes for each line — parse, answer or WAL append + sync + apply +
//! checkpoint, render — with a span around each.
//!
//! Every cache miss is then re-executed under a `shadow` span on the same
//! session state as its stages (compile → collect → rows → search, or the
//! DKTG greedy), and every update is re-applied to a shadow copy of the
//! dynamic index, which splits the solver and the update path without
//! touching the program. Spans are kept in memory and written out as TSV
//! (`line name start_ns end_ns parent`) at the end; the per-layer metrics
//! are aggregates of them plus `SearchStats`/`ServeStats` counts.

use crate::reference::open_session;
use crate::server::Paths;
use crate::spec::{Inputs, Workload};
use crate::stats::{mean, Metric};
use ktg_cli::commands::write_outcome;
use ktg_common::VertexId;
use ktg_core::bb::{self, BbOptions, ConflictKernel};
use ktg_core::dktg::{self, DktgQuery};
use ktg_core::serve::{parse_request_line, ServeSession, ServeStats, WorkloadItem};
use ktg_core::{candidates, KtgQuery};
use ktg_index::wal::{WalSync, WalWriter};
use ktg_index::{persist, DynamicNlrnl, NlrnlIndex};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    line: usize,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, line: usize) -> usize {
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start, end: start, parent, line });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed().as_nanos() as u64;
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        line: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, line);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span called `name`, in nanoseconds, in order.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64).collect()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("create trace: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{}\t{}\t{}\t{}\t{parent}", s.line, s.name, s.start, s.end)
                .map_err(|e| format!("write trace: {e}"))?;
        }
        out.flush().map_err(|e| format!("write trace: {e}"))
    }
}

/// How far the in-process mean per line may exceed the end-to-end mean
/// before the run is flagged. Both are single passes over the same lines,
/// and on a shared host two such passes differ by up to the benchmark's
/// bound (traced `cold_solve` runs on a 2-vCPU VM read 11% more in
/// process, where the front end is under 1% of a line), so only a larger
/// excess shows work the mirror does and the server does not.
const DRIFT_TOLERANCE: f64 = 0.25;

/// Work counts from `SearchStats`, the WAL and the renderer.
#[derive(Default)]
struct Counts {
    candidates: u64,
    bb_nodes: u64,
    keyword_pruned: u64,
    kline_filtered: u64,
    dktg_nodes: u64,
    distance_checks: u64,
    wal_bytes: u64,
    wal_appends: u64,
    checkpoint_bytes: Vec<f64>,
    response_bytes: u64,
    responses: u64,
}

/// Replays the run's lines with tracing; `e2e_mean_us` is the mean
/// round trip of the same lines over TCP, for the reconciliation.
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    paths: &Paths,
    e2e_mean_us: f64,
    trace_out: &Path,
) -> Result<Vec<Metric>, String> {
    // Substrate: the bundle load `ktg serve` does and the index build
    // `ktg index` does. The loaded copy backs the shadow dynamic index.
    let clock = Instant::now();
    let file = std::fs::File::open(&paths.original).map_err(|e| format!("open bundle: {e}"))?;
    let bundle = persist::load_bundle(file).map_err(|e| format!("load bundle: {e}"))?;
    let load_bundle_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    std::hint::black_box(NlrnlIndex::build(&bundle.graph));
    let build_s = clock.elapsed().as_secs_f64();
    let index = bundle.index.ok_or("bundle carries no NLRNL index")?;
    let mut shadow_index =
        DynamicNlrnl::with_index(&bundle.graph, index).map_err(|e| e.to_string())?;

    let opts = BbOptions { threads: 1, ..BbOptions::vkc_deg() };
    let mut tracer = Tracer { epoch: Instant::now(), spans: Vec::new() };
    let mut counts = Counts::default();
    let mut block = Vec::new();
    let mut session = open_session(&paths.original, true)?;
    // Synced explicitly after each append, which is what `--wal-sync
    // always` does inside `append`, so the two show apart.
    let mut wal = match workload.durable() {
        true => Some(
            WalWriter::create(&paths.trace_wal, 0, WalSync::Batch)
                .map_err(|e| format!("create trace WAL: {e}"))?,
        ),
        false => None,
    };
    let mut since_checkpoint = 0u64;
    for line in &inputs.warmup {
        session.answer_query(&parse(&session, 0, &line.text)?);
    }
    let before = session.stats();
    // Every pass sends the same lines to a fresh server (from another
    // start), so the first pass stands for them all.
    for (id, line) in inputs.timed.iter().chain(&inputs.epilogue).enumerate() {
        let root = tracer.open("line", None, id);
        let item =
            tracer.time("workload.parse", Some(root), id, || parse(&session, id + 1, &line.text))?;
        let mut miss = false;
        let outcome = if item.is_query() {
            let hits = session.stats().result_hits;
            let span = tracer.open("executor.answer", Some(root), id);
            let outcome = session.answer_query(&item);
            tracer.close(span);
            miss = session.stats().result_hits == hits;
            tracer.spans[span].name = if miss { "executor.miss" } else { "executor.hit" };
            outcome
        } else {
            if let Some(wal) = wal.as_mut() {
                let size = || std::fs::metadata(&paths.trace_wal).map(|m| m.len()).unwrap_or(0);
                let before_append = size();
                tracer
                    .time("wal.append", Some(root), id, || wal.append(&line.text))
                    .map_err(|e| format!("WAL append: {e}"))?;
                tracer
                    .time("wal.sync", Some(root), id, || wal.sync())
                    .map_err(|e| format!("WAL sync: {e}"))?;
                counts.wal_bytes += size().saturating_sub(before_append);
                counts.wal_appends += 1;
                since_checkpoint += 1;
            }
            let outcome =
                tracer.time("executor.apply", Some(root), id, || session.apply_item(&item));
            if let Some(wal) = wal.as_mut().filter(|_| since_checkpoint >= inputs.checkpoint_every)
            {
                let bytes = tracer.time("wal.checkpoint", Some(root), id, || {
                    checkpoint(&session, wal, &paths.trace_bundle)
                })?;
                counts.checkpoint_bytes.push(bytes as f64);
                since_checkpoint = 0;
            }
            outcome
        };
        block.clear();
        tracer
            .time("commands.render", Some(root), id, || {
                write_outcome(&mut block, id + 1, &outcome, 0)
            })
            .map_err(|e| format!("render: {e}"))?;
        counts.response_bytes += block.len() as u64;
        counts.responses += 1;
        tracer.close(root);

        match &item {
            WorkloadItem::Ktg(query) if miss => {
                shadow_ktg(&mut tracer, &session, query, &opts, id, &mut counts)?
            }
            WorkloadItem::Dktg(query) if miss => {
                shadow_dktg(&mut tracer, &session, query, &opts, id, &mut counts)?
            }
            WorkloadItem::Insert(u, v) => {
                shadow_update(&mut tracer, &mut shadow_index, true, *u, *v, id)?
            }
            WorkloadItem::Remove(u, v) => {
                shadow_update(&mut tracer, &mut shadow_index, false, *u, *v, id)?
            }
            _ => {}
        }
    }
    tracer.write(trace_out)?;
    let substrate = [load_bundle_s, build_s];
    let stats = delta(before, session.stats());
    Ok(layer_metrics(workload, &tracer, &counts, stats, e2e_mean_us, substrate))
}

/// Counter growth from `start` to `end`.
fn delta(start: ServeStats, end: ServeStats) -> ServeStats {
    ServeStats {
        result_hits: end.result_hits - start.result_hits,
        result_misses: end.result_misses - start.result_misses,
        result_reclaimed: end.result_reclaimed - start.result_reclaimed,
        row_hits: end.row_hits - start.row_hits,
        row_misses: end.row_misses - start.row_misses,
        row_evictions: end.row_evictions - start.row_evictions,
        subset_hits: end.subset_hits - start.subset_hits,
        ..end
    }
}

/// Aggregates spans and counts into the per-layer metrics.
fn layer_metrics(
    workload: Workload,
    tracer: &Tracer,
    counts: &Counts,
    stats: ServeStats,
    e2e_mean_us: f64,
    [load_bundle_s, build_s]: [f64; 2],
) -> Vec<Metric> {
    let mean_of = |name: &str, scale: f64| mean(&tracer.durations(name)) / scale;
    let (us, ms) = (1e3, 1e6);
    let ratio = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let (hits, misses) = (stats.result_hits, stats.result_misses);
    let (row_hits, row_misses) = (stats.row_hits, stats.row_misses);
    // `solve_prepared` rebuilds the rows for the candidates it is given;
    // the search alone is its time minus the row build timed just before.
    let search: Vec<f64> = tracer
        .durations("bb.solve_prepared")
        .iter()
        .zip(tracer.durations("rows.bfs"))
        .map(|(solve, rows)| (solve - rows).max(0.0))
        .collect();
    let in_process_us = mean_of("line", us);
    let unaccounted_us = e2e_mean_us - in_process_us;
    let drift = in_process_us > e2e_mean_us * (1.0 + DRIFT_TOLERANCE);
    if drift {
        eprintln!(
            "perfbench: {} reconciliation FLAG: in-process {in_process_us:.1} us per line exceeds \
             the end-to-end mean {e2e_mean_us:.1} us; the mirror has drifted from the server",
            workload.name()
        );
    }
    let counter = |v: u64| v as f64;
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("persist.load_bundle_s", "s", load_bundle_s),
        metric("nlrnl.build_s", "s", build_s),
        metric("workload.parse_us", "us", mean_of("workload.parse", us)),
        metric("commands.render_us", "us", mean_of("commands.render", us)),
        metric("commands.bytes", "bytes", ratio(counts.response_bytes, counts.responses)),
        metric("executor.hit_us", "us", mean_of("executor.hit", us)),
        metric("executor.miss_ms", "ms", mean_of("executor.miss", ms)),
        metric("executor.apply_ms", "ms", mean_of("executor.apply", ms)),
        metric("cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        metric(
            "cache.subset_seed_ratio",
            "ratio",
            ratio(stats.subset_hits, misses),
        ),
        metric(
            "cache.reclaimed",
            "count",
            counter(stats.result_reclaimed),
        ),
        metric("cache.result_hits", "count", counter(hits)),
        metric("cache.result_misses", "count", counter(misses)),
        metric("keywords.compile_us", "us", mean_of("keywords.compile", us)),
        metric("candidates.collect_us", "us", mean_of("candidates.collect", us)),
        metric("candidates.count", "count", counter(counts.candidates)),
        metric("rows.bfs_ms", "ms", mean_of("rows.bfs", ms)),
        metric("rows.hits", "count", counter(row_hits)),
        metric("rows.misses", "count", counter(row_misses)),
        metric("rows.memo_hit_ratio", "ratio", ratio(row_hits, row_hits + row_misses)),
        metric("rows.evictions", "count", counter(stats.row_evictions)),
        metric("bb.search_ms", "ms", mean(&search) / ms),
        metric("bb.nodes", "count", counter(counts.bb_nodes)),
        metric("bb.keyword_pruned", "count", counter(counts.keyword_pruned)),
        metric("bb.kline_filtered", "count", counter(counts.kline_filtered)),
        metric("dktg.greedy_ms", "ms", mean_of("dktg.greedy", ms)),
        metric("dktg.nodes", "count", counter(counts.dktg_nodes)),
        metric("dktg.distance_checks", "count", counter(counts.distance_checks)),
        metric("wal.append_us", "us", mean_of("wal.append", us)),
        metric("wal.sync_ms", "ms", mean_of("wal.sync", ms)),
        metric("wal.bytes_per_update", "bytes", ratio(counts.wal_bytes, counts.wal_appends)),
        metric("wal.checkpoint_ms", "ms", mean_of("wal.checkpoint", ms)),
        metric("wal.checkpoint_bytes", "bytes", mean(&counts.checkpoint_bytes)),
        metric("dynamic.apply_ms", "ms", mean_of("dynamic.apply", ms)),
        metric("graph.to_csr_ms", "ms", mean_of("graph.to_csr", ms)),
        metric("net.unaccounted_us", "us", unaccounted_us),
        metric("net.mirror_drift", "flag", f64::from(u8::from(drift))),
    ];
    let exact: Vec<String> = metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "bytes")
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    eprintln!("perfbench: {} counters {}", workload.name(), exact.join(" "));
    metrics
}

fn parse(session: &ServeSession, lineno: usize, line: &str) -> Result<WorkloadItem, String> {
    parse_request_line(session.net(), lineno, line)
        .map_err(|e| format!("parse `{line}`: {e}"))?
        .ok_or_else(|| format!("`{line}` is not a workload item"))
}

/// `serve.rs`'s checkpoint: the live network and index into a temp
/// bundle, fsync, atomic rename, log truncate. Returns the bundle size.
fn checkpoint(session: &ServeSession, wal: &mut WalWriter, bundle: &Path) -> Result<u64, String> {
    let tmp = bundle.with_extension("tmp");
    let net = session.net();
    let io = |e: std::io::Error| format!("checkpoint: {e}");
    let mut writer = std::io::BufWriter::new(std::fs::File::create(&tmp).map_err(io)?);
    persist::save_bundle(
        net.graph(),
        net.vocab(),
        net.keywords(),
        session.nlrnl_index(),
        &mut writer,
    )
    .map_err(|e| format!("checkpoint: {e}"))?;
    writer.flush().map_err(io)?;
    let file = writer.into_inner().map_err(|e| io(e.into_error()))?;
    file.sync_data().map_err(io)?;
    let bytes = file.metadata().map_err(io)?.len();
    drop(file);
    std::fs::rename(&tmp, bundle).map_err(io)?;
    wal.truncate().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(bytes)
}

/// A KTG miss as its stages: compile, collect, conflict rows, search.
fn shadow_ktg(
    tracer: &mut Tracer,
    session: &ServeSession,
    query: &KtgQuery,
    opts: &BbOptions,
    id: usize,
    counts: &mut Counts,
) -> Result<(), String> {
    let net = session.net();
    let oracle = session.nlrnl_index().ok_or("the session's oracle is not NLRNL")?;
    let shadow = tracer.open("shadow", None, id);
    let masks = tracer.time("keywords.compile", Some(shadow), id, || net.compile(query.keywords()));
    let cands = tracer.time("candidates.collect", Some(shadow), id, || {
        candidates::collect_vec(net.graph(), &masks)
    });
    counts.candidates += cands.len() as u64;
    let rows = tracer.time("rows.bfs", Some(shadow), id, || {
        ConflictKernel::build(net.graph(), &cands, query.k(), opts)
    });
    drop(std::hint::black_box(rows));
    let outcome = tracer.time("bb.solve_prepared", Some(shadow), id, || {
        bb::solve_prepared(net, query, oracle, cands, opts)
    });
    tracer.close(shadow);
    counts.bb_nodes += outcome.stats.nodes;
    counts.keyword_pruned += outcome.stats.keyword_pruned;
    counts.kline_filtered += outcome.stats.kline_filtered;
    Ok(())
}

/// A DKTG miss as its stages: compile, collect, greedy rounds over the
/// session's NLRNL index.
fn shadow_dktg(
    tracer: &mut Tracer,
    session: &ServeSession,
    query: &DktgQuery,
    opts: &BbOptions,
    id: usize,
    counts: &mut Counts,
) -> Result<(), String> {
    let net = session.net();
    let oracle = session.nlrnl_index().ok_or("the session's oracle is not NLRNL")?;
    let shadow = tracer.open("shadow", None, id);
    let masks =
        tracer.time("keywords.compile", Some(shadow), id, || net.compile(query.base().keywords()));
    let mut cands = tracer.time("candidates.collect", Some(shadow), id, || {
        candidates::collect_vec(net.graph(), &masks)
    });
    counts.candidates += cands.len() as u64;
    let outcome = tracer.time("dktg.greedy", Some(shadow), id, || {
        dktg::solve_with_candidates(query, oracle, &mut cands, opts)
    });
    tracer.close(shadow);
    counts.dktg_nodes += outcome.stats.nodes;
    counts.distance_checks += outcome.stats.distance_checks;
    Ok(())
}

/// An update as its stages: index maintenance on a shadow copy of the
/// dynamic index, then the whole-graph CSR rebuild the session does.
fn shadow_update(
    tracer: &mut Tracer,
    index: &mut DynamicNlrnl,
    insert: bool,
    u: VertexId,
    v: VertexId,
    id: usize,
) -> Result<(), String> {
    let shadow = tracer.open("shadow", None, id);
    let changed = tracer.time("dynamic.apply", Some(shadow), id, || {
        if insert {
            index.insert_edge(u, v)
        } else {
            index.remove_edge(u, v)
        }
    });
    if changed.map_err(|e| format!("shadow update: {e}"))? {
        let csr = tracer.time("graph.to_csr", Some(shadow), id, || index.graph().to_csr());
        drop(std::hint::black_box(csr));
    }
    tracer.close(shadow);
    Ok(())
}
