//! End-to-end throughput bench for the TCP serving front-end.
//!
//! Where `qps` measures the batched executor in-process, `net_qps`
//! measures the whole serving stack — framing, parsing, the shared
//! session behind its `RwLock`, admission, and response rendering —
//! over real loopback sockets against an in-process `ktg serve` server.
//!
//! Sweeps connections ∈ {1, 2, 4, 8} × result cache {on, off} in the
//! closed-loop regime (each connection waits for its response before
//! sending the next request), plus one open-arrival record per cache
//! setting at 4 connections (every connection writes its whole request
//! stream up front, then drains the responses — arrivals decoupled from
//! completions, the regime admission control exists for). Each
//! configuration gets a fresh server; repeated samples measure
//! steady-state serving (warm cache when enabled), like `qps`.
//!
//! A paced open-arrival sweep follows: one connection offers requests
//! at {25, 50, 75, 100, 150}% of the measured closed-loop cache-on
//! 1-connection rate on a fixed clock (request `i` is sent at
//! `start + i·interval`, never waiting for responses) and records each
//! request's *sojourn* time — completion minus scheduled arrival — so
//! queueing delay past the saturation knee is visible even though the
//! writer never blocks. `summarize` folds the 150%-vs-75% completed
//! rate into `net_open_knee_ratio`: ≈2.0 means throughput still tracks
//! offered load at 150% (no knee below that), ≈1.0 means the server
//! was already saturated at 75%.
//!
//! Every record is one JSON line in `bench_results/net_qps.jsonl`
//! (`KTG_BENCH_OUT` overrides the directory); the sink stays on in
//! quick mode (`--test` / `KTG_BENCH_FAST=1`) because CI's smoke run
//! seeds the perf trajectory. Client-side per-request latency
//! percentiles and the server's own `/stats` line go to stderr.
//!
//! Self-asserts (exit non-zero on failure):
//!
//! * every closed-loop response stream is non-empty and block-framed
//!   (a `.` per request);
//! * at 1 connection, cache-on throughput beats cache-off on the same
//!   repeat-heavy Zipf workload — re-measured once before failing,
//!   because loopback jitter on a loaded CI box can wobble a single
//!   sample.

use ktg_bench::harness::BenchGroup;
use ktg_cli::serve::{start, ServeConfig, ServerHandle};
use ktg_common::net::{write_line, Frame, LineReader};
use ktg_core::serve::ServeOptions;
use ktg_core::AttributedGraph;
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_datasets::{zipf_indices, QueryGen};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const SEED: u64 = 0xB0B5_CA1E;
const CONN_SWEEP: [usize; 4] = [1, 2, 4, 8];
const ZIPF_EXPONENT: f64 = 1.1;

/// Builds the bench network and the wire-format workload lines: a small
/// pool of distinct mixed KTG/DKTG query lines expanded into a
/// Zipf-skewed repeat stream (hot queries repeat often — the regime the
/// result cache exploits).
fn build(quick: bool) -> (AttributedGraph, Vec<String>) {
    let (n, pool_size, workload_len) = if quick { (400, 6, 60) } else { (1200, 12, 240) };
    let params = SbmParams::modular(n, 8);
    let graph = planted_partition(&params, SEED);
    let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), SEED ^ 0x515F);
    let net = AttributedGraph::new(graph, vocab, vk);

    let keyword_sets =
        QueryGen::new(&net, SEED ^ 0xBEEF).batch(pool_size, 6).expect("bench workload");
    let pool: Vec<String> = keyword_sets
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let terms: Vec<&str> =
                q.ids().iter().map(|&id| net.vocab().term(id)).collect();
            let terms = terms.join(",");
            if i % 2 == 0 {
                format!("ktg terms={terms} p=3 k=2 n=5")
            } else {
                format!("dktg terms={terms} p=3 k=2 n=5 gamma=0.5")
            }
        })
        .collect();
    let workload = zipf_indices(pool.len(), workload_len, ZIPF_EXPONENT, SEED)
        .into_iter()
        .map(|i| pool[i].clone())
        .collect();
    (net, workload)
}

fn boot(net: &AttributedGraph, use_cache: bool) -> ServerHandle {
    let options = ServeOptions { threads: 1, use_cache, ..ServeOptions::default() };
    let cfg = ServeConfig {
        workers: CONN_SWEEP[CONN_SWEEP.len() - 1],
        options,
        ..ServeConfig::default()
    };
    start(net.clone(), cfg).expect("bind loopback server")
}

fn connect(addr: SocketAddr) -> (TcpStream, LineReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_nodelay(true).expect("set nodelay");
    let writer = stream.try_clone().expect("clone stream");
    (writer, LineReader::new(stream, 1 << 20))
}

/// Reads one `.`-terminated response block, returning its line count
/// (excluding the terminator).
fn drain_block(reader: &mut LineReader<TcpStream>) -> usize {
    let mut lines = 0;
    loop {
        match reader.read_frame().expect("read response frame") {
            Frame::Line(l) if l == "." => return lines,
            Frame::Line(_) => lines += 1,
            other => panic!("unexpected frame mid-response: {other:?}"),
        }
    }
}

/// Closed loop: each connection round-trips its share of the workload
/// one request at a time. Returns per-request latencies (ns).
fn run_closed(addr: SocketAddr, workload: &[String], conns: usize) -> Vec<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let (mut writer, mut reader) = connect(addr);
                    let mut latencies = Vec::new();
                    for line in workload.iter().skip(c).step_by(conns) {
                        let t = Instant::now();
                        write_line(&mut writer, line).expect("send request");
                        writer.flush().expect("flush request");
                        let lines = drain_block(&mut reader);
                        latencies.push(t.elapsed().as_nanos() as u64);
                        assert!(lines > 0, "query response block was empty");
                    }
                    latencies
                })
            })
            .collect();
        let mut all = Vec::with_capacity(workload.len());
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    })
}

/// Open arrival: each connection writes its entire request stream up
/// front, then drains all the response blocks.
fn run_open(addr: SocketAddr, workload: &[String], conns: usize) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let (mut writer, mut reader) = connect(addr);
                    let mine: Vec<&String> =
                        workload.iter().skip(c).step_by(conns).collect();
                    for line in &mine {
                        write_line(&mut writer, line).expect("send request");
                    }
                    writer.flush().expect("flush request stream");
                    for _ in &mine {
                        drain_block(&mut reader);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    })
}

/// Paced open arrival over one connection: a writer thread sends
/// request `i` at `start + i·interval` (the offered-load clock, never
/// waiting for responses) while this thread drains response blocks and
/// records each request's sojourn time — completion minus *scheduled*
/// arrival — so queueing delay shows up once the server saturates.
/// Returns per-request sojourn times (ns).
fn run_paced(addr: SocketAddr, workload: &[String], offered_qps: f64) -> Vec<u64> {
    let interval = std::time::Duration::from_secs_f64(1.0 / offered_qps.max(1.0));
    let (mut writer, mut reader) = connect(addr);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, line) in workload.iter().enumerate() {
                let due = start + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                write_line(&mut writer, line).expect("send request");
                writer.flush().expect("flush request");
            }
        });
        let mut sojourns = Vec::with_capacity(workload.len());
        for i in 0..workload.len() {
            let lines = drain_block(&mut reader);
            assert!(lines > 0, "query response block was empty");
            let due = start + interval * i as u32;
            sojourns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        }
        sojourns
    })
}

/// Nearest-rank percentile over unsorted latency samples.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    let idx = (sorted.len() * p).div_ceil(100).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Fetches the server's `/stats` line over a throwaway connection.
fn server_stats(addr: SocketAddr) -> String {
    let (mut writer, mut reader) = connect(addr);
    write_line(&mut writer, "/stats").expect("send /stats");
    writer.flush().expect("flush /stats");
    let mut line = String::new();
    loop {
        match reader.read_frame().expect("read stats frame") {
            Frame::Line(l) if l == "." => return line,
            Frame::Line(l) => line = l,
            other => panic!("unexpected frame in stats response: {other:?}"),
        }
    }
}

/// One closed-loop measurement pass at `conns` connections; returns
/// ops/sec and prints client-side latency percentiles.
fn measure_closed(
    group: &mut BenchGroup,
    net: &AttributedGraph,
    workload: &[String],
    use_cache: bool,
    conns: usize,
) -> f64 {
    let handle = boot(net, use_cache);
    let addr = handle.addr();
    let bench_name = if use_cache { "closed_cache_on" } else { "closed_cache_off" };
    let mut latencies = Vec::new();
    let summary = group.bench_items(bench_name, conns, workload.len(), || {
        latencies = run_closed(addr, workload, conns);
    });
    latencies.sort_unstable();
    eprintln!(
        "net_qps: {bench_name}/{conns} client latency p50={} p95={} p99={} ns",
        percentile(&latencies, 50),
        percentile(&latencies, 95),
        percentile(&latencies, 99),
    );
    eprintln!("net_qps: {bench_name}/{conns} {}", server_stats(addr));
    handle.shutdown();
    handle.join().expect("server thread");
    summary.ops_per_sec()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
    let samples = if quick { 1 } else { 3 };
    let (net, workload) = build(quick);

    let mut group = BenchGroup::new("net_qps");
    group.sample_size(samples).warm_up_time(std::time::Duration::ZERO);
    group.write_in_quick_mode();

    // (use_cache, conns) -> ops_per_sec, closed loop.
    let mut rates: Vec<(bool, usize, f64)> = Vec::new();
    for use_cache in [true, false] {
        for conns in CONN_SWEEP {
            let rate = measure_closed(&mut group, &net, &workload, use_cache, conns);
            rates.push((use_cache, conns, rate));
        }
    }

    // Open-arrival records: one per cache setting at 4 connections.
    for use_cache in [true, false] {
        let handle = boot(&net, use_cache);
        let addr = handle.addr();
        let bench_name = if use_cache { "open_cache_on" } else { "open_cache_off" };
        group.bench_items(bench_name, 4, workload.len(), || {
            run_open(addr, &workload, 4);
        });
        handle.shutdown();
        handle.join().expect("server thread");
    }

    // Headline claim: at 1 connection the result cache pays for the
    // whole network round-trip and then some. One re-measure before
    // failing — a single quick-mode sample on a loaded box can wobble.
    let rate = |cache: bool, conns: usize| {
        rates
            .iter()
            .find(|(c, n, _)| *c == cache && *n == conns)
            .map(|(_, _, r)| *r)
            .expect("swept configuration present")
    };
    let (mut on1, mut off1) = (rate(true, 1), rate(false, 1));
    if on1 <= off1 {
        eprintln!(
            "net_qps: cache-on did not beat cache-off at 1 connection \
             ({on1:.1} vs {off1:.1} qps) — re-measuring once"
        );
        on1 = measure_closed(&mut group, &net, &workload, true, 1);
        off1 = measure_closed(&mut group, &net, &workload, false, 1);
    }
    assert!(
        on1 > off1,
        "cache-on should beat cache-off at 1 connection ({on1:.1} vs {off1:.1} qps)"
    );

    // Latency-vs-offered-load sweep: pace one connection at a fraction
    // of the closed-loop cache-on capacity just measured. `param` is
    // the offered percent; the record's ops/sec is the *completed*
    // rate, which tracks the offered rate until the saturation knee and
    // flattens after it (the 150/75 ratio becomes `net_open_knee_ratio`
    // in the summary).
    const OFFERED_PERCENTS: [usize; 5] = [25, 50, 75, 100, 150];
    let capacity = on1;
    for percent in OFFERED_PERCENTS {
        let offered = capacity * percent as f64 / 100.0;
        let handle = boot(&net, true);
        let addr = handle.addr();
        let mut sojourns = Vec::new();
        let summary = group.bench_items("open_sweep", percent, workload.len(), || {
            sojourns = run_paced(addr, &workload, offered);
        });
        sojourns.sort_unstable();
        eprintln!(
            "net_qps: open_sweep/{percent} offered {offered:.1} qps completed {:.1} qps \
             sojourn p50={} p95={} p99={} ns",
            summary.ops_per_sec(),
            percentile(&sojourns, 50),
            percentile(&sojourns, 95),
            percentile(&sojourns, 99),
        );
        handle.shutdown();
        handle.join().expect("server thread");
    }

    eprintln!(
        "net_qps: {} closed-loop records + 2 open-arrival + {} paced sweep points \
         (quick={quick}); cache speedup {:.2}x at 1 connection",
        rates.len(),
        OFFERED_PERCENTS.len(),
        on1 / off1,
    );
}
