//! `perfbench`: the end-to-end serving benchmark for `ktg serve`.
//!
//! ```text
//! perfbench --workload cold_solve|update_mix --seed N --seconds N
//!           --trace 0|1 --ktg PATH/TO/ktg
//! ```
//!
//! Generates the workload's graph and lines from the seed, times
//! `ktg index` + `ktg serve` start-up, drives the real server over
//! loopback from one closed-loop connection, checks every response
//! against an in-process cache-off rendering, and prints one JSON result
//! line last on stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` sends the lines in one pass and then replays them in
//! process with spans around each layer's calls, reporting per-layer
//! metrics instead (see `trace.rs`). `perfbench/run.py` builds both
//! binaries and passes `--ktg`.

mod drive;
mod reference;
mod server;
mod spec;
mod stats;
mod trace;

use drive::Phase;
use server::{Paths, Server};
use spec::{Kind, Workload, PASSES, SERVER_WORKERS};
use stats::{mean, median, quantile, tail_quantile, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload cold_solve|update_mix --seed N \
                     --seconds N --trace 0|1 --ktg PATH";

/// Every run's files live here, under the directory it runs from.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    ktg: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", flags["workload"]))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = number("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    Ok(Args { workload, seed: number("seed")?, seconds, trace, ktg: PathBuf::from(get("ktg")?) })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let correct = report.failed == 0;
            println!(
                "{}",
                stats::result_line(correct, report.attempted, report.failed, &report.metrics)
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Removes the run's directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        drop(std::fs::remove_dir_all(&self.0));
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let name = args.workload.name();
    let inputs = spec::generate(args.workload, args.seed, args.seconds);
    let work = WorkDir(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let paths = Paths::in_dir(&work.0);
    write_inputs(&inputs.net, &paths)?;

    // Each pass of the timed lines runs on a freshly set-up server: set-up
    // (text inputs to the first servable request) is timed once per pass,
    // and no pass inherits another's cache or log.
    let checkpoint_every = args.workload.durable().then_some(inputs.checkpoint_every);
    let mut expected = Vec::new();
    let (mut setup, mut passes, mut peak_rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warmups, mut epilogues) = (Vec::new(), Vec::new());
    // The traced run takes no end-to-end metric, only the mean round trip.
    for i in 0..if args.trace { 1 } else { PASSES } {
        let clock = Instant::now();
        server::build_bundle(&args.ktg, &paths)?;
        let server = Server::start(&args.ktg, &paths, SERVER_WORKERS, checkpoint_every)?;
        setup.push(clock.elapsed().as_secs_f64());
        if i == 0 {
            std::fs::copy(&paths.bundle, &paths.original)
                .map_err(|e| format!("copy bundle: {e}"))?;
            expected = reference::expected(&paths.original, &inputs.queries)?;
        }
        warmups.push(drive::run(server.addr, &inputs.warmup, &expected));
        passes.push(drive::run(server.addr, &inputs.timed, &expected));
        epilogues.push(drive::run(server.addr, &inputs.epilogue, &expected));
        let server_stats = server.control("/stats")?;
        peak_rss_mb.push(server.peak_rss_mb()?);
        server.shutdown()?;
        eprintln!("perfbench: {name} pass {i} {}", server_stats.lines().next().unwrap_or_default());
    }
    let phases: Vec<&Phase> = warmups.iter().chain(&passes).chain(&epilogues).collect();
    let attempted: usize = phases.iter().map(|p| p.sent).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    for failure in phases.iter().filter_map(|p| p.first_failure.as_ref()) {
        eprintln!("perfbench: {name} FAILED: {failure}");
    }
    eprintln!(
        "perfbench: {name} fail_ratio {} ({failed} of {attempted} lines)",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = if args.trace {
        let nanos: Vec<f64> = passes
            .iter()
            .chain(&epilogues)
            .flat_map(|p| &p.samples)
            .map(|s| s.nanos as f64)
            .collect();
        let trace_out = Path::new(WORK_DIR).join(format!("trace-{name}-{}.tsv", args.seed));
        trace::replay(args.workload, &inputs, &paths, mean(&nanos) / 1e3, &trace_out)?
    } else {
        end_to_end(name, &setup, &passes, &epilogues, median(&peak_rss_mb))
    };
    Ok(Report { attempted, failed, metrics })
}

fn write_inputs(net: &ktg_core::AttributedGraph, paths: &Paths) -> Result<(), String> {
    let create =
        |p: &Path| std::fs::File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
    ktg_graph::io::write_edge_list(net.graph(), create(&paths.edges)?)
        .map_err(|e| format!("write edges: {e}"))?;
    ktg_keywords::io::write_keywords(net.vocab(), net.keywords(), create(&paths.keywords)?)
        .map_err(|e| format!("write keywords: {e}"))
}

/// Round trips in milliseconds, per line: the fastest of each line's
/// round trips over `phases` (which all sent the same lines), for the
/// lines of `kind` or, with `None`, of every kind. Also returns how many
/// round trips went into them.
fn per_line_ms(phases: &[Phase], kind: Option<Kind>) -> (Vec<f64>, usize) {
    let mut by_line: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    let samples = phases.iter().flat_map(|p| &p.samples).filter(|s| kind.is_none_or(|k| s.kind == k));
    for s in samples {
        let (fastest, count) = by_line.entry(s.line).or_insert((f64::INFINITY, 0));
        *fastest = fastest.min(s.nanos as f64 / 1e6);
        *count += 1;
    }
    let round_trips = by_line.values().map(|&(_, count)| count).sum();
    (by_line.values().map(|&(fastest, _)| fastest).collect(), round_trips)
}

/// Every pass sends the same lines to a fresh server, so each line does
/// the same work in every pass, and its round trip is the fastest of its
/// passes': the shared host slows a core by half or more for seconds at
/// a time, and the fastest pass is the one it disturbed least. The
/// percentiles are over these per-line round trips, with the tail at the
/// level [`tail_quantile`] gives for all the round trips of the kind.
/// `ops_per_s` is the timed lines over the sum of their round trips: the
/// closed loop's rate with every line at its fastest.
fn end_to_end(
    name: &str,
    setup: &[f64],
    passes: &[Phase],
    epilogues: &[Phase],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    // `cold_solve` times its updates in the epilogue.
    let mut updates = per_line_ms(passes, Some(Kind::Update));
    if updates.0.is_empty() {
        updates = per_line_ms(epilogues, Some(Kind::Update));
    }
    let latency = |kind: &str, (mut ms, round_trips): (Vec<f64>, usize)| -> (f64, f64) {
        let tail = tail_quantile(round_trips);
        eprintln!(
            "perfbench: {name} {kind}: {} lines, tail = p{:.3}",
            ms.len(),
            100.0 * tail
        );
        ms.sort_by(f64::total_cmp);
        (quantile(&ms, 0.5), quantile(&ms, tail))
    };
    let (ktg_p50, ktg_tail) = latency("ktg", per_line_ms(passes, Some(Kind::Ktg)));
    let (dktg_p50, dktg_tail) = latency("dktg", per_line_ms(passes, Some(Kind::Dktg)));
    let (update_p50, update_tail) = latency("update", updates);
    let (all_ms, _) = per_line_ms(passes, None);
    let ops_per_s = all_ms.len() as f64 / (all_ms.iter().sum::<f64>() / 1e3);
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("setup_s", "s", median(setup)),
        metric("ops_per_s", "1/s", ops_per_s),
        metric("ktg_p50_ms", "ms", ktg_p50),
        metric("ktg_tail_ms", "ms", ktg_tail),
        metric("dktg_p50_ms", "ms", dktg_p50),
        metric("dktg_tail_ms", "ms", dktg_tail),
        metric("update_p50_ms", "ms", update_p50),
        metric("update_tail_ms", "ms", update_tail),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}
