//! Scaling bench for the parallel conflict-bitmap branch-and-bound.
//!
//! Sweeps worker count ∈ {1, 2, 4, 8} × conflict kernel {bitmap, oracle}
//! over a seeded planted-partition (SBM) graph with Zipf keywords, and
//! emits one JSON line per configuration into
//! `bench_results/bb_scaling.jsonl` (override the directory with
//! `KTG_BENCH_OUT`). Thread counts are set directly on [`bb::BbOptions`]
//! so every record is self-describing — the sweep does not depend on the
//! `KTG_THREADS` environment of the invoking shell.
//!
//! Unlike the ablation benches, the JSON sink stays on in quick mode
//! (`--test` / `KTG_BENCH_FAST=1`): CI's smoke run is exactly what seeds
//! the perf trajectory, so a smoke run that writes nothing would be
//! useless. Quick mode only drops the sample count to one and shrinks the
//! instance.
//!
//! Besides timing, each record carries the run's [`SearchStats`], and the
//! binary asserts the two properties the harness relies on:
//!
//! * every configuration returns byte-identical groups (determinism);
//! * at one thread, the bitmap kernel issues fewer `distance_checks`
//!   than the oracle path on the same queries (the kernel replaces
//!   per-pair probes with precomputed bitsets).

use ktg_core::{bb, AttributedGraph, KtgQuery, SearchStats};
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_datasets::QueryGen;
use ktg_index::NlrnlIndex;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0xB0B5_CA1E;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One (threads, kernel) configuration's aggregate over the query batch.
struct Record {
    kernel: &'static str,
    threads: usize,
    samples: usize,
    queries: usize,
    solved: usize,
    mean: Duration,
    min: Duration,
    stats: SearchStats,
}

impl Record {
    fn to_json_line(&self) -> String {
        format!(
            "{{\"group\":\"bb_scaling\",\"bench\":\"{}\",\"param\":\"{}\",\"samples\":{},\
             \"queries\":{},\"solved\":{},\"mean_ns\":{},\"min_ns\":{},\"nodes\":{},\
             \"distance_checks\":{},\"kline_filtered\":{},\"keyword_pruned\":{},\
             \"groups_evaluated\":{},\"truncated\":{}}}",
            self.kernel,
            self.threads,
            self.samples,
            self.queries,
            self.solved,
            self.mean.as_nanos(),
            self.min.as_nanos(),
            self.stats.nodes,
            self.stats.distance_checks,
            self.stats.kline_filtered,
            self.stats.keyword_pruned,
            self.stats.groups_evaluated,
            self.stats.truncated,
        )
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
    let (n, queries, samples) = if quick { (500, 2, 1) } else { (1500, 5, 5) };

    let params = SbmParams::modular(n, 8);
    let graph = planted_partition(&params, SEED);
    let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), SEED ^ 0x515F);
    let net = AttributedGraph::new(graph, vocab, vk);
    let nlrnl = NlrnlIndex::build(net.graph());
    let batch = QueryGen::new(&net, SEED ^ 0xBEEF).batch(queries, 6).expect("bench workload");

    let mut baseline: Option<Vec<Vec<ktg_core::Group>>> = None;
    let mut seq_checks: Vec<(&'static str, u64)> = Vec::new();
    let mut records = Vec::new();

    for (kernel, bitmap_threshold) in [("bitmap", bb::DEFAULT_BITMAP_THRESHOLD), ("oracle", 0)] {
        for threads in THREAD_SWEEP {
            let opts = bb::BbOptions::vkc_deg()
                .with_threads(threads)
                .with_bitmap_threshold(bitmap_threshold);
            let mut times = Vec::with_capacity(samples);
            let mut stats = SearchStats::default();
            let mut solved = 0usize;
            let mut groups: Vec<Vec<ktg_core::Group>> = Vec::new();
            // Stats, solved count and groups come from the first sample.
            for sample in 0..samples {
                let start = Instant::now();
                for q in &batch {
                    let query = KtgQuery::new(q.clone(), 3, 2, 5).expect("valid params");
                    let out = bb::solve(&net, &query, &nlrnl, &opts);
                    if sample == 0 {
                        stats.merge(&out.stats);
                        solved += usize::from(!out.groups.is_empty());
                        groups.push(out.groups);
                    }
                }
                times.push(start.elapsed());
            }
            times.sort_unstable();
            let total: Duration = times.iter().sum();

            // Determinism gate: every configuration must return the exact
            // groups the first configuration (bitmap, 1 thread) returned.
            match &baseline {
                None => baseline = Some(groups),
                Some(expected) => assert_eq!(
                    expected, &groups,
                    "{kernel}/{threads} threads diverged from the baseline groups"
                ),
            }
            if threads == 1 {
                seq_checks.push((kernel, stats.distance_checks));
            }

            let record = Record {
                kernel,
                threads,
                samples,
                queries: batch.len(),
                solved,
                mean: total / samples as u32,
                min: times[0],
                stats,
            };
            println!("{}", record.to_json_line());
            records.push(record);
        }
    }

    // The kernel's point: precomputed bitsets replace per-pair oracle
    // probes, so a single-thread bitmap run must issue strictly fewer
    // distance checks than the oracle path on the same queries.
    let bitmap = seq_checks.iter().find(|(k, _)| *k == "bitmap").expect("bitmap run present").1;
    let oracle_checks =
        seq_checks.iter().find(|(k, _)| *k == "oracle").expect("oracle run present").1;
    assert!(
        bitmap < oracle_checks,
        "bitmap kernel should probe less than the oracle path ({bitmap} vs {oracle_checks})"
    );

    let dir = PathBuf::from(std::env::var("KTG_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()));
    if let Err(e) = write_records(&dir, &records) {
        eprintln!("warning: could not write {}/bb_scaling.jsonl: {e}", dir.display());
        std::process::exit(1);
    }
    eprintln!(
        "bb_scaling: wrote {} records to {}/bb_scaling.jsonl (quick={quick})",
        records.len(),
        dir.display()
    );
}

fn write_records(dir: &PathBuf, records: &[Record]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("bb_scaling.jsonl"))?;
    for record in records {
        writeln!(file, "{}", record.to_json_line())?;
    }
    Ok(())
}
