//! Scale bench: the substrate-level numbers behind the 10M-vertex story.
//!
//! Two series over a seeded block-diagonal SBM (chunked generators, so
//! the instance is built the same way a 10M-vertex run would be):
//!
//! * `nlrnl_build_threads` — partitioned parallel NLRNL construction
//!   across worker counts. With ≥ 4 hardware threads and full sampling,
//!   4 workers must beat 1 by ≥ 1.5× (the partition merge is cheap).
//! * `bundle_save` / `bundle_load` — binary persistence round-trip
//!   (graph + keywords + NLRNL), the O(1)-ish load path that replaces
//!   rebuild-on-start. The loaded bundle must equal what was saved.
//!
//! The per-profile NL vs NLRNL comparison (Fig 9) is `experiments fig9`.
//!
//! Like `bb_scaling`, the JSON sink stays on in quick mode (`--test` /
//! `KTG_BENCH_FAST=1`): CI's smoke run checks the records it writes.

use ktg_bench::harness::BenchGroup;
use ktg_datasets::keywords::{assign_zipf_chunked, KeywordModel};
use ktg_datasets::sbm::{planted_partition_chunked, SbmParams};
use ktg_index::{persist, NlrnlIndex};
use std::time::Duration;

const SEED: u64 = 0x5CA1_AB1E;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const CHUNK: usize = 1 << 16;

fn main() {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
    let (n, blocks) = if quick { (12_000, 120) } else { (48_000, 480) };

    let mut group = BenchGroup::new("scale");
    group.sample_size(if quick { 1 } else { 5 }).warm_up_time(Duration::from_millis(
        if quick { 0 } else { 300 },
    ));
    group.write_in_quick_mode();

    // The scale instance: block-diagonal SBM (p_out = 0) through the
    // chunked builder — components stay block-sized, so NLRNL's
    // per-vertex BFS cost is bounded and the sweep measures the
    // partitioned construction, not one giant component. Block size 100
    // at p_in = 0.12 puts the average degree ≈ 12.
    let params = SbmParams { n, blocks, p_in: 0.12, p_out: 0.0 };
    let flat = planted_partition_chunked(&params, SEED, CHUNK).expect("chunked SBM");
    let (vocab, vk) = assign_zipf_chunked(n, &KeywordModel::default(), SEED ^ 0x515F);

    // Partitioned parallel NLRNL construction across worker counts.
    let mut build_mins: Vec<(usize, Duration)> = Vec::new();
    for threads in THREAD_SWEEP {
        let summary = group.bench("nlrnl_build_threads", threads, || {
            NlrnlIndex::build_with_threads(&flat, threads)
        });
        build_mins.push((threads, summary.min));
    }
    let min_at = |threads: usize| {
        build_mins.iter().find(|(t, _)| *t == threads).map(|(_, d)| *d).expect("swept")
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let speedup = min_at(1).as_secs_f64() / min_at(4).as_secs_f64().max(1e-12);
    if cores >= 4 && !quick {
        assert!(
            speedup >= 1.5,
            "partitioned NLRNL build: 4 workers only {speedup:.2}x over 1 \
             (expected >= 1.5x on {cores} hardware threads)"
        );
    }
    eprintln!(
        "scale: nlrnl build {n} vertices — {:?} at 1 thread, {:?} at 4 ({speedup:.2}x, \
         {cores} hardware thread(s){})",
        min_at(1),
        min_at(4),
        if quick { ", quick mode: assert skipped" } else { "" }
    );

    // Binary persistence: save and load the full bundle (graph +
    // keywords + NLRNL index) through memory.
    let index = NlrnlIndex::build_with_threads(&flat, cores.min(8));
    let mut bytes: Vec<u8> = Vec::new();
    persist::save_bundle(&flat, &vocab, &vk, Some(&index), &mut bytes).expect("bundle save");
    group.bench("bundle_save", n, || {
        let mut sink: Vec<u8> = Vec::with_capacity(bytes.len());
        persist::save_bundle(&flat, &vocab, &vk, Some(&index), &mut sink).expect("bundle save");
        sink.len()
    });
    let loaded = persist::load_bundle(bytes.as_slice()).expect("bundle load");
    assert_eq!(loaded.graph, flat, "bundle round-trip changed the graph");
    assert_eq!(loaded.keywords, vk, "bundle round-trip changed the keyword arena");
    assert!(loaded.index.is_some(), "bundle dropped the NLRNL index");
    group.bench("bundle_load", n, || persist::load_bundle(bytes.as_slice()).expect("bundle load"));
    eprintln!("scale: bundle {} bytes for {n} vertices (graph + keywords + index)", bytes.len());
    eprintln!("scale: done (quick={quick})");
}
