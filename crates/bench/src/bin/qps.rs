//! Throughput (queries/sec) bench for the batched serving engine.
//!
//! Sweeps worker count ∈ {1, 2, 4, 8} × result cache {on, off} over a
//! seeded planted-partition (SBM) graph with Zipf keywords, replaying a
//! Zipf-skewed serving workload (a small pool of distinct mixed
//! KTG/DKTG queries, hot queries repeating often — the regime a result
//! cache exploits) through a fresh [`ServeSession`] per configuration.
//! Each configuration is one [`BenchGroup::bench_items`] record, so the
//! JSON line carries `items` and `ops_per_sec` (queries per second from
//! the fastest sample).
//!
//! Like `bb_scaling`, the JSON sink stays on in quick mode (`--test` /
//! `KTG_BENCH_FAST=1`) via [`BenchGroup::write_in_quick_mode`]: CI's
//! smoke run seeds the perf trajectory, so it must write its records.
//!
//! The binary self-asserts the three properties the serving layer
//! promises, and exits non-zero if any fails:
//!
//! * every configuration returns byte-identical answers (the cached and
//!   parallel paths may only change *when* work happens, never results);
//! * at one thread, cache-on throughput strictly beats cache-off on the
//!   same repeat-heavy workload;
//! * with the cache off, four workers strictly beat one (the executor's
//!   fan-out actually scales) — asserted only when the machine reports
//!   at least four hardware threads, because on a 1-core container four
//!   workers are pure scheduling overhead and the comparison is
//!   physically meaningless (the work-conservation half — identical
//!   answers at every width — is asserted unconditionally above).

use ktg_bench::harness::BenchGroup;
use ktg_core::serve::{ItemOutcome, ServeOptions, ServeSession, WorkloadItem};
use ktg_core::{AttributedGraph, DktgQuery, Group, KtgQuery};
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_datasets::{zipf_indices, QueryGen};

const SEED: u64 = 0xB0B5_CA1E;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const ZIPF_EXPONENT: f64 = 1.1;

/// An [`ItemOutcome`] with the `cached` flags stripped: two
/// configurations must return identical *results*, but whether a given
/// answer came from the cache legitimately differs per configuration.
#[derive(Debug, PartialEq)]
enum Answer {
    Ktg(Vec<Group>),
    Dktg { groups: Vec<Group>, score_bits: u64 },
}

fn strip(outcomes: &[ItemOutcome]) -> Vec<Answer> {
    outcomes
        .iter()
        .map(|o| match o {
            ItemOutcome::Ktg(a) => Answer::Ktg(a.groups.clone()),
            ItemOutcome::Dktg(a) => {
                Answer::Dktg { groups: a.groups.clone(), score_bits: a.score.to_bits() }
            }
            ItemOutcome::Update { .. } => unreachable!("qps workload has no updates"),
            ItemOutcome::Failed { reason } => unreachable!("bench item failed: {reason}"),
            ItemOutcome::Overloaded => unreachable!("qps sets no admission bound"),
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test")
        || std::env::var("KTG_BENCH_FAST").is_ok_and(|v| v != "0");
    let (n, pool_size, workload_len, samples) =
        if quick { (400, 6, 60, 1) } else { (1200, 12, 240, 3) };

    let params = SbmParams::modular(n, 8);
    let graph = planted_partition(&params, SEED);
    let (vocab, vk) = assign_zipf(n, &KeywordModel::default(), SEED ^ 0x515F);
    let net = AttributedGraph::new(graph, vocab, vk);

    // Distinct query pool: alternating KTG / DKTG over frequency-weighted
    // keyword sets, expanded into a Zipf-skewed repeat stream.
    let keyword_sets =
        QueryGen::new(&net, SEED ^ 0xBEEF).batch(pool_size, 6).expect("bench workload");
    let pool: Vec<WorkloadItem> = keyword_sets
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let base = KtgQuery::new(q, 3, 2, 5).expect("valid params");
            if i % 2 == 0 {
                WorkloadItem::Ktg(base)
            } else {
                WorkloadItem::Dktg(DktgQuery::new(base, 0.5).expect("valid gamma"))
            }
        })
        .collect();
    let workload: Vec<WorkloadItem> = zipf_indices(pool.len(), workload_len, ZIPF_EXPONENT, SEED)
        .into_iter()
        .map(|i| pool[i].clone())
        .collect();

    let mut group = BenchGroup::new("qps");
    group.sample_size(samples).warm_up_time(std::time::Duration::ZERO);
    group.write_in_quick_mode();

    let mut baseline: Option<Vec<Answer>> = None;
    // (use_cache, threads) -> ops_per_sec, from the bench summaries.
    let mut rates: Vec<(bool, usize, f64)> = Vec::new();

    for use_cache in [true, false] {
        for threads in THREAD_SWEEP {
            let options = ServeOptions { threads, use_cache, ..ServeOptions::default() };
            // One long-lived session per configuration: repeated samples
            // measure steady-state serving (warm cache when enabled).
            let mut session = ServeSession::new(net.clone(), options);
            let mut last: Vec<ItemOutcome> = Vec::new();
            let bench_name = if use_cache { "cache_on" } else { "cache_off" };
            let summary = group.bench_items(bench_name, threads, workload.len(), || {
                last = session.run(&workload);
            });
            rates.push((use_cache, threads, summary.ops_per_sec()));

            // Determinism gate: every configuration must return exactly
            // the answers the first configuration returned.
            let answers = strip(&last);
            match &baseline {
                None => baseline = Some(answers),
                Some(expected) => assert_eq!(
                    expected, &answers,
                    "cache={use_cache}/{threads} threads diverged from baseline answers"
                ),
            }
            // A repeat-heavy workload against an enabled cache must hit.
            let stats = session.stats();
            if use_cache {
                assert!(
                    stats.result_hits > 0,
                    "cache-on run recorded no result hits on a Zipf workload"
                );
            } else {
                assert_eq!(stats.result_hits, 0, "cache-off run claimed cache hits");
            }
        }
    }

    let rate = |cache: bool, threads: usize| {
        rates
            .iter()
            .find(|(c, t, _)| *c == cache && *t == threads)
            .map(|(_, _, r)| *r)
            .expect("swept configuration present")
    };

    // The serving layer's two headline claims, asserted on the numbers
    // this very run wrote to bench_results/qps.jsonl.
    let (on1, off1) = (rate(true, 1), rate(false, 1));
    assert!(
        on1 > off1,
        "cache-on should beat cache-off at 1 thread ({on1:.1} vs {off1:.1} qps)"
    );
    let off4 = rate(false, 4);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores >= 4 {
        assert!(
            off4 > off1,
            "4 workers should beat 1 with the cache off ({off4:.1} vs {off1:.1} qps)"
        );
    } else {
        eprintln!(
            "qps: thread-scaling assert skipped ({cores} hardware thread(s) — \
             a 4-worker win is not physically expressible)"
        );
    }

    eprintln!(
        "qps: {} records (quick={quick}); cache speedup {:.2}x at 1 thread, \
         thread speedup {:.2}x at 4 workers",
        rates.len(),
        on1 / off1,
        off4 / off1,
    );
}
