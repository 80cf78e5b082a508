//! Differential tests: the batched serving engine is **byte-identical**
//! to query-at-a-time solving.
//!
//! `ktg_core::serve` (DESIGN.md §13) claims that none of its
//! amortizations — scratch pooling, the result cache, the `(vertex, k)`
//! conflict-row memo, the cross-query worker fan-out —
//! can change an answer: every outcome equals a fresh sequential
//! `bb::solve` / `dktg::solve_with_options` against the graph *as of
//! that workload position*. These suites check that claim on randomized
//! networks across thread counts and cache settings, including
//! workloads that interleave dynamic edge updates between query runs
//! (the in-place CSR edit, index maintenance and locality-scoped cache
//! invalidation). Under `KTG_VERIFY=1` every serve
//! answer — cached hits included — additionally passes the checked-mode
//! result audit.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock, PoisonError};

use ktg_common::fault::{self, FaultConfig, FaultSite};
use ktg_common::{SeededRng, VertexId};
use ktg_core::serve::{CacheKey, ItemOutcome, ServeOptions, ServeSession, WorkloadItem};
use ktg_core::{bb, dktg, verify, AttributedGraph, DktgQuery, Group, KtgQuery};
use ktg_graph::{CsrGraph, DynamicGraph};
use ktg_index::{persist, BfsOracle, NlrnlIndex};
use ktg_keywords::{KeywordId, VertexKeywords, Vocabulary};
use ktg_integration_tests::{random_network, random_query};

/// Thread counts to sweep; `0` resolves to the machine's worker count
/// (CI pins it via `KTG_THREADS=4`).
const THREADS: [usize; 4] = [1, 2, 4, 0];

/// An outcome stripped to its result-bearing fields: the `cached` flags
/// legitimately differ between configurations, everything else may not.
#[derive(Debug, PartialEq)]
enum Answer {
    Ktg(Vec<Group>),
    Dktg { groups: Vec<Group>, diversity: u64, min_qkc: u64, score: u64 },
    Update { applied: bool },
}

fn strip(outcomes: &[ItemOutcome]) -> Vec<Answer> {
    outcomes
        .iter()
        .map(|o| match o {
            ItemOutcome::Ktg(a) => Answer::Ktg(a.groups.clone()),
            ItemOutcome::Dktg(a) => Answer::Dktg {
                groups: a.groups.clone(),
                diversity: a.diversity.to_bits(),
                min_qkc: a.min_qkc.to_bits(),
                score: a.score.to_bits(),
            },
            ItemOutcome::Update { applied } => Answer::Update { applied: *applied },
            ItemOutcome::Failed { reason } => {
                panic!("differential workload item failed: {reason}")
            }
            ItemOutcome::Overloaded => {
                panic!("differential workloads set no admission bound")
            }
        })
        .collect()
}

/// The fault registry is process-global; the tests that arm it (and the
/// ones that assert exact cache-stat counts, which a retried solve
/// would skew) serialize on this.
fn fault_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Disarms the registry when dropped, so an assertion failure inside a
/// fault-armed test cannot leak injection into the rest of the binary.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::set_config(None);
    }
}

/// The reference: replay the workload query-at-a-time, re-solving each
/// query from scratch with a BFS oracle against the current graph and
/// applying updates to a plain [`DynamicGraph`] replica, rebuilding the
/// network after each applied change. The session edits its CSR in place
/// and maintains NLRNL instead, so the two share no update code.
fn reference_replay(net: &AttributedGraph, workload: &[WorkloadItem]) -> Vec<Answer> {
    let opts = bb::BbOptions::vkc_deg();
    let mut cur = net.clone();
    let mut replica = DynamicGraph::from_graph(net.graph());
    let mut out = Vec::with_capacity(workload.len());
    for item in workload {
        match item {
            WorkloadItem::Ktg(q) => {
                let oracle = BfsOracle::new(cur.graph());
                out.push(Answer::Ktg(bb::solve(&cur, q, &oracle, &opts).groups));
            }
            WorkloadItem::Dktg(q) => {
                let oracle = BfsOracle::new(cur.graph());
                let r = dktg::solve_with_options(&cur, q, &oracle, &opts);
                out.push(Answer::Dktg {
                    groups: r.groups,
                    diversity: r.diversity.to_bits(),
                    min_qkc: r.min_qkc.to_bits(),
                    score: r.score.to_bits(),
                });
            }
            WorkloadItem::Insert(u, v) | WorkloadItem::Remove(u, v) => {
                let applied = match item {
                    WorkloadItem::Insert(..) => replica.insert_edge(*u, *v),
                    _ => replica.remove_edge(*u, *v),
                }
                .unwrap_or(false);
                if applied {
                    cur = AttributedGraph::new(
                        replica.to_csr(),
                        cur.vocab().clone(),
                        cur.keywords().clone(),
                    );
                }
                out.push(Answer::Update { applied });
            }
        }
    }
    out
}

/// Hop distances from `source` on the replica (`u32::MAX` = unreachable).
fn distances(graph: &DynamicGraph, source: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.num_vertices()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &w in graph.neighbors(u) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = dist[u.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// What a sequential cache-on replay must count, from this file's own
/// model of the session's invalidation rule.
#[derive(Debug, Default, PartialEq)]
struct CacheCounts {
    hits: u64,
    misses: u64,
    /// Result entries dropped by applied updates.
    reclaimed: u64,
    /// Hits on an entry stored before the latest applied update.
    hits_across_updates: u64,
}

/// Models the result cache over a replay: a query hits exactly when a
/// query with the same [`CacheKey`] was answered and no applied update
/// has dropped it since (`reference` says which updates applied).
///
/// An applied edit of `{u, v}` drops a key by the locality rule, computed
/// on this model's own replica: BFS from `u` and `v` before and after the
/// edit, `A` = the vertices whose distance to either endpoint changed,
/// `d(s)` = the smaller pre-edit distance. The key goes iff some `s ∈ A`
/// with `d(s) < max(k, 1)` holds one of its keyword ids.
fn expected_result_counts(
    net: &AttributedGraph,
    workload: &[WorkloadItem],
    reference: &[Answer],
) -> CacheCounts {
    let mut replica = DynamicGraph::from_graph(net.graph());
    // Each answered key, with the number of applied updates before it.
    let mut answered: Vec<(CacheKey, u64)> = Vec::new();
    let mut applied = 0u64;
    let mut counts = CacheCounts::default();
    for (item, answer) in workload.iter().zip(reference) {
        let key = match item {
            WorkloadItem::Ktg(q) => CacheKey::ktg(q),
            WorkloadItem::Dktg(q) => CacheKey::dktg(q),
            &WorkloadItem::Insert(u, v) | &WorkloadItem::Remove(u, v) => {
                if *answer != (Answer::Update { applied: true }) {
                    continue;
                }
                let before = [distances(&replica, u), distances(&replica, v)];
                match item {
                    WorkloadItem::Insert(..) => replica.insert_edge(u, v),
                    _ => replica.remove_edge(u, v),
                }
                .expect("the reference applied this edit");
                let after = [distances(&replica, u), distances(&replica, v)];
                let near = |s: usize, k: u32| {
                    let moved = before[0][s] != after[0][s] || before[1][s] != after[1][s];
                    moved && before[0][s].min(before[1][s]) < k.max(1)
                };
                let stale = |key: &CacheKey| {
                    (0..replica.num_vertices()).any(|s| {
                        near(s, key.k())
                            && net
                                .keywords()
                                .keywords(VertexId::new(s))
                                .iter()
                                .any(|w| key.keywords().contains(&w.0))
                    })
                };
                let resident = answered.len();
                answered.retain(|(key, _)| !stale(key));
                counts.reclaimed += (resident - answered.len()) as u64;
                applied += 1;
                continue;
            }
        };
        match answered.iter().find(|(cached, _)| *cached == key) {
            Some(&(_, stored)) => {
                counts.hits += 1;
                counts.hits_across_updates += u64::from(stored < applied);
            }
            None => {
                counts.misses += 1;
                answered.push((key, applied));
            }
        }
    }
    counts
}

/// Asserts every (threads, cache) serving configuration reproduces the
/// reference byte-for-byte. At one thread the cache-on run must count
/// exactly [`expected_result_counts`]; cache-off runs count no result
/// or row hits. Returns the modelled counts.
fn assert_serve_matches_reference(
    label: &str,
    net: &AttributedGraph,
    workload: &[WorkloadItem],
) -> CacheCounts {
    // Poison-tolerant: one failing case must not fail its siblings.
    let _guard = fault_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let expected = reference_replay(net, workload);
    let counts = expected_result_counts(net, workload, &expected);
    for use_cache in [true, false] {
        for threads in THREADS {
            let options = ServeOptions { threads, use_cache, ..ServeOptions::default() };
            let mut session = ServeSession::new(net.clone(), options);
            let outcomes = session.run(workload);
            assert_eq!(
                expected,
                strip(&outcomes),
                "{label}: cache={use_cache}, threads={threads} diverged from \
                 the query-at-a-time reference"
            );
            let stats = session.stats();
            if !use_cache {
                assert_eq!(
                    (stats.result_hits, stats.row_hits),
                    (0, 0),
                    "{label}: cache-off run at {threads} thread(s) claimed hits"
                );
            } else if threads == 1 {
                assert_eq!(
                    (stats.result_hits, stats.result_misses, stats.result_reclaimed),
                    (counts.hits, counts.misses, counts.reclaimed),
                    "{label}: sequential cache-on run miscounted (hits, misses, reclaimed)"
                );
            }
        }
    }
    counts
}

/// A mixed workload over `net`: a small pool of distinct KTG/DKTG
/// queries with repeats (so the result cache has something to do).
fn query_pool_workload(net: &AttributedGraph, len: usize, seed: u64) -> Vec<WorkloadItem> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let pool: Vec<WorkloadItem> = (0..4)
        .map(|i| {
            let kws = random_query(net, 3, seed ^ (i as u64 + 1));
            let base = KtgQuery::new(kws, 3, 2, 3).expect("valid params");
            if i % 2 == 0 {
                WorkloadItem::Ktg(base)
            } else {
                WorkloadItem::Dktg(DktgQuery::new(base, 0.5).expect("valid gamma"))
            }
        })
        .collect();
    (0..len).map(|_| pool[rng.gen_range(0..pool.len())].clone()).collect()
}

#[test]
fn serving_matches_sequential_on_random_networks() {
    let mut rng = SeededRng::seed_from_u64(0x5E4E);
    let mut hits = false;
    for case in 0..6 {
        let n = rng.gen_range(16..40usize);
        let density = rng.gen_range(0.08..0.35);
        let seed = rng.gen_range(0u64..1000);
        let net = random_network(n, density, 8, 4, seed);
        let workload = query_pool_workload(&net, 10, seed ^ 0xF00D);
        hits |= assert_serve_matches_reference(
            &format!("case {case} (n={n}, density={density:.2})"),
            &net,
            &workload,
        )
        .hits
            > 0;
    }
    assert!(hits, "no repeat-bearing workload ever hit the result cache");
}

/// The persistence axis: a network round-tripped through
/// `save_bundle`/`load_bundle`, with the bundled NLRNL index preloaded
/// into the session, must serve byte-identically to the query-at-a-time
/// reference on the original network.
#[test]
fn bundle_roundtrip_serves_byte_identically() {
    let mut rng = SeededRng::seed_from_u64(0xB0D1);
    for case in 0..3 {
        let n = rng.gen_range(16..36usize);
        let seed = rng.gen_range(0u64..1000);
        let net = random_network(n, 0.22, 8, 4, seed);
        let workload = query_pool_workload(&net, 8, seed ^ 0xF00D);
        let expected = reference_replay(&net, &workload);
        let index = NlrnlIndex::build(net.graph());
        let mut bytes = Vec::new();
        persist::save_bundle(net.graph(), net.vocab(), net.keywords(), Some(&index), &mut bytes)
            .expect("bundle save");
        for threads in THREADS {
            let bundle = persist::load_bundle(bytes.as_slice()).expect("bundle load");
            let loaded = AttributedGraph::new(bundle.graph, bundle.vocab, bundle.keywords);
            let options = ServeOptions { threads, ..ServeOptions::default() };
            let mut session = ServeSession::with_index(loaded, options, bundle.index);
            let outcomes = session.run(&workload);
            assert_eq!(
                expected,
                strip(&outcomes),
                "case {case}: bundle-loaded serving at {threads} thread(s) diverged from the \
                 reference"
            );
        }
    }
}

#[test]
fn serving_matches_sequential_across_dynamic_updates() {
    let mut rng = SeededRng::seed_from_u64(0xD1CE);
    for case in 0..4 {
        let n = rng.gen_range(18..36usize);
        let seed = rng.gen_range(0u64..1000);
        let net = random_network(n, 0.2, 8, 4, seed);
        // Interleave query runs with edge updates: each applied update
        // drops the cached answers and rows it can reach, so post-update
        // answers must come from fresh solves on the mutated graph, never
        // from a stale entry.
        let mut workload = query_pool_workload(&net, 4, seed ^ 0xAAAA);
        for round in 0..3u64 {
            let u = VertexId(rng.gen_range(0..n as u32));
            let v = VertexId(rng.gen_range(0..n as u32));
            if u != v {
                workload.push(if round % 2 == 0 {
                    WorkloadItem::Insert(u, v)
                } else {
                    WorkloadItem::Remove(u, v)
                });
            }
            workload.extend(query_pool_workload(&net, 4, seed ^ round));
        }
        assert_serve_matches_reference(&format!("dynamic case {case} (n={n})"), &net, &workload);
    }
}

/// A network of `blocks` disjoint random blocks of 6–10 vertices. Block
/// 0's vertices hold terms `t0`–`t3`, the query terms; the other blocks'
/// vertices hold only `t4`–`t7`. Returns the network and each block's
/// vertex range.
fn blocks_network(rng: &mut SeededRng, blocks: usize) -> (AttributedGraph, Vec<(u32, u32)>) {
    let mut ranges = Vec::new();
    let (mut edges, mut holders) = (Vec::new(), Vec::new());
    for block in 0..blocks {
        let start = holders.len() as u32;
        let end = start + rng.gen_range(6..=10u32);
        let density = rng.gen_range(0.2..0.45);
        for u in start..end {
            for v in (u + 1)..end {
                if rng.gen_bool(density) {
                    edges.push((u, v));
                }
            }
            let terms = if block == 0 { 0..4u32 } else { 4..8u32 };
            let held = rng.gen_range(0..=2usize);
            holders.push(
                (0..held).map(|_| KeywordId(rng.gen_range(terms.clone()))).collect::<Vec<_>>(),
            );
        }
        ranges.push((start, end));
    }
    let graph = CsrGraph::from_edges(holders.len(), &edges).expect("valid edges");
    let keywords = VertexKeywords::from_lists(&holders);
    (AttributedGraph::new(graph, Vocabulary::synthetic(8), keywords), ranges)
}

/// The locality axis: edits inside blocks without query terms keep every
/// cached answer, and an edit joining two members of a cached KTG answer
/// drops that answer and the members' rows. Answers and the modelled
/// counts must match exactly, and across the cases some query hits after
/// an applied update, some update drops a result entry, and some answer
/// changes across an update.
#[test]
fn invalidation_is_scoped_to_the_edit() {
    let mut rng = SeededRng::seed_from_u64(0x10CA);
    let (mut across, mut reclaimed, mut changed) = (0u64, 0u64, 0usize);
    for case in 0..8 {
        let blocks = rng.gen_range(3..=4usize);
        let (net, ranges) = blocks_network(&mut rng, blocks);
        let pool: Vec<WorkloadItem> = (0..4u32)
            .map(|i| {
                // 2 or 3 cyclically consecutive query terms, ids sorted.
                let first = rng.gen_range(0..4u32);
                let mut ids: Vec<KeywordId> =
                    (0..2 + i % 2).map(|j| KeywordId((first + j) % 4)).collect();
                ids.sort();
                let keywords = ktg_keywords::QueryKeywords::new(ids).expect("distinct ids");
                if i % 2 == 0 {
                    let k = rng.gen_range(1..=2u32);
                    WorkloadItem::Ktg(KtgQuery::new(keywords, 2, k, 2).expect("valid params"))
                } else {
                    let base = KtgQuery::new(keywords, 2, rng.gen_range(0..=2u32), 2)
                        .expect("valid params");
                    WorkloadItem::Dktg(DktgQuery::new(base, 0.5).expect("valid gamma"))
                }
            })
            .collect();
        let mut replica = DynamicGraph::from_graph(net.graph());
        let mut workload: Vec<WorkloadItem> = pool.clone();
        for round in 0..6 {
            let edit = if round % 3 == 2 {
                // Join two members of a KTG answer on the current graph.
                let WorkloadItem::Ktg(query) = &pool[2 * rng.gen_range(0..2usize)] else {
                    unreachable!("even pool slots are KTG")
                };
                let current = AttributedGraph::new(
                    replica.to_csr(),
                    net.vocab().clone(),
                    net.keywords().clone(),
                );
                let oracle = BfsOracle::new(current.graph());
                let groups = bb::solve(&current, query, &oracle, &bb::BbOptions::vkc_deg()).groups;
                groups.first().map(|g| (g.members()[0], g.members()[1]))
            } else {
                // Insert or remove an edge inside a block without query terms.
                let (start, end) = ranges[rng.gen_range(1..ranges.len())];
                let u = VertexId(rng.gen_range(start..end));
                let v = VertexId(rng.gen_range(start..end));
                (u != v).then_some((u, v))
            };
            if let Some((u, v)) = edit {
                if replica.has_edge(u, v) {
                    replica.remove_edge(u, v).expect("in range");
                    workload.push(WorkloadItem::Remove(u, v));
                } else {
                    replica.insert_edge(u, v).expect("in range");
                    workload.push(WorkloadItem::Insert(u, v));
                }
            }
            workload.extend((0..3).map(|_| pool[rng.gen_range(0..pool.len())].clone()));
        }
        workload.extend(pool.iter().cloned());
        let counts =
            assert_serve_matches_reference(&format!("locality case {case}"), &net, &workload);
        across += counts.hits_across_updates;
        reclaimed += counts.reclaimed;

        // Answers that moved across an update, per query.
        let reference = reference_replay(&net, &workload);
        let mut last: Vec<(CacheKey, &Answer)> = Vec::new();
        for (item, answer) in workload.iter().zip(&reference) {
            let key = match item {
                WorkloadItem::Ktg(q) => CacheKey::ktg(q),
                WorkloadItem::Dktg(q) => CacheKey::dktg(q),
                _ => continue,
            };
            match last.iter_mut().find(|(seen, _)| *seen == key) {
                Some(entry) => {
                    changed += usize::from(entry.1 != answer);
                    entry.1 = answer;
                }
                None => last.push((key, answer)),
            }
        }
    }
    assert!(across > 0, "no query hit the cache after an applied update");
    assert!(reclaimed > 0, "no applied update dropped a result entry");
    assert!(changed > 0, "no answer changed across an update");
}

#[test]
fn repeated_identical_workload_is_fully_cached_second_time() {
    let _guard = fault_lock().lock().unwrap();
    let net = random_network(24, 0.25, 8, 4, 42);
    let workload = query_pool_workload(&net, 6, 7);
    let mut session = ServeSession::new(net.clone(), ServeOptions::default());
    let first = session.run(&workload);
    let second = session.run(&workload);
    assert_eq!(strip(&first), strip(&second));
    // Single-threaded replay: after the first pass every distinct query
    // is resident, so the second pass must be answered entirely by the
    // cache. (Parallel runs may double-miss while racing, so this
    // property is only guaranteed sequentially.)
    let mut seq = ServeSession::new(
        net.clone(),
        ServeOptions { threads: 1, ..ServeOptions::default() },
    );
    seq.run(&workload);
    let after_first = seq.stats().result_misses;
    let outcomes = seq.run(&workload);
    assert_eq!(seq.stats().result_misses, after_first, "second pass missed");
    assert!(outcomes.iter().all(|o| match o {
        ItemOutcome::Ktg(a) => a.cached,
        ItemOutcome::Dktg(a) => a.cached,
        ItemOutcome::Update { .. } => true,
        ItemOutcome::Failed { .. } | ItemOutcome::Overloaded => false,
    }));
}

/// Fault-schedule axis: with deterministic injection armed — every
/// seeded schedule across every site combination — the serving engine's
/// retry-once recovery must absorb each injected panic and return
/// answers byte-identical to the fault-free run, with no item failed.
#[test]
fn serving_is_byte_identical_under_injected_faults() {
    let _guard = fault_lock().lock().unwrap();
    let _disarm = Disarm;

    let net = random_network(26, 0.22, 8, 4, 11);
    let mut workload = query_pool_workload(&net, 8, 0x7A57);
    workload.push(WorkloadItem::Insert(VertexId(0), VertexId(9)));
    workload.extend(query_pool_workload(&net, 4, 0x7A58));

    fault::set_config(None);
    let mut clean = ServeSession::new(net.clone(), ServeOptions::default());
    let expected = strip(&clean.run(&workload));

    let site_sets: [&[FaultSite]; 3] = [
        &fault::ALL_SITES,
        &[FaultSite::WorkerSolve],
        &[FaultSite::PoolAcquire, FaultSite::CacheLookup],
    ];
    for seed in [1u64, 7, 99] {
        for sites in site_sets {
            for rate in [1.0, 0.5] {
                fault::set_config(Some(FaultConfig::new(sites, rate, seed)));
                for threads in [1usize, 4] {
                    let label = format!(
                        "seed={seed}, sites={sites:?}, rate={rate}, threads={threads}"
                    );
                    let mut session = ServeSession::new(
                        net.clone(),
                        ServeOptions { threads, ..ServeOptions::default() },
                    );
                    let outcomes = session.run(&workload);
                    assert!(
                        !outcomes
                            .iter()
                            .any(|o| matches!(o, ItemOutcome::Failed { .. })),
                        "{label}: injected fault survived the retry"
                    );
                    assert_eq!(
                        expected,
                        strip(&outcomes),
                        "{label}: diverged from the fault-free run"
                    );
                }
            }
        }
    }
}

/// Crash-replay axis: an update workload is written through a real
/// [`ktg_index::wal::WalWriter`], then "crashed" at every possible
/// point — after each whole record, and at every byte offset inside the
/// final record (the torn-tail shape a mid-append crash leaves). Each
/// surviving log must replay into a session that answers a probe
/// workload byte-identically to the query-at-a-time reference over the
/// same surviving update prefix. Damage *before* the tail (bitflips)
/// must be a typed error, never a panic or a silently shortened replay.
#[test]
fn crash_replay_recovers_byte_identically_at_every_crash_point() {
    use ktg_index::wal::{replay, WalSync, WalWriter};

    let dir = std::env::temp_dir()
        .join(format!("ktg-serve-diff-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("updates.wal");
    let cut_file = dir.join("cut.wal");

    let net = random_network(24, 0.25, 8, 4, 77);
    let update_lines =
        ["insert 0 9", "remove 0 9", "insert 3 11", "insert 0 9", "remove 3 11"];
    let updates: Vec<WorkloadItem> = update_lines
        .iter()
        .map(|line| {
            ktg_core::serve::parse_workload(line, &net).expect("valid update")[0].clone()
        })
        .collect();
    let probe = query_pool_workload(&net, 4, 0xC4A5);

    // Write the full log, remembering the byte boundary after every
    // record — the whole-record crash points.
    let mut writer = WalWriter::create(&log, 0, WalSync::Always).expect("create");
    let mut boundaries = vec![std::fs::metadata(&log).expect("meta").len() as usize];
    for line in update_lines {
        writer.append(line).expect("append");
        boundaries.push(std::fs::metadata(&log).expect("meta").len() as usize);
    }
    drop(writer);
    let full = std::fs::read(&log).expect("read log");
    assert_eq!(full.len(), *boundaries.last().expect("nonempty"));

    // Crash exactly between records: replay yields the whole prefix,
    // and the recovered session matches the reference over it.
    for (survivors, &cut) in boundaries.iter().enumerate() {
        std::fs::write(&cut_file, &full[..cut]).expect("write cut");
        let rep = replay(&cut_file).expect("boundary cut replays");
        assert!(!rep.torn_tail, "cut at record boundary {survivors} is not torn");
        let recovered_lines: Vec<&str> =
            rep.records.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(recovered_lines, &update_lines[..survivors]);

        let mut scenario: Vec<WorkloadItem> = updates[..survivors].to_vec();
        scenario.extend(probe.iter().cloned());
        let expected = reference_replay(&net, &scenario);

        // Recover the way the server does: parse each surviving line,
        // apply through the session, then serve the probe queries.
        let mut session = ServeSession::new(net.clone(), ServeOptions::default());
        let replayed: Vec<WorkloadItem> = rep
            .records
            .iter()
            .map(|r| {
                ktg_core::serve::parse_workload(&r.line, session.net())
                    .expect("recovered line parses")[0]
                    .clone()
            })
            .collect();
        let mut outcomes = session.run(&replayed);
        outcomes.extend(session.run(&probe));
        assert_eq!(
            expected,
            strip(&outcomes),
            "crash after {survivors} record(s): recovered session diverged"
        );
    }

    // Crash inside the final record: every byte cut is a torn tail that
    // preserves exactly the earlier records.
    let last_boundary = boundaries[boundaries.len() - 2];
    for cut in last_boundary + 1..full.len() {
        std::fs::write(&cut_file, &full[..cut]).expect("write cut");
        let rep = replay(&cut_file).expect("torn tail replays");
        assert!(rep.torn_tail, "cut at byte {cut} must be torn");
        assert_eq!(rep.records.len(), update_lines.len() - 1, "cut at byte {cut}");
    }

    // Mid-log damage is fully-present-but-wrong, which no crash can
    // produce: a typed error, not a truncation.
    let first_record_payload = boundaries[0] + 4..boundaries[1];
    for pos in first_record_payload.step_by(3) {
        let mut bad = full.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&cut_file, &bad).expect("write corrupt");
        let err = replay(&cut_file).expect_err("mid-log bitflip must be detected");
        assert!(
            err.to_string().contains("WAL"),
            "bitflip at {pos} gave an untyped error: {err}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadline/budget axis: under a tight per-query budget every answer is
/// either exact — and then byte-identical to the unconstrained run — or
/// explicitly degraded, and then its groups still pass the checked-mode
/// result audit (best-so-far answers are valid, just possibly fewer or
/// lower-coverage groups).
#[test]
fn tight_budget_answers_are_exact_or_verifiably_degraded() {
    let net = random_network(30, 0.2, 8, 4, 23);
    let workload = query_pool_workload(&net, 8, 0xDEAD);
    let expected = reference_replay(&net, &workload);

    // `node_budget: Some(1)` degrades every nontrivial search
    // deterministically (a 0ms deadline is only observed every
    // `POLL_STRIDE` nodes, so tiny searches would finish exactly and
    // the test would assert nothing).
    for (deadline_ms, node_budget) in [(Some(600_000), None), (None, Some(1))] {
        let mut engine = bb::BbOptions::vkc_deg().with_deadline_ms(deadline_ms);
        engine.node_budget = node_budget;
        for threads in [1usize, 4] {
            let options = ServeOptions { threads, engine, ..ServeOptions::default() };
            let mut session = ServeSession::new(net.clone(), options);
            let outcomes = session.run(&workload);
            for (idx, (item, outcome)) in workload.iter().zip(&outcomes).enumerate() {
                match (item, outcome) {
                    (WorkloadItem::Ktg(q), ItemOutcome::Ktg(a)) => {
                        if a.status.is_exact() {
                            assert_eq!(
                                expected[idx],
                                Answer::Ktg(a.groups.clone()),
                                "exact answer {idx} diverged (threads={threads})"
                            );
                        } else {
                            let report = verify::audit_results(&net, q, &a.groups);
                            assert!(
                                report.is_ok(),
                                "degraded answer {idx} failed the audit: {report}"
                            );
                        }
                    }
                    (WorkloadItem::Dktg(q), ItemOutcome::Dktg(a)) => {
                        if a.status.is_exact() {
                            assert_eq!(
                                expected[idx],
                                Answer::Dktg {
                                    groups: a.groups.clone(),
                                    diversity: a.diversity.to_bits(),
                                    min_qkc: a.min_qkc.to_bits(),
                                    score: a.score.to_bits(),
                                },
                                "exact DKTG answer {idx} diverged (threads={threads})"
                            );
                        } else {
                            let report = verify::audit_dktg_results(&net, q, &a.groups);
                            assert!(
                                report.is_ok(),
                                "degraded DKTG answer {idx} failed the audit: {report}"
                            );
                        }
                    }
                    other => panic!("item {idx}: mismatched outcome {other:?}"),
                }
            }
            // A generous deadline must not degrade anything; the
            // one-node budget must degrade every query on this net.
            let degraded = outcomes
                .iter()
                .filter(|o| match o {
                    ItemOutcome::Ktg(a) => !a.status.is_exact(),
                    ItemOutcome::Dktg(a) => !a.status.is_exact(),
                    _ => false,
                })
                .count();
            if node_budget.is_none() {
                assert_eq!(degraded, 0, "generous deadline degraded an answer");
            } else {
                assert!(degraded > 0, "one-node budget degraded nothing");
            }
        }
    }
}
