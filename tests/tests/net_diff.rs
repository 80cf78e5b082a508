//! Differential tests: the TCP serving front-end is **byte-identical**
//! to `ktg batch`.
//!
//! `ktg serve` (DESIGN.md §15) claims the network layer adds framing and
//! scheduling but never touches answers: every response block over a
//! single sequential connection renders exactly the bytes `ktg batch`
//! would print for the same workload item at the same position —
//! `[cached]` markers, `[degraded(...)]` tags, and `overloaded` shed
//! lines included. These suites drive a real in-process server over
//! loopback sockets and hold its collected response text equal to the
//! batch renderer's output for the same script, across worker counts,
//! cache settings, injected fault schedules, and degraded/overloaded
//! tagging. Under `KTG_VERIFY=1` (CI) every served answer additionally
//! passes the checked-mode result audit inside the session.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};

use ktg_cli::serve::{start, ServeConfig, ServerHandle, WalConfig};
use ktg_common::fault::{self, FaultConfig, FaultSite};
use ktg_common::net::{write_line, Frame, LineReader};
use ktg_common::SeededRng;
use ktg_core::serve::{parse_workload, ServeOptions, ServeSession, ServeStats};
use ktg_core::{bb, AttributedGraph};
use ktg_index::wal::WalSync;
use ktg_integration_tests::{random_network, random_query};

/// The fault registry is process-global and the server shares this
/// process; every test serializes on this so one test's armed schedule
/// never bleeds into another's expected bytes.
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

/// A mixed wire script over `net`: a small pool of distinct KTG/DKTG
/// query lines with Zipf-free repeats (so the cache has something to
/// do), interleaved with edge updates, comments, and blank lines.
fn wire_script(net: &AttributedGraph, seed: u64) -> Vec<String> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let pool: Vec<String> = (0..4)
        .map(|i| {
            let kws = random_query(net, 3, seed ^ (i as u64 + 1));
            let terms: Vec<&str> =
                kws.ids().iter().map(|&id| net.vocab().term(id)).collect();
            let terms = terms.join(",");
            if i % 2 == 0 {
                format!("ktg terms={terms} p=3 k=2 n=3")
            } else {
                format!("dktg terms={terms} p=3 k=2 n=3 gamma=0.5")
            }
        })
        .collect();
    let mut script = vec!["# net_diff differential script".to_string()];
    for round in 0..3u64 {
        for _ in 0..3 {
            script.push(pool[rng.gen_range(0..pool.len())].clone());
        }
        script.push(String::new());
        // Same endpoints per round parity: inserts later removed, so
        // both applied and no-op update renderings appear on the wire.
        script.push(if round % 2 == 0 { "insert 0 9" } else { "remove 0 9" }.to_string());
    }
    script
}

/// What `ktg batch` prints for this script's items (minus the batch
/// header/summary lines the server has no equivalent of): a fresh
/// single-threaded session replay through the shared outcome renderer.
/// Also returns that session's cache counters.
fn batch_rendering(
    net: &AttributedGraph,
    script: &[String],
    options: &ServeOptions,
) -> (String, ServeStats) {
    let text = script.join("\n");
    let items = parse_workload(&text, net).expect("script parses");
    let mut session = ServeSession::new(net.clone(), options.clone());
    let outcomes = session.run(&items);
    let mut out = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        ktg_cli::commands::write_outcome(&mut out, i + 1, outcome, 0).expect("render outcome");
    }
    (String::from_utf8(out).expect("renderer emits UTF-8"), session.stats())
}

fn boot(net: &AttributedGraph, workers: usize, options: ServeOptions) -> ServerHandle {
    let cfg = ServeConfig { workers, options, ..ServeConfig::default() };
    start(net.clone(), cfg).expect("bind loopback server")
}

fn connect(handle: &ServerHandle) -> (TcpStream, LineReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let writer = stream.try_clone().expect("clone stream");
    (writer, LineReader::new(stream, 1 << 20))
}

/// Sends one request line and returns its `.`-terminated response block
/// (terminator stripped, lines newline-joined — empty string for the
/// empty block).
fn request(writer: &mut TcpStream, reader: &mut LineReader<TcpStream>, line: &str) -> String {
    write_line(writer, line).expect("send request");
    writer.flush().expect("flush request");
    let mut block = String::new();
    loop {
        match reader.read_frame().expect("read response frame") {
            Frame::Line(l) if l == "." => return block,
            Frame::Line(l) => {
                block.push_str(&l);
                block.push('\n');
            }
            other => panic!("unexpected frame mid-response: {other:?}"),
        }
    }
}

/// One counter out of a `/stats` response block.
fn stat(stats: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\":");
    let start = stats.find(&tag).unwrap_or_else(|| panic!("no {name} in {stats:?}")) + tag.len();
    let digits: String = stats[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("numeric counter")
}

/// Replays the whole script over one sequential connection, returning
/// the concatenated response text.
fn replay(handle: &ServerHandle, script: &[String]) -> String {
    let (mut writer, mut reader) = connect(handle);
    let mut out = String::new();
    for line in script {
        out.push_str(&request(&mut writer, &mut reader, line));
    }
    out
}

/// The tentpole claim: across server worker counts and cache settings,
/// a sequential TCP replay's bytes equal the batch renderer's bytes for
/// the same script — `[cached]` markers included, because a sequential
/// connection and a single-threaded batch replay hit the cache at
/// exactly the same positions. The server's `/stats` then counts one
/// result hit per `[cached]` marker and the batch session's row misses;
/// with the cache off it counts no hits at all.
#[test]
fn tcp_responses_match_batch_rendering_across_configs() {
    let _guard = fault_lock().lock().unwrap();
    let net = random_network(26, 0.22, 8, 4, 17);
    let script = wire_script(&net, 0x5EED);
    for use_cache in [true, false] {
        for workers in [1usize, 4] {
            let options =
                ServeOptions { threads: 1, use_cache, ..ServeOptions::default() };
            let (expected, batch_stats) = batch_rendering(&net, &script, &options);
            let handle = boot(&net, workers, options);
            let got = replay(&handle, &script);
            assert_eq!(
                expected, got,
                "cache={use_cache}, workers={workers}: TCP replay diverged \
                 from the batch rendering"
            );
            let (mut writer, mut reader) = connect(&handle);
            let stats = request(&mut writer, &mut reader, "/stats");
            let label = format!("cache={use_cache}, workers={workers}");
            if use_cache {
                let cached = got.matches(" [cached]").count() as u64;
                assert!(cached > 0, "repeat-bearing script never hit");
                assert_eq!(stat(&stats, "result_hits"), cached, "{label}: {stats}");
                assert_eq!(
                    stat(&stats, "row_misses"),
                    batch_stats.row_misses,
                    "{label}: {stats}"
                );
            } else {
                assert_eq!(stat(&stats, "result_hits"), 0, "{label}: {stats}");
            }
            handle.shutdown();
            handle.join().expect("server thread");
        }
    }
}

/// Fault-schedule axis: with deterministic injection armed (every site
/// except `io`), the server's retry-once recovery must absorb every
/// injected panic — the parse site included, which only the network
/// path exercises per request — and keep responses byte-identical to
/// the fault-free bytes. The `io` site is deliberately excluded: its
/// contract is that a failed response write *closes the connection*
/// (counted in `/stats`), which is the one fault a byte-identical
/// replay cannot absorb; `response_write_errors_are_counted` covers it.
#[test]
fn tcp_responses_are_byte_identical_under_injected_faults() {
    let _guard = fault_lock().lock().unwrap();
    let _disarm = Disarm;
    let net = random_network(24, 0.25, 8, 4, 29);
    let script = wire_script(&net, 0xFA07);
    let options = ServeOptions { threads: 1, ..ServeOptions::default() };

    fault::set_config(None);
    let (expected, _) = batch_rendering(&net, &script, &options);
    let sites: Vec<FaultSite> = fault::ALL_SITES
        .iter()
        .copied()
        .filter(|site| *site != FaultSite::ServeIo)
        .collect();
    for seed in [3u64, 11] {
        for rate in [1.0, 0.5] {
            fault::set_config(Some(FaultConfig::new(&sites, rate, seed)));
            let handle = boot(&net, 2, options.clone());
            let got = replay(&handle, &script);
            assert_eq!(
                expected, got,
                "seed={seed}, rate={rate}: fault-armed TCP replay diverged"
            );
            assert!(!got.contains("failed:"), "injected fault survived the retry");
            handle.shutdown();
            handle.join().expect("server thread");
        }
    }
}

/// Degraded axis: a one-node budget degrades every nontrivial search,
/// and the server's `[degraded(...)]` tagging must still render exactly
/// the batch bytes for the same configuration.
#[test]
fn degraded_answers_render_identically_over_tcp() {
    let _guard = fault_lock().lock().unwrap();
    let net = random_network(28, 0.2, 8, 4, 41);
    let script = wire_script(&net, 0xB4D9);
    let mut engine = bb::BbOptions::vkc_deg();
    engine.node_budget = Some(1);
    let options = ServeOptions { threads: 1, engine, ..ServeOptions::default() };
    let (expected, _) = batch_rendering(&net, &script, &options);
    assert!(expected.contains("[degraded("), "one-node budget degraded nothing");
    let handle = boot(&net, 2, options);
    let got = replay(&handle, &script);
    assert_eq!(expected, got, "degraded TCP replay diverged from the batch rendering");
    handle.shutdown();
    handle.join().expect("server thread");
}

/// Overloaded axis: a draining server sheds queries with an
/// `overloaded` line that names the drain (with or without an admission
/// bound, with the same lineno numbering as a shed batch item), keeps
/// applying updates, and resumes answering after `/resume`. `/stats`
/// reports the shed count.
#[test]
fn drained_server_sheds_with_the_batch_overloaded_line() {
    let _guard = fault_lock().lock().unwrap();
    let net = random_network(22, 0.25, 8, 4, 53);
    let script = wire_script(&net, 0x0DD5);
    let query = script
        .iter()
        .find(|l| l.starts_with("ktg "))
        .expect("script has a ktg line")
        .clone();
    for max_inflight in [2usize, 0] {
        let options = ServeOptions { threads: 1, ..ServeOptions::default() };
        let cfg = ServeConfig { workers: 2, max_inflight, options, ..ServeConfig::default() };
        let handle = start(net.clone(), cfg).expect("bind loopback server");
        let (mut writer, mut reader) = connect(&handle);

        // A sequential connection never exceeds one in-flight query, so
        // the gauge alone cannot shed here: answered normally.
        let block = request(&mut writer, &mut reader, &query);
        assert!(block.starts_with("[1] ktg:"), "{block:?}");
        // Normalize: guarantee edge 0–9 is absent so the drained insert
        // below is deterministically `applied`.
        let block = request(&mut writer, &mut reader, "remove 0 9");
        assert!(block.starts_with("[2] update:"), "{block:?}");

        let block = request(&mut writer, &mut reader, "/drain");
        assert!(block.starts_with("draining"), "{block:?}");
        // Shed responses still consume item positions, exactly like a
        // shed batch item, and the client's exit code 4 keys on
        // `] overloaded:`.
        let block = request(&mut writer, &mut reader, &query);
        assert_eq!(block, "[3] overloaded: shed while draining, until /resume\n");
        let block = request(&mut writer, &mut reader, "insert 0 9");
        assert_eq!(block, "[4] update: applied\n", "updates must not be shed");
        let block = request(&mut writer, &mut reader, &query);
        assert_eq!(block, "[5] overloaded: shed while draining, until /resume\n");

        let block = request(&mut writer, &mut reader, "/resume");
        assert!(block.starts_with("resumed"), "{block:?}");
        let block = request(&mut writer, &mut reader, &query);
        assert!(block.starts_with("[6] ktg:"), "post-resume answer expected: {block:?}");

        // The stats line is one flat JSON object counting the shed items.
        let block = request(&mut writer, &mut reader, "/stats");
        assert!(block.starts_with("stats: {"), "{block:?}");
        for field in ["\"overloaded\":2", "\"requests\":6", "\"p95_ns\":", "\"epoch\":"] {
            assert!(
                block.contains(field),
                "max_inflight={max_inflight}: missing {field} in {block:?}"
            );
        }

        handle.shutdown();
        handle.join().expect("server thread");
    }
}

/// Durability axis: a WAL-backed server that dies abruptly halfway
/// through a script and is recovered by a fresh process must serve the
/// remainder byte-identically to a server that never crashed but holds
/// the same *durable* state — the first half's updates, a fresh (cold)
/// result cache. Both halves are compared against the shared batch
/// renderer, so the recovered process's response bytes are transitively
/// the uninterrupted batch bytes for the same items over the same graph
/// state.
#[test]
fn recovered_server_serves_byte_identically_after_a_crash() {
    let _guard = fault_lock().lock().unwrap();
    let dir = std::env::temp_dir()
        .join(format!("ktg-net-diff-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let wal_cfg = WalConfig {
        path: dir.join("updates.wal"),
        sync: WalSync::Always,
        checkpoint_every: 0,
        bundle: None,
    };

    let net = random_network(26, 0.22, 8, 4, 61);
    let script = wire_script(&net, 0x9EC0);
    let half = script.len() / 2;
    let options = ServeOptions { threads: 1, ..ServeOptions::default() };

    // Phase 1: serve the first half, then die with no farewell — every
    // accepted update was WAL-appended (and fsynced) before it was
    // applied, so the log alone carries the state forward.
    let (expected, _) = batch_rendering(&net, &script[..half], &options);
    let cfg = ServeConfig {
        workers: 2,
        options: options.clone(),
        wal: Some(wal_cfg.clone()),
        ..ServeConfig::default()
    };
    let handle = start(net.clone(), cfg).expect("bind first server");
    let got = replay(&handle, &script[..half]);
    assert_eq!(expected, got, "pre-crash replay diverged from the batch rendering");
    handle.shutdown();
    handle.join().expect("server thread");

    // The never-crashed reference: a fresh session holding exactly the
    // durable state (first-half updates applied, cold cache), rendering
    // the second half through the shared batch renderer.
    let first_items =
        parse_workload(&script[..half].join("\n"), &net).expect("first half parses");
    let updates: Vec<_> = first_items.into_iter().filter(|i| !i.is_query()).collect();
    let mut reference = ServeSession::new(net.clone(), options.clone());
    reference.run(&updates);
    let second_items =
        parse_workload(&script[half..].join("\n"), &net).expect("second half parses");
    let outcomes = reference.run(&second_items);
    let mut out = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        ktg_cli::commands::write_outcome(&mut out, i + 1, outcome, 0).expect("render outcome");
    }
    let expected = String::from_utf8(out).expect("renderer emits UTF-8");

    // Phase 2: a fresh process — a pristine copy of the network plus
    // the surviving log — finishes the script.
    let cfg = ServeConfig {
        workers: 2,
        options,
        wal: Some(wal_cfg),
        ..ServeConfig::default()
    };
    let handle = start(net.clone(), cfg).expect("bind recovered server");
    assert!(handle.recovered().expect("wal attached").replayed > 0, "nothing replayed");
    let (mut writer, mut reader) = connect(&handle);
    for _ in 0..500 {
        if request(&mut writer, &mut reader, "/health").contains("\"state\":\"serving\"")
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let got = replay(&handle, &script[half..]);
    assert_eq!(expected, got, "post-recovery replay diverged from the reference");
    handle.shutdown();
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
