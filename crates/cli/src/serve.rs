//! The persistent TCP serving front-end (`ktg serve`) and its client.
//!
//! A hand-rolled `std::net` server wrapping [`ServeSession`] — no
//! external crates, in keeping with the workspace's zero-dependency
//! budget. The protocol is deliberately the thinnest possible layer over
//! what already exists:
//!
//! * **Requests are workload lines.** Every request line goes through
//!   [`ktg_core::serve::parse_request_line`] — the same grammar, byte
//!   cap, CRLF handling, and fault-injection site as `ktg batch` reading
//!   a file.
//! * **Responses are batch output.** Every response block is rendered by
//!   the same code path as `ktg batch` ([`crate::commands::write_outcome`]),
//!   terminated by a single `.` line so clients know where a block ends.
//!   The differential suite (`tests/tests/net_diff.rs`) holds TCP
//!   responses byte-identical to a batch replay of the same script.
//! * **Control lines start with `/`:** `/stats` (one-line JSON of cache,
//!   latency percentile, and outcome counters), `/health` (one-line JSON
//!   of serving state, applied-update count, and WAL/checkpoint
//!   sequences), `/checkpoint` (rewrite the bundle, truncate the log),
//!   `/drain` (shed all new queries as `overloaded` until `/resume`),
//!   `/resume`, `/shutdown`.
//!
//! ## Durability
//!
//! With `--wal <path>`, every accepted update line is appended to a
//! [`ktg_index::wal`] write-ahead log *before* it can mutate the
//! session (fsync policy `--wal-sync always|batch`), under the
//! session's write lock so log order always equals apply order. On
//! startup the log is replayed over the loaded network (tolerating one
//! torn tail record; mid-log corruption is a typed startup error)
//! before the listener binds: the session is shared only once every
//! surviving record is re-applied, so no request can read, mutate or
//! checkpoint a half-replayed session, and a connect is refused until
//! replay ends. `/checkpoint` (or `--checkpoint-every N` appends)
//! rewrites the bundle under a temp-file + atomic-rename protocol and
//! truncates the log. `KTG_CRASH_AFTER=<n>` aborts the process after `n`
//! appends — the crash-injection harness the recovery tests drive.
//!
//! ## Concurrency model
//!
//! The only threads are a fixed pool of `--workers`. Each worker accepts
//! a connection from the shared listener, serves it to completion, and
//! accepts the next; connections beyond the busy workers wait in the
//! kernel's listen backlog, which is bounded. The server holds two
//! locks. The session sits behind an [`RwLock`]: queries run
//! concurrently under the read lock through
//! [`ServeSession::answer_query`], while edge updates serialize behind
//! the write lock through [`ServeSession::apply_item`] — the same
//! "updates are serialization points" semantics the batch executor has,
//! extended across connections. The WAL state sits behind a [`Mutex`],
//! always taken after the session lock. Counters, the in-flight gauge
//! and the latency histogram are atomics.
//!
//! Each worker runs one line at a time, so at most `--workers` queries
//! execute at once; `/stats` `inflight` reports how many do. While the
//! server is draining, a new query is refused with a structured
//! `overloaded` response — the connection stays open and the client can
//! retry after `/resume` — never by dropping the connection.
//! Per-connection wall-clock deadlines ride on the existing
//! [`CancelToken`], polled between requests.
//!
//! Shutdown is cooperative: the flag flips and one throwaway loopback
//! connection per worker unblocks every `accept` (a worker checks the
//! flag after each one), and every socket carries a short read timeout
//! so no worker can wedge on an idle peer.

use crate::args::{ParsedArgs, CLIENT_FLAGS, NETWORK_FLAGS, SERVER_FLAGS, SESSION_FLAGS};
use crate::commands::{load_network_ex, serve_options_from_flags, write_outcome};
use crate::RunStatus;
use ktg_common::fault::{self, FaultSite};
use ktg_common::net::{write_line, Frame, LineReader};
use ktg_common::parallel::worker_count;
use ktg_common::rng::SplitMix64;
use ktg_common::{CancelToken, KtgError, Result, Stopwatch};
use ktg_core::serve::workload::{WorkloadItem, MAX_LINE_BYTES};
use ktg_core::serve::{parse_request_line, ItemOutcome, ServeOptions, ServeSession};
use ktg_core::AttributedGraph;
use ktg_index::wal::{WalSync, WalWriter};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Socket read timeout: the cadence at which a worker serving an idle
/// connection re-checks the shutdown flag and the connection deadline.
/// Short enough that shutdown feels immediate, long enough to cost
/// nothing.
const POLL_READ_TIMEOUT: Duration = Duration::from_millis(200);

/// The framer's cap is slightly above the parser's so that a line at
/// exactly [`MAX_LINE_BYTES`] (+ CRLF framing) reaches the parser and
/// gets the parser's precise, line-numbered error; only lines beyond
/// any legitimate length are cut at the framing layer.
const READER_CAP: usize = MAX_LINE_BYTES + 16;

/// Latency histogram buckets: values 0–7 ns each own one, then every
/// power of two from 2^3 to 2^63 is split into 8 equal steps (see
/// [`latency_bucket`]). 496 counters, about 4 KB.
const LATENCY_BUCKETS: usize = 496;

fn lock_mutex<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The histogram bucket of a latency in nanoseconds: exact below 8,
/// then the power of two `2^e` holding `ns` and which of its 8 equal
/// steps. Monotone, so bucket order is value order.
fn latency_bucket(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    (((e - 2) << 3) | ((ns >> (e - 3)) & 7) as u32) as usize
}

/// The largest latency [`latency_bucket`] maps to `bucket`. A value lies
/// less than 1/8 of itself below its bucket's top.
fn latency_bucket_top(bucket: usize) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let e = (bucket >> 3) as u32 + 2;
    let step = 1u64 << (e - 3);
    ((8 + (bucket & 7) as u64) << (e - 3)) + (step - 1)
}

/// Request instrumentation for one server: plain atomic counters plus a
/// fixed latency histogram, so recording a request never takes a lock.
pub struct ServerStats {
    requests: AtomicU64,
    degraded: AtomicU64,
    overloaded: AtomicU64,
    failed: AtomicU64,
    /// Response blocks that could not be written back (peer gone,
    /// broken pipe, injected `io` fault). Each one closed a connection
    /// with a half-written (or unwritten) block; surfacing the count
    /// through `/stats` makes that loss observable instead of silent.
    write_failures: AtomicU64,
    /// Executed requests per [`latency_bucket`], since start.
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl ServerStats {
    fn new() -> Self {
        ServerStats {
            requests: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one response block lost to a write failure.
    fn record_write_failure(&self) {
        self.write_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served item: its latency and outcome class.
    fn record(&self, latency_ns: u64, outcome: &ItemOutcome) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match outcome {
            ItemOutcome::Ktg(ans) if !ans.status.is_exact() => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
            ItemOutcome::Dktg(ans) if !ans.status.is_exact() => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
            ItemOutcome::Failed { .. } => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.latency[latency_bucket(latency_ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A query shed while draining: counted, but no latency sample
    /// (nothing executed).
    fn record_shed(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// `(samples, p50, p95, p99)` over every executed request since
    /// start. Each percentile is the top of the bucket holding the
    /// nearest-rank sample, so it reads high by less than 1/8. All zeros
    /// when empty.
    fn percentiles(&self) -> (u64, u64, u64, u64) {
        let counts: Vec<u64> = self.latency.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return (0, 0, 0, 0);
        }
        let rank = |p: u64| -> u64 {
            // Nearest-rank: ceil(p/100 * n), 1-based, clamped.
            let want = (total * p).div_ceil(100).clamp(1, total);
            let mut seen = 0;
            for (bucket, &count) in counts.iter().enumerate() {
                seen += count;
                if seen >= want {
                    return latency_bucket_top(bucket);
                }
            }
            latency_bucket_top(LATENCY_BUCKETS - 1)
        };
        (total, rank(50), rank(95), rank(99))
    }
}

/// Durability configuration for one server (`--wal` and friends).
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Log path; created if missing, replayed (and torn-tail-truncated)
    /// if present.
    pub path: PathBuf,
    /// Fsync policy for appended records.
    pub sync: WalSync,
    /// Checkpoint automatically after this many appended updates
    /// (`0` = only on explicit `/checkpoint`).
    pub checkpoint_every: u64,
    /// Bundle path checkpoints rewrite (temp file + atomic rename);
    /// `None` disables checkpointing with an in-band error.
    pub bundle: Option<PathBuf>,
}

/// Server configuration (beyond the session's [`ServeOptions`]).
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub bind: String,
    /// Connection-serving worker threads; `0` = auto
    /// ([`worker_count`], honoring `KTG_THREADS`). Each worker runs one
    /// line at a time, so this also bounds the queries executing at once.
    pub workers: usize,
    /// Per-connection wall-clock deadline in milliseconds, polled
    /// between requests; `None` = connections live until EOF.
    pub conn_deadline_ms: Option<u64>,
    /// Write-ahead logging; `None` = updates die with the process.
    pub wal: Option<WalConfig>,
    /// Session options: cache and engine.
    pub options: ServeOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 0,
            conn_deadline_ms: None,
            wal: None,
            options: ServeOptions::default(),
        }
    }
}

/// Mutable WAL state, behind one mutex (always acquired *after* the
/// session lock — the same order the update path and `/checkpoint`
/// use, so the pair can never deadlock).
struct WalState {
    writer: WalWriter,
    checkpoint_every: u64,
    /// Appends since the last checkpoint (or since startup).
    since_checkpoint: u64,
    /// Sequence captured by the last checkpoint (startup: the replayed
    /// log's base).
    last_checkpoint_seq: u64,
    bundle: Option<PathBuf>,
    /// Crash-injection countdown (`KTG_CRASH_AFTER`): aborts the
    /// process after this many more appends.
    crash_after: Option<u64>,
}

/// What recovery found in the log at startup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Updates replayed from the log.
    pub replayed: u64,
    /// Whether a torn tail record was dropped (and truncated away).
    pub torn_tail: bool,
}

/// State shared by the worker pool: the server's two locks (session,
/// then WAL) and its atomics.
struct Shared {
    session: RwLock<ServeSession>,
    stats: ServerStats,
    shutdown: AtomicBool,
    draining: AtomicBool,
    /// Durable update log (`--wal`); see [`WalState`] for lock order.
    wal: Option<Mutex<WalState>>,
    /// Queries executing now, reported as `/stats` `inflight`.
    inflight: AtomicUsize,
    conn_deadline_ms: Option<u64>,
    /// The bound address, kept so shutdown can poke every worker out of
    /// its blocking `accept` with throwaway loopback connections.
    addr: SocketAddr,
    /// Pool size: shutdown opens one throwaway connection per worker.
    workers: usize,
}

impl Shared {
    fn read_session(&self) -> std::sync::RwLockReadGuard<'_, ServeSession> {
        match self.session.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_session(&self) -> std::sync::RwLockWriteGuard<'_, ServeSession> {
        match self.session.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admits one query unless the server is draining, counting it in
    /// the in-flight gauge until [`Shared::release_admission`]. The
    /// gauge only reports, it guards nothing, so `Relaxed` suffices.
    fn try_admit(&self) -> bool {
        if self.draining.load(Ordering::Relaxed) {
            return false;
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn release_admission(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Each worker accepts at most one more connection before it sees
        // the flag, so one throwaway connection per worker unblocks them
        // all; busy workers see the flag within a read timeout.
        for _ in 0..self.workers {
            drop(TcpStream::connect(self.addr));
        }
    }
}

/// A running server: its bound address plus the worker pool's join
/// handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    recovered: Option<RecoveryInfo>,
}

impl ServerHandle {
    /// The actual bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery replayed from the WAL (`None` without
    /// `--wal`).
    pub fn recovered(&self) -> Option<RecoveryInfo> {
        self.recovered
    }

    /// Requests shutdown without a client round-trip (tests, drop paths;
    /// the wire equivalent is the `/shutdown` control line).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every worker exits (via `/shutdown` or
    /// [`ServerHandle::shutdown`]).
    ///
    /// # Errors
    /// [`KtgError::InvalidInput`] if a worker thread panicked (item
    /// execution never panics a worker: it is isolated inside the
    /// session).
    pub fn join(self) -> Result<()> {
        let panicked = self.workers.into_iter().map(|w| w.join()).filter(|r| r.is_err()).count();
        if panicked > 0 {
            return Err(KtgError::input(format!("{panicked} server worker(s) panicked")));
        }
        Ok(())
    }
}

/// Replays the WAL (if any), binds `cfg.bind`, spawns the worker pool,
/// and returns once the socket is accepting (queries may be served
/// immediately).
///
/// # Errors
/// WAL open/replay errors and I/O errors from binding the listener.
pub fn start(net: AttributedGraph, cfg: ServeConfig) -> Result<ServerHandle> {
    start_with_index(net, cfg, None)
}

/// [`start`] with a pre-built NLRNL index (the `--bundle` reload path).
///
/// # Errors
/// WAL open/replay errors and I/O errors from binding the listener or
/// spawning a worker.
pub fn start_with_index(
    net: AttributedGraph,
    cfg: ServeConfig,
    index: Option<ktg_index::NlrnlIndex>,
) -> Result<ServerHandle> {
    // Open the log and parse every record first: replay errors
    // (mid-log corruption, a query line where only updates belong) are
    // typed startup failures, found before the session is built.
    let mut recovery: Vec<WorkloadItem> = Vec::new();
    let mut recovered = None;
    let wal_state = match &cfg.wal {
        None => None,
        Some(wal_cfg) => {
            let (writer, replayed) = WalWriter::open(&wal_cfg.path, wal_cfg.sync)?;
            for (i, record) in replayed.records.iter().enumerate() {
                let item = parse_request_line(&net, i + 1, &record.line)?.ok_or_else(|| {
                    KtgError::input(format!(
                        "WAL record {} is not an update line: `{}`",
                        record.seq, record.line
                    ))
                })?;
                if item.is_query() {
                    return Err(KtgError::input(format!(
                        "WAL record {} is a query line: `{}`",
                        record.seq, record.line
                    )));
                }
                recovery.push(item);
            }
            recovered = Some(RecoveryInfo {
                replayed: recovery.len() as u64,
                torn_tail: replayed.torn_tail,
            });
            let crash_after = std::env::var("KTG_CRASH_AFTER")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok());
            Some(Mutex::new(WalState {
                last_checkpoint_seq: replayed.base_seq,
                writer,
                checkpoint_every: wal_cfg.checkpoint_every,
                since_checkpoint: 0,
                bundle: wal_cfg.bundle.clone(),
                crash_after,
            }))
        }
    };
    // Replay through the exact apply path a live update takes, which is
    // what makes the recovered session byte-identical to a never-crashed
    // one. Nothing else can see the session until the listener binds.
    let mut session = ServeSession::with_index(net, cfg.options, index);
    for item in &recovery {
        session.apply_item(item);
    }
    let listener = Arc::new(TcpListener::bind(cfg.bind.as_str())?);
    let addr = listener.local_addr()?;
    let workers = match cfg.workers {
        0 => worker_count(),
        w => w,
    };
    let shared = Arc::new(Shared {
        session: RwLock::new(session),
        stats: ServerStats::new(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        wal: wal_state,
        inflight: AtomicUsize::new(0),
        conn_deadline_ms: cfg.conn_deadline_ms,
        addr,
        workers,
    });
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let worker_shared = Arc::clone(&shared);
        let worker_listener = Arc::clone(&listener);
        let spawned = std::thread::Builder::new()
            .spawn(move || worker_loop(&worker_shared, &worker_listener));
        match spawned {
            Ok(worker) => pool.push(worker),
            Err(e) => {
                // Stop the workers already running before reporting.
                let partial = ServerHandle { addr, shared, workers: pool, recovered };
                partial.shutdown();
                drop(partial.join());
                return Err(e.into());
            }
        }
    }
    Ok(ServerHandle { addr, shared, workers: pool, recovered })
}

/// One pool worker: accepts a connection, serves it to completion, and
/// accepts the next, until it sees the shutdown flag after an accept.
fn worker_loop(shared: &Shared, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Transient accept failures (EMFILE, aborted handshake): keep
        // accepting — a serving process must outlive them.
        if let Ok(stream) = conn {
            serve_connection(shared, stream);
        }
    }
}

/// Serves one connection: request lines in, response blocks out, until
/// EOF, a connection-deadline expiry, an I/O failure, or shutdown.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    // The read timeout doubles as the shutdown/deadline poll cadence;
    // NODELAY because responses are small and latency-sensitive.
    drop(stream.set_read_timeout(Some(POLL_READ_TIMEOUT)));
    drop(stream.set_nodelay(true));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = LineReader::new(stream, READER_CAP);
    let deadline = CancelToken::for_deadline_ms(shared.conn_deadline_ms);
    // Response linenos equal the item's position in the connection's
    // stream of parsed items (1-based) — exactly `ktg batch`'s output
    // numbering for the same script.
    let mut items_seen = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if deadline.as_ref().is_some_and(CancelToken::poll) {
            // The connection closes either way; respond() itself counts
            // a failed farewell write into `write_failures`.
            let _ = respond(&shared.stats, &mut writer, &["error: connection deadline exceeded"]);
            return;
        }
        let frame = match reader.read_frame() {
            Ok(frame) => frame,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let outcome = match frame {
            Frame::Eof => return,
            Frame::Overlong { bytes } => {
                // Mirrors the parser's cap error (same `error: {KtgError}`
                // rendering); the framer only cuts in when the line is
                // beyond even the framing slack.
                let msg = format!(
                    "error: {}",
                    KtgError::input(format!(
                        "workload line {}: line is {bytes} bytes, exceeds {MAX_LINE_BYTES} bytes",
                        items_seen + 1
                    ))
                );
                respond(&shared.stats, &mut writer, &[msg.as_str()])
            }
            Frame::Line(line) => handle_line(shared, &mut writer, &mut items_seen, &line),
        };
        match outcome {
            LineOutcome::Continue => {}
            LineOutcome::Close => return,
        }
    }
}

enum LineOutcome {
    Continue,
    Close,
}

/// Writes one response block: the given lines plus the `.` terminator,
/// flushed. Any I/O failure (or an injected `io` fault standing in for
/// one) closes the connection *and is counted* — a half-written block
/// must show up in `/stats` as a `write_failures` tick, never vanish.
fn respond(stats: &ServerStats, writer: &mut impl Write, lines: &[&str]) -> LineOutcome {
    if fault::should_fail(FaultSite::ServeIo) {
        stats.record_write_failure();
        return LineOutcome::Close;
    }
    for line in lines {
        if write_line(writer, line).is_err() {
            stats.record_write_failure();
            return LineOutcome::Close;
        }
    }
    if write_line(writer, ".").is_err() || writer.flush().is_err() {
        stats.record_write_failure();
        return LineOutcome::Close;
    }
    LineOutcome::Continue
}

/// Handles one request line end-to-end (parse, execute, respond).
fn handle_line(
    shared: &Shared,
    writer: &mut impl Write,
    items_seen: &mut usize,
    line: &str,
) -> LineOutcome {
    if let Some(control) = line.strip_prefix('/') {
        return handle_control(shared, writer, control);
    }
    let parsed = {
        let session = shared.read_session();
        parse_request_line(session.net(), *items_seen + 1, line)
    };
    let item = match parsed {
        // Blank or comment: acknowledged with an empty block so request
        // and response streams stay in lockstep for pipelining clients.
        Ok(None) => return respond(&shared.stats, writer, &[]),
        Ok(Some(item)) => item,
        Err(e) => {
            let msg = format!("error: {e}");
            return respond(&shared.stats, writer, &[msg.as_str()]);
        }
    };
    *items_seen += 1;
    let lineno = *items_seen;
    let outcome = if item.is_query() {
        if !shared.try_admit() {
            shared.stats.record_shed();
            let msg =
                format!("[{lineno}] {}", KtgError::overloaded("shed while draining, until /resume"));
            return respond(&shared.stats, writer, &[msg.as_str()]);
        }
        let timer = Stopwatch::start();
        let outcome = shared.read_session().answer_query(&item);
        shared.release_admission();
        shared.stats.record(timer.elapsed_nanos(), &outcome);
        outcome
    } else {
        // Edge update: the cross-connection serialization point. The
        // write lock is taken *before* the WAL append so log order
        // always equals apply order — two racing updates cannot swap
        // between the log and the session.
        let timer = Stopwatch::start();
        let mut session = shared.write_session();
        if let Some(wal) = &shared.wal {
            if let Err(e) = wal_append(&mut lock_mutex(wal), line) {
                drop(session);
                let msg = format!("error: {e}");
                return respond(&shared.stats, writer, &[msg.as_str()]);
            }
        }
        let outcome = session.apply_item(&item);
        drop(session);
        // A due checkpoint runs under the read lock, as `/checkpoint`
        // does: queries keep flowing during the bundle rewrite. Appends
        // and applies both happen under the write lock, so the state it
        // saves covers every appended record.
        if let Some(wal) = &shared.wal {
            let session = shared.read_session();
            maybe_checkpoint(&session, &mut lock_mutex(wal));
        }
        shared.stats.record(timer.elapsed_nanos(), &outcome);
        outcome
    };
    let mut block = Vec::new();
    if write_outcome(&mut block, lineno, &outcome, 0).is_err() {
        return LineOutcome::Close;
    }
    let text = String::from_utf8_lossy(&block);
    let lines: Vec<&str> = text.lines().collect();
    respond(&shared.stats, writer, &lines)
}

/// Appends one accepted update line to the log, with the executor's
/// retry-once discipline for injected `wal` faults (the site fires
/// inside [`WalWriter::append`], before any appender state changes, so
/// a suppressed retry starts from untouched state). Also drives the
/// `KTG_CRASH_AFTER` harness: the process aborts right after the n-th
/// record becomes durable — *before* the update is applied, the
/// crash point recovery exists to cover.
fn wal_append(st: &mut WalState, line: &str) -> Result<u64> {
    let appended = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        st.writer.append(line)
    })) {
        Ok(result) => result,
        Err(payload) if fault::is_injected(payload.as_ref()) => {
            fault::suppressed(|| st.writer.append(line))
        }
        Err(payload) => std::panic::resume_unwind(payload),
    };
    let seq = appended?;
    st.since_checkpoint += 1;
    if let Some(left) = st.crash_after.as_mut() {
        *left = left.saturating_sub(1);
        if *left == 0 {
            // Make the record durable regardless of sync policy, then
            // die exactly as hard as a kill -9 would.
            drop(st.writer.sync());
            std::process::abort();
        }
    }
    Ok(seq)
}

/// Runs the automatic checkpoint when `--checkpoint-every` is due.
/// Failures are swallowed deliberately: a checkpoint is an optimization
/// (the log already holds everything), so a full disk must not fail the
/// update that triggered it — the next `/checkpoint` reports the error
/// in-band instead.
fn maybe_checkpoint(session: &ServeSession, st: &mut WalState) {
    if st.checkpoint_every > 0 && st.since_checkpoint >= st.checkpoint_every {
        drop(checkpoint(session, st));
    }
}

/// Rewrites the bundle from the live session under a temp-file +
/// atomic-rename protocol, then truncates the log. Caller holds the
/// session lock (read or write) and the WAL mutex, in that order. A
/// crash between the rename and the truncate is benign: replaying the
/// whole old log onto the checkpointed state is a no-op fixpoint. The
/// directory sync between them keeps a power cut from persisting the
/// truncate without the rename (old bundle, empty log).
fn checkpoint(session: &ServeSession, st: &mut WalState) -> Result<u64> {
    let Some(bundle) = st.bundle.clone() else {
        return Err(KtgError::input(
            "checkpoint requires a --bundle path to rewrite".to_string(),
        ));
    };
    let mut tmp = bundle.clone().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let net = session.net();
    let mut writer = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    ktg_index::persist::save_bundle(
        net.graph(),
        net.vocab(),
        net.keywords(),
        session.nlrnl_index(),
        &mut writer,
    )?;
    writer.flush()?;
    let file = writer.into_inner().map_err(|e| KtgError::Io(e.into_error()))?;
    // The rename is only atomic if the bytes are on disk first.
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, &bundle)?;
    ktg_index::wal::sync_parent_dir(&bundle)?;
    st.writer.truncate()?;
    st.last_checkpoint_seq = st.writer.seq();
    st.since_checkpoint = 0;
    Ok(st.last_checkpoint_seq)
}

/// Handles a `/control` line.
fn handle_control(shared: &Shared, writer: &mut impl Write, control: &str) -> LineOutcome {
    match control {
        "stats" => {
            let line = stats_line(shared);
            respond(&shared.stats, writer, &[line.as_str()])
        }
        "health" => {
            let line = health_line(shared);
            respond(&shared.stats, writer, &[line.as_str()])
        }
        "checkpoint" => {
            let Some(wal) = &shared.wal else {
                return respond(
                    &shared.stats,
                    writer,
                    &["error: checkpoint requires the server to run with --wal"],
                );
            };
            // Same order as the update path: session lock, then WAL.
            // The read lock freezes updates for the bundle rewrite
            // while letting queries flow.
            let session = shared.read_session();
            let result = checkpoint(&session, &mut lock_mutex(wal));
            drop(session);
            match result {
                Ok(seq) => {
                    let msg = format!("checkpointed: bundle rewritten at seq {seq}, log truncated");
                    respond(&shared.stats, writer, &[msg.as_str()])
                }
                Err(e) => {
                    let msg = format!("error: {e}");
                    respond(&shared.stats, writer, &[msg.as_str()])
                }
            }
        }
        "drain" => {
            shared.draining.store(true, Ordering::Relaxed);
            // Draining is the moment durability matters most: make any
            // batch-policy tail durable before traffic moves away.
            if let Some(wal) = &shared.wal {
                drop(lock_mutex(wal).writer.sync());
            }
            respond(&shared.stats, writer, &["draining: new queries will be shed as overloaded"])
        }
        "resume" => {
            shared.draining.store(false, Ordering::Relaxed);
            respond(&shared.stats, writer, &["resumed: admission re-enabled"])
        }
        "shutdown" => {
            // Acknowledge first: the flag closes every connection,
            // including this one, right after. Sync the log so a
            // batch-policy tail survives the exit.
            if let Some(wal) = &shared.wal {
                drop(lock_mutex(wal).writer.sync());
            }
            let _ = respond(&shared.stats, writer, &["shutting down"]);
            shared.begin_shutdown();
            LineOutcome::Close
        }
        other => {
            let msg = format!(
                "error: unknown control line `/{other}` (expected /stats, /health, /checkpoint, /drain, /resume, /shutdown)"
            );
            respond(&shared.stats, writer, &[msg.as_str()])
        }
    }
}

/// Renders the `/health` response: one line, `health: ` plus a flat
/// JSON object. `state` is `draining` or `serving`;
/// `wal_seq`/`checkpoint_seq` are 0 without `--wal`. Clients poll this
/// before replaying after a reconnect.
fn health_line(shared: &Shared) -> String {
    let state = if shared.draining.load(Ordering::Relaxed) { "draining" } else { "serving" };
    let epoch = shared.read_session().epoch();
    let (wal_seq, checkpoint_seq) = match &shared.wal {
        Some(wal) => {
            let st = lock_mutex(wal);
            (st.writer.seq(), st.last_checkpoint_seq)
        }
        None => (0, 0),
    };
    format!(
        "health: {{\"state\":\"{state}\",\"epoch\":{epoch},\"wal_seq\":{wal_seq},\"checkpoint_seq\":{checkpoint_seq}}}"
    )
}

/// Renders the `/stats` response: one line, `stats: ` plus a flat JSON
/// object (hand-rolled — every value is an unsigned integer).
fn stats_line(shared: &Shared) -> String {
    let session_stats = shared.read_session().stats();
    let (samples, p50, p95, p99) = shared.stats.percentiles();
    let fields: &[(&str, u64)] = &[
        ("requests", shared.stats.requests.load(Ordering::Relaxed)),
        ("degraded", shared.stats.degraded.load(Ordering::Relaxed)),
        ("overloaded", shared.stats.overloaded.load(Ordering::Relaxed)),
        ("failed", shared.stats.failed.load(Ordering::Relaxed)),
        ("write_failures", shared.stats.write_failures.load(Ordering::Relaxed)),
        ("result_hits", session_stats.result_hits),
        ("result_misses", session_stats.result_misses),
        ("result_reclaimed", session_stats.result_reclaimed),
        ("row_hits", session_stats.row_hits),
        ("row_misses", session_stats.row_misses),
        ("row_evictions", session_stats.row_evictions),
        ("row_reclaimed", session_stats.row_reclaimed),
        ("epoch", session_stats.epoch),
        ("inflight", shared.inflight.load(Ordering::Relaxed) as u64),
        ("latency_samples", samples),
        ("p50_ns", p50),
        ("p95_ns", p95),
        ("p99_ns", p99),
    ];
    let body: Vec<String> =
        fields.iter().map(|(name, value)| format!("\"{name}\":{value}")).collect();
    format!("stats: {{{}}}", body.join(","))
}

/// `ktg serve` dispatch: server mode (`--edges`) or client mode
/// (`--connect`). Each mode refuses the flags only the other reads, and
/// the server refuses WAL tuning without `--wal` and automatic
/// checkpoints without a `--bundle` to rewrite.
pub(crate) fn serve_cmd(args: &ParsedArgs, out: &mut dyn Write) -> Result<RunStatus> {
    if args.optional("connect").is_some() {
        args.reject(&[NETWORK_FLAGS, SESSION_FLAGS, SERVER_FLAGS], "`ktg serve --connect`")?;
        return client_cmd(args, out);
    }
    args.reject(&[CLIENT_FLAGS], "`ktg serve` without --connect")?;
    if args.optional("wal").is_none() {
        args.reject(&[&["wal-sync", "checkpoint-every"]], "`ktg serve` without --wal")?;
    }
    let checkpoint_every = args.num_or("checkpoint-every", 0)?;
    if checkpoint_every > 0 && args.optional("bundle").is_none() {
        return Err(KtgError::input(
            "flag '--checkpoint-every' needs --bundle: a checkpoint rewrites the bundle",
        ));
    }
    let (net, preloaded) = load_network_ex(args)?;
    let options = serve_options_from_flags(args)?;
    let conn_deadline_ms = match args.optional("conn-deadline-ms") {
        None => None,
        Some(_) => Some(args.required_num::<u64>("conn-deadline-ms")?),
    };
    let wal = match args.optional("wal") {
        None => None,
        Some(path) => Some(WalConfig {
            path: PathBuf::from(path),
            sync: WalSync::parse(args.optional("wal-sync").unwrap_or("always"))?,
            checkpoint_every,
            bundle: args.optional("bundle").map(PathBuf::from),
        }),
    };
    let cfg = ServeConfig {
        bind: args.optional("bind").unwrap_or("127.0.0.1:0").to_string(),
        workers: args.num_or("workers", 0)?,
        conn_deadline_ms,
        wal,
        options,
    };
    let workers = if cfg.workers == 0 { worker_count() } else { cfg.workers };
    let cache = if cfg.options.use_cache {
        format!("on ({} entries)", cfg.options.cache_entries)
    } else {
        "off".to_string()
    };
    let handle = start_with_index(net, cfg, preloaded)?;
    if let Some(info) = handle.recovered() {
        // Greppable recovery report for scripts and the CI crash smoke.
        writeln!(
            out,
            "wal: recovered {} update{}{}",
            info.replayed,
            if info.replayed == 1 { "" } else { "s" },
            if info.torn_tail { " (torn tail truncated)" } else { "" }
        )?;
    }
    // One greppable line with the resolved address: scripts (and the CI
    // smoke) parse the ephemeral port out of it.
    writeln!(
        out,
        "serving on {} ({workers} workers, cache {cache})",
        handle.addr()
    )?;
    out.flush()?;
    handle.join()?;
    writeln!(out, "server stopped")?;
    Ok(RunStatus::Complete)
}

/// `ktg serve --connect ADDR [--workload FILE] [--stats] [--shutdown]
/// [--retry N] [--retry-base-ms MS]`: replays a workload over one
/// connection, printing every response block verbatim (minus the `.`
/// terminators), then optionally fetches `/stats` and/or requests
/// `/shutdown`.
///
/// With `--retry N` a dropped connection (refused connect, reset, or a
/// close mid-response) is retried up to `N` times: the client sleeps a
/// deterministic seeded exponential backoff, polls `/health` until the
/// server reports `serving` again, reconnects, and resumes from the
/// first request line it never saw a full response for. Update lines
/// set the presence of one specific edge, so resending the line whose
/// response was lost mid-flight converges to the same state.
fn client_cmd(args: &ParsedArgs, out: &mut dyn Write) -> Result<RunStatus> {
    let addr = args.required("connect")?;
    let retries = args.num_or::<u64>("retry", 0)?;
    let base_ms = args.num_or::<u64>("retry-base-ms", 50)?;
    // The full request script: workload lines, then the optional
    // trailing controls. Retries resume from the first unanswered step.
    let mut steps: Vec<String> = match args.optional("workload") {
        Some(path) => std::fs::read_to_string(path)?.lines().map(str::to_string).collect(),
        None => Vec::new(),
    };
    if args.optional("stats").is_some() {
        steps.push("/stats".to_string());
    }
    if args.optional("shutdown").is_some() {
        steps.push("/shutdown".to_string());
    }
    client_replay(addr, &steps, retries, base_ms, out)
}

/// The client's retry loop: replays `steps` against `addr`, resuming
/// after connection-shaped failures up to `retries` times (see
/// [`client_cmd`]).
fn client_replay(
    addr: &str,
    steps: &[String],
    retries: u64,
    base_ms: u64,
    out: &mut dyn Write,
) -> Result<RunStatus> {
    let mut status = RunStatus::Complete;
    let mut next_step = 0usize;
    let mut attempt = 0u64;
    // Fixed seed: the backoff schedule is part of the reproducible
    // client behavior, not a source of true randomness.
    let mut rng = SplitMix64::new(0x6b74_675f_7265_7472);
    loop {
        match run_client_once(addr, steps, &mut next_step, out, &mut status) {
            Ok(()) => return Ok(status),
            Err(e) if attempt < retries && is_retryable(&e) => {
                attempt += 1;
                writeln!(out, "retry: attempt {attempt}/{retries} after: {e}")?;
                out.flush()?;
                backoff_sleep(base_ms, attempt, &mut rng);
                wait_healthy(addr, base_ms, &mut rng);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Connection-shaped failures are worth a reconnect; protocol errors
/// (oversized frames, bad flags) are not.
fn is_retryable(e: &KtgError) -> bool {
    match e {
        KtgError::Io(_) => true,
        other => other.to_string().contains("closed the connection"),
    }
}

/// Deterministic exponential backoff with seeded jitter:
/// `base << (attempt-1)` milliseconds (capped at 64x) plus up to one
/// extra base interval drawn from the client's fixed-seed generator.
fn backoff_sleep(base_ms: u64, attempt: u64, rng: &mut SplitMix64) {
    let shift = (attempt.saturating_sub(1)).min(6);
    let jitter = rng.next_u64() % base_ms.max(1);
    let delay = base_ms.saturating_mul(1u64 << shift).saturating_add(jitter);
    std::thread::sleep(Duration::from_millis(delay));
}

/// Polls `/health` (bounded attempts) until the server reports
/// `"state":"serving"` — i.e. it is back up, which means done replaying
/// its WAL (a replaying server is not listening yet) — so the resumed
/// workload doesn't burn its reconnect on a server that is still
/// restarting. Gives up silently after the attempt budget: the caller's
/// reconnect will then fail and consume a retry, keeping the overall
/// loop bounded.
fn wait_healthy(addr: &str, base_ms: u64, rng: &mut SplitMix64) {
    const HEALTH_POLLS: u64 = 10;
    for poll in 1..=HEALTH_POLLS {
        if probe_health(addr).unwrap_or(false) {
            return;
        }
        backoff_sleep(base_ms, poll, rng);
    }
}

/// One `/health` round-trip; `Ok(true)` iff the server answered and
/// reported the `serving` state.
fn probe_health(addr: &str) -> Result<bool> {
    let stream = TcpStream::connect(addr)?;
    drop(stream.set_nodelay(true));
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(stream, READER_CAP * 16);
    write_line(&mut writer, "/health")?;
    writer.flush()?;
    let mut serving = false;
    loop {
        match reader.read_frame()? {
            Frame::Line(line) if line == "." => return Ok(serving),
            Frame::Line(line) => {
                serving = serving || line.contains("\"state\":\"serving\"");
            }
            _ => return Ok(false),
        }
    }
}

/// One connection's worth of the request script: connects, replays
/// `steps[*next_step..]`, and advances `next_step` only after each
/// step's full response block has been read, so a retry resumes at the
/// first request the client never saw answered.
fn run_client_once(
    addr: &str,
    steps: &[String],
    next_step: &mut usize,
    out: &mut dyn Write,
    status: &mut RunStatus,
) -> Result<()> {
    let stream = TcpStream::connect(addr)?;
    drop(stream.set_nodelay(true));
    let mut writer = stream.try_clone()?;
    // Response lines are answer lines; none legitimately exceed the
    // request cap by much, but allow slack for long group listings.
    let mut reader = LineReader::new(stream, READER_CAP * 16);
    while *next_step < steps.len() {
        let line = &steps[*next_step];
        write_line(&mut writer, line)?;
        writer.flush()?;
        read_block(&mut reader, out, status)?;
        *next_step += 1;
    }
    Ok(())
}

/// Reads one response block through its `.` terminator, then echoes
/// its lines to `out` and folds response markers into the run status:
/// `overloaded` responses win over `degraded`/`failed` ones, matching
/// the batch exit-code precedence. A block cut off mid-way is neither
/// echoed nor counted, so a retry that resends its request prints the
/// answer once.
fn read_block(
    reader: &mut LineReader<TcpStream>,
    out: &mut dyn Write,
    status: &mut RunStatus,
) -> Result<()> {
    let mut block = Vec::new();
    loop {
        match reader.read_frame()? {
            Frame::Line(line) if line == "." => break,
            Frame::Line(line) => block.push(line),
            Frame::Overlong { bytes } => {
                return Err(KtgError::input(format!(
                    "oversized response line ({bytes} bytes) from server"
                )));
            }
            Frame::Eof => {
                return Err(KtgError::input(
                    "server closed the connection mid-response".to_string(),
                ));
            }
        }
    }
    for line in &block {
        if line.contains("] overloaded:") {
            *status = RunStatus::Overloaded;
        } else if *status == RunStatus::Complete
            && (line.contains(" [degraded(")
                || line.contains("] failed:")
                || line.starts_with("error:"))
        {
            *status = RunStatus::Degraded;
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktg_common::VertexId;
    use ktg_core::fixtures;

    /// Starts a figure-1 server and returns (handle, a connected
    /// line-framed client).
    fn boot(
        options: ServeOptions,
        conn_deadline_ms: Option<u64>,
    ) -> (ServerHandle, LineReader<TcpStream>, TcpStream) {
        let cfg = ServeConfig { workers: 2, conn_deadline_ms, options, ..ServeConfig::default() };
        let handle = start(fixtures::figure1(), cfg).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let writer = stream.try_clone().unwrap();
        (handle, LineReader::new(stream, READER_CAP * 16), writer)
    }

    fn request(
        reader: &mut LineReader<TcpStream>,
        writer: &mut TcpStream,
        line: &str,
    ) -> Vec<String> {
        write_line(writer, line).unwrap();
        writer.flush().unwrap();
        let mut block = Vec::new();
        loop {
            match reader.read_frame().unwrap() {
                Frame::Line(l) if l == "." => return block,
                Frame::Line(l) => block.push(l),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    const PAPER_QUERY: &str = "ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=2";

    /// `/stats` `inflight` reports the queries executing, not a
    /// constant 0.
    #[test]
    fn unbounded_gauge_counts_admitted_queries() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        assert!(handle.shared.try_admit());
        let block = request(&mut reader, &mut writer, "/stats");
        assert!(block[0].contains("\"inflight\":1,"), "{block:?}");
        handle.shared.release_admission();
        let block = request(&mut reader, &mut writer, "/stats");
        assert!(block[0].contains("\"inflight\":0,"), "{block:?}");
        handle.shutdown();
        handle.join().unwrap();
    }

    /// TCP responses are the batch renderer's bytes for the same item.
    #[test]
    fn responses_match_batch_rendering() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts.clone(), None);
        let block = request(&mut reader, &mut writer, PAPER_QUERY);
        // Reference: the same item through ServeSession + write_outcome.
        let mut session = ServeSession::new(fixtures::figure1(), opts);
        let items =
            ktg_core::serve::parse_workload(PAPER_QUERY, session.net()).unwrap();
        let outcome = &session.run(&items)[0];
        let mut expect = Vec::new();
        write_outcome(&mut expect, 1, outcome, 0).unwrap();
        let expect: Vec<String> =
            String::from_utf8(expect).unwrap().lines().map(String::from).collect();
        assert_eq!(block, expect);
        // Repeat: second response is the cached rendering, numbered 2.
        let repeat = request(&mut reader, &mut writer, PAPER_QUERY);
        assert!(repeat[0].starts_with("[2] ktg:"), "{repeat:?}");
        assert!(repeat[0].contains("[cached]"), "{repeat:?}");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn updates_comments_and_errors_flow_through() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        assert_eq!(request(&mut reader, &mut writer, "# warmup"), Vec::<String>::new());
        assert_eq!(request(&mut reader, &mut writer, ""), Vec::<String>::new());
        let block = request(&mut reader, &mut writer, "insert 0 5");
        assert_eq!(block, vec!["[1] update: applied".to_string()]);
        let block = request(&mut reader, &mut writer, "insert 0 5");
        assert_eq!(block, vec!["[2] update: no-op".to_string()]);
        // Parse errors respond in-band and do not consume an item slot.
        let block = request(&mut reader, &mut writer, "bogus line");
        assert!(block[0].starts_with("error: invalid input: workload line 3:"), "{block:?}");
        let block = request(&mut reader, &mut writer, "remove 0 5");
        assert_eq!(block, vec!["[3] update: applied".to_string()]);
        // CRLF framing parses (the network client case behind the
        // workload parser's `\r` handling).
        let block = request(&mut reader, &mut writer, "insert 0 5\r");
        assert_eq!(block, vec!["[4] update: applied".to_string()]);
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn stats_drain_resume_and_shutdown_controls() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        let answered = request(&mut reader, &mut writer, PAPER_QUERY);
        assert!(answered[0].starts_with("[1] ktg:"), "{answered:?}");
        // Drain: queries shed with an overloaded line that names the
        // drain; updates still apply (dropping them would fork the graph
        // state).
        let block = request(&mut reader, &mut writer, "/drain");
        assert!(block[0].starts_with("draining"), "{block:?}");
        let shed = request(&mut reader, &mut writer, PAPER_QUERY);
        assert_eq!(
            shed,
            vec!["[2] overloaded: shed while draining, until /resume".to_string()]
        );
        let upd = request(&mut reader, &mut writer, "insert 0 5");
        assert_eq!(upd, vec!["[3] update: applied".to_string()]);
        let block = request(&mut reader, &mut writer, "/resume");
        assert!(block[0].starts_with("resumed"), "{block:?}");
        let answered = request(&mut reader, &mut writer, PAPER_QUERY);
        assert!(answered[0].starts_with("[4] ktg:"), "{answered:?}");
        // Stats: one `stats: {json}` line with every advertised field.
        let block = request(&mut reader, &mut writer, "/stats");
        assert_eq!(block.len(), 1);
        let line = &block[0];
        for field in [
            "\"requests\":", "\"degraded\":", "\"overloaded\":1", "\"failed\":",
            "\"write_failures\":0",
            "\"result_hits\":", "\"result_misses\":", "\"result_reclaimed\":1",
            "\"row_hits\":", "\"row_misses\":", "\"row_evictions\":", "\"row_reclaimed\":2",
            "\"epoch\":1",
            "\"inflight\":0",
            "\"latency_samples\":", "\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
        assert!(!line.contains("subset_hits"), "retired field still reported: {line}");
        // Unknown control lines are in-band errors, not disconnects.
        let block = request(&mut reader, &mut writer, "/nope");
        assert!(block[0].starts_with("error: unknown control"), "{block:?}");
        // Shutdown acknowledges, then the server exits.
        let block = request(&mut reader, &mut writer, "/shutdown");
        assert_eq!(block, vec!["shutting down".to_string()]);
        handle.join().unwrap();
    }

    /// A huge `N` is answered in a response block without sizing any
    /// allocation by `N` (an allocation failure aborts the whole server,
    /// past any `catch_unwind`), and the connection keeps serving.
    #[test]
    fn huge_result_count_is_answered_and_the_connection_survives() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        let block =
            request(&mut reader, &mut writer, "ktg terms=SN,QP,DQ,GQ,GD p=3 k=1 n=1000000000000");
        assert!(block[0].starts_with("[1] ktg:"), "{block:?}");
        let block = request(&mut reader, &mut writer, PAPER_QUERY);
        assert!(block[0].starts_with("[2] ktg:"), "{block:?}");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn connection_deadline_closes_with_an_error_line() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        // Deadline 0: expired before the first request completes the
        // poll — deterministic without sleeping.
        let (handle, mut reader, mut writer) = boot(opts, Some(0));
        // The server may answer the expired deadline and close before
        // this request lands, so the write itself may fail (EPIPE): the
        // in-band error line is what this test checks.
        let _ = write_line(&mut writer, PAPER_QUERY);
        let _ = writer.flush();
        // The handler may serve the first request before its next
        // deadline poll, but must emit the deadline error and close
        // within a frame or two.
        let mut saw_deadline = false;
        loop {
            match reader.read_frame() {
                Ok(Frame::Line(line)) => {
                    if line == "error: connection deadline exceeded" {
                        saw_deadline = true;
                    }
                }
                Ok(Frame::Eof) => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
        }
        assert!(saw_deadline, "deadline expiry must be reported in-band");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_connections_share_the_session_cache() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        let first = request(&mut reader, &mut writer, PAPER_QUERY);
        assert!(!first[0].contains("[cached]"));
        // A *second* connection hits the entry the first one warmed.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut w2 = stream.try_clone().unwrap();
        let mut r2 = LineReader::new(stream, READER_CAP * 16);
        let second = request(&mut r2, &mut w2, PAPER_QUERY);
        assert!(second[0].contains("[cached]"), "{second:?}");
        handle.shutdown();
        handle.join().unwrap();
    }

    // -- mode flags -------------------------------------------------------

    /// Runs `ktg serve PARTS…` through the real parser and dispatch; every
    /// case below fails before it loads a network or opens a socket.
    fn assert_rejected(parts: &[&str], flag: &str) {
        let argv: Vec<String> =
            std::iter::once("serve").chain(parts.iter().copied()).map(String::from).collect();
        let args = crate::args::parse(&argv).unwrap();
        match serve_cmd(&args, &mut Vec::new()) {
            Err(KtgError::InvalidInput(msg)) => assert!(msg.contains(flag), "{parts:?}: {msg}"),
            other => panic!("{parts:?} should be rejected, got {other:?}"),
        }
    }

    #[test]
    fn the_server_rejects_client_flags() {
        for flag in ["--workload", "--retry", "--retry-base-ms"] {
            assert_rejected(&["--edges", "e.txt", "--threads", "1", flag, "1"], flag);
        }
        for flag in ["--stats", "--shutdown"] {
            assert_rejected(&["--bundle", "b.ktgb", flag], flag);
        }
    }

    #[test]
    fn the_client_rejects_server_session_and_network_flags() {
        for flag in [
            "--edges", "--keywords", "--bundle", "--threads", "--cache-entries",
            "--deadline-ms", "--node-budget", "--bind", "--workers", "--conn-deadline-ms",
            "--wal", "--wal-sync", "--checkpoint-every",
        ] {
            assert_rejected(&["--connect", "127.0.0.1:9", flag, "1"], flag);
        }
        assert_rejected(&["--connect", "127.0.0.1:9", "--no-cache"], "--no-cache");
    }

    #[test]
    fn wal_flags_without_a_wal_are_rejected() {
        assert_rejected(&["--edges", "e.txt", "--wal-sync", "bogus"], "--wal-sync");
        assert_rejected(&["--edges", "e.txt", "--checkpoint-every", "3"], "--checkpoint-every");
    }

    #[test]
    fn automatic_checkpoints_without_a_bundle_are_rejected() {
        assert_rejected(
            &["--edges", "e.txt", "--wal", "w.wal", "--checkpoint-every", "1"],
            "--checkpoint-every",
        );
    }

    // -- durability ---------------------------------------------------------

    /// A per-test scratch directory, removed with its contents on drop.
    struct WalDir(PathBuf);

    impl std::ops::Deref for WalDir {
        type Target = std::path::Path;

        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for WalDir {
        fn drop(&mut self) {
            drop(std::fs::remove_dir_all(&self.0));
        }
    }

    /// Fresh per-test scratch directory under the system temp dir.
    fn wal_dir(tag: &str) -> WalDir {
        let dir =
            std::env::temp_dir().join(format!("ktg-serve-{tag}-{}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        std::fs::create_dir_all(&dir).unwrap();
        WalDir(dir)
    }

    fn wal_cfg(path: PathBuf) -> WalConfig {
        WalConfig { path, sync: WalSync::Always, checkpoint_every: 0, bundle: None }
    }

    /// Starts a figure-1 server with a WAL attached.
    fn boot_wal(wal: WalConfig) -> (ServerHandle, LineReader<TcpStream>, TcpStream) {
        let cfg = ServeConfig {
            workers: 2,
            options: ServeOptions { threads: 1, ..ServeOptions::default() },
            wal: Some(wal),
            ..ServeConfig::default()
        };
        let handle = start(fixtures::figure1(), cfg).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let writer = stream.try_clone().unwrap();
        (handle, LineReader::new(stream, READER_CAP * 16), writer)
    }

    /// Serializes tests that arm the process-global fault registry.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Updates are logged (queries and parse errors are not), and a
    /// fresh server over the same log replays them to the identical
    /// session state before answering in-band requests.
    #[test]
    fn wal_recovery_replays_updates() {
        let dir = wal_dir("recover");
        let wal = dir.join("updates.wal");
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        assert_eq!(
            request(&mut reader, &mut writer, "insert 0 5"),
            vec!["[1] update: applied".to_string()]
        );
        assert_eq!(
            request(&mut reader, &mut writer, "remove 0 5"),
            vec!["[2] update: applied".to_string()]
        );
        assert_eq!(
            request(&mut reader, &mut writer, "insert 0 5"),
            vec!["[3] update: applied".to_string()]
        );
        // Neither queries nor parse errors consume a log sequence slot.
        request(&mut reader, &mut writer, PAPER_QUERY);
        request(&mut reader, &mut writer, "bogus line");
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"state\":\"serving\""), "{health:?}");
        assert!(health[0].contains("\"wal_seq\":3"), "{health:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();

        // Restart: a pristine figure-1 net + the surviving log.
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal));
        assert_eq!(
            handle.recovered(),
            Some(RecoveryInfo { replayed: 3, torn_tail: false })
        );
        // The replayed insert left edge 0-5 present.
        assert_eq!(
            request(&mut reader, &mut writer, "insert 0 5"),
            vec!["[1] update: no-op".to_string()]
        );
        // Sequence numbering continued past the replayed records.
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"wal_seq\":4"), "{health:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
    }

    /// A crash mid-append leaves a prefix of the final record; recovery
    /// drops it, truncates the file back, and reports the torn tail.
    #[test]
    fn torn_wal_tail_recovers_with_truncation() {
        let dir = wal_dir("torn");
        let wal = dir.join("updates.wal");
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        request(&mut reader, &mut writer, "insert 0 5");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        let clean_len = std::fs::metadata(&wal).unwrap().len();
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[24, 0, 0, 0, 7, 7, 7]).unwrap();
        drop(f);
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        assert_eq!(
            handle.recovered(),
            Some(RecoveryInfo { replayed: 1, torn_tail: true })
        );
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), clean_len);
        assert_eq!(
            request(&mut reader, &mut writer, "insert 0 5"),
            vec!["[1] update: no-op".to_string()]
        );
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
    }

    /// Damage *before* the tail cannot be a crash artifact: startup
    /// refuses with a typed error instead of truncating or panicking.
    #[test]
    fn corrupt_wal_is_a_typed_startup_error() {
        let dir = wal_dir("corrupt");
        let wal = dir.join("updates.wal");
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        request(&mut reader, &mut writer, "insert 0 5");
        request(&mut reader, &mut writer, "remove 0 5");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        // Flip one payload byte inside the first record.
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[20 + 4 + 8] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
        let cfg = ServeConfig {
            workers: 2,
            options: ServeOptions { threads: 1, ..ServeOptions::default() },
            wal: Some(wal_cfg(wal)),
            ..ServeConfig::default()
        };
        match start(fixtures::figure1(), cfg) {
            Err(KtgError::InvalidInput(_)) => {}
            Err(other) => panic!("expected a typed input error, got {other}"),
            Ok(_) => panic!("corrupt wal must fail startup"),
        }
    }

    /// A self-loop update is a parse error: answered in-band, never
    /// logged, so it cannot reach a replay.
    #[test]
    fn self_loop_update_is_refused_and_never_logged() {
        let dir = wal_dir("self-loop");
        let wal = dir.join("updates.wal");
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        let block = request(&mut reader, &mut writer, "insert 3 3");
        assert_eq!(
            block,
            vec!["error: invalid input: workload line 1: self-loop at vertex 3".to_string()]
        );
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"wal_seq\":0"), "{health:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        assert!(ktg_index::wal::replay(&wal).unwrap().records.is_empty());
    }

    /// A restarted server replays its log before it binds, so the very
    /// first line on its first connection already sees every replayed
    /// update: `/health` reports `serving` at epoch 3 without polling,
    /// and a `/checkpoint` saves all three edges before it truncates.
    #[test]
    fn restart_replays_the_log_before_accepting() {
        let dir = wal_dir("restart");
        let wal = dir.join("updates.wal");
        let bundle = dir.join("net.bundle");
        let cfg = WalConfig { bundle: Some(bundle.clone()), ..wal_cfg(wal) };
        let inserts = [(0, 5), (1, 2), (10, 11)];
        let (handle, mut reader, mut writer) = boot_wal(cfg.clone());
        for (u, v) in inserts {
            let block = request(&mut reader, &mut writer, &format!("insert {u} {v}"));
            assert!(block[0].ends_with("update: applied"), "{block:?}");
        }
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();

        let (handle, mut reader, mut writer) = boot_wal(cfg.clone());
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"state\":\"serving\",\"epoch\":3,"), "{health:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();

        let (handle, mut reader, mut writer) = boot_wal(cfg);
        let block = request(&mut reader, &mut writer, "/checkpoint");
        assert!(block[0].starts_with("checkpointed: bundle rewritten at seq 3"), "{block:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        let loaded =
            ktg_index::persist::load_bundle(std::fs::File::open(&bundle).unwrap()).unwrap();
        for (u, v) in inserts {
            assert!(loaded.graph.has_edge(VertexId(u), VertexId(v)), "edge {u}-{v} lost");
        }
    }

    /// Connections beyond the busy workers wait in the listen backlog
    /// and are served once a worker frees up; a shutdown with a
    /// connection still queued there joins all the same.
    #[test]
    fn connections_beyond_the_workers_wait_in_the_backlog() {
        let cfg = ServeConfig {
            workers: 2,
            options: ServeOptions { threads: 1, ..ServeOptions::default() },
            ..ServeConfig::default()
        };
        let handle = start(fixtures::figure1(), cfg).unwrap();
        // A generous read timeout turns a wrongly served order into a
        // failure instead of a hang.
        let patience = Some(Duration::from_secs(20));
        let mut conns: Vec<(LineReader<TcpStream>, TcpStream)> = (0..4)
            .map(|_| {
                let stream = TcpStream::connect(handle.addr()).unwrap();
                stream.set_read_timeout(patience).unwrap();
                let mut writer = stream.try_clone().unwrap();
                write_line(&mut writer, PAPER_QUERY).unwrap();
                writer.flush().unwrap();
                (LineReader::new(stream, READER_CAP * 16), writer)
            })
            .collect();
        let first_line = |reader: &mut LineReader<TcpStream>| match reader.read_frame() {
            Ok(Frame::Line(line)) => line,
            other => panic!("unexpected frame {other:?}"),
        };
        let mut waiting = conns.split_off(2);
        for (reader, _) in &mut conns {
            assert!(first_line(reader).starts_with("[1] ktg:"));
        }
        // Both workers are held by the first two connections, so the
        // third waits unanswered until one of them closes.
        waiting[0].0.get_ref().set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        assert!(waiting[0].0.read_frame().is_err(), "a third connection was served early");
        waiting[0].0.get_ref().set_read_timeout(patience).unwrap();
        drop(conns);
        for (reader, _) in &mut waiting {
            assert!(first_line(reader).starts_with("[1] ktg:"));
        }
        let _queued = TcpStream::connect(handle.addr()).unwrap();
        handle.shutdown();
        handle.join().unwrap();
    }

    /// `/checkpoint` rewrites the bundle and truncates the log; a
    /// restart from the bundle alone carries the checkpointed state,
    /// and sequence numbering continues from the checkpoint.
    #[test]
    fn checkpoint_rewrites_bundle_and_truncates_log() {
        let dir = wal_dir("checkpoint");
        let wal = dir.join("updates.wal");
        let bundle = dir.join("net.bundle");
        let cfg = WalConfig {
            path: wal.clone(),
            sync: WalSync::Always,
            checkpoint_every: 0,
            bundle: Some(bundle.clone()),
        };
        let (handle, mut reader, mut writer) = boot_wal(cfg.clone());
        request(&mut reader, &mut writer, "insert 0 5");
        let block = request(&mut reader, &mut writer, "/checkpoint");
        assert!(block[0].starts_with("checkpointed:"), "{block:?}");
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"wal_seq\":1"), "{health:?}");
        assert!(health[0].contains("\"checkpoint_seq\":1"), "{health:?}");
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        assert!(bundle.exists());
        assert!(!dir.join("net.bundle.tmp").exists());

        // The truncated log holds nothing to replay; the bundle holds
        // the update.
        let loaded =
            ktg_index::persist::load_bundle(std::fs::File::open(&bundle).unwrap())
                .unwrap();
        let net =
            AttributedGraph::new(loaded.graph, loaded.vocab, loaded.keywords);
        let cfg2 = ServeConfig {
            workers: 2,
            options: ServeOptions { threads: 1, ..ServeOptions::default() },
            wal: Some(cfg),
            ..ServeConfig::default()
        };
        let handle = start(net, cfg2).unwrap();
        assert_eq!(
            handle.recovered(),
            Some(RecoveryInfo { replayed: 0, torn_tail: false })
        );
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut w2 = stream.try_clone().unwrap();
        let mut r2 = LineReader::new(stream, READER_CAP * 16);
        assert_eq!(
            request(&mut r2, &mut w2, "insert 0 5"),
            vec!["[1] update: no-op".to_string()]
        );
        let health = request(&mut r2, &mut w2, "/health");
        assert!(health[0].contains("\"wal_seq\":2"), "{health:?}");
        request(&mut r2, &mut w2, "/shutdown");
        handle.join().unwrap();
    }

    /// `/health` renders the flat one-line JSON and tracks the drain
    /// state; `/checkpoint` without `--wal` is an in-band error.
    #[test]
    fn health_line_states_and_checkpoint_guard() {
        let opts = ServeOptions { threads: 1, ..ServeOptions::default() };
        let (handle, mut reader, mut writer) = boot(opts, None);
        let health = request(&mut reader, &mut writer, "/health");
        assert_eq!(
            health,
            vec![
                r#"health: {"state":"serving","epoch":0,"wal_seq":0,"checkpoint_seq":0}"#
                    .to_string()
            ]
        );
        let block = request(&mut reader, &mut writer, "/checkpoint");
        assert!(block[0].starts_with("error: checkpoint requires"), "{block:?}");
        request(&mut reader, &mut writer, "/drain");
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"state\":\"draining\""), "{health:?}");
        request(&mut reader, &mut writer, "/resume");
        let health = request(&mut reader, &mut writer, "/health");
        assert!(health[0].contains("\"state\":\"serving\""), "{health:?}");
        handle.shutdown();
        handle.join().unwrap();
    }

    /// Write errors on the response path are counted, never dropped.
    #[test]
    fn response_write_errors_are_counted() {
        struct Refuse;
        impl Write for Refuse {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "refused"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let stats = ServerStats::new();
        assert!(matches!(respond(&stats, &mut Refuse, &["x"]), LineOutcome::Close));
        assert_eq!(stats.write_failures.load(Ordering::Relaxed), 1);
    }

    /// Every latency lies less than 1/8 of itself below its bucket's
    /// top, so the histogram's percentiles read at most 1/8 above the
    /// exact nearest-rank values.
    #[test]
    fn latency_histogram_reads_high_by_less_than_an_eighth() {
        let mut rng = SplitMix64::new(7);
        let mut values: Vec<u64> = (0..4096).chain([1 << 63, u64::MAX]).collect();
        values.extend((0..10_000).map(|_| rng.next_u64() >> (rng.next_u64() % 64)));
        for &v in &values {
            let bucket = latency_bucket(v);
            let top = latency_bucket_top(bucket);
            assert!(top >= v && (top - v) * 8 <= v, "{v}: bucket {bucket}, top {top}");
            assert_eq!(latency_bucket(top), bucket);
            if top < u64::MAX {
                assert_eq!(latency_bucket(top + 1), bucket + 1, "buckets must tile");
            }
        }
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        let stats = ServerStats::new();
        assert_eq!(stats.percentiles(), (0, 0, 0, 0));
        let mut samples: Vec<u64> =
            (0..1000).map(|_| 1_000 + rng.next_u64() % 50_000_000).collect();
        for &ns in &samples {
            stats.record(ns, &ItemOutcome::Update { applied: true });
        }
        samples.sort_unstable();
        let (n, p50, p95, p99) = stats.percentiles();
        assert_eq!(n, 1000);
        for (p, got) in [(50, p50), (95, p95), (99, p99)] {
            // Nearest rank of 1,000 samples: the (10 p)-th smallest.
            let exact = samples[10 * p - 1];
            assert!(got >= exact && (got - exact) * 8 <= exact, "p{p}: {got} vs {exact}");
        }
    }

    /// The retrying client survives a server that is not up yet: it
    /// backs off deterministically, polls `/health`, reconnects, and
    /// completes the whole script once the server appears. (The wire
    /// equivalent of `--connect ... --retry N` racing a restart.)
    #[test]
    fn client_retries_until_the_server_appears() {
        // Reserve a loopback port, then free it for the real server.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let steps: Vec<String> =
            ["insert 0 5", "/health", "/shutdown"].map(String::from).to_vec();
        let client_addr = addr.clone();
        let client = std::thread::spawn(move || {
            let mut out = Vec::new();
            let status = client_replay(&client_addr, &steps, 30, 5, &mut out);
            (status, String::from_utf8(out).unwrap())
        });
        // Let the client burn at least one connect-refused attempt.
        std::thread::sleep(Duration::from_millis(30));
        let cfg = ServeConfig {
            bind: addr,
            workers: 2,
            options: ServeOptions { threads: 1, ..ServeOptions::default() },
            ..ServeConfig::default()
        };
        let handle = start(fixtures::figure1(), cfg).unwrap();
        let (status, out) = client.join().unwrap();
        assert!(matches!(status, Ok(RunStatus::Complete)), "{status:?}: {out}");
        assert!(out.contains("retry: attempt 1/30"), "no retry recorded: {out}");
        assert!(out.contains("[1] update: applied"), "{out}");
        assert!(out.contains("\"state\":\"serving\""), "{out}");
        assert!(out.contains("shutting down"), "{out}");
        handle.join().unwrap();
    }

    /// A connection that closes mid-block and answers in full on the
    /// reconnect: the retrying client prints only the whole block, and
    /// the cut-off block's `[degraded(..)]` marker does not count.
    #[test]
    fn client_retry_prints_only_whole_blocks() {
        const QUERY: &str = "ktg terms=SN,QP p=3 k=1 n=1";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut queries = 0;
            while queries < 2 {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = LineReader::new(stream, READER_CAP);
                let Frame::Line(line) = reader.read_frame().unwrap() else {
                    continue;
                };
                let reply: &[&str] = if line == "/health" {
                    &[r#"health: {"state":"serving"}"#, "."]
                } else {
                    queries += 1;
                    assert_eq!(line, QUERY);
                    if queries == 1 {
                        // Half a block, then the connection drops.
                        &["[1] ktg: 1 groups [degraded(deadline)]"]
                    } else {
                        &["[1] ktg: 1 groups", "    #1: [0, 1, 2] — QKC 2", "."]
                    }
                };
                for reply_line in reply {
                    write_line(&mut writer, reply_line).unwrap();
                }
                writer.flush().unwrap();
            }
        });
        let mut out = Vec::new();
        let status = client_replay(&addr, &[QUERY.to_string()], 3, 1, &mut out);
        server.join().unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(matches!(status, Ok(RunStatus::Complete)), "{status:?}: {out}");
        assert_eq!(out.matches("[1] ktg:").count(), 1, "{out}");
        assert!(!out.contains("[degraded("), "{out}");
        assert!(out.contains("retry: attempt 1/3"), "{out}");
        assert!(out.ends_with("[1] ktg: 1 groups\n    #1: [0, 1, 2] — QKC 2\n"), "{out}");
    }

    /// An injected `wal` fault is absorbed by the append's retry: the
    /// update still lands in both the log and the session.
    #[test]
    fn injected_wal_fault_is_retried() {
        let _guard = fault_lock();
        let dir = wal_dir("fault");
        let wal = dir.join("updates.wal");
        fault::set_config(Some(fault::FaultConfig::new(&[FaultSite::WalAppend], 1.0, 7)));
        let (handle, mut reader, mut writer) = boot_wal(wal_cfg(wal.clone()));
        let block = request(&mut reader, &mut writer, "insert 0 5");
        fault::set_config(None);
        assert_eq!(block, vec!["[1] update: applied".to_string()]);
        request(&mut reader, &mut writer, "/shutdown");
        handle.join().unwrap();
        // The retried append produced one well-formed record.
        let replayed = ktg_index::wal::replay(&wal).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].line, "insert 0 5");
        assert!(!replayed.torn_tail);
    }
}
