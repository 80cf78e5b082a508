#!/usr/bin/env bash
# Offline CI gate for the ktg workspace.
#
# The build must succeed with no network, no registry cache, and no
# warnings; the in-tree static analysis pass (ktg-lint) must report no
# findings; and a release-mode smoke query must pass the checked-mode
# result verifier (KTG_VERIFY=1).
# Run from anywhere; operates on the repo root.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

export RUSTFLAGS="-D warnings"

# Helpers shared by the server smokes below.
#
# Renumbers `[N] ` response prefixes with one global counter, so output
# from several connections compares against one batch run.
renumber() {
    awk '{ if (match($0, /^\[[0-9]+\] /)) { n++; sub(/^\[[0-9]+\] /, "[" n "] ") } print }' "$1"
}
# Scrapes the `serving on HOST:PORT` line from a background server log.
# A server prints it only once it listens, after any WAL replay.
scrape_addr() {
    local log="$1" pid="$2" found=""
    for _ in $(seq 1 150); do
        found="$(sed -n 's/^serving on \([^ ]*\).*/\1/p' "$log" | head -n1)"
        [ -n "$found" ] && { echo "$found"; return 0; }
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: server exited before binding; log:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.2
    done
    echo "FAIL: server never reported its bound address; log:" >&2
    cat "$log" >&2
    return 1
}
# Polls /health over /dev/tcp until the server answers `serving`; a
# refused connect (a server still replaying its WAL) is retried.
await_serving() {
    local host="${1%%:*}" port="${1##*:}" line=""
    for _ in $(seq 1 150); do
        if exec 3<>"/dev/tcp/$host/$port" 2>/dev/null; then
            printf '/health\n' >&3
            read -r -t 2 line <&3 || true
            exec 3>&- 3<&-
            case "$line" in *'"state":"serving"'*) return 0 ;; esac
        fi
        sleep 0.2
    done
    echo "FAIL: server never reached the serving state (last health: $line)" >&2
    return 1
}
# Waits up to 150 x 0.2 s for every PID given to exit; fails if one
# still runs.
await_exit() {
    local pid running
    for _ in $(seq 1 150); do
        running=0
        for pid in "$@"; do
            if kill -0 "$pid" 2>/dev/null; then running=1; fi
        done
        [ "$running" -eq 0 ] && return 0
        sleep 0.2
    done
    return 1
}

echo "== offline release build (deny warnings) =="
cargo build --release --offline

echo "== perfbench builds against the current crates =="
# The benchmark driver (perfbench/, its own workspace) compiles these
# crates by path, so a crate-API change that breaks it fails here rather
# than in a benchmark run. Same command and target directory as
# perfbench/run.py, which does not set RUSTFLAGS.
env -u RUSTFLAGS CARGO_TARGET_DIR=.bench_build \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== offline test suite (leaves no ktg-* temp entry behind) =="
# The suite runs with TMPDIR (which std::env::temp_dir reads) set to a
# fresh directory, so a test that leaves a `ktg-*` file or directory
# behind fails the gate. Other entries, such as rustc's own, are ignored.
test_tmp="$(mktemp -d)"
TMPDIR="$test_tmp" cargo test -q --offline
leaked="$(find "$test_tmp" -mindepth 1 -maxdepth 1 -name 'ktg-*')"
if [ -n "$leaked" ]; then
    echo "FAIL: the test suite left temp entries behind:" >&2
    echo "$leaked" >&2
    exit 1
fi
rm -rf "$test_tmp"

echo "== parallel differential gate (KTG_THREADS=4, checked mode) =="
KTG_THREADS=4 KTG_VERIFY=1 cargo test -q --offline \
    -p ktg-integration-tests --test parallel_diff

echo "== parallel exactness gate (KTG_THREADS=4 workers vs brute force, checked mode) =="
# parallel_diff compares the engine with itself; here the threads = 0
# axis of exactness.rs runs 4 workers, where the shared floor and each
# worker's tie cut meet the brute-force reference.
KTG_THREADS=4 KTG_VERIFY=1 cargo test -q --offline \
    -p ktg-integration-tests --test exactness

echo "== serving differential gate (KTG_THREADS=4, checked mode) =="
KTG_THREADS=4 KTG_VERIFY=1 cargo test -q --offline \
    -p ktg-integration-tests --test serve_diff

echo "== network differential gate (TCP responses == batch bytes, checked mode) =="
KTG_THREADS=4 KTG_VERIFY=1 cargo test -q --offline \
    -p ktg-integration-tests --test net_diff

echo "== bb_scaling smoke (quick mode still writes JSON-lines) =="
bench_out="$(mktemp -d)"
KTG_BENCH_FAST=1 KTG_BENCH_OUT="$bench_out" \
    cargo run -q --release --offline -p ktg-bench --bin bb_scaling
bb_records="$(wc -l < "$bench_out/bb_scaling.jsonl")"
if [ "$bb_records" -lt 8 ]; then
    echo "FAIL: bb_scaling wrote $bb_records JSON-lines records, expected >= 8" >&2
    exit 1
fi

echo "== scale smoke (substrate bench: >= 6 records, bundle round-trip self-asserted) =="
# The binary asserts a clean bundle round-trip (graph, keywords and
# index all reload); the record-count check below catches a silent
# no-op run.
KTG_BENCH_FAST=1 KTG_BENCH_OUT="$bench_out" \
    cargo run -q --release --offline -p ktg-bench --bin scale
scale_records="$(wc -l < "$bench_out/scale.jsonl")"
if [ "$scale_records" -lt 6 ]; then
    echo "FAIL: scale wrote $scale_records JSON-lines records, expected >= 6" >&2
    exit 1
fi
rm -rf "$bench_out"

echo "== static analysis (ktg-lint L1-L10: any finding fails) =="
# The JSON run is both the gate and the CI artifact: ktg-lint exits 1 on
# any finding, and the report, kept for inspection, is printed when it
# does. The lint must also stay fast enough to run on every push.
lint_json="$root/target/ktg-lint.json"
mkdir -p "$root/target"
lint_start_ms="$(date +%s%3N)"
if ! cargo run -q --release --offline -p ktg-lint -- --json > "$lint_json"; then
    echo "FAIL: ktg-lint reported findings (or could not scan):" >&2
    cat "$lint_json" >&2
    exit 1
fi
lint_elapsed_ms=$(( $(date +%s%3N) - lint_start_ms ))
scan_ms="$(sed -n 's/.*"elapsed_ms": \([0-9]*\).*/\1/p' "$lint_json" | head -n1)"
if [ -z "$scan_ms" ] || [ "$scan_ms" -ge 2000 ]; then
    echo "FAIL: ktg-lint scan took ${scan_ms:-?} ms, budget is < 2000 ms" >&2
    exit 1
fi
echo "ktg-lint: pass (scan ${scan_ms} ms, wall ${lint_elapsed_ms} ms, artifact $lint_json)"

echo "== checked-mode smoke query (KTG_VERIFY=1, release) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline -p ktg-cli -- generate \
    --profile dblp --out "$tmp/data" --scale 100 --seed 7
ktg_out="$tmp/query.out"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- query \
    --edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt" \
    --random-terms 4 --p 3 --k 2 --n 3 --oracle bfs | tee "$ktg_out"
grep -q "checked mode: verified" "$ktg_out" || {
    echo "FAIL: KTG smoke query did not run the checked-mode verifier" >&2
    exit 1
}
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- dktg \
    --edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt" \
    --random-terms 4 --p 3 --k 2 --n 2 --oracle bfs | tee "$ktg_out"
grep -q "checked mode: verified" "$ktg_out" || {
    echo "FAIL: DKTG smoke query did not run the checked-mode verifier" >&2
    exit 1
}

echo "== fault-injection differential smoke (KTG_FAULTS absorbed byte-identically) =="
# Every registered fault site fires at rate 1.0; the retry-once recovery
# must absorb all of them, so stdout is byte-for-byte the clean run's.
cat > "$tmp/workload.txt" <<'EOF'
ktg terms=t0,t1,t4 p=3 k=2 n=3
dktg terms=t0,t3,t17 p=3 k=2 n=2 gamma=0.5
insert 0 9
ktg terms=t1,t5 p=3 k=1 n=2
ktg terms=t0,t1,t4 p=3 k=2 n=3
EOF
batch_flags=(--workload "$tmp/workload.txt" --edges "$tmp/data/edges.txt"
    --keywords "$tmp/data/keywords.txt" --threads 1)
cargo run -q --release --offline -p ktg-cli -- batch "${batch_flags[@]}" \
    > "$tmp/batch-clean.out"
KTG_FAULTS=all:1.0:7 cargo run -q --release --offline -p ktg-cli -- batch \
    "${batch_flags[@]}" > "$tmp/batch-fault.out"
if ! cmp -s "$tmp/batch-clean.out" "$tmp/batch-fault.out"; then
    echo "FAIL: fault-armed batch output diverged from the clean run:" >&2
    diff "$tmp/batch-clean.out" "$tmp/batch-fault.out" >&2 || true
    exit 1
fi

echo "== server smoke (ktg serve on an ephemeral port, bytes == batch, clean shutdown) =="
# Background server under checked mode; the trap kills it on any failure
# so a broken smoke can never leave an orphan process behind.
server_log="$tmp/serve.log"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- serve \
    --edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt" \
    --bind 127.0.0.1:0 --workers 2 --threads 1 > "$server_log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
addr="$(scrape_addr "$server_log" "$server_pid")"
# The same workload the fault smoke replayed through `ktg batch`: the
# client's response text must be byte-identical to the batch output
# minus the header/summary lines the server has no equivalent of.
cargo run -q --release --offline -p ktg-cli -- serve \
    --connect "$addr" --workload "$tmp/workload.txt" --stats \
    > "$tmp/serve-client.out"
grep -v '^batch: \|^served: \|^partial: ' "$tmp/batch-clean.out" > "$tmp/batch-body.out"
grep -v '^stats: ' "$tmp/serve-client.out" > "$tmp/serve-body.out"
if ! cmp -s "$tmp/batch-body.out" "$tmp/serve-body.out"; then
    echo "FAIL: TCP responses diverged from the batch rendering:" >&2
    diff "$tmp/batch-body.out" "$tmp/serve-body.out" >&2 || true
    exit 1
fi
grep -q '"p50_ns":' "$tmp/serve-client.out" || {
    echo "FAIL: /stats response did not carry latency percentiles" >&2
    exit 1
}
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" --shutdown \
    > /dev/null
await_exit "$server_pid" || {
    echo "FAIL: server still running after /shutdown (orphan would leak)" >&2
    exit 1
}
set +e
wait "$server_pid"
server_code=$?
set -e
trap 'rm -rf "$tmp"' EXIT
if [ "$server_code" -ne 0 ]; then
    echo "FAIL: server exited $server_code after /shutdown; log:" >&2
    cat "$server_log" >&2
    exit 1
fi
grep -q "server stopped" "$server_log" || {
    echo "FAIL: server did not log its clean stop line" >&2
    exit 1
}

echo "== crash-recovery smoke (WAL-backed server, kill -9, replay, bytes == batch) =="
# A WAL-backed server is SIGKILLed mid-workload; a restarted process
# must replay the log and serve the rest so that the concatenated
# client bytes equal an uninterrupted `ktg batch` run of the whole
# workload. Response numbering is per-connection (the post-crash
# connection restarts at [1]), so both sides are renumbered with one
# global counter before the compare; `--no-cache` everywhere keeps the
# recovered server's necessarily-cold cache out of the bytes.
# Edges (1,2) and (0,5) are absent from the seed-7 dblp graph, so both
# pre-crash inserts genuinely mutate state — and `remove 1 2` after the
# restart renders `applied` only if the first insert survived the
# SIGKILL, making the byte compare a durability proof.
cat > "$tmp/crash-workload.txt" <<'EOF'
ktg terms=t0,t1,t4 p=3 k=2 n=3
insert 1 2
dktg terms=t0,t3,t17 p=3 k=2 n=2 gamma=0.5
insert 0 5
ktg terms=t1,t5 p=3 k=1 n=2
remove 1 2
ktg terms=t0,t3 p=3 k=2 n=2
EOF
head -n 4 "$tmp/crash-workload.txt" > "$tmp/crash-first.txt"
tail -n 3 "$tmp/crash-workload.txt" > "$tmp/crash-second.txt"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    --workload "$tmp/crash-workload.txt" --edges "$tmp/data/edges.txt" \
    --keywords "$tmp/data/keywords.txt" --threads 1 --no-cache \
    > "$tmp/crash-batch.out"
grep -v '^batch: \|^served: \|^partial: ' "$tmp/crash-batch.out" > "$tmp/crash-ref.out"
crash_serve=(--edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt"
    --wal "$tmp/crash.wal" --bind 127.0.0.1:0 --workers 2 --threads 1 --no-cache)
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- serve \
    "${crash_serve[@]}" > "$tmp/crash-serve1.log" 2>&1 &
server_pid=$!
trap 'kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
addr="$(scrape_addr "$tmp/crash-serve1.log" "$server_pid")"
# `--retry` rides along so the smoke exercises the flag's plumbing even
# on a healthy connection.
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" \
    --workload "$tmp/crash-first.txt" --retry 3 --retry-base-ms 20 \
    > "$tmp/crash-client1.out"
# No ceremony: SIGKILL skips every destructor and flush.
kill -9 "$server_pid" 2>/dev/null
set +e
wait "$server_pid"
set -e
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- serve \
    "${crash_serve[@]}" > "$tmp/crash-serve2.log" 2>&1 &
server_pid=$!
addr="$(scrape_addr "$tmp/crash-serve2.log" "$server_pid")"
grep -q '^wal: recovered 2 updates' "$tmp/crash-serve2.log" || {
    echo "FAIL: restarted server did not report WAL recovery; log:" >&2
    cat "$tmp/crash-serve2.log" >&2
    exit 1
}
await_serving "$addr"
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" \
    --workload "$tmp/crash-second.txt" --retry 3 --retry-base-ms 20 \
    > "$tmp/crash-client2.out"
cat "$tmp/crash-client1.out" "$tmp/crash-client2.out" > "$tmp/crash-got-raw.out"
renumber "$tmp/crash-ref.out" > "$tmp/crash-ref-renum.out"
renumber "$tmp/crash-got-raw.out" > "$tmp/crash-got-renum.out"
if ! cmp -s "$tmp/crash-ref-renum.out" "$tmp/crash-got-renum.out"; then
    echo "FAIL: crashed+recovered responses diverged from the batch rendering:" >&2
    diff "$tmp/crash-ref-renum.out" "$tmp/crash-got-renum.out" >&2 || true
    exit 1
fi
# The server outlived the compare; stop it cleanly like the first smoke.
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" --shutdown \
    > /dev/null
await_exit "$server_pid" || {
    echo "FAIL: recovered server still running after /shutdown" >&2
    exit 1
}
trap 'rm -rf "$tmp"' EXIT

echo "== cache smoke (ktg batch and ktg serve: cache on beats cache off, same answers) =="
# Four cheap queries, each repeated 15 times: with the cache on, every
# repeat is one lookup instead of a search. Run through the shipped
# binary (not `cargo run`, whose start-up would blur the clock), each
# configuration must print the same answers, and the cached one must
# finish first: in process through `ktg batch`, then over loopback
# against two `ktg serve` processes, one of them `--no-cache`.
ktg_bin="$root/target/release/ktg"
for _ in $(seq 1 15); do
    cat <<'QEOF'
ktg terms=t30,t45,t60 p=3 k=2 n=3
dktg terms=t31,t47,t88 p=3 k=2 n=2 gamma=0.5
ktg terms=t40,t52 p=3 k=1 n=2
ktg terms=t33,t70,t99 p=3 k=2 n=2
QEOF
done > "$tmp/repeat-workload.txt"
repeat_input=(--edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt")
# Times one command in milliseconds; its stdout goes to file $1.
time_ms() {
    local out="$1" start end
    shift
    start="$(date +%s%N)"
    "$@" > "$out"
    end="$(date +%s%N)"
    echo $(( (end - start) / 1000000 ))
}
batch_on_ms="$(time_ms "$tmp/batch-on.out" "$ktg_bin" batch \
    --workload "$tmp/repeat-workload.txt" "${repeat_input[@]}" --threads 1)"
batch_off_ms="$(time_ms "$tmp/batch-off.out" "$ktg_bin" batch \
    --workload "$tmp/repeat-workload.txt" "${repeat_input[@]}" --threads 1 --no-cache)"
echo "ktg batch --threads 1: cache on ${batch_on_ms} ms, cache off ${batch_off_ms} ms"
grep -v '^batch: \|^served: ' "$tmp/batch-on.out" > "$tmp/batch-on-body.out"
grep -v '^batch: \|^served: ' "$tmp/batch-off.out" > "$tmp/batch-off-body.out"
grep -q ' \[cached\]' "$tmp/batch-on-body.out" || {
    echo "FAIL: the cache-on batch answered no repeat from the cache" >&2
    exit 1
}
if ! cmp -s <(sed 's/ \[cached\]//' "$tmp/batch-on-body.out") "$tmp/batch-off-body.out"; then
    echo "FAIL: cache-on and cache-off batch answers differ:" >&2
    diff <(sed 's/ \[cached\]//' "$tmp/batch-on-body.out") "$tmp/batch-off-body.out" >&2 || true
    exit 1
fi
if [ "$batch_on_ms" -ge "$batch_off_ms" ]; then
    echo "FAIL: ktg batch with the cache on (${batch_on_ms} ms) did not beat --no-cache (${batch_off_ms} ms)" >&2
    exit 1
fi
cores="$(nproc)"
if [ "$cores" -ge 4 ]; then
    batch_off4_ms="$(time_ms "$tmp/batch-off4.out" "$ktg_bin" batch \
        --workload "$tmp/repeat-workload.txt" "${repeat_input[@]}" --threads 4 --no-cache)"
    echo "ktg batch --no-cache: ${batch_off_ms} ms at 1 thread, ${batch_off4_ms} ms at 4"
    if [ "$batch_off4_ms" -ge "$batch_off_ms" ]; then
        echo "FAIL: 4 threads (${batch_off4_ms} ms) did not beat 1 (${batch_off_ms} ms) with the cache off" >&2
        exit 1
    fi
else
    echo "thread-scaling check skipped: $cores hardware thread(s), a 4-thread win needs 4"
fi
cache_serve=("${repeat_input[@]}" --bind 127.0.0.1:0 --workers 2 --threads 1)
"$ktg_bin" serve "${cache_serve[@]}" > "$tmp/cache-on-serve.log" 2>&1 &
on_pid=$!
"$ktg_bin" serve "${cache_serve[@]}" --no-cache > "$tmp/cache-off-serve.log" 2>&1 &
off_pid=$!
trap 'kill "$on_pid" "$off_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
on_addr="$(scrape_addr "$tmp/cache-on-serve.log" "$on_pid")"
off_addr="$(scrape_addr "$tmp/cache-off-serve.log" "$off_pid")"
serve_on_ms="$(time_ms "$tmp/serve-on.out" "$ktg_bin" serve --connect "$on_addr" \
    --workload "$tmp/repeat-workload.txt" --stats)"
serve_off_ms="$(time_ms "$tmp/serve-off.out" "$ktg_bin" serve --connect "$off_addr" \
    --workload "$tmp/repeat-workload.txt" --stats)"
on_p50="$(sed -n 's/^stats: .*"p50_ns":\([0-9]*\).*/\1/p' "$tmp/serve-on.out")"
off_p50="$(sed -n 's/^stats: .*"p50_ns":\([0-9]*\).*/\1/p' "$tmp/serve-off.out")"
echo "ktg serve replay: cache on ${serve_on_ms} ms (p50 ${on_p50:-?} ns), cache off ${serve_off_ms} ms (p50 ${off_p50:-?} ns)"
# One sequential connection hits the cache exactly where the
# single-threaded batch did, so each body is its batch twin's bytes.
for mode in on off; do
    if ! cmp -s <(grep -v '^stats: ' "$tmp/serve-$mode.out") "$tmp/batch-$mode-body.out"; then
        echo "FAIL: cache-$mode TCP responses diverged from the cache-$mode batch answers:" >&2
        diff <(grep -v '^stats: ' "$tmp/serve-$mode.out") "$tmp/batch-$mode-body.out" >&2 || true
        exit 1
    fi
done
if [ "$serve_on_ms" -ge "$serve_off_ms" ]; then
    echo "FAIL: the cache-on server replay (${serve_on_ms} ms) did not beat --no-cache (${serve_off_ms} ms)" >&2
    exit 1
fi
if [ -z "$on_p50" ] || [ -z "$off_p50" ] || [ "$on_p50" -ge "$off_p50" ]; then
    echo "FAIL: cache-on /stats p50 (${on_p50:-?} ns) is not below cache-off (${off_p50:-?} ns)" >&2
    exit 1
fi
for addr in "$on_addr" "$off_addr"; do
    "$ktg_bin" serve --connect "$addr" --shutdown > /dev/null
done
await_exit "$on_pid" "$off_pid" || {
    echo "FAIL: a cache-smoke server still runs after /shutdown" >&2
    exit 1
}
trap 'rm -rf "$tmp"' EXIT

echo "== tight-budget degraded smoke (exit 3, flagged status, verifier clean) =="
# A one-node budget forces a best-so-far answer: the binary must exit 3
# (degraded, not an error), say so on stdout, and still pass the
# checked-mode verifier on whatever it returned.
deg_out="$tmp/degraded.out"
set +e
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- query \
    --edges "$tmp/data/edges.txt" --keywords "$tmp/data/keywords.txt" \
    --terms t0,t1,t4 --p 3 --k 2 --n 3 --oracle bfs --node-budget 1 \
    > "$deg_out"
deg_code=$?
set -e
if [ "$deg_code" -ne 3 ]; then
    echo "FAIL: tight-budget query exited $deg_code, expected 3 (degraded)" >&2
    exit 1
fi
grep -q "status: degraded(node-budget)" "$deg_out" || {
    echo "FAIL: degraded query did not report its completion status" >&2
    exit 1
}
grep -q "checked mode: verified" "$deg_out" || {
    echo "FAIL: degraded answer skipped the checked-mode verifier" >&2
    exit 1
}

echo "== substrate scale smoke (100k-vertex chunked SBM, bundle, text == bundle bytes) =="
# The 10M story, CI-gated at 100k: the chunked generator streams a
# block-diagonal SBM (p_out 0 keeps components block-sized, so NLRNL
# construction stays linear in practice), `index --bundle` persists
# graph + keywords + a 4-thread partitioned NLRNL build, and the same
# workload must produce byte-identical output through both loading
# paths: the text files and the bundle — both under the checked-mode
# verifier. Query terms come from the Zipf tail so candidate pools stay
# small at this scale.
cargo run -q --release --offline -p ktg-cli -- generate \
    --sbm-n 100000 --sbm-blocks 1000 --sbm-pin 0.12 --sbm-pout 0.0 \
    --out "$tmp/sbm" --seed 11
cargo run -q --release --offline -p ktg-cli -- index \
    --edges "$tmp/sbm/edges.txt" --keywords "$tmp/sbm/keywords.txt" \
    --threads 4 --bundle "$tmp/sbm/net.bundle" \
    | tee "$tmp/index.out"
grep -q "bundled graph + keywords + index" "$tmp/index.out" || {
    echo "FAIL: index --bundle did not report the bundle write" >&2
    exit 1
}
cat > "$tmp/scale-workload.txt" <<'WEOF'
ktg terms=t1500,t1622 p=3 k=2 n=2
ktg terms=t1300,t1777,t1451 p=3 k=2 n=2
dktg terms=t1388,t1952 p=3 k=2 n=2 gamma=0.5
ktg terms=t1500,t1501 p=4 k=2 n=2
WEOF
scale_batch=(--workload "$tmp/scale-workload.txt" --threads 1)
text_input=(--edges "$tmp/sbm/edges.txt" --keywords "$tmp/sbm/keywords.txt")
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    "${scale_batch[@]}" "${text_input[@]}" > "$tmp/scale-text.out"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    "${scale_batch[@]}" --bundle "$tmp/sbm/net.bundle" > "$tmp/scale-bundle.out"
if ! cmp -s "$tmp/scale-text.out" "$tmp/scale-bundle.out"; then
    echo "FAIL: bundle batch output diverged from the text run at 100k:" >&2
    diff "$tmp/scale-text.out" "$tmp/scale-bundle.out" >&2 || true
    exit 1
fi
# Cache off, every conflict row comes from a fresh BFS written straight
# into its bitmap through the pooled scratch, instead of from the
# `(vertex, k)` memo: the answer lines must not change.
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    "${scale_batch[@]}" --bundle "$tmp/sbm/net.bundle" --no-cache > "$tmp/scale-nocache.out"
grep -v '^batch: \|^served: ' "$tmp/scale-bundle.out" | sed 's/ \[cached\]$//' \
    > "$tmp/scale-cached-body.out"
grep -v '^batch: \|^served: ' "$tmp/scale-nocache.out" > "$tmp/scale-nocache-body.out"
if ! cmp -s "$tmp/scale-cached-body.out" "$tmp/scale-nocache-body.out"; then
    echo "FAIL: --no-cache batch answers diverged from the cached run at 100k:" >&2
    diff "$tmp/scale-cached-body.out" "$tmp/scale-nocache-body.out" >&2 || true
    exit 1
fi

echo "== 100k update leg (a far edit keeps cached answers; in-place edits == edge-list rebuild) =="
# One batch session answers the scale workload three times. Between the
# first and second copy it inserts an absent edge inside a 100-vertex
# block (blocks are the id spans and p_out is 0, so each is closed under
# edits) whose vertices hold none of the workload's terms: no candidate
# lies near the edit, so every answer of the second copy must come from
# the cache and equal the first. Between the second and third copy it
# inserts three edges between the members of the first answer group:
# members are more than k apart, so every edge is absent and inserting
# them must change that answer, and the first answer after them must be
# a fresh solve. The independent reference loads the edge list with all
# four edges appended (its header only fixes the vertex count) and
# answers the queries alone. Both run under the checked-mode verifier;
# after renumbering and dropping ` [cached]` markers (edits far from a
# query keep its answer), the third copy's answers must be
# byte-identical to the reference.
read -r -a members < <(grep -m1 '^    #1: \[' "$tmp/scale-bundle.out" \
    | sed 's/^[^[]*\[\([^]]*\)\].*/\1/; s/,//g')
if [ "${#members[@]}" -lt 3 ]; then
    echo "FAIL: no 3-member answer group to connect in $tmp/scale-bundle.out" >&2
    exit 1
fi
workload_terms="$(grep -o 'terms=[^ ]*' "$tmp/scale-workload.txt" | sed 's/^terms=//' | paste -sd, -)"
far_block="$(awk -F'\t' -v terms="$workload_terms" '
    BEGIN { n = split(terms, t, ","); for (i = 1; i <= n; i++) wanted[t[i]] = 1 }
    /^#/ { next }
    { m = split($2, kw, ","); for (i = 1; i <= m; i++) if (kw[i] in wanted) hot[int($1 / 100)] = 1 }
    END { for (b = 0; b < 1000; b++) if (!(b in hot)) { print b; exit } }
' "$tmp/sbm/keywords.txt")"
if [ -z "$far_block" ]; then
    echo "FAIL: every 100-vertex block holds a workload term" >&2
    exit 1
fi
far_edge="$(awk -F'\t' -v lo="$((far_block * 100))" '
    /^#/ { next }
    $1 == lo { adjacent[$2] = 1 }
    $2 == lo { adjacent[$1] = 1 }
    END { for (v = lo + 1; v < lo + 100; v++) if (!(v in adjacent)) { print lo " " v; exit } }
' "$tmp/sbm/edges.txt")"
new_edges=("${members[0]} ${members[1]}" "${members[0]} ${members[2]}" "${members[1]} ${members[2]}")
{
    cat "$tmp/scale-workload.txt"
    printf 'insert %s\n' "$far_edge"
    cat "$tmp/scale-workload.txt"
    printf 'insert %s\n' "${new_edges[@]}"
    cat "$tmp/scale-workload.txt"
} > "$tmp/scale-update-workload.txt"
{
    cat "$tmp/sbm/edges.txt"
    printf '%s\n' "$far_edge" "${new_edges[@]}"
} > "$tmp/sbm-updated-edges.txt"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    --workload "$tmp/scale-update-workload.txt" --threads 1 \
    --bundle "$tmp/sbm/net.bundle" > "$tmp/scale-update.out"
KTG_VERIFY=1 cargo run -q --release --offline -p ktg-cli -- batch \
    "${scale_batch[@]}" --edges "$tmp/sbm-updated-edges.txt" \
    --keywords "$tmp/sbm/keywords.txt" > "$tmp/scale-update-ref.out"
if [ "$(grep -c '^\[[0-9]*\] update: applied$' "$tmp/scale-update.out")" -ne 4 ]; then
    echo "FAIL: the far edge and the three absent member edges did not all apply at 100k:" >&2
    cat "$tmp/scale-update.out" >&2
    exit 1
fi
# The response lines of items $2..$3 (summary lines end a range).
item_range() {
    awk -v lo="$2" -v hi="$3" '
        /^\[[0-9]+\] / { n = substr($0, 2, index($0, "]") - 2) + 0 }
        /^[a-z]/ { n = 0 }
        n >= lo && n <= hi
    ' "$1"
}
queries="$(grep -c '^d\?ktg ' "$tmp/scale-workload.txt")"
item_range "$tmp/scale-update.out" 1 "$queries" > "$tmp/scale-copy1.out"
item_range "$tmp/scale-update.out" $((queries + 2)) $((2 * queries + 1)) > "$tmp/scale-copy2.out"
item_range "$tmp/scale-update.out" $((2 * queries + 5)) $((3 * queries + 4)) > "$tmp/scale-copy3.out"
if [ "$(grep -c '^\[[0-9]*\] d\?ktg: .* \[cached\]$' "$tmp/scale-copy2.out")" -ne "$queries" ]; then
    echo "FAIL: an edit in a block without query terms dropped a cached answer at 100k:" >&2
    cat "$tmp/scale-copy2.out" >&2
    exit 1
fi
sed 's/ \[cached\]$//' "$tmp/scale-copy2.out" > "$tmp/scale-copy2-fresh.out"
sed 's/ \[cached\]$//' "$tmp/scale-copy3.out" > "$tmp/scale-copy3-fresh.out"
if ! cmp -s <(renumber "$tmp/scale-copy1.out") <(renumber "$tmp/scale-copy2-fresh.out"); then
    echo "FAIL: cached answers after a far edit differ from the answers before it at 100k:" >&2
    diff <(renumber "$tmp/scale-copy1.out") <(renumber "$tmp/scale-copy2-fresh.out") >&2 || true
    exit 1
fi
if head -n1 "$tmp/scale-copy3.out" | grep -q ' \[cached\]'; then
    echo "FAIL: the first answer after joining its members came from the cache at 100k" >&2
    exit 1
fi
answers_only() {
    grep -v '^batch: \|^served: \|^partial: \|^\[[0-9]*\] update: ' "$1" > "$1.answers"
    renumber "$1.answers"
}
renumber "$tmp/scale-copy3-fresh.out" > "$tmp/scale-update.cmp"
answers_only "$tmp/scale-update-ref.out" > "$tmp/scale-update-ref.cmp"
answers_only "$tmp/scale-bundle.out" > "$tmp/scale-bundle.cmp"
if ! cmp -s "$tmp/scale-update.cmp" "$tmp/scale-update-ref.cmp"; then
    echo "FAIL: in-place updates diverged from the rebuilt edge list at 100k:" >&2
    diff "$tmp/scale-update.cmp" "$tmp/scale-update-ref.cmp" >&2 || true
    exit 1
fi
if cmp -s "$tmp/scale-update.cmp" "$tmp/scale-bundle.cmp"; then
    echo "FAIL: connecting an answer group changed no answer at 100k" >&2
    exit 1
fi

echo "== 100k checkpoint leg (a checkpointed bundle == a fresh index --bundle) =="
# A WAL-backed server checkpoints after every third update. Blocks are
# the 100-vertex id spans and p_out is 0, so `insert 0 100` joins two
# components, `insert 250 375` joins two more, and `remove 0 100` splits
# the first pair again. The bundle the checkpoint rewrites must be
# byte-identical to a fresh `ktg index --bundle` over the edge list plus
# the one edge that stayed: the maintained index, components included,
# equals a rebuild.
cp "$tmp/sbm/net.bundle" "$tmp/ckpt.bundle"
printf 'insert 0 100\ninsert 250 375\nremove 0 100\n' > "$tmp/ckpt-workload.txt"
cargo run -q --release --offline -p ktg-cli -- serve --bundle "$tmp/ckpt.bundle" \
    --wal "$tmp/ckpt.wal" --checkpoint-every 3 --bind 127.0.0.1:0 --workers 2 \
    --threads 1 > "$tmp/ckpt-serve.log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
addr="$(scrape_addr "$tmp/ckpt-serve.log" "$server_pid")"
await_serving "$addr"
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" \
    --workload "$tmp/ckpt-workload.txt" > "$tmp/ckpt-client.out"
cargo run -q --release --offline -p ktg-cli -- serve --connect "$addr" --shutdown \
    > /dev/null
await_exit "$server_pid" || {
    echo "FAIL: checkpointing server still running after /shutdown" >&2
    exit 1
}
trap 'rm -rf "$tmp"' EXIT
if [ "$(grep -c '^\[[0-9]*\] update: applied$' "$tmp/ckpt-client.out")" -ne 3 ]; then
    echo "FAIL: the three checkpoint-leg updates did not all apply:" >&2
    cat "$tmp/ckpt-client.out" >&2
    exit 1
fi
{
    cat "$tmp/sbm/edges.txt"
    printf '250 375\n'
} > "$tmp/sbm-ckpt-edges.txt"
cargo run -q --release --offline -p ktg-cli -- index \
    --edges "$tmp/sbm-ckpt-edges.txt" --keywords "$tmp/sbm/keywords.txt" \
    --threads 4 --bundle "$tmp/ckpt-fresh.bundle" > /dev/null
if ! cmp "$tmp/ckpt.bundle" "$tmp/ckpt-fresh.bundle"; then
    echo "FAIL: the checkpointed bundle differs from a fresh index --bundle at 100k" >&2
    exit 1
fi

echo "CI gate passed: offline build + tests green, lint clean, checked-mode, fault/degraded and 100k substrate + update + checkpoint smokes verified."
