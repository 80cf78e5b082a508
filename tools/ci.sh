#!/usr/bin/env bash
# Offline CI gate for the ktg workspace.
#
# The build must succeed with no network, no registry cache, and no
# warnings; the in-tree static analysis pass (ktg-lint) must report no
# regressions against tools/lint-baseline.txt; and a release-mode smoke
# query must pass the checked-mode result verifier (KTG_VERIFY=1).
# Run from anywhere; operates on the repo root.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

export RUSTFLAGS="-D warnings"

echo "== offline release build (deny warnings) =="
cargo build --release --offline

echo "== perfbench builds against the current crates =="
# The benchmark driver (perfbench/, its own workspace) compiles these
# crates by path, so a crate-API change that breaks it fails here rather
# than in a benchmark run. Same command and target directory as
# perfbench/run.py, which does not set RUSTFLAGS.
env -u RUSTFLAGS CARGO_TARGET_DIR=.bench_build \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== offline test suite =="
cargo test -q --offline

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

echo "== qps smoke (serving throughput: 8 records, cache-on beats cache-off) =="
# The binary itself asserts answer determinism across all configurations
# and the cache-on > cache-off throughput win at one thread (plus thread
# scaling when the machine has >= 4 hardware threads); the checks below
# re-verify the written records so a silent no-op run cannot pass.
qps_log="$bench_out/qps.run.log"
KTG_BENCH_FAST=1 KTG_BENCH_OUT="$bench_out" \
    cargo run -q --release --offline -p ktg-bench --bin qps 2>"$qps_log" \
    || { cat "$qps_log" >&2; exit 1; }
cat "$qps_log" >&2
qps_records="$(wc -l < "$bench_out/qps.jsonl")"
if [ "$qps_records" -lt 8 ]; then
    echo "FAIL: qps wrote $qps_records JSON-lines records, expected >= 8 (cache on/off x 4 thread counts)" >&2
    exit 1
fi

on_ns="$(grep '"bench":"cache_on","param":"1"' "$bench_out/qps.jsonl" \
    | sed 's/.*"min_ns":\([0-9]*\).*/\1/' | head -n1)"
off_ns="$(grep '"bench":"cache_off","param":"1"' "$bench_out/qps.jsonl" \
    | sed 's/.*"min_ns":\([0-9]*\).*/\1/' | head -n1)"
if [ -z "$on_ns" ] || [ -z "$off_ns" ] || [ "$on_ns" -gt "$off_ns" ]; then
    echo "FAIL: cache-on (${on_ns:-?} ns) should not be slower than cache-off (${off_ns:-?} ns) at 1 thread" >&2
    exit 1
fi

echo "== net_qps smoke (TCP serving throughput over loopback: >= 13 records) =="
# The binary self-asserts block framing and the cache-on > cache-off win
# at one connection (re-measuring once against loopback jitter, which
# appends fresh records — hence tail -n1 below reads the final word).
# 8 closed-loop + 2 open-arrival + the 5-point paced offered-load sweep.
KTG_BENCH_FAST=1 KTG_BENCH_OUT="$bench_out" \
    cargo run -q --release --offline -p ktg-bench --bin net_qps
net_records="$(wc -l < "$bench_out/net_qps.jsonl")"
if [ "$net_records" -lt 13 ]; then
    echo "FAIL: net_qps wrote $net_records JSON-lines records, expected >= 13" >&2
    exit 1
fi
net_on_ns="$(grep '"bench":"closed_cache_on","param":"1"' "$bench_out/net_qps.jsonl" \
    | sed 's/.*"min_ns":\([0-9]*\).*/\1/' | tail -n1)"
net_off_ns="$(grep '"bench":"closed_cache_off","param":"1"' "$bench_out/net_qps.jsonl" \
    | sed 's/.*"min_ns":\([0-9]*\).*/\1/' | tail -n1)"
if [ -z "$net_on_ns" ] || [ -z "$net_off_ns" ] || [ "$net_on_ns" -gt "$net_off_ns" ]; then
    echo "FAIL: cache-on (${net_on_ns:-?} ns) should not be slower than cache-off (${net_off_ns:-?} ns) at 1 connection" >&2
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

echo "== bench summarizer (BENCH_<group>.json: latest record per configuration) =="
KTG_BENCH_OUT="$bench_out" cargo run -q --release --offline -p ktg-bench \
    --bin summarize "$bench_out"
grep -q '"cache_speedup_1t":' "$bench_out/BENCH_qps.json" || {
    echo "FAIL: BENCH_qps.json lacks the derived cache_speedup_1t ratio" >&2
    exit 1
}
grep -q '"build_speedup_4t":' "$bench_out/BENCH_scale.json" || {
    echo "FAIL: BENCH_scale.json lacks the derived build_speedup_4t ratio" >&2
    exit 1
}
grep -q '"net_open_knee_ratio":' "$bench_out/BENCH_net_qps.json" || {
    echo "FAIL: BENCH_net_qps.json lacks the derived net_open_knee_ratio" >&2
    exit 1
}
for g in bb_scaling net_qps; do
    [ -s "$bench_out/BENCH_$g.json" ] || {
        echo "FAIL: summarizer did not fold $g.jsonl into BENCH_$g.json" >&2
        exit 1
    }
done
rm -rf "$bench_out"

echo "== static analysis (ktg-lint L1-L10, fingerprint ratchet vs tools/lint-baseline.txt) =="
# The JSON run is both the gate and the CI artifact: exit code reflects
# the per-violation fingerprint ratchet (any L7-L10 concurrency-invariant
# finding off the baseline fails here), and the report is kept for
# inspection. The lint must also stay fast enough to run on every push.
lint_json="$root/target/ktg-lint.json"
mkdir -p "$root/target"
lint_start_ms="$(date +%s%3N)"
cargo run -q --release --offline -p ktg-lint -- --json > "$lint_json"
lint_elapsed_ms=$(( $(date +%s%3N) - lint_start_ms ))
grep -q '"pass": true' "$lint_json" || {
    echo "FAIL: ktg-lint reported a ratchet regression:" >&2
    cat "$lint_json" >&2
    exit 1
}
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
addr=""
for _ in $(seq 1 150); do
    addr="$(sed -n 's/^serving on \([^ ]*\).*/\1/p' "$server_log" | head -n1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "FAIL: server exited before binding; log:" >&2
        cat "$server_log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "FAIL: server never reported its bound address; log:" >&2
    cat "$server_log" >&2
    exit 1
fi
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
for _ in $(seq 1 150); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: server still running after /shutdown (orphan would leak)" >&2
    exit 1
fi
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
renumber() {
    awk '{ if (match($0, /^\[[0-9]+\] /)) { n++; sub(/^\[[0-9]+\] /, "[" n "] ") } print }' "$1"
}
# Polls /health over /dev/tcp until the startup replay finishes —
# workload lines are refused while the state is `recovering`.
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
# Scrapes the `serving on HOST:PORT` line from a background server log.
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
for _ in $(seq 1 150); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: recovered server still running after /shutdown" >&2
    exit 1
fi
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

echo "CI gate passed: offline build + tests green, lint clean, checked-mode, fault/degraded and 100k substrate smokes verified."
