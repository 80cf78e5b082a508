#!/usr/bin/env python3
"""Serving benchmark for `ktg serve`: build, run one workload, or compare.

Run from the root of a ktg checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1 \
        [--record FILE]
    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

The first form builds the `ktg` binary (the root workspace) and the
`perfbench` driver (this directory's own workspace) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the driver, and
passes its output through: the last stdout line is the JSON result. The
metric names in it must be exactly the ones `BENCHMARK.json` lists for
the mode, and at `BENCHMARK.json`'s `run_seconds` the sample count and
tail rank of each latency must be the ones `perfbench/spec.json`
records. `--record FILE` also appends `{"workload", "seed", "trace",
"result"}` to FILE, one line per run.

`compare` reads two such record files (parent and change, runs paired in
file order per workload) and prints, per workload and end-to-end metric,
both medians and quartiles, the share of pairs the change wins, and a
verdict: `improved` when the change wins at least 9 in 10 pairs and the
medians differ by more than the parent's interquartile range; otherwise
`unresolved` when the parent's own spread exceeds the metric's bound
(unless every change run beats every parent run), `worse` when the
change's median is worse than the parent's by more than the bound, and
`within bound` when it is not.
"""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds both binaries; returns their paths."""
    if not (Path("Cargo.toml").is_file() and Path("crates/cli").is_dir()):
        fail("run from the root of a ktg checkout (no Cargo.toml / crates/cli here)")
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ktg-cli", "--bin", "ktg"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
        if code != 0:
            fail(f"`{' '.join(cmd)}` exited with {code}")
    return target / "release" / "ktg", target / "release" / "perfbench"


def expected_metrics(trace):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_samples(workload, seconds, stderr):
    """At the contract's run length, the driver's per-kind line counts
    and tail ranks (from its stderr) must match perfbench/spec.json."""
    if seconds != str(json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]):
        return
    want = json.loads(Path("perfbench/spec.json").read_text())["workloads"][workload]["samples"]
    got = {kind: {"lines": int(n), "tail": f"p{tail}"} for kind, n, tail in re.findall(
        rf"^perfbench: {workload} (\w+): (\d+) lines, tail = p([\d.]+)$", stderr, re.M)}
    if got != want:
        fail(f"samples differ from perfbench/spec.json: driver {got}, spec {want}", 1)


def run(argv):
    record = None
    if "--record" in argv:
        at = argv.index("--record")
        if at + 1 >= len(argv):
            fail("--record needs a file")
        record = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    ktg, driver = build()
    proc = subprocess.run([str(driver), *argv, "--ktg", str(ktg)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    flags = dict(zip(argv[::2], argv[1::2]))
    trace = flags.get("--trace") == "1"
    got, want = set(result["metrics"]), expected_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}", 1)
    if not trace:
        check_samples(flags.get("--workload"), flags.get("--seconds"), proc.stderr)
    if record:
        line = {"workload": flags.get("--workload"), "seed": int(flags.get("--seed", 0)),
                "trace": int(trace), "result": result}
        with open(record, "a", encoding="utf-8") as out:
            out.write(json.dumps(line) + "\n")


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def compare(parent_path, change_path):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        bad = sum(not r["correct"] for r in p_runs + c_runs)
        if bad:
            print(f"{workload}: {bad} run(s) reported incorrect output")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            if len(p) < 2 or len(c) < 2:
                print(f"{workload:<11} {name:<15} needs at least two runs per side")
                continue
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            pm, cm = statistics.median(p), statistics.median(c)
            pairs = list(zip(p, c))
            wins = sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs)
            spread = pq[2] - pq[0]
            if wins >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > spread:
                verdict = "improved"
            elif spread / pm > bound:
                beats_all = (max(c) < min(p)) if sign > 0 else (min(c) > max(p))
                verdict = "improved" if beats_all else "unresolved"
            elif sign * (cm - pm) / pm > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            print(f"{workload:<11} {name:<15} "
                  f"{f'{pm:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]':<34} "
                  f"{f'{cm:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]':<34} {wins:>5.2f}  {verdict}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main()
