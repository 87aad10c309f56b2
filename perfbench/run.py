#!/usr/bin/env python3
"""The repository benchmark: `figures all` sweeps and `rfvd` traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `figures` and
`rfvd` binaries and the `perfbench` helper (perfbench/tracer), drives one
workload for S seconds, checks every output, and prints the metrics as
one JSON object on the last line of stdout. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from
a separate traced run. See perfbench/README.md for the definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload and metric names with their units, as BENCHMARK.json lists them
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# stdout digests every `figures` run is checked against
FIGURES_ALL_SHA256 = "d895276578d41c94e97d56912f230d3d419113029c1af00320edadba16e03ee2"
TABLE1_SHA256 = "652ef2b0c949126716a09295b5ca96585efab4cab947cf1da31b5248cfec4691"

# `figures` launches per run that only render Table 1: each adds one
# set-up sample (process start to first stdout byte) at little cost.
TABLE1_LAUNCHES = 10
# a run splits its load across this many daemons, each launched afresh,
# so one process's luck (memory layout, scheduling) weighs 1/SEGMENTS
SEGMENTS = 5
# daemon launches per run that serve no load: more set-up samples
EXTRA_LAUNCHES = 5
# jobs replayed in-process by a traced run
REPLAY_JOBS = {"rfvd-warm": 144, "rfvd-fresh": 256}
# runner threads per daemon: one, so a job waits and high priority
# preempts; two, so distinct jobs never queue behind each other
DAEMON_JOBS = {"rfvd-warm": 1, "rfvd-fresh": 2}
# compile-cache bound: far above the warm hot set (36 kernels), so warm
# jobs always hit, while the fresh stream's distinct kernels are evicted
# and the daemon's footprint stays flat however many jobs a run completes
CACHE_ENTRIES = 256
# every run must end well inside three minutes
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail(values, p):
    """The p-quantile, lowered until at least ten samples lie above it
    (never below the median). Returns (value, level used)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, p
    level = max(0.5, min(p, 1.0 - 10.0 / n))
    return xs[round((n - 1) * level)], level


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("no cargo workspace at the checkout root; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["-p", "rfv-bench", "--bin", "figures", "-p", "rfvd", "--bin", "rfvd"],
        common + ["--manifest-path", "perfbench/tracer/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release"


def timed_launch(argv, cwd):
    """Runs argv to completion. Returns (seconds to the first stdout
    byte, seconds to exit, stdout, exit code, peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    first = p.stdout.read(1)
    t1 = time.perf_counter()
    rest = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    t2 = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, t2 - t0, first + rest, p.returncode, usage.ru_maxrss / 1024.0


def figures_all(bins, run_dir, seconds, trace, result):
    figures = str(bins / "figures")
    setup = []
    for _ in range(TABLE1_LAUNCHES):
        result["attempted"] += 1
        first, _, out, code, _ = timed_launch([figures, "table1", "--jobs", "1"], run_dir)
        if code != 0 or hashlib.sha256(out).hexdigest() != TABLE1_SHA256:
            result["failed"] += 1
        setup.append(first)
    walls, rss = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        result["attempted"] += 1
        first, wall, out, code, peak = timed_launch([figures, "all", "--jobs", "1"], run_dir)
        if code != 0 or hashlib.sha256(out).hexdigest() != FIGURES_ALL_SHA256:
            result["failed"] += 1
            log("perfbench: `figures all` output differs from the pinned digest")
        setup.append(first)
        walls.append(wall)
        rss.append(peak)
    p99, l99 = tail(walls, 0.99)
    p90, l90 = tail(walls, 0.90)
    log(f"figures-all: {len(walls)} sweeps, {len(setup)} launches; "
        f"tail levels p{l99 * 100:.1f} / p{l90 * 100:.1f}")
    e2e = {
        "setup_s": statistics.median(setup),
        "sweep_s": statistics.median(walls),
        "jobs_per_s": len(walls) / sum(walls),
        "rt_p50_ms": statistics.median(walls) * 1e3,
        "rt_p99_ms": p99 * 1e3,
        "rt_high_p90_ms": p90 * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }
    if not trace:
        return e2e, {}
    tracer = str(bins / "perfbench")
    runs = {}
    for on in (0, 1):
        argv = [tracer, "figures", "--spans", str(on)]
        if on:
            argv += ["--spans-out", str(run_dir / "spans.jsonl")]
        _, wall, out, code, _ = timed_launch(argv, run_dir)
        if code != 0:
            fail("perfbench figures failed")
        runs[on] = (wall, json.loads(out)["cells"])
    cells = runs[1][1]
    layers = {f"{name}_s": secs for name, secs in cells.items()}
    top = sum(secs for name, secs in cells.items() if name.count(".") == 1)
    layers["figures.unattributed_s"] = e2e["sweep_s"] - top
    layers["trace.overhead_pct"] = (runs[1][0] - runs[0][0]) / runs[0][0] * 100.0
    return e2e, layers


def start_daemon(bins, run_dir, tag, jobs):
    argv = [str(bins / "rfvd"), "--port", "0", "--jobs", str(jobs),
            "--cache-entries", str(CACHE_ENTRIES),
            "--spool-dir", str(run_dir / f"spool-{tag}")]
    err = open(run_dir / f"rfvd-{tag}.log", "wb")
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=run_dir, stdout=subprocess.PIPE, stderr=err)
    line = p.stdout.readline().decode()
    ready = time.perf_counter() - t0
    err.close()
    if not line.startswith("rfvd listening on "):
        stop_daemon(p)
        fail(f"rfvd did not start: {line!r}")
    return p, line.split()[-1], ready


def stop_daemon(p):
    """SIGTERM, then wait for the drain; True on a clean exit."""
    p.send_signal(signal.SIGTERM)
    try:
        code = p.wait(timeout=60)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        return False
    p.stdout.close()
    return code == 0


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    fail("no VmHWM in /proc status")


def run_segment(workload, bins, run_dir, seed, segment, seconds, replay, began):
    """One daemon life: launch, load for `seconds`, read its peak RSS,
    drain. Returns (seconds to listening, peak RSS MB, load report,
    clean drain)."""
    p, addr, ready = start_daemon(bins, run_dir, f"seg{segment}", DAEMON_JOBS[workload])
    report_path = run_dir / f"load-{segment}.json"
    argv = [str(bins / "perfbench"), "load", "--addr", addr, "--workload", workload,
            "--seed", str(seed), "--segment", str(segment), "--seconds", str(seconds),
            "--out", str(report_path)]
    if replay:
        argv += ["--replay", str(REPLAY_JOBS[workload]), "--run-dir", str(run_dir)]
    try:
        budget = max(1.0, DEADLINE_S - (time.monotonic() - began))
        code = subprocess.run(argv, cwd=run_dir, stdout=sys.stderr, timeout=budget).returncode
        peak = vm_hwm_mb(p.pid)
    finally:
        drained = stop_daemon(p)
    if code != 0:
        fail(f"perfbench load exited with {code}")
    return ready, peak, json.loads(report_path.read_text()), drained


def rfvd_traffic(workload, bins, run_dir, seed, seconds, trace, result, began):
    launches = []
    for i in range(EXTRA_LAUNCHES):
        p, _, ready = start_daemon(bins, run_dir, f"launch{i}", DAEMON_JOBS[workload])
        launches.append(ready)
        if not stop_daemon(p):
            fail("rfvd did not drain cleanly")
    primes, peaks, rtt, high = [], [], [], []
    window = 0.0
    totals = dict.fromkeys(["cache_hits", "cache_misses", "preemptions", "rejected"], 0)
    replay = {}
    for seg in range(SEGMENTS):
        ready, peak, r, drained = run_segment(workload, bins, run_dir, seed, seg,
                                              seconds / SEGMENTS, trace and seg == 0, began)
        launches.append(ready)
        peaks.append(peak)
        primes.append(r["prime_s"])
        result["attempted"] += r["attempted"]
        result["failed"] += r["errors"] + r["wrong"]
        for g in r["guard"]:
            log(f"perfbench: replay guard: {g}")
        for e in r["error_samples"]:
            log(f"perfbench: {e}")
        if r["guard"] or not drained:
            result["correct"] = False
        rtt += r["rtt_s"]
        high += r["high_rtt_s"]
        window += r["wall_s"]
        deck = r["deck"]
        for k in totals:
            totals[k] += r["stats"][k]
        replay.update(r["replay"])
        log(f"{workload} segment {seg}: {len(r['rtt_s'])} replies in {r['wall_s']:.2f} s; "
            f"daemon stats {json.dumps(r['stats'])}")
    p99, l99 = tail(rtt, 0.99)
    p90, l90 = tail(high, 0.90)
    log(f"{workload}: {len(rtt)} replies ({len(high)} high priority), "
        f"{len(launches)} launches; tail levels p{l99 * 100:.1f} / high p{l90 * 100:.1f}")
    e2e = {
        "setup_s": statistics.median(launches) + statistics.median(primes),
        "sweep_s": window * deck / len(rtt) if rtt else window,
        "jobs_per_s": len(rtt) / window,
        "rt_p50_ms": statistics.median(rtt) * 1e3 if rtt else 0.0,
        "rt_p99_ms": p99 * 1e3,
        "rt_high_p90_ms": p90 * 1e3,
        "peak_rss_mb": statistics.median(peaks),
    }
    if not trace:
        return e2e, {}
    lookups = totals["cache_hits"] + totals["cache_misses"]
    layers = dict(replay)
    layers.update({
        "rfvd.cache.hits": totals["cache_hits"],
        "rfvd.cache.misses": totals["cache_misses"],
        "rfvd.cache.lookups": lookups,
        "rfvd.cache.hit_ratio": totals["cache_hits"] / lookups if lookups else 0.0,
        "rfvd.preemptions": totals["preemptions"],
        "rfvd.rejected": totals["rejected"],
    })
    return e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bins = build(target)

    began = time.monotonic()
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result = {"correct": True, "attempted": 0, "failed": 0}
    try:
        if args.workload == "figures-all":
            e2e, layers = figures_all(bins, run_dir, args.seconds, args.trace, result)
        else:
            e2e, layers = rfvd_traffic(args.workload, bins, run_dir, args.seed, args.seconds,
                                       args.trace, result, began)
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            keep = ROOT / ".bench_run" / f"spans-{args.workload}-{args.seed}.jsonl"
            shutil.move(str(spans), str(keep))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if result["failed"]:
        result["correct"] = False
    units = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:<11} {name:<40} {value:>16.6f} {unit}")
    print(f"{args.workload:<11} failed_share {result['failed'] / max(1, result['attempted']):.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
