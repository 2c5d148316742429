#!/usr/bin/env python3
"""The repo benchmark: one command per workload, from a seed.

    python3 perfbench/run.py --workload trace_1m --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds the driver
(perfbench/CMakeLists.txt) into .bench_build, runs one workload in a
scratch directory under .bench_work, checks its outputs, prints every
metric by name with its unit and sample count, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set; with --trace 1 they are its
per_layer set, from a separate traced run.

Steadiness mode runs each workload on N seeds and prints each
end-to-end metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --steady 5 --workload hub --seconds 10

The statistics, the tail-sample rule and metric-name validation live
here (and are covered by perfbench/test_run.py); the C++ driver only
measures.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trace_1m", "apps", "explore", "hub")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Tail percentiles, lowest first; a tail is reported only when at least
# TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 5


class BenchError(Exception):
    """The run cannot produce a result (build, driver or metric failure)."""


# --- statistics --------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond
    it among n samples, or None when the run gives no tail."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail_name(prefix, p):
    return "%s_p%s_ms" % (prefix, ("%g" % p).replace(".", ""))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


# --- BENCHMARK.json ----------------------------------------------------------

def validate_bench(bench):
    """Checks metric names, units and uniqueness; returns the e2e and
    per-layer metric lists. Raises BenchError on any violation."""
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in bench.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                raise BenchError("bad %s name: %r" % (section, name))
            if name in seen:
                raise BenchError("name used twice: %r" % name)
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                raise BenchError("bad unit for %s: %r" % (name, entry.get("unit")))
    if not bench.get("end_to_end") or not bench.get("per_layer"):
        raise BenchError("BENCHMARK.json lists no metrics")
    return bench["end_to_end"], bench["per_layer"]


def load_bench(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))


# --- build and run -----------------------------------------------------------

def build(root):
    """Configures and builds the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "diogenes.h")):
        raise BenchError("no program sources under %s/src" % root)
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        try:
            code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            raise BenchError("cannot run %s: %s" % (cmd[0], e))
        if code:
            raise BenchError("build failed: " + " ".join(cmd))
    if os.path.getmtime(binary) != before:
        # Let the build's dirty pages reach the disk before measuring.
        os.sync()
        time.sleep(SETTLE_AFTER_BUILD_S)
    return binary


def source_id(root):
    """The commit when the checkout is a git repo, else a digest of the
    program and benchmark sources (the driver's checkouts are not)."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def run_driver(binary, root, args, extra=()):
    """Runs one workload; returns the driver's JSON document."""
    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver exited %d" % proc.returncode)
    return json.loads(lines[-1])


# --- results -----------------------------------------------------------------

# Issue-facing names for each workload's operation series (trace_1m's
# iteration has none: its parts are printed as analyze_s and save_s).
OP_ALIASES = {
    "pipeline_ms": ("pipeline_s", 1000.0),
    "request_ms": ("request_p50_ms", 1.0),
    "push_ms": ("push_p50_ms", 1.0),
}
RATE_ALIASES = {"request_ms": "requests_per_s", "push_ms": "pushes_per_s"}
# Series printed in seconds under these names.
SECONDS_SERIES = {"save_ms": "save_s", "analyze_ms": "analyze_s",
                  "first_findings_s": "first_findings_s"}


def summarize(doc):
    """Reduces the driver's document to named metrics: a dict from every
    reported name to (value, unit, sample count). Series become medians."""
    ledger = doc["ledger"]
    series = ledger["series"]
    values = ledger["values"]
    op = doc["context"]["op_series"]
    tally = doc["tally"]
    m = {}

    ops = series.get(op, [])
    if not ops:
        raise BenchError("no %s samples" % op)
    m["op_ms"] = (statistics.median(ops), "ms", len(ops))
    m["ops_per_s"] = (values["ops_per_s"], "1/s", len(ops))
    m["setup_s"] = (statistics.median(series["setup_s"]), "s",
                    len(series["setup_s"]))
    m["peak_rss_mb"] = (values["peak_rss_mb"], "MiB", 1)
    attempted = max(1, tally["attempted"])
    m["error_rate"] = (tally["failed"] / attempted, "ratio", tally["attempted"])

    if op in OP_ALIASES:
        alias, scale = OP_ALIASES[op]
        m[alias] = (statistics.median(ops) / scale, "s" if scale > 1 else "ms",
                    len(ops))
    tail = tail_percentile(len(ops))
    if tail is not None and op in RATE_ALIASES:
        m[tail_name(op[:-3], tail)] = (percentile(ops, tail), "ms", len(ops))
    if op in RATE_ALIASES:
        m[RATE_ALIASES[op]] = (values["ops_per_s"], "1/s", len(ops))
    for name, out in SECONDS_SERIES.items():
        if name in series and out not in m:
            scale = 1000.0 if name.endswith("_ms") else 1.0
            m[out] = (statistics.median(series[name]) / scale, "s",
                      len(series[name]))
    if "run_file_mb" in values:
        m["run_file_mb"] = (values["run_file_mb"], "MiB", 1)

    # Per-layer values (traced runs): single numbers as measured.
    for name, v in values.items():
        if name not in m and name not in ("ops_per_s", "peak_rss_mb"):
            m[name] = (v, unit_of(name), 1)
    for name, xs in series.items():
        if name not in m and name != op and name not in SECONDS_SERIES and xs:
            m[name + ".p50"] = (statistics.median(xs), unit_of(name), len(xs))
    return m


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes") or name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def result_line(doc, metrics, wanted):
    """The contract's last line, with exactly the `wanted` metrics."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            raise BenchError("the run did not produce metric %r" % name)
        out[name] = {"value": metrics[name][0], "unit": entry["unit"]}
    tally = doc["tally"]
    return {"correct": tally["failed"] == 0,
            "attempted": max(1, tally["attempted"]),
            "failed": tally["failed"], "metrics": out}


def print_report(doc, metrics, root):
    ctx = dict(doc["context"])
    ctx["commit"] = source_id(root)
    ctx["traced"] = bool(doc["trace"])
    print("# workload %s  seed %s  %s" % (doc["workload"], ctx["seed"],
                                          "traced" if doc["trace"] else "untraced"))
    print("# context " + json.dumps(ctx, sort_keys=True))
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        print("%-34s %16.6g %-6s n=%d" % (name, value, unit, n))
    for failure in doc["tally"]["first_failures"]:
        print("# failed: " + failure)


def run_once(binary, root, args, bench, extra=()):
    doc = run_driver(binary, root, args, extra)
    metrics = summarize(doc)
    e2e, per_layer = validate_bench(bench)
    return doc, metrics, result_line(doc, metrics, per_layer if args.trace else e2e)


def steady(binary, root, args, bench, n):
    """Runs each workload on seeds 1..n and prints each end-to-end
    metric's median, quartiles and spread against a third of its bound."""
    e2e, _ = validate_bench(bench)
    workloads = [args.workload] if args.workload else [
        w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        runs = []
        for seed in range(1, n + 1):
            one = argparse.Namespace(**vars(args))
            one.workload, one.seed, one.trace = w, seed, 0
            _, _, line = run_once(binary, root, one, bench)
            runs.append(line)
            print("# %s seed %d: %s" % (w, seed, json.dumps(line["metrics"])),
                  flush=True)
        for entry in e2e:
            xs = [r["metrics"][entry["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            s = spread(xs)
            limit = entry["bound"] / 3.0
            steady_enough = s <= limit
            ok = ok and steady_enough
            print("%-10s %-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread "
                  "%6.3f  bound/3 %6.3f %s" % (w, entry["name"], med, q1, q3,
                                               s, limit,
                                               "" if steady_enough else "UNSTEADY"))
        failed = sum(r["failed"] for r in runs)
        print("%-10s error_rate %d/%d" % (w, failed,
                                         sum(r["attempted"] for r in runs)))
        ok = ok and failed == 0
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="steadiness mode: N seeds per workload")
    # Fault injection, for the self-tests.
    ap.add_argument("--inject", choices=("wrong_body", "refuse_push"))
    args = ap.parse_args(argv)
    root = os.getcwd()
    extra = ["--inject", args.inject] if args.inject else []
    try:
        bench = load_bench(root)
        binary = build(root)
        if args.steady:
            return 0 if steady(binary, root, args, bench, args.steady) else 1
        if not args.workload:
            ap.error("--workload is required")
        doc, metrics, line = run_once(binary, root, args, bench, extra)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print_report(doc, metrics, root)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
