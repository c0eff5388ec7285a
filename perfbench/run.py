#!/usr/bin/env python3
"""Benchmark of the HotStuff-1 simulator on three paper workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig8-n64-b1000-par --seed 2024 \\
        --seconds 20 --trace 0

Builds perfbench/ (the simulator's src/ plus the hs1perf driver) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  runs the workload in a fresh hs1perf process per repeat until
             --seconds have passed (at least three repeats), checks every
             repeat and reports the median of each end-to-end metric.
  --trace 1  does the same, then one traced hs1perf run that re-runs the
             workload at the other sim_jobs, replays each layer on the run's
             final state and reports the per-layer metrics.

Host times (setup_s, cpu_s and the seconds under sim_txn_per_s) are scaled
to a reference host speed by a fixed calibration loop timed around each run
(see hs1perf.cc); the result files keep the raw host times beside them.

Metric names, units and workloads come from BENCHMARK.json. Every metric is
printed with its unit; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. Result files (host stamp,
seed, every repeat) and the traced run's spans go to .bench_out/. The exit
status is 0 only when every run passed its correctness checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Every invocation ends within this many seconds of its start, build included
# only when the build is already up to date.
DEADLINE_S = 170
MIN_REPEATS = 3
# p999 is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def build():
    """Configures and builds hs1perf; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "hs1perf")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd, deadline):
    """Runs one hs1perf process; returns (exit code, parsed JSON or None)."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    failures = []  # one line per failed check, prefixed with its run
    attempted = failed = 0
    repeats = []
    det = None
    # Timed repeats, one process each, until the measuring time is used up.
    while len(repeats) < MIN_REPEATS or time.monotonic() - start < args.seconds:
        attempted += 1
        code, out = run_child([binary, "timed"] + common, deadline)
        problems = [] if out is None else list(out["failures"])
        if out is None:
            problems.append(f"no result (exit {code})")
        else:
            repeats.append(out)
            det = det or out["det"]
            if out["det"] != det:
                problems.append("deterministic fields differ from repeat 1")
            if out["virt_beyond_p999"] < MIN_TAIL_SAMPLES:
                problems.append(f"only {out['virt_beyond_p999']} samples beyond p999")
            if code != 0 and not problems:
                problems.append(f"exit {code}")
        failed += bool(problems)
        failures += [f"repeat {attempted}: {p}" for p in problems]
        if out is None:
            break

    def median(key):
        return statistics.median(r[key] for r in repeats) if repeats else 0.0

    values = {}
    if args.trace == 0:
        values = {m["name"]: median(m["name"]) for m in spec["end_to_end"]}
    else:
        spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
        code, out = run_child([binary, "traced"] + common + ["--spans", spans],
                              deadline)
        if out is None:
            attempted += 1
            failed += 1
            failures.append(f"traced run: no result (exit {code})")
        else:
            attempted += out["attempted"]
            failed += out["failed"]
            failures += [f"traced run: {p}" for p in out["failures"]]
            if det is not None and out["det"] != det:
                failures.append("traced run: deterministic fields differ from "
                                "the timed repeats")
                failed += not out["failed"]
            values = dict(out["metrics"])
            values["bench.trace_overhead_s"] = out["run_s"] - median("run_s")
            values["client.latency_samples"] = median("virt_samples")
            values["virt_resub_share"] = median("virt_resub_share")
            print(f"spans: {os.path.relpath(spans, ROOT)}", file=sys.stderr)
        values["fail_share"] = failed / attempted

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failures:
        sys.exit("perfbench: BENCHMARK.json names metrics the driver does not "
                 "produce: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    host = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}
    code, stamp = run_child([binary, "host"], deadline)
    host.update(stamp or {})
    result_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump({"host": host, "metrics": metrics, "failures": failures,
                   "repeats": repeats}, f, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if repeats:
        print(f"{args.workload} repeats = {len(repeats)}, latency samples = "
              f"{int(median('virt_samples'))} per run, "
              f"{int(median('virt_beyond_p999'))} beyond p999, "
              f"virt_resub_share = {median('virt_resub_share'):.6g}")
    print(f"{args.workload} fail_share = {failed}/{attempted}")
    for f_ in failures:
        print(f"FAIL {f_}")
    print(f"result: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
