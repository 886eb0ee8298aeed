#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (workloads: README.md).

    python3 e2e_bench/run.py --workload ingest --seed 7 --seconds 10 --trace 0
    python3 e2e_bench/run.py                 # every workload, default seed
    python3 e2e_bench/run.py --trace 1       # per-layer metrics + traces
    python3 e2e_bench/run.py --smoke [--binary PATH]

Run it from the repository root. It configures and builds e2e_bench/ (the
library under test is compiled from src/) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset, then runs relborg_bench once per
workload. Each run prints `workload metric median unit (n, q1, q3)` lines
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the metrics are the per-layer ones and
the run also writes a Chrome trace, validates it with
tools/trace_summary.py and prints per-layer span totals.

--smoke runs every workload at tiny scale, traced and untraced, and checks
that the metric names match BENCHMARK.json.

Exit status: 0 when every run verified its outputs; 1 when a run failed
verification or printed unexpected metrics; 2 when the benchmark could not
be built or run.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STAGE_THREADS = ("assemble", "commit", "compute", "apply")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not be built or run (exit 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}")


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds relborg_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"relborg sources not found under {ROOT}/src")
    out = os.path.join(build_dir(), "e2e")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "relborg_bench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "relborg_bench")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, expected):
    """Returns a list of problems with one run's JSON result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"metric names/units differ from BENCHMARK.json "
                        f"(missing {missing}, extra {extra}, unit {wrong})")
    return problems


def layer_table(trace_path):
    """Per-layer span totals of a Chrome trace: count, busy and self time.

    The layer is the span category. Self time is a span's duration minus
    the part its child spans on the same thread cover.
    """
    with open(trace_path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    spans = collections.defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            spans[ev["tid"]].append(ev)
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for evs in spans.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end_ts, event, child_cover]
        for ev in evs + [None]:
            while stack and (ev is None or ev["ts"] >= stack[-1][0]):
                _, done, cover = stack.pop()
                row = rows[done["cat"]]
                row[0] += 1
                row[1] += done["dur"]
                row[2] += max(done["dur"] - cover, 0.0)
                if stack:
                    stack[-1][2] += done["dur"]
            if ev is not None:
                stack.append([ev["ts"] + ev["dur"], ev, 0.0])
    lines = [f"{'layer':<12} {'spans':>8} {'busy ms':>11} {'self ms':>11}"]
    for cat, (count, busy, self_us) in sorted(rows.items(),
                                              key=lambda kv: -kv[1][1]):
        lines.append(f"{cat:<12} {count:>8} {busy / 1e3:>11.3f} "
                     f"{self_us / 1e3:>11.3f}")
    return "\n".join(lines)


def validate_trace(workload, trace_path):
    summary = os.path.join(ROOT, "tools", "trace_summary.py")
    if not os.path.isfile(summary):
        return [f"{summary} not found"]
    cmd = [sys.executable, summary, trace_path, "--expect-thread", "bench"]
    if workload != "learn":
        for thread in STAGE_THREADS:
            cmd += ["--expect-thread", thread]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    log(proc.stdout.rstrip())
    if proc.returncode != 0:
        log(proc.stderr.rstrip())
        return [f"trace_summary.py rejected {trace_path}"]
    print(layer_table(trace_path))
    return []


def run_workload(binary, spec, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (result line or None, problems).

    Checkpoints go to a scratch directory and the trace file next to the
    binary, both inside the build directory.
    """
    out_dir = os.path.dirname(os.path.abspath(binary))
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work_dir]
    trace_path = None
    if trace:
        trace_path = os.path.join(out_dir, f"trace-{workload}.json")
        cmd += ["--trace-out", trace_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: no result within {RUN_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, [f"{workload}: no output (exit {proc.returncode})"]
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, [f"{workload}: last line is not JSON: {lines[-1]!r}"]
    problems = check_result(result, expected_metrics(spec, trace))
    if proc.returncode != 0 or not result.get("correct"):
        problems.append(f"{workload}: outputs failed verification")
    if trace:
        dropped = result["metrics"].get("obs.trace_dropped", {}).get("value")
        if dropped:
            problems.append(f"{workload}: trace rings dropped {dropped} spans")
        problems += validate_trace(workload, trace_path)
    return lines[-1], problems


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this relborg_bench, skip the build")
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(names)}")
        binary = args.binary or build()
        if not os.access(binary, os.X_OK):
            raise BenchError(f"{binary} is not executable")
    except BenchError as err:
        log(f"run.py: {err}")
        return 2

    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else names
    modes = (0, 1) if args.smoke else (args.trace,)
    results = {}
    problems = []
    for workload in workloads:
        for trace in modes:
            result, found = run_workload(binary, spec, workload, args.seed,
                                         seconds, trace, args.smoke)
            results[workload] = result
            problems += found
    for p in problems:
        log(f"run.py: {p}")
    if len(workloads) == 1 and results[workloads[0]] is not None:
        print(results[workloads[0]])
    elif len(workloads) > 1:
        print(json.dumps({w: r and json.loads(r) for w, r in results.items()}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
