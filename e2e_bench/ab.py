#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark on two checkouts.

    python3 e2e_bench/ab.py --parent ../parent --change . [--pairs 10]
        [--workload ingest] [--seed 1000]

Both checkouts must hold the same benchmark code: a change that claims a
gain may not edit the benchmark. Each checkout builds and runs its own
e2e_bench/run.py into its own .bench_build/, for the run_seconds that
BENCHMARK.json fixes. Pair i runs seed (--seed + i) on both sides, and
which side runs first alternates from pair to pair. Choose a --seed range
not used while writing the change.

For each workload and end-to-end metric it prints both sides' median and
quartiles, how many pairs the change won (ties count for neither side) and
a verdict, using the directions and bounds in the parent's BENCHMARK.json:

  gain        the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range;
  unresolved  either side's interquartile range, relative to its median,
              exceeds the bound, and not every change run beats every
              parent run;
  regression  the change's median is worse than the parent's by more than
              the bound;
  same        otherwise.

Exit status: 1 when a metric regressed, a change run failed verification
or the change failed more operations than the parent; otherwise 3 when a
metric is unresolved; 0 when every metric is a gain or the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_AND_RUN_TIMEOUT_S = 1200


def run_once(checkout, workload, seed):
    cmd = [sys.executable, os.path.join("e2e_bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    # Each checkout builds into its own .bench_build/.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=BUILD_AND_RUN_TIMEOUT_S,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ab.py: {checkout}: no result for {workload} seed {seed}:"
                 f"\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def rel(width, median):
    return width / abs(median) if median else 0.0


def verdict(parent, change, better, bound):
    """Returns (wins, verdict) for one metric's paired values."""
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is better
    wins = sum(1 for p, c in zip(parent, change) if (p - c) * sign > 0)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gain = (p_med - c_med) * sign
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return wins, "gain"
    all_better = min(parent) > max(change) if sign > 0 else \
        max(parent) < min(change)
    spread_rel = max(rel(p_q3 - p_q1, p_med), rel(c_q3 - c_q1, c_med))
    if spread_rel > bound and not all_better:
        return wins, "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return wins, "regression"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("ab.py: at least 10 pairs are needed to claim anything")

    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    ok = True
    unresolved = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload,
                                           args.seed + i))
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        wrong = {s: sum(not r["correct"] for r in runs[s]) for s in runs}
        print(f"\n{workload}: failed ops parent {failed['parent']} change "
              f"{failed['change']}; runs failing verification parent "
              f"{wrong['parent']} change {wrong['change']}")
        if wrong["change"] or failed["change"] > failed["parent"]:
            ok = False
        print(f"{'metric':<14} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'wins':>7} verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            wins, v = verdict(p, c, m["better"], m["bound"])
            if v == "regression":
                ok = False
            unresolved = unresolved or v == "unresolved"
            print(f"{name:<14} {spread(p):>34} {spread(c):>34} "
                  f"{wins:>3}/{len(p):<3} {v}")
    if not ok:
        return 1
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
