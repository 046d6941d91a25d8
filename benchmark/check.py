#!/usr/bin/env python3
"""Repeatability evidence for the benchmark, from the built binary.

  check.py spread      ten runs per workload, each with another seed; for each
                       end-to-end metric the distance between the first and
                       third quartile (statistics.quantiles, n=4) as a share of
                       the median, against the metric's bound in BENCHMARK.json.
  check.py self-check  two sets (A, B) of three runs per workload on one seed,
                       interleaved A1 B1 A2 B2 A3 B3 with the workload order
                       rotated each pass, so minute-scale host drift lands on
                       both sets the way a parent/change pair sees it; per
                       metric and workload each set's median and quartiles, how
                       much worse B's median is than A's, and the bound.

Both exit non-zero on a breach. Every run is a fresh process.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = SPEC["end_to_end"]
# What a seed fixes exactly: identical across runs of one seed.
EXACT = ("final_rmse",)
# Runs per workload of a spread, as the driver makes them.
SPREAD_RUNS = 10


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def spread(args):
    breaches = 0
    print(f"{'workload':<11} {'metric':<18} {'median':>14} {'iqr/median':>11} {'bound':>7}  verdict")
    for workload in WORKLOADS:
        runs = []
        for i in range(SPREAD_RUNS):
            runs.append(run_once(args.bin, workload, args.seed + i, args.seconds))
            print(f"  {workload} seed {args.seed + i}: {json.dumps(runs[-1])}", file=sys.stderr)
        for metric in METRICS:
            name = metric["name"]
            q1, q2, q3 = quartiles([r[name] for r in runs])
            share = (q3 - q1) / q2
            if name == "setup_s":
                verdict = "not gated on spread"
            elif share > metric["bound"]:
                verdict, breaches = "BREACH", breaches + 1
            elif share > metric["bound"] / 3:
                verdict = "above a third of the bound"
            else:
                verdict = "ok"
            print(f"{workload:<11} {name:<18} {q2:>14.6g} {share:>11.4f} {metric['bound']:>7}  {verdict}")
    return breaches


def self_check(args):
    sets = {w: {"A": [], "B": []} for w in WORKLOADS}
    order = list(WORKLOADS)
    for _ in range(3):
        for label in ("A", "B"):
            for workload in order:
                sets[workload][label].append(run_once(args.bin, workload, args.seed, args.seconds))
                print(f"  {workload} {label}{len(sets[workload][label])}: "
                      f"{json.dumps(sets[workload][label][-1])}", file=sys.stderr)
            order = order[1:] + order[:1]
    breaches = 0
    print(f"{'workload':<11} {'metric':<18} {'A q1/median/q3':>38} {'B q1/median/q3':>38} "
          f"{'B worse by':>11} {'bound':>7}  verdict")
    for workload in WORKLOADS:
        for metric in METRICS:
            name = metric["name"]
            a = quartiles([r[name] for r in sets[workload]["A"]])
            b = quartiles([r[name] for r in sets[workload]["B"]])
            # Either set may play the parent: take the worse direction.
            deviation = max(worse_by(metric, a[1], b[1]), worse_by(metric, b[1], a[1]))
            verdict = "ok"
            if deviation > metric["bound"]:
                verdict, breaches = "BREACH", breaches + 1
            if name in EXACT and {r[name] for s in sets[workload].values() for r in s} != {a[1]}:
                verdict, breaches = "NOT EXACT", breaches + 1
            fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
            print(f"{workload:<11} {name:<18} {fmt(a):>38} {fmt(b):>38} {deviation:>11.4f} "
                  f"{metric['bound']:>7}  {verdict}")
    return breaches


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("mode", choices=("spread", "self-check"))
    parser.add_argument("--bin", required=True, help="the built rex-benchmark binary")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    breaches = spread(args) if args.mode == "spread" else self_check(args)
    if breaches:
        sys.exit(f"{breaches} metric x workload pairs outside their bound")
    print("every metric x workload pair is within its bound")


if __name__ == "__main__":
    main()
