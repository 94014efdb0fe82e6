#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload crwan_code --seeds 1-10 [--trace 0]

Run from the repository root. For every metric it prints the median, the
quartiles and the spread (inter-quartile distance over median) across the
runs, next to the metric's bound from BENCHMARK.json. The bounds are set from
these spreads (README.md, "Bounds"): a metric whose spread is not within its
bound is marked "WIDE". It also prints the share of failed operations, which
must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d: run.py exited with %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)

    print("%-34s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, mid, q3 = statistics.quantiles(vals, n=4)
        spread = stats.spread(vals)
        bound = bounds.get(name)
        flag = "WIDE" if bound is not None and spread > bound else ""
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, q1, mid, q3, spread, "-" if bound is None else bound, flag))
    print("failed share / correct per run: %s" % sorted(shares))


if __name__ == "__main__":
    main()
