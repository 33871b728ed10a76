#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each end-to-end metric's
median and spread, the way a regression check reads them.

Run from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--workload W ...]

Each run uses its own seed (seed0, seed0 + 1, ...). The spread of a
metric is the distance between the first and third quartile of its
values (`statistics.quantiles(values, n=4)`) as a share of their median;
it is printed beside the metric's bound from BENCHMARK.json and flagged
when it exceeds a third of the bound. Exits 1 if any run fails or is
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect, {result['failed']} failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.runs} runs")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            flag = "  <-- over a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:22s} median {med:12.5g}  spread {spread:6.3f}  bound {bound:5.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
