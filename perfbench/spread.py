#!/usr/bin/env python3
"""Run one workload with several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload corpus --runs 10 [--first-seed 1]
                                [--trace 0] [--seconds S] [--out results.json]

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of that median (the steadiness a
metric's bound in BENCHMARK.json must accommodate), next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", help="override run_seconds of BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds or str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    print(f"{'metric':<32} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<32} {median:>14.6g} {share:>11.4f} {bound if bound is not None else '-':>6}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
