#!/usr/bin/env python3
"""Checks how steady the benchmark is: runs one workload once per seed and
reports, per metric, the median and the quartile spread as a share of it.

    python3 perfbench/spread.py --workload cold_fetch --seeds 1 2 3 4 5

A metric's spread is (q3 - q1) / median over the runs, with the quartiles from
statistics.quantiles(values, n=4). BENCHMARK.json's bound for each end-to-end
metric should be at least three times the spread seen here.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=os.path.dirname(HERE), check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}")
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        if got != expected:
            print(f"seed {seed}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                          for n, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"{name:>14}: median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:>14}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
