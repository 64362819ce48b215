#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload serve_cold --seeds 1-10 --seconds 8

For every metric: the median of the runs and the quartile spread, (Q3 - Q1)
/ median with statistics.quantiles(n=4), next to the bound BENCHMARK.json
fixes for it. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

import stats  # noqa: E402


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=True).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        diagnostics = [l for l in out.splitlines() if l.startswith("diagnostics")]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + (diagnostics[0] if diagnostics else ""), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = stats.quartile_spread(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name)
        print(f"{name:<24} median {stats.median(series):<12.6g} spread {spread:<8.4f} "
              f"bound {bound}  values {[round(v, 6) for v in series]}")


if __name__ == "__main__":
    main()
