#!/usr/bin/env python3
"""Checks int8 embedding quantization against the committed budgets.

    python3 tools/check_quantization_budget.py BENCH_model_store.json \\
        build/BENCH_model_store.json

The first file is the committed BENCH_model_store.json (its "int8_budget"
holds the budgets); the second is a fresh `model_store_benchmarks
--accuracy-only` run. int8 is compared with fp64 on the paper's Table III
metrics: the median error may rise by at most `median_km` km, and Acc@3km
and Acc@5km may each fall by at most `acc_3km_points` / `acc_5km_points`
percentage points. Exits 1 when any budget is exceeded.
"""
import json
import sys


def main(committed_path, fresh_path):
    with open(committed_path) as f:
        budget = json.load(f)["int8_budget"]
    with open(fresh_path) as f:
        rows = {r["precision"]: r for r in json.load(f)["accuracy"]}
    fp64, int8 = rows["fp64"], rows["int8"]
    costs = [
        ("median_km", int8["median_km"] - fp64["median_km"], "km", budget["median_km"]),
        ("acc_3km", (fp64["acc_3km"] - int8["acc_3km"]) * 100.0, "points",
         budget["acc_3km_points"]),
        ("acc_5km", (fp64["acc_5km"] - int8["acc_5km"]) * 100.0, "points",
         budget["acc_5km_points"]),
    ]
    failed = False
    for name, cost, unit, limit in costs:
        ok = cost <= limit
        failed |= not ok
        print(f"int8 {name}: costs {cost:+.4f} {unit} against fp64 "
              f"(budget {limit}) {'ok' if ok else 'OVER BUDGET'}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
