#!/usr/bin/env python3
"""Prints the benchmark trajectory tables from the committed BENCH_*.json.

Usage: python3 tools/bench_summary.py [repo_root]

Reads BENCH_model_store.json, BENCH_serve.json and BENCH_obs.json from the
repo root (the copies committed by each perf PR) and renders them as aligned
tables, so a reviewer can see the performance story without opening JSON.
Exits non-zero if a file is missing or malformed — CI uses that as a "did
the PR ship its numbers" check.
"""

import json
import os
import sys


def load(root, name):
    path = os.path.join(root, name)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(1)


def table(title, headers, rows):
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."

    store = load(root, "BENCH_model_store.json")
    rows = []
    for r in store.get("cold_load", []):
        speedup = r["text_ms"] / max(r["mmap_fast_ms"], 1e-9)
        rows.append(
            (
                r["entities"],
                f'{r["text_ms"]:.1f}',
                f'{r["binary_full_ms"]:.2f}',
                f'{r["mmap_fast_ms"]:.3f}',
                f"{speedup:.0f}x",
                f'{r["text_rss_kib"]} KiB',
                f'{r["mmap_rss_kib"]} KiB',
            )
        )
    table(
        "model store: cold load (text parse vs binary verify vs mmap)",
        ("entities", "text ms", "full ms", "mmap ms", "speedup", "text RSS", "mmap RSS"),
        rows,
    )

    rows = []
    for r in store.get("hot_reload", []):
        rows.append((r["entities"], r["format"], f'{r["p50_ms"]:.2f}', f'{r["p99_ms"]:.2f}'))
    table(
        "model store: GeoService hot reload latency (ms)",
        ("entities", "format", "p50", "p99"),
        rows,
    )

    acc = store.get("accuracy", [])
    fp64 = next((r for r in acc if r["precision"] == "fp64"), None)
    rows = []
    for r in acc:
        delta = r["median_km"] - fp64["median_km"] if fp64 else 0.0
        rows.append(
            (
                r["precision"],
                r["bytes"],
                f'{r["median_km"]:.4f}',
                f"{delta:+.4f} km",
                f'{r["acc_3km"]:.4f}',
                f'{r["acc_5km"]:.4f}',
            )
        )
    table(
        "model store: accuracy vs embedding precision"
        f' (int8 budget: {store.get("int8_budget", "?")})',
        ("precision", "bytes", "median km", "delta", "Acc@3km", "Acc@5km"),
        rows,
    )

    serve = load(root, "BENCH_serve.json")
    rows = []
    for r in serve.get("runs", []):
        rows.append(
            (
                r["max_batch"],
                r["workers"],
                "on" if r.get("cache") else "off",
                f'{r["qps"]:.0f}',
                f'{r["p50_ms"]:.2f}',
                f'{r["p99_ms"]:.2f}',
            )
        )
    table(
        "serve: closed-loop load sweep",
        ("max_batch", "workers", "cache", "QPS", "p50 ms", "p99 ms"),
        rows,
    )

    obs = load(root, "BENCH_obs.json")
    rows = []
    baseline = None
    for r in obs.get("runs", []):
        if baseline is None:
            baseline = r["qps"]
        overhead = (1.0 - r["qps"] / baseline) * 100 if baseline else 0.0
        rows.append((r["mode"], f'{r["qps"]:.0f}', f'{r["p99_ms"]:.2f}', f"{overhead:+.1f}%"))
    table(
        "serve: observability overhead",
        ("mode", "QPS", "p99 ms", "QPS overhead"),
        rows,
    )
    print()


if __name__ == "__main__":
    main()
