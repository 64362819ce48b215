#!/usr/bin/env python3
"""EDGE end-to-end benchmark: the supervised serving fleet and NYMA-sim training.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 8 --trace 0

Run from the repository root. The first run builds the programs from source
into .bench_build/. --seed draws the request lines and the reload schedule;
the programs see only the generated files. The last stdout line is the result
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
perfbench/README.md defines every workload and metric.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

import checker  # noqa: E402
import procstat  # noqa: E402
import stats  # noqa: E402
from fleet import Fleet, LineClient  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt",
           "tools/edge_cli.cc", "tools/edge_router.cc", "tools/edge_serve.cc",
           "tools/tool_args.h")

CORPUS_TWEETS = 12000  # NYMA-sim at full scale.
RATE = 4000.0          # req/s, about a fifth of where serve_cold saturates.
CONNS = 2              # generator connections (and threads).
BRINGUPS = 3           # fleet bring-ups per serving run; setup_s is their median.
COLD_WARMUP = 2000     # cold lines sent before the timed window.
SLICES = 5             # equal-count slices of each fleet's window (see p50_ms).
RELOAD_EVERY_MS = 500.0
IDLE_RELOADS = 8       # serve_cold: timed reloads of each idle fleet.
# (entity2vec, MDN) epochs of every Fit, train_nyma's and the served
# checkpoint's alike: the defaults cut by 5x.
EPOCHS = (10, 20)
TRAIN_SETUPS = 9

# Workloads and metrics, with their units, as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
WORKLOADS = {w["name"]: w["why"] for w in _BENCH["workloads"]}
END_TO_END = [(m["name"], m["unit"]) for m in _BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCH["per_layer"]]
# Per-layer figures of the Fit the workload runs, as edge_perfbench reports them.
FIT_LAYERS = ("data.pipeline_s", "embedding.entity2vec_s", "graph.build_ms",
              "core.epochs_s", "graph.gcn_forward_s", "nn.backward_s",
              "core.mdn_head_s", "core.rollbacks", "train.cpu_ratio")


STARTED = time.monotonic()


def log(message):
    print(f"[{time.monotonic() - STARTED:7.2f}s] {message}", file=sys.stderr, flush=True)


def tool(name):
    return os.path.join(BUILD, {"edge_cli": "edge_tools/edge_cli",
                                "edge_router": "edge_tools/edge_router",
                                "edge_serve": "edge_tools/edge_serve",
                                "edge_perfbench": "edge_perfbench"}[name])


def build():
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise SystemExit(f"perfbench: source tree incomplete, missing {missing}")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench-build.log"), "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target",
                      "edge_cli", "edge_router", "edge_serve_tool", "edge_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise SystemExit(f"perfbench: build failed, see {out.name}")


def run_tool(name, command, *flags, timeout=120):
    """Runs one subcommand of a built program and returns its stdout."""
    result = subprocess.run([tool(name), command] + [str(f) for f in flags],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            timeout=timeout)
    if result.returncode != 0:
        raise RuntimeError(f"{name} {command} failed:\n"
                           + result.stderr.decode(errors="replace")[-3000:])
    return result.stdout.decode()


def helper(command, *flags, timeout=120):
    """Runs one edge_perfbench subcommand and parses its JSON summary."""
    return json.loads(run_tool("edge_perfbench", command, *flags,
                               timeout=timeout).strip().splitlines()[-1])


def corpus(workdir):
    """Samples the NYMA-sim corpus with the repository's own simulator into
    workdir/tweets.tsv, and its gazetteer into workdir/tweets.tsv.gazetteer.tsv.
    The world's own seed is kept: Table III quality moves 20-26% between
    corpus seeds, far more than any regression the benchmark must catch."""
    run_tool("edge_cli", "simulate", "--world", "nyma", "--tweets", CORPUS_TWEETS,
             "--out", os.path.join(workdir, "tweets.tsv"))


# --- serving ------------------------------------------------------------------


def read_records(path):
    """The generator's per-request records: (kind, line, due, sent, recv, answer),
    times in seconds from the stream start, None where it never happened."""
    records = []
    with open(path) as f:
        for row in f:
            kind, line, due, sent, recv, answer = row.rstrip("\n").split("\t", 5)
            sent, recv = int(sent), int(recv)
            records.append((kind, int(line), int(due) * 1e-9,
                            sent * 1e-9 if sent >= 0 else None,
                            recv * 1e-9 if recv >= 0 else None,
                            answer if recv >= 0 else None))
    return records


def reload_first_ms(seed):
    """The seeded phase of the reload schedule, in [250, 500) ms."""
    return 250.0 + (seed * 2654435761) % 250000 / 1000.0


def drive(fleet, workdir, tag, lines, seconds, start=0, reloads=None):
    """Runs the open-loop generator; `reloads` is (first_ms, paths) or None."""
    out = os.path.join(workdir, tag + ".records.tsv")
    flags = ["--port", fleet.port, "--lines", lines, "--rate", RATE,
             "--seconds", seconds, "--conns", CONNS, "--start", start, "--out", out]
    if reloads:
        flags += ["--reload-every-ms", RELOAD_EVERY_MS, "--reload-first-ms", reloads[0],
                  "--reload-paths", ",".join(reloads[1])]
    helper("drive", *flags, timeout=seconds + 60)
    return read_records(out)


def measure_fleet(fleet, workdir, tag, lines, seconds, start, reloads, idle_paths):
    """Warms one fleet up, drives its share of the timed window and measures
    it from /proc around the window. The warm-up sends the first COLD_WARMUP
    lines, which no window sends. Then the idle fleet takes the `idle_paths`
    reloads, timed one at a time."""
    drive(fleet, workdir, tag + ".warmup", lines, COLD_WARMUP / RATE)
    cpu_before, host_before = procstat.tree_cpu(fleet.pid), procstat.cpu_times()
    records = drive(fleet, workdir, tag, lines, seconds, start, reloads)
    host_after = procstat.cpu_times()
    part = {"records": records,
            "cpu": procstat.cpu_delta(cpu_before, procstat.tree_cpu(fleet.pid)),
            "router_pid": fleet.pid,
            "host_ticks": [after - before for before, after in zip(host_before, host_after)],
            "rss_mib": sum(procstat.peak_rss_mib(pid) for pid in fleet.pids()),
            "idle_reload_ms": [], "idle_failed": 0}
    client = LineClient(fleet.port)
    try:
        for k, path in enumerate(idle_paths):
            request_id = f"idle-reload{k}"
            begin = time.monotonic()
            answer = client.ask(json.dumps({"id": request_id, "reload": path}))
            part["idle_reload_ms"].append((time.monotonic() - begin) * 1e3)
            part["idle_failed"] += checker.check_reload(answer, request_id) is not None
    finally:
        client.close()
    part["stats"] = fleet.stats()
    return part


def check_part(records, reference, reload_models):
    """Checks every answer of one fleet's window. Returns (attempted, failed,
    reasons, parsed): parsed[i] is record i's answer object when correct."""
    generations = checker.generation_models(0, reload_models)
    failed, reasons, parsed = 0, {}, []
    predict_id = reload_id = 0
    for kind, line, _, _, _, answer in records:
        if kind == "p":
            expected = [ref[line] for ref in reference]
            reason = checker.check_predict(answer, str(predict_id), expected, generations)
            predict_id += 1
        else:
            reason = checker.check_reload(answer, f"reload{reload_id}")
            reload_id += 1
        if reason is not None:
            failed += 1
            reasons[reason] = reasons.get(reason, 0) + 1
        parsed.append(json.loads(answer) if reason is None and kind == "p" else None)
    return len(records), failed, reasons, parsed


def latency_summary(records):
    """Due-time latencies (ms) of answered predicts, generator lateness (us)
    and reload ack times (ms)."""
    latencies = [(recv - due) * 1e3 for kind, _, due, _, recv, _ in records
                 if kind == "p" and recv is not None]
    lateness = [(sent - due) * 1e6 for kind, _, due, sent, _, _ in records
                if kind == "p" and sent is not None]
    reloads = [(recv - sent) * 1e3 for kind, _, _, sent, recv, _ in records
               if kind == "r" and recv is not None]
    return latencies, lateness, reloads


def layer_figures(parts, expect, fleets):
    """Per-layer metrics of one serving run, measured from outside."""
    def median_or_zero(values):
        return stats.median(values) if values else 0.0

    telemetry, hops, router_cpu, replica_cpu = [], [], 0.0, 0.0
    cache_hits, failovers, degraded = 0, 0, 0
    for part in parts:
        for (kind, _, _, sent, recv, _), answer in zip(part["records"], part["parsed"]):
            if answer is None:
                continue
            t = answer["telemetry"]
            telemetry.append(t)
            cache_hits += answer["from_cache"]
            hops.append((recv - sent) * 1e6 - t["stages"]["total_ms"] * 1e3)
        router_cpu += part["cpu"].get(part["router_pid"], 0.0)
        replica_cpu += sum(v for pid, v in part["cpu"].items() if pid != part["router_pid"])
        failovers += part["stats"]["router"]["failovers"]
        degraded += sum(r.get("reply", {}).get("stats", {}).get("breakdown", {})
                        .get("degraded", 0) for r in part["stats"]["replicas"])
    batched = [t for t in telemetry if t["batch_size"] > 0]
    answered = max(1, len(telemetry))

    def stage_us(rows, stage):
        return median_or_zero([t["stages"][stage] * 1e3 for t in rows])

    figures = {
        "serve.queue_us": stage_us(batched, "queue_ms"),
        "serve.batch_us": stage_us(batched, "batch_ms"),
        "serve.predict_us": stage_us(batched, "predict_ms"),
        "serve.ner_us": stage_us(telemetry, "ner_ms"),
        "serve.cache_us": stage_us(telemetry, "cache_ms"),
        "serve.total_us": stage_us(telemetry, "total_ms"),
        "serve.batch_size": (sum(t["batch_size"] for t in batched) / len(batched)
                             if batched else 0.0),
        "serve.cache_hit_ratio": cache_hits / answered,
        "router.hop_us": median_or_zero(hops),
        "router.cpu_us_per_req": router_cpu * 1e6 / answered,
        "replica.cpu_us_per_req": replica_cpu * 1e6 / answered,
        "router.admit_s": stats.median([f.setup_s - f.replica_listen_s for f in fleets]),
        "router.failovers": failovers,
        "serve.degraded": degraded,
    }
    for key in ("text.ner_us", "serve.decode_us", "serve.render_us", "core.predict_us",
                "core.store_open_ms", "serve.reload_inproc_ms"):
        figures[key] = expect[key]
    return figures


def write_client_trace(path, parts, limit=2000):
    """Chrome trace of the first `limit` answered requests: each client span
    (send to answer) parents its replica waterfall, laid out from the answer's
    own telemetry stages and centred in the router hop."""
    events = []
    for k, part in enumerate(parts):
        for i, ((kind, _, _, sent, recv, _), answer) in enumerate(
                zip(part["records"], part["parsed"])):
            if answer is None or len(events) >= 2 * 7 * limit:
                continue
            t0, t1 = sent * 1e6, recv * 1e6
            stages = answer["telemetry"]["stages"]
            total = stages["total_ms"] * 1e3
            cursor = t0 + max(0.0, (t1 - t0 - total) / 2)
            spans = [("client.request", t0, t1), ("replica.total", cursor, cursor + total)]
            for stage in ("ner_ms", "cache_ms", "queue_ms", "batch_ms", "predict_ms"):
                spans.append(("replica." + stage[:-3], cursor, cursor + stages[stage] * 1e3))
                cursor += stages[stage] * 1e3
            for name, begin, end in spans:
                common = {"name": name, "cat": "perfbench", "id": f"{k}.{i}",
                          "pid": k, "tid": 0}
                events.append(dict(common, ph="b", ts=begin))
                events.append(dict(common, ph="e", ts=end))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def run_serve(workload, seed, seconds, trace, workdir):
    """One serving run: three fleet bring-ups, each driven for a third of the
    timed window, every answer checked, results pooled."""
    corpus(workdir)
    reload = workload == "serve_reload"
    part_lines = int(RATE * seconds / BRINGUPS)
    window_lines = part_lines * BRINGUPS
    prep_flags = ["--seed", seed, "--dir", workdir, "--cold-lines", COLD_WARMUP + window_lines,
                  "--e2v-epochs", EPOCHS[0], "--epochs", EPOCHS[1]]
    if trace:
        prep_flags += ["--trace-out", os.path.join(workdir, "serve-prep.trace.json")]
    prep = helper("serve-prep", *prep_flags)
    log("corpus, checkpoints and request lines ready")
    gazetteer = os.path.join(workdir, "tweets.tsv.gazetteer.tsv")
    models = [os.path.join(workdir, "model_a.edge"), os.path.join(workdir, "model_b.edge")]

    # The reference answers cover exactly the lines the timed windows send,
    # under every checkpoint a window can serve them from.
    lines = os.path.join(workdir, "cold.jsonl")
    with open(lines) as f:
        sent = f.read().splitlines()[COLD_WARMUP:COLD_WARMUP + window_lines]
    reference_lines = os.path.join(workdir, "window.jsonl")
    with open(reference_lines, "w") as f:
        f.write("\n".join(sent) + "\n")
    reference_models = models if reload else models[:1]
    prefix = os.path.join(workdir, "reference")
    expect_flags = ["--gazetteer", gazetteer, "--lines", reference_lines,
                    "--models", ",".join(reference_models), "--out-prefix", prefix]
    if trace:
        expect_flags += ["--trace-out", os.path.join(workdir, "expect.trace.json")]
    expect = helper("expect", *expect_flags, timeout=150)
    # Window line i is request line COLD_WARMUP + i.
    reference = [[None] * COLD_WARMUP + checker.load_reference(f"{prefix}.{k}.jsonl")
                 for k in range(len(reference_models))]
    log("in-process reference answers ready")
    with open(lines) as f:
        probe = json.dumps(dict(json.loads(f.readline()), id="probe"))

    reloads = None
    idle_paths = [models[1], models[0]] * (IDLE_RELOADS // 2)
    if reload:
        reloads, idle_paths = (reload_first_ms(seed), [models[1], models[0]]), []
    # A traced run traces fleets 0 and 2 and keeps fleet 1 untraced, the
    # reference for the tracing overhead.
    fleets, parts = [], []
    try:
        for k in range(BRINGUPS):
            fleet = Fleet(tool("edge_router"), tool("edge_serve"), models[0], gazetteer,
                          workdir, f"fleet{k}", trace=trace and k != 1)
            fleets.append(fleet)
            fleet.start(probe)
            log(f"{workload}: fleet {k} up in {fleet.setup_s:.4f} s")
            parts.append(measure_fleet(fleet, workdir, f"window{k}", lines, part_lines / RATE,
                                       COLD_WARMUP + k * part_lines, reloads, idle_paths))
            fleet.stop()
            log(f"{workload}: fleet {k} measured and stopped")
    finally:
        for fleet in fleets:
            fleet.stop()

    attempted = failed = 0
    reasons = {}
    for part in parts:
        n_reloads = sum(1 for r in part["records"] if r[0] == "r")
        part_attempted, part_failed, part_reasons, part["parsed"] = check_part(
            part["records"], reference, [1 - j % 2 for j in range(n_reloads)])
        attempted += part_attempted + len(part["idle_reload_ms"])
        failed += part_failed + part["idle_failed"]
        for reason, count in part_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count

    log(f"answers checked: {failed} of {attempted} operations failed")
    measured = [p for k, p in enumerate(parts) if not (trace and k == 1)]
    latencies, lateness, reload_acks, p50s, p90s, cpu_per_req = [], [], [], [], [], []
    for part in measured:
        part_latencies, part_lateness, part_reloads = latency_summary(part["records"])
        latencies += part_latencies
        lateness += part_lateness
        reload_acks += part_reloads + part["idle_reload_ms"]
        # Slices in due order: a host stall shows in a few slices' figures,
        # and the medians across slices and fleets pass over it.
        p50s += stats.slice_percentiles(part_latencies, 50, SLICES)
        p90s += stats.slice_percentiles(part_latencies, 90, SLICES)
        cpu_per_req.append(sum(part["cpu"].values()) * 1e6 / len(part_latencies))
    end_to_end = {
        "setup_s": stats.median([f.setup_s for f in fleets]),
        "p50_ms": stats.median(p50s),
        "p90_ms": stats.median(p90s),
        "cpu_us_per_req": stats.median(cpu_per_req),
        "reload_ms": stats.median(reload_acks),
        "rss_mib": stats.median([p["rss_mib"] for p in parts]),
        "train_s": prep["train_s"],
        "median_km": prep["median_km"],
        "acc_3km": prep["acc_3km"],
        "acc_5km": prep["acc_5km"],
    }
    p99, beyond99 = stats.tail(latencies, 99)
    p999, beyond999 = stats.tail(latencies, 99.9)
    host_ticks = [sum(p["host_ticks"][i] for p in measured) for i in range(2)]
    diagnostics = {
        "bring-ups_s": [round(f.setup_s, 4) for f in fleets],
        "steal_share": round(procstat.steal_share((0, 0), host_ticks), 4),
        "lateness_p50_us": round(stats.median(lateness), 1),
        "lateness_max_us": round(max(lateness), 1),
        "pooled_p50_ms": round(stats.percentile(latencies, 50), 4),
        "pooled_p90_ms": round(stats.percentile(latencies, 90), 4),
        "p99_ms": round(p99, 4), "p99_samples_beyond": beyond99,
        "p999_ms": round(p999, 4), "p999_samples_beyond": beyond999,
        "predicts": len(latencies), "failed_by_reason": reasons,
    }
    layers = None
    if trace:
        layers = layer_figures(measured, expect, fleets)
        layers.update({key: prep[key] for key in FIT_LAYERS})
        untraced = latency_summary(parts[1]["records"])[0]
        layers["trace.overhead_p50_ms"] = (
            end_to_end["p50_ms"] - stats.median_of_slices(untraced, 50, SLICES))
        write_client_trace(os.path.join(workdir, "client.trace.json"), measured)
    return end_to_end, layers, attempted, failed, diagnostics


# --- training -----------------------------------------------------------------


def run_train(seed, trace, workdir):
    corpus(workdir)
    flags = ["--seed", seed, "--dir", workdir, "--e2v-epochs", EPOCHS[0],
             "--epochs", EPOCHS[1], "--setups", TRAIN_SETUPS]
    if trace:
        flags += ["--trace-out", os.path.join(workdir, "train.trace.json")]
    result = helper("train", *flags, timeout=170)
    end_to_end = {name: result[name] for name, _ in END_TO_END}
    layers = None
    if trace:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update({key: result[key] for key in FIT_LAYERS})
        layers["trace.overhead_p50_ms"] = result["traced_p50_ms"] - result["p50_ms"]
    diagnostics = {"test_tweets": int(result["test_tweets"]),
                   "served_predicts": int(result["samples"])}
    return (end_to_end, layers, int(result["attempted"]), int(result["failed"]),
            diagnostics)


# --- report -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # SIGTERM (a harness timeout) unwinds through the finally blocks that stop fleets.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    build()
    os.makedirs(RUNS, exist_ok=True)
    name = f"{args.workload}-trace" if args.trace else f"{args.workload}-{os.getpid()}"
    workdir = os.path.join(RUNS, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.workload == "train_nyma":
            result = run_train(args.seed, args.trace, workdir)
        else:
            result = run_serve(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        if args.trace:
            # Keep the traces, metrics and fleet configs; drop the bulk.
            for name in os.listdir(workdir):
                if name.endswith((".records.tsv", ".jsonl", "tweets.tsv")):
                    os.remove(os.path.join(workdir, name))
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    end_to_end, layers, attempted, failed, diagnostics = result

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {WORKLOADS[args.workload]}")
    print(f"operations: {attempted} attempted, {failed} failed")
    table = END_TO_END if not args.trace else PER_LAYER
    values = end_to_end if not args.trace else layers
    for metric, unit in table:
        print(f"  {metric:<24} {values[metric]:>14.6g} {unit}")
    print("diagnostics (not gated): " + json.dumps(diagnostics))
    if args.trace:
        print(f"trace files: {workdir}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
