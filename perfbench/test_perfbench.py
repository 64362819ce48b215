#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Covers the percentile and sample-count math, the per-process CPU accounting
across a parent's spawned children, and the answer checker (a corrupted
answer must count as failed). The last test drives a real edge_serve against
the in-process reference; it runs once .bench_build/ holds the built tools
(any benchmark run builds them) and is skipped before that.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

import checker  # noqa: E402
import procstat  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(list(range(1, 11)), 90), 9.1)
        self.assertEqual(stats.percentile([3.0], 99.9), 3.0)
        self.assertEqual(stats.percentile([5, 1, 3], 0), 1)
        self.assertEqual(stats.percentile([5, 1, 3], 100), 5)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 101)

    def test_samples_beyond(self):
        # Ranks above floor(q/100 * (n-1)).
        self.assertEqual(stats.samples_beyond(100, 99), 1)
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(1001, 99), 10)
        self.assertEqual(stats.samples_beyond(32000, 99), 320)
        self.assertEqual(stats.samples_beyond(32000, 99.9), 32)
        self.assertEqual(stats.samples_beyond(1, 50), 0)
        self.assertEqual(stats.samples_beyond(0, 50), 0)
        values = list(range(1000))
        p, beyond = stats.tail(values, 99)
        self.assertEqual(beyond, sum(1 for v in values if v > p))

    def test_median_of_slices_ignores_a_stall_in_a_minority_of_slices(self):
        steady = [1.0, 2.0, 3.0] * 20
        self.assertEqual(stats.median_of_slices(steady, 50, 5), 2.0)
        stalled = steady[:36] + [50.0] * 24  # The last two of five slices.
        self.assertEqual(stats.median_of_slices(stalled, 50, 5), 2.0)
        self.assertGreater(stats.percentile(stalled, 90), 40)
        # The last slice takes the remainder: p50s of [0, 1, 2] and [3..6].
        self.assertEqual(stats.median_of_slices(list(range(7)), 50, 2), 2.75)
        with self.assertRaises(ValueError):
            stats.median_of_slices([1.0], 50, 2)

    def test_quartile_spread_matches_statistics(self):
        values = [2.1, 2.3, 2.0, 2.2, 2.5, 2.4, 2.6, 2.2, 2.3, 2.1]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)


BURNER = """
import signal, subprocess, sys, time
burn = ("import time\\nt = time.process_time()\\n"
        "while time.process_time() - t < 0.3: pass\\n"
        "print('done', flush=True)\\ntime.sleep(60)")
children = [subprocess.Popen([sys.executable, "-c", burn], stdout=subprocess.PIPE)
            for _ in range(2)]
for child in children:
    child.stdout.readline()
print("ready", flush=True)
time.sleep(60)
"""


class ProcessAccountingTest(unittest.TestCase):
    def test_tree_cpu_counts_each_spawned_child(self):
        parent = subprocess.Popen([sys.executable, "-c", BURNER], stdout=subprocess.PIPE,
                                  start_new_session=True)
        try:
            self.assertEqual(parent.stdout.readline().strip(), b"ready")
            kids = procstat.children(parent.pid)
            self.assertEqual(len(kids), 2)
            usage = procstat.tree_cpu(parent.pid)
            self.assertEqual(sorted(usage), sorted([parent.pid] + kids))
            # Each child burned 0.3 s of its own CPU clock; /proc/<pid>/stat
            # holds the same total in ticks.
            ticks_per_s = os.sysconf("SC_CLK_TCK")
            for kid in kids:
                self.assertGreaterEqual(usage[kid], 0.3)
                with open(f"/proc/{kid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()  # From field 3.
                self.assertAlmostEqual(usage[kid], (int(fields[11]) + int(fields[12]))
                                       / ticks_per_s, delta=3 / ticks_per_s)
            # The parent's own figure excludes its (unreaped) children.
            self.assertLess(usage[parent.pid], 0.3)
            self.assertTrue(procstat.command(kids[0]).startswith("python"))
            self.assertGreater(procstat.peak_rss_mib(parent.pid), 0.0)
        finally:
            os.killpg(parent.pid, signal.SIGKILL)
            parent.wait()
            parent.stdout.close()

    def test_cpu_delta_counts_new_pids_from_zero_and_drops_exited(self):
        before = {1: 1.0, 2: 5.0}
        after = {1: 1.5, 3: 0.25}
        self.assertEqual(procstat.cpu_delta(before, after), {1: 0.5, 3: 0.25})

    def test_cpu_seconds_raises_once_the_process_is_gone(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        with self.assertRaises(OSError):
            procstat.cpu_seconds(child.pid)

    def test_command_is_none_once_exited(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        pid = child.pid
        while procstat.command(pid) is not None:  # Running, then a zombie.
            time.sleep(0.01)
        child.wait()
        self.assertIsNone(procstat.command(pid))

    def test_steal_share(self):
        self.assertEqual(procstat.steal_share((100, 5), (300, 15)), 0.05)
        self.assertEqual(procstat.steal_share((100, 5), (100, 5)), 0.0)


REFERENCE = {
    "point": {"lat": 40.75, "lon": -73.98},
    "components": [{"weight": 1, "center": {"lat": 40.75, "lon": -73.98},
                    "sigma_x_km": 1.5, "sigma_y_km": 2.5, "rho": 0.1,
                    "ellipse95": {"center": {"lat": 40.75, "lon": -73.98},
                                  "semi_major_km": 6.1, "semi_minor_km": 3.7,
                                  "angle_rad": 1.2}}],
    "attention": [{"entity": "times_square", "weight": 1}],
}
OTHER = dict(REFERENCE, point={"lat": 40.70, "lon": -73.90})


def served(request_id="7", generation=1, **overrides):
    answer = dict(REFERENCE, id=request_id, used_fallback=False, from_cache=True,
                  degraded=False, degrade_reason="none", latency_ms=0.1,
                  telemetry={"request_id": 3, "generation": generation, "batch_size": 0,
                             "stages": {"ner_ms": 0.01, "cache_ms": 0.001,
                                        "queue_ms": 0, "batch_ms": 0,
                                        "predict_ms": 0, "total_ms": 0.02}})
    answer.update(overrides)
    return json.dumps(answer)


class CheckerTest(unittest.TestCase):
    generations = checker.generation_models(0, [1, 0])

    def check(self, answer, request_id="7"):
        return checker.check_predict(answer, request_id, [REFERENCE, OTHER],
                                     self.generations)

    def test_generation_models(self):
        self.assertEqual(self.generations, {1: 0, 2: 1, 3: 0})

    def test_exact_answer_passes_whatever_its_cache_flag(self):
        self.assertIsNone(self.check(served()))
        self.assertIsNone(self.check(served(from_cache=False)))

    def test_answer_is_judged_against_its_own_generation(self):
        self.assertEqual(self.check(served(generation=2)), "point mismatch")
        self.assertIsNone(self.check(served(generation=2, point=OTHER["point"])))
        self.assertEqual(self.check(served(generation=4)), "unknown generation")
        self.assertEqual(self.check(served(telemetry=None)), "unknown generation")

    def test_corrupted_answers_fail(self):
        good = served()
        self.assertEqual(self.check(good.replace("40.75", "40.76", 1)), "point mismatch")
        components = json.loads(good)
        components["components"][0]["rho"] = 0.2
        self.assertEqual(self.check(json.dumps(components)), "components mismatch")
        attention = json.loads(good)
        attention["attention"][0]["entity"] = "broadway"
        self.assertEqual(self.check(json.dumps(attention)), "attention mismatch")
        truncated = json.loads(good)
        del truncated["attention"]
        self.assertEqual(self.check(json.dumps(truncated)), "attention mismatch")
        self.assertEqual(self.check(good[:-5]), "unparseable")
        self.assertEqual(self.check("[1, 2]"), "not an object")

    def test_missing_error_degraded_and_misrouted_answers_fail(self):
        self.assertEqual(self.check(None), "missing")
        self.assertEqual(
            self.check('{"error":"no replica available","degraded":true,"retryable":true}'),
            "error answer")
        self.assertEqual(self.check(served(degraded=True)), "degraded")
        self.assertEqual(self.check(served(request_id="8")), "id mismatch")

    def test_reload_acks(self):
        ok = {"id": "reload0", "reload": "ok",
              "replicas": [{"addr": "a", "reply": {"reload": "ok", "generation": 2}},
                           {"addr": "b", "reply": {"reload": "ok", "generation": 2}}]}
        self.assertIsNone(checker.check_reload(json.dumps(ok), "reload0"))
        self.assertEqual(checker.check_reload(json.dumps(ok), "reload1"), "id mismatch")
        self.assertEqual(checker.check_reload(None, "reload0"), "missing")
        failed = json.loads(json.dumps(ok))
        failed["replicas"][1]["reply"]["reload"] = "failed"
        self.assertEqual(checker.check_reload(json.dumps(failed), "reload0"),
                         "replica reload not ok")
        failed["reload"] = "failed"
        self.assertEqual(checker.check_reload(json.dumps(failed), "reload0"),
                         "reload not ok")


ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HELPER = os.path.join(BUILD, "edge_perfbench")
CLI = os.path.join(BUILD, "edge_tools", "edge_cli")
SERVE = os.path.join(BUILD, "edge_tools", "edge_serve")


@unittest.skipUnless(all(os.path.exists(p) for p in (HELPER, CLI, SERVE)),
                     "tools not built yet; any benchmark run builds them")
class CheckerAgainstEdgeServeTest(unittest.TestCase):
    def test_served_answers_match_reference_and_corruption_fails(self):
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_run")) as work:
            def run(*argv):
                subprocess.run([str(a) for a in argv], check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            run(CLI, "simulate", "--world", "nyma", "--tweets", 12000,
                "--out", os.path.join(work, "tweets.tsv"))
            run(HELPER, "serve-prep", "--seed", 5, "--dir", work, "--cold-lines", 20,
                "--e2v-epochs", 1, "--epochs", 1)
            lines_path = os.path.join(work, "cold.jsonl")
            gazetteer = os.path.join(work, "tweets.tsv.gazetteer.tsv")
            model = os.path.join(work, "model_a.edge")
            run(HELPER, "expect", "--gazetteer", gazetteer, "--lines", lines_path,
                "--models", model, "--out-prefix", os.path.join(work, "ref"))
            reference = checker.load_reference(os.path.join(work, "ref.0.jsonl"))
            with open(lines_path) as f:
                lines = [json.dumps(dict(json.loads(l), id=str(i)))
                         for i, l in enumerate(f.read().splitlines())]
            answers = subprocess.run(
                [SERVE, "--model", model, "--gazetteer", gazetteer],
                input="\n".join(lines) + "\n", capture_output=True, text=True,
                check=True).stdout.splitlines()
            self.assertEqual(len(answers), len(lines))
            generations = checker.generation_models(0, [])
            for i, answer in enumerate(answers):
                self.assertIsNone(
                    checker.check_predict(answer, str(i), [reference[i]], generations))
            corrupted = answers[0].replace('"point":{"lat":', '"point":{"lat":1', 1)
            self.assertEqual(
                checker.check_predict(corrupted, "0", [reference[0]], generations),
                "point mismatch")
            # Another line's reference never matches: answers are line-specific.
            self.assertIsNotNone(
                checker.check_predict(answers[0], "0", [reference[1]], generations))


if __name__ == "__main__":
    unittest.main()
