#!/usr/bin/env python3
"""Tests of run.py's output and trace checks.

    python3 perfbench/test_run.py

Only the real-run test needs the executables run.py builds; it is skipped
until they exist.
"""

import copy
import json
import resource
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record_for(workload, seed):
    """A record whose fingerprint is the pinned reference."""
    fingerprint = run.load("reference.json")[workload][str(seed)]
    return {"completed": True, "fingerprint": copy.deepcopy(fingerprint)}


def traced_record(covers):
    """A consistent traced record: 100 ticks of run loop, 60 of children."""
    boundaries = {b: {"calls": 0, "self_ticks": 0, "in_loop_self_ticks": 0}
                  for b in run.BOUNDARIES}
    for b in covers:
        boundaries[b] = {"calls": 3, "self_ticks": 0, "in_loop_self_ticks": 0}
    boundaries["net.stream_send"].update(self_ticks=25, in_loop_self_ticks=20)
    boundaries["core.metrics_record"].update(self_ticks=40,
                                             in_loop_self_ticks=40)
    boundaries["sim.run_loop"] = {"calls": 1, "self_ticks": 40,
                                  "in_loop_self_ticks": 0}
    return {"trace": {"ticks_per_s": 1e6, "loop_total_ticks": 100,
                      "boundaries": boundaries}}


class FingerprintCheck(unittest.TestCase):
    def test_every_pinned_fingerprint_passes(self):
        for workload, seeds in run.load("reference.json").items():
            for seed, expected in seeds.items():
                self.assertEqual(run.fingerprint_problems(
                    record_for(workload, seed), expected), [])

    def test_each_perturbed_field_is_caught(self):
        expected = run.load("reference.json")["narada-dbn-4000"]["1"]
        for key in run.FINGERPRINT_KEYS:
            record = record_for("narada-dbn-4000", 1)
            value = record["fingerprint"][key]
            record["fingerprint"][key] = (value * (1 + 1e-12) + 1e-9
                                          if isinstance(value, float)
                                          else value + 1)
            problems = run.fingerprint_problems(record, expected)
            self.assertTrue(any(p.startswith(key) for p in problems), key)

    def test_the_other_pinned_seed_does_not_match(self):
        expected = run.load("reference.json")["rgma-dist-1000"]["1"]
        self.assertNotEqual(run.fingerprint_problems(
            record_for("rgma-dist-1000", 2), expected), [])

    def test_a_run_that_hit_a_wall_fails(self):
        record = record_for("mqtt-highrate-100", 1)
        record["completed"] = False
        self.assertNotEqual(run.fingerprint_problems(
            record, record["fingerprint"]), [])


@unittest.skipUnless(run.PLAIN.is_file(), "run run.py once to build")
class FingerprintCheckOnARealRun(unittest.TestCase):
    def test_real_run_matches_its_pin_and_not_a_perturbed_one(self):
        workload = run.load("workloads.json")["workloads"]["hier-narada-1m"]
        expected = run.load("reference.json")["hier-narada-1m"]["2"]
        record = run.call(run.PLAIN, workload, 2)
        self.assertEqual(run.fingerprint_problems(record, expected), [])
        perturbed = dict(expected, late=expected["late"] + 1)
        self.assertEqual(run.fingerprint_problems(record, perturbed),
                         [f"late = {record['fingerprint']['late']}, "
                          f"expected {perturbed['late']}"])

    def test_peak_rss_is_the_programs_own(self):
        # getrusage's ru_maxrss in a child started by vfork() can never read
        # below the parent's own peak; the program's VmHWM can.
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workloads = run.load("workloads.json")["workloads"]
        peaks = [run.call(run.PLAIN, w, 1)["peak_rss_kb"]
                 for w in workloads.values()]
        self.assertGreater(len(set(peaks)), 1, peaks)
        self.assertLess(min(peaks), own_kb, (peaks, own_kb))


class TraceCheck(unittest.TestCase):
    covers = ("sim.run_loop", "net.stream_send", "core.metrics_record")

    def test_consistent_trace_passes(self):
        self.assertEqual(run.trace_problems(traced_record(self.covers),
                                            self.covers), [])

    def test_unaccounted_run_loop_time_is_caught(self):
        record = traced_record(self.covers)
        record["trace"]["loop_total_ticks"] += 5
        self.assertIn("miss sim.run_loop",
                      " ".join(run.trace_problems(record, self.covers)))

    def test_boundary_without_calls_is_caught(self):
        record = traced_record(self.covers)
        problems = run.trace_problems(record, self.covers + ("rgma.poll",))
        self.assertEqual(problems, ["rgma.poll recorded no calls"])


class Configuration(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        bench = run.load_benchmark()
        workloads = run.load("workloads.json")["workloads"]
        reference = run.load("reference.json")
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads))
        self.assertEqual(sorted(names), sorted(reference))
        for name in names:
            self.assertEqual(sorted(reference[name]),
                             sorted(str(s) for s in run.PINNED_SEEDS))
            for boundary in workloads[name]["covers"]:
                self.assertIn(boundary, run.BOUNDARIES + ("sim.run_loop",))

    def test_per_layer_names_match_the_traced_metrics(self):
        names = {m["name"] for m in run.load_benchmark()["per_layer"]}
        for b in run.BOUNDARIES:
            self.assertIn(f"{b}.calls", names)
            self.assertIn(f"{b}.self_s", names)


if __name__ == "__main__":
    unittest.main()
