"""Self-tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

They need no build: they pin the statistics, the open-loop accounting,
the correctness gate and the build check.
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from harness import build, gate, stats, traced  # noqa: E402
from harness.stats import Record  # noqa: E402

MS = 1_000_000  # ns


def rec(due_ms, done_ms, sent_ms=None, ok=True, rid=0):
    sent = due_ms if sent_ms is None else sent_ms
    done = -1 if done_ms is None else int(done_ms * MS)
    return Record(rid, int(due_ms * MS), int(sent * MS), done, ok, 7, "ok",
                  "-")


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        self.assertIsNone(stats.tail_percentile(list(range(999)), 0.99))
        self.assertIsNotNone(stats.tail_percentile(list(range(1000)), 0.99))

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(19)), 0.5))
        self.assertEqual(stats.tail_percentile(list(range(1, 21)), 0.5), 10)

    def test_nearest_rank_value(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values, 0.99), 990)
        self.assertEqual(stats.tail_percentile(values[::-1], 0.5), 500)

    def test_other_percentiles_follow_the_same_rule(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertIsNone(stats.tail_percentile(list(range(9999)), 0.999))
        self.assertIsNotNone(stats.tail_percentile(list(range(10000)), 0.999))


class OpenLoopAccounting(unittest.TestCase):
    def test_latency_is_timed_from_due(self):
        r = rec(due_ms=10, sent_ms=15, done_ms=16)
        self.assertEqual(stats.due_latencies_ms([r]), [6.0])
        self.assertEqual(stats.sent_latencies_ms([r]), [1.0])
        self.assertEqual(stats.send_lags_ms([r]), [5.0])

    def test_stall_is_charged_to_later_requests(self):
        # Requests due every ms; the server stalls and answers them all
        # at 10 ms. Timed from the send, each would look like it took
        # only what the stall left; timed from due, the early ones carry
        # the whole wait.
        records = [rec(due_ms=i, done_ms=10) for i in range(10)]
        self.assertEqual(stats.due_latencies_ms(records),
                         [10.0 - i for i in range(10)])

    def test_unanswered_requests_have_no_latency(self):
        records = [rec(0, 1), rec(1, None)]
        self.assertEqual(stats.due_latencies_ms(records), [1.0])
        self.assertFalse(records[1].answered)

    def test_record_round_trips_the_loadgen_line(self):
        r = Record.parse("42 1000 1500 9000 1 31337 ok -")
        self.assertEqual((r.id, r.due, r.sent, r.done, r.ok, r.cycles,
                          r.check, r.error),
                         (42, 1000, 1500, 9000, True, 31337, "ok", "-"))


def fake_sweep():
    """A two-config, two-workload tia-sweep document."""
    return {
        "schema": "tia-sweep/v1", "jobs": 4, "sizes": "full",
        "cpi_matrix": {
            "wall_ms": 12.5,
            "workloads": ["bst", "gcd"],
            "configs": ["TDX", "T|DX"],
            "cpi": [[1.25, 1.5], [1.75, 2.0]],
            "cycles": [[100, 200], [300, 400]],
            "status": [["ok", "ok"], ["ok", "ok"]],
        },
        "dse": {"wall_ms": 1.0, "pareto": [
            {"config": "TDX", "vt": "svt", "vdd": 0.8, "edp": 3.5}]},
    }


def golden_for(doc):
    outputs = gate.sweep_outputs(doc)
    return {"sweep_digest": gate.digest(outputs),
            "configs": outputs["configs"],
            "workloads": outputs["workloads"],
            "cycles_full": outputs["cycles"]}


class DigestGate(unittest.TestCase):
    def setUp(self):
        self.doc = fake_sweep()
        self.golden = golden_for(self.doc)

    def test_untampered_matrix_passes(self):
        cells, failed, _, problems = gate.check_sweep(self.doc, self.golden)
        self.assertEqual((cells, failed, problems), (4, 0, []))

    def test_host_fields_do_not_change_the_digest(self):
        other = copy.deepcopy(self.doc)
        other["jobs"] = 1
        other["cpi_matrix"]["wall_ms"] = 99.0
        other["dse"]["wall_ms"] = 7.0
        self.assertEqual(gate.check_sweep(other, self.golden)[1], 0)

    def test_tampered_cycles_fail_every_cell(self):
        self.doc["cpi_matrix"]["cycles"][1][0] += 1
        cells, failed, _, problems = gate.check_sweep(self.doc, self.golden)
        self.assertEqual(failed, cells)
        self.assertTrue(any("digest" in p for p in problems))

    def test_tampered_cpi_and_frontier_fail(self):
        cpi = copy.deepcopy(self.doc)
        cpi["cpi_matrix"]["cpi"][0][1] = 1.5000001
        self.assertEqual(gate.check_sweep(cpi, self.golden)[1], 4)
        pareto = copy.deepcopy(self.doc)
        pareto["dse"]["pareto"][0]["edp"] = 3.6
        self.assertEqual(gate.check_sweep(pareto, self.golden)[1], 4)

    def test_corrupted_pinned_digest_fails(self):
        self.golden["sweep_digest"] = "0" * 64
        self.assertEqual(gate.check_sweep(self.doc, self.golden)[1], 4)

    def test_cell_not_ok_is_counted(self):
        self.doc["cpi_matrix"]["status"][0][1] = "deadlock"
        golden = golden_for(self.doc)
        cells, failed, _, problems = gate.check_sweep(self.doc, golden)
        self.assertEqual((cells, failed), (4, 1))
        self.assertTrue(problems)

    def test_expected_cycles_lookup(self):
        self.assertEqual(gate.expected_cycles(self.golden, "full", "gcd",
                                              "T|DX"), 400)

    def test_pinned_golden_is_complete(self):
        golden = gate.load_golden()
        self.assertEqual(len(golden["sweep_digest"]), 64)
        for sizes in ("full", "small"):
            matrix = golden["cycles_" + sizes]
            self.assertEqual(len(matrix), len(golden["configs"]))
            self.assertTrue(all(len(row) == len(golden["workloads"])
                                and all(c > 0 for c in row)
                                for row in matrix))


class BuildStamp(unittest.TestCase):
    def stamp(self, build_type, flags):
        return {"build_type": build_type, "cxx_flags": flags,
                "compiler_id": "GNU", "compiler_version": "12"}

    def test_optimised_builds_pass(self):
        self.assertEqual(build.check_stamp(self.stamp("Release",
                                                      "-O3 -DNDEBUG")), [])
        self.assertEqual(build.check_stamp(
            self.stamp("RelWithDebInfo", "-O2 -g -DNDEBUG")), [])

    def test_unoptimised_builds_are_refused(self):
        self.assertTrue(build.check_stamp(self.stamp("Debug", "-g")))
        self.assertTrue(build.check_stamp(self.stamp("", "")))
        self.assertTrue(build.check_stamp(
            self.stamp("Release", "-O3 -fsanitize=address")))


class Spec(unittest.TestCase):
    def setUp(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_per_layer_units_match_what_the_traced_run_reports(self):
        for m in self.spec["per_layer"]:
            self.assertEqual(traced.unit_for(m["name"]), m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
