"""Self-test of the benchmark's own logic; no geogami process is started.

Run from the repository root::

    python3 bench/selftest.py

It feeds the output checks a wrong summary, a reordered event column, a
failing exit and bad sweep rows, and requires each to count as a failed
operation.  It also pins the seeded inputs, the span arithmetic and that
BENCHMARK.json is the one ``spec.py`` generates.
"""

from __future__ import annotations

import tempfile
import unittest
from array import array
from pathlib import Path

import run
import spec
import tracer
import workloads

CYCLIC = workloads.Invocation(("simulate",), mode="cyclic", plot=True)
SWEEP = workloads.Invocation(("sweep",), sweep_values=(5.5, 8.25))
GOOD_SUMMARY = "wrote x\nwrote y\nrolls=4 travel_mm=593.1 stall=no\n"


def trace_csv(events, last_time=36.1) -> str:
    rows = [workloads.TRACE_HEADER]
    for k, token in enumerate(events):
        rows.append(f"{k * 0.001:.9f},0,0,0,0,0,0,0,0,0,0,0,0,{token}")
        rows.append(f"{k * 0.001:.9f},0,0,0,0,0,0,0,0,0,0,0,0,")
    rows.append(f"{last_time:.9f},0,0,0,0,0,0,0,0,0,0,0,0,")
    return "\n".join(rows) + "\n"


def sweep_csv(rows) -> str:
    return "\n".join([workloads.SWEEP_HEADER, *rows]) + "\n"


class CheckTest(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        self.dir = Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def failures(self, inv, code=0, stdout=GOOD_SUMMARY, stderr="") -> int:
        tally = run.Tally()
        tally.add(inv.label, workloads.check(inv, code, stdout, stderr,
                                             self.dir))
        self.assertEqual(tally.attempted, 1)
        return tally.failed

    def write_cyclic(self, events) -> None:
        (self.dir / "trace_cyclic.csv").write_text(trace_csv(events))
        (self.dir / "trace_cyclic.svg").write_text("<svg>\n</svg>\n")

    def test_correct_simulate_passes(self) -> None:
        self.write_cyclic(workloads.REFERENCE_EVENTS["cyclic"])
        outcome = workloads.check(CYCLIC, 0, GOOD_SUMMARY, "", self.dir)
        self.assertEqual(outcome.problems, [])
        self.assertAlmostEqual(outcome.sim_s, 36.1)
        self.assertEqual(len(outcome.sha256["trace_cyclic.csv"]), 64)

    def test_wrong_summary_fails(self) -> None:
        self.write_cyclic(workloads.REFERENCE_EVENTS["cyclic"])
        self.assertEqual(self.failures(
            CYCLIC, stdout="rolls=3 travel_mm=444.8 stall=no\n"), 1)

    def test_reordered_events_fail(self) -> None:
        events = list(workloads.REFERENCE_EVENTS["cyclic"])
        events[1], events[2] = events[2], events[1]
        self.write_cyclic(events)
        self.assertEqual(self.failures(CYCLIC), 1)

    def test_failing_exit_fails(self) -> None:
        self.write_cyclic(workloads.REFERENCE_EVENTS["cyclic"])
        self.assertEqual(self.failures(CYCLIC, code=2,
                                       stderr="error: bad input\n"), 1)

    def test_traceback_fails(self) -> None:
        self.write_cyclic(workloads.REFERENCE_EVENTS["cyclic"])
        self.assertEqual(self.failures(
            CYCLIC, stderr="Traceback (most recent call last):\n"), 1)

    def test_missing_outputs_fail(self) -> None:
        self.assertEqual(self.failures(CYCLIC), 1)

    def test_sweep_rows(self) -> None:
        good = ["5.5,0,0.000,2.6,no", "8.25,4,593.133,1.7,no"]
        bad = {
            "stall": ["5.5,0,0.000,2.6,yes", good[1]],
            "rolls": ["5.5,2,296.566,2.6,no", good[1]],
            "no roll": [good[0], "8.25,0,0.000,1.7,no"],
            "travel": [good[0], "8.25,4,590.000,1.7,no"],
            "missing row": [good[0]],
            "value": ["5.6,0,0.000,2.6,no", good[1]],
        }
        cases = [("good", good, 0)] + [(k, v, 1) for k, v in bad.items()]
        for name, rows, expected in cases:
            with self.subTest(name):
                text = sweep_csv(rows)
                (self.dir / "sweep.csv").write_text(text)
                self.assertEqual(
                    self.failures(SWEEP, stdout=text + "wrote sweep.csv\n"),
                    expected)


class InputTest(unittest.TestCase):
    def test_spool_values_are_seeded_and_cross_the_threshold(self) -> None:
        for seed in range(50):
            values = workloads.spool_values(seed)
            self.assertEqual(values, workloads.spool_values(seed))
            self.assertEqual(len(values), workloads.SWEEP_POINTS)
            self.assertEqual(values, tuple(sorted(values)))
            self.assertTrue(5.0 <= values[0] and values[1] <= 6.2)
            self.assertTrue(6.6 <= values[2] and values[3] <= 10.0)
        self.assertNotEqual(workloads.spool_values(1),
                            workloads.spool_values(2))

    def test_every_workload_has_invocations(self) -> None:
        for name, _ in spec.WORKLOADS:
            self.assertTrue(workloads.invocations(name, 1, "out"))

    def test_benchmark_json_matches_spec(self) -> None:
        committed = (run.ROOT / "BENCHMARK.json").read_text()
        self.assertEqual(committed, spec.benchmark_text())


class TraceMathTest(unittest.TestCase):
    def test_self_and_layer_times(self) -> None:
        # cli.main [0, 10] > locomotion.run [1, 9] > kinematics.radii [2, 4]
        spans = {
            "names": ["cli.main", "locomotion.run", "kinematics.radii"],
            "counters": {"locomotion.events": 3},
            "fid": array("i", [0, 1, 2]),
            "parent": array("i", [-1, 0, 1]),
            "start": array("d", [0.0, 1.0, 2.0]),
            "end": array("d", [10.0, 9.0, 4.0]),
        }
        metrics = tracer.layer_metrics(spans)
        self.assertEqual(metrics["cli.main_s"], 10.0)
        self.assertEqual(metrics["cli.self_s"], 2.0)
        self.assertEqual(metrics["locomotion.run_s"], 8.0)
        self.assertEqual(metrics["locomotion.self_s"], 6.0)
        self.assertEqual(metrics["kinematics.s"], 2.0)
        self.assertEqual(metrics["kinematics.radii_calls"], 1)
        self.assertEqual(metrics["locomotion.events"], 3)

    def test_tail_needs_ten_samples_beyond(self) -> None:
        self.assertIsNone(run.tail(list(range(39))))
        self.assertEqual(run.tail(list(range(40))), (75.0, 30))


if __name__ == "__main__":
    unittest.main()
