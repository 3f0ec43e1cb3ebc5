"""What the benchmark measures: workloads, metrics and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 bench/run.py --write-spec`` regenerates that file from it,
and the self-test fails when the two disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 35

WORKLOADS = [
    ("cyclic-plot",
     "the paper's headline paper-table1 run with --plot: engine, 4.7 MB CSV "
     "and 1 MB SVG, the only workload that uses every output layer"),
    ("spindle-stall",
     "pyramid, spindle5 and spindle10 without a plot: all corners engaged, "
     "saturation events and an early tripod stall, another engine path"),
    ("sweep-spool",
     "sweep of gearbox.spool_radius_mm over seeded radii in 5-10 mm across "
     "the tip threshold: no trace written, engine and per-point config only"),
]

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

# Printed with the end-to-end metrics but not gated.  Every iteration of a
# workload simulates the same program time, so sim_s_per_s is a constant
# over wall_s and its gate would repeat that of wall_s; ops_failed_ratio is
# 0 on a correct program and is carried by the result's attempted/failed.
REPORTED = [
    ("sim_s_per_s", "1/s"),
]

# Per-layer metrics of the traced run; each layer is one module of
# src/geogami.  NOTES.md says which end-to-end metric each should move.
PER_LAYER = [
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("config.load_calls", "count", "lower"),
    ("config.validate_s", "s", "lower"),
    ("config.validate_calls", "count", "lower"),
    ("config.build_s", "s", "lower"),
    ("config.write_s", "s", "lower"),
    ("config.write_bytes", "bytes", "lower"),
    ("transmission.calls", "count", "lower"),
    ("transmission.s", "s", "lower"),
    ("compliance.calls", "count", "lower"),
    ("compliance.s", "s", "lower"),
    ("kinematics.world_com_calls", "count", "lower"),
    ("kinematics.radii_calls", "count", "lower"),
    ("kinematics.mass_offset_xy_calls", "count", "lower"),
    ("kinematics.s", "s", "lower"),
    ("locomotion.run_s", "s", "lower"),
    ("locomotion.self_s", "s", "lower"),
    ("locomotion.step_calls", "count", "lower"),
    ("locomotion.tipping_check_calls", "count", "lower"),
    ("locomotion.tipping_check_s", "s", "lower"),
    ("locomotion.records", "count", "lower"),
    ("locomotion.events", "count", "higher"),
    ("locomotion.events_per_tip_check", "ratio", "higher"),
    ("locomotion.write_csv_s", "s", "lower"),
    ("locomotion.csv_bytes", "bytes", "lower"),
    ("svgplot.trace_svg_s", "s", "lower"),
    ("svgplot.points", "count", "lower"),
    ("svgplot.svg_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(benchmark_text())
    return path
