"""Traced run of one geogami CLI invocation.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 bench/tracer.py OUT_STEM -- simulate --preset paper-table1 ...

Before calling ``geogami.cli.main(argv)`` this wraps the public functions
of every module with a span recorder, under the names their callers use:
the modules import each other by name, so a function is patched in the
namespace it is called from.  Spans stay in memory and are written out
when ``main`` returns: ``OUT_STEM.json`` holds the span names, counters and
span count, ``OUT_STEM.bin`` the span arrays (see ``read_spans``).  The
wrappers cost about half of the engine's run time, so no end-to-end
number may come from a traced run.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

SPAN_ARRAYS = (("fid", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Span recorder: one array entry per wrapped call, parent by index."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.arrays = {key: array(code) for key, code in SPAN_ARRAYS}
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents = self.arrays["fid"], self.arrays["parent"]
        starts, ends = self.arrays["start"], self.arrays["end"]
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str,
              count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced version named ``name``."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(name, static.__func__, count)))
        else:
            setattr(owner, attr, self.wrap(name, static, count))

    def write(self, stem: Path) -> None:
        with open(f"{stem}.bin", "wb") as handle:
            for key, _ in SPAN_ARRAYS:
                self.arrays[key].tofile(handle)
        meta = {"names": self.names, "counters": dict(self.counters),
                "spans": len(self.arrays["fid"])}
        Path(f"{stem}.json").write_text(json.dumps(meta))


def read_spans(stem: Path) -> Dict[str, object]:
    """Load what ``Tracer.write`` stored: names, counters and span arrays."""
    meta = json.loads(Path(f"{stem}.json").read_text())
    n = meta["spans"]
    with open(f"{stem}.bin", "rb") as handle:
        for key, code in SPAN_ARRAYS:
            values = array(code)
            values.fromfile(handle, n)
            meta[key] = values
    return meta


def layer_metrics(spans: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation.

    A span's layer is the first part of its name.  A layer's time ``.s`` is
    the time of the spans that enter it from another layer; a self time is
    a span's duration minus the durations of its child spans.
    """
    names = spans["names"]
    layers = [name.split(".", 1)[0] for name in names]
    fids, parents = spans["fid"], spans["parent"]
    starts, ends = spans["start"], spans["end"]
    n = len(fids)
    duration = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += duration[i]
    total: Counter = Counter()
    calls: Counter = Counter()
    own: Counter = Counter()
    layer_own: Counter = Counter()
    entry_s: Counter = Counter()
    entry_calls: Counter = Counter()
    for i in range(n):
        fid, parent = fids[i], parents[i]
        name, layer = names[fid], layers[fid]
        total[name] += duration[i]
        calls[name] += 1
        own[name] += duration[i] - child[i]
        layer_own[layer] += duration[i] - child[i]
        if parent < 0 or layers[fids[parent]] != layer:
            entry_s[layer] += duration[i]
            entry_calls[layer] += 1
    counters = spans["counters"]
    return {
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "config.load_s": total["config.load_preset"],
        "config.load_calls": calls["config.load_preset"],
        "config.validate_s": total["config.validate"],
        "config.validate_calls": calls["config.validate"],
        "config.build_s": total["config.build_simulator"],
        "config.write_s": total["config.write_atomic"],
        "config.write_bytes": counters.get("config.write_bytes", 0),
        "transmission.calls": entry_calls["transmission"],
        "transmission.s": entry_s["transmission"],
        "compliance.calls": entry_calls["compliance"],
        "compliance.s": entry_s["compliance"],
        "kinematics.world_com_calls": calls["kinematics.world_com"],
        "kinematics.radii_calls": calls["kinematics.radii"],
        "kinematics.mass_offset_xy_calls": calls["kinematics.mass_offset_xy"],
        "kinematics.s": entry_s["kinematics"],
        "locomotion.run_s": total["locomotion.run"],
        # the engine's own time: the CSV writer runs outside Simulator.run
        "locomotion.self_s": layer_own["locomotion"]
        - own["locomotion.write_csv"],
        "locomotion.step_calls": calls["locomotion.step"],
        "locomotion.tipping_check_calls": calls["locomotion.tipping_check"],
        "locomotion.tipping_check_s": total["locomotion.tipping_check"],
        "locomotion.records": counters.get("locomotion.records", 0),
        "locomotion.events": counters.get("locomotion.events", 0),
        "locomotion.write_csv_s": total["locomotion.write_csv"],
        "locomotion.csv_bytes": counters.get("locomotion.csv_bytes", 0),
        "svgplot.trace_svg_s": total["svgplot.trace_svg"],
        "svgplot.points": counters.get("svgplot.points", 0),
        "svgplot.svg_bytes": counters.get("svgplot.svg_bytes", 0),
        "trace.spans": n,
    }


def install(tracer: Tracer) -> Callable:
    """Wrap every layer's entry points; return the traced ``cli.main``."""
    from geogami import cli, config, locomotion, transmission

    def count_write(counters, args, _result):
        counters["config.write_bytes"] += len(args[1].encode())

    def count_svg(counters, args, result):
        counters["svgplot.points"] += len(args[0])
        counters["svgplot.svg_bytes"] += len(result.encode())

    def count_run(counters, _args, trace):
        counters["locomotion.records"] += len(trace.records)
        counters["locomotion.events"] += len(trace.events)

    def count_csv(counters, args, _result):
        # the CLI writes into a fresh StringIO; its position is the length
        counters["locomotion.csv_bytes"] += args[1].tell()

    tracer.patch(cli, "load_preset", "config.load_preset")
    tracer.patch(cli, "write_atomic", "config.write_atomic", count_write)
    for attr in ("validate", "build_simulator", "build_gearbox", "from_dict",
                 "to_dict"):
        tracer.patch(config.RunConfig, attr, f"config.{attr}")
    for attr in ("driver_angle", "spool_angle", "cable_retraction",
                 "motor_angle_for_retraction", "phase_velocity",
                 "spool_torque", "cable_force", "cable_force_from_motor_torque",
                 "motor_torque_for_cable_force"):
        tracer.patch(transmission, attr, f"transmission.{attr}")
    for attr in ("cyclic", "spindle", "constant"):
        tracer.patch(transmission.EngagementSchedule, attr,
                     f"transmission.schedule_{attr}")
    for attr in ("cable_series_stiffness", "default_joint_model",
                 "return_angle"):
        tracer.patch(locomotion, attr, f"compliance.{attr}")
    for attr in ("world_com", "radii", "mass_offset_xy"):
        tracer.patch(locomotion, attr, f"kinematics.{attr}")
    tracer.patch(locomotion, "tipping_check", "locomotion.tipping_check")
    tracer.patch(locomotion.Simulator, "run", "locomotion.run", count_run)
    tracer.patch(locomotion.Simulator, "step", "locomotion.step")
    tracer.patch(locomotion.SimTrace, "write_csv", "locomotion.write_csv",
                 count_csv)
    tracer.patch(cli, "trace_svg", "svgplot.trace_svg", count_svg)
    tracer.patch(cli, "main", "cli.main")
    return cli.main


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_STEM -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(argv[2:])
    tracer.write(Path(argv[0]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
