"""Benchmark workloads: CLI invocations made from a seed, and output checks.

The program under test receives only the generated CLI arguments.  Every
check returns a list of problems; an invocation with any problem counts as
a failed operation.  Nothing here imports geogami, so the checks stay
independent of the code they judge.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PRESET = "paper-table1"
PROGRAM_DURATION_S = 36.1          # paper-table1 program.duration_s
ROLL_TRAVEL_MM = 148.283           # pi/2 * 94.4 mm, one cyclic roll
# the paper's 5-10 mm spool design range, split at the tip threshold
SPOOL_NO_ROLL_MM = (5.0, 6.2)
SPOOL_ROLL_MM = (6.6, 10.0)
SWEEP_POINTS = 4
SPINDLE_MODES = ("pyramid", "spindle5", "spindle10")

TRACE_HEADER = ("t_s,theta_m_rad,phi_rad,xG_mm,yG_mm,"
                "L1_mm,L2_mm,L3_mm,L4_mm,T1_N,T2_N,T3_N,T4_N,event")
SWEEP_HEADER = "value,rolls,travel_mm,max_tension_N,stall"

EXPECTED_SUMMARY = {
    "cyclic": "rolls=4 travel_mm=593.1 stall=no",
    "pyramid": "rolls=0 travel_mm=0.0 stall=yes",
    "spindle5": "rolls=0 travel_mm=0.0 stall=yes",
    "spindle10": "rolls=0 travel_mm=0.0 stall=yes",
}

# Event column of each trace at the default dt, recorded from the seed
# commit.  spindle5 lacks saturation:4 (a tie with corner 2 that the engine
# drops); NOTES.md lists it as a known defect.
_CYCLE = ("tip:+ roll_complete:+ engagement_end:{c} engagement_start:{n}")
REFERENCE_EVENTS = {
    "cyclic": ("engagement_start:4 "
               + " ".join(_CYCLE.format(c=c, n=c % 4 + 1)
                          for c in (4, 1, 2, 3))).split(),
    "pyramid": ("engagement_start:1 engagement_start:2 engagement_start:3 "
                "engagement_start:4 saturation:1 saturation:2 saturation:3 "
                "saturation:4 stall").split(),
    "spindle5": ("engagement_start:1 engagement_start:2 engagement_start:3 "
                 "engagement_start:4 saturation:1 saturation:2 saturation:3 "
                 "stall").split(),
    "spindle10": ("engagement_start:1 engagement_start:2 engagement_start:3 "
                  "engagement_start:4 saturation:1 saturation:2 saturation:4 "
                  "saturation:3 stall").split(),
}


@dataclass(frozen=True)
class Invocation:
    """One `python -m geogami.cli` process and what its output must be."""

    argv: Tuple[str, ...]
    mode: str = "cyclic"
    plot: bool = False
    sweep_values: Tuple[float, ...] = ()

    @property
    def label(self) -> str:
        return f"sweep x{len(self.sweep_values)}" if self.sweep_values \
            else f"simulate {self.mode}"


@dataclass
class Outcome:
    """What one invocation produced: problems, simulated seconds, hashes."""

    problems: List[str] = field(default_factory=list)
    sim_s: float = 0.0
    sha256: Dict[str, str] = field(default_factory=dict)


def spool_values(seed: int) -> Tuple[float, ...]:
    """Spool radii drawn from the seed, half on each side of the tip threshold.

    The threshold lies between 6.35 mm (no roll) and 6.40 mm (4 rolls), so
    the draw always crosses it.  The fixed half-and-half mix keeps the cost
    of an iteration the same for every seed, since a point that rolls costs
    more than one that does not.
    """
    rng = random.Random(seed)
    half = SWEEP_POINTS // 2
    below = [rng.uniform(*SPOOL_NO_ROLL_MM) for _ in range(half)]
    above = [rng.uniform(*SPOOL_ROLL_MM) for _ in range(SWEEP_POINTS - half)]
    return tuple(sorted(round(v, 3) for v in below + above))


def invocations(workload: str, seed: int, out_dir: str) -> List[Invocation]:
    """The CLI processes of one iteration of ``workload``."""
    common = ("--preset", PRESET, "--out", out_dir)
    if workload == "cyclic-plot":
        return [Invocation(("simulate",) + common + ("--plot",), plot=True)]
    if workload == "spindle-stall":
        modes = list(SPINDLE_MODES)
        random.Random(seed).shuffle(modes)
        return [Invocation(("simulate",) + common + ("--mode", m), mode=m)
                for m in modes]
    if workload == "sweep-spool":
        values = spool_values(seed)
        return [Invocation(("sweep",) + common + (
            "--param", "gearbox.spool_radius_mm",
            "--values", ",".join(f"{v:g}" for v in values)),
            sweep_values=values)]
    raise ValueError(f"unknown workload {workload!r}")


def setup_targets(workload: str) -> Tuple[str, ...]:
    """Preset and modes whose Simulators the set-up probe builds."""
    modes = SPINDLE_MODES if workload == "spindle-stall" else ("cyclic",)
    return (PRESET,) + modes


# -- checks -------------------------------------------------------------------

def _read(path: Path, problems: List[str]) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError as exc:
        problems.append(f"cannot read {path.name}: {exc.strerror}")
        return None


def check(inv: Invocation, exit_code: int, stdout: str, stderr: str,
          out_dir: Path) -> Outcome:
    """Judge one finished invocation from its exit code, streams and files."""
    outcome = Outcome()
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        outcome.problems.append("traceback on stderr")
    if inv.sweep_values:
        _check_sweep(inv, stdout, out_dir, outcome)
    else:
        _check_simulate(inv, stdout, out_dir, outcome)
    return outcome


def _check_simulate(inv: Invocation, stdout: str, out_dir: Path,
                    outcome: Outcome) -> None:
    problems = outcome.problems
    lines = stdout.splitlines()
    summary = lines[-1] if lines else ""
    if summary != EXPECTED_SUMMARY[inv.mode]:
        problems.append(f"summary {summary!r}, expected "
                        f"{EXPECTED_SUMMARY[inv.mode]!r}")
    csv_name = f"trace_{inv.mode}.csv"
    data = _read(out_dir / csv_name, problems)
    if data is not None:
        outcome.sha256[csv_name] = hashlib.sha256(data).hexdigest()
        rows = data.decode("ascii", "replace").splitlines()
        if not rows or rows[0] != TRACE_HEADER:
            problems.append(f"{csv_name}: wrong header")
        else:
            events = [r.rsplit(",", 1)[1] for r in rows[1:]
                      if not r.endswith(",")]
            if events != REFERENCE_EVENTS[inv.mode]:
                problems.append(f"{csv_name}: events {' '.join(events)!r} "
                                "differ from the reference")
            if len(rows) > 1:
                try:
                    outcome.sim_s = float(rows[-1].split(",", 1)[0])
                except ValueError:
                    problems.append(f"{csv_name}: unreadable last time")
    if inv.plot:
        svg = _read(out_dir / f"trace_{inv.mode}.svg", problems)
        if svg is not None and not (svg.startswith(b"<svg")
                                    and svg.rstrip().endswith(b"</svg>")):
            problems.append("SVG is not a complete <svg> document")


def _check_sweep(inv: Invocation, stdout: str, out_dir: Path,
                 outcome: Outcome) -> None:
    problems = outcome.problems
    data = _read(out_dir / "sweep.csv", problems)
    if data is None:
        return
    text = data.decode("ascii", "replace")
    if not stdout.startswith(text):
        problems.append("stdout does not echo sweep.csv")
    rows = text.splitlines()
    if not rows or rows[0] != SWEEP_HEADER:
        problems.append("sweep.csv: wrong header")
        return
    rows = rows[1:]
    if len(rows) != len(inv.sweep_values):
        problems.append(f"sweep.csv: {len(rows)} rows for "
                        f"{len(inv.sweep_values)} values")
        return
    for value, row in zip(inv.sweep_values, rows):
        cells = row.split(",")
        if len(cells) != 5:
            problems.append(f"sweep row {row!r}: expected 5 cells")
            continue
        shown, rolls, travel, _, stall = cells
        if shown != f"{value:.9g}":
            problems.append(f"sweep row {row!r}: value is not {value:.9g}")
        if stall != "no":
            problems.append(f"sweep row {row!r}: stall={stall}")
        if rolls not in ("0", "4"):
            problems.append(f"sweep row {row!r}: rolls not in {{0,4}}")
            continue
        if (rolls == "4") != (value >= SPOOL_ROLL_MM[0]):
            problems.append(f"sweep row {row!r}: rolls on the wrong side "
                            "of the tip threshold")
        try:
            travel_mm = float(travel)
        except ValueError:
            problems.append(f"sweep row {row!r}: unreadable travel")
            continue
        if abs(travel_mm - int(rolls) * ROLL_TRAVEL_MM) > 2e-3:
            problems.append(f"sweep row {row!r}: travel is not "
                            f"rolls*{ROLL_TRAVEL_MM}")
    # no point stalls, so each runs the whole program
    outcome.sim_s = len(rows) * PROGRAM_DURATION_S
