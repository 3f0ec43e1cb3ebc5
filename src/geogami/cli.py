"""Command-line interface: fit, gearbox, simulate, sweep.

Angles typed by users are degrees; everything internal is radians.  Every
error path exits nonzero with a single ``error: ...`` diagnostic line on
stderr; a sweep prints one such line per failed point and keeps the rows
of the points that ran.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import List, NoReturn, Optional, Sequence, Tuple, get_args

from . import compliance, transmission
from .compliance import JointFamily, MeasurementFormatError
from .config import (ConfigError, RunConfig, SIMULATION_MODES, _parse,
                     load_config, load_preset, open_atomic, write_atomic)
from .locomotion import SimulationError
from .svgplot import trace_svg

DEFAULT_PRESET = "paper-table1"
# a sweep builds, checks and runs one point at a time, about 1 ms each; a
# --range of more steps than this (0:1e9:1e-9 has 1e18) is refused first
MAX_SWEEP_POINTS = 100_000


class CliError(Exception):
    """User-facing CLI failure; message becomes the diagnostic line."""


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config of ``--config`` or ``--preset``, with ``--duration-s``."""
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = load_preset(getattr(args, "preset", None) or DEFAULT_PRESET)
    if getattr(args, "duration_s", None) is None:
        return config
    return _with_value(config, RunConfig, ["program", "duration_s"],
                       args.duration_s, "program.duration_s")


# -- fit ----------------------------------------------------------------------

def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        family = JointFamily(args.family)
    except ValueError:
        raise CliError(f"unknown joint family {args.family!r}")
    data = compliance.read_measurement_csv(args.input, family)
    model = compliance.fit_joint_model(data, degree=args.degree)
    force_res, return_res = compliance.fit_residuals(model, data)
    write_atomic(args.out, json.dumps(model.to_dict(), indent=2) + "\n")
    print(f"fitted {family.value} model from {len(data.samples)} samples "
          f"(degree {args.degree})")
    print(f"mean stiffness: {model.mean_stiffness:.4f} N/rad over "
          f"[{math.degrees(model.valid_range[0]):.1f}, "
          f"{math.degrees(model.valid_range[1]):.1f}] deg")
    print(f"max residuals: force {force_res:.3e} N, "
          f"return angle {return_res:.3e} rad")
    print(f"wrote {args.out}")
    return 0


# -- gearbox ------------------------------------------------------------------

def _chain_rows(args: argparse.Namespace, cfg: transmission.GearboxConfig
                ) -> List[Tuple[str, Optional[float], str]]:
    queries = [name for name in ("retraction_mm", "motor_deg", "tension_n",
                                 "torque_nm")
               if getattr(args, name) is not None]
    if len(queries) != 1:
        raise CliError(
            "give exactly one query: --retraction-mm, --motor-deg, "
            "--tension-n, or --torque-nm")
    query = queries[0]
    value = getattr(args, query)
    flag = "--" + query.replace("_", "-")
    if not (math.isfinite(value) and value >= 0):
        raise CliError(f"{flag} must be finite and >= 0, got {value}")
    theta_m = theta_d = theta_s = length = None
    tau_m = tau_s = force = None
    if query == "retraction_mm":
        length = args.retraction_mm
        theta_m = transmission.motor_angle_for_retraction(length, 1, cfg)
        theta_d = transmission.driver_angle(theta_m, cfg)
        theta_s = length / cfg.spool_radius
        tau_m = cfg.motor_torque
    elif query == "motor_deg":
        theta_m = math.radians(args.motor_deg)
        theta_d = transmission.driver_angle(theta_m, cfg)
        theta_s = transmission.spool_angle(
            theta_m, 1, transmission.EngagementSchedule.constant(), cfg)
        length = transmission.cable_retraction(theta_s, cfg)
        tau_m = cfg.motor_torque
    elif query == "tension_n":
        force = args.tension_n
        tau_m = transmission.motor_torque_for_cable_force(force, cfg)
        tau_s = force * cfg.spool_radius * 1e-3
    else:
        tau_m = args.torque_nm
    if tau_m is not None and tau_s is None:
        tau_s = transmission.spool_torque(tau_m, 1, 1, cfg)
    if tau_s is not None and force is None:
        force = transmission.cable_force(tau_s, cfg)
    rows = [
        ("theta_m", theta_m, "rad"),
        ("theta_d", theta_d, "rad"),
        ("theta_s", theta_s, "rad"),
        ("L", length, "mm"),
        ("tau_m", tau_m, "N*m"),
        ("tau_s", tau_s, "N*m"),
        ("F", force, "N"),
    ]
    for name, result, _unit in rows:
        if result is not None and not math.isfinite(result):
            raise CliError(f"{flag} {value} gives a non-finite {name} "
                           f"({result})")
    return rows


def _cmd_gearbox(args: argparse.Namespace) -> int:
    # only the gearbox: a query needs no program that can run
    cfg = _resolve_config(args).build_gearbox()
    rows = _chain_rows(args, cfg)
    if args.csv:
        print("quantity,value,unit")
        for name, value, unit in rows:
            rendered = f"{value:.9g}" if value is not None else ""
            print(f"{name},{rendered},{unit}")
        return 0
    print(f"gearbox: T_w={cfg.worm_teeth} T_dr={cfg.driver_teeth} "
          f"T_dv={cfg.driven_teeth} r_s={cfg.spool_radius} mm "
          f"sector_arc={math.degrees(cfg.sector_arc):.1f} deg "
          f"duty={cfg.duty_factor:.3f}")
    note = (f"total efficiency eta = {cfg.efficiency:.3f} "
            f"(eta_worm {cfg.efficiency_worm} x eta_spur {cfg.efficiency_spur})")
    if abs(cfg.efficiency - 0.702) < 0.005:
        note += (": sized so a 1.8 N wire tension costs ~2.4e-4 N*m of motor "
                 "torque through this gearing")
    print(note)
    for name, value, unit in rows:
        rendered = f"{value:15.6g}" if value is not None else f"{'-':>15}"
        print(f"  {name:<8}{rendered}  {unit}")
    return 0


# -- simulate -----------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    mode = args.mode or config.program.mode
    origami = None if args.origami is None else args.origami == "on"
    trace = config.build_simulator(args.mode, origami).run(dt=args.dt)
    out_dir = Path(args.out)
    trace_path = out_dir / f"trace_{mode}.csv"
    with open_atomic(str(trace_path)) as stream:
        trace.write_csv(stream)
    print(f"wrote {trace_path}")
    if args.plot:
        import numpy as np
        times, motor, roll = trace.columns[:, :3].T
        svg_path = out_dir / f"trace_{mode}.svg"
        write_atomic(str(svg_path), trace_svg(times, np.degrees(roll), motor,
                                              title=f"mode={mode}"))
        print(f"wrote {svg_path}")
    print(trace.summary_line())
    return 0


# -- sweep --------------------------------------------------------------------

def _with_value(node: object, declared: object, parts: List[str],
                value: float, dotted: str) -> object:
    """``node``, of the ``declared`` field type, with the field at ``parts``
    set to ``value`` and parsed as its declared type, which must be numeric."""
    if not parts:
        if declared not in (int, float, Optional[float]):
            raise CliError(f"config field {dotted!r} is not numeric")
        # --values parses floats; an integer field takes 40.0 as 40
        if declared is int and value.is_integer():
            value = int(value)
        return _parse(declared, value, dotted)
    part, *rest = parts
    # int() also takes "-1", "+1", "0_0" and " 1", naming another entry
    if isinstance(node, tuple) and part.isascii() and part.isdigit() \
            and int(part) < len(node):
        k = int(part)
        item = _with_value(node[k], get_args(declared)[0], rest, value, dotted)
        return node[:k] + (item,) + node[k + 1:]
    types = {f.name: f.type for f in fields(node)} if is_dataclass(node) else {}
    if part not in types:
        raise CliError(f"unknown config field {dotted!r}")
    return replace(node, **{part: _with_value(getattr(node, part), types[part],
                                              rest, value, dotted)})


def _sweep_values(args: argparse.Namespace) -> List[float]:
    if (args.values is None) == (args.range is None):
        raise CliError("give exactly one of --values or --range")
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise CliError(f"could not parse --values {args.values!r}")
        if not values:
            raise CliError("empty --values list")
        return values
    try:
        start_s, stop_s, step_s = args.range.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise CliError(f"--range must be start:stop:step, got {args.range!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"--range must be finite, got {args.range!r}")
    if step == 0:
        raise CliError("--range step must be nonzero")
    if (stop - start) * step < 0:
        raise CliError("--range step points away from stop")
    if (stop - start) / step > MAX_SWEEP_POINTS:
        raise CliError(f"--range {args.range!r} spans more than "
                       f"{MAX_SWEEP_POINTS} steps")
    values = []
    k = 0
    while True:
        value = start + k * step
        if (step > 0 and value > stop + 1e-12) or \
                (step < 0 and value < stop - 1e-12):
            break
        values.append(value)
        k += 1
    if not values:
        raise CliError("empty --range")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .kinematics import RadiusInversionError
    if args.duration_s is not None and args.param == "program.duration_s":
        raise CliError("--duration-s would override every swept "
                       "program.duration_s; give one or the other")
    base = _resolve_config(args)
    values = _sweep_values(args)
    lines = ["value,rolls,travel_mm,max_tension_N,stall"]
    for value in values:
        try:
            sim = _with_value(base, RunConfig, args.param.split("."), value,
                              args.param).build_simulator()
            trace = sim.timeline()
        except (ConfigError, SimulationError, RadiusInversionError) as exc:
            # one line per failed point; the rest of the sweep goes on
            print(f"error: value {value:.9g}: {exc}", file=sys.stderr)
            continue
        capacity = transmission.cable_force_from_motor_torque(
            sim.gearbox.motor_torque, sim.gearbox)
        lines.append(f"{value:.9g},{trace.rolls_completed},"
                     f"{trace.travel_mm:.3f},{capacity:.6f},"
                     f"{'yes' if trace.stalled else 'no'}")
    if len(lines) > 1:
        text = "\n".join(lines) + "\n"
        out_path = Path(args.out) / "sweep.csv"
        write_atomic(str(out_path), text)
        print(text, end="")
        print(f"wrote {out_path}")
    # a header and one row per value: every point ran
    return 0 if len(lines) > len(values) else 2


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geogami",
        description="Quasi-static simulator of a mono-actuated rolling "
                    "origami ring: gearbox chain, stiffness network, and "
                    "COM-driven rolling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="run-configuration JSON file")
        p.add_argument("--preset", help=f"named preset (default "
                                        f"{DEFAULT_PRESET})")

    fit = sub.add_parser("fit", help="fit a joint bending model from a "
                                     "measurement CSV")
    fit.add_argument("input", help="CSV with header theta_deg,force_N,return_deg")
    fit.add_argument("--degree", type=int, default=3,
                     help="polynomial degree (default 3)")
    fit.add_argument("--family", default="custom",
                     choices=[f.value for f in JointFamily],
                     help="joint family label")
    fit.add_argument("--out", default="model.json",
                     help="output model JSON path")
    fit.set_defaults(func=_cmd_fit)

    gearbox = sub.add_parser("gearbox", help="evaluate the transmission chain")
    add_config_args(gearbox)
    gearbox.add_argument("--retraction-mm", type=float,
                         help="cable retraction to achieve (mm)")
    gearbox.add_argument("--motor-deg", type=float,
                         help="motor angle (degrees, constant engagement)")
    gearbox.add_argument("--tension-n", type=float,
                         help="cable tension to produce (N)")
    gearbox.add_argument("--torque-nm", type=float,
                         help="motor torque to propagate (N*m)")
    gearbox.add_argument("--csv", action="store_true",
                         help="machine-readable output")
    gearbox.set_defaults(func=_cmd_gearbox)

    simulate = sub.add_parser("simulate", help="run one actuation program")
    add_config_args(simulate)
    simulate.add_argument("--mode", choices=SIMULATION_MODES,
                          help="drive mode (default from config)")
    simulate.add_argument("--origami", choices=("on", "off"),
                          help="origami cap installed (default from config)")
    simulate.add_argument("--plot", action="store_true",
                          help="also emit a two-panel SVG")
    simulate.add_argument("--out", default=".", help="output directory")
    simulate.add_argument("--dt", type=float, default=1e-3,
                          help="time step (s, default 1e-3)")
    simulate.add_argument("--duration-s", type=float, default=None,
                          help="override the program duration")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser(
        "sweep",
        help="run one simulation per parameter value",
        description="Runs one simulation per value and aggregates "
                    "value,rolls,travel_mm,max_tension_N,stall; max_tension_N "
                    "is the cable force available at the configured motor "
                    "torque.  Only the event timeline is computed, so there "
                    "is no time step to choose.")
    add_config_args(sweep)
    sweep.add_argument("--param", required=True,
                       help="dotted config field, e.g. gearbox.spool_radius_mm")
    sweep.add_argument("--values", help="comma-separated values")
    sweep.add_argument("--range", help="start:stop:step (inclusive)")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.add_argument("--duration-s", type=float, default=None,
                       help="override the program duration")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """``argv`` with each value that starts with ``-`` and a digit or ``.``
    joined to the long option before it, as ``--range=-90:90:90``.

    argparse reads such a value as an option unless it is a plain negative
    number, so ``--range -90:90:90`` or ``--duration-s -1e3`` would fail as
    a missing value.  No geogami option starts with a digit.
    """
    joined: List[str] = []
    for token in argv:
        option = joined[-1] if joined else ""
        if option[:2] == "--" and len(option) > 2 and "=" not in option \
                and token[:1] == "-" and token[1:2] in set("0123456789."):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    # OpenBLAS starts a worker thread per core when numpy loads it, about
    # 70 ms of a simulate process on a 2-vCPU host, and geogami makes no
    # BLAS call that a second thread would speed up.  OpenBLAS reads this
    # once, at the first import of numpy, which comes later (inside the
    # run or the fit).  A value the user exported still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CliError, ConfigError, MeasurementFormatError, SimulationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _watched() -> bool:
    """Whether a tracer, profiler or coverage tool watches this process.

    Such a tool writes its results as the interpreter exits (``python -m
    cProfile -o F``).  From Python 3.12, cProfile and coverage may register
    with ``sys.monitoring`` instead of ``sys.settrace``/``sys.setprofile``.
    """
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.gettrace() or sys.getprofile() or monitoring and any(
        monitoring.get_tool(tool) for tool in range(6)))


def run() -> NoReturn:
    """Process entry of ``python -m geogami.cli`` and the ``geogami`` script.

    Ends the process as soon as ``main``'s outputs are written, with
    ``os._exit``: the interpreter's teardown of numpy and the package
    (about 15 ms of a ``simulate`` and 8 ms of a ``sweep`` on a 2-vCPU
    host) writes nothing.
    Every output file is closed and renamed inside ``main`` (``open_atomic``,
    ``write_atomic``), and the commands register no atexit callback and
    start no thread, so only stdout and stderr are left, flushed here; a
    failed flush (stdout closed early) is one ``error:`` line and exit code
    2.  Under a tracer or profiler the process exits normally, so the tool
    can write its results.  ``--help`` and usage errors leave through
    ``SystemExit`` as before.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = 2
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass   # stderr is gone too; the exit code still tells
    if _watched():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
