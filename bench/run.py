"""geogami benchmark: end-to-end CLI metrics and traced per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload cyclic-plot --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, untraced and traced
    python3 bench/run.py --write-spec    # regenerate BENCHMARK.json

Each workload is a closed loop with one client: one ``python -m
geogami.cli`` process (``PYTHONPATH=src``) runs at a time, and the next
starts when it has exited.  An iteration is the workload's set of CLI
processes; iterations repeat while the next one is expected to end within
``--seconds``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates an untraced iteration with a traced one (``bench/tracer.py``)
and reports the per-layer metrics plus the tracing overhead.  Every
invocation's output is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spec
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
HARD_LIMIT_S = 170.0      # one workload run must exit within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
WORKLOAD_NAMES = [name for name, _ in spec.WORKLOADS]


# -- child processes ------------------------------------------------------------

@dataclass
class Finished:
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts one child at a time, times it, and reaps it with its rusage.

    A child still running at the hard deadline is killed, so a hung
    program fails its invocation instead of the whole benchmark.
    """

    def __init__(self, hard_deadline: float) -> None:
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._child: Optional[subprocess.Popen] = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame) -> None:
        if self._child is not None:
            self._child.kill()

    def run(self, argv: Sequence[str], log_stem: Path) -> Finished:
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            return Finished(-1, 0.0, 0.0, "", "benchmark time limit reached")
        with open(f"{log_stem}.stdout", "w+") as out, \
                open(f"{log_stem}.stderr", "w+") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            self._child = child
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(child.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                self._child = None
                signal.setitimer(signal.ITIMER_REAL, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Finished(child.returncode, wall, usage.ru_maxrss / 1024.0,
                            out.read(), err.read())


# -- one workload -----------------------------------------------------------------

@dataclass
class Tally:
    """Failed CLI invocations against attempted ones, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, label: str, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(outcome.problems)}")


@dataclass
class Iteration:
    wall_s: float = 0.0
    sim_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Runs one workload's iterations and checks every invocation."""

    def __init__(self, name: str, seed: int, runner: Runner) -> None:
        self.name = name
        self.runner = runner
        self.out = OUT_DIR / name
        self.cli_out = self.out / "cli"
        self.cli_out.mkdir(parents=True, exist_ok=True)
        self.invocations = workloads.invocations(
            name, seed, str(self.cli_out.relative_to(ROOT)))
        self.tally = Tally()
        self.sha256: Dict[str, str] = {}

    def _clear_outputs(self) -> None:
        for path in self.cli_out.iterdir():
            path.unlink()

    def iterate(self, traced: bool) -> Iteration:
        result = Iteration()
        for k, inv in enumerate(self.invocations):
            self._clear_outputs()
            stem = self.out / f"span{k}"
            prefix = ["bench/tracer.py", str(stem), "--"] if traced \
                else ["-m", "geogami.cli"]
            done = self.runner.run(prefix + list(inv.argv), self.out / f"log{k}")
            outcome = workloads.check(inv, done.code, done.stdout, done.stderr,
                                      self.cli_out)
            for csv_name, digest in outcome.sha256.items():
                first = self.sha256.setdefault(csv_name, digest)
                if digest != first:
                    outcome.problems.append(
                        f"{csv_name} bytes differ from an earlier run")
            self.tally.add(inv.label, outcome)
            result.wall_s += done.wall_s
            result.sim_s += outcome.sim_s
            result.peak_rss_mb = max(result.peak_rss_mb, done.max_rss_mb)
            if traced and done.code == 0:
                spans = tracer.layer_metrics(tracer.read_spans(stem))
                for key, value in spans.items():
                    result.layers[key] = result.layers.get(key, 0) + value
        return result

    def setup_times(self, count: int) -> List[float]:
        """Wall times of ``count`` fresh set-up processes."""
        argv = ["bench/setup_probe.py", *workloads.setup_targets(self.name)]
        times = []
        for _ in range(count):
            done = self.runner.run(argv, self.out / "setup")
            if done.code != 0:
                lines = done.stderr.strip().splitlines() or [f"exit {done.code}"]
                raise SetupFailed(lines[-1])
            times.append(done.wall_s)
        return times


class SetupFailed(RuntimeError):
    """The set-up probe could not import, load or build the workload."""


def measure(workload: Workload, seconds: float, traced: bool) -> dict:
    """Iterate until ``seconds`` would be exceeded.

    Untraced runs also time set-up probes: one untimed warm-up, then
    SETUP_PROBES, then one after every iteration, so that ``setup_s`` is
    sampled over the same stretch of the machine's time as ``wall_s``.
    """
    setup: List[float] = []
    if not traced:
        workload.setup_times(1)
        setup = workload.setup_times(SETUP_PROBES)
    untraced: List[Iteration] = []
    with_trace: List[Iteration] = []
    costs: List[float] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        untraced.append(workload.iterate(traced=False))
        if traced:
            with_trace.append(workload.iterate(traced=True))
        else:
            setup.extend(workload.setup_times(1))
        costs.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(costs) > seconds \
                or time.monotonic() + max(costs) > workload.runner.hard_deadline:
            break
    return {"setup": setup, "untraced": untraced, "traced": with_trace}


def end_to_end(samples: dict) -> Dict[str, List[float]]:
    its = samples["untraced"]
    return {
        "setup_s": samples["setup"],
        "wall_s": [it.wall_s for it in its],
        "sim_s_per_s": [it.sim_s / it.wall_s for it in its if it.wall_s > 0],
        "peak_rss_mb": [it.peak_rss_mb for it in its],
    }


def per_layer(samples: dict) -> Dict[str, List[float]]:
    its = [it for it in samples["traced"] if it.layers]
    series: Dict[str, List[float]] = {}
    for it in its:
        layers = dict(it.layers)
        checks = layers["locomotion.tipping_check_calls"]
        layers["locomotion.events_per_tip_check"] = \
            layers["locomotion.events"] / checks if checks else 0.0
        for key, value in layers.items():
            series.setdefault(key, []).append(value)
    if its:
        overhead = (statistics.median(it.wall_s for it in samples["traced"])
                    - statistics.median(it.wall_s for it in samples["untraced"]))
        series["trace.overhead_s"] = [overhead]
    return series


# -- reporting ----------------------------------------------------------------------

def tail(values: Sequence[float]) -> Optional[tuple]:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(p / 100 * n))]
    return None


def describe(name: str, unit: str, values: Sequence[float]) -> str:
    if not values:
        return f"  {name} [{unit}]: no samples"
    line = f"  {name} = {statistics.median(values):.6g} {unit} " \
           f"(p50, n={len(values)}"
    found = tail(values)
    if found:
        return line + f"; p{found[0]:g} = {found[1]:.6g})"
    return line + "; no tail percentile below 11 samples)"


def environment() -> Dict[str, str]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": str(len(os.sched_getaffinity(0))),
            "machine": platform.machine()}


def git_commit() -> str:
    """HEAD commit read from the checkout's own .git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    runner = Runner(time.monotonic() + HARD_LIMIT_S)
    workload = Workload(name, seed, runner)
    samples = measure(workload, seconds, traced)
    extra = []
    if traced:
        series = per_layer(samples)
        wanted = [(n, u) for n, u, _ in spec.PER_LAYER]
    else:
        series = end_to_end(samples)
        wanted = [(n, u) for n, u, _, _ in spec.END_TO_END]
        extra = spec.REPORTED
    tally = workload.tally
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {name} seed={seed} trace={int(traced)} "
          f"iterations={len(samples['untraced'])}")
    for inv in workload.invocations:
        print(f"  input: python -m geogami.cli {' '.join(inv.argv)}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for csv_name, digest in sorted(workload.sha256.items()):
        print(f"  sha256 {csv_name} {digest}")
    for metric, unit in wanted + extra:
        print(describe(metric, unit, series.get(metric, [])))
    print(f"  ops_failed_ratio = {ratio:.6g} ({tally.failed} of "
          f"{tally.attempted} invocations failed)")
    for problem in tally.problems[:10]:
        print(f"  FAILED {problem}")
    metrics = {m: {"value": statistics.median(series[m]), "unit": u}
               for m, u in wanted if series.get(m)}
    result = {"correct": tally.failed == 0 and len(metrics) == len(wanted),
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=int(traced),
                  inputs=[list(inv.argv) for inv in workload.invocations],
                  environment=environment(), sha256=workload.sha256,
                  ops_failed_ratio=ratio, problems=tally.problems,
                  samples=series)
    (workload.out / f"result-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if not (ROOT / "src" / "geogami" / "cli.py").is_file():
        print(f"error: no geogami sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    try:
        for name in names:
            for mode in modes:
                results[(name, mode)] = run_one(name, args.seed, args.seconds,
                                                bool(mode))
    except SetupFailed as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for (name, _), r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
