"""The benchmark's traced layer still reads the engine's trace."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_counts_every_csv_row(tmp_path):
    stem = tmp_path / "traced"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(stem), "--",
         "simulate", "--preset", "paper-table1", "--duration-s", "2",
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counters = json.loads(Path(f"{stem}.json").read_text())["counters"]
    rows = (tmp_path / "trace_cyclic.csv").read_text().splitlines()[1:]
    assert counters["locomotion.records"] == len(rows) > 0
