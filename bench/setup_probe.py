"""Set-up probe: everything a CLI run does before the engine starts.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 bench/setup_probe.py PRESET MODE [MODE ...]

Imports ``geogami.cli``, loads and validates PRESET, builds one Simulator
per MODE and exits without running; its process wall time is ``setup_s``.
"""

import sys

import geogami.cli
from geogami.config import load_preset

preset, *modes = sys.argv[1:]
config = load_preset(preset)
config.validate()
for mode in modes:
    config.build_simulator(mode=mode)
