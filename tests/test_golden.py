"""Golden traces: sha256 of the trace CSVs and plots written by ``simulate``.

The digests pin every byte ``simulate`` writes, so an engine refactor that
moves a last digit, an event row or a record fails here, and so does a
plot change that moves a vertex.  A deliberate change to the trace or the
plot must update a digest and say why.
"""

import hashlib
import json

import pytest

from geogami.cli import main
from geogami.config import load_preset

GOLDEN_SHA256 = {
    "cyclic": "cb2eb747e0ab41d7bbb97544cebf67958fab4c8905ef2dfa6f94b9125ed5df9b",
    "pyramid": "ed817ce380b6d9b46d7e9e5b8bf6b5c27d95a22830fbb102e4f89340efa5e583",
    "spindle5": "e9ac2e34c268dae5e903f1a1a1f9a9218d4849a15bbececded4fc3c3db758e1b",
    "spindle10": "a224c2c5d3b3ea6f47e47fb969409dcc6527d3a886f4e7e0500745f1bbb72835",
}

# cyclic runs that vary what the four digests above do not: a coarse grid
# (tips between grid points), the other ring-down overlay, a rolled start
# (other ground pivots, 3 rolls), a preset whose window is a full turn, a
# strict COM-past-vertex tip, balanced exactly over the pivot at rest, and
# feet off the 45-degree lattice: two mirrored feet that stand level only
# through the pivot tolerance (no roll), and one backward tip at 21.19 s
VARIANT_SHA256 = {
    "contact-lever-0": "47f0ba3ab2618a95d9681fb1e0e89c418642adab1a6a104310d5cde7cd5521ee",
    "dt-1e-2": "840cd07100d9e6ec7b1a13be1926549123e50a167fa088e2ad644a2838fb35b1",
    "mirror-feet": "53d95de4b5714112cddffa1574c849afe913106ca17910d5d0c2220a3d4024a5",
    "off-lattice-roll": "d305caf66c153fe5b0f28cd15b0a28d1dde8d96095ed0b68594613d979820b8e",
    "origami-off": "cacedd919b8609d64c273b8b3bf751a979956e2eee27cb1c468e7b09c32b8912",
    "initial-roll-90": "7b730918c3eca73e1144086cd9dcbcf80924e4cffd74ccd2f802728b2ef4571d",
    "symmetric-test": "a0d46932cca41c74e12eb5d98d013e7e11b548e3a511d426366c9511090ca914",
}

# the SVG of ``simulate --plot`` at the default dt, the paper's headline
# run and a stall whose roll panel is flat
SVG_SHA256 = {
    "cyclic": "1b3ef5e0371dc44c980de627ac2e95f54b15b0dad6e0c840cdfd24d25399c270",
    "pyramid": "7ac09d5a09f9559a600de5508eee058463ca70cf90ca386b06473d117c338715",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_paper_table1_trace_bytes(mode, tmp_path, capsys):
    assert main(["simulate", "--preset", "paper-table1", "--mode", mode,
                 "--dt", "1e-3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / f"trace_{mode}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[mode]


@pytest.mark.parametrize("variant", sorted(VARIANT_SHA256))
def test_variant_trace_bytes(variant, tmp_path, capsys):
    argv = {"dt-1e-2": ["--preset", "paper-table1", "--dt", "1e-2"],
            "origami-off": ["--preset", "paper-table1", "--origami", "off"],
            "symmetric-test": ["--preset", "symmetric-test"]}.get(variant)
    changes = {
        "initial-roll-90": [("program", "initial_roll_deg", 90.0)],
        "contact-lever-0": [("support", "contact_lever_mm", 0.0)],
        "mirror-feet": [("mass_layout", "ray_angles_deg",
                         [90.0, 0.0, 255.0, 285.0])],
        "off-lattice-roll": [("mass_layout", "ray_angles_deg",
                              [95.0, 0.0, 275.0, 180.0]),
                             ("support", "contact_lever_mm", 10.0)]}
    if variant in changes:
        data = load_preset("paper-table1").to_dict()
        for section, name, value in changes[variant]:
            data[section][name] = value
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(data))
        argv = ["--config", str(path)]
    assert main(["simulate", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / "trace_cyclic.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == VARIANT_SHA256[variant]


@pytest.mark.parametrize("mode", sorted(SVG_SHA256))
def test_paper_table1_plot_bytes(mode, tmp_path, capsys):
    assert main(["simulate", "--preset", "paper-table1", "--mode", mode,
                 "--plot", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / f"trace_{mode}.svg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SVG_SHA256[mode]
