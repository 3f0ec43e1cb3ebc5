"""Run-configuration round-trips, presets, and the CLI surface."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from geogami import compliance, config as geogami_config, locomotion, svgplot
from geogami.cli import CliError, _sweep_values, main
from geogami.config import (SIMULATION_MODES, ConfigError, RunConfig,
                            available_presets, load_config, load_preset,
                            write_atomic)
from geogami.compliance import SideAssembly
from geogami.kinematics import MassLayout, RadiusInversionError
from geogami.locomotion import (DampingParams, EventKind, ReleaseModel,
                                SimTrace, SimulationError, Simulator)
from geogami.transmission import (EngagementSchedule, GearboxConfig,
                                  cable_retraction, spool_angle)


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


def _leaf_paths(node, path=()):
    """(key path, value) of every scalar in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path, node


class TestConfig:
    def test_presets_ship(self):
        assert {"paper-table1", "symmetric-test"} <= set(available_presets())

    def test_spec_defaults_build_the_domain_defaults(self):
        # the specs read these defaults in file units: degrees, and None
        # for an inextensible cable
        config = RunConfig()
        assert config.build_gearbox() == GearboxConfig()
        assert config.build_layout() == MassLayout()
        assert config.build_sides() == (SideAssembly(),) * 4
        assert config.build_schedule() == EngagementSchedule.cyclic()
        without = dataclasses.replace(config, program=dataclasses.replace(
            config.program, origami=False))
        assert without.build_program().damping == DampingParams()

    def test_preset_loads_and_validates(self):
        config = load_preset("paper-table1")
        config.validate()
        assert config.gearbox.worm_teeth == 43
        assert config.composition_law == "B"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("nope")

    def test_round_trip_identity(self, tmp_path):
        original = load_preset("paper-table1")
        path = write_config(tmp_path, original)
        reparsed = load_config(path)
        assert reparsed == original
        # and a second cycle stays identical
        path2 = write_config(tmp_path, reparsed, "run2.json")
        assert load_config(path2) == original

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/does/not/exist.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(str(path))

    def test_packaged_preset_parses_like_a_config_file(self, tmp_path,
                                                      monkeypatch):
        presets = tmp_path / "presets"
        presets.mkdir()
        broken = presets / "broken.json"
        broken.write_text("{not json")
        monkeypatch.setattr(geogami_config.resources, "files",
                            lambda _package: tmp_path)
        with pytest.raises(ConfigError) as from_preset:
            load_preset("broken")
        with pytest.raises(ConfigError) as from_file:
            load_config(str(broken))
        assert str(from_preset.value) == str(from_file.value)
        assert str(from_file.value).startswith(f"{broken}: invalid JSON: ")

    def test_unknown_field_rejected(self, tmp_path):
        data = load_preset("paper-table1").to_dict()
        data["gearbox"]["bogus"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown or missing"):
            load_config(str(path))

    @pytest.mark.parametrize("duration, error", [
        ("NaN", "program.duration_s must be finite, got nan"),
        ("Infinity", "program.duration_s must be finite, got inf"),
        ("-1", "duration must be finite and >= 0, got -1.0"),
    ], ids=["NaN", "Infinity", "-1"])
    def test_duration_must_be_finite_and_non_negative(self, tmp_path,
                                                      duration, error):
        # Python's json reads and writes the NaN and Infinity literals
        data = load_preset("paper-table1").to_dict()
        data["program"]["duration_s"] = float(duration)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert duration in path.read_text()
        with pytest.raises(ConfigError) as exc:
            load_config(str(path)).validate()
        assert str(exc.value) == error

    @pytest.mark.parametrize("field, value", [
        ("support.contact_lever_mm", math.nan),
        ("sides.0.routing_gain", math.inf),
        ("mass_layout.corner_masses_kg.2", math.nan),
        ("program.spindle_profiles.pyramid.1", -math.inf),
        ("program.damping_with_origami.frequency_hz", math.nan),
    ])
    def test_non_finite_number_named_by_field(self, field, value):
        # each passes the range checks of its domain type
        data = load_preset("paper-table1").to_dict()
        *parents, leaf = field.split(".")
        node = data
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[int(leaf) if isinstance(node, list) else leaf] = value
        # refused as it is parsed, before any override or build
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data)
        assert str(exc.value) == f"{field} must be finite, got {value}"

    @pytest.mark.parametrize("command", [
        ["simulate"], ["gearbox", "--retraction-mm", "5"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--values", "5,6,7"],
    ], ids=lambda argv: argv[0])
    def test_other_schema_version_fails_at_load(self, tmp_path, capsys,
                                                command):
        data = load_preset("paper-table1").to_dict()
        data["schema_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        argv = command + ["--config", str(path)]
        if command[0] != "gearbox":
            argv += ["--out", str(out_dir)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == \
            "error: unsupported schema_version 2, expected 1\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--duration-s", "1"],
        ["sweep", "--param", "program.motor_speed_rad_s", "--values", "30"],
    ], ids=lambda argv: argv[0])
    # ``error`` follows the field name in the one error line
    @pytest.mark.parametrize("field, value, error", [
        ("program.first_corner", 2.0, " must be an integer, got 2.0"),
        ("gearbox.driven_teeth", 10.0, " must be an integer, got 10.0"),
        ("sides.0.origami_joint_count", 3.0, " must be an integer, got 3.0"),
        ("gearbox.worm_teeth", 43.0, " must be an integer, got 43.0"),
        ("program.first_corner", True, " must be an integer, got True"),
        ("schema_version", "1", " must be an integer, got '1'"),
        ("gearbox.spool_radius_mm", "8", " must be a number, got '8'"),
        ("gearbox.spool_radius_mm", True, " must be a number, got True"),
        ("support.contact_lever_mm", "1", " must be a number, got '1'"),
        ("program.initial_roll_deg", "x", " must be a number, got 'x'"),
        ("sides.0.cable_stiffness", "x", " must be a number or null, got 'x'"),
        ("program.max_contraction_mm", "10",
         " must be a number or null, got '10'"),
        ("program.origami", "yes", " must be true or false, got 'yes'"),
        ("description", 5, " must be a string, got 5"),
        ("mass_layout.corner_masses_kg", "abcd",
         " must be a list of numbers, got 'abcd'"),
        ("mass_layout.rest_radii_mm", [[1], [2], [3], [4]],
         ".0 must be a number, got [1]"),
        ("program.spindle_profiles", [], " must be an object, got []"),
        # ``dict`` would read these lists as the default program and as a
        # central mass of 0.5 kg
        ("program", [], " must be an object, got []"),
        ("mass_layout", [["central_mass_kg", 0.5]],
         " must be an object, got [['central_mass_kg', 0.5]]"),
        ("program.spindle_profiles", {"pyramid": [1, "x", 1, 1]},
         ".pyramid.1 must be a number, got 'x'"),
        ("gearbox.worm_teeth", 10 ** 400, f" must be finite, got {10 ** 400}"),
        ("gearbox", [], " must be an object, got []"),
        ("support", [], " must be an object, got []"),
        ("sides", 5, " must be a list, got 5"),
        ("sides", [[], {}, {}, {}], ".0 must be an object, got []"),
        ("program.damping_with_origami", [], " must be an object, got []"),
    ], ids=lambda v: None if len(str(v)) <= 40 else f"{str(v)[:12]}...")
    def test_wrong_type_from_file_named_by_field(self, tmp_path, capsys,
                                                 command, field, value,
                                                 error):
        data = load_preset("paper-table1").to_dict()
        *parents, leaf = field.split(".")
        node = data
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[leaf] = value
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code = main(command + ["--config", str(path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {field}{error}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--duration-s", "1"],
        ["sweep", "--param", "program.motor_speed_rad_s", "--values", "30"],
    ], ids=lambda argv: argv[0])
    # the ring's four corners are fixed by the code; a file from before
    # gearbox.corner_count was deleted must drop that key
    @pytest.mark.parametrize("field", ["gearbox.bogus", "sides.2.bogus",
                                       "bogus", "gearbox.corner_count",
                                       "program.spindle_profiles.spindel5"])
    def test_unknown_field_from_file_named_by_field(self, tmp_path, capsys,
                                                    command, field):
        data = load_preset("paper-table1").to_dict()
        *parents, leaf = field.split(".")
        node = data
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[leaf] = 1
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code = main(command + ["--config", str(path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: unknown or missing config field: "
                                f"{field}\n")
        assert captured.out == ""
        assert not out_dir.exists()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_wrong_leaf_type_named_by_field(self, data):
        name = data.draw(st.sampled_from(["paper-table1", "symmetric-test"]))
        config = load_preset(name)
        document = config.to_dict()
        assert RunConfig.from_dict(document) == config
        leaves = list(_leaf_paths(document))
        path, value = data.draw(st.sampled_from(leaves))
        # every JSON type the leaf's field does not admit
        wrong = [st.lists(st.integers(), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2)]
        if not isinstance(value, str):
            wrong.append(st.text(max_size=5))
        if not isinstance(value, bool):
            wrong.append(st.just(True))
        if path[-1] not in ("cable_stiffness", "max_contraction_mm"):
            wrong.append(st.none())
        if isinstance(value, (str, bool)):
            wrong.append(st.integers() | st.floats())
        *parents, leaf = path
        node = document
        for part in parents:
            node = node[part]
        node[leaf] = data.draw(st.one_of(wrong))
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(document)
        dotted = ".".join(map(str, path))
        assert str(exc.value).startswith(f"{dotted} must be ")

    @pytest.mark.parametrize("umask", (0o022, 0o027), ids=oct)
    def test_write_atomic_applies_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_atomic(str(tmp_path / "out.txt"), "data\n")
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "out.txt").stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_corner_count_cross_validation(self):
        config = load_preset("paper-table1")
        broken = dataclasses.replace(
            config, sides=config.sides[:3])
        with pytest.raises(ConfigError, match="4 sides"):
            broken.validate()

    def test_bad_composition_law(self):
        config = dataclasses.replace(load_preset("paper-table1"),
                                     composition_law="C")
        with pytest.raises(ConfigError, match="composition_law"):
            config.validate()

    def test_damping_ordering_enforced_with_override(self):
        config = load_preset("paper-table1")
        weak = dataclasses.replace(
            config.program.damping_with_origami, damping_ratio=0.01)
        swapped = dataclasses.replace(
            config, program=dataclasses.replace(
                config.program, damping_with_origami=weak))
        with pytest.raises(ConfigError, match="damping ratio"):
            swapped.validate()
        overridden = dataclasses.replace(
            swapped, program=dataclasses.replace(
                swapped.program, allow_damping_override=True))
        overridden.validate()

    def test_preset_dir_env_override(self, tmp_path, monkeypatch):
        src = (tmp_path / "mine.json")
        builtin = load_preset("symmetric-test")
        src.write_text(json.dumps(builtin.to_dict()))
        monkeypatch.setenv("GEOGAMI_PRESET_DIR", str(tmp_path))
        assert available_presets() == ["mine"]
        assert load_preset("mine") == builtin
        with pytest.raises(ConfigError, match="not found in"):
            load_preset("paper-table1")

    def test_builders_produce_published_values(self):
        config = load_preset("paper-table1")
        gearbox = config.build_gearbox()
        assert gearbox.sector_arc == pytest.approx(2 * math.pi, rel=1e-12)
        sides = config.build_sides()
        from geogami.compliance import side_equivalent_stiffness
        assert side_equivalent_stiffness(sides[0]) == pytest.approx(
            0.0727, abs=5e-4)
        bare = config.build_simulator(origami=False).sides
        assert bare[0].origami_chain == ()

    def test_composition_law_switch_changes_cable_stiffness(self):
        base = load_preset("paper-table1")
        law_a = dataclasses.replace(base, composition_law="A")
        law_a.validate()
        k_b = base.build_simulator().cable_stiffnesses[0]
        k_a = law_a.build_simulator().cable_stiffnesses[0]
        assert k_b == pytest.approx(1 / (1 / 0.096 + 2 / 0.6), rel=1e-12)
        assert k_a == pytest.approx(1 / (1 / 0.096 + 1 / 1.2), rel=1e-12)
        assert k_a > k_b


class TestFitCli:
    def test_fit_reports_mean_stiffness(self, tmp_path, capsys):
        csv_path = tmp_path / "meas.csv"
        rows = ["theta_deg,force_N,return_deg"]
        for deg in range(10, 101, 10):
            theta = math.radians(deg)
            rows.append(f"{deg},{0.52 * theta:.9f},{math.degrees(0.165 * theta):.6f}")
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "model.json"
        code = main(["fit", str(csv_path), "--degree", "1",
                     "--family", "folding_24mm", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "0.52" in captured.out
        model = json.loads(out.read_text())
        assert model["family"] == "folding_24mm"
        assert model["mean_stiffness_n_per_rad"] == pytest.approx(0.52, abs=1e-9)

    def test_an_operand_after_the_end_of_options_stays_one(
            self, tmp_path, capsys, monkeypatch):
        # "--" ends the options: "-1.csv" is the input file, not a value
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--", "-1.csv"]) == 2
        assert capsys.readouterr().err == \
            "error: [Errno 2] No such file or directory: '-1.csv'\n"

    def test_fit_uses_numpy_polyval_values(self, tmp_path, capsys):
        # the model file's coefficients are polyfit's, and its mean
        # stiffness and the reported residuals are numpy's polyval values on
        # those coefficients, to the bit
        csv_path = tmp_path / "meas.csv"
        csv_path.write_text(
            "theta_deg,force_N,return_deg\n"
            "0,0.0200,0.30\n10,0.1126,1.77\n20,0.1996,3.08\n30,0.2792,4.72\n"
            "40,0.3523,6.64\n50,0.4216,8.36\n60,0.4906,9.62\n"
            "70,0.5616,10.77\n80,0.6349,12.28\n90,0.7084,14.04\n"
            "100,0.7786,15.54\n110,0.8425,16.59\n")
        out = tmp_path / "model.json"
        assert main(["fit", str(csv_path), "--family", "folding_24mm",
                     "--out", str(out)]) == 0
        assert "max residuals: force 5.084e-03 N, return angle 6.215e-03 rad" \
            in capsys.readouterr().out
        data = compliance.read_measurement_csv(str(csv_path))
        angles, forces, returns = np.array(data.samples).T
        force_coeffs = npoly.polyfit(angles, forces, 3)
        return_coeffs = npoly.polyfit(angles, returns, 3)
        model = json.loads(out.read_text())
        assert model["force_coeffs"] == force_coeffs.tolist()
        assert model["return_coeffs"] == return_coeffs.tolist()
        lo, hi = angles.min(), angles.max()
        assert model["mean_stiffness_n_per_rad"] == float(
            (npoly.polyval(hi, force_coeffs) - npoly.polyval(lo, force_coeffs))
            / (hi - lo))
        fitted = compliance.JointModel(
            family=data.family, force_coeffs=tuple(model["force_coeffs"]),
            return_coeffs=tuple(model["return_coeffs"]),
            valid_range=tuple(model["valid_range_rad"]),
            mean_stiffness=model["mean_stiffness_n_per_rad"])
        assert compliance.fit_residuals(fitted, data) == (
            float(np.max(np.abs(npoly.polyval(angles, force_coeffs) - forces))),
            float(np.max(np.abs(npoly.polyval(angles, return_coeffs) - returns))))

    @pytest.mark.parametrize("rows, message", [
        ("10,0.1,1\n10,0.1,1\n10,0.12,1\n20,0.2,2\n20,0.21,2\n",
         "2 distinct bend angles for degree 3"),
        ("10,0.1,1\n" * 5, "1 distinct bend angles for degree 3")],
        ids=("two-angles", "one-angle"))
    def test_repeated_angles_are_one_angle(self, tmp_path, capsys, rows,
                                           message):
        # polyfit would only warn, and fit a cubic through two angles
        csv_path = tmp_path / "meas.csv"
        csv_path.write_text("theta_deg,force_N,return_deg\n" + rows)
        out = tmp_path / "model.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", str(csv_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: underdetermined fit: {message}\n")
        assert caught == []
        assert not out.exists()

    def test_a_byte_order_mark_reads_as_no_mark(self, tmp_path, capsys):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        text = "theta_deg,force_N,return_deg\n" + "".join(
            f"{deg},{0.005 * deg:.4f},{0.16 * deg:.3f}\n"
            for deg in range(10, 70, 10))
        assert text.encode("utf-8-sig") == b"\xef\xbb\xbf" + text.encode()
        models = []
        for encoding in ("utf-8", "utf-8-sig"):
            csv_path = tmp_path / f"{encoding}.csv"
            csv_path.write_text(text, encoding=encoding)
            out = tmp_path / f"{encoding}.json"
            assert main(["fit", str(csv_path), "--out", str(out)]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]
        assert capsys.readouterr().err == ""

    def test_fit_takes_a_negative_intercept(self, tmp_path, capsys):
        # every force is >= 0, but the cubic's value at zero bend is
        # -0.00238 N; no path reads the curve there
        csv_path = tmp_path / "meas.csv"
        csv_path.write_text(
            "theta_deg,force_N,return_deg\n0,0,0\n20,0.2,3\n40,0.4,6\n"
            "60,0.55,9\n80,0.7,12\n100,0.85,15\n")
        out = tmp_path / "model.json"
        assert main(["fit", str(csv_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        angles, forces, returns = np.array(
            compliance.read_measurement_csv(str(csv_path)).samples).T
        model = json.loads(out.read_text())
        assert model["force_coeffs"] == \
            npoly.polyfit(angles, forces, 3).tolist()
        assert model["return_coeffs"] == \
            npoly.polyfit(angles, returns, 3).tolist()
        assert model["force_coeffs"][0] == pytest.approx(-0.00238, abs=1e-5)

    @pytest.mark.parametrize("out", ("models", "."))
    def test_directory_out_is_named(self, tmp_path, capsys, monkeypatch, out):
        # the line names the user's path, not open_atomic's temp file
        monkeypatch.chdir(tmp_path)
        Path("models").mkdir()
        Path("meas.csv").write_text(
            "theta_deg,force_N,return_deg\n" + "".join(
                f"{deg},{0.005 * deg:.4f},{0.16 * deg:.3f}\n"
                for deg in range(10, 70, 10)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "meas.csv", "--out", out])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: '{out}'\n")
        assert caught == []
        assert sorted(os.listdir()) == ["meas.csv", "models"]
        assert os.listdir("models") == []

    def test_fit_empty_file(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("theta_deg,force_N,return_deg\n")
        code = main(["fit", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "no samples" in captured.err

    def test_fit_names_malformed_row(self, tmp_path, capsys):
        csv_path = tmp_path / "broken.csv"
        lines = ["theta_deg,force_N,return_deg"]
        lines += [f"{5 * k},0.05,{0.2 * k}" for k in range(1, 6)]
        lines.insert(6, "30,not-a-number,1.0")
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["fit", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "row 7" in captured.err


class TestGearboxCli:
    def test_retraction_query_full_chain(self, capsys):
        code = main(["gearbox", "--preset", "paper-table1",
                     "--retraction-mm", "25.1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "269.825" in captured.out
        assert "eta" in captured.out  # efficiency derivation is documented

    def test_zero_retraction_zero_chain(self, capsys):
        code = main(["gearbox", "--retraction-mm", "0", "--csv"])
        captured = capsys.readouterr()
        assert code == 0
        rows = dict(line.split(",")[:2] for line in
                    captured.out.strip().splitlines()[1:])
        assert float(rows["theta_m"]) == 0.0
        assert float(rows["L"]) == 0.0

    def test_torque_query_reaches_published_tension(self, capsys):
        code = main(["gearbox", "--preset", "paper-table1",
                     "--torque-nm", "2.4e-4", "--csv"])
        captured = capsys.readouterr()
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1]
                for line in captured.out.strip().splitlines()[1:]}
        force = float(rows["F"])
        assert force == pytest.approx(1.8, abs=0.05)

    def test_motor_angle_query(self, capsys):
        # 269.825 rad = 15459.84... degrees of motor angle
        code = main(["gearbox", "--preset", "paper-table1",
                     "--motor-deg", str(math.degrees(269.825)), "--csv"])
        captured = capsys.readouterr()
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1]
                for line in captured.out.strip().splitlines()[1:]}
        assert float(rows["L"]) == pytest.approx(25.1, rel=1e-9)

    def test_query_required(self, capsys):
        code = main(["gearbox"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("option, value", [
        ("--torque-nm", "nan"), ("--tension-n", "inf"),
        ("--motor-deg", "inf"), ("--retraction-mm", "nan"),
        ("--tension-n", "-5"), ("--torque-nm", "-1"),
        ("--motor-deg", "-90"), ("--retraction-mm", "-1"),
    ])
    def test_bad_query_gives_one_error_line(self, capsys, option, value):
        code = main(["gearbox", "--preset", "paper-table1", "--csv",
                     f"{option}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {option} must be finite and >= 0, "
                                f"got {float(value)}\n")
        assert captured.out == ""

    # each program cannot run: its stroke reaches the rest radius, it
    # starts off a rest pose, or it opens too many engagement windows
    @pytest.mark.parametrize("section, field, value", [
        ("gearbox", "spool_radius_mm", 40.0),
        ("program", "initial_roll_deg", 30.0),
        ("program", "duration_s", 1e9),
    ])
    def test_query_needs_no_runnable_program(self, tmp_path, capsys,
                                             section, field, value):
        data = load_preset("paper-table1").to_dict()
        data[section][field] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_config(str(path)).validate()
        code = main(["gearbox", "--config", str(path), "--retraction-mm", "5",
                     "--csv"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        rows = dict(line.split(",")[:2] for line in
                    captured.out.strip().splitlines()[1:])
        spool = data["gearbox"]["spool_radius_mm"]
        assert float(rows["theta_s"]) == pytest.approx(5 / spool, rel=1e-9)

    @pytest.mark.parametrize("option", ["--tension-n", "--torque-nm"])
    def test_overflow_gives_one_error_line(self, capsys, option):
        # tau_s = F * r_s overflows, and so does the spool torque of 1e308 N*m
        code = main(["gearbox", "--preset", "paper-table1", "--csv",
                     f"{option}=1e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {option} 1e+308 gives a non-finite "
                                f"tau_s (inf)\n")
        assert captured.out == ""


class TestSimulateCli:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "symmetric-test",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "rolls=0" in captured.out
        assert "stall=no" in captured.out
        trace = (tmp_path / "trace_cyclic.csv").read_text()
        assert trace.splitlines()[0].startswith("t_s,theta_m_rad,phi_rad")

    def test_plot_is_wellformed_svg(self, tmp_path):
        code = main(["simulate", "--preset", "symmetric-test",
                     "--out", str(tmp_path), "--plot"])
        assert code == 0
        svg = (tmp_path / "trace_cyclic.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_plot_keeps_jumps_and_overshoot(self, tmp_path):
        # the roll panel draws each pixel column's lowest and highest point
        assert main(["simulate", "--preset", "paper-table1",
                     "--out", str(tmp_path), "--plot"]) == 0
        root = ET.fromstring((tmp_path / "trace_cyclic.svg").read_text())
        panel = [e for e in root.iter() if e.tag.endswith("rect")][1]
        polyline = next(e for e in root.iter() if e.tag.endswith("polyline"))
        vertices = [tuple(map(float, p.split(",")))
                    for p in polyline.get("points").split()]
        assert len(vertices) <= 2 * float(panel.get("width"))

        trace = load_preset("paper-table1").build_simulator().run()
        times = trace.columns[:, 0]
        roll_deg = np.degrees(trace.columns[:, 2])
        x0, x1 = svgplot._nice_limits(times)
        y0, y1 = svgplot._nice_limits(roll_deg)
        left, width = float(panel.get("x")), float(panel.get("width"))
        bottom = float(panel.get("y")) + float(panel.get("height"))

        def px(t):
            return left + (t - x0) / (x1 - x0) * width

        def py(deg):
            return bottom - (deg - y0) / (y1 - y0) * float(panel.get("height"))

        tips = [e.time for e in trace.events if e.kind is EventKind.TIP]
        assert len(tips) == 4
        for tip in tips:
            # the tip and roll_complete rows share the tip time
            rows = np.flatnonzero(times == tip)
            before, after = roll_deg[rows[0]], roll_deg[rows[-1]]
            assert after - before == pytest.approx(90.0)
            column = [y for x, y in vertices
                      if math.floor(x) == math.floor(px(tip))]
            assert max(column) == pytest.approx(py(before), abs=0.01)
            assert min(column) <= py(after) + 0.01
        first_roll = (times > tips[0]) & (times < tips[1])
        peak = np.flatnonzero(first_roll)[np.argmax(roll_deg[first_roll])]
        assert (round(px(times[peak]), 2), round(py(roll_deg[peak]), 2)) \
            in vertices

    @given(st.lists(st.tuples(st.integers(0, 4),
                              st.sampled_from([0.0, 0.25, 0.75]),
                              st.sampled_from([-1.0, 0.0, 0.5, 2.0])),
                    min_size=1, max_size=40))
    def test_column_extrema_match_a_loop(self, points):
        px = np.array([column + frac for column, frac, _ in points])
        py = np.array([y for *_, y in points])
        lowest, highest = {}, {}
        for i, (x, y) in enumerate(zip(px, py)):
            column = math.floor(x)
            if column not in lowest or y < py[lowest[column]]:
                lowest[column] = i
            if column not in highest or y >= py[highest[column]]:
                highest[column] = i
        expected = sorted({*lowest.values(), *highest.values()})
        assert svgplot._column_extrema(px, py).tolist() == expected

    def test_full_cycle_summary(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "paper-table1",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "rolls=4" in captured.out
        assert "stall=no" in captured.out
        travel = float(captured.out.split("travel_mm=")[1].split()[0])
        assert travel == pytest.approx(4 * 148.3, abs=0.5)

    def test_explicit_config_file(self, tmp_path, capsys):
        config = load_preset("symmetric-test")
        path = write_config(tmp_path, config)
        code = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        assert "rolls=0" in capsys.readouterr().out

    def test_spindle10_reports_stall(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "paper-table1",
                     "--mode", "spindle10", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "stall=yes" in captured.out
        assert (tmp_path / "trace_spindle10.csv").exists()

    def test_byte_identical_traces(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["simulate", "--preset", "symmetric-test",
                         "--out", str(tmp_path / sub)]) == 0
        first = (tmp_path / "a" / "trace_cyclic.csv").read_bytes()
        second = (tmp_path / "b" / "trace_cyclic.csv").read_bytes()
        assert first == second

    def test_failed_trace_write_leaves_no_file(self, tmp_path, capsys,
                                               monkeypatch):
        def failing(self, stream):
            stream.write("t_s,partial\n" * 5000)
            raise OSError("disk full")

        monkeypatch.setattr(SimTrace, "write_csv", failing)
        code = main(["simulate", "--preset", "symmetric-test",
                     "--duration-s", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not list(tmp_path.iterdir())

    def test_origami_flag_scales_tension_column(self, tmp_path):
        for flag in ("on", "off"):
            assert main(["simulate", "--preset", "symmetric-test",
                         "--origami", flag,
                         "--out", str(tmp_path / flag)]) == 0

        def max_tension(sub):
            lines = (tmp_path / sub / "trace_cyclic.csv").read_text().splitlines()
            return max(float(line.split(",")[col])
                       for line in lines[1:] for col in range(9, 13))

        # without the soft folding chain in series the cable sees a stiffer side
        assert max_tension("off") > max_tension("on")

    @pytest.mark.parametrize("argv", [
        # 32.005 / 1e-3 rounds to 32005.000000000004
        ["--duration-s", "32.005"],
        ["--duration-s", "16.036", "--dt", "0.0005"],
        # 11.801 / 0.07375625 rounds to 160.0, and step 160 ends short of
        # 11.801 at 11.800999999999998
        ["--duration-s", "11.801", "--dt", "0.07375625"],
    ])
    def test_trace_ends_at_a_duration_off_the_grid(self, tmp_path, capsys,
                                                   argv):
        assert main(["simulate", "--preset", "paper-table1", *argv,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in
                (tmp_path / "trace_cyclic.csv").read_text().splitlines()[1:]]
        duration = float(argv[1])
        assert float(rows[-1][0]) == duration
        # a row without an event ends each grid step, at min(k * dt,
        # duration), up to the first step that reaches the duration
        dt = float(argv[3]) if len(argv) > 2 else 1e-3
        ends = [0.0]
        while ends[-1] < duration:
            ends.append(min(len(ends) * dt, duration))
        assert [row[0] for row in rows if not row[-1]] == \
            [f"{end:.9f}" for end in ends]

    def test_step_past_the_duration_does_not_overflow(self, tmp_path,
                                                       capsys):
        # 2 * 1e308 overflows; one step to the duration is the whole grid
        for dt in ("1e308", "36.1"):
            assert main(["simulate", "--preset", "paper-table1", "--dt", dt,
                         "--out", str(tmp_path / dt)]) == 0
            assert capsys.readouterr().err == ""
        first, second = ((tmp_path / dt / "trace_cyclic.csv").read_bytes()
                         for dt in ("1e308", "36.1"))
        assert first == second
        assert hashlib.sha256(first).hexdigest().startswith("68496f2317d8")

    @pytest.mark.parametrize("take_up", [0.0, 1e-310])
    def test_motor_angle_past_the_largest_float(self, tmp_path, capsys,
                                                take_up):
        # corners that never reach the cap run the whole grid, and 30 rad/s
        # times the 1e308 s row passes the largest float
        data = load_preset("paper-table1").to_dict()
        data["program"]["spindle_profiles"] = {"pyramid": [take_up] * 4}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(path), "--mode",
                         "pyramid", "--duration-s", "1.7e308", "--dt",
                         "1e308", "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == ("", (
            "error: the motor angle at t = 1.7e+308 s passes the largest "
            "float\n"))
        assert not out_dir.exists()


class TestSweepCli:
    def test_spool_radius_sweep_tension_scaling(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "symmetric-test",
                     "--param", "gearbox.spool_radius_mm",
                     "--values", "5,8,10", "--out", str(tmp_path),
                     "--duration-s", "1.0"])
        captured = capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,rolls,travel_mm,max_tension_N,stall"
        assert len(lines) == 4
        tensions = {float(line.split(",")[0]): float(line.split(",")[3])
                    for line in lines[1:]}
        # cable force capacity at fixed motor torque scales as 1/r_s
        assert tensions[5] == pytest.approx(tensions[8] * 8 / 5, rel=1e-9)
        assert tensions[10] == pytest.approx(tensions[8] * 8 / 10, rel=1e-9)

    def test_single_point_sweep_matches_simulate_summary(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "symmetric-test",
                     "--param", "gearbox.spool_radius_mm", "--values", "8",
                     "--out", str(tmp_path)]) == 0
        sweep_line = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1]
        _, rolls, travel, _, stall = sweep_line.split(",")
        capsys.readouterr()
        assert main(["simulate", "--preset", "symmetric-test",
                     "--out", str(tmp_path)]) == 0
        summary = capsys.readouterr().out
        assert f"rolls={rolls} " in summary
        assert f"stall={stall}" in summary
        assert f"travel_mm={float(travel):.1f}" in summary

    def test_balanced_ring_without_a_lever_sweeps(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "paper-table1",
                     "--param", "support.contact_lever_mm", "--values", "0",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == \
            ["0,5,741.416,1.811160,no"]

    @pytest.mark.parametrize("param, values, errors, rows", [
        ("support.contact_lever_mm", "-1,2,nan",
         "error: value -1: contact lever must be finite and >= 0, got -1.0\n"
         "error: value nan: support.contact_lever_mm must be finite, "
         "got nan\n",
         ["2,4,593.133,1.811160,no"]),
        # the gearbox's (0, 2*pi] check is the only range check of the arc
        ("gearbox.sector_arc_deg", "-90,0,90,180,360,400,nan",
         "".join(f"error: value {value}: sector_arc must be in (0, 2*pi], "
                 f"got {radians}\n" for value, radians in (
                     ("-90", -1.5707963267948966), ("0", 0.0),
                     ("400", 6.981317007977318)))
         + "error: value nan: gearbox.sector_arc_deg must be finite, "
         "got nan\n",
         ["90,0,0.000,1.811160,no", "180,0,0.000,1.811160,no",
          "360,4,593.133,1.811160,no"]),
    ], ids=["contact-lever", "sector-arc"])
    def test_bad_contact_lever_fails_only_its_point(self, tmp_path, capsys,
                                                    param, values, errors,
                                                    rows):
        assert main(["sweep", "--preset", "paper-table1", "--param", param,
                     f"--values={values}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == errors
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("spelling", [
        ["--range", "-90:90:90"], ["--range=-90:90:90"],
        ["--values", "-90,0,90"]])
    def test_negative_values_reach_their_option(self, tmp_path, capsys,
                                                spelling):
        assert main(["sweep", "--preset", "paper-table1",
                     "--param", "program.initial_roll_deg", *spelling,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == [
            "-90,1,148.283,1.811160,no", "0,4,593.133,1.811160,no",
            "90,3,444.850,1.811160,no"]

    @pytest.mark.parametrize("tail", [["--range"], ["--range", "-h"]])
    def test_a_missing_value_stays_a_usage_error(self, tmp_path, capsys,
                                                 tail):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "program.initial_roll_deg",
                  "--out", str(tmp_path), *tail])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --range: expected one argument\n")

    def test_worm_teeth_sweep(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "paper-table1",
                     "--param", "gearbox.worm_teeth", "--values", "40,43,50",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            ["40", "4"], ["43", "4"], ["50", "3"]]

    def test_rolls_are_net_of_backward_rolls(self, tmp_path, capsys):
        # first corners 1 and 2 roll back once before rolling forward
        assert main(["sweep", "--preset", "paper-table1",
                     "--param", "program.first_corner", "--values", "1,2,3,4",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [int(row[1]) for row in rows] == [1, 2, 3, 4]
        # one cyclic roll travels 148.283 mm
        for _, rolls, travel, _, _ in rows:
            assert float(travel) / int(rolls) == pytest.approx(148.283,
                                                               abs=1e-3)

    @pytest.mark.parametrize("values", ["5.5", "5,5.5"])
    def test_decimal_field_written_whole_takes_fractions(self, tmp_path,
                                                         capsys, values):
        # a hand-written file may give a decimal field as 8, not 8.0
        data = load_preset("paper-table1").to_dict()
        data["gearbox"]["spool_radius_mm"] = 8
        path = tmp_path / "whole.json"
        path.write_text(json.dumps(data))
        argv = ["sweep", "--param", "gearbox.spool_radius_mm",
                "--values", values, "--duration-s", "1"]
        assert main(argv + ["--config", str(path),
                            "--out", str(tmp_path / "file")]) == 0
        assert main(argv + ["--preset", "paper-table1",
                            "--out", str(tmp_path / "preset")]) == 0
        from_file = (tmp_path / "file" / "sweep.csv").read_text()
        assert from_file.splitlines()[-1].startswith("5.5,")
        assert from_file == (tmp_path / "preset" / "sweep.csv").read_text()

    @pytest.mark.parametrize("param, value", [
        ("gearbox.driver_teeth", "4"), ("gearbox.driven_teeth", "12"),
        ("program.first_corner", "2"),
        ("sides.0.origami_joint_count", "3"),
    ])
    def test_integer_field_sweeps(self, tmp_path, capsys, param, value):
        assert main(["sweep", "--preset", "paper-table1", "--param", param,
                     "--values", value, "--duration-s", "1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith(f"{value},")

    def test_unknown_field(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "symmetric-test",
                     "--param", "gearbox.nope", "--values", "1",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown config field" in captured.err

    def test_zero_step_range(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "symmetric-test",
                     "--param", "gearbox.spool_radius_mm",
                     "--range", "5:10:0", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "nonzero" in captured.err

    def test_range_generates_inclusive_grid(self, tmp_path):
        assert main(["sweep", "--preset", "symmetric-test",
                     "--param", "program.motor_speed_rad_s",
                     "--range", "10:30:10", "--out", str(tmp_path),
                     "--duration-s", "0.5"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == [10.0, 20.0, 30.0]

    @pytest.mark.parametrize("spec, points", [
        ("0:100000:1", 100_001), ("100000:0:-1", 100_001),
        ("0:1:1e-5", 100_001), ("0:100000.5:1", None),
        ("100001:0:-1", None), ("0:2:1e-5", None),
    ])
    def test_range_step_bound(self, spec, points):
        args = argparse.Namespace(values=None, range=spec)
        if points is None:
            with pytest.raises(CliError) as exc:
                _sweep_values(args)
            assert str(exc.value) == (f"--range {spec!r} spans more than "
                                      "100000 steps")
        else:
            assert len(_sweep_values(args)) == points

    def test_non_numeric_field_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "symmetric-test",
                     "--param", "program.mode", "--values", "1",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "not numeric" in captured.err

    @pytest.mark.parametrize("param, error", [
        ("sides.0.routing_gain", None),
        ("program.spindle_profiles.pyramid.1", None),
        ("sides.9.routing_gain", "unknown config field {!r}"),
        ("sides.x.routing_gain", "unknown config field {!r}"),
        ("gearbox.spool_radius_mm.x", "unknown config field {!r}"),
        ("program.spindle_profiles.pyramid.9", "unknown config field {!r}"),
        ("program.spindle_profiles.pyramid", "config field {!r} is not numeric"),
        ("description", "config field {!r} is not numeric"),
        ("gearbox", "config field {!r} is not numeric"),
        ("sides.-1.routing_gain", "unknown config field {!r}"),
        ("sides.+1.routing_gain", "unknown config field {!r}"),
        ("sides.0_0.routing_gain", "unknown config field {!r}"),
        ("mass_layout.corner_masses_kg. 1", "unknown config field {!r}"),
    ])
    def test_param_path_through_lists_and_dicts(self, param, error, tmp_path,
                                                capsys):
        code = main(["sweep", "--preset", "symmetric-test", "--param", param,
                     "--values", "1", "--duration-s", "0.5",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        if error is None:
            assert code == 0
            assert (tmp_path / "sweep.csv").read_text().count("\n") == 2
        else:
            assert code == 2
            assert captured.err == f"error: {error.format(param)}\n"

    @staticmethod
    def sweep(param, values, out_dir):
        """(exit code, stdout, stderr) of one ``paper-table1`` sweep."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", "--preset", "paper-table1", "--param", param,
                         "--values", ",".join(map(repr, values)),
                         "--out", str(out_dir)])
        return code, out.getvalue(), err.getvalue()

    # a spool above 30.05 mm pulls a corner through its rest radius, and a
    # start of 15, 30 or 60 degrees keeps tipping at rest; both are refused
    # when built
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mixed_sweep_keeps_the_feasible_rows(self, tmp_path_factory,
                                                 data):
        param, feasible, failing = data.draw(st.sampled_from([
            ("gearbox.spool_radius_mm", st.floats(5.0, 10.0),
             st.floats(30.1, 60.0)),
            ("program.initial_roll_deg", st.sampled_from([0.0, 45.0, 90.0,
                                                          135.0]),
             st.sampled_from([15.0, 30.0, 60.0])),
        ]))
        points = data.draw(st.lists(
            feasible.map(lambda v: (v, True))
            | failing.map(lambda v: (v, False)), min_size=1, max_size=6))
        out_dir = tmp_path_factory.mktemp("mixed")
        code, out, err = self.sweep(param, [v for v, _ in points], out_dir)
        rows = []
        for value in (v for v, runs in points if runs):
            one = self.sweep(param, [value], tmp_path_factory.mktemp("one"))
            assert one[0] == 0 and one[2] == ""
            rows.append(one[1].splitlines()[1])
        failed = [v for v, runs in points if not runs]
        assert code == (2 if failed else 0)
        lines = err.splitlines()
        assert len(lines) == len(failed)
        for line, value in zip(lines, failed):
            assert line.startswith(f"error: value {value:.9g}: ")
        path = out_dir / "sweep.csv"
        if not rows:
            assert out == ""
            assert not path.exists()
            return
        text = "\n".join(["value,rolls,travel_mm,max_tension_N,stall",
                          *rows]) + "\n"
        assert path.read_text() == text
        assert out == f"{text}wrote {path}\n"

    # both default to null; the declared type, not the value, makes them
    # numbers
    @pytest.mark.parametrize("param, values, with_value", [
        ("program.max_contraction_mm", (10.0, 30.0),
         lambda c, v: dataclasses.replace(c, program=dataclasses.replace(
             c.program, max_contraction_mm=v))),
        ("sides.0.cable_stiffness", (0.5, 30.0),
         lambda c, v: dataclasses.replace(c, sides=(dataclasses.replace(
             c.sides[0], cable_stiffness=v), *c.sides[1:]))),
    ], ids=["max_contraction_mm", "cable_stiffness"])
    def test_null_default_number_sweeps(self, tmp_path, param, values,
                                        with_value):
        code, _, err = self.sweep(param, values, tmp_path)
        assert (code, err) == (0, "")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(values)
        config = load_preset("paper-table1")
        summaries = []
        for value, row in zip(values, rows):
            _, rolls, travel, _, stall = row.split(",")
            summaries.append(f"rolls={rolls} travel_mm={float(travel):.1f} "
                             f"stall={stall}")
            trace = with_value(config, value).build_simulator().timeline()
            assert summaries[-1] == trace.summary_line()
        if param == "program.max_contraction_mm":
            assert summaries == ["rolls=0 travel_mm=0.0 stall=no",
                                 "rolls=4 travel_mm=593.1 stall=no"]


class TestInputChecks:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--dt", "0"],
        ["simulate", "--dt", "-1"],
        ["simulate", "--duration-s", "inf"],
        ["simulate", "--duration-s", "nan"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--values", "8",
         "--duration-s", "inf"],
        ["sweep", "--param", "support.contact_lever_mm", "--values", "-1"],
        ["sweep", "--param", "support.contact_lever_mm", "--values", "nan"],
        ["sweep", "--param", "support.contact_lever_mm", "--values", "inf"],
        ["sweep", "--param", "sides.0.routing_gain", "--values", "inf"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--range", "0:inf:1"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--range", "nan:9:1"],
        ["sweep", "--param", "program.first_corner", "--values", "2.5"],
        # --duration-s would replace every swept duration
        ["sweep", "--param", "program.duration_s", "--values", "5,20,36.1",
         "--duration-s", "36.1"],
        # about 1e18 points
        ["sweep", "--param", "gearbox.spool_radius_mm",
         "--range", "0:1e9:1e-9"],
        # a negative value that is not a plain number reaches its option
        ["simulate", "--duration-s", "-1e3"],
    ])
    def test_bad_input_gives_one_error_line(self, tmp_path, capsys, argv):
        code = main(argv + ["--preset", "paper-table1",
                            "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--values", "5,6,7"],
    ], ids=lambda argv: argv[0])
    def test_non_finite_duration_flag_is_one_error_line(self, tmp_path,
                                                        capsys, command,
                                                        value):
        # parsed once as program.duration_s, not once per sweep point
        code = main(command + [f"--duration-s={value}", "--preset",
                               "paper-table1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: program.duration_s must be finite, "
                                f"got {float(value)}\n")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_frequency_with_an_infinite_angular_rate(self, tmp_path, capsys,
                                                     command):
        # 2*pi*1e308 is inf, and the ring-down at dt = 0 would be inf * 0
        data = load_preset("paper-table1").to_dict()
        data["program"]["damping_with_origami"]["frequency_hz"] = 1e308
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv, point = [command, "--config", str(path)], ""
        if command == "sweep":
            argv += ["--param", "program.motor_speed_rad_s", "--values", "30"]
            point = "value 30: "
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {point}frequency must be "
                                           "> 0 with 2*pi*f finite\n")
        assert caught == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, key, value, error", [
        ("mass_layout", "corner_masses_kg", [0.25] * 3,
         "mass_layout needs 4 corners"),
        ("mass_layout", "ray_angles_deg", [90.0, 0.0, 270.0, 180.0, 45.0],
         "mass_layout needs 4 corners"),
        ("mass_layout", "rest_radii_mm", [94.4] * 5,
         "mass_layout needs 4 corners"),
    ])
    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_the_ring_has_four_corners(self, tmp_path, capsys, command,
                                       section, key, value, error):
        data = load_preset("paper-table1").to_dict()
        data[section][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv, point = [command, "--config", str(path)], ""
        if command == "sweep":
            argv += ["--param", "program.motor_speed_rad_s", "--values", "30"]
            point = "value 30: "
        out_dir = tmp_path / "out"
        assert main(argv + ["--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {point}{error}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda data: data["program"].update(mode="bogus"),
         "mode must be one of ('cyclic', 'pyramid', 'spindle5', "
         "'spindle10'), got 'bogus'"),
        (lambda data: data["program"].update(release_model="bogus"),
         "program.release_model must be 'instant_return' or "
         "'return_angle_limited', got 'bogus'"),
        (lambda data: data["program"].update(
            mode="spindle10", spindle_profiles={"spindle10": [1.1, 1.0, 0.9]}),
         "take_up needs one multiplier per corner, got 3"),
        (lambda data: data.update(sides=data["sides"][:3]),
         "need 4 sides, got 3"),
        (lambda data: data.update(sides=data["sides"] + data["sides"][:1]),
         "need 4 sides, got 5"),
        # the count is checked with the origami chain off too
        (lambda data: (data["program"].update(origami=False),
                       data["sides"][0].update(origami_joint_count=101)),
         "sides.0.origami_joint_count must be between 0 and 100, got 101"),
    ], ids=("mode", "release_model", "3-take-ups", "3-sides", "5-sides",
            "joints-off"))
    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_a_builder_names_a_bad_file_value(self, tmp_path, capsys,
                                              command, edit, error):
        data = load_preset("paper-table1").to_dict()
        edit(data)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv, point = [command, "--config", str(path)], ""
        if command == "sweep":
            argv += ["--param", "program.motor_speed_rad_s", "--values", "30"]
            point = "value 30: "
        out_dir = tmp_path / "out"
        assert main(argv + ["--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {point}{error}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("release, param, value, time, tips", [
        # a heavier corner 4: the instant_return two-cycle between -90 and
        # -180 degrees; the - tip's margin is dust of _tip_time's float snap
        ("instant_return", "mass_layout.corner_masses_kg.3", "0.31", "16.517",
         [(-90, "-", None), (-180, "+", "0.324")]),
        # the return_angle_limited two-cycle between 90 and 180 degrees
        ("return_angle_limited", "gearbox.spool_radius_mm", "8.5", "15.751",
         [(90, "+", None), (180, "-", "0.459")]),
    ])
    def test_keeps_tipping_names_the_last_tips(self, tmp_path, capsys,
                                               release, param, value, time,
                                               tips):
        data = load_preset("paper-table1").to_dict()
        data["program"]["release_model"] = release
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(path),
                     "--param", param, "--values", value,
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out_dir.exists()
        assert captured.err.startswith(
            f"error: value {value}: state keeps tipping after 8 consecutive "
            f"rolls at t = {time} s; last tips at ")
        named = re.findall(r"phi = (\S+) deg \(([+-]), margin (\S+) mm\)",
                           captured.err)
        assert [(float(phi), sign) for phi, sign, _ in named] == \
            [(phi, sign) for phi, sign, _ in tips]
        for (_, _, margin), (_, _, expected) in zip(named, tips):
            assert 0 < float(margin)
            if expected is None:   # rounding dust, not a real imbalance
                assert float(margin) < 1e-13
            else:
                assert margin == expected

    @pytest.mark.parametrize("count", (-3, 10 ** 19))
    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_origami_joint_count_out_of_range(self, tmp_path, capsys,
                                              command, count):
        if command == "simulate":
            data = load_preset("paper-table1").to_dict()
            data["sides"][0]["origami_joint_count"] = count
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            argv = ["simulate", "--config", str(path)]
            point = ""
        else:
            argv = ["sweep", "--preset", "paper-table1",
                    "--param", "sides.0.origami_joint_count",
                    "--values", str(count)]
            point = f"value {float(count):.9g}: "
        out_dir = tmp_path / "out"
        code = main(argv + ["--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {point}sides.0.origami_joint_count "
                                f"must be between 0 and 100, got {count}\n")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_origami_joint_count_bounds(self):
        config = load_preset("paper-table1")
        cap = geogami_config.MAX_ORIGAMI_JOINTS

        def with_count(count):
            side = dataclasses.replace(config.sides[0],
                                       origami_joint_count=count)
            return dataclasses.replace(config, sides=(side, *config.sides[1:]))

        with_count(0).validate()
        with_count(cap).validate()
        with pytest.raises(ConfigError, match=r"^sides\.0\.origami_joint"):
            with_count(cap + 1).validate()

    def test_sweep_has_no_time_step(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "symmetric-test",
                  "--param", "gearbox.spool_radius_mm", "--values", "8",
                  "--dt", "1e-3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err


class TestSpindleProfiles:
    """``program.spindle_profiles``: a section with one field per drive."""

    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_an_omitted_drive_keeps_its_default(self, tmp_path, capsys,
                                                command):
        # as a dict, a file's profiles replaced all three, and spindle5
        # then failed for want of its own
        outputs = []
        for profiles in ({"pyramid": [0.5] * 4}, None):
            data = load_preset("paper-table1").to_dict()
            data["program"]["mode"] = "spindle5"
            if profiles is not None:
                data["program"]["spindle_profiles"] = profiles
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            out_dir = tmp_path / str(len(outputs))
            argv = ["--mode", "spindle5"] if command == "simulate" else [
                "--param", "program.motor_speed_rad_s", "--values", "30"]
            assert main([command, "--config", str(path), "--out",
                         str(out_dir)] + argv) == 0
            assert capsys.readouterr().err == ""
            outputs.append(next(out_dir.iterdir()).read_bytes())
        assert outputs[0] == outputs[1]

    def test_a_multiplier_sweeps(self, tmp_path, capsys):
        data = load_preset("paper-table1").to_dict()
        data["program"]["mode"] = "spindle10"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(path), "--param",
                     "program.spindle_profiles.spindle10.3",
                     "--values", "0.5,1,-1", "--out", str(tmp_path)]) == 2
        # the negative point reaches the schedule, which refuses it
        assert capsys.readouterr().err == (
            "error: value -1: take_up multipliers must be finite and >= 0\n")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.5", "1"]

    # sha256 of json.dumps(to_dict()) as written while the profiles were a
    # dict: the section serializes to the same bytes
    @pytest.mark.parametrize("name, digest", [
        ("paper-table1",
         "8f677fa7ea00e51d06cd88c51169b63e456902e513dec0a24fad06b102122e3a"),
        ("symmetric-test",
         "795df739c60669a4ef2bfc9c41fe6db1730100d47ce97015363dc9681f0be7e0"),
    ])
    def test_to_dict_is_unchanged(self, name, digest):
        text = json.dumps(load_preset(name).to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRunBounds:
    # the parent code runs these until memory or patience ends
    @pytest.mark.parametrize("argv, error", [
        (["simulate", "--dt", "1e-300"],
         "a 36.1 s run at dt 1e-300 s takes 3.61e+301 steps, more than "
         "5000000"),
        (["simulate", "--mode", "pyramid", "--duration-s", "1e300"],
         "a 1e+300 s run at dt 0.001 s takes 1e+303 steps, more than "
         "5000000"),
        (["simulate", "--duration-s", "1e300"],
         "program.duration_s 1e+300 opens 1.11e+299 engagement windows, "
         "more than 200000"),
        (["sweep", "--param", "gearbox.spool_radius_mm", "--values", "7",
          "--duration-s", "1e300"],
         "value 7: program.duration_s 1e+300 opens 1.11e+299 engagement "
         "windows, more than 200000"),
        (["sweep", "--param", "gearbox.spool_radius_mm", "--values", "7",
          "--duration-s", "1e7"],
         "value 7: program.duration_s 1e+07 opens 1.11e+06 engagement "
         "windows, more than 200000"),
    ])
    def test_refused_with_one_error_line(self, tmp_path, capsys, argv,
                                         error):
        out_dir = tmp_path / "out"
        code = main(argv + ["--preset", "paper-table1",
                            "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_trace_steps_refused_before_the_run_starts(self, monkeypatch):
        sim = load_preset("paper-table1").build_simulator()

        def started(self):
            raise AssertionError("the run started")

        monkeypatch.setattr(Simulator, "_start", started)
        with pytest.raises(ValueError, match="more than 5000000$"):
            sim.run(dt=1e-300)

    def test_trace_step_bound(self, monkeypatch):
        monkeypatch.setattr(locomotion, "MAX_TRACE_STEPS", 100)
        config = load_preset("paper-table1")

        def run(duration):
            program = dataclasses.replace(config.program, duration_s=duration)
            sim = dataclasses.replace(config, program=program).build_simulator()
            return sim.run(dt=0.5)

        assert len(run(50.0).tokens) >= 101
        with pytest.raises(ValueError, match="takes 101 steps, more than 100"):
            run(50.5)

    def test_window_bound(self, monkeypatch):
        monkeypatch.setattr(geogami_config, "MAX_WINDOWS", 4)
        config = load_preset("paper-table1")
        gearbox, program = config.gearbox, config.program
        window_s = math.radians(gearbox.sector_arc_deg) * gearbox.worm_teeth \
            / program.motor_speed_rad_s

        def with_windows(windows):
            changed = dataclasses.replace(program,
                                          duration_s=windows * window_s)
            return dataclasses.replace(config, program=changed)

        with_windows(3.99).validate()
        with pytest.raises(ConfigError, match="opens 4.01 engagement windows, "
                                              "more than 4$"):
            with_windows(4.01).validate()
        # a spindle opens no windows
        spindle = dataclasses.replace(with_windows(1000).program,
                                      mode="pyramid")
        dataclasses.replace(config, program=spindle).validate()


class TestStrokeCheck:
    def with_program(self, config, **changes):
        return dataclasses.replace(
            config, program=dataclasses.replace(config.program, **changes))

    def test_cyclic_window_reaching_rest_radius_rejected(self):
        config = load_preset("paper-table1")
        # one window of a 40 mm spool: 40 * 2*pi * 5/10 = 125.66 mm
        big = dataclasses.replace(config, gearbox=dataclasses.replace(
            config.gearbox, spool_radius_mm=40.0))
        with pytest.raises(ConfigError,
                           match=r"spool_radius_mm 40.0 .* 125\.664 mm"):
            big.validate()
        # the saturation cap stops the stroke short of the rest radius
        self.with_program(big, max_contraction_mm=50.0).validate()
        # and so does a program too short to finish the window
        self.with_program(big, duration_s=5.0).validate()

    def test_spindle_stroke_is_rate_times_duration(self):
        config = self.with_program(load_preset("paper-table1"),
                                   mode="spindle10",
                                   spindle_max_contraction_mm=200.0)
        # 1.1 take-up winds 1.1 * 120/43 = 3.07 mm/s at corner 1
        self.with_program(config, duration_s=30.0).validate()
        with pytest.raises(ConfigError, match="corner 1 .* rest radius"):
            self.with_program(config, duration_s=31.0).validate()

    def test_sweep_keeps_the_point_that_runs(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "paper-table1",
                "--param", "gearbox.spool_radius_mm"]
        assert main(argv + ["--values", "8", "--out", str(tmp_path / "8")]) \
            == 0
        capsys.readouterr()
        code = main(argv + ["--values", "8,40", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: value 40: gearbox.spool_radius_mm 40.0 pulls corner 4 in "
            "by 125.664 mm, which reaches its rest radius 94.4 mm\n")
        rows = (tmp_path / "sweep.csv").read_text()
        assert rows == (tmp_path / "8" / "sweep.csv").read_text()
        assert captured.out == f"{rows}wrote {tmp_path / 'sweep.csv'}\n"

    def spindle10_config(self):
        # corner 1 winds at 1.1 * 120/43 mm/s, and the 200 mm cap does not
        # stop it: the file's own 36.1 s program pulls it in by 110.819 mm
        return self.with_program(load_preset("paper-table1"), mode="spindle10",
                                 spindle_max_contraction_mm=200.0)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--duration-s", "5"],
        ["simulate", "--mode", "cyclic"],
        ["sweep", "--duration-s", "5", "--param", "gearbox.spool_radius_mm",
         "--values", "8"],
    ], ids=" ".join)
    def test_check_sees_the_overridden_run(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, self.spindle10_config())
        assert main(argv + ["--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_files_own_infeasible_run_is_refused(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_run(self, *args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(Simulator, "run", no_run)
        path = write_config(tmp_path, self.spindle10_config())
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: gearbox.spool_radius_mm 8.0 pulls corner 1 in by "
            "110.819 mm, which reaches its rest radius 94.4 mm\n")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_build_simulator_checks_the_mode_it_builds(self):
        config = self.with_program(self.spindle10_config(), mode="cyclic")
        config.validate()
        with pytest.raises(ConfigError,
                           match=r"corner 1 in by 110\.819 mm"):
            config.build_simulator(mode="spindle10")

    def with_spool(self, config, spool):
        return dataclasses.replace(config, gearbox=dataclasses.replace(
            config.gearbox, spool_radius_mm=spool))

    @pytest.mark.parametrize("spool, duration, reach", [
        (7.0, 250.0, "95.560"), (7.0, 300.0, "95.560"), (5.0, 1000.0, "94.468"),
    ])
    def test_carried_contraction_counts(self, spool, duration, reach):
        # a return-angle-limited release keeps 83.5% of a corner's
        # contraction into its next window; one window is 54.978 mm at 7 mm
        config = self.with_program(
            self.with_spool(load_preset("paper-table1"), spool),
            duration_s=duration, release_model="return_angle_limited")
        with pytest.raises(ConfigError, match=rf"corner 4 in by {reach} mm"):
            config.validate()
        # the engine, given the run, inverts in that same window
        sim = self.with_program(config, release_model="instant_return") \
            .build_simulator()
        sim.program = dataclasses.replace(
            sim.program, release_model=ReleaseModel.RETURN_ANGLE_LIMITED)
        with pytest.raises(RadiusInversionError) as exc:
            sim.timeline()
        assert float(str(exc.value).split()[1]) == pytest.approx(
            float(reach), abs=5e-4)

    @pytest.mark.parametrize("release",
                             ("instant_return", "return_angle_limited"))
    def test_stroke_walk_ends_once_a_cycle_repeats(self, monkeypatch,
                                                   release):
        # 1e6 s is 1.1e5 windows; a 4 mm spool is accepted with either release
        calls = []
        released = Simulator._released_contraction

        def counted(self, contraction):
            calls.append(contraction)
            return released(self, contraction)

        monkeypatch.setattr(Simulator, "_released_contraction", counted)
        self.with_program(self.with_spool(load_preset("paper-table1"), 4.0),
                          duration_s=1e6, release_model=release).validate()
        assert 0 < len(calls) < 1000

    @settings(max_examples=100, deadline=None)
    @given(spool=st.floats(5.0, 10.0), duration=st.floats(0.0, 400.0),
           release=st.sampled_from(("instant_return", "return_angle_limited")),
           mode=st.sampled_from(SIMULATION_MODES))
    @example(spool=7.0, duration=250.0, release="return_angle_limited",
             mode="cyclic")
    @example(spool=7.0, duration=200.0, release="return_angle_limited",
             mode="cyclic")
    @example(spool=6.0, duration=300.0, release="return_angle_limited",
             mode="cyclic")
    def test_accepted_run_never_inverts(self, spool, duration, release, mode):
        config = self.with_program(
            self.with_spool(load_preset("paper-table1"), spool),
            duration_s=duration, release_model=release, mode=mode)
        try:
            sim = config.build_simulator()
        except ConfigError:
            return
        try:
            sim.timeline()
        except SimulationError:
            pass   # "keeps tipping" is another failure, not checked here

    @settings(max_examples=60, deadline=None)
    @given(spool=st.floats(5.0, 10.0), duration=st.floats(0.0, 400.0),
           release=st.sampled_from(("instant_return", "return_angle_limited")),
           mode=st.sampled_from(SIMULATION_MODES))
    @example(spool=7.0, duration=200.0, release="return_angle_limited",
             mode="cyclic")
    @example(spool=8.0, duration=36.1, release="instant_return",
             mode="spindle10")
    def test_run_stays_within_the_strokes(self, spool, duration, release,
                                          mode):
        config = self.with_program(
            self.with_spool(load_preset("paper-table1"), spool),
            duration_s=duration, release_model=release, mode=mode)
        try:
            sim = config.build_simulator()
        except ConfigError:
            return
        reach = [0.0] * 4
        for corner, stroke in sim.strokes():
            reach[corner - 1] = max(reach[corner - 1], stroke)
        try:
            trace = sim.run(dt=0.25)
        except SimulationError:
            return   # "keeps tipping" ends the run before a trace exists
        gains = [side.routing_gain for side in sim.sides]
        pulled = (trace.columns[:, 5:9] / gains).max(axis=0)
        assert (pulled <= np.array(reach) + 1e-9).all(), (pulled, reach)

    @settings(deadline=None)
    @given(spool=st.floats(1.0, 40.0), worm=st.integers(1, 80),
           driver=st.integers(1, 30), driven=st.integers(1, 30),
           arc_deg=st.floats(10.0, 360.0), speed=st.floats(0.1, 100.0))
    def test_first_stroke_is_the_gearbox_chain(self, spool, worm, driver,
                                               driven, arc_deg, speed):
        # the engine's winding rate times its window, against one window
        # of motor angle through the transmission functions
        config = load_preset("paper-table1")
        config = dataclasses.replace(
            self.with_program(config, motor_speed_rad_s=speed,
                              duration_s=2 * math.radians(arc_deg) * worm
                              / speed),
            gearbox=dataclasses.replace(
                config.gearbox, spool_radius_mm=spool, worm_teeth=worm,
                driver_teeth=driver, driven_teeth=driven,
                sector_arc_deg=arc_deg))
        try:
            sim = config.build_simulator()
        except ConfigError:
            return
        corner, reach = next(sim.strokes())
        gearbox = sim.gearbox
        chain = cable_retraction(
            spool_angle(gearbox.engagement_window_motor, corner,
                        sim.program.schedule, gearbox),
            gearbox) / sim.sides[corner - 1].routing_gain
        assert reach == pytest.approx(chain, rel=1e-12, abs=0)

    def test_strokes_walk_the_schedules_windows(self):
        # a 1 rad sector at 10.75 rad/s opens a window every
        # 1 * 43 / 10.75 = 4 s, so a 10 s run winds corners 4, 1 and 2
        base = load_preset("paper-table1").build_simulator()
        program = dataclasses.replace(base.program, motor_speed=10.75,
                                      duration=10.0)
        sim = Simulator(dataclasses.replace(base.gearbox, sector_arc=1.0),
                        base.layout, base.sides, base.contact_lever, program,
                        base.law, base.initial_roll)
        assert sim.windows == 2.5
        reach = [0.0] * 4
        for corner, stroke in sim.strokes():
            reach[corner - 1] = max(reach[corner - 1], stroke)
        trace = sim.run(dt=0.25)
        wound = {event.corner for event in trace.events
                 if event.kind is EventKind.ENGAGEMENT_START}
        assert wound == {4, 1, 2}
        assert wound == {corner for corner, _ in sim.strokes()}
        gains = [side.routing_gain for side in sim.sides]
        pulled = (trace.columns[:, 5:9] / gains).max(axis=0)
        assert (pulled <= np.array(reach) + 1e-9).all(), (pulled, reach)

    def test_simulate_overrides_are_validated(self, tmp_path, capsys,
                                              monkeypatch):
        def no_run(self, *args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(Simulator, "run", no_run)
        # the cyclic default passes; --mode spindle10 winds corner 1 at
        # 1.1 * 120/43 mm/s for 36.1 s, and the 200 mm cap does not stop it
        config = self.with_program(load_preset("paper-table1"),
                                   spindle_max_contraction_mm=200.0)
        config.validate()
        path = write_config(tmp_path, config)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", path, "--mode", "spindle10",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: gearbox.spool_radius_mm ")
        assert "corner 1 in by 110.8" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out_dir.exists()


class TestStartPose:
    @pytest.mark.parametrize("start", ["3", "15", "30", "60", "1e15", "1e16",
                                       "1e18"])
    @pytest.mark.parametrize("command", ("simulate", "sweep"))
    def test_start_that_keeps_tipping_is_refused(self, tmp_path, capsys,
                                                 command, start):
        if command == "simulate":
            data = load_preset("paper-table1").to_dict()
            data["program"]["initial_roll_deg"] = float(start)
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            argv, point = ["simulate", "--config", str(path)], ""
        else:
            argv = ["sweep", "--preset", "paper-table1",
                    "--param", "program.initial_roll_deg", "--values", start]
            point = f"value {float(start):.9g}: "
        out_dir = tmp_path / "out"
        assert main(argv + ["--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {point}program.initial_roll_deg {float(start):g} is not "
            "a rest pose: state keeps tipping after 8 consecutive rolls at "
            "t = 0.000 s; last tips at ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_built_in_code_is_refused(self, start):
        # no domain type sees the start in degrees; fmod(inf, 360) raises
        config = load_preset("paper-table1")
        config = dataclasses.replace(config, program=dataclasses.replace(
            config.program, initial_roll_deg=start))
        with pytest.raises(ConfigError) as exc:
            config.build_simulator()
        assert str(exc.value) == \
            f"program.initial_roll_deg must be finite, got {start}"

    @pytest.mark.parametrize("mode", SIMULATION_MODES)
    def test_subnormal_start_runs(self, tmp_path, capsys, mode):
        # settled_after's quarter gap of a 1e-310 start rounds to 0.0, which
        # its log(amplitude / gap) cannot divide by
        data = load_preset("paper-table1").to_dict()
        data["program"]["initial_roll_deg"] = 1e-310
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        summaries = []
        for argv in (["--config", str(path)], ["--preset", "paper-table1"]):
            assert main(["simulate", *argv, "--mode", mode,
                         "--out", str(tmp_path)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            summaries.append(captured.out.splitlines()[-1])
        assert summaries[0] == summaries[1]
        if mode == "cyclic":
            assert summaries[0] == "rolls=4 travel_mm=593.1 stall=no"

    @pytest.mark.parametrize("start", (450.0, -270.0, 90.0 + 360.0 * 1000))
    def test_start_is_reduced_modulo_a_turn(self, start):
        def run(start):
            config = load_preset("paper-table1")
            program = dataclasses.replace(config.program,
                                          initial_roll_deg=start)
            sim = dataclasses.replace(config, program=program) \
                .build_simulator()
            return sim.initial_state().roll_angle, sim.timeline()

        phi, trace = run(start)
        assert abs(phi) <= 2 * math.pi
        assert math.cos(phi) == pytest.approx(0.0, abs=1e-12)
        assert trace.summary_line() == run(90.0)[1].summary_line() \
            == "rolls=3 travel_mm=444.8 stall=no"

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(-40, 40).map(lambda k: 45.0 * k)
           | st.floats(-1e4, 1e4, allow_nan=False)
           | st.sampled_from([1e18, -1e18, 1e15, -1e16, 280.0, 1e-300]))
    def test_accepted_start_comes_to_rest(self, start):
        config = load_preset("paper-table1")
        config = dataclasses.replace(config, program=dataclasses.replace(
            config.program, initial_roll_deg=start))
        try:
            sim = config.build_simulator()
        except ConfigError as exc:
            assert str(exc).startswith(
                f"program.initial_roll_deg {start:g} is not a rest pose: ")
            return
        assert abs(sim.initial_state().roll_angle) <= 2 * math.pi
        try:
            sim.timeline()
        except SimulationError as exc:
            assert "at t = 0.000 s" not in str(exc)


# set-up, sweep and gearbox in a fresh interpreter, for the config file
# argv[2]; the next-to-last line reports whether numpy was loaded before and
# after one simulate run, the last the OpenBLAS thread setting, the thread
# count and the trace's sha256
_NUMPY_PROBE = """
import hashlib
import os
import sys
import geogami
import geogami.cli as cli
from geogami.config import SIMULATION_MODES, load_config
from geogami.locomotion import SimulationError
out, path = sys.argv[1:]
config = load_config(path)
config.validate()
for mode in SIMULATION_MODES:
    try:
        config.build_simulator(mode=mode).timeline()
    except SimulationError:
        # the rocking two-cycle stops the return_angle_limited cyclic run at
        # 16.2 s, after it has released corners through the joint curves
        assert (mode, config.program.release_model) == (
            "cyclic", "return_angle_limited")
assert cli.main(["sweep", "--config", path, "--param",
                 "gearbox.spool_radius_mm", "--values", "5.5,7",
                 "--out", out]) == 0
assert cli.main(["gearbox", "--config", path, "--retraction-mm", "25.1"]) == 0
before = "numpy" in sys.modules
assert cli.main(["simulate", "--config", path, "--duration-s", "1", "--plot",
                 "--out", out]) == 0
print("numpy loaded:", before, "numpy" in sys.modules)
# numpy 2's np.unique imports numpy.ma, which the plot does not need, and
# the joint curves are evaluated without numpy.polynomial
for name in ("numpy.ma", "numpy.polynomial"):
    assert name not in sys.modules, f"the probe imported {name}"
threads = (len(os.listdir("/proc/self/task"))
           if sys.platform.startswith("linux") else None)
with open(os.path.join(out, "trace_cyclic.csv"), "rb") as trace:
    digest = hashlib.sha256(trace.read()).hexdigest()
print("blas:", os.environ.get("OPENBLAS_NUM_THREADS"), threads, digest)
"""


def _bundled_openblas():
    """Whether numpy runs on the OpenBLAS its wheels bundle."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 prints its config only
        return False
    return blas.get("name", "").startswith("scipy-openblas")


class TestNumpyImport:
    @pytest.mark.parametrize("release", [m.value for m in ReleaseModel])
    def test_only_simulate_imports_numpy(self, tmp_path, release):
        # pytest has loaded numpy already, so the check needs its own process
        base = load_preset("paper-table1")
        path = write_config(tmp_path, dataclasses.replace(
            base, program=dataclasses.replace(base.program,
                                              release_model=release)))
        assert main(["simulate", "--config", path, "--duration-s", "1",
                     "--out", str(tmp_path)]) == 0
        expected = hashlib.sha256(
            (tmp_path / "trace_cyclic.csv").read_bytes()).hexdigest()
        src = Path(__file__).resolve().parents[1] / "src"
        for exported in (None, "2"):
            env = dict(os.environ, PYTHONPATH=str(src))
            # main() calls earlier in this process have set the variable
            env.pop("OPENBLAS_NUM_THREADS", None)
            if exported is not None:
                env["OPENBLAS_NUM_THREADS"] = exported
            out = tmp_path / f"probe-{exported}"
            out.mkdir()
            result = subprocess.run(
                [sys.executable, "-c", _NUMPY_PROBE, str(out), path], env=env,
                cwd=out, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            *_, loaded, blas = result.stdout.splitlines()
            assert loaded == "numpy loaded: False True"
            setting, threads, digest = blas.split()[1:]
            # simulate loads numpy with one OpenBLAS thread unless the
            # user exported a count, and the trace bytes do not depend on it
            assert setting == (exported or "1")
            if exported is None and threads != "None" and _bundled_openblas():
                assert threads == "1"
            assert digest == expected


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a pipe block-buffers stdout only without this
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(args, cwd):
    return subprocess.run([sys.executable, *args], env=_cli_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    """``python -m geogami.cli`` ends through ``cli.run``, which skips the
    interpreter's teardown; these run it in its own process."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "paper-table1", "--plot"],
        ["sweep", "--param", "gearbox.spool_radius_mm", "--values", "5.5,7"],
        ["sweep", "--param", "program.initial_roll_deg",
         "--range", "-90:90:90"],
    ], ids=["simulate", "sweep", "sweep-negative-range"])
    def test_outputs_match_main(self, tmp_path, capsys, argv):
        inside, outside = tmp_path / "main", tmp_path / "process"
        assert main(argv + ["--out", str(inside)]) == 0
        expected = capsys.readouterr().out
        result = _cli_process(["-m", "geogami.cli", *argv,
                               "--out", str(outside)], tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.replace(str(outside), str(inside)) == expected
        names = sorted(path.name for path in inside.iterdir())
        assert names == sorted(path.name for path in outside.iterdir())
        for name in names:
            assert (outside / name).read_bytes() == (inside / name).read_bytes()

    def test_bad_input_is_one_error_line(self, tmp_path):
        result = _cli_process(["-m", "geogami.cli", "simulate", "--dt", "nan",
                               "--out", str(tmp_path)], tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: dt must be finite and > 0, got nan\n"

    def test_help_and_usage_errors_exit_through_argparse(self, tmp_path):
        shown = _cli_process(["-m", "geogami.cli", "--help"], tmp_path)
        assert shown.returncode == 0
        assert shown.stdout.startswith("usage: geogami")
        wrong = _cli_process(["-m", "geogami.cli", "simulate", "--mode",
                              "bogus"], tmp_path)
        assert wrong.returncode == 2
        assert wrong.stderr.splitlines()[-1].startswith(
            "geogami simulate: error: argument --mode")

    def test_stdout_closed_early(self, tmp_path):
        # 5,001 rows, about 150 kB, do not fit in the pipe: the write that
        # follows the reader's close fails
        child = subprocess.Popen(
            [sys.executable, "-m", "geogami.cli", "sweep", "--param",
             "gearbox.spool_radius_mm", "--range", "5:6:0.0002",
             "--out", str(tmp_path)], env=_cli_env(), cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        finally:
            child.kill()
            child.stderr.close()
        assert first == "value,rolls,travel_mm,max_tension_N,stall\n"
        assert code == 2
        assert re.fullmatch(r"error: [^\n]*\n", err), err

    def test_profiler_writes_its_output(self, tmp_path):
        profile = tmp_path / "cli.prof"
        result = _cli_process(["-m", "cProfile", "-o", str(profile),
                               "-m", "geogami.cli", "gearbox",
                               "--retraction-mm", "25.1"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("gearbox: T_w=43")
        assert profile.stat().st_size > 0
