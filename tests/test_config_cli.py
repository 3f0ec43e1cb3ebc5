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
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geogami import config as geogami_config, locomotion, svgplot
from geogami.cli import CliError, _sweep_values, main
from geogami.config import (SIMULATION_MODES, ConfigError, RunConfig,
                            available_presets, load_config, load_preset,
                            write_atomic)
from geogami.kinematics import RadiusInversionError
from geogami.locomotion import (EventKind, ReleaseModel, SimTrace,
                                SimulationError, Simulator)


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

    @pytest.mark.parametrize("duration", ("NaN", "Infinity", "-1"))
    def test_duration_must_be_finite_and_non_negative(self, tmp_path,
                                                      duration):
        # Python's json reads and writes the NaN and Infinity literals
        data = load_preset("paper-table1").to_dict()
        data["program"]["duration_s"] = float(duration)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert duration in path.read_text()
        with pytest.raises(ConfigError, match="duration must be finite"):
            load_config(str(path)).validate()

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
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(data).validate()
        assert str(exc.value) == f"{field} must be finite, got {value}"

    @pytest.mark.parametrize("command", [
        ["simulate", "--duration-s", "1"],
        ["sweep", "--param", "program.motor_speed_rad_s", "--values", "30"],
    ], ids=lambda argv: argv[0])
    # ``error`` follows the field name in the one error line
    @pytest.mark.parametrize("field, value, error", [
        ("program.first_corner", 2.0, " must be an integer, got 2.0"),
        ("gearbox.corner_count", 4.0, " must be an integer, got 4.0"),
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
    @pytest.mark.parametrize("field", ["gearbox.bogus", "sides.2.bogus",
                                       "bogus"])
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
        ("program.first_corner", "2"), ("gearbox.corner_count", "4"),
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

    # a spool above 30.05 mm pulls a corner through its rest radius when
    # built; a start of 15, 30 or 60 degrees keeps tipping when run
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
        # keeps tipping: the engine raises SimulationError
        ["sweep", "--param", "support.contact_lever_mm", "--values", "0"],
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

    @pytest.mark.parametrize("release, param, value, time, tips", [
        # rounding dust tips the body at rest, backward every time
        ("instant_return", "support.contact_lever_mm", "0", "0.000",
         [(-540, "-", None), (-630, "-", None)]),
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


# set-up, sweep and gearbox in a fresh interpreter; the next-to-last line
# reports whether numpy was loaded before and after one simulate run, the
# last the OpenBLAS thread setting, the thread count and the trace's sha256
_NUMPY_PROBE = """
import hashlib
import os
import sys
import geogami
import geogami.cli as cli
from geogami.config import SIMULATION_MODES, load_preset
out = sys.argv[1]
config = load_preset("paper-table1")
config.validate()
for mode in SIMULATION_MODES:
    config.build_simulator(mode=mode).timeline()
assert cli.main(["sweep", "--param", "gearbox.spool_radius_mm",
                 "--values", "5.5,7", "--out", out]) == 0
assert cli.main(["gearbox", "--retraction-mm", "25.1"]) == 0
before = "numpy" in sys.modules
assert cli.main(["simulate", "--duration-s", "1", "--out", out]) == 0
print("numpy loaded:", before, "numpy" in sys.modules)
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
    def test_only_simulate_imports_numpy(self, tmp_path):
        # pytest has loaded numpy already, so the check needs its own process
        assert main(["simulate", "--duration-s", "1",
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
                [sys.executable, "-c", _NUMPY_PROBE, str(out)], env=env,
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
