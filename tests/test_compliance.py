"""Joint models, fitting, and the stiffness algebra."""

import math

import numpy as np
import pytest

from geogami.compliance import (CompositionLaw, JointFamily,
                                JointMeasurementSet, JointModel,
                                MeasurementFormatError, SideAssembly,
                                bending_stiffness, cable_series_stiffness,
                                cable_tension, chain_stiffness,
                                default_joint_model, fit_joint_model,
                                fit_residuals, parallel_stiffness,
                                read_measurement_csv, return_angle,
                                side_equivalent_stiffness)


def linear_set(slope=0.52, return_slope=0.165, n=12, top=1.75):
    thetas = np.linspace(0.05, top, n)
    samples = tuple((float(t), float(slope * t), float(return_slope * t))
                    for t in thetas)
    return JointMeasurementSet(JointFamily.FOLDING_24MM, samples)


class TestFitJointModel:
    def test_linear_data_recovers_slope(self):
        model = fit_joint_model(linear_set(), degree=1)
        assert model.mean_stiffness == pytest.approx(0.52, abs=1e-12)

    def test_constant_data_zero_stiffness(self):
        thetas = np.linspace(0.1, 1.5, 8)
        data = JointMeasurementSet(
            JointFamily.CUSTOM,
            tuple((float(t), 0.3, 0.0) for t in thetas))
        model = fit_joint_model(data, degree=1)
        assert model.mean_stiffness == pytest.approx(0.0, abs=1e-12)

    def test_cubic_data_fit_is_exact(self):
        # oracle: degree-3 least squares interpolates samples drawn from a cubic
        coeffs = (0.05, 0.4, -0.1, 0.03)
        thetas = np.linspace(0.0, 1.6, 9)
        forces = sum(c * thetas ** k for k, c in enumerate(coeffs))
        data = JointMeasurementSet(
            JointFamily.CUSTOM,
            tuple((float(t), float(f), float(0.1 * t))
                  for t, f in zip(thetas, forces)))
        model = fit_joint_model(data, degree=3)
        force_res, _ = fit_residuals(model, data)
        assert force_res < 1e-10

    def test_underdetermined_fit_rejected(self):
        data = linear_set(n=4)
        with pytest.raises(ValueError, match="underdetermined"):
            fit_joint_model(data, degree=5)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            JointMeasurementSet(
                JointFamily.CUSTOM,
                ((0.1, 0.2, 0.0), (0.4, math.nan, 0.0),
                 (0.8, 0.5, 0.1), (1.2, 0.7, 0.2)))

    def test_angle_domain_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            JointMeasurementSet(
                JointFamily.CUSTOM,
                ((0.1, 0.2, 0.0), (3.2, 0.4, 0.0),
                 (0.8, 0.5, 0.1), (1.2, 0.7, 0.2)))


class TestBendingStiffness:
    def test_linear_model_constant_slope(self):
        model = fit_joint_model(linear_set(), degree=1)
        for theta in (0.1, 0.8, 1.6):
            assert bending_stiffness(model, theta) == pytest.approx(
                0.52, abs=1e-12)

    def test_default_folding_mean_near_published(self):
        model = default_joint_model(JointFamily.FOLDING_24MM)
        grid = np.linspace(0.0, 1.75, 50)
        mean = np.mean([bending_stiffness(model, t) for t in grid])
        assert mean == pytest.approx(0.52, abs=1e-9)

    def test_matches_finite_differences(self):
        model = default_joint_model(JointFamily.MULTI_DIRECTIONAL)
        rng = np.random.default_rng(2)
        h = 1e-5
        for theta in rng.uniform(0.1, 2.4, size=20):
            fd = (model.force(theta + h) - model.force(theta - h)) / (2 * h)
            assert abs(bending_stiffness(model, theta) - fd) < 1e-6

    def test_out_of_range_rejected(self):
        model = default_joint_model(JointFamily.FOLDING_24MM)
        with pytest.raises(ValueError, match="range"):
            bending_stiffness(model, 2.0)


class TestChainStiffness:
    def test_five_folding_joints(self):
        assert chain_stiffness([0.48] * 5) == pytest.approx(0.096, rel=1e-12)

    def test_single_element_identity(self):
        assert chain_stiffness([0.7]) == pytest.approx(0.7, rel=1e-15)

    def test_two_unit_elements(self):
        assert chain_stiffness([1.0, 1.0]) == pytest.approx(0.5, rel=1e-15)

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            chain_stiffness([0.5, 0.0])

    def test_series_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            elements = list(rng.uniform(0.05, 5.0, size=rng.integers(1, 6)))
            combined = chain_stiffness(elements)
            assert combined <= min(elements) + 1e-12
            if len(elements) == 1:
                assert combined == pytest.approx(elements[0], rel=1e-12)
            # adding an element never increases the chain stiffness
            extended = chain_stiffness(elements + [1.0])
            assert extended <= combined + 1e-12

    def test_parallel_utility_sums(self):
        assert parallel_stiffness([0.6, 0.6]) == pytest.approx(1.2, rel=1e-15)


SIDE = SideAssembly(origami_chain=(0.48,) * 5, skeleton_left=0.6,
                    skeleton_right=0.6)


class TestSideEquivalentStiffness:
    def test_all_series_matches_published_chain(self):
        kappa = side_equivalent_stiffness(SIDE, CompositionLaw.ALL_SERIES)
        assert kappa == pytest.approx(0.0727, abs=5e-4)
        assert kappa == pytest.approx(1 / (1 / 0.096 + 2 / 0.6), rel=1e-12)

    def test_parallel_skeleton_law(self):
        kappa = side_equivalent_stiffness(SIDE, CompositionLaw.PARALLEL_SKELETON)
        assert kappa == pytest.approx(0.0889, abs=5e-4)
        assert kappa == pytest.approx(1 / (1 / 0.096 + 1 / 1.2), rel=1e-12)

    def test_parallel_law_equals_series_with_doubled_segment(self):
        kappa = side_equivalent_stiffness(SIDE, CompositionLaw.PARALLEL_SKELETON)
        assert kappa == pytest.approx(chain_stiffness([0.096, 1.2]), rel=1e-12)

    def test_ordering_against_components(self):
        for law in CompositionLaw:
            kappa = side_equivalent_stiffness(SIDE, law)
            cable = cable_series_stiffness(SIDE, law)
            assert cable <= kappa + 1e-15
            assert kappa <= 0.096 + 1e-15


class TestCableSeriesStiffness:
    def test_rigid_cable_limit(self):
        assert cable_series_stiffness(SIDE) == pytest.approx(
            side_equivalent_stiffness(SIDE), rel=1e-15)

    def test_equal_series_halves(self):
        kappa = side_equivalent_stiffness(SIDE)
        side = SideAssembly(origami_chain=(0.48,) * 5, cable_stiffness=kappa)
        assert cable_series_stiffness(side) == pytest.approx(
            kappa / 2, rel=1e-12)

    def test_stiff_cable_value(self):
        side = SideAssembly(origami_chain=(0.48,) * 5, cable_stiffness=10.0)
        expected = 1 / (1 / side_equivalent_stiffness(SIDE) + 1 / 10.0)
        assert cable_series_stiffness(side) == pytest.approx(expected, rel=1e-12)
        assert cable_series_stiffness(side) == pytest.approx(0.07217, abs=5e-5)


class TestCableTension:
    def test_zero_contraction(self):
        assert cable_tension(SIDE, contraction=0.0) == 0.0

    def test_published_tension(self):
        tension = cable_tension(SIDE, retraction=25.1)
        assert tension == pytest.approx(1.8, abs=0.05)

    def test_routing_gain_halves_tension(self):
        geared = SideAssembly(origami_chain=(0.48,) * 5, routing_gain=2.0)
        assert cable_tension(geared, retraction=25.1) == pytest.approx(
            cable_tension(SIDE, retraction=25.1) / 2, rel=1e-12)

    def test_linear_in_contraction(self):
        assert cable_tension(SIDE, contraction=10.0) == pytest.approx(
            2 * cable_tension(SIDE, contraction=5.0), rel=1e-12)

    def test_negative_contraction_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            cable_tension(SIDE, contraction=-1.0)

    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError, match="exactly one"):
            cable_tension(SIDE, contraction=1.0, retraction=1.0)


class TestReturnAngle:
    def test_zero_bend_recovers_nothing(self):
        model = default_joint_model(JointFamily.FOLDING_24MM)
        assert return_angle(model, 0.0) == 0.0

    def test_folding_band_at_large_bend(self):
        model = default_joint_model(JointFamily.FOLDING_24MM)
        recovered = math.degrees(return_angle(model, 1.75))
        assert 15.0 <= recovered <= 18.0

    def test_clamped_to_peak_bend(self):
        runaway = JointModel(family=JointFamily.CUSTOM,
                             force_coeffs=(0.0, 1.0),
                             return_coeffs=(0.0, 2.0),
                             valid_range=(0.0, 1.5), mean_stiffness=1.0)
        assert return_angle(runaway, 1.0) == 1.0


class TestDefaultFamilies:
    def test_published_folding_mean_ordering(self):
        k24 = default_joint_model(JointFamily.FOLDING_24MM).mean_stiffness
        k30 = default_joint_model(JointFamily.FOLDING_30MM).mean_stiffness
        assert k30 < k24
        assert k24 == pytest.approx(0.52, abs=1e-12)
        assert k30 == pytest.approx(0.43, abs=1e-12)

    def test_folding_force_band_near_100_deg(self):
        model = default_joint_model(JointFamily.FOLDING_24MM)
        force = model.force(math.radians(100))
        assert 0.7 <= force <= 0.95

    def test_aligning_is_stiffest_at_moderate_bend(self):
        theta = 1.0
        aligning = bending_stiffness(
            default_joint_model(JointFamily.ALIGNING), theta)
        others = [bending_stiffness(default_joint_model(f), theta)
                  for f in (JointFamily.OPPOSING, JointFamily.MULTI_DIRECTIONAL)]
        assert all(aligning > k for k in others)

    def test_multi_directional_retains_most_return_at_40_deg(self):
        theta = math.radians(40)
        multi = return_angle(
            default_joint_model(JointFamily.MULTI_DIRECTIONAL), theta)
        for family in (JointFamily.ALIGNING, JointFamily.OPPOSING):
            assert multi > return_angle(default_joint_model(family), theta)

    def test_no_default_for_custom(self):
        with pytest.raises(ValueError, match="no default"):
            default_joint_model(JointFamily.CUSTOM)


class TestMeasurementCsv:
    def test_reads_valid_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("theta_deg,force_N,return_deg\n"
                        "10,0.09,1.5\n20,0.18,3.1\n30,0.27,4.4\n40,0.36,6.0\n")
        data = read_measurement_csv(str(path), JointFamily.FOLDING_24MM)
        assert len(data.samples) == 4
        assert data.samples[0][0] == pytest.approx(math.radians(10))

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "meas.csv"
        lines = ["theta_deg,force_N,return_deg"]
        lines += [f"{5 * k},0.05,{0.4 * k}" for k in range(1, 6)]
        lines.insert(6, "30,oops,4.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeasurementFormatError, match="row 7"):
            read_measurement_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("theta_deg,force_N,return_deg\n")
        with pytest.raises(MeasurementFormatError, match="no samples"):
            read_measurement_csv(str(path))
