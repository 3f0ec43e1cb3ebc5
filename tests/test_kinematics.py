"""Body geometry, mass offset, world COM, and velocities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geogami.kinematics import (BodyState, MassLayout,
                                RadiusInversionError, body_mass_offset,
                                com_velocity, instantaneous_radius,
                                lattice_radians, offset_point, radii,
                                rotation_matrix, unit, world_com)

LAYOUT = MassLayout()


def random_layout(rng):
    return MassLayout(
        central_mass=float(rng.uniform(0, 1)),
        corner_masses=tuple(rng.uniform(0.05, 0.5, size=4)),
        rest_radii=tuple(rng.uniform(50, 120, size=4)))


class TestInstantaneousRadius:
    def test_rest(self):
        assert instantaneous_radius(94.4, 0.0) == 94.4

    def test_table_contraction(self):
        assert instantaneous_radius(94.4, 25.1) == pytest.approx(69.3, rel=1e-12)

    def test_inversion_raises(self):
        with pytest.raises(RadiusInversionError):
            instantaneous_radius(94.4, 94.4)

    def test_negative_contraction_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            instantaneous_radius(94.4, -0.1)


class TestUnit:
    def test_exact_on_the_lattice(self):
        h = math.sqrt(0.5)
        table = [(1.0, 0.0), (h, h), (0.0, 1.0), (-h, h),
                 (-1.0, 0.0), (-h, -h), (0.0, -1.0), (h, -h)]
        for k in range(-64, 65):
            assert unit(k * (math.pi / 4)) == table[k % 8], k

    @settings(max_examples=300)
    @given(angle=st.floats(-1e3, 1e3))
    def test_math_off_the_lattice(self, angle):
        assume(angle != round(angle / (math.pi / 4)) * (math.pi / 4))
        assert unit(angle) == (math.cos(angle), math.sin(angle))

    def test_degrees_on_the_lattice(self):
        for k in range(-64, 65):
            assert lattice_radians(45.0 * k) == k * (math.pi / 4), k
        assert math.radians(45.0 * 11) != 11 * (math.pi / 4)
        for degrees in (30.0, -100.5, 1e-3):
            assert lattice_radians(degrees) == math.radians(degrees)


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(rotation_matrix(math.pi / 2),
                           [[0, -1], [1, 0]], atol=1e-15)

    def test_orthogonality_100_random(self):
        rng = np.random.default_rng(17)
        for phi in rng.uniform(-20, 20, size=100):
            R = rotation_matrix(phi)
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
            assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-12


class TestBodyMassOffset:
    def test_symmetric_is_zero(self):
        offset = body_mass_offset(LAYOUT, LAYOUT.rest_radii)
        assert np.allclose(offset, 0.0, atol=1e-12)

    def test_single_contracted_corner(self):
        layout = MassLayout(central_mass=0.0,
                            corner_masses=(1.0, 1.0, 1.0, 1.0),
                            rest_radii=(94.4,) * 4)
        u = 10.0
        offset = body_mass_offset(layout, radii(layout, (0, 0, 0, u)))
        assert offset[0] == pytest.approx(u / 4, rel=1e-12)
        assert offset[1] == pytest.approx(0.0, abs=1e-12)

    def test_general_angles_reduce_to_canonical_form(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            layout = random_layout(rng)
            r = tuple(rng.uniform(40, 110, size=4))
            got = body_mass_offset(layout, r)
            m = layout.corner_masses
            total = layout.total_mass
            expected = ((m[1] * r[1] - m[3] * r[3]) / total,
                        (m[0] * r[0] - m[2] * r[2]) / total)
            assert np.allclose(got, expected, atol=1e-12)

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            MassLayout(central_mass=0.0, corner_masses=(0.0, 0.0, 0.0, 0.0))


class TestWorldCom:
    def test_symmetric_com_is_body_center(self):
        rng = np.random.default_rng(29)
        for phi in rng.uniform(-6, 6, size=25):
            state = BodyState.at_rest(LAYOUT, roll_angle=float(phi))
            assert np.allclose(world_com(LAYOUT, state),
                               (state.support_radius * phi, 0.0), atol=1e-9)

    def test_identity_rotation_adds_offset(self):
        layout = MassLayout(central_mass=0.0,
                            corner_masses=(1.0, 1.0, 1.0, 1.0))
        state = BodyState.from_contractions(layout, (0, 0, 0, 8.0),
                                            roll_angle=0.0)
        com = world_com(layout, state)
        assert com[0] == pytest.approx(2.0, rel=1e-12)
        assert com[1] == pytest.approx(0.0, abs=1e-12)

    def test_matrix_form_equals_component_form(self):
        # oracle: the expanded component expressions, written out separately
        rng = np.random.default_rng(31)
        for _ in range(100):
            layout = random_layout(rng)
            u = tuple(rng.uniform(0, 20, size=4))
            phi = float(rng.uniform(-7, 7))
            state = BodyState.from_contractions(layout, u, roll_angle=phi)
            dbx, dby = body_mass_offset(layout, state.radii)
            expected_x = state.support_radius * phi \
                + math.cos(phi) * dbx - math.sin(phi) * dby
            expected_y = math.sin(phi) * dbx + math.cos(phi) * dby
            com = world_com(layout, state)
            assert abs(com[0] - expected_x) < 1e-12 * max(1, abs(expected_x))
            assert abs(com[1] - expected_y) < 1e-12

    def test_rotation_invariance_of_offset_norm(self):
        rng = np.random.default_rng(37)
        layout = random_layout(rng)
        r = tuple(rng.uniform(40, 110, size=4))
        norm = np.linalg.norm(body_mass_offset(layout, r))
        for phi in rng.uniform(-6, 6, size=20):
            rotated = rotation_matrix(phi) @ body_mass_offset(layout, r)
            assert np.linalg.norm(rotated) == pytest.approx(norm, rel=1e-12)

    def test_contraction_sign_convention(self):
        layout = MassLayout()
        base = body_mass_offset(layout, radii(layout, (0, 0, 0, 0)))[0]
        pull_left = body_mass_offset(layout, radii(layout, (0, 0, 0, 5.0)))[0]
        pull_right = body_mass_offset(layout, radii(layout, (0, 5.0, 0, 0)))[0]
        assert pull_left > base
        assert pull_right < base


class TestOffsetPoint:
    def test_symmetric_reduces_to_center(self):
        state = BodyState.at_rest(LAYOUT, roll_angle=1.2)
        point = offset_point(state)
        assert point[0] == pytest.approx(94.4 * 1.2, rel=1e-12)
        assert point[1] == pytest.approx(0.0, abs=1e-12)

    def test_cos_kills_x_offset_at_quarter_turn(self):
        state = BodyState.from_contractions(LAYOUT, (0, 0, 0, 6.0),
                                            roll_angle=math.pi / 2)
        point = offset_point(state)
        assert point[0] == pytest.approx(94.4 * math.pi / 2, abs=1e-9)

    def test_structure_matches_world_com_offset(self):
        # equal unit masses, no central mass: the COM x offset uses the same
        # cos(phi) * (r2 - r4) basis as the offset point, scaled by 1/4
        layout = MassLayout(central_mass=0.0,
                            corner_masses=(1.0, 1.0, 1.0, 1.0))
        rng = np.random.default_rng(41)
        for _ in range(20):
            u4 = float(rng.uniform(0, 20))
            phi = float(rng.uniform(-5, 5))
            state = BodyState.from_contractions(layout, (0, 0, 0, u4),
                                                roll_angle=phi)
            com_x = world_com(layout, state)[0]
            center_x = state.support_radius * phi
            point_x = offset_point(state)[0]
            assert 4 * (com_x - center_x) == pytest.approx(
                point_x - center_x, rel=1e-9, abs=1e-9)


class TestComVelocity:
    def test_all_rates_zero(self):
        state = BodyState.from_contractions(LAYOUT, (1, 2, 3, 4),
                                            roll_angle=0.7)
        assert np.allclose(com_velocity(state, 0.0, 0.0, (0, 0, 0, 0)), 0.0)

    def test_pure_roll_reduces_to_rolling_terms(self):
        state = BodyState.from_contractions(LAYOUT, (0, 0, 0, 10.0),
                                            roll_angle=0.3)
        phid = 2.0
        vel = com_velocity(state, phid, 0.0, (0, 0, 0, 0))
        r1, r2, r3, r4 = state.radii
        assert vel[0] == pytest.approx(
            state.support_radius * phid
            - phid * (r2 - r4) * math.sin(0.3), rel=1e-12)
        assert vel[1] == pytest.approx(
            -phid * (r1 - r3) * math.cos(0.3), rel=1e-12)

    def test_matches_finite_differences_of_offset_point(self):
        # oracle: central differences along random smooth trajectories; this
        # also adjudicates the sign of the y-component roll term
        rng = np.random.default_rng(43)
        dt = 1e-6
        for _ in range(50):
            layout = random_layout(rng)
            a = rng.uniform(-1, 1, size=4)
            b = rng.uniform(0.5, 2.0, size=4)
            u0 = rng.uniform(2, 15, size=4)
            phi0, phi1, phi2 = rng.uniform(-1, 1, size=3)
            radius0, radius1 = float(rng.uniform(80, 100)), float(rng.uniform(-3, 3))

            def state_at(t):
                u = tuple(u0[k] + a[k] * math.sin(b[k] * t) for k in range(4))
                return BodyState.from_contractions(
                    layout, u, roll_angle=phi0 + phi1 * t + phi2 * t * t,
                    support_radius=radius0 + radius1 * t, time=t)

            t = float(rng.uniform(0.1, 2.0))
            state = state_at(t)
            u_rates = tuple(a[k] * b[k] * math.cos(b[k] * t) for k in range(4))
            radii_rates = tuple(-du for du in u_rates)
            vel = com_velocity(state, phi1 + 2 * phi2 * t, radius1, radii_rates)
            fd = (offset_point(state_at(t + dt)) -
                  offset_point(state_at(t - dt))) / (2 * dt)
            assert np.allclose(vel, fd, rtol=1e-6, atol=1e-6)


class TestBodyState:
    def test_radius_inversion_through_state(self):
        with pytest.raises(RadiusInversionError):
            BodyState.from_contractions(LAYOUT, (0, 0, 0, 95.0))

    def test_default_support_radius_is_rest_radius(self):
        state = BodyState.at_rest(LAYOUT)
        assert state.support_radius == 94.4
