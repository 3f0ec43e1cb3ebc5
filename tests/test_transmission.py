"""Gearbox kinematics and torque chain."""

import dataclasses
import math

import numpy as np
import pytest

from geogami.transmission import (EngagementSchedule, GearboxConfig,
                                  RetractionWindowError, ScheduleMode,
                                  cable_force,
                                  cable_force_from_motor_torque,
                                  cable_retraction, driver_angle,
                                  motor_angle_for_retraction,
                                  motor_torque_for_cable_force, phase_velocity,
                                  spool_angle, spool_torque)

TABLE = GearboxConfig(worm_teeth=43, driver_teeth=5, driven_teeth=10,
                      spool_radius=8.0, sector_arc=2 * math.pi,
                      efficiency_worm=0.78, efficiency_spur=0.90)
CONSTANT = EngagementSchedule.constant()


def with_arc(sector_arc):
    """TABLE's gearbox with another sector arc."""
    return dataclasses.replace(TABLE, sector_arc=sector_arc)


def numeric_engaged_angle(schedule, theta_d, corner, gearbox, n=200_000):
    """Independent oracle: midpoint quadrature of the engagement indicator."""
    if theta_d == 0:
        return 0.0
    grid = np.linspace(0.0, theta_d, n, endpoint=False) + theta_d / (2 * n)
    chi = np.array([schedule.chi(float(td), corner, gearbox) for td in grid])
    return float(np.sum(chi) * theta_d / n)


class TestDriverAngle:
    def test_zero(self):
        assert driver_angle(0.0, TABLE) == 0.0

    def test_table_teeth(self):
        assert driver_angle(43.0, TABLE) == pytest.approx(1.0, rel=1e-12)

    def test_one_driver_revolution(self):
        assert driver_angle(2 * math.pi * 43, TABLE) == pytest.approx(
            2 * math.pi, rel=1e-12)


class TestSpoolAngle:
    def test_zero_any_corner(self):
        for corner in range(1, 5):
            assert spool_angle(0.0, corner, CONSTANT, TABLE) == 0.0

    def test_constant_engagement_value(self):
        # 86 * 5 / (10 * 43) = 1 rad
        assert spool_angle(86.0, 1, CONSTANT, TABLE) == pytest.approx(
            1.0, rel=1e-12)

    def test_disengaged_corner_stays_zero(self):
        sched = EngagementSchedule.cyclic()
        # within the first window only the first corner winds
        theta_m = 0.3 * (math.pi / 2) * 43
        assert spool_angle(theta_m, 2, sched, with_arc(math.pi / 2)) == 0.0

    def test_invalid_corner(self):
        with pytest.raises(ValueError, match="corner"):
            spool_angle(1.0, 5, CONSTANT, TABLE)
        with pytest.raises(ValueError, match="corner"):
            spool_angle(1.0, 0, CONSTANT, TABLE)


class TestEngagementSchedule:
    def test_cyclic_ring_order(self):
        sched = EngagementSchedule.cyclic(first_corner=4)
        arc = math.pi / 2
        gearbox = with_arc(arc)
        seen = [sched.active_corner(arc * (k + 0.5), gearbox)
                for k in range(8)]
        assert seen == [4, 1, 2, 3, 4, 1, 2, 3]

    def test_cyclic_take_up_is_unit(self):
        with pytest.raises(ValueError, match="unit take-up"):
            EngagementSchedule(mode=ScheduleMode.CYCLIC_SECTOR,
                               take_up=(2.0, 1.0, 1.0, 1.0))

    def test_cyclic_exclusivity(self):
        sched = EngagementSchedule.cyclic()
        gearbox = with_arc(1.1)
        rng = np.random.default_rng(7)
        for theta_d in rng.uniform(0, 40, size=200):
            total = sum(sched.chi(theta_d, c, gearbox) for c in range(1, 5))
            assert total <= 1
            assert total == 1  # consecutive windows leave no gap

    def test_accumulation_matches_quadrature(self):
        sched = EngagementSchedule.cyclic(first_corner=2)
        gearbox = with_arc(0.8)
        for corner in (1, 2, 4):
            for theta_d in (0.3, 2.5, 7.9):
                exact = sched.engaged_driver_angle(theta_d, corner, gearbox)
                approx = numeric_engaged_angle(sched, theta_d, corner,
                                               gearbox, n=40_000)
                assert exact == pytest.approx(approx, abs=2e-3)

    def test_spindle_profile_scales_measure(self):
        sched = EngagementSchedule.spindle((1.0, 0.5, 0.0, 2.0))
        assert sched.engaged_driver_angle(3.0, 2, TABLE) == pytest.approx(1.5)
        assert sched.engaged_driver_angle(3.0, 3, TABLE) == 0.0
        assert sched.chi(1.0, 3, TABLE) == 0

    def test_monotone_when_engaged_constant_when_not(self):
        sched = EngagementSchedule.cyclic(first_corner=1)
        gearbox = with_arc(1.3)
        thetas = np.linspace(0, 30, 700)
        for corner in range(1, 5):
            values = [sched.engaged_driver_angle(t, corner, gearbox)
                      for t in thetas]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)


class TestRetraction:
    def test_zero(self):
        assert cable_retraction(0.0, TABLE) == 0.0

    def test_table_retraction(self):
        # theta_s from inverting L = r_s * theta_s at the quoted 25.1 mm
        assert cable_retraction(3.1375, TABLE) == pytest.approx(25.1, rel=1e-12)

    def test_arc_length_identity(self):
        assert cable_retraction(1.0, TABLE) == pytest.approx(8.0, rel=1e-15)


class TestMotorAngleForRetraction:
    def test_zero(self):
        assert motor_angle_for_retraction(0.0, 1, TABLE) == 0.0

    def test_table_value(self):
        theta_m = motor_angle_for_retraction(25.1, 1, TABLE)
        assert theta_m == pytest.approx(269.825, abs=1e-9)
        assert theta_m / (2 * math.pi) == pytest.approx(42.95, abs=0.01)

    def test_linearity(self):
        one = motor_angle_for_retraction(5.0, 1, TABLE)
        two = motor_angle_for_retraction(10.0, 1, TABLE)
        assert two == pytest.approx(2 * one, rel=1e-15)

    def test_window_exceeded_is_reported(self):
        narrow = GearboxConfig(sector_arc=math.pi / 2)
        with pytest.raises(RetractionWindowError, match="window"):
            motor_angle_for_retraction(25.1, 1, narrow)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        capacity = TABLE.spool_radius * TABLE.sector_arc * TABLE.spool_per_driver
        for length in rng.uniform(0, capacity, size=50):
            theta_m = motor_angle_for_retraction(length, 1, TABLE)
            back = cable_retraction(spool_angle(theta_m, 1, CONSTANT, TABLE),
                                    TABLE)
            assert back == pytest.approx(length, rel=1e-12)

    def test_round_trip_exact_at_table_point(self):
        theta_m = motor_angle_for_retraction(25.1, 1, TABLE)
        back = cable_retraction(spool_angle(theta_m, 1, CONSTANT, TABLE), TABLE)
        assert back == 25.1


class TestPhaseVelocity:
    def test_zero_speed(self):
        assert phase_velocity(0.0, TABLE) == 0.0

    def test_full_sector(self):
        cfg = GearboxConfig(sector_arc=2 * math.pi)
        assert phase_velocity(43.0, cfg) == pytest.approx(1.0, rel=1e-12)

    def test_half_sector(self):
        cfg = GearboxConfig(sector_arc=math.pi)
        assert phase_velocity(43.0, cfg) == pytest.approx(0.5, rel=1e-12)


class TestTorqueAndForce:
    def test_disengaged_is_zero(self):
        assert spool_torque(2.4e-4, 1, 0, TABLE) == 0.0
        assert cable_force_from_motor_torque(2.4e-4, TABLE, engaged=0) == 0.0

    def test_spool_torque_chain_value(self):
        cfg = GearboxConfig(efficiency_worm=0.70, efficiency_spur=1.0)
        tau_s = spool_torque(2.4e-4, 1, 1, cfg)
        assert tau_s == pytest.approx(0.014448, rel=1e-6)

    def test_identity_gearing(self):
        cfg = GearboxConfig(worm_teeth=1, driver_teeth=7, driven_teeth=7,
                            efficiency_worm=1.0, efficiency_spur=1.0)
        assert spool_torque(0.3, 2, 1, cfg) == pytest.approx(0.3, rel=1e-15)

    def test_cable_force_zero(self):
        assert cable_force(0.0, TABLE) == 0.0

    def test_cable_force_published_chain(self):
        cfg = GearboxConfig(efficiency_worm=0.70, efficiency_spur=1.0)
        force = cable_force_from_motor_torque(2.4e-4, cfg)
        assert force == pytest.approx(1.8, rel=0.01)

    def test_halving_radius_doubles_force(self):
        cfg_half = GearboxConfig(spool_radius=4.0)
        assert cable_force(0.01, cfg_half) == pytest.approx(
            2 * cable_force(0.01, TABLE), rel=1e-15)

    def test_torque_force_inverse(self):
        rng = np.random.default_rng(3)
        for force in rng.uniform(0.1, 10.0, size=20):
            tau_m = motor_torque_for_cable_force(force, TABLE)
            assert cable_force_from_motor_torque(tau_m, TABLE) == pytest.approx(
                force, rel=1e-12)


class TestPowerConsistency:
    def test_input_power_equals_cable_power_at_unit_efficiency(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cfg = GearboxConfig(
                worm_teeth=int(rng.integers(1, 80)),
                driver_teeth=int(rng.integers(1, 30)),
                driven_teeth=int(rng.integers(1, 30)),
                spool_radius=float(rng.uniform(1, 20)),
                efficiency_worm=1.0, efficiency_spur=1.0)
            tau_m = float(rng.uniform(1e-5, 1e-2))
            motor_speed = float(rng.uniform(0.1, 100))
            force = cable_force_from_motor_torque(tau_m, cfg)
            # retraction speed: dL/dt = r_s[m] * dtheta_s/dt while engaged
            retraction_speed = (cfg.spool_radius * 1e-3) * motor_speed \
                * cfg.driver_teeth / (cfg.driven_teeth * cfg.worm_teeth)
            assert force * retraction_speed == pytest.approx(
                tau_m * motor_speed, rel=1e-12)


class TestConfigValidation:
    def test_rejects_bad_teeth(self):
        with pytest.raises(ValueError, match="worm_teeth"):
            GearboxConfig(worm_teeth=0)

    def test_rejects_bad_arc(self):
        with pytest.raises(ValueError, match="sector_arc"):
            GearboxConfig(sector_arc=7.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError, match="efficiency"):
            GearboxConfig(efficiency_worm=1.2)

    def test_schedule_has_four_corners(self):
        # the engine, the layout and the trace all index four corners
        with pytest.raises(ValueError, match="one multiplier per corner"):
            EngagementSchedule.spindle((1.0, 1.0, 1.0))

    def test_total_efficiency(self):
        assert TABLE.efficiency == pytest.approx(0.702, rel=1e-12)
