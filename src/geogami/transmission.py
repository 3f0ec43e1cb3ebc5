"""Cyclic cable-drive gearbox: worm stage, sector/driver gear, per-corner spools.

Pure kinematic and quasi-static torque relations for a single-motor drive
that time-multiplexes cable pulls around a four-corner ring.  Angles are
radians (winding positive), lengths mm, torques N*m, forces N.  All
functions are pure and configs immutable, so everything here is safe to
call from concurrent contexts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple


class RetractionWindowError(ValueError):
    """Requested retraction cannot be completed within one engagement window."""


def _check_corner(corner: int) -> None:
    """Reject a corner number outside the ring's 1..4."""
    if not 1 <= corner <= 4:
        raise ValueError(f"corner must be in 1..4, got {corner}")


class ScheduleMode(Enum):
    CYCLIC_SECTOR = "cyclic_sector"
    FIXED_SPINDLE = "fixed_spindle"


@dataclass(frozen=True)
class GearboxConfig:
    """Static parameters of the transmission.

    The sector arc is the driver-shaft angle over which one corner stays
    engaged, the width of every cyclic window; the default pi/2 makes
    four corners tile one driver revolution.  Window ``w`` opens at
    driver angle ``window_start(w)``.  ``motor_torque`` is the stall-side
    torque used for force-capacity reports only; the quasi-static
    simulation never needs it.
    Default efficiencies (0.78 worm, 0.90 spur, total ~0.70) are sized so
    a 1.8 N single-wire tension maps to ~2.4e-4 N*m at the motor.
    """

    worm_teeth: int = 43
    driver_teeth: int = 5
    driven_teeth: int = 10
    spool_radius: float = 8.0            # mm
    sector_arc: float = math.pi / 2      # rad of driver rotation per window
    efficiency_worm: float = 0.78
    efficiency_spur: float = 0.90
    motor_torque: float = 2.4e-4         # N*m

    def __post_init__(self) -> None:
        for name in ("worm_teeth", "driver_teeth", "driven_teeth"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0 < self.spool_radius < math.inf:
            raise ValueError(f"spool_radius must be finite and > 0, "
                             f"got {self.spool_radius}")
        if not 0 < self.sector_arc <= 2 * math.pi:
            raise ValueError(f"sector_arc must be in (0, 2*pi], got {self.sector_arc}")
        for name in ("efficiency_worm", "efficiency_spur"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0 <= self.motor_torque < math.inf:
            raise ValueError("motor_torque must be finite and >= 0")

    @property
    def efficiency(self) -> float:
        """Total efficiency eta = eta_worm * eta_spur."""
        return self.efficiency_worm * self.efficiency_spur

    @property
    def duty_factor(self) -> float:
        """Fraction of a driver revolution one corner is engaged, alpha/(2*pi)."""
        return self.sector_arc / (2 * math.pi)

    @property
    def spool_per_driver(self) -> float:
        """Spool rotation per unit driver rotation while engaged."""
        return self.driver_teeth / self.driven_teeth

    @property
    def engagement_window_motor(self) -> float:
        """Motor angle subtended by one engagement window, alpha * T_w."""
        return self.sector_arc * self.worm_teeth

    def window_start(self, window: int) -> float:
        """Driver angle at which cyclic window ``window`` opens."""
        return window * self.sector_arc

    def window_at(self, driver_angle: float) -> int:
        """The cyclic window open at a driver angle, up to rounding at its ends."""
        return math.floor(driver_angle / self.sector_arc)


@dataclass(frozen=True)
class EngagementSchedule:
    """Which corner the drive is pulling, as a function of driver angle.

    ``cyclic_sector`` mode engages exactly one corner at a time in fixed
    ring order, starting at ``first_corner``.  The gearbox's sector arc
    sets where windows open (``GearboxConfig.window_start``); the schedule
    only orders the corners, so window ``w`` engages ``window_corner(w)``.
    ``fixed_spindle`` mode engages all corners simultaneously, each with a
    dimensionless take-up rate multiplier.
    """

    mode: ScheduleMode
    # corner 4 lies at world -x in the canonical rest pose, so the default
    # cycle rolls the ring along +x
    first_corner: int = 4
    take_up: Tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if len(self.take_up) != 4:
            raise ValueError("take_up needs one multiplier per corner, "
                             f"got {len(self.take_up)}")
        if self.mode is ScheduleMode.CYCLIC_SECTOR:
            if not 1 <= self.first_corner <= 4:
                raise ValueError("first_corner must be in 1..4")
            if any(s != 1.0 for s in self.take_up):
                raise ValueError("a cyclic schedule winds at unit take-up")
        elif not all(0 <= s < math.inf for s in self.take_up):
            raise ValueError("take_up multipliers must be finite and >= 0")

    @classmethod
    def cyclic(cls, first_corner: int = first_corner) -> "EngagementSchedule":
        """Sector-gear schedule: one corner at a time in ring order; the
        default starts at the field's default ``first_corner``."""
        return cls(mode=ScheduleMode.CYCLIC_SECTOR, first_corner=first_corner)

    @classmethod
    def spindle(cls, take_up: Sequence[float]) -> "EngagementSchedule":
        """Fixed-spindle schedule: all corners wound together at given rates."""
        return cls(mode=ScheduleMode.FIXED_SPINDLE,
                   take_up=tuple(float(s) for s in take_up))

    @classmethod
    def constant(cls) -> "EngagementSchedule":
        """All corners permanently engaged at unit rate (chi = 1 throughout)."""
        return cls.spindle((1.0,) * 4)

    def chi(self, driver_angle: float, corner: int,
            gearbox: GearboxConfig) -> int:
        """Engagement indicator chi_i at a given driver angle."""
        _check_corner(corner)
        if self.mode is ScheduleMode.FIXED_SPINDLE:
            return 1 if self.take_up[corner - 1] > 0 else 0
        return 1 if self.active_corner(driver_angle, gearbox) == corner else 0

    def engaged_driver_angle(self, driver_angle: float, corner: int,
                             gearbox: GearboxConfig) -> float:
        """Accumulated driver angle spent engaged with a corner, from zero.

        Signed: the integral of chi_i over [0, driver_angle].  For
        fixed-spindle schedules the take-up multiplier scales the measure,
        which folds the spindle's retraction rate into the same formula.
        """
        _check_corner(corner)
        if self.mode is ScheduleMode.FIXED_SPINDLE:
            return self.take_up[corner - 1] * driver_angle
        arc = gearbox.sector_arc
        period = 4 * arc
        n_full = math.floor(driver_angle / period)
        rem = driver_angle - period * n_full
        slot = (corner - self.first_corner) % 4
        inside = min(max(rem - slot * arc, 0.0), arc)
        return n_full * arc + inside

    def window_corner(self, window: int) -> int:
        """The corner cyclic window ``window`` engages, in ring order."""
        return (self.first_corner - 1 + window) % 4 + 1

    def active_corner(self, driver_angle: float,
                      gearbox: GearboxConfig) -> Optional[int]:
        """The engaged corner at a driver angle; None for fixed-spindle mode."""
        if self.mode is ScheduleMode.FIXED_SPINDLE:
            return None
        return self.window_corner(gearbox.window_at(driver_angle))


def driver_angle(motor_angle: float, cfg: GearboxConfig) -> float:
    """Driver-shaft angle behind the single-start worm: theta_m / T_w."""
    return motor_angle / cfg.worm_teeth


def spool_angle(motor_angle: float, corner: int, schedule: EngagementSchedule,
                cfg: GearboxConfig) -> float:
    """Accumulated spool rotation at a corner for a motor trajectory from zero.

    Equals chi_i * theta_m * T_dr / (T_dv * T_w) over any interval of
    constant engagement; the schedule supplies the accumulated engaged
    measure so engagement may toggle within a cycle.  A spindle's measure
    is kept in the motor domain so the all-engaged case reduces exactly
    (in floating point too) to theta_m itself.
    """
    _check_corner(corner)
    if schedule.mode is ScheduleMode.FIXED_SPINDLE:
        engaged = schedule.take_up[corner - 1] * motor_angle
    else:
        engaged = cfg.worm_teeth * schedule.engaged_driver_angle(
            motor_angle / cfg.worm_teeth, corner, cfg)
    return engaged * cfg.driver_teeth / (cfg.driven_teeth * cfg.worm_teeth)


def cable_retraction(spool_angle_rad: float, cfg: GearboxConfig) -> float:
    """Cable length change for a single-layer wrap: L = r_s * theta_s (mm)."""
    return cfg.spool_radius * spool_angle_rad


def motor_angle_for_retraction(length: float, corner: int,
                               cfg: GearboxConfig) -> float:
    """Motor angle needed to retract ``length`` mm while a corner is engaged.

    Valid only while engaged (the caller asserts chi_i = 1).  Raises
    RetractionWindowError if the retraction would need more motor angle
    than one sector pass provides, rather than silently clipping.
    """
    _check_corner(corner)
    if length < 0:
        raise ValueError(f"retraction length must be >= 0, got {length}")
    motor = length * cfg.driven_teeth * cfg.worm_teeth / (
        cfg.spool_radius * cfg.driver_teeth)
    window = cfg.engagement_window_motor
    if motor > window:
        raise RetractionWindowError(
            f"retraction {length} mm needs {motor:.3f} rad of motor angle but one "
            f"engagement window provides only {window:.3f} rad "
            f"(sector_arc * worm_teeth)")
    return motor


def phase_velocity(motor_speed: float, cfg: GearboxConfig) -> float:
    """Ring phase velocity of the engagement at constant motor speed.

    omega_phase = D * motor_speed / T_w with duty factor D = alpha/(2*pi).
    """
    return cfg.duty_factor * motor_speed / cfg.worm_teeth


def spool_torque(motor_torque: float, corner: int, engaged: int,
                 cfg: GearboxConfig) -> float:
    """Quasi-static spool torque: chi_i * eta * T_w * (T_dv/T_dr) * tau_m."""
    _check_corner(corner)
    chi = 1 if engaged else 0
    return chi * cfg.efficiency * cfg.worm_teeth * (
        cfg.driven_teeth / cfg.driver_teeth) * motor_torque


def cable_force(spool_torque_nm: float, cfg: GearboxConfig) -> float:
    """Cable tensile force for a single-layer wrap: F = tau_s / r_s.

    The spool radius is in mm, so convert to meters for a force in N.
    """
    return spool_torque_nm / (cfg.spool_radius * 1e-3)


def cable_force_from_motor_torque(motor_torque: float, cfg: GearboxConfig,
                                  engaged: int = 1) -> float:
    """Combined form F_i = chi_i * eta * T_w * T_dv / (T_dr * r_s) * tau_m."""
    return cable_force(spool_torque(motor_torque, 1, engaged, cfg), cfg)


def motor_torque_for_cable_force(force: float, cfg: GearboxConfig) -> float:
    """Motor torque that produces a given cable tension on an engaged corner."""
    return force * (cfg.spool_radius * 1e-3) * cfg.driver_teeth / (
        cfg.efficiency * cfg.worm_teeth * cfg.driven_teeth)
