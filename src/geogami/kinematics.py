"""Planar body-frame geometry, mass-weighted offset, and world-frame COM.

The body is a four-corner ring with point masses at the ray endpoints and
a central mass at the geometric origin.  Rolling is the no-slip coordinate
phi with support radius R, so the body center translates along (R*phi, 0).
Positions are mm, angles radians; everything is double precision.

All functions are pure; states are immutable snapshots, safe for parallel
trajectory evaluation.  The functions that return arrays import numpy
when called; the engine's scalar path never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


class RadiusInversionError(ValueError):
    """A contraction reached or exceeded the rest radius."""


# roll and ray angles lie on a lattice of eighth turns, exact (cos, sin) below
EIGHTH_TURN = math.pi / 4
_H = math.sqrt(0.5)  # cos and sin of an eighth turn
_LATTICE_UNITS = ((1.0, 0.0), (_H, _H), (0.0, 1.0), (-_H, _H),
                  (-1.0, 0.0), (-_H, -_H), (0.0, -1.0), (_H, -_H))


def lattice_index(angle: float) -> Optional[int]:
    """``k`` if ``angle`` is the float ``k * EIGHTH_TURN``, else None."""
    if not math.isfinite(angle):
        return None
    k = round(angle / EIGHTH_TURN)
    return k if k * EIGHTH_TURN == angle else None


def lattice_radians(degrees: float) -> float:
    """``degrees`` in radians; ``45 * k`` degrees is ``k * EIGHTH_TURN``."""
    k, rest = divmod(degrees, 45)
    return k * EIGHTH_TURN if rest == 0 else math.radians(degrees)


def unit(angle: float) -> Tuple[float, float]:
    """``(cos, sin)`` of an angle; exact at ``k * EIGHTH_TURN``, so that a
    vertex at a quarter turn lies on its axis."""
    k = lattice_index(angle)
    if k is None:
        return math.cos(angle), math.sin(angle)
    return _LATTICE_UNITS[k % 8]


@dataclass(frozen=True)
class MassLayout:
    """Central mass plus four corner point masses on body-fixed rays."""

    central_mass: float = 0.25
    corner_masses: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    ray_angles: Tuple[float, float, float, float] = (
        2 * EIGHTH_TURN, 0.0, 6 * EIGHTH_TURN, 4 * EIGHTH_TURN)
    rest_radii: Tuple[float, float, float, float] = (94.4, 94.4, 94.4, 94.4)

    def __post_init__(self) -> None:
        if not 0 <= self.central_mass < math.inf:
            raise ValueError("central mass must be finite and >= 0")
        if len(self.corner_masses) != 4 or len(self.ray_angles) != 4 \
                or len(self.rest_radii) != 4:
            raise ValueError("mass_layout needs 4 corners")
        if not all(0 <= m < math.inf for m in self.corner_masses):
            raise ValueError("corner masses must be finite and >= 0")
        if self.total_mass <= 0:
            raise ValueError("total mass must be > 0")
        if not all(0 < r < math.inf for r in self.rest_radii):
            raise ValueError("rest radii must be finite and > 0")
        if not all(map(math.isfinite, self.ray_angles)):
            raise ValueError("ray angles must be finite")
        if len({round(a % (2 * math.pi), 12) for a in self.ray_angles}) != 4:
            raise ValueError("ray angles must be distinct")
        # the ring stands on its feet: they must bound a counterclockwise
        # polygon of positive area
        feet = self.feet
        area2 = 0.0
        for (x0, y0), (x1, y1) in zip(feet, feet[1:] + feet[:1]):
            area2 += x0 * y1 - x1 * y0
        if area2 <= 0:
            raise ValueError("mass layout corners must span a positive "
                             "area in ray-angle order")

    @property
    def total_mass(self) -> float:
        return self.central_mass + sum(self.corner_masses)

    @cached_property
    def ray_units(self) -> Tuple[Tuple[float, float], ...]:
        """Unit vector ``(cos a, sin a)`` of each ray angle."""
        return tuple(unit(a) for a in self.ray_angles)

    @cached_property
    def feet(self) -> Tuple[Tuple[float, float], ...]:
        """Corner points ``(r * cos a, r * sin a)`` at the rest radii, in
        ray-angle order (``a`` mod 2*pi): the ring's ground contacts."""
        return tuple((r * ux, r * uy) for _, r, (ux, uy) in sorted(zip(
            [a % (2 * math.pi) for a in self.ray_angles], self.rest_radii,
            self.ray_units)))


def instantaneous_radius(rest_radius: float, contraction: float) -> float:
    """Instantaneous ray radius r_i = R_i - u_i (mm)."""
    if contraction < 0:
        raise ValueError(f"contraction must be >= 0, got {contraction}")
    if contraction >= rest_radius:
        raise RadiusInversionError(
            f"contraction {contraction} mm reaches rest radius {rest_radius} mm")
    return rest_radius - contraction


def radii(layout: MassLayout,
          contractions: Sequence[float]) -> Tuple[float, float, float, float]:
    """Per-corner instantaneous radii for a contraction vector."""
    if len(contractions) != 4:
        raise ValueError("need 4 contractions")
    return tuple(instantaneous_radius(R, u)
                 for R, u in zip(layout.rest_radii, contractions))


@dataclass(frozen=True)
class BodyState:
    """Snapshot of roll angle, support radius, contractions, and radii."""

    roll_angle: float
    support_radius: float
    contractions: Tuple[float, float, float, float]
    radii: Tuple[float, float, float, float]
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.support_radius <= 0:
            raise ValueError("support radius must be > 0")
        if any(r <= 0 for r in self.radii):
            raise RadiusInversionError(f"non-positive radius in {self.radii}")

    @classmethod
    def from_contractions(cls, layout: MassLayout, contractions: Sequence[float],
                          roll_angle: float = 0.0,
                          support_radius: Optional[float] = None,
                          time: float = 0.0) -> "BodyState":
        contractions = tuple(float(u) for u in contractions)
        if support_radius is None:
            support_radius = max(layout.rest_radii)
        return cls(roll_angle=roll_angle, support_radius=support_radius,
                   contractions=contractions,
                   radii=radii(layout, contractions), time=time)

    @classmethod
    def at_rest(cls, layout: MassLayout, roll_angle: float = 0.0,
                support_radius: Optional[float] = None) -> "BodyState":
        return cls.from_contractions(layout, (0.0, 0.0, 0.0, 0.0),
                                     roll_angle, support_radius)


def rotation_matrix(roll_angle: float) -> np.ndarray:
    """Planar rotation matrix [[cos, -sin], [sin, cos]]."""
    import numpy as np
    c, s = unit(roll_angle)
    return np.array([[c, -s], [s, c]])


def mass_offset_xy(layout: MassLayout,
                   radii_values: Sequence[float]) -> Tuple[float, float]:
    """Components ``(x, y)`` of the body-frame mass offset.

    Takes one float per corner, or one array per corner for many states.
    The sums run corner 1 to 4 either way, so arrays give the floats' values.
    """
    total = layout.total_mass
    if total <= 0:
        raise ValueError("total mass must be > 0")
    x = 0.0
    y = 0.0
    for m, r, (ux, uy) in zip(layout.corner_masses, radii_values,
                              layout.ray_units):
        x += m * r * ux
        y += m * r * uy
    return x / total, y / total


def body_mass_offset(layout: MassLayout, radii_values: Sequence[float]) -> np.ndarray:
    """Mass-weighted COM offset in the body frame.

    d_b = (1/M_T) * sum_i m_i * r_i * (cos a_i, sin a_i); at the canonical
    ray angles this reduces to
    ((m2*r2 - m4*r4)/M_T, (m1*r1 - m3*r3)/M_T).
    """
    import numpy as np
    return np.array(mass_offset_xy(layout, radii_values))


def world_com(layout: MassLayout, state: BodyState) -> np.ndarray:
    """World-frame center of mass r_G = r_s + R(phi) * d_b."""
    import numpy as np
    dbx, dby = mass_offset_xy(layout, state.radii)
    c, s = unit(state.roll_angle)
    return np.array([state.support_radius * state.roll_angle + c * dbx - s * dby,
                     s * dbx + c * dby])


def offset_point(state: BodyState) -> np.ndarray:
    """Mass-imbalance offset point of the kinematic model.

    (R*phi + (r2 - r4)*cos(phi), -(r1 - r3)*sin(phi)): the horizontal ray
    pair feeds the x offset through cos(phi), the vertical pair feeds the
    y offset through sin(phi).
    """
    import numpy as np
    r1, r2, r3, r4 = state.radii
    phi = state.roll_angle
    c, s = unit(phi)
    return np.array([state.support_radius * phi + (r2 - r4) * c,
                     -(r1 - r3) * s])


def com_velocity(state: BodyState, roll_rate: float, support_radius_rate: float,
                 radii_rates: Sequence[float]) -> np.ndarray:
    """Analytic time derivative of the offset point.

    The y component is the exact derivative of the offset point above,
    ydot = -(r1dot - r3dot)*sin(phi) - phidot*(r1 - r3)*cos(phi); it is
    validated against central finite differences of offset_point.
    """
    import numpy as np
    if len(radii_rates) != 4:
        raise ValueError("need 4 radius rates")
    r1, r2, r3, r4 = state.radii
    r1d, r2d, r3d, r4d = radii_rates
    phi = state.roll_angle
    phid = roll_rate
    c, s = unit(phi)
    xdot = support_radius_rate * phi + state.support_radius * phid \
        + (r2d - r4d) * c - phid * (r2 - r4) * s
    ydot = -(r1d - r3d) * s - phid * (r1 - r3) * c
    return np.array([xdot, ydot])
