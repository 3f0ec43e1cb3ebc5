"""Joint bending models and the series/parallel stiffness algebra.

Joint-level force-angle and return-angle curves are fitted polynomials
over bend angle in radians.  Side-level values are linearized radial
stiffnesses: they are quoted per-radian by the characterization rigs but
are applied to millimeter contractions over the operating range, so their
effective unit here is N/mm; ``SideAssembly.angular_to_radial`` records
the conversion factor used (1.0 keeps the quoted values as-is).

Fitting and evaluation are pure; models and assemblies are immutable and
freely shareable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple


class MeasurementFormatError(ValueError):
    """A measurement CSV could not be parsed; carries the offending row."""

    def __init__(self, path: str, row: Optional[int], message: str) -> None:
        self.path = path
        self.row = row
        where = f"{path}: row {row}: " if row is not None else f"{path}: "
        super().__init__(where + message)


class JointFamily(Enum):
    ALIGNING = "aligning"
    OPPOSING = "opposing"
    MULTI_DIRECTIONAL = "multi_directional"
    FOLDING_24MM = "folding_24mm"
    FOLDING_30MM = "folding_30mm"
    CUSTOM = "custom"


class CompositionLaw(Enum):
    """How one side's origami chain and two skeleton segments combine.

    PARALLEL_SKELETON ("A"): the skeleton pair adds in parallel before the
    series sum, kappa^-1 = k^-1 + (k_l + k_r)^-1.
    ALL_SERIES ("B", default): all three in series,
    kappa^-1 = k^-1 + k_l^-1 + k_r^-1.
    """

    PARALLEL_SKELETON = "A"
    ALL_SERIES = "B"


@dataclass(frozen=True)
class JointMeasurementSet:
    """Averaged bending measurements for one joint family.

    samples are (bend angle rad, bending force N, return angle rad)
    triples with angles in [0, pi).
    """

    family: JointFamily
    samples: Tuple[Tuple[float, float, float], ...]
    rig_note: str = ""

    def __post_init__(self) -> None:
        if len(self.samples) < 4:
            raise ValueError(f"need at least 4 samples, got {len(self.samples)}")
        for k, (theta, force, ret) in enumerate(self.samples):
            if not all(math.isfinite(v) for v in (theta, force, ret)):
                raise ValueError(f"sample {k} contains non-finite values")
            if not 0 <= theta < math.pi:
                raise ValueError(f"sample {k}: bend angle {theta} outside [0, pi)")
            if force < 0:
                raise ValueError(f"sample {k}: bending force {force} < 0")


MEASUREMENT_CSV_HEADER = ("theta_deg", "force_N", "return_deg")


def read_measurement_csv(path: str,
                         family: JointFamily = JointFamily.CUSTOM) -> JointMeasurementSet:
    """Read a measurement CSV (``theta_deg,force_N,return_deg``).

    Degrees in files, radians internally.  Raises MeasurementFormatError
    naming the offending row on malformed input.
    """
    samples: List[Tuple[float, float, float]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if line_no == 1 and row[0].strip().lower().startswith("theta"):
                continue
            if len(row) != 3:
                raise MeasurementFormatError(
                    path, line_no,
                    f"expected 3 fields {','.join(MEASUREMENT_CSV_HEADER)}, "
                    f"got {len(row)}")
            try:
                theta_deg, force, ret_deg = (float(cell) for cell in row)
            except ValueError:
                raise MeasurementFormatError(
                    path, line_no, f"could not parse numeric fields from {row!r}")
            samples.append((math.radians(theta_deg), force, math.radians(ret_deg)))
    if not samples:
        raise MeasurementFormatError(path, None, "no samples")
    return JointMeasurementSet(family=family, samples=tuple(samples))


@dataclass(frozen=True)
class JointModel:
    """Fitted polynomial bending model for one joint family.

    Coefficients are lowest order first, over bend angle in radians.
    """

    family: JointFamily
    force_coeffs: Tuple[float, ...]
    return_coeffs: Tuple[float, ...]
    valid_range: Tuple[float, float]
    mean_stiffness: float
    note: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.valid_range
        if not lo < hi:
            raise ValueError(f"valid_range must be increasing, got {self.valid_range}")

    def force(self, theta: float) -> float:
        """Bending force F_b at a bend angle (no range check)."""
        return float(_polyval(theta, self.force_coeffs))

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.family.value,
            "force_coeffs": list(self.force_coeffs),
            "return_coeffs": list(self.return_coeffs),
            "valid_range_rad": list(self.valid_range),
            "mean_stiffness_n_per_rad": self.mean_stiffness,
            "note": self.note,
        }


def _polyval(x, coeffs: Sequence[float]):
    """numpy's ``polyval`` to the bit, for a float or an array ``x``."""
    value = coeffs[-1] + x * 0.0
    for c in reversed(coeffs[:-1]):
        value = c + value * x
    return value


def _polyder(coeffs: Sequence[float]) -> Tuple[float, ...]:
    """Derivative coefficients, as numpy's ``polyder`` gives them."""
    return tuple(k * c for k, c in enumerate(coeffs) if k) or (coeffs[0] * 0.0,)


def _check_range(model: JointModel, theta: float) -> None:
    lo, hi = model.valid_range
    if not lo <= theta <= hi:
        raise ValueError(
            f"bend angle {theta} outside model range [{lo}, {hi}] rad")


def fit_joint_model(data: JointMeasurementSet, degree: int = 3) -> JointModel:
    """Least-squares polynomial fits for the force and return-angle curves.

    mean_stiffness is the average of dF_b/dtheta over the fitted range,
    which for a polynomial is the endpoint difference quotient.
    """
    import numpy as np
    from numpy.polynomial import polynomial as npoly
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if len(data.samples) < degree + 1:
        raise ValueError(
            f"underdetermined fit: {len(data.samples)} samples for degree {degree}")
    angles, forces, returns = np.array(data.samples).T
    force_coeffs = npoly.polyfit(angles, forces, degree)
    return_coeffs = npoly.polyfit(angles, returns, degree)
    lo, hi = float(angles.min()), float(angles.max())
    if not lo < hi:
        raise ValueError("samples must span a nonzero angle range")
    mean = (_polyval(hi, force_coeffs) - _polyval(lo, force_coeffs)) / (hi - lo)
    return JointModel(
        family=data.family,
        force_coeffs=tuple(float(c) for c in force_coeffs),
        return_coeffs=tuple(float(c) for c in return_coeffs),
        valid_range=(lo, hi),
        mean_stiffness=float(mean),
        note=data.rig_note,
    )


def fit_residuals(model: JointModel, data: JointMeasurementSet) -> Tuple[float, float]:
    """Max absolute residuals (force N, return angle rad) of a fit."""
    import numpy as np
    angles, forces, returns = np.array(data.samples).T
    force_res = np.max(np.abs(_polyval(angles, model.force_coeffs) - forces))
    return_res = np.max(np.abs(_polyval(angles, model.return_coeffs) - returns))
    return float(force_res), float(return_res)


def bending_stiffness(model: JointModel, theta: float) -> float:
    """Angle-dependent bending stiffness k_b = dF_b/dtheta (N/rad)."""
    _check_range(model, theta)
    return float(_polyval(theta, _polyder(model.force_coeffs)))


def return_angle(model: JointModel, theta: float) -> float:
    """Elastic return angle after unloading at peak bend, clamped to [0, theta]."""
    _check_range(model, theta)
    raw = float(_polyval(theta, model.return_coeffs))
    return min(max(raw, 0.0), theta)


def chain_stiffness(elements: Sequence[float]) -> float:
    """Series (harmonic) combination of joint stiffnesses along one path."""
    if not elements:
        raise ValueError("chain needs at least one element")
    total = 0.0
    for k in elements:
        if k <= 0:
            raise ValueError(f"chain element stiffness must be > 0, got {k}")
        total += 1.0 / k
    return 1.0 / total


def parallel_stiffness(elements: Sequence[float]) -> float:
    """Parallel combination (sum) of stiffnesses sharing one displacement."""
    if not elements:
        raise ValueError("parallel combination needs at least one element")
    if any(k <= 0 for k in elements):
        raise ValueError("parallel element stiffness must be > 0")
    return float(sum(elements))


@dataclass(frozen=True)
class SideAssembly:
    """One side's stiffness network: origami chain, skeleton pair, cable.

    ``origami_chain`` holds the per-joint linearized stiffnesses of the
    folding chain (empty when the cap is not installed).  The cable may be
    inextensible (``cable_stiffness = inf``).  ``routing_gain`` converts
    radial contraction to cable retraction, delta_l = g * u.
    """

    origami_chain: Tuple[float, ...] = (0.48, 0.48, 0.48, 0.48, 0.48)
    skeleton_left: float = 0.6
    skeleton_right: float = 0.6
    cable_stiffness: float = math.inf
    routing_gain: float = 1.0
    angular_to_radial: float = 1.0

    def __post_init__(self) -> None:
        if not all(0 < k < math.inf for k in self.origami_chain):
            raise ValueError("origami joint stiffnesses must be finite and > 0")
        if not (0 < self.skeleton_left < math.inf
                and 0 < self.skeleton_right < math.inf):
            raise ValueError("skeleton stiffnesses must be finite and > 0")
        if not self.cable_stiffness > 0:
            raise ValueError("cable stiffness must be > 0 (inf = inextensible)")
        if not 0 < self.routing_gain < math.inf:
            raise ValueError("routing gain must be finite and > 0")
        if not 0 < self.angular_to_radial < math.inf:
            raise ValueError("angular_to_radial must be finite and > 0")

    @property
    def origami_stiffness(self) -> Optional[float]:
        """Lumped series stiffness of the folding chain, None when cap is off."""
        if not self.origami_chain:
            return None
        return chain_stiffness(self.origami_chain)


def side_equivalent_stiffness(side: SideAssembly,
                              law: CompositionLaw = CompositionLaw.ALL_SERIES) -> float:
    """Effective radial stiffness kappa_i for the contraction u_i.

    Both published composition laws are supported; ALL_SERIES is the
    default because it reproduces the documented numeric chain
    (kappa ~ 0.073 for k=0.096, k_l=k_r=0.6).
    """
    a2r = side.angular_to_radial
    k_l = side.skeleton_left * a2r
    k_r = side.skeleton_right * a2r
    k_chain = side.origami_stiffness
    if law is CompositionLaw.ALL_SERIES:
        elements = [k_l, k_r]
        if k_chain is not None:
            elements.insert(0, k_chain * a2r)
        return chain_stiffness(elements)
    skeleton_pair = parallel_stiffness([k_l, k_r])
    if k_chain is None:
        return skeleton_pair
    return chain_stiffness([k_chain * a2r, skeleton_pair])


def cable_series_stiffness(side: SideAssembly,
                           law: CompositionLaw = CompositionLaw.ALL_SERIES) -> float:
    """Stiffness seen in the cable: K_i^-1 = kappa_i^-1 + k_c^-1."""
    kappa = side_equivalent_stiffness(side, law)
    if math.isinf(side.cable_stiffness):
        return kappa
    return chain_stiffness([kappa, side.cable_stiffness])


def cable_tension(side: SideAssembly, contraction: Optional[float] = None,
                  retraction: Optional[float] = None,
                  law: CompositionLaw = CompositionLaw.ALL_SERIES) -> float:
    """Cable tension T_i = K_i * u_i = (K_i / g_i) * delta_l_i (N).

    Exactly one of ``contraction`` (radial, mm) or ``retraction`` (cable,
    mm) must be given.
    """
    if (contraction is None) == (retraction is None):
        raise ValueError("give exactly one of contraction or retraction")
    if contraction is None:
        contraction = retraction / side.routing_gain
    if contraction < 0:
        raise ValueError(f"contraction must be >= 0, got {contraction}")
    return cable_series_stiffness(side, law) * contraction


# Shipped joint-family defaults.  Raw characterization curves exist only as
# plots, so these are synthesized to the published anchors: mean folding
# stiffness 0.52 (24 mm) / 0.43 (30 mm) N/rad over 0-1.75 rad, bending
# force ~0.7-0.9 N near 100 deg, return angle in the 15-18 deg band at
# large bends and -> 0 at small bends; skeleton families keep their
# qualitative ordering (aligning stiffest, multi-directional retains the
# largest return angle near 40 deg).
_DEFAULT_MODELS = {
    JointFamily.FOLDING_24MM: JointModel(
        family=JointFamily.FOLDING_24MM,
        force_coeffs=(0.0, 0.52), return_coeffs=(0.0, 0.165),
        valid_range=(0.0, 1.75), mean_stiffness=0.52,
        note="synthesized default, 24 mm folding polygon joint"),
    JointFamily.FOLDING_30MM: JointModel(
        family=JointFamily.FOLDING_30MM,
        force_coeffs=(0.0, 0.43), return_coeffs=(0.0, 0.155),
        valid_range=(0.0, 1.75), mean_stiffness=0.43,
        note="synthesized default, 30 mm folding polygon joint"),
    JointFamily.ALIGNING: JointModel(
        family=JointFamily.ALIGNING,
        force_coeffs=(0.0, 1.2, 0.3), return_coeffs=(0.0, 0.35, -0.09),
        valid_range=(0.0, 2.2), mean_stiffness=1.86,
        note="synthesized default, aligning skeleton joint"),
    JointFamily.OPPOSING: JointModel(
        family=JointFamily.OPPOSING,
        force_coeffs=(0.0, 0.8), return_coeffs=(0.0, 0.4, -0.1),
        valid_range=(0.0, 2.2), mean_stiffness=0.8,
        note="synthesized default, opposing skeleton joint"),
    JointFamily.MULTI_DIRECTIONAL: JointModel(
        family=JointFamily.MULTI_DIRECTIONAL,
        force_coeffs=(0.0, 0.9, -0.12), return_coeffs=(0.0, 0.55, -0.08),
        valid_range=(0.0, 2.6), mean_stiffness=0.588,
        note="synthesized default, multi-directional skeleton joint"),
}


def default_joint_model(family: JointFamily) -> JointModel:
    """Shipped default model for a joint family (none for CUSTOM)."""
    try:
        return _DEFAULT_MODELS[family]
    except KeyError:
        raise ValueError(f"no default model for family {family.value!r}")
