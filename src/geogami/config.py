"""Run configuration: JSON schema, validation, presets, and builders.

The config file is a single versioned JSON document.  Angles are degrees
in files and at the CLI; the builders convert to radians, so conversion
happens at the boundary only.  The dataclasses below mirror the file
(degrees included), which makes parse -> serialize -> parse an identity.
Their defaults read the defaults of the domain types they build.

Presets ship inside the package; the ``GEOGAMI_PRESET_DIR`` environment
variable overrides their location.
"""

import errno
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import (TYPE_CHECKING, Iterator, List, Optional, TextIO, Tuple,
                    Type, TypeVar, get_args, get_origin)

from .compliance import CompositionLaw, SideAssembly
from .kinematics import MassLayout, lattice_radians
from .locomotion import (ActuationProgram, DampingParams, ReleaseModel,
                         SimulationError, Simulator)
from .transmission import EngagementSchedule, GearboxConfig

if TYPE_CHECKING:
    from importlib.abc import Traversable

SCHEMA_VERSION = 1
PRESET_ENV_VAR = "GEOGAMI_PRESET_DIR"
# the paper's origami chain has five joints; a side's chain is built as one
# stiffness per joint, so the count is capped at twenty times that (10**6
# would build a million-entry chain per side, 10**19 none at all)
MAX_ORIGAMI_JOINTS = 100
# engagement windows one cyclic program may open: the engine walks every
# window, about 0.1 ms and 1.7 kB each in a sweep's timeline (1e6 s of
# paper-table1 is 110,775 windows and took 11.3 s and 194 MB), so this
# bounds a run near 20 s and 350 MB; --duration-s 1e300 would open 1.1e299
MAX_WINDOWS = 200_000
E = TypeVar("E", bound=Enum)


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


@dataclass(frozen=True)
class GearboxSpec:
    worm_teeth: int = GearboxConfig.worm_teeth
    driver_teeth: int = GearboxConfig.driver_teeth
    driven_teeth: int = GearboxConfig.driven_teeth
    spool_radius_mm: float = GearboxConfig.spool_radius
    sector_arc_deg: float = math.degrees(GearboxConfig.sector_arc)
    efficiency_worm: float = GearboxConfig.efficiency_worm
    efficiency_spur: float = GearboxConfig.efficiency_spur
    motor_torque_nm: float = GearboxConfig.motor_torque


@dataclass(frozen=True)
class MassLayoutSpec:
    central_mass_kg: float = MassLayout.central_mass
    corner_masses_kg: Tuple[float, ...] = MassLayout.corner_masses
    ray_angles_deg: Tuple[float, ...] = tuple(
        map(math.degrees, MassLayout.ray_angles))
    rest_radii_mm: Tuple[float, ...] = MassLayout.rest_radii


@dataclass(frozen=True)
class SideSpec:
    origami_joint_stiffness: float = SideAssembly.origami_chain[0]
    origami_joint_count: int = len(SideAssembly.origami_chain)
    skeleton_left: float = SideAssembly.skeleton_left
    skeleton_right: float = SideAssembly.skeleton_right
    cable_stiffness: Optional[float] = None   # None = inextensible
    routing_gain: float = SideAssembly.routing_gain
    angular_to_radial: float = SideAssembly.angular_to_radial


@dataclass(frozen=True)
class DampingSpec:
    frequency_hz: float = DampingParams.frequency_hz
    damping_ratio: float = DampingParams.damping_ratio
    amplitude_deg: float = math.degrees(DampingParams.amplitude_rad)


@dataclass(frozen=True)
class SupportSpec:
    contact_lever_mm: float = 0.0


@dataclass(frozen=True)
class SpindleProfiles:
    """The take-up multiplier of each corner under each fixed-spindle
    drive; a field's name is the drive's ``--mode``."""

    pyramid: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
    spindle5: Tuple[float, ...] = (0.55, 0.5, 0.45, 0.5)
    spindle10: Tuple[float, ...] = (1.1, 1.0, 0.9, 1.0)


SIMULATION_MODES = ("cyclic", *(f.name for f in fields(SpindleProfiles)))


@dataclass(frozen=True)
class ProgramSpec:
    motor_speed_rad_s: float = 30.0
    duration_s: float = 36.1
    mode: str = "cyclic"
    first_corner: int = EngagementSchedule.first_corner
    initial_roll_deg: float = 0.0
    max_contraction_mm: Optional[float] = None   # None = no cap
    spindle_max_contraction_mm: float = 25.1
    release_model: str = ActuationProgram.release_model.value
    origami: bool = True
    spindle_profiles: SpindleProfiles = SpindleProfiles()
    damping_with_origami: DampingSpec = DampingSpec(2.2, 0.35, 12.0)
    damping_without_origami: DampingSpec = DampingSpec()
    allow_damping_override: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible experiment run needs; fully deterministic."""

    gearbox: GearboxSpec = GearboxSpec()
    mass_layout: MassLayoutSpec = MassLayoutSpec()
    sides: Tuple[SideSpec, ...] = (
        SideSpec(), SideSpec(), SideSpec(), SideSpec())
    program: ProgramSpec = ProgramSpec()
    support: SupportSpec = SupportSpec()
    composition_law: str = CompositionLaw.ALL_SERIES.value
    description: str = ""
    schema_version: int = SCHEMA_VERSION

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the run this config describes (see ``build_simulator``)."""
        self.build_simulator()

    def _check_stroke(self, sim: Simulator) -> None:
        """Reject a cyclic program that opens more than ``MAX_WINDOWS``,
        or a stroke (``Simulator.strokes``) that would pull a corner
        through its rest radius."""
        if sim.windows > MAX_WINDOWS:
            raise ConfigError(
                f"program.duration_s {self.program.duration_s:g} opens "
                f"{sim.windows:.3g} engagement windows, more than "
                f"{MAX_WINDOWS}")
        for corner, reach in sim.strokes():
            rest = sim.layout.rest_radii[corner - 1]
            if reach >= rest:
                raise ConfigError(
                    f"gearbox.spool_radius_mm {self.gearbox.spool_radius_mm} "
                    f"pulls corner {corner} in by {reach:.3f} mm, which "
                    f"reaches its rest radius {rest} mm")

    # -- builders (degrees -> radians happens here) ---------------------------

    def build_gearbox(self) -> GearboxConfig:
        g = self.gearbox
        return GearboxConfig(
            worm_teeth=g.worm_teeth, driver_teeth=g.driver_teeth,
            driven_teeth=g.driven_teeth, spool_radius=g.spool_radius_mm,
            sector_arc=math.radians(g.sector_arc_deg),
            efficiency_worm=g.efficiency_worm, efficiency_spur=g.efficiency_spur,
            motor_torque=g.motor_torque_nm)

    def build_layout(self) -> MassLayout:
        m = self.mass_layout
        return MassLayout(
            central_mass=m.central_mass_kg,
            corner_masses=tuple(m.corner_masses_kg),
            ray_angles=tuple(lattice_radians(a) for a in m.ray_angles_deg),
            rest_radii=tuple(m.rest_radii_mm))

    def build_sides(self) -> Tuple[SideAssembly, ...]:
        sides = []
        for k, spec in enumerate(self.sides):
            # checked with the chain off too: 10**19 joints is no config
            if not 0 <= spec.origami_joint_count <= MAX_ORIGAMI_JOINTS:
                raise ConfigError(
                    f"sides.{k}.origami_joint_count must be between 0 and "
                    f"{MAX_ORIGAMI_JOINTS}, got {spec.origami_joint_count}")
            chain = (spec.origami_joint_stiffness,) * spec.origami_joint_count \
                if self.program.origami else ()
            sides.append(SideAssembly(
                origami_chain=chain,
                skeleton_left=spec.skeleton_left,
                skeleton_right=spec.skeleton_right,
                cable_stiffness=math.inf if spec.cable_stiffness is None
                else spec.cable_stiffness,
                routing_gain=spec.routing_gain,
                angular_to_radial=spec.angular_to_radial))
        return tuple(sides)

    def build_schedule(self) -> EngagementSchedule:
        mode = self.program.mode
        if mode not in SIMULATION_MODES:
            raise ConfigError(
                f"mode must be one of {SIMULATION_MODES}, got {mode!r}")
        if mode == "cyclic":
            return EngagementSchedule.cyclic(self.program.first_corner)
        return EngagementSchedule.spindle(
            getattr(self.program.spindle_profiles, mode))

    def build_program(self) -> ActuationProgram:
        p = self.program
        with_d, without_d = p.damping_with_origami, p.damping_without_origami
        if with_d.damping_ratio < without_d.damping_ratio \
                and not p.allow_damping_override:
            raise ConfigError(
                "with-origami damping ratio must be >= without-origami "
                "(set allow_damping_override to relax)")
        damping_spec = with_d if p.origami else without_d
        cap = p.max_contraction_mm if p.mode == "cyclic" \
            else p.spindle_max_contraction_mm
        return ActuationProgram(
            motor_speed=p.motor_speed_rad_s,
            duration=p.duration_s,
            schedule=self.build_schedule(),
            release_model=_member(ReleaseModel, p.release_model,
                                  "program.release_model"),
            damping=DampingParams(
                frequency_hz=damping_spec.frequency_hz,
                damping_ratio=damping_spec.damping_ratio,
                amplitude_rad=math.radians(damping_spec.amplitude_deg)),
            max_contraction=math.inf if cap is None else cap)

    def build_simulator(self, mode: Optional[str] = None,
                        origami: Optional[bool] = None) -> Simulator:
        """Check this config's run and build its Simulator.

        ``mode`` and ``origami``, when given, replace the program's.  This
        is where a config is checked: a run that cannot run raises
        ``ConfigError`` here, before any of it runs.  Each value is checked
        once, by the builder or domain type that reads it.
        """
        changes = {key: value for key, value in
                   (("mode", mode), ("origami", origami)) if value is not None}
        config = replace(self, program=replace(self.program, **changes))
        start = config.program.initial_roll_deg
        # the one number no domain type checks: fmod(inf, 360) raises
        if not math.isfinite(start):
            raise ConfigError(
                f"program.initial_roll_deg must be finite, got {start}")
        try:
            sim = Simulator(
                config.build_gearbox(), config.build_layout(),
                config.build_sides(), config.support.contact_lever_mm,
                config.build_program(),
                composition_law=_member(CompositionLaw, config.composition_law,
                                        "composition_law"),
                initial_roll=lattice_radians(math.fmod(start, 360)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        config._check_stroke(sim)
        try:
            sim.resolve_tips(sim.initial_state(), [])
        except SimulationError as exc:
            raise ConfigError(
                f"program.initial_roll_deg {start:g} is not a rest pose: {exc}")
        return sim

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        # asdict keeps tuples; the JSON round trip makes them lists
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse a config document (``_parse``) of this ``SCHEMA_VERSION``."""
        config = _parse(cls, data, "")
        if config.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {config.schema_version}, "
                f"expected {SCHEMA_VERSION}")
        return config


def _member(kind: Type[E], value: str, path: str) -> E:
    """The member of the enum ``kind`` named by the config string ``value``."""
    try:
        return kind(value)
    except ValueError:
        names = " or ".join(repr(member.value) for member in kind)
        raise ConfigError(f"{path} must be {names}, got {value!r}") from None


# the Python types a JSON value of each declared scalar field type may have,
# and what the field must be; ``bool`` is an ``int`` but only fits ``bool``
_FIELD_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    Optional[float]: ((int, float, type(None)), "a number or null"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def _parse(declared: object, node: object, path: str) -> object:
    """``node``, read from JSON, as a value of the ``declared`` field type.

    JSON admits a string, a bool, a list or an object anywhere; the
    builders would fail on one with a traceback, read ``"yes"`` as true or
    a list as an empty section.  So a value of the wrong JSON type or
    shape, a non-finite number, or a field the spec lacks, raises one
    ``ConfigError`` naming its dotted field.  Values pass through as
    read (no int -> float).
    """
    scalar = _FIELD_TYPES.get(declared)
    if scalar is not None:
        types, kind = scalar
        if not isinstance(node, types) or (isinstance(node, bool)
                                           and declared is not bool):
            raise ConfigError(f"{path} must be {kind}, got {node!r}")
        # JSON and --values admit NaN, inf and an int past any float
        if isinstance(node, (int, float)) \
                and not abs(node) <= sys.float_info.max:
            raise ConfigError(f"{path} must be finite, got {node}")
        return node
    prefix = f"{path}." if path else ""
    if get_origin(declared) is tuple:
        item = get_args(declared)[0]
        if not isinstance(node, list):
            kind = "a list of numbers" if item is float else "a list"
            raise ConfigError(f"{path} must be {kind}, got {node!r}")
        return tuple(_parse(item, value, f"{prefix}{k}")
                     for k, value in enumerate(node))
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object, got {node!r}")
    field_types = {f.name: f.type for f in fields(declared)}
    values = {}
    for name, value in node.items():
        if name not in field_types:
            raise ConfigError(
                f"unknown or missing config field: {prefix}{name}")
        values[name] = _parse(field_types[name], value, prefix + name)
    return declared(**values)


def _parse_config(text: str, source: str) -> RunConfig:
    """Parse one config document; ``source`` names it in errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    return RunConfig.from_dict(data)


def load_config(path: str) -> RunConfig:
    """Parse a run configuration from a JSON file.

    Loading parses: a value of the wrong JSON type or shape, a non-finite
    number or another ``schema_version`` fails here.  The run is checked
    when it is built (``RunConfig.build_simulator``), after any overrides.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    return _parse_config(text, path)


def _preset_root() -> "Traversable":
    """Where presets live: ``GEOGAMI_PRESET_DIR`` if set, else the package."""
    override = os.environ.get(PRESET_ENV_VAR)
    return Path(override) if override \
        else resources.files("geogami").joinpath("presets")


def available_presets() -> List[str]:
    root = _preset_root()
    if not root.is_dir():
        return []
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    """Parse a named preset, honoring the GEOGAMI_PRESET_DIR override.

    Like ``load_config``, this parses; the run is checked when built.
    """
    root = _preset_root()
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(
            f"unknown preset {name!r}: not found in {root} "
            f"(available: {', '.join(available_presets()) or 'none'})")
    return _parse_config(path.read_text(), str(path))


@contextmanager
def open_atomic(path: str) -> Iterator[TextIO]:
    """Write a text file via a temp name + rename: readers never see a partial.

    A failure in the ``with`` block leaves neither the target nor the temp
    file.  The file gets the mode ``open`` would give a new file (0666
    less the process umask), not the private 0600 of the temp file.
    A directory target is refused with an error that names it, not the
    temp file.
    """
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        # reading the umask means setting it; no other thread writes files
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_atomic(path: str, content: str) -> None:
    """Write a whole file atomically (see ``open_atomic``)."""
    with open_atomic(path) as handle:
        handle.write(content)

