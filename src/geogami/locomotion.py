"""Quasi-static event-driven rolling engine.

Advances the motor angle, applies the engagement schedule, maps cable
retraction to per-corner contraction, and watches the world COM against
the support pivot.  Rolls are quantized pivot-advance events (pi/2 for the
cyclic drive, pi/4 for spindle drives) rather than integrated rigid-body
dynamics; a parametric damped sinusoid is overlaid on the roll-angle trace
after each roll and does not feed back into the COM computation.

One simulation run is strictly sequential; independent runs share only
immutable configs and may execute in parallel.  A ``Simulator`` holds no
run state: the engaged cyclic window is a function of the state's time,
so ``step`` depends only on its arguments and a Simulator may be reused.

``Simulator.run`` samples the trace on a fixed ``dt`` grid in two
stages.  Most grid steps are quiet: they end before the window boundary
and every saturation, on a state that does not tip.  numpy evaluates
runs of such steps with the scalar engine's arithmetic, in its order, and
stores them as record columns.  Every other step goes through the scalar
``_advance``, the only source of events, tips and clamps.  A tip happens
at the first float at which the tipping predicate holds, found in closed
form: the COM x offset is affine in time between events.

``SimTrace.write_csv`` writes the trace CSV through ``tracecsv``, a
numpy digit kernel with a ``%`` fallback, imported on the first write.

Only the sampler (``run`` and its helpers, ``DampingParams.overlay``) and
the CSV writer import numpy, when first called: ``timeline`` and set-up
never build an array, so a sweep runs without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import index
from typing import (TYPE_CHECKING, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

from .compliance import (CompositionLaw, SideAssembly,
                         cable_series_stiffness, default_joint_model,
                         JointFamily, return_angle)
# world_com is unused here; bench/tracer.py counts its calls under this name
from .kinematics import (EIGHTH_TURN, BodyState, MassLayout, lattice_index,
                         mass_offset_xy, radii, unit, world_com)
from .transmission import EngagementSchedule, GearboxConfig, ScheduleMode

if TYPE_CHECKING:
    import numpy as np

_PIVOT_Y_TOL = 1e-9
# grid steps ``run`` evaluates in one numpy pass; a pass that ends early
# at an event wastes at most this many step evaluations
_SAMPLE_STEPS = 4096
_BEND_PER_CONTRACTION = 0.0697   # rad/mm of joint bend, return-angle release
# grid steps one ``run`` may sample: a trace row takes about 205 bytes
# while the run holds it (361,162 rows took 105 MB), so this bounds a
# trace near 1 GB; --dt 1e-300 would ask for 3.6e301 rows
MAX_TRACE_STEPS = 5_000_000


class SimulationError(RuntimeError):
    """The engine reached a state it cannot advance."""


class EventKind(Enum):
    ENGAGEMENT_START = "engagement_start"
    ENGAGEMENT_END = "engagement_end"
    TIP = "tip"
    ROLL_COMPLETE = "roll_complete"
    STALL = "stall"
    SATURATION = "saturation"


@dataclass(frozen=True)
class SimEvent:
    kind: EventKind
    time: float
    state: BodyState
    corner: Optional[int] = None
    direction: Optional[int] = None

    def token(self) -> str:
        """Symbolic token for the trace CSV event column."""
        if self.corner is not None:
            return f"{self.kind.value}:{self.corner}"
        if self.direction is not None:
            sign = "+" if self.direction > 0 else "-"
            return f"{self.kind.value}:{sign}"
        return self.kind.value


class ReleaseModel(Enum):
    INSTANT_RETURN = "instant_return"
    RETURN_ANGLE_LIMITED = "return_angle_limited"


@dataclass(frozen=True)
class DampingParams:
    """Post-tip ring-down: natural frequency proxy, damping ratio, amplitude."""

    frequency_hz: float = 2.5
    damping_ratio: float = 0.10
    amplitude_rad: float = math.radians(18.0)

    def __post_init__(self) -> None:
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError("frequency must be finite and > 0")
        if not 0 <= self.damping_ratio <= 1:
            raise ValueError("damping ratio must be in [0, 1]")
        if not 0 <= self.amplitude_rad < math.inf:
            raise ValueError("amplitude must be finite and >= 0")

    def overlay(self, dt_since_roll: np.ndarray) -> np.ndarray:
        """Damped sinusoid values at time offsets after a roll; 0 up to it.

        ``exp`` and ``sin`` come from ``math``, one element at a time:
        ``np.exp`` differs from ``math.exp`` in the last bit on some
        arguments, which would move digits of the trace's roll column.
        """
        import numpy as np
        dt = np.maximum(dt_since_roll, 0.0)
        if self.amplitude_rad == 0:
            return np.zeros_like(dt)
        omega = 2 * math.pi * self.frequency_hz
        zeta = self.damping_ratio
        omega_d = omega * math.sqrt(max(1 - zeta * zeta, 0.0))
        decay = np.fromiter(map(math.exp, (-zeta * omega * dt).tolist()),
                            float, len(dt))
        wave = np.fromiter(map(math.sin, (omega_d * dt).tolist()),
                           float, len(dt))
        return self.amplitude_rad * decay * wave

    def settled_after(self, phi: float) -> float:
        """Time after a roll from which its ring-down, added to ``phi``,
        leaves it unchanged; ``math.inf`` if it may never.

        Adding ``v`` to a float keeps the float if ``|v|`` is less than
        half the gap to its neighbour toward zero.  From here on the
        envelope ``amplitude * exp(-zeta * omega * dt)`` is at most a
        quarter of that gap, which leaves room for the rounding of
        ``overlay``.  At ``phi = 0`` every nonzero value changes the sum,
        so there is no such time.
        """
        if phi == 0:
            return math.inf
        phi = abs(phi)
        limit = (phi - math.nextafter(phi, 0.0)) / 4
        if self.amplitude_rad < limit:
            return 0.0
        rate = self.damping_ratio * 2 * math.pi * self.frequency_hz
        if rate == 0:
            return math.inf
        return math.log(self.amplitude_rad / limit) / rate


@dataclass(frozen=True)
class ActuationProgram:
    """Motor trajectory, schedule, release behavior, and damping overlay.

    ``max_contraction`` is the saturation limit of a corner (mm); None
    disables saturation (the cyclic drive is bounded by its engagement
    window instead).
    """

    motor_speed: float
    duration: float
    schedule: EngagementSchedule
    release_model: ReleaseModel = ReleaseModel.INSTANT_RETURN
    damping: DampingParams = DampingParams()
    max_contraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.motor_speed) and self.motor_speed >= 0):
            raise ValueError("motor speed must be finite and >= 0 "
                             "(winding positive)")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be finite and >= 0, "
                             f"got {self.duration}")
        if self.max_contraction is not None \
                and not 0 < self.max_contraction < math.inf:
            raise ValueError("max_contraction must be finite and > 0, or None")

    @property
    def roll_quantum(self) -> float:
        """Roll increment per tip: pi/2 cyclic, pi/4 for spindle drives."""
        if self.schedule.mode is ScheduleMode.CYCLIC_SECTOR:
            return math.pi / 2
        return math.pi / 4


@dataclass(frozen=True)
class TippingReport:
    """World COM x and ground pivot x, relative to the body center, and
    the tip rule: the body tips once its COM is strictly past one of the
    ``limits``.  An array ``com_offset_x`` of states gets arrays."""

    com_offset_x: float
    forward_pivot_x: float  # world x of the leading ground vertex
    rear_pivot_x: float
    contact_lever: float

    @property
    def limits(self) -> Tuple[float, float]:
        """The forward pivot plus the contact lever, the rear one minus it."""
        return (self.forward_pivot_x + self.contact_lever,
                self.rear_pivot_x - self.contact_lever)

    @property
    def direction(self) -> int:
        """+1 forward (+x), -1 backward, 0 stable; 1 * makes bools ints."""
        forward, rear = self.limits
        return 1 * (self.com_offset_x > forward) \
            - 1 * (self.com_offset_x < rear)

    @property
    def tipping(self) -> bool:
        return self.direction != 0

    @property
    def limit(self) -> float:
        """The limit in the tip direction; the forward one if stable."""
        forward, rear = self.limits
        return rear if self.direction < 0 else forward

    @property
    def margin(self) -> float:
        """How far the COM is past ``limit``: > 0 iff the body tips."""
        past = self.com_offset_x - self.limit
        return -past if self.direction < 0 else past


def ground_pivots(layout: MassLayout,
                  roll_angle: float) -> Tuple[float, float]:
    """x of the forward and rear ground-contact feet at a roll angle.

    Returns ``(forward x, rear x)`` relative to the body center.  Feet
    within a relative 1e-9 of the lowest world height all touch the ground,
    as two off-lattice rays mirrored about the vertical may not be level.
    """
    c, s = unit(roll_angle)
    feet = layout.feet
    min_y = math.inf
    for vx, vy in feet:
        wy = s * vx + c * vy
        if wy < min_y:
            min_y = wy
    tol = _PIVOT_Y_TOL * max(1.0, abs(min_y))
    ground = [c * vx - s * vy for vx, vy in feet
              if (s * vx + c * vy) - min_y <= tol]
    if not ground:
        raise ValueError("degenerate mass layout: pivot undefined")
    return max(ground), min(ground)


def tipping_check(layout: MassLayout, state: BodyState,
                  contact_lever: float) -> TippingReport:
    """Compare the world COM against the ground-contact pivots.

    All x values are taken relative to the body center, which cancels the
    common R*phi translation; ``TippingReport`` applies the tip rule.
    ``contact_lever`` is the horizontal lead of the contact patch (mm): the
    COM must pass the pivot by this much before a tip, modeling the
    flattened footprint of the compliant rim.  Zero gives the strict
    COM-past-corner test.
    """
    c, s = unit(state.roll_angle)
    dbx, dby = mass_offset_xy(layout, state.radii)
    com_x = c * dbx - s * dby
    if not math.isfinite(com_x):
        raise ValueError("degenerate state: COM is not finite")
    return TippingReport(com_x, *ground_pivots(layout, state.roll_angle),
                         contact_lever)


def execute_roll(state: BodyState, direction: int,
                 quantum: float = math.pi / 2) -> BodyState:
    """Advance the roll angle by one quantum about the current pivot.

    The ring order of the schedule makes the next engaged corner land on
    the new uphill side, so corner indices effectively remap by one ring
    position per roll; the body center advances by R * quantum through the
    no-slip coordinate.  A roll by ``m`` eighth turns from ``k`` lands on
    ``k + direction * m``; a float sum leaves the lattice after 13 quanta.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    k, m = lattice_index(state.roll_angle), lattice_index(quantum)
    if k is None or m is None:
        return replace(state,
                       roll_angle=state.roll_angle + direction * quantum)
    return replace(state, roll_angle=(k + direction * m) * EIGHTH_TURN)


@dataclass(frozen=True)
class TraceRecord:
    """One trace row; ``SimTrace`` stores rows as columns and builds these."""

    time: float
    motor_angle: float
    roll_angle: float        # with post-tip oscillation overlay
    com_x: float
    com_y: float
    retractions: Tuple[float, float, float, float]
    tensions: Tuple[float, float, float, float]
    event: str = ""


TRACE_CSV_HEADER = ("t_s,theta_m_rad,phi_rad,xG_mm,yG_mm,"
                    "L1_mm,L2_mm,L3_mm,L4_mm,T1_N,T2_N,T3_N,T4_N,event")
class TraceRecords(Sequence[TraceRecord]):
    """Read-only view of a trace's columns as ``TraceRecord`` rows."""

    def __init__(self, columns: Optional[np.ndarray],
                 tokens: List[str]) -> None:
        self._columns = columns
        self._tokens = tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, k: int) -> TraceRecord:
        k = index(k)
        # the tokens bound the index: a trace without rows has no columns
        token = self._tokens[k]
        row = self._columns[k].tolist()
        return TraceRecord(*row[:5], tuple(row[5:9]), tuple(row[9:]), token)


@dataclass
class SimTrace:
    """Time-ordered simulation output plus run summary.

    Record ``k`` is row ``k`` of ``columns`` (the numeric CSV fields, in
    ``TraceRecord`` order) with event token ``tokens[k]``, "" for none.
    A ``timeline`` trace has no records and no ``columns`` array.
    """

    columns: Optional[np.ndarray] = None
    tokens: List[str] = field(default_factory=list)
    events: List[SimEvent] = field(default_factory=list)
    rolls_completed: int = 0
    travel_mm: float = 0.0
    stalled: bool = False
    final_state: Optional[BodyState] = None

    def absorb(self, events: Sequence[SimEvent]) -> bool:
        """Append events in order, counting net rolls; True once one stalls.

        A backward roll takes back a forward one, as it does the travel.
        Events after a stall are dropped: the run ends there.
        """
        for event in events:
            self.events.append(event)
            if event.kind is EventKind.ROLL_COMPLETE:
                self.rolls_completed += event.direction
            elif event.kind is EventKind.STALL:
                self.stalled = True
                return True
        return False

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self.columns, self.tokens)

    def write_csv(self, stream: TextIO) -> None:
        # imported here: a process that writes no trace (a sweep, a config
        # check) does not compile the writer
        from .tracecsv import write_rows
        stream.write(TRACE_CSV_HEADER + "\n")
        write_rows(stream, self.columns, self.tokens)

    def summary_line(self) -> str:
        stall = "yes" if self.stalled else "no"
        return (f"rolls={self.rolls_completed} travel_mm={self.travel_mm:.1f} "
                f"stall={stall}")


class Simulator:
    """Event-driven quasi-static run of one actuation program.

    The full body state lives in BodyState snapshots; ``step`` consumes and
    returns them, so a run is a pure fold over time steps.  It holds no run
    state: ``step`` depends only on its arguments, so it may serve many runs.
    """

    def __init__(self, gearbox: GearboxConfig, layout: MassLayout,
                 sides: Sequence[SideAssembly], contact_lever: float,
                 program: ActuationProgram,
                 composition_law: CompositionLaw = CompositionLaw.ALL_SERIES,
                 initial_roll: float = 0.0) -> None:
        if len(sides) != 4:
            raise ValueError(f"need 4 sides, got {len(sides)}")
        if not (math.isfinite(contact_lever) and contact_lever >= 0):
            raise ValueError(f"contact lever must be finite and >= 0, "
                             f"got {contact_lever}")
        self.gearbox = gearbox
        self.layout = layout
        self.sides = tuple(sides)
        self.contact_lever = contact_lever
        self.program = program
        self.law = composition_law
        self.initial_roll = initial_roll
        self.cable_stiffnesses = tuple(
            cable_series_stiffness(side, composition_law) for side in sides)
        # mm of contraction per second of engaged winding at each corner
        base = gearbox.spool_radius * gearbox.spool_per_driver \
            * program.motor_speed / gearbox.worm_teeth
        sched = program.schedule
        # a cyclic schedule's take-up is all 1.0, and base * 1.0 == base
        self._rates = tuple(base * s / side.routing_gain
                            for s, side in zip(sched.take_up, self.sides))
        # seconds of one window of the gearbox ``_engagement`` walks; a
        # stopped motor never leaves window 0
        self._window_s = gearbox.engagement_window_motor \
            / program.motor_speed if program.motor_speed else math.inf
        # corners a fixed spindle always winds; None on the cyclic drive
        self._spindle_corners: Optional[Tuple[int, ...]] = None
        if sched.mode is ScheduleMode.FIXED_SPINDLE:
            self._spindle_corners = tuple(
                c for c in range(1, 5) if sched.take_up[c - 1] > 0)

    # -- state helpers ----------------------------------------------------

    def initial_state(self) -> BodyState:
        return BodyState.from_contractions(
            self.layout, (0.0, 0.0, 0.0, 0.0), roll_angle=self.initial_roll)

    def _with_contractions(self, state: BodyState, contractions: Sequence[float],
                           time: float) -> BodyState:
        contractions = tuple(contractions)
        return BodyState(roll_angle=state.roll_angle,
                         support_radius=state.support_radius,
                         contractions=contractions,
                         radii=radii(self.layout, contractions), time=time)

    def _engagement(self, time: float) -> Tuple[Tuple[int, ...], float]:
        """Corners engaged at ``time``, and the time the engagement changes.

        Cyclic window ``w`` opens at ``gearbox.window_start(w) * worm_teeth
        / motor_speed``, the time the engine stops at, so a state at that
        time is in window ``w`` and a state one ulp earlier is not.  A
        stopped motor stays in window 0.
        """
        if self._spindle_corners is not None:
            return self._spindle_corners, math.inf
        sched = self.program.schedule
        speed = self.program.motor_speed
        if speed == 0:
            return (sched.window_corner(0),), math.inf
        teeth = self.gearbox.worm_teeth
        start = self.gearbox.window_start
        # the driver angle of ``time`` rounds apart from the opening times
        window = self.gearbox.window_at(speed * time / teeth)
        while start(window) * teeth / speed > time:
            window -= 1
        while (next_opens := start(window + 1) * teeth / speed) <= time:
            window += 1
        return (sched.window_corner(window),), next_opens

    def _advanced(self, state: BodyState, engaged: Sequence[int],
                  time: float) -> BodyState:
        """The state at ``time`` assuming no events inside the interval."""
        dt = time - state.time
        u = list(state.contractions)
        cap = self.program.max_contraction
        for corner in engaged:
            value = u[corner - 1] + self._rates[corner - 1] * dt
            if cap is not None:
                value = min(value, cap)
            u[corner - 1] = value
        return self._with_contractions(state, u, time)

    def _released_contraction(self, contraction: float) -> float:
        """Contraction retained after the cable goes slack at disengagement."""
        if self.program.release_model is ReleaseModel.INSTANT_RETURN:
            return 0.0
        if contraction <= 0:
            return 0.0
        joint = default_joint_model(JointFamily.FOLDING_24MM)
        theta = contraction * _BEND_PER_CONTRACTION
        theta = min(max(theta, joint.valid_range[0]), joint.valid_range[1])
        if theta <= 0:
            return 0.0
        recovered = return_angle(joint, theta) / theta
        return contraction * (1.0 - recovered)

    @property
    def windows(self) -> float:
        """Engagement windows the program opens; a spindle opens none."""
        if self._spindle_corners is not None:
            return 0.0
        return self.program.duration / self._window_s

    def strokes(self) -> Iterator[Tuple[int, float]]:
        """``(corner, reach)`` of every stroke: the contraction it reaches,
        stopped at the saturation cap.

        A spindle winds each corner for the whole program.  The cyclic
        drive winds one corner per window of one constant length, the last
        cut short, and the corner carries what the release leaves into its
        next window.  The walk ends once a cycle of four windows leaves the
        carried contractions unchanged, as every later window repeats a
        reach.  A walk over ``_engagement``'s window times, which round
        apart by ulps, would never repeat.
        """
        duration = self.program.duration
        cap = self.program.max_contraction or math.inf   # a cap is > 0
        if self._spindle_corners is not None:
            for corner, rate in enumerate(self._rates, 1):
                yield corner, min(rate * duration, cap)
            return
        carried = [0.0] * 4
        cycle_start = None
        for window in range(math.ceil(self.windows)):
            if window % 4 == 0:
                if carried == cycle_start:
                    return
                cycle_start = list(carried)
            corner = self.program.schedule.window_corner(window)
            wound = min(self._window_s, duration - window * self._window_s)
            reach = min(carried[corner - 1]
                        + self._rates[corner - 1] * wound, cap)
            yield corner, reach
            carried[corner - 1] = self._released_contraction(reach)

    # -- event machinery ---------------------------------------------------

    def _tip_check(self, state: BodyState) -> TippingReport:
        return tipping_check(self.layout, state, self.contact_lever)

    def detect_stall(self, state: BodyState) -> Optional[SimEvent]:
        """Tripod-lock check: engaged set fully saturated and still stable.

        Only a non-releasing (fixed-spindle) schedule can freeze the shape
        permanently; the cyclic drive releases at the window boundary and
        carries on, so it never stalls here.
        """
        cap = self.program.max_contraction
        engaged = self._spindle_corners
        if not engaged or cap is None:
            return None
        if any(state.contractions[c - 1] < cap for c in engaged):
            return None
        if self._tip_check(state).tipping:
            return None
        return SimEvent(EventKind.STALL, state.time, state)

    def _tip_time(self, state: BodyState, engaged: Sequence[int],
                  t_hi: float, report: TippingReport) -> float:
        """First float in ``(state.time, t_hi]`` at which the state tips.

        ``state`` is stable and tips with ``report`` once advanced to
        ``t_hi``.  Between events the contractions grow linearly, so the
        COM x offset is affine in time: the line through its values at
        the two ends meets ``report.limit`` at the estimate.
        From there, steps that double from one ulp and then halvings close
        in on the engine's own predicate (floats near time zero are too
        dense to step through one at a time), so the float before the
        result does not tip.
        """
        t0 = state.time
        com0 = self._tip_check(state).com_offset_x
        t = t0 + (t_hi - t0) * (report.limit - com0) \
            / (report.com_offset_x - com0)
        t = min(max(t, math.nextafter(t0, math.inf)),
                math.nextafter(t_hi, -math.inf))
        # lo stays stable and hi tipping; halve once a step overshoots
        lo, hi, step = t0, t_hi, math.ulp(t)
        while lo < t < hi:
            if self._tip_check(self._advanced(state, engaged, t)).tipping:
                hi, t = t, t - step
            else:
                lo, t = t, t + step
            step *= 2
            if not lo < t < hi:
                t = lo + (hi - lo) / 2
        return hi

    def resolve_tips(self, state: BodyState,
                     events: List[SimEvent]) -> BodyState:
        """Execute rolls until the state is stable again, appending each
        tip and roll to ``events``; ``run`` and ``timeline`` start here.

        After 8 rolls the ``SimulationError`` names the time and, for the
        last two tips, the roll angle, the direction and the margin.
        """
        tips = []
        for _ in range(8):
            report = self._tip_check(state)
            if not report.tipping:
                return state
            tips.append((state.roll_angle, report))
            events.append(SimEvent(EventKind.TIP, state.time, state,
                                   direction=report.direction))
            state = execute_roll(state, report.direction,
                                 self.program.roll_quantum)
            events.append(SimEvent(EventKind.ROLL_COMPLETE, state.time,
                                   state, direction=report.direction))
        last = []
        for phi, report in tips[-2:]:
            last.append(f"phi = {math.degrees(phi):g} deg "
                        f"({'+' if report.direction > 0 else '-'}, "
                        f"margin {report.margin:.3g} mm)")
        raise SimulationError(
            f"state keeps tipping after 8 consecutive rolls at "
            f"t = {state.time:.3f} s; last tips at {' and '.join(last)}")

    def step(self, state: BodyState, dt: float) -> Tuple[BodyState, List[SimEvent]]:
        """Advance one time step, emitting the events crossed inside it."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self._check_finite(state)
        t_end = state.time + dt
        events: List[SimEvent] = []
        state = self.resolve_tips(state, events)
        return self._advance(state, t_end, events), events

    @staticmethod
    def _check_finite(state: BodyState) -> None:
        if any(not math.isfinite(u) for u in state.contractions):
            raise SimulationError("non-finite contraction in state")

    def _advance(self, state: BodyState, t_end: float,
                 events: List[SimEvent]) -> BodyState:
        """Advance a tip-stable state to ``t_end``, appending the events crossed.

        A tip happens at the first float at which the tipping predicate
        holds (``_tip_time``).  Returns the final state, tip-checked and
        stable (a stall is stable too).
        """
        cap = self.program.max_contraction
        while state.time < t_end:
            t0 = state.time
            engaged, boundary = self._engagement(t0)
            t_sat = math.inf
            sat_corner = None
            if cap is not None:
                for corner in engaged:
                    rate = self._rates[corner - 1]
                    head = cap - state.contractions[corner - 1]
                    if rate > 0 and head > 0:
                        t_cross = t0 + head / rate
                        if t_cross < t_sat:
                            t_sat, sat_corner = t_cross, corner
            t_stop = min(t_end, boundary, t_sat)

            probe = self._advanced(state, engaged, t_stop)
            report = self._tip_check(probe)
            recheck = False
            if report.tipping:
                t_tip = self._tip_time(state, engaged, t_stop, report)
                state = self._advanced(state, engaged, t_tip)
                state = self.resolve_tips(state, events)
                if t_tip < boundary:
                    continue
            else:
                state = probe
                if t_stop == t_sat and sat_corner is not None:
                    u = list(state.contractions)
                    u[sat_corner - 1] = cap
                    state = self._with_contractions(state, u, state.time)
                    events.append(SimEvent(
                        EventKind.SATURATION, state.time, state,
                        corner=sat_corner))
                    stall = self.detect_stall(state)
                    if stall is not None:
                        events.append(stall)
                        return state
                    recheck = True
            if t_stop == boundary and boundary < math.inf:
                # a tip may land on the boundary too; the window closes anyway
                old_corner = engaged[0]
                u = list(state.contractions)
                u[old_corner - 1] = self._released_contraction(u[old_corner - 1])
                state = self._with_contractions(state, u, state.time)
                events.append(SimEvent(EventKind.ENGAGEMENT_END, state.time,
                                       state, corner=old_corner))
                events.append(SimEvent(
                    EventKind.ENGAGEMENT_START, state.time, state,
                    corner=self._engagement(state.time)[0][0]))
                recheck = True
            if recheck:
                # a clamp or a release can shift the COM; re-check stability
                state = self.resolve_tips(state, events)
        return state

    # -- full run -----------------------------------------------------------

    def _start(self) -> Tuple[SimTrace, BodyState]:
        """The ``initial_state()``, and a trace opened with its engagements."""
        state = self.initial_state()
        trace = SimTrace(events=[
            SimEvent(EventKind.ENGAGEMENT_START, state.time, state,
                     corner=corner)
            for corner in self._engagement(state.time)[0]])
        return trace, state

    @staticmethod
    def _finish(trace: SimTrace, start: BodyState,
                state: BodyState) -> SimTrace:
        trace.final_state = state
        trace.travel_mm = state.support_radius * (state.roll_angle -
                                                  start.roll_angle)
        return trace

    def timeline(self) -> SimTrace:
        """Events and summary of the whole program, with no sampled records.

        The run starts at ``initial_state()``.  ``step`` already walks every
        window boundary, saturation and tip inside an interval, so one step
        over the program duration finds the rolls, travel and stall that
        ``run`` reports from its ``dt`` grid, at a cost set by the number of
        events.
        """
        trace, start = self._start()
        state = start
        if self.program.duration > 0:
            state, events = self.step(start, self.program.duration)
            trace.absorb(events)
        return self._finish(trace, start, state)

    def run(self, dt: float = 1e-3) -> SimTrace:
        """Run the whole program from ``initial_state()``: a deterministic trace.

        Equal to a fold of ``step`` over the ``dt`` grid, without the
        repeated tip check at each step's start: every state an advance
        returns is already stable.  From each stable state, ``_sample``
        evaluates the following grid steps at once and keeps the quiet
        ones; the first step that is not quiet goes through ``_advance``.
        """
        import numpy as np
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        duration = self.program.duration
        if duration / dt > MAX_TRACE_STEPS:
            raise ValueError(
                f"a {duration:g} s run at dt {dt:g} s takes "
                f"{duration / dt:.3g} steps, more than {MAX_TRACE_STEPS}")
        trace, start = self._start()
        blocks: List[np.ndarray] = []

        def record(st: BodyState, event: str = "") -> None:
            blocks.append(self._columns(st, np.array([st.time]),
                                        np.array([st.contractions]),
                                        trace.events))
            trace.tokens.append(event)

        def absorb(events: List[SimEvent]) -> bool:
            first = len(trace.events)
            stalled = trace.absorb(events)
            for event in trace.events[first:]:
                record(event.state, event.token())
            return stalled

        for event in trace.events:
            record(start, event.token())
        record(start)

        state = start
        if duration > 0:
            events: List[SimEvent] = []
            state = self.resolve_tips(start, events)
            absorb(events)
        # step k ends at min(k * dt, duration): a step to each k * dt short
        # of the duration, and ``last``, the first that reaches it; no k * dt
        # past it is computed, as 2 * 1e308 overflows
        last = math.ceil(duration / dt)
        if (last - 1) * dt >= duration:
            last -= 1
        elif last * dt < duration:
            last += 1
        k = 0
        while state.time < duration:
            stop = min(k + _SAMPLE_STEPS, last - 1)
            grid = np.arange(k + 1, stop + 1) * dt
            if stop < k + _SAMPLE_STEPS:
                grid = np.append(grid, duration)
            times, u = self._sample(state, grid)
            if len(times):
                blocks.append(self._columns(state, times, u, trace.events))
                trace.tokens.extend([""] * len(times))
                state = self._with_contractions(state, u[-1].tolist(),
                                                float(times[-1]))
                k += len(times)
                if len(times) == len(grid):
                    continue
            events = []
            state = self._advance(state, min((k + 1) * dt, duration), events)
            if absorb(events):
                break
            record(state)
            k += 1
        trace.columns = np.concatenate(blocks)
        return self._finish(trace, start, state)

    def _sample(self, state: BodyState, grid: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Times and contractions of the quiet grid steps after ``state``.

        ``state`` is stable; step ``k`` ends at ``grid[k]``.  A step is
        quiet if ``_advance`` would finish it in one pass: it ends before
        the window boundary and before every saturation, with every radius
        positive, on a state that does not tip.  The steps are evaluated
        with ``_advance``'s arithmetic in its order, so the quiet prefix
        returned equals ``_advance``'s states float for float.
        """
        import numpy as np
        engaged, boundary = self._engagement(state.time)
        starts = np.concatenate(([state.time], grid[:-1]))
        # leave to _advance the steps from the first that could wind a
        # corner past the widest rest radius (only a corner at its cap stays
        # quiet there), so every winding and running sum below stays finite
        # where a 1e308 s step at 7 mm/s would not
        fastest = max((self._rates[c - 1] for c in engaged), default=0.0)
        reach = max(self.layout.rest_radii) / fastest if fastest else math.inf
        n = int(np.argmax(np.append(grid - starts >= reach, True)))
        if n == 0:
            return grid[:0], np.empty((0, 4))
        grid, starts = grid[:n], starts[:n]
        quiet = grid < boundary
        u = np.tile(state.contractions, (len(grid), 1))
        cap = self.program.max_contraction
        for corner in engaged:
            rate = self._rates[corner - 1]
            column = rate * (grid - starts)
            column[0] += state.contractions[corner - 1]
            column = np.cumsum(column)
            if cap is not None:
                # _advanced clamps every step; the sum never decreases, so
                # clamping the running sum gives the same contractions
                column = np.minimum(column, cap)
                head = cap - np.concatenate(
                    ([state.contractions[corner - 1]], column[:-1]))
                if rate > 0 and float(starts[-1]) + cap / rate < math.inf:
                    # no head exceeds the cap, so no crossing time overflows
                    quiet &= (head <= 0) | (grid < starts + head / rate)
                elif rate > 0:
                    # so slow a rate (a 1e-310 take-up) that the crossing
                    # passes the largest float: Python rounds it to inf with
                    # no warning, as _advance does
                    quiet &= [h <= 0 or g < s + h / rate for g, s, h in zip(
                        grid.tolist(), starts.tolist(), head.tolist())]
            u[:, corner - 1] = column
        # radii raises RadiusInversionError there; leave that to _advance
        quiet &= (u < self.layout.rest_radii).all(axis=1)
        dbx, dby = mass_offset_xy(self.layout, (self.layout.rest_radii - u).T)
        phi = state.roll_angle
        c, s = unit(phi)
        report = TippingReport(c * dbx - s * dby,
                               *ground_pivots(self.layout, phi),
                               self.contact_lever)
        quiet &= report.direction == 0
        n = len(grid) if quiet.all() else int(np.argmin(quiet))
        return grid[:n], u[:n]

    def _columns(self, state: BodyState, times: np.ndarray, u: np.ndarray,
                 events: Sequence[SimEvent]) -> np.ndarray:
        """Trace columns of states with ``state``'s roll angle.

        Row ``k`` holds the state at ``times[k]`` with contractions
        ``u[k]``, computed as ``world_com`` does, with the ring-down of
        every roll in ``events`` (the run so far, from ``initial_state()``)
        added to the roll angle.  Rolls are added oldest first, so the
        rolls that ended ``settled_after`` or longer before the first row
        leave the angle as it is, and are skipped.
        """
        import numpy as np
        program = self.program
        # the block's largest motor angle, in Python floats: numpy's
        # multiply would write inf with a warning
        last = float(times[-1])
        if not math.isfinite(program.motor_speed * last):
            raise SimulationError(
                f"the motor angle at t = {last:g} s passes the largest float")
        phi = state.roll_angle
        c, s = unit(phi)
        dbx, dby = mass_offset_xy(self.layout, (self.layout.rest_radii - u).T)
        roll = np.full(len(times), phi)
        settled = program.damping.settled_after(phi)
        first = float(times.min())
        for event in events:
            # an event row recorded before a roll of its own batch gets that
            # roll's overlay at dt <= 0, which is exactly 0.0; adding it keeps
            # the angle, or turns -0.0 into 0.0, and both print as zero
            if event.kind is EventKind.ROLL_COMPLETE \
                    and first - event.time < settled:
                roll += event.direction * program.damping.overlay(
                    times - event.time)
        gains = [side.routing_gain for side in self.sides]
        return np.column_stack((
            times, program.motor_speed * times, roll,
            state.support_radius * phi + c * dbx - s * dby, s * dbx + c * dby,
            np.multiply(gains, u), np.multiply(self.cable_stiffnesses, u)))
