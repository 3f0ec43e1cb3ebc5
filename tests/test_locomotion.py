"""Event-driven rolling engine: tipping, rolls, stall, traces."""

import dataclasses
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geogami.compliance import SideAssembly
from geogami.config import load_preset
from geogami.kinematics import (BodyState, MassLayout, RadiusInversionError,
                                body_mass_offset, radii, world_com)
from geogami.locomotion import (ActuationProgram, DampingParams, EventKind,
                                ReleaseModel, SimTrace, Simulator,
                                SupportPolygon, TRACE_CSV_HEADER, TraceRecord,
                                execute_roll, tipping_check)
from geogami.transmission import EngagementSchedule

CONFIG = load_preset("paper-table1")
LAYOUT = CONFIG.build_layout()
POLYGON = CONFIG.build_polygon()
WINDOW_S = 2 * math.pi * 43 / 30.0  # one engagement window at 30 rad/s


def simulator(duration=None, mode=None, origami=None, **program_overrides):
    config = CONFIG
    if duration is not None:
        config = dataclasses.replace(
            config, program=dataclasses.replace(config.program,
                                                duration_s=duration))
    sim = config.build_simulator(mode=mode, origami=origami)
    if program_overrides:
        program = dataclasses.replace(sim.program, **program_overrides)
        sim = Simulator(sim.gearbox, sim.layout, sim.sides, sim.polygon,
                        program, sim.law, sim.initial_roll)
    return sim


def events_of(trace, kind):
    return [e for e in trace.events if e.kind is kind]


@functools.lru_cache(maxsize=None)
def cached_run(mode=None):
    return simulator(mode=mode).run()


class TestTippingCheck:
    def test_symmetric_state_is_stable(self):
        report = tipping_check(LAYOUT, BodyState.at_rest(LAYOUT), POLYGON)
        assert not report.tipping
        assert report.direction == 0

    def test_com_exactly_over_pivot_is_stable(self):
        # strict inequality: masses on the horizontal pair only make the
        # offset exactly zero, and the hand-built polygon pivot sits at x = 0
        layout = MassLayout(central_mass=0.1,
                            corner_masses=(0.0, 0.3, 0.0, 0.3))
        bare = SupportPolygon(vertices=((50.0, 0.0), (0.0, 50.0),
                                        (-50.0, 0.0), (0.0, -50.0)),
                              contact_lever=0.0)
        report = tipping_check(layout, BodyState.at_rest(layout), bare)
        assert not report.tipping
        assert report.com_offset_x == 0.0
        assert report.forward_pivot_x == 0.0

    def test_left_contraction_tips_right_with_brute_force_oracle(self):
        # oracle: dense sweep comparing the COM x against the pivot x computed
        # from first principles, independent of the engine predicate
        lever = POLYGON.contact_lever
        first_cross = None
        for u4 in np.linspace(0.0, 25.0, 2501):
            r = radii(LAYOUT, (0, 0, 0, u4))
            com_x = body_mass_offset(LAYOUT, r)[0]  # phi = 0
            pivot_x = 0.0  # bottom link endpoint sits under the center
            if com_x > pivot_x + lever:
                first_cross = u4
                break
        assert first_cross is not None
        below = BodyState.from_contractions(LAYOUT, (0, 0, 0, first_cross - 0.02))
        above = BodyState.from_contractions(LAYOUT, (0, 0, 0, first_cross))
        assert not tipping_check(LAYOUT, below, POLYGON).tipping
        report = tipping_check(LAYOUT, above, POLYGON)
        assert report.tipping and report.direction == 1

    def test_right_contraction_tips_backward(self):
        state = BodyState.from_contractions(LAYOUT, (0, 0, 25.0, 0),
                                            roll_angle=math.pi / 2)
        # at phi = pi/2 the corner-3 contraction pulls the COM backward
        report = tipping_check(LAYOUT, state, POLYGON)
        assert report.tipping and report.direction == -1

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            SupportPolygon(vertices=((1.0, 0.0), (-1.0, 0.0)))
        with pytest.raises(ValueError, match="counterclockwise"):
            SupportPolygon(vertices=((0.0, 1.0), (1.0, 0.0), (-1.0, 0.0)))

    def test_report_offset_matches_world_com(self):
        # the predicate's scalar fast path must agree with the public COM ops
        rng = np.random.default_rng(13)
        for _ in range(30):
            u = tuple(rng.uniform(0, 20, size=4))
            phi = float(rng.uniform(-7, 7))
            state = BodyState.from_contractions(LAYOUT, u, roll_angle=phi)
            report = tipping_check(LAYOUT, state, POLYGON)
            expected = world_com(LAYOUT, state)[0] - state.support_radius * phi
            assert report.com_offset_x == pytest.approx(expected, abs=1e-9)


class TestExecuteRoll:
    def test_cyclic_quantum(self):
        state = BodyState.at_rest(LAYOUT)
        rolled = execute_roll(state, 1, math.pi / 2)
        assert rolled.roll_angle == pytest.approx(math.pi / 2, rel=1e-15)
        # body center advance through the no-slip coordinate
        travel = rolled.support_radius * (rolled.roll_angle - state.roll_angle)
        assert travel == pytest.approx(148.3, abs=0.05)

    def test_spindle_quantum(self):
        state = BodyState.at_rest(LAYOUT)
        rolled = execute_roll(state, 1, math.pi / 4)
        assert rolled.roll_angle == pytest.approx(math.pi / 4, rel=1e-15)

    def test_two_rolls_compose(self):
        state = BodyState.at_rest(LAYOUT)
        twice = execute_roll(execute_roll(state, 1, math.pi / 2), 1, math.pi / 2)
        assert twice.roll_angle == pytest.approx(math.pi, rel=1e-15)
        travel = twice.support_radius * twice.roll_angle
        assert travel == pytest.approx(2 * 94.4 * math.pi / 2, rel=1e-12)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            execute_roll(BodyState.at_rest(LAYOUT), 0)


class TestDetectStall:
    def test_fresh_state_no_stall(self):
        sim = simulator(mode="spindle10")
        assert sim.detect_stall(sim.initial_state()) is None

    def test_saturated_spindle_stalls(self):
        sim = simulator(mode="spindle10")
        cap = sim.program.max_contraction
        state = BodyState.from_contractions(LAYOUT, (cap,) * 4, time=12.0)
        report = sim.detect_stall(state)
        assert report is not None and report.kind is EventKind.STALL

    def test_cyclic_never_stalls_here(self):
        sim = simulator()
        state = BodyState.from_contractions(LAYOUT, (20.0, 20.0, 20.0, 20.0))
        assert sim.detect_stall(state) is None


class TestStep:
    def test_zero_motor_speed_is_inert(self):
        sim = simulator(duration=1.0, motor_speed=0.0)
        state, events = sim.step(sim.initial_state(), 0.5)
        assert events == []
        assert state.contractions == (0.0, 0.0, 0.0, 0.0)
        assert state.roll_angle == 0.0
        assert state.time == 0.5
        assert sim._engagement(1e6) == ((4,), math.inf)

    def test_dt_must_be_positive(self):
        sim = simulator()
        with pytest.raises(ValueError, match="dt"):
            sim.step(sim.initial_state(), 0.0)

    def test_step_does_not_depend_on_earlier_runs(self):
        fresh = simulator()
        expected = fresh.step(fresh.initial_state(), 12.0)
        tokens = [e.token() for e in expected[1]]
        assert "engagement_end:4" in tokens and "engagement_start:1" in tokens
        sim = simulator()
        sim.run(dt=0.1)
        assert sim.step(sim.initial_state(), 12.0) == expected
        sim.timeline()
        assert sim.step(sim.initial_state(), 12.0) == expected

    @settings(max_examples=200, deadline=None)
    @given(speed=st.floats(0.01, 1e3), arc=st.floats(0.01, 2 * math.pi),
           first=st.integers(1, 4), window=st.integers(1, 10_000))
    def test_window_opens_at_the_engine_stop_time(self, speed, arc, first,
                                                  window):
        sched = EngagementSchedule.cyclic(sector_arc=arc, first_corner=first)
        sim = simulator(motor_speed=speed, schedule=sched)
        teeth = sim.gearbox.worm_teeth

        def opens(w):
            return sched.window_start(w) * teeth / speed

        t = opens(window)
        assert sim._engagement(t) == ((sched.window_corner(window),),
                                      opens(window + 1))
        assert sim._engagement(math.nextafter(t, -math.inf)) == (
            (sched.window_corner(window - 1),), t)
        mid = 0.5 * (t + opens(window + 1))
        assert sim._engagement(mid)[0] == (
            sched.active_corner(speed * mid / teeth),)

    def test_tip_on_a_window_boundary_still_closes_the_window(self):
        # at the 7.5 mm spool the COM lead steps up at the end of the first
        # window, so a contact lever equal to the lead one ulp earlier makes
        # the body tip exactly at the boundary
        sim = simulator()
        sim = Simulator(dataclasses.replace(sim.gearbox, spool_radius=7.5),
                        LAYOUT, sim.sides, POLYGON, sim.program, sim.law)
        boundary = sim.program.schedule.window_start(1) * 43 / 30.0
        before = math.nextafter(boundary, -math.inf)
        end_of_window = BodyState.from_contractions(
            LAYOUT, (0.0, 0.0, 0.0, sim._rates[3] * before), time=before)
        report = tipping_check(LAYOUT, end_of_window, POLYGON)
        lever = report.com_offset_x - report.forward_pivot_x
        sim = Simulator(sim.gearbox, LAYOUT, sim.sides,
                        dataclasses.replace(POLYGON, contact_lever=lever),
                        sim.program, sim.law)
        state, events = sim.step(sim.initial_state(), 12.0)
        assert [(e.token(), e.time) for e in events] == [
            ("tip:+", boundary), ("roll_complete:+", boundary),
            ("engagement_end:4", boundary), ("engagement_start:1", boundary)]
        assert state.contractions[3] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(spool=st.floats(6.4, 10.0), lever=st.floats(0.5, 8.0),
           mode=st.sampled_from(("cyclic", "pyramid", "spindle5",
                                 "spindle10")))
    def test_tip_is_the_first_tipping_float(self, spool, lever, mode):
        config = dataclasses.replace(
            CONFIG, gearbox=dataclasses.replace(CONFIG.gearbox,
                                                spool_radius_mm=spool),
            support=dataclasses.replace(CONFIG.support,
                                        contact_lever_mm=lever))
        sim = config.build_simulator(mode=mode)
        events = sim.timeline().events
        for before, tip in zip(events, events[1:]):
            # a tip at the time of the event before it is not a crossing:
            # a clamp, a release or a roll left the state tipping
            if tip.kind is not EventKind.TIP or before.time == tip.time:
                continue
            engaged = sim._engagement(before.time)[0]

            def tips(t):
                return sim._tip_check(
                    sim._advanced(before.state, engaged, t)).tipping

            assert tips(tip.time)
            assert not tips(math.nextafter(tip.time, -math.inf))

    def test_tip_just_after_time_zero_is_the_first_tipping_float(self):
        # the pivot sits exactly under the start COM and the lever is 0, so
        # the body tips within femtoseconds, where floats are dense
        sim = simulator()
        start = sim.initial_state()
        com = sim._tip_check(start).com_offset_x
        polygon = SupportPolygon(tuple((com if x == 0.0 else x, y)
                                       for x, y in POLYGON.vertices))
        sim = Simulator(sim.gearbox, LAYOUT, sim.sides, polygon, sim.program,
                        sim.law)
        probe = sim._advanced(start, (4,), 1.0)
        t = sim._tip_time(start, (4,), 1.0, sim._tip_check(probe))

        def tips(t):
            return sim._tip_check(sim._advanced(start, (4,), t)).tipping

        assert 0.0 < t < 1e-12
        assert tips(t) and not tips(math.nextafter(t, -math.inf))

    def test_event_times_converge_under_dt_refinement(self):
        times = {}
        for dt in (1e-3, 1e-4):
            trace = simulator(duration=8.0).run(dt=dt)
            tips = events_of(trace, EventKind.TIP)
            assert len(tips) == 1
            times[dt] = tips[0].time
        assert abs(times[1e-3] - times[1e-4]) < 2e-3


class TestRunProgram:
    def test_zero_duration_trace_has_initial_record_only(self):
        trace = simulator(duration=0.0).run()
        data_rows = [r for r in trace.records if not r.event]
        assert len(data_rows) == 1
        assert data_rows[0].time == 0.0
        assert trace.rolls_completed == 0

    def test_retraction_reaches_quoted_length_before_disengagement(self):
        trace = simulator(duration=WINDOW_S + 0.2).run()
        end = [e for e in trace.events
               if e.kind is EventKind.ENGAGEMENT_END and e.corner == 4][0]
        peak_before_release = max(
            r.retractions[3] for r in trace.records if r.time < end.time)
        assert peak_before_release >= 25.1
        # and the release lets the corner spring back
        after = [r for r in trace.records if r.time > end.time]
        assert after[0].retractions[3] == 0.0

    def test_full_cycle_rolls_four_times_without_stall(self):
        trace = cached_run()
        assert trace.rolls_completed == 4
        assert not trace.stalled
        rolls = events_of(trace, EventKind.ROLL_COMPLETE)
        for before, after in zip(rolls, rolls[1:]):
            delta = after.state.roll_angle - before.state.roll_angle
            assert delta == pytest.approx(math.pi / 2, rel=1e-12)

    def test_event_timeline_matches_closed_form(self):
        # hand-derived oracle: contraction rate is r_s * (T_dr/T_dv) *
        # motor_speed / T_w = 120/43 mm/s, the COM crosses the 4 mm lever at
        # u* = lever * M_T / m = 20 mm, so window k tips at
        # k * (2*pi*43/30) + 20/(120/43) = k * 43*pi/15 + 43/6 seconds
        trace = cached_run()
        window = 43 * math.pi / 15
        tips = events_of(trace, EventKind.TIP)
        assert len(tips) == 4
        order = (4, 1, 2, 3)
        for k, tip in enumerate(tips):
            assert tip.time == pytest.approx(k * window + 43 / 6, abs=1e-12)
            engaged = order[k]
            assert tip.state.contractions[engaged - 1] == pytest.approx(
                20.0, abs=1e-5)
        # timeline() has no grid, so no running sum adds to the rounding
        tips = events_of(simulator().timeline(), EventKind.TIP)
        assert [tip.time for tip in tips] == pytest.approx(
            [k * window + 43 / 6 for k in range(4)], abs=1e-13)

    def test_tip_delay_is_strictly_positive(self):
        trace = simulator(duration=WINDOW_S).run()
        start = [e for e in trace.events
                 if e.kind is EventKind.ENGAGEMENT_START][0]
        tip = events_of(trace, EventKind.TIP)[0]
        assert tip.time - start.time > 1.0  # late in the stroke, not instant

    def test_roll_angle_plateaus_then_jumps(self):
        trace = simulator(duration=WINDOW_S).run()
        tip_time = events_of(trace, EventKind.TIP)[0].time
        quiet = [r for r in trace.records if 0.5 < r.time < tip_time - 0.5]
        assert all(r.roll_angle == 0.0 for r in quiet)
        final = trace.final_state.roll_angle
        assert final == pytest.approx(math.pi / 2, rel=1e-12)

    def test_monotone_actuation_within_engagement(self):
        trace = simulator(duration=WINDOW_S - 0.5).run()
        active = [r.retractions[3] for r in trace.records]
        others = [(r.retractions[0], r.retractions[1], r.retractions[2])
                  for r in trace.records]
        assert all(b >= a - 1e-12 for a, b in zip(active, active[1:]))
        assert all(o == (0.0, 0.0, 0.0) for o in others)

    def test_no_slip_travel_matches_roll_angle(self):
        trace = cached_run()
        expected = trace.final_state.support_radius * \
            trace.final_state.roll_angle
        assert trace.travel_mm == pytest.approx(expected, rel=1e-9)

    def test_deterministic_traces_are_byte_identical(self):
        def text():
            buffer = io.StringIO()
            simulator(duration=10.0).run().write_csv(buffer)
            return buffer.getvalue()

        assert text() == text()

    def test_trace_csv_header_contract(self):
        buffer = io.StringIO()
        simulator(duration=0.0).run().write_csv(buffer)
        assert buffer.getvalue().splitlines()[0] == TRACE_CSV_HEADER
        assert TRACE_CSV_HEADER.startswith(
            "t_s,theta_m_rad,phi_rad,xG_mm,yG_mm,L1_mm")

    def test_events_time_ordered_and_tips_resolved(self):
        for mode in (None, "spindle10"):
            trace = cached_run(mode)
            times = [e.time for e in trace.events]
            assert times == sorted(times)
            for k, event in enumerate(trace.events):
                if event.kind is EventKind.TIP:
                    follower = trace.events[k + 1]
                    assert follower.kind in (EventKind.ROLL_COMPLETE,
                                             EventKind.STALL)
            record_times = [r.time for r in trace.records]
            assert record_times == sorted(record_times)

    @pytest.mark.parametrize("dt", (0.0, -1.0, math.nan, math.inf))
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            simulator(duration=1.0).run(dt=dt)


class TestTimeline:
    @settings(max_examples=3, deadline=None)
    @given(spool=st.floats(5.0, 10.0),
           mode=st.sampled_from(("cyclic", "spindle10")))
    @example(spool=6.35, mode="cyclic")   # just below the tip threshold
    @example(spool=6.40, mode="cyclic")   # just above it
    def test_matches_fine_dt_run(self, spool, mode):
        config = dataclasses.replace(CONFIG, gearbox=dataclasses.replace(
            CONFIG.gearbox, spool_radius_mm=spool))
        sim = config.build_simulator(mode=mode)
        fast = sim.timeline()
        fine = sim.run(dt=1e-3)
        assert len(fast.records) == 0
        assert (fast.rolls_completed, fast.travel_mm, fast.stalled) == \
            (fine.rolls_completed, fine.travel_mm, fine.stalled)
        if mode == "cyclic":
            # spindle10 saturates two corners at one instant, and whether
            # the engine emits the second depends on dt
            assert [e.token() for e in fast.events] == \
                [e.token() for e in fine.events]

    def test_zero_duration_has_initial_engagements_only(self):
        trace = simulator(duration=0.0).timeline()
        assert [e.token() for e in trace.events] == ["engagement_start:4"]
        assert trace.travel_mm == 0.0 and not trace.stalled


class TestSpindleModes:
    def test_spindle10_saturates_then_stalls_without_rolling(self):
        trace = cached_run("spindle10")
        assert trace.stalled
        assert trace.rolls_completed == 0
        saturations = events_of(trace, EventKind.SATURATION)
        assert {e.corner for e in saturations} == {1, 2, 3, 4}
        stall = events_of(trace, EventKind.STALL)
        assert len(stall) == 1
        assert stall[0].time >= max(e.time for e in saturations)

    def test_saturation_stall_dichotomy(self):
        trace = cached_run("spindle10")
        kinds = [e.kind for e in trace.events]
        last_saturation = max(i for i, k in enumerate(kinds)
                              if k is EventKind.SATURATION)
        followers = [k for k in kinds[last_saturation + 1:]
                     if k in (EventKind.TIP, EventKind.STALL)]
        assert followers == [EventKind.STALL]

    def test_pyramid_profile_stalls_at_saturation(self):
        trace = simulator(mode="pyramid").run()
        assert trace.stalled
        assert trace.rolls_completed == 0

    def test_spindle_contractions_track_take_up_profile(self):
        trace = simulator(mode="spindle10", duration=4.0).run()
        final = trace.final_state.contractions
        profile = CONFIG.program.spindle_profiles["spindle10"]
        ratios = [u / s for u, s in zip(final, profile)]
        assert max(ratios) - min(ratios) < 1e-9


class TestReleaseModels:
    def test_instant_return_resets_contraction(self):
        trace = simulator(duration=WINDOW_S + 0.5).run()
        end = [e for e in trace.events
               if e.kind is EventKind.ENGAGEMENT_END][0]
        assert end.state.contractions[3] == 0.0

    def test_return_angle_limited_leaves_residual(self):
        sim = simulator(duration=WINDOW_S + 0.5,
                        release_model=ReleaseModel.RETURN_ANGLE_LIMITED)
        trace = sim.run()
        end = [e for e in trace.events
               if e.kind is EventKind.ENGAGEMENT_END][0]
        # at the boundary the corner holds one full window of retraction,
        # r_s * 2*pi * T_dr/T_dv = 8*pi mm; the linear return model keeps
        # u * (1 - theta_r/theta) = u * (1 - 0.165) of it
        before = 8 * math.pi
        residual = end.state.contractions[3]
        assert residual == pytest.approx(before * (1 - 0.165), rel=1e-9)
        assert 0.0 < residual < before


class TestOscillationOverlay:
    def test_overlay_decays_back_to_quantized_angle(self):
        trace = simulator(duration=WINDOW_S).run()
        tail = [r for r in trace.records if r.time > trace.records[-1].time - 0.2]
        for record in tail:
            assert record.roll_angle == pytest.approx(math.pi / 2, abs=5e-3)

    def test_origami_damping_reduces_overshoot(self):
        def overshoot(origami):
            trace = simulator(duration=WINDOW_S, origami=origami).run()
            tip_time = events_of(trace, EventKind.TIP)[0].time
            post = [r.roll_angle - math.pi / 2 for r in trace.records
                    if r.time > tip_time]
            return max(post)

        assert overshoot(True) < overshoot(False)

    def test_damping_params_validated(self):
        with pytest.raises(ValueError, match="damping ratio"):
            DampingParams(damping_ratio=1.5)


class TestProgramValidation:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="winding positive"):
            ActuationProgram(motor_speed=-1.0, duration=1.0,
                             schedule=EngagementSchedule.constant())

    @pytest.mark.parametrize("field, value", [
        ("duration", math.nan), ("duration", math.inf), ("duration", -1.0),
        ("motor_speed", math.nan), ("motor_speed", math.inf)])
    def test_non_finite_or_negative_rejected(self, field, value):
        values = {"motor_speed": 1.0, "duration": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            ActuationProgram(schedule=EngagementSchedule.constant(), **values)

    def test_roll_quantum_by_mode(self):
        cyclic = ActuationProgram(
            motor_speed=1.0, duration=1.0,
            schedule=EngagementSchedule.cyclic(sector_arc=1.0))
        spindle = ActuationProgram(
            motor_speed=1.0, duration=1.0,
            schedule=EngagementSchedule.spindle((1, 1, 1, 1)))
        assert cyclic.roll_quantum == math.pi / 2
        assert spindle.roll_quantum == math.pi / 4

    def test_simulator_needs_four_sides(self):
        with pytest.raises(ValueError, match="4 side"):
            Simulator(CONFIG.build_gearbox(), LAYOUT,
                      [SideAssembly()] * 3, POLYGON,
                      CONFIG.build_program())


def old_fmt(value, digits):
    """The trace writer's former per-field formatter, kept as the oracle."""
    return f"{round(value, digits) + 0.0:.{digits}f}"


class TestTraceCsvFormat:
    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(-1e4, 1e4))
    @example(value=0.0)
    @example(value=-0.0)
    @example(value=-4e-7)
    @example(value=-5e-7)
    @example(value=-4e-10)
    @example(value=0.0000005)
    @example(value=-0.0000005)
    @example(value=0.0000015)
    @example(value=0.0000000005)
    @example(value=-0.0000000015)
    @example(value=2.5)
    # the float neighbours of the half-unit of each column's last decimal
    @example(value=math.nextafter(5e-7, 0.0))
    @example(value=math.nextafter(5e-7, 1.0))
    @example(value=math.nextafter(-5e-7, 0.0))
    @example(value=math.nextafter(-5e-7, -1.0))
    @example(value=math.nextafter(5e-10, 0.0))
    @example(value=math.nextafter(5e-10, 1.0))
    @example(value=math.nextafter(-5e-10, 0.0))
    @example(value=math.nextafter(-5e-10, -1.0))
    @example(value=math.nan)
    @example(value=math.inf)
    @example(value=-math.inf)
    def test_row_matches_per_field_rounding(self, value):
        trace = SimTrace(columns=np.full((1, 13), value), tokens=["tip:-"])
        buffer = io.StringIO()
        trace.write_csv(buffer)
        digits = (9, 6, 9) + (6,) * 10
        expected = ",".join(old_fmt(value, d) for d in digits) + ",tip:-\n"
        assert buffer.getvalue() == TRACE_CSV_HEADER + "\n" + expected


def step_fold(sim, dt, start=None):
    """A plain fold of public ``step`` over ``run``'s dt grid.

    Returns the events and the state after each step, up to the step that
    stalls.
    """
    state = start or sim.initial_state()
    t0 = state.time
    duration = sim.program.duration
    events, states = [], []
    for k in range(int(math.ceil(duration / dt - 1e-12))):
        t_next = t0 + min((k + 1) * dt, duration)
        state, new = sim.step(state, t_next - state.time)
        events.extend(new)
        states.append(state)
        if any(e.kind is EventKind.STALL for e in new):
            break
    return events, states


def assert_run_is_step_fold(trace, sim, dt):
    events, states = step_fold(sim, dt)
    opening = trace.events[:len(trace.events) - len(events)]
    assert opening and all(e.kind is EventKind.ENGAGEMENT_START
                           and e.time == 0.0 for e in opening)
    assert trace.events[len(opening):] == events
    assert trace.final_state == states[-1]


def overlay_at(damping, dt_since_roll):
    """The former scalar ring-down, kept as the oracle of the sampled one."""
    if dt_since_roll <= 0 or damping.amplitude_rad == 0:
        return 0.0
    omega = 2 * math.pi * damping.frequency_hz
    zeta = damping.damping_ratio
    omega_d = omega * math.sqrt(max(1 - zeta * zeta, 0.0))
    return damping.amplitude_rad * math.exp(-zeta * omega * dt_since_roll) \
        * math.sin(omega_d * dt_since_roll)


def record_of(sim, state, rolls):
    """A state's trace record from public scalar operations.

    ``rolls`` are the roll_complete events; a roll after the state adds a
    ring-down of zero.
    """
    phi = state.roll_angle
    for roll in rolls:
        phi += roll.direction * overlay_at(sim.program.damping,
                                           state.time - roll.time)
    com_x, com_y = world_com(sim.layout, state).tolist()
    u = state.contractions
    return TraceRecord(
        state.time, sim.program.motor_speed * state.time, phi, com_x, com_y,
        tuple(side.routing_gain * x for side, x in zip(sim.sides, u)),
        tuple(k * x for k, x in zip(sim.cable_stiffnesses, u)), "")


def assert_grid_records_are_step_fold(sim, dt, start=None):
    trace = sim.run(dt=dt, initial_state=start)
    events, states = step_fold(sim, dt, start)
    if trace.stalled:
        states.pop()  # run stops at the stall without a grid record
    rolls = [e for e in events if e.kind is EventKind.ROLL_COMPLETE]
    grid_records = [r for r in trace.records if not r.event][1:]
    assert grid_records == [record_of(sim, s, rolls) for s in states]


class TestRunMatchesStepFold:
    @pytest.mark.parametrize("mode", ("cyclic", "pyramid", "spindle10"))
    @pytest.mark.parametrize("dt", (1e-3, 1e-2))
    def test_events_and_final_state(self, mode, dt):
        assert_run_is_step_fold(simulator(mode=mode).run(dt=dt),
                                simulator(mode=mode), dt)

    @settings(max_examples=12, deadline=None)
    @given(spool=st.floats(5.0, 10.0),
           dt=st.sampled_from((1e-3, 3e-3, 1e-2, 0.25)),
           mode=st.sampled_from(("cyclic", "pyramid", "spindle10")))
    def test_grid_records_equal_step_fold_records(self, spool, dt, mode):
        # 15 s holds a tip, a window boundary or saturations for most spools
        config = dataclasses.replace(
            CONFIG,
            gearbox=dataclasses.replace(CONFIG.gearbox, spool_radius_mm=spool),
            program=dataclasses.replace(CONFIG.program, duration_s=15.0))
        assert_grid_records_are_step_fold(config.build_simulator(mode=mode),
                                          dt)

    def test_grid_point_on_a_window_boundary(self):
        # a 1 rad sector at 10.75 rad/s through T_w = 43 opens a window
        # every 4 s, on the 0.25 s grid
        sim = simulator(duration=10.0, motor_speed=10.75,
                        schedule=EngagementSchedule.cyclic(sector_arc=1.0))
        trace = sim.run(dt=0.25)
        assert [(e.token(), e.time) for e in trace.events[1:]] == [
            ("engagement_end:4", 4.0), ("engagement_start:1", 4.0),
            ("engagement_end:1", 8.0), ("engagement_start:2", 8.0)]
        assert_grid_records_are_step_fold(sim, 0.25)

    def test_grid_records_from_a_negative_start_time(self):
        # a step ends at state.time + (t_k - state.time); where the grid
        # crosses zero that sum can miss t_k, and the next step starts there
        sim = simulator(duration=1.0)
        start = dataclasses.replace(sim.initial_state(),
                                    time=-7.80774640475351e-05)
        assert_grid_records_are_step_fold(sim, 1e-3, start)

    def test_stroke_reaching_the_rest_radius_raises(self):
        # four equal take-ups keep the COM centred, so nothing tips, and
        # with no cap the 94.4 mm rest radius is reached after 33.8 s
        sim = simulator(duration=40.0, max_contraction=None,
                        schedule=EngagementSchedule.spindle((1, 1, 1, 1)))
        with pytest.raises(RadiusInversionError,
                           match="reaches rest radius") as from_run:
            sim.run(dt=1e-2)
        with pytest.raises(RadiusInversionError) as from_fold:
            step_fold(sim, 1e-2)
        assert str(from_run.value) == str(from_fold.value)

    def test_grid_point_on_a_saturation_instant(self, monkeypatch):
        # 43 rad/s through T_w = 43 and T_dr/T_dv = 1/2 onto an 8 mm spool
        # winds 4 mm/s, so the pyramid take-ups (1, 0.75, 0.5, 0.25) reach
        # the 25 mm cap at 6.25, 8.33.., 12.5 and 25 s; all but 8.33.. lie
        # on the 0.25 s grid, and each of those steps ends on the clamp
        config = dataclasses.replace(CONFIG, program=dataclasses.replace(
            CONFIG.program, motor_speed_rad_s=43.0, duration_s=30.0,
            spindle_max_contraction_mm=25.0))
        config.validate()
        entry_checks = []
        resolve = Simulator._resolve_tips

        def recording(self, state, events):
            entry_checks.append(state.time)
            return resolve(self, state, events)

        monkeypatch.setattr(Simulator, "_resolve_tips", recording)
        trace = config.build_simulator(mode="pyramid").run(dt=0.25)
        assert [(e.token(), e.time) for e in trace.events[4:]] == [
            ("saturation:1", 6.25), ("saturation:2", 8.0 + 1.0 / 3.0),
            ("saturation:3", 12.5), ("saturation:4", 25.0), ("stall", 25.0)]
        # the start, then every clamp that does not stall
        assert entry_checks == [0.0, 6.25, 8.0 + 1.0 / 3.0, 12.5]
        monkeypatch.undo()
        assert_run_is_step_fold(trace, config.build_simulator(mode="pyramid"),
                                0.25)

    def test_step_resolves_a_tipping_start_state(self):
        sim = simulator()
        state = BodyState.from_contractions(LAYOUT, (0.0, 0.0, 0.0, 30.0),
                                            time=2.0)
        assert tipping_check(LAYOUT, state, POLYGON).tipping
        _, events = sim.step(state, 0.01)
        assert [(e.kind, e.time) for e in events[:2]] == [
            (EventKind.TIP, 2.0), (EventKind.ROLL_COMPLETE, 2.0)]
