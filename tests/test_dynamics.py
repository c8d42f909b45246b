import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fleetsim.dynamics import (
    Control,
    FORCE_CAP,
    MAX_SPEED_FACTOR,
    HumanSpec,
    HumanState,
    RobotState,
    _hypot,
    step_human,
    step_robot,
    wrap_angle,
)

from _support import reference_step_human, reference_step_robot, unicycle_closed_form


class TestWrapAngle:
    def test_boundaries(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1e6, 1e6))
    def test_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi

    @given(st.floats(-10.0, 10.0), st.integers(-3, 3))
    def test_shift_invariance(self, theta, k):
        assert wrap_angle(theta + 2.0 * math.pi * k) == pytest.approx(
            wrap_angle(theta), abs=1e-9
        )


class TestStepRobot:
    def test_rejects_bad_dt(self):
        s = RobotState(0, 0, 0, 0)
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt"):
                step_robot(s, Control(0, 0), dt)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            step_robot(RobotState(0, 0, 0, 0), Control(math.nan, 0), 0.05)
        with pytest.raises(ValueError, match="finite"):
            step_robot(RobotState(math.inf, 0, 0, 0), Control(0, 0), 0.05)

    def test_straight_line(self):
        s = step_robot(RobotState(0, 0, 0, 0.5), Control(0, 0), 0.05)
        assert s.x == pytest.approx(0.025, abs=1e-15)
        assert s.y == 0.0 and s.theta == 0.0 and s.v == 0.5

    def test_single_substep_matches_closed_form(self):
        out = step_robot(RobotState(0.3, -0.2, 0.7, 0.4), Control(1.2, 1.5), 0.05, v_max=10.0)
        ex = unicycle_closed_form(0.3, -0.2, 0.7, 0.4, 1.2, 1.5, 0.05)
        assert (out.x, out.y, out.theta, out.v) == pytest.approx(ex, abs=1e-8)

    def test_long_step_splits_into_substeps(self):
        s0 = RobotState(0.1, 0.2, 0.3, 0.4)
        c = Control(0.5, -0.8)
        whole = step_robot(s0, c, 0.2, v_max=5.0)
        chained = s0
        for _ in range(4):
            chained = step_robot(chained, c, 0.05, v_max=5.0)
        assert (whole.x, whole.y, whole.theta, whole.v) == pytest.approx(
            (chained.x, chained.y, chained.theta, chained.v), abs=1e-12
        )

    def test_speed_clamped_each_substep(self):
        out = step_robot(RobotState(0, 0, 0, 0.5), Control(2.0, 0), 0.3, v_max=1.0)
        assert out.v == 1.0
        out = step_robot(RobotState(0, 0, 0, -0.5), Control(-2.0, 0), 0.3, v_max=1.0)
        assert out.v == -1.0

    def test_heading_wrapped(self):
        out = step_robot(RobotState(0, 0, 3.0, 0), Control(0, 2.0), 0.2)
        assert out.theta == pytest.approx(3.4 - 2.0 * math.pi)
        assert -math.pi < out.theta <= math.pi

    @given(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
        st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.floats(0.01, 0.5),
    )
    def test_bounds_always_hold(self, x, y, th, v, a, w, dt):
        out = step_robot(RobotState(x, y, th, v), Control(a, w), dt, v_max=1.0)
        assert -1.0 <= out.v <= 1.0
        assert -math.pi < out.theta <= math.pi


def _hex(state):
    return tuple(v.hex() for v in (state.x, state.y, state.theta, state.v))


class TestStepRobotTicks:
    """``step_robot(..., ticks=n)`` against n chained one-step calls of the
    written-out RK4 in ``_support``, bit for bit."""

    def test_random_states(self):
        rng = random.Random(22)
        wraps = clamps = 0
        for k in range(2400):
            theta = rng.choice((
                rng.uniform(-math.pi, math.pi),
                math.pi - rng.random() * 1e-3,  # about to wrap at +pi
                -math.pi + rng.random() * 1e-3,  # about to wrap at -pi
            ))
            v_max = rng.choice((0.5, 1.0, 2.0))
            s0 = RobotState(rng.uniform(-50, 50), rng.uniform(-50, 50), theta,
                            rng.uniform(-v_max, v_max))
            c = Control(rng.uniform(-3.0, 3.0), rng.choice((-4.0, 4.0)) * rng.random())
            dt = rng.choice((0.01, 0.02, 0.05, 0.07, 0.2))
            ticks = rng.randint(1, 8)
            chained = s0
            for _ in range(ticks):
                before = chained
                chained = reference_step_robot(chained, c, dt, v_max)
                wraps += abs(chained.theta - before.theta) > math.pi
                clamps += abs(chained.v) == v_max
            assert _hex(step_robot(s0, c, dt, v_max, ticks)) == _hex(chained), k
        assert wraps > 200 and clamps > 200

    def test_one_tick_is_the_reference_step(self):
        rng = random.Random(23)
        for _ in range(500):
            s0 = RobotState(*(rng.uniform(-3, 3) for _ in range(4)))
            c = Control(rng.uniform(-3, 3), rng.uniform(-3, 3))
            dt = rng.uniform(0.001, 0.3)
            assert _hex(step_robot(s0, c, dt, 1.5)) == _hex(
                reference_step_robot(s0, c, dt, 1.5))

    def test_starts_and_the_raising_tick(self):
        # x overflows in the third tick: the fourth raises, as its own call
        top = RobotState(math.nextafter(1.7976931348623157e308, 0.0) - 2e292,
                         0.0, 0.0, 1e294)
        starts = []
        with pytest.raises(ValueError, match="non-finite state or control"):
            step_robot(top, Control(0.0, 0.0), 0.01, 1e300, 5, starts)
        chained = [top]
        for _ in range(3):
            chained.append(reference_step_robot(chained[-1], Control(0.0, 0.0), 0.01, 1e300))
        assert math.isinf(chained[-1].x)
        assert [tuple(v.hex() for v in s) for s in starts] == [_hex(s) for s in chained]

    def test_starts_are_the_chained_states(self):
        s0, c = RobotState(0.1, 0.2, 3.1, 0.9), Control(0.7, 1.9)
        starts = []
        end = step_robot(s0, c, 0.01, 1.0, 6, starts)
        chained = [s0]
        for _ in range(6):
            chained.append(reference_step_robot(chained[-1], c, 0.01, 1.0))
        assert [tuple(v.hex() for v in s) for s in starts] == [_hex(s) for s in chained[:-1]]
        assert _hex(end) == _hex(chained[-1])

    def test_non_finite_control_or_dt_raises_at_the_first_tick(self):
        for c, dt in ((Control(math.nan, 0.0), 0.01), (Control(0.0, math.inf), 0.01),
                      (Control(0.0, 0.0), math.inf), (Control(0.0, 0.0), math.nan)):
            starts = []
            with pytest.raises(ValueError, match="non-finite state or control"):
                step_robot(RobotState(0.0, 0.0, 0.0, 0.0), c, dt, 1.0, 3, starts)
            assert starts == [(0.0, 0.0, 0.0, 0.0)]


def _human(pos, vel=(0.0, 0.0), index=0):
    return HumanState(float(pos[0]), float(pos[1]), float(vel[0]), float(vel[1]), index)


def _step(human, robots, others, obstacles, dt, waypoints=(), v_desired=1.0):
    """step_human with the default controller radii (r_robot 0.3, r_human 0.35)."""
    spec = HumanSpec((human.x, human.y), tuple(waypoints), v_desired)
    return step_human(human, spec, robots, others, obstacles, dt, 0.3, 0.35)


class TestStepHuman:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            _step(_human((0, 0)), [], [], [], 0.0)

    def test_goal_attraction(self):
        out = _step(_human((0, 0)), [], [], [], 0.1, waypoints=[(5.0, 0.0)])
        # force = (v_desired * xhat - 0) / tau = (2, 0)
        assert (out.vx, out.vy) == pytest.approx([0.2, 0.0])
        assert (out.x, out.y) == pytest.approx([0.02, 0.0])

    def test_no_goal_no_drift(self):
        out = _step(_human((1.0, 1.0)), [], [], [], 0.1)
        assert (out.vx, out.vy) == pytest.approx([0.0, 0.0])
        assert (out.x, out.y) == pytest.approx([1.0, 1.0])

    def test_robot_repulsion_pushes_away(self):
        out = _step(_human((0, 0)), [(0.3, 0.0)], [], [], 0.05)
        assert out.vx < 0
        assert out.vy == pytest.approx(0.0, abs=1e-12)

    def test_overlap_force_capped(self):
        out = _step(_human((0, 0)), [(0.0, 0.0)], [], [], 0.05)
        # overlapping bodies push along +x at exactly the cap
        assert (out.vx, out.vy) == pytest.approx([FORCE_CAP * 0.05, 0.0])

    def test_each_source_kind_repels(self):
        d = (0.5, 0.0)
        by_robot = _step(_human((0, 0)), [d], [], [], 0.05)
        by_human = _step(_human((0, 0)), [], [_human(d)], [], 0.05)
        by_obstacle = _step(_human((0, 0)), [], [], [d], 0.05)
        v_r = -by_robot.vx
        v_h = -by_human.vx
        v_o = -by_obstacle.vx
        assert v_r > 0 and v_h > 0 and v_o > 0
        # larger radius sum means stronger push at equal distance
        assert v_h > v_r > v_o

    def test_speed_cap(self):
        out = _step(_human((0, 0), vel=(5.0, 0.0)), [], [], [], 0.1, v_desired=1.0)
        speed = math.hypot(out.vx, out.vy)
        assert speed == pytest.approx(MAX_SPEED_FACTOR * 1.0)

    def test_waypoint_cycles(self):
        h = _human((0.9, 0.0), vel=(1.0, 0.0))
        out = _step(h, [], [], [], 0.1, waypoints=[(1.0, 0.0), (0.0, 0.0)])
        assert out.goal_index == 1

    def test_single_waypoint_wraps_to_itself(self):
        h = _human((0.99, 0.0), vel=(1.0, 0.0))
        out = _step(h, [], [], [], 0.05, waypoints=[(1.0, 0.0)])
        assert out.goal_index == 0


# zeros, subnormals, the smallest normal, huge values whose hypot overflows
# (1.5e308), infinities and nan
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1.0, 1e300, -1e300, 1.5e308, -1.7e308, math.inf, -math.inf, math.nan,
)


class TestMatchesReference:
    def test_hypot_is_np_hypot(self):
        rng = random.Random(3)

        def draw():
            kind = rng.random()
            if kind < 0.3:
                return rng.choice(SPECIAL_FLOATS)
            if kind < 0.6:  # any bit pattern: every exponent, nan payloads
                bits = rng.getrandbits(64)
                if bits >> 52 & 0x7FF == 0x7FF and bits & (1 << 52) - 1:
                    bits |= 1 << 51  # a quiet nan: no arithmetic makes signalling ones
                return struct.unpack("<d", bits.to_bytes(8, "little"))[0]
            return rng.uniform(-20.0, 20.0)

        with np.errstate(all="ignore"):
            for _ in range(100_000):
                x, y = draw(), draw()
                assert _hypot(x, y).hex() == float(np.hypot(x, y)).hex(), (x, y)
            assert _hypot(1.5e308, -1.5e308) == np.hypot(1.5e308, -1.5e308) == math.inf
        # an underflowing exp leaves errno at ERANGE, and complex abs then
        # raises on a nan part
        assert math.exp(-1000.0) == 0.0
        assert math.isnan(_hypot(1.0, math.nan))
        # the one difference: an infinite part beside a signalling nan
        signalling = struct.unpack("<d", (0x7FF0000000000001).to_bytes(8, "little"))[0]
        with np.errstate(all="ignore"):
            assert math.isnan(np.hypot(signalling, math.inf))
        assert _hypot(signalling, math.inf) == math.inf

    def test_step_human_bit_for_bit(self):
        """Random steps against the np.hypot oracle, by float.hex."""
        rng = random.Random(11)
        seen = dict.fromkeys(("coincident", "no waypoints", "capped", "wrapped"), 0)

        def point():
            return rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)

        for _ in range(5000):
            x, y = point()
            waypoints = tuple(point() for _ in range(rng.choice((0, 1, 2, 3))))
            goal = rng.randrange(len(waypoints)) if waypoints else 0
            if waypoints and rng.random() < 0.3:  # at the last waypoint: wraps
                goal = len(waypoints) - 1
                x = waypoints[goal][0] + rng.uniform(-0.3, 0.3)
            scale = rng.choice((0.0, 0.5, 4.0))
            human = HumanState(x, y, rng.gauss(0.0, scale), rng.gauss(0.0, scale), goal)
            spec = HumanSpec((0.0, 0.0), waypoints, rng.uniform(0.2, 1.5))
            robots = [point() for _ in range(rng.randint(0, 4))]
            others = [HumanState(*point(), rng.gauss(0.0, 1.0), 0.0)
                      for _ in range(rng.randint(0, 3))]
            obstacles = [point() for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.1:  # a body exactly on the pedestrian
                rng.choice((robots, obstacles)).append((x, y))
            args = (human, spec, robots, others, obstacles,
                    rng.choice((0.01, 0.05, 0.1)), rng.uniform(0.1, 0.5),
                    rng.uniform(0.1, 0.5))
            got, want = step_human(*args), reference_step_human(*args)
            assert got.goal_index == want.goal_index
            assert [v.hex() for v in (got.x, got.y, got.vx, got.vy)] == [
                v.hex() for v in (want.x, want.y, want.vx, want.vy)], args
            seen["coincident"] += (x, y) in robots + obstacles
            seen["no waypoints"] += not waypoints
            seen["capped"] += math.isclose(
                math.hypot(want.vx, want.vy), MAX_SPEED_FACTOR * spec.v_desired,
                rel_tol=1e-12)
            seen["wrapped"] += len(waypoints) > 1 and goal > want.goal_index
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("position, sources", [
        ((0.75e308, 0.75e308), [(-0.75e308, -0.75e308)]),  # the distance overflows
        ((0.0, 0.0), [(1e3, 0.0), (math.nan, 0.0)]),  # exp underflows, then a nan part
    ])
    def test_step_human_extreme_sources(self, position, sources):
        args = (HumanState(*position, 0.0, 0.0), HumanSpec(position), sources, [], [],
                0.05, 0.3, 0.35)
        got = step_human(*args)
        with np.errstate(all="ignore"):
            want = reference_step_human(*args)
        assert [v.hex() for v in (got.x, got.y, got.vx, got.vy)] == [
            v.hex() for v in (want.x, want.y, want.vx, want.vy)]
