import math
import random

import numpy as np
import pytest

import fleetsim.safety as safety
from fleetsim.dynamics import Control, HumanState, RobotState
from fleetsim.qp import INFEASIBLE, OPTIMAL, QPResult, solve_qp
from fleetsim.safety import (
    FEASIBLE,
    FEASIBLE_WITH_SLACK,
    INFEASIBLE_FALLBACK,
    ControllerParams,
    nominal_leader,
    nominal_stop,
    pair_barrier,
    point_barrier,
    solve_cluster_qp,
    solve_single_qp,
)
from fleetsim.world import ObstaclePointSet

from _support import unicycle_closed_form

P = ControllerParams()
NO_HITS = ObstaclePointSet((None,))


class TestControllerParams:
    def test_derived_keepouts(self):
        assert P.r_obstacle == pytest.approx(0.5)
        assert P.r_human_safe == pytest.approx(0.85)

    @pytest.mark.parametrize("kwargs", [
        {"k_v": 0.0},
        {"v_max": -1.0},
        {"k_slow": 0.5},
        {"theta_bar": 0.0},
        {"theta_bar": 4.0},
        {"r_safe": 0.5},  # below 2 * r_robot
        {"slack_penalty": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerParams(**kwargs)


class TestNominalLaws:
    def test_stop_brakes_proportionally(self):
        c = nominal_stop(RobotState(0, 0, 0, 0.4), P)
        assert c == Control(-0.8, 0.0)

    def test_stop_clamps_to_v_max(self):
        c = nominal_stop(RobotState(0, 0, 0, 0.8), P)
        assert c.a == -1.0

    def test_leader_stops_inside_arrival_radius(self):
        s = RobotState(0, 0, 0, 0.4)
        assert nominal_leader(s, (0.2, 0.0), P) == nominal_stop(s, P)

    def test_leader_turns_in_place_on_large_error(self):
        c = nominal_leader(RobotState(0, 0, 0, 0.0), (-2.0, 0.0), P)
        assert c.a == 0.0
        # output is unclamped; the QP box enforces omega_max later
        assert abs(c.omega) == pytest.approx(P.k_theta * math.pi)

    def test_leader_accelerates_when_aligned(self):
        c = nominal_leader(RobotState(0, 0, 0, 0.0), (2.0, 0.0), P)
        # v* clamps to v_max, so a = k_v * (v_max - v)
        assert c == Control(1.0, 0.0)

    def test_leader_decelerates_near_goal(self):
        c = nominal_leader(RobotState(0, 0, 0, 0.9), (0.35, 0.0), P)
        assert c.a < 0
        assert c.omega == 0.0

    def test_leader_turn_gain(self):
        c = nominal_leader(RobotState(0, 0, 0, 0.0), (2.0, 2.0), P)
        assert c.omega == pytest.approx(P.k_theta * math.pi / 4)


def _fd_check(terms, h_at):
    """Finite-difference validation of one barrier row.

    ``h_at(t)`` evaluates h along exact closed-form trajectories, so the
    comparison isolates the barrier algebra from integration error.
    """
    eps = 1e-4
    h0, hp, hm = h_at(0.0), h_at(eps), h_at(-eps)
    assert terms.h == pytest.approx(h0, abs=1e-12)
    assert terms.hdot == pytest.approx((hp - hm) / (2 * eps), abs=1e-6)
    return (hp - 2 * h0 + hm) / (eps * eps)


class TestBarrierTerms:
    def test_pair_barrier_matches_finite_differences(self):
        s_i = RobotState(0.0, 0.0, 0.3, 0.8)
        s_j = RobotState(1.4, 0.7, -2.0, 0.5)
        u_i, u_j = (0.7, -0.4), (-0.3, 0.9)
        r = 0.8
        terms = pair_barrier(s_i, s_j, r)

        def h_at(t):
            if t == 0.0:
                pi = (s_i.x, s_i.y)
                pj = (s_j.x, s_j.y)
            else:
                xi, yi, _, _ = unicycle_closed_form(
                    s_i.x, s_i.y, s_i.theta, s_i.v, *u_i, t)
                xj, yj, _, _ = unicycle_closed_form(
                    s_j.x, s_j.y, s_j.theta, s_j.v, *u_j, t)
                pi, pj = (xi, yi), (xj, yj)
            return (pi[0] - pj[0]) ** 2 + (pi[1] - pj[1]) ** 2 - r * r

        hddot_fd = _fd_check(terms, h_at)
        hddot = (
            terms.c0
            + terms.coef_i[0] * u_i[0] + terms.coef_i[1] * u_i[1]
            + terms.coef_j[0] * u_j[0] + terms.coef_j[1] * u_j[1]
        )
        assert hddot == pytest.approx(hddot_fd, abs=1e-4)

    def test_point_barrier_matches_finite_differences(self):
        s = RobotState(0.2, -0.1, 1.1, 0.6)
        u = (-0.5, 1.3)
        point, vel, r = (1.0, 0.8), (-0.3, 0.2), 0.85
        terms = point_barrier(s, point, vel, r)
        assert terms.coef_j is None

        def h_at(t):
            if t == 0.0:
                px, py = s.x, s.y
            else:
                px, py, _, _ = unicycle_closed_form(
                    s.x, s.y, s.theta, s.v, *u, t)
            qx = point[0] + vel[0] * t
            qy = point[1] + vel[1] * t
            return (px - qx) ** 2 + (py - qy) ** 2 - r * r

        hddot_fd = _fd_check(terms, h_at)
        hddot = terms.c0 + terms.coef_i[0] * u[0] + terms.coef_i[1] * u[1]
        assert hddot == pytest.approx(hddot_fd, abs=1e-4)

    def test_static_obstacle_nonmoving_terms(self):
        # stationary robot, static point: hdot and c0 vanish, h is geometric
        terms = point_barrier(RobotState(0, 0, 0, 0.0), (1.0, 0.0), (0.0, 0.0), 0.5)
        assert terms.h == pytest.approx(0.75)
        assert terms.hdot == 0.0
        assert terms.c0 == 0.0


class TestSolveClusterQP:
    def test_unconstrained_passthrough(self):
        states = {0: RobotState(0, 0, 0, 0.5), 1: RobotState(10, 10, 0, 0.5)}
        noms = {0: Control(0.4, 0.1), 1: Control(-0.2, 0.0)}
        dec = solve_cluster_qp([0, 1], states, noms, {0: NO_HITS, 1: NO_HITS}, [], P)
        assert dec.qp_status == FEASIBLE
        assert dec.slack_used == [0.0]  # one pair row, zero slack
        assert dec.controls[0].a == pytest.approx(0.4, abs=1e-7)
        assert dec.controls[0].omega == pytest.approx(0.1, abs=1e-7)
        assert dec.controls[1].a == pytest.approx(-0.2, abs=1e-7)

    def test_box_bounds_clamp_nominal(self):
        dec = solve_single_qp(
            RobotState(0, 0, 0, 0.0), Control(5.0, -7.0), NO_HITS, [], P)
        assert dec.qp_status == FEASIBLE
        assert dec.controls[0] == Control(P.a_max, -P.omega_max)

    def test_binding_obstacle_filters_control(self):
        # obstacle dead ahead, closing at v_max: the hard QP stays feasible
        # but must brake below the nominal acceleration
        state = RobotState(0, 0, 0, 1.0)
        hits = ObstaclePointSet(((0.9, 0.0),))
        nominal = Control(1.5, 0.0)
        dec = solve_single_qp(state, nominal, hits, [], P)
        assert dec.qp_status == FEASIBLE
        assert dec.controls[0].a < nominal.a
        terms = point_barrier(state, (0.9, 0.0), (0.0, 0.0), P.r_obstacle)
        gain = P.alpha1 + P.alpha2
        rhs = -terms.c0 - gain * terms.hdot - P.alpha1 * P.alpha2 * terms.h
        val = (terms.coef_i[0] * dec.controls[0].a
               + terms.coef_i[1] * dec.controls[0].omega)
        assert val >= rhs - 1e-7

    def test_contradictory_rows_fall_back_to_slack(self):
        # stationary robot pinched between two points inside the keepout:
        # the rows demand a <= -1.18 and a >= +1.18 at once
        state = RobotState(0, 0, 0, 0.0)
        hits = ObstaclePointSet(((0.2, 0.0), (-0.2, 0.0)))
        dec = solve_single_qp(state, Control(0.0, 0.0), hits, [], P)
        assert dec.qp_status == FEASIBLE_WITH_SLACK
        assert len(dec.slack_used) == 2
        assert max(dec.slack_used) > 0.1
        assert min(dec.slack_used) >= 0.0
        assert abs(dec.controls[0].a) <= P.a_max

    def test_contradictory_cluster_rows_fall_back_to_slack(self):
        # two stopped robots 0.3 apart, each inside an obstacle keepout on
        # its far side: the rows demand a_0 >= 1.18, a_1 <= -1.18 and
        # a_1 - a_0 >= 2.06 at once
        states = {0: RobotState(0.0, 0.0, 0.0, 0.0), 1: RobotState(0.3, 0.0, 0.0, 0.0)}
        hits = {0: ObstaclePointSet(((-0.2, 0.0),)), 1: ObstaclePointSet(((0.5, 0.0),))}
        noms = {0: Control(0.0, 0.0), 1: Control(0.0, 0.0)}
        dec = solve_cluster_qp([0, 1], states, noms, hits, [], P)
        assert dec.qp_status == FEASIBLE_WITH_SLACK
        assert len(dec.slack_used) == 3
        assert min(dec.slack_used) >= 0.0 and max(dec.slack_used) > 0.1
        u0, u1 = dec.controls[0], dec.controls[1]
        # rows in assembly order: the pair, then each member's obstacle hit
        pair = pair_barrier(states[0], states[1], P.r_safe)
        obs0 = point_barrier(states[0], (-0.2, 0.0), (0.0, 0.0), P.r_obstacle)
        obs1 = point_barrier(states[1], (0.5, 0.0), (0.0, 0.0), P.r_obstacle)
        values = (
            pair.coef_i[0] * u0.a + pair.coef_i[1] * u0.omega
            + pair.coef_j[0] * u1.a + pair.coef_j[1] * u1.omega,
            obs0.coef_i[0] * u0.a + obs0.coef_i[1] * u0.omega,
            obs1.coef_i[0] * u1.a + obs1.coef_i[1] * u1.omega,
        )
        gain = P.alpha1 + P.alpha2
        for terms, value, slack in zip((pair, obs0, obs1), values, dec.slack_used):
            rhs = -terms.c0 - gain * terms.hdot - P.alpha1 * P.alpha2 * terms.h
            assert value + slack >= rhs - 1e-7
        for u in (u0, u1):
            assert abs(u.a) <= P.a_max and abs(u.omega) <= P.omega_max

    def test_solver_failure_falls_back_to_stops(self, monkeypatch):
        def always_infeasible(first, g, A=None, b=None, **kw):
            return QPResult(np.zeros(len(g)), INFEASIBLE, 0)

        # the hard problem runs on the cached factor, the soft one through solve_qp
        monkeypatch.setattr(safety, "solve_factored", always_infeasible)
        monkeypatch.setattr(safety, "solve_qp", always_infeasible)
        states = {0: RobotState(0, 0, 0, 0.5)}
        dec = solve_cluster_qp([0], states, {0: Control(1.0, 1.0)},
                               {0: NO_HITS}, [], P)
        assert dec.qp_status == INFEASIBLE_FALLBACK
        assert dec.slack_used == []
        assert dec.controls[0] == Control(-1.0, 0.0)

    def test_hard_failure_takes_the_soft_path(self, monkeypatch):
        def always_infeasible(chol, g, A, b, **kw):
            return QPResult(np.zeros(len(g)), INFEASIBLE, 0)

        soft_calls = []

        def counted_solve_qp(H, g, A=None, b=None, **kw):
            soft_calls.append(len(g))
            return solve_qp(H, g, A, b, **kw)

        monkeypatch.setattr(safety, "solve_factored", always_infeasible)
        monkeypatch.setattr(safety, "solve_qp", counted_solve_qp)
        states = {0: RobotState(0, 0, 0, 0.5)}
        hits = ObstaclePointSet(((3.0, 0.0), None))
        dec = solve_cluster_qp([0], states, {0: Control(0.5, 0.2)}, {0: hits}, [], P)
        # one soft solve over two controls plus one slack for the one CBF row
        assert soft_calls == [3]
        assert dec.qp_status == FEASIBLE_WITH_SLACK
        assert dec.slack_used == [0.0]
        assert dec.controls[0].a == pytest.approx(0.5, abs=1e-9)
        assert dec.controls[0].omega == pytest.approx(0.2, abs=1e-9)

    def test_human_row_counts(self):
        hum = HumanState(5.0, 5.0, 0.0, 0.0)
        states = {0: RobotState(0, 0, 0, 0.0), 1: RobotState(2.0, 0, 0, 0.0)}
        noms = {0: Control(0, 0), 1: Control(0, 0)}
        hits = ObstaclePointSet(((3.0, 0.0), None))
        dec = solve_cluster_qp([0, 1], states, noms,
                               {0: hits, 1: NO_HITS}, [hum], P)
        # rows: 1 pair + 1 obstacle hit + 2 human (one per member)
        assert len(dec.slack_used) == 4
        assert dec.qp_status == FEASIBLE

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solve_cluster_qp([], {}, {}, {}, [], P)

    def test_non_finite_hit_rejected(self):
        states = {0: RobotState(0, 0, 0, 0.0)}
        hits = ObstaclePointSet(((math.nan, 1.0),))
        with pytest.raises(ValueError, match="non-finite constraints"):
            solve_cluster_qp([0], states, {0: Control(0, 0)}, {0: hits}, [], P)

    def test_non_finite_nominal_rejected(self):
        states = {0: RobotState(0, 0, 0, 0.0)}
        with pytest.raises(ValueError, match="non-finite"):
            solve_cluster_qp([0], states, {0: Control(math.nan, 0)},
                             {0: NO_HITS}, [], P)

    def test_pair_row_keeps_robots_separating(self):
        # two robots driving at each other well inside sensing range
        states = {
            0: RobotState(0.0, 0.0, 0.0, 1.0),
            1: RobotState(1.4, 0.0, math.pi, 1.0),
        }
        noms = {k: Control(1.0, 0.0) for k in (0, 1)}
        dec = solve_cluster_qp([0, 1], states, noms, {0: NO_HITS, 1: NO_HITS}, [], P)
        assert dec.qp_status in (FEASIBLE, FEASIBLE_WITH_SLACK)
        # both must brake hard relative to nominal
        assert dec.controls[0].a < 1.0
        assert dec.controls[1].a < 1.0


def _random_cluster(rng: random.Random):
    """Members with shuffled ids, close enough for pair, obstacle and human rows to bind."""
    n = rng.randint(1, 4)
    members = rng.sample(range(6), n)
    spread = rng.choice((0.6, 1.5, 4.0))
    states, nominals, obstacle_points = {}, {}, {}
    for rid in members:
        s = RobotState(rng.uniform(0, spread), rng.uniform(0, spread),
                       rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
        states[rid] = s
        nominals[rid] = Control(rng.uniform(-3, 3), rng.uniform(-3, 3))
        points = []
        for _ in range(rng.choice((1, 4, 16))):
            d, ang = rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi)
            hit = (s.x + d * math.cos(ang), s.y + d * math.sin(ang))
            points.append(hit if rng.random() < 0.3 else None)
        obstacle_points[rid] = ObstaclePointSet(tuple(points))
    humans = [HumanState(rng.uniform(-1, spread + 1), rng.uniform(-1, spread + 1),
                         rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(rng.randint(0, 2))]
    return members, states, nominals, obstacle_points, humans


def _reference_rows(members, states, obstacle_points, humans, p):
    """The hard system rebuilt one row at a time: the CBF rows from
    pair_barrier and point_barrier, then per stacked (a, omega) variable its
    upper and its lower box row."""
    slot = {rid: 2 * k for k, rid in enumerate(members)}
    rows, rhs = [], []

    def add(terms, i, j=None):
        row = [0.0] * (2 * len(members))
        row[slot[i]: slot[i] + 2] = terms.coef_i
        if j is not None:
            row[slot[j]: slot[j] + 2] = terms.coef_j
        rows.append(row)
        rhs.append(-terms.c0 - (p.alpha1 + p.alpha2) * terms.hdot
                   - p.alpha1 * p.alpha2 * terms.h)

    for a, i in enumerate(members):
        for j in members[a + 1:]:
            add(pair_barrier(states[i], states[j], p.r_safe), i, j)
    for rid in members:
        for pt in obstacle_points[rid].hit_points():
            add(point_barrier(states[rid], pt, (0.0, 0.0), p.r_obstacle), rid)
    for rid in members:
        for hum in humans:
            add(point_barrier(states[rid], (hum.x, hum.y), (hum.vx, hum.vy),
                              p.r_human_safe), rid)
    for var in range(2 * len(members)):
        bound = p.a_max if var % 2 == 0 else p.omega_max
        for sign in (-1.0, 1.0):
            row = [0.0] * (2 * len(members))
            row[var] = sign
            rows.append(row)
            rhs.append(-bound)
    return rows, rhs


def _hex(values):
    return [float(v).hex() for v in values]


class TestRowsAndHardPath:
    """The in-place row builder and the cached-factor hard solve, bit for bit."""

    def test_assemble_matches_barrier_terms(self):
        rng = random.Random(21)
        for _ in range(500):
            members, states, _, obstacle_points, humans = _random_cluster(rng)
            A, b = safety._assemble(members, states, obstacle_points, humans, P)
            rows, rhs = _reference_rows(members, states, obstacle_points, humans, P)
            assert A.shape == (len(rows), 2 * len(members))
            assert A.flags.c_contiguous and A.flags.writeable
            assert [_hex(row) for row in A] == [_hex(row) for row in rows]
            assert _hex(b) == _hex(rhs)

    def test_hard_path_equals_checked_solve(self):
        rng = random.Random(22)
        outcomes = set()
        for _ in range(500):
            members, states, nominals, obstacle_points, humans = _random_cluster(rng)
            n = len(members)
            A, b = safety._assemble(members, states, obstacle_points, humans, P)
            u_star = [u for rid in members for u in (nominals[rid].a, nominals[rid].omega)]
            g = -2.0 * np.array(u_star)
            fast = safety.solve_factored(safety._hard_factor(2 * n), g, A, b)
            checked = solve_qp(2.0 * np.eye(2 * n), g, A, b)
            assert (fast.status, fast.iterations) == (checked.status, checked.iterations)
            assert _hex(fast.x) == _hex(checked.x)
            dec = solve_cluster_qp(members, states, nominals, obstacle_points, humans, P)
            assert (dec.qp_status == FEASIBLE) == (checked.status == OPTIMAL)
            if dec.qp_status == FEASIBLE:
                assert dec.controls == safety._unpack(members, checked.x, P)
            outcomes.add((checked.status, checked.iterations > 0))
        # unconstrained optima, active-set steps and infeasible hard problems
        assert outcomes >= {(OPTIMAL, False), (OPTIMAL, True), (INFEASIBLE, True)}
