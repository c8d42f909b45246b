import math
import random
import warnings

import numpy as np
import pytest

import fleetsim.safety as safety
from fleetsim.dynamics import Control, HumanState, RobotState
from fleetsim.qp import INFEASIBLE, OPTIMAL, QPResult, solve_diagonal, solve_qp
from fleetsim.safety import (
    FEASIBLE,
    FEASIBLE_WITH_SLACK,
    INFEASIBLE_FALLBACK,
    ControllerParams,
    nominal_leader,
    nominal_stop,
    solve_cluster_qp,
    solve_single_qp,
)
from fleetsim.world import ObstaclePointSet

from _support import (
    near_dependent_cluster,
    pair_barrier,
    point_barrier,
    random_cluster,
    reference_soft_system,
    reference_solve_diagonal,
    row_violation,
    sparse_rows,
    unicycle_closed_form,
)

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
        states = [RobotState(0, 0, 0, 0.5), RobotState(10, 10, 0, 0.5)]
        noms = [Control(0.4, 0.1), Control(-0.2, 0.0)]
        dec = solve_cluster_qp([0, 1], states, noms, [NO_HITS, NO_HITS], [], P)
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
        states = [RobotState(0.0, 0.0, 0.0, 0.0), RobotState(0.3, 0.0, 0.0, 0.0)]
        hits = [ObstaclePointSet(((-0.2, 0.0),)), ObstaclePointSet(((0.5, 0.0),))]
        noms = [Control(0.0, 0.0), Control(0.0, 0.0)]
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
        def always_infeasible(h, g, rows, b):
            return QPResult([0.0] * len(g), INFEASIBLE, 0)

        # the hard problem runs on the unchecked core, the soft one through
        # solve_qp
        monkeypatch.setattr(safety, "solve_diagonal", always_infeasible)
        monkeypatch.setattr(safety, "solve_qp", always_infeasible)
        states = [RobotState(0, 0, 0, 0.5)]
        dec = solve_cluster_qp([0], states, [Control(1.0, 1.0)],
                               [NO_HITS], [], P)
        assert dec.qp_status == INFEASIBLE_FALLBACK
        assert dec.slack_used == []
        assert dec.controls[0] == Control(-1.0, 0.0)

    def test_hard_failure_takes_the_soft_path(self, monkeypatch):
        def always_infeasible(h, g, rows, b):
            return QPResult([0.0] * len(g), INFEASIBLE, 0)

        soft_calls = []

        def counted_solve_qp(h, g, rows, b):
            soft_calls.append(len(g))
            return solve_qp(h, g, rows, b)

        monkeypatch.setattr(safety, "solve_diagonal", always_infeasible)
        monkeypatch.setattr(safety, "solve_qp", counted_solve_qp)
        states = [RobotState(0, 0, 0, 0.5)]
        hits = ObstaclePointSet(((3.0, 0.0), None))
        dec = solve_cluster_qp([0], states, [Control(0.5, 0.2)], [hits], [], P)
        # one soft solve over two controls plus one slack for the one CBF row
        assert soft_calls == [3]
        assert dec.qp_status == FEASIBLE_WITH_SLACK
        assert dec.slack_used == [0.0]
        assert dec.controls[0].a == pytest.approx(0.5, abs=1e-9)
        assert dec.controls[0].omega == pytest.approx(0.2, abs=1e-9)

    def test_human_row_counts(self):
        hum = HumanState(5.0, 5.0, 0.0, 0.0)
        states = [RobotState(0, 0, 0, 0.0), RobotState(2.0, 0, 0, 0.0)]
        noms = [Control(0, 0), Control(0, 0)]
        hits = ObstaclePointSet(((3.0, 0.0), None))
        dec = solve_cluster_qp([0, 1], states, noms,
                               [hits, NO_HITS], [hum], P)
        # rows: 1 pair + 1 obstacle hit + 2 human (one per member)
        assert len(dec.slack_used) == 4
        assert dec.qp_status == FEASIBLE

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solve_cluster_qp([], [], [], [], [], P)

    def test_non_finite_hit_rejected(self):
        states = [RobotState(0, 0, 0, 0.0)]
        hits = ObstaclePointSet(((math.nan, 1.0),))
        with pytest.raises(ValueError, match="non-finite constraints"):
            solve_cluster_qp([0], states, [Control(0, 0)], [hits], [], P)

    def test_non_finite_nominal_rejected(self):
        states = [RobotState(0, 0, 0, 0.0)]
        with pytest.raises(ValueError, match="non-finite"):
            solve_cluster_qp([0], states, [Control(math.nan, 0)],
                             [NO_HITS], [], P)

    def test_pair_row_keeps_robots_separating(self):
        # two robots driving at each other well inside sensing range
        states = [
            RobotState(0.0, 0.0, 0.0, 1.0),
            RobotState(1.4, 0.0, math.pi, 1.0),
        ]
        noms = [Control(1.0, 0.0)] * 2
        dec = solve_cluster_qp([0, 1], states, noms, [NO_HITS, NO_HITS], [], P)
        assert dec.qp_status in (FEASIBLE, FEASIBLE_WITH_SLACK)
        # both must brake hard relative to nominal
        assert dec.controls[0].a < 1.0
        assert dec.controls[1].a < 1.0


def _reference_rows(states, obstacle_points, humans, p):
    """The hard system rebuilt one row at a time: the CBF rows from
    pair_barrier and point_barrier, then per stacked (a, omega) variable its
    upper and its lower box row. Member k's variables are 2k and 2k + 1."""
    n = len(states)
    rows, rhs = [], []

    def add(terms, i, j=None):
        row = [0.0] * (2 * n)
        row[2 * i: 2 * i + 2] = terms.coef_i
        if j is not None:
            row[2 * j: 2 * j + 2] = terms.coef_j
        rows.append(row)
        rhs.append(-terms.c0 - (p.alpha1 + p.alpha2) * terms.hdot
                   - p.alpha1 * p.alpha2 * terms.h)

    for i in range(n):
        for j in range(i + 1, n):
            add(pair_barrier(states[i], states[j], p.r_safe), i, j)
    for k in range(n):
        for pt in obstacle_points[k].hit_points():
            add(point_barrier(states[k], pt, (0.0, 0.0), p.r_obstacle), k)
    for k in range(n):
        for hum in humans:
            add(point_barrier(states[k], (hum.x, hum.y), (hum.vx, hum.vy),
                              p.r_human_safe), k)
    for var in range(2 * n):
        bound = p.a_max if var % 2 == 0 else p.omega_max
        for sign in (-1.0, 1.0):
            row = [0.0] * (2 * n)
            row[var] = sign
            rows.append(row)
            rhs.append(-bound)
    return rows, rhs


def _hex(values):
    return [(float(v) + 0.0).hex() for v in values]  # -0.0 + 0.0 is 0.0


def _dense(rows, d):
    out = [[0.0] * d for _ in rows]
    for dense, row in zip(out, rows):
        for var, c in row:
            dense[var] = c
    return out


class TestRowsAndHardPath:
    """The plain-float row builder and the unchecked hard solve."""

    def test_assemble_matches_barrier_terms(self):
        rng = random.Random(21)
        for _ in range(500):
            members, states, _, obstacle_points, humans = random_cluster(rng)
            rows, b = safety._rows(states, obstacle_points, humans, P)
            want_rows, want_b = _reference_rows(states, obstacle_points, humans, P)
            assert len(rows) == len(b) == len(want_rows)
            for row in rows:
                variables = [var for var, _ in row]
                assert variables == sorted(set(variables))
            # the oracle's dots may fuse a product into the add: equal to rounding
            for got, want in zip(_dense(rows, 2 * len(members)), want_rows):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert b == pytest.approx(want_b, rel=1e-12, abs=1e-12)
            m = len(b) - 4 * len(members)
            assert _hex(b[m:]) == _hex(want_b[m:])
            assert _dense(rows[m:], 2 * len(members)) == want_rows[m:]

    def test_hard_path_equals_checked_solve(self):
        rng = random.Random(22)
        outcomes = set()
        for _ in range(500):
            members, states, nominals, obstacle_points, humans = random_cluster(rng)
            n = len(members)
            rows, b = safety._rows(states, obstacle_points, humans, P)
            g = [-2.0 * u for nom in nominals for u in (nom.a, nom.omega)]
            fast = solve_diagonal([2.0] * (2 * n), g, rows, b)
            checked = solve_qp([2.0] * (2 * n), g, rows, b)
            assert (fast.status, fast.iterations, fast.active) == (
                checked.status, checked.iterations, checked.active)
            assert _hex(fast.x) == _hex(checked.x)
            dec = solve_cluster_qp(members, states, nominals, obstacle_points, humans, P)
            assert (dec.qp_status == FEASIBLE) == (checked.status == OPTIMAL)
            if dec.qp_status == FEASIBLE:
                assert dec.controls == safety._unpack(checked.x, P)
            outcomes.add((checked.status, checked.iterations > 0))
        # unconstrained optima, active-set steps and infeasible hard problems
        assert outcomes >= {(OPTIMAL, False), (OPTIMAL, True), (INFEASIBLE, True)}


def test_a_feasible_decision_holds_every_row():
    """A ``feasible`` decision's controls satisfy every ``_rows`` row to
    within 1e-9. On the near-dependent cluster a hard solve that skipped
    active rows in its scan gave a feasible decision breaking pair row 1 by
    0.28; its hard solve now ends infeasible, and the soft problem decides."""
    members, states, nominals, hits, humans, p = near_dependent_cluster()
    dec = solve_cluster_qp(members, states, nominals, hits, humans, p)
    assert dec.qp_status in (FEASIBLE, FEASIBLE_WITH_SLACK)
    if dec.qp_status == FEASIBLE:
        rows, b = safety._rows(states, hits, humans, p)
        u = [c for control in dec.controls for c in (control.a, control.omega)]
        assert row_violation(rows, b, u) <= 1e-9


def test_plain_float_path_matches_the_numpy_path(monkeypatch):
    """The plain-float rows and core against the numpy path they replaced
    (the rows ``_reference_rows`` rebuilds from the barrier terms, and
    ``_support.reference_solve_diagonal``) on random clusters, solved hard
    and soft as ``solve_cluster_qp`` lays them out: the same status, and on
    an optimum the same active-set steps, active set and x to rounding. An
    infeasible hard problem may stop after a different number of steps: its
    last active sets are near-dependent, so either path's steps there
    follow its rounding."""
    rng = random.Random(24)
    seen = set()
    soft_args = []
    monkeypatch.setattr(safety, "solve_qp", lambda *a: soft_args.append(a) or solve_qp(*a))
    for _ in range(1000):
        members, states, nominals, hits, humans = random_cluster(rng)
        n = len(members)
        for k in range(n):
            if rng.random() < 0.2:  # at rest: the stop law's (-0.0, 0.0)
                nominals[k] = nominal_stop(RobotState(0.0, 0.0, 0.0, 0.0), P)
        g = [-2.0 * u for nom in nominals for u in (nom.a, nom.omega)]
        rows, b = safety._rows(states, hits, humans, P)
        A, b_ref = map(np.array, _reference_rows(states, hits, humans, P))
        soft = reference_soft_system(np.array(_dense(rows, 2 * n)), np.array(b), np.array(g),
                                     n, P.slack_penalty)
        soft_ref = reference_soft_system(A, b_ref, np.array(g), n, P.slack_penalty)
        del soft_args[:]
        solve_cluster_qp(members, states, nominals, hits, humans, P)
        if soft_args:  # the layout solve_cluster_qp hands to solve_qp
            h, g_soft, rows_soft, b_soft = soft_args[0]
            assert rows_soft == sparse_rows(soft[2])  # no zero coefficients
            for got, want in zip((h, g_soft, b_soft), (soft[0], soft[1], soft[3])):
                assert np.array_equal(got, want)
        for kind, got, want in (
            ("hard", solve_diagonal([2.0] * (2 * n), g, rows, b),
             reference_solve_diagonal(2.0, np.array(g), A, b_ref)),
            ("soft", solve_qp(soft[0], soft[1], sparse_rows(soft[2]), soft[3]),
             reference_solve_diagonal(*soft_ref)),
        ):
            assert got.status == want.status
            seen.add((kind, got.status, got.iterations > 0))
            if got.status == OPTIMAL:
                assert (got.iterations, got.active) == (want.iterations, want.active)
                assert got.x == pytest.approx(want.x.tolist(), rel=1e-10, abs=1e-10)
    assert seen >= {("hard", OPTIMAL, False), ("hard", OPTIMAL, True),
                    ("hard", INFEASIBLE, True), ("soft", OPTIMAL, True)}


class TestFirstScanAcceptsNominal:
    """Nominal controls that already satisfy every row: the hard solve
    starts at them, so its first scan decides the cluster."""

    def test_accepted_decisions_equal_the_full_path(self):
        # wherever the numpy oracle's hard solve stops at its start, so does
        # the plain-float one, and the decision is the clipped nominal
        # controls with zero slack per row
        rng = random.Random(31)
        seen = {"accepted": 0, "refused": 0}
        for _ in range(2000):
            members, states, nominals, hits, humans = random_cluster(
                rng, u_max=rng.choice((0.5, 2.0, 3.0)))
            if rng.random() < 0.2:  # at rest: the stop law's (-0.0, 0.0)
                nominals[0] = nominal_stop(RobotState(0.0, 0.0, 0.0, 0.0), P)
            u = [c for nom in nominals for c in (nom.a, nom.omega)]
            A, b = map(np.array, _reference_rows(states, hits, humans, P))
            oracle = reference_solve_diagonal(2.0, -2.0 * np.array(u), A, b)
            rows, b = safety._rows(states, hits, humans, P)
            hard = solve_diagonal([2.0] * len(u), [-2.0 * c for c in u], rows, b)
            assert (hard.iterations == 0) == (oracle.iterations == 0)
            if hard.iterations:
                seen["refused"] += 1
                continue
            seen["accepted"] += 1
            assert hard.status == oracle.status == OPTIMAL
            assert hard.x == u and oracle.x.tolist() == pytest.approx(u, rel=1e-15)
            dec = solve_cluster_qp(members, states, nominals, hits, humans, P)
            assert dec.qp_status == FEASIBLE
            assert dec.slack_used == [0.0] * (len(b) - 2 * len(u))
            assert dec.controls == [
                Control(min(max(nom.a, -P.a_max), P.a_max),
                        min(max(nom.omega, -P.omega_max), P.omega_max))
                for nom in nominals]
        assert seen["accepted"] >= 200 and seen["refused"] >= 200

    def test_overflowing_row_raises_through_the_full_path(self):
        # a finite hit point whose row overflows; no warning on the way
        states = [RobotState(0.0, 0.0, 0.0, 0.0)]
        hits = [ObstaclePointSet(((1e308, 0.0),))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite constraints"):
                solve_cluster_qp([0], states, [Control(0.0, 0.0)], hits, [], P)

    def test_huge_but_finite_row_is_accepted(self):
        # |dp|^2 = 1e300: every entry is finite, and the row holds
        states = [RobotState(0.0, 0.0, 0.0, 0.0)]
        hits = [ObstaclePointSet(((1e150, 0.0),))]
        dec = solve_cluster_qp([0], states, [Control(0.5, 0.0)], hits, [], P)
        assert dec.qp_status == FEASIBLE
        assert dec.controls[0] == Control(0.5, 0.0)

    def test_non_finite_box_bound_raises(self):
        p = ControllerParams(a_max=math.inf)
        with pytest.raises(ValueError, match="non-finite constraints"):
            solve_cluster_qp([0], [RobotState(0, 0, 0, 0.0)], [Control(0.1, 0.0)],
                             [NO_HITS], [], p)
