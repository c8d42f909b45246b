import random

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

import fleetsim.qp as qp
import fleetsim.safety as safety
from fleetsim.qp import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, _gauss, solve_diagonal, solve_qp

from _support import near_dependent_cluster, random_cluster, row_violation, sparse_rows

P = safety.ControllerParams()


def _kkt(H, g, A, b, x, tol=1e-6):
    """Rows active at x and multipliers certifying x as the optimum.

    Active rows are those with ``A @ x - b <= tol``. ``nnls`` finds the
    ``lam >= 0`` closest to solving ``H @ x + g = A_act.T @ lam``; a residual
    near zero means x satisfies stationarity and dual feasibility. Returns
    (active row indices, lam, residual norm).
    """
    grad = H @ x + g
    active = [k for k in range(len(A)) if A[k] @ x - b[k] <= tol]
    if not active:
        return (), np.zeros(0), float(np.linalg.norm(grad))
    lam, residual = nnls(A[active].T, grad)
    return tuple(active), lam, residual


class TestAnalyticCases:
    def test_unconstrained(self):
        H = np.array([[2.0, 0.0], [0.0, 4.0]])
        g = np.array([-2.0, -8.0])
        res = solve_qp(np.diag(H), g)
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.0, 2.0])
        active, _, residual = _kkt(H, g, np.zeros((0, 2)), np.zeros(0), res.x)
        assert active == () and residual <= 1e-9
        x = np.array(res.x)
        assert 0.5 * x @ H @ x + g @ x == pytest.approx(-9.0)

    def test_single_active_constraint_1d(self):
        # min x^2 - 4x subject to x <= 1: optimum x = 1, multiplier 2
        H, g = np.array([[2.0]]), np.array([-4.0])
        A, b = np.array([[-1.0]]), np.array([-1.0])
        res = solve_qp(np.diag(H), g, sparse_rows(A), b)
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.0])
        active, lam, residual = _kkt(H, g, A, b, res.x)
        assert active == (0,) and residual <= 1e-9
        assert lam == pytest.approx([2.0])

    def test_single_active_constraint_2d(self):
        # min |x - (1,1)|^2 subject to x1 + x2 >= 3: projection onto the line
        H, g = 2.0 * np.eye(2), np.array([-2.0, -2.0])
        A, b = np.array([[1.0, 1.0]]), np.array([3.0])
        res = solve_qp(np.diag(H), g, sparse_rows(A), b)
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.5, 1.5])
        active, lam, residual = _kkt(H, g, A, b, res.x)
        assert active == (0,) and residual <= 1e-9
        assert lam == pytest.approx([1.0])

    def test_inactive_constraint_ignored(self):
        H, g = np.array([[2.0]]), np.array([-4.0])
        A, b = np.array([[1.0]]), np.array([0.0])
        res = solve_qp(np.diag(H), g, sparse_rows(A), b)
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([2.0])
        active, _, residual = _kkt(H, g, A, b, res.x)
        assert active == () and residual <= 1e-9

    def test_pinched_to_equality(self):
        res = solve_qp([2.0], [-10.0], [[(0, 1.0)], [(0, -1.0)]], [1.0, -1.0])
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.0])

    def test_duplicate_rows_tolerated(self):
        res = solve_qp([2.0], [0.0], [[(0, 1.0)], [(0, 1.0)]], [1.0, 1.0])
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([1.0])
        assert res.active == (0,)  # the first of equally violated rows

    def test_infeasible_detected(self):
        res = solve_qp([2.0], [0.0], [[(0, 1.0)], [(0, -1.0)]], [2.0, -1.0])
        assert res.status == INFEASIBLE

    def test_iteration_limit_reported(self, monkeypatch):
        # one step adds the row; the scan that would confirm it is the second
        monkeypatch.setattr(qp, "MAX_ITER", 1)
        res = solve_qp([2.0], [-4.0], [[(0, -1.0)]], [-1.0])
        assert res.status == ITERATION_LIMIT


class TestValidation:
    def test_shape_mismatches(self):
        with pytest.raises(ValueError, match="incompatible"):
            solve_qp([1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="incompatible"):
            solve_qp([1.0, 1.0], [0.0, 0.0], [[(0, 1.0)], [(1, 1.0)]], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="incompatible"):
            solve_qp([1.0, 1.0], [0.0, 0.0], [[(0, 1.0)], [(1, 1.0)]], [0.0])

    @pytest.mark.parametrize("row", [
        [(2, 1.0)],               # past the last variable
        [(-1, 1.0)],              # before the first
        [(0, 1.0), (0, 2.0)],     # repeated
        [(1, 1.0), (0, 2.0)],     # decreasing
    ])
    def test_malformed_rows(self, row):
        with pytest.raises(ValueError, match="strictly increasing indices"):
            solve_qp([1.0, 1.0], [0.0, 0.0], [[(0, 1.0)], row], [0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_qp([1.0], [np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            solve_qp([np.inf], [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            solve_qp([1.0], [0.0], [[(0, np.inf)]], [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            solve_qp([1.0], [0.0], [[(0, 1.0)]], [np.nan])

    def test_not_positive_definite(self):
        for h in ([-1.0, -1.0], [1.0, 0.0], [2.0, -0.0]):
            with pytest.raises(ValueError, match="positive definite"):
                solve_qp(h, [0.0, 0.0])


def _feasible_by_lp(A, b) -> bool:
    """Phase-1 LP: does any x satisfy Ax >= b (within 1e-7)?"""
    m, d = A.shape
    c = np.zeros(d + 1)
    c[-1] = 1.0
    A_ub = np.hstack([-A, -np.ones((m, 1))])
    bounds = [(None, None)] * d + [(0.0, None)]
    lp = linprog(c, A_ub=A_ub, b_ub=-b, bounds=bounds, method="highs")
    assert lp.status == 0
    return lp.fun <= 1e-7


class TestRandomizedKKT:
    def test_kkt_conditions_on_random_instances(self):
        rng = np.random.default_rng(42)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0}
        for _ in range(60):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(0, 11))
            H = np.diag(10.0 ** rng.uniform(-2.0, 4.0, size=d))
            g = rng.normal(size=d)
            A = rng.normal(size=(m, d))
            b = rng.normal(size=m)
            res = solve_qp(np.diag(H), g, sparse_rows(A), b)
            assert res.status in statuses
            statuses[res.status] += 1
            if res.status == INFEASIBLE:
                assert not _feasible_by_lp(A, b)
                continue
            # primal feasibility
            if m:
                assert np.min(A @ res.x - b) >= -1e-7
            # dual feasibility and stationarity (KKT certifies the optimum)
            _, _, residual = _kkt(H, g, A, b, res.x)
            assert residual <= 1e-6
        # the generator must exercise both outcomes
        assert statuses[OPTIMAL] > 10 and statuses[INFEASIBLE] > 2


def test_gauss_pivots_and_reports_a_zero_pivot():
    assert _gauss([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]) == [3.0, 2.0]
    assert _gauss([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]) is None
    rng = np.random.default_rng(5)
    for q in range(1, 8):
        M = rng.normal(size=(q, q)) + q * np.eye(q)
        y = rng.normal(size=q)
        assert _gauss(M.tolist(), y.tolist()) == pytest.approx(np.linalg.solve(M, y), rel=1e-12)


def test_rejects_a_problem_without_variables():
    with pytest.raises(ValueError, match="no variables"):
        solve_qp([], [])


def test_an_optimum_holds_every_row():
    """The scan re-checks active rows too. On the near-dependent cluster, a
    scan that skipped them returned optimal with a row violated by 0.28."""
    rng = random.Random(41)
    clusters = [near_dependent_cluster()] + [(*random_cluster(rng), P) for _ in range(300)]
    steps = 0
    for members, states, nominals, hits, humans, p in clusters:
        rows, b = safety._rows(states, hits, humans, p)
        g = [-2.0 * u for nom in nominals for u in (nom.a, nom.omega)]
        res = solve_diagonal([2.0] * len(g), g, rows, b)
        steps += res.iterations
        if res.status == OPTIMAL:
            assert row_violation(rows, b, res.x) <= 1e-9
    assert steps > 0
