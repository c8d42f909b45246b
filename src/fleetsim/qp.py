"""Strictly convex quadratic programming on a diagonal Hessian, in plain floats.

Solves ``min 0.5 x'Hx + g'x  s.t.  Ax >= b`` with a Goldfarb-Idnani dual
active-set method. The solver starts from the unconstrained optimum and adds
violated constraints one at a time, so it needs no feasible starting point and
detects inconsistent constraint sets cleanly. Every QP the simulator builds has
H = diag(h) with h > 0, given as h, so each H^-1 v is ``v / h``, and sparse
rows of A, given as (variable, coefficient) pairs. Problems here are tiny (a
few dozen rows), so every step re-solves the small active-set system by
Gaussian elimination with partial pivoting instead of updating a factorization.
Each step's scan re-checks every row, the active ones too, so an optimum is
returned only when every row holds to within ``TOL``.

The arithmetic is Python floats in a fixed order: a dot product sums its
products left to right in increasing index order, and no product is fused into
an add, so results depend on IEEE-754 arithmetic only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import NamedTuple

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
MAX_ITER = 200  # active-set steps before a solve reports ITERATION_LIMIT
TOL = 1e-9  # the violation a scan ignores; smaller step divisors count as zero

# a constraint row: (variable, coefficient) pairs in increasing variable order
Row = Sequence[tuple[int, float]]


class QPResult(NamedTuple):
    x: list[float]
    status: str
    iterations: int
    active: tuple[int, ...] = ()  # the rows held with equality, in the order added


def solve_qp(h: Sequence[float], g: Sequence[float], rows: Sequence[Row] = (),
             b: Sequence[float] = ()) -> QPResult:
    """Solve ``min 0.5 x' diag(h) x + g'x`` subject to ``rows x >= b``.

    Returns the optimum and the number of active-set steps taken, or a
    result flagged ``infeasible`` (no x satisfies the constraints) or
    ``iteration_limit``. Raises ValueError for no variables, lengths that do
    not match, a row whose variables are not strictly increasing indices of
    x, a non-finite entry or a diagonal that is not positive.
    """
    h = [float(v) for v in h]
    g = [float(v) for v in g]
    d = len(g)
    if len(h) != d:
        raise ValueError("H and g have incompatible shapes")
    if d == 0:
        raise ValueError("the problem has no variables")
    rows = [[(v, float(c)) for v, c in row] for row in rows]
    b = [float(v) for v in b]
    if len(b) != len(rows):
        raise ValueError("A and b have incompatible shapes")
    for row in rows:
        variables = [-1] + [v for v, _ in row] + [d]
        if not all(u < v for u, v in zip(variables, variables[1:])):
            raise ValueError("a row's variables must be strictly increasing indices of x")
    if not all(map(math.isfinite, h + g)):
        raise ValueError("non-finite objective")
    if not all(map(math.isfinite, b + [c for row in rows for _, c in row])):
        raise ValueError("non-finite constraints")
    if not all(v > 0 for v in h):
        raise ValueError("H is not positive definite")
    return solve_diagonal(h, g, rows, b)


def solve_diagonal(h: Sequence[float], g: Sequence[float], rows: Sequence[Row],
                   b: Sequence[float]) -> QPResult:
    """``solve_qp`` with no argument checks: h positive, g, the coefficients
    and b finite, at least one variable (there may be no rows)."""
    max_iter, tol = MAX_ITER, TOL
    x = [-gv / hv for gv, hv in zip(g, h)]
    active: list[int] = []
    lam: list[float] = []
    iterations = 0

    while iterations < max_iter:
        # most violated row, the first of equal minima; active rows too
        p, worst = -1, -tol
        for k, row in enumerate(rows):
            s = 0.0
            for v, c in row:
                s += c * x[v]
            s -= b[k]
            if s < worst:
                p, worst = k, s
        if p < 0:
            return QPResult(x, OPTIMAL, iterations, tuple(active))
        n_p = rows[p]
        lam_p = 0.0

        while iterations < max_iter:
            iterations += 1
            hinv_np = _hinv(n_p, h)
            if active:
                # r solves (N' H^-1 N) r = N' H^-1 n_p over the active rows N,
                # and z = H^-1 n_p - (H^-1 N) r
                hinv_N = [_hinv(rows[k], h) for k in active]
                r = _gauss([[_dot(rows[k], col) for col in hinv_N] for k in active],
                           [_dot(rows[k], hinv_np) for k in active])
                if r is None:
                    return QPResult(x, INFEASIBLE, iterations, tuple(active))
                z = [hv - _dot(enumerate(col), r) for hv, col in zip(hinv_np, zip(*hinv_N))]
            else:
                r = []
                z = hinv_np
            nz = _dot(n_p, z)

            s_p = _dot(n_p, x) - b[p]
            t2 = -s_p / nz if nz > tol else math.inf
            t1, blocking = math.inf, -1
            for k in range(len(active)):
                if r[k] > tol:
                    ratio = lam[k] / r[k]
                    if ratio < t1:
                        t1, blocking = ratio, k
            t = min(t1, t2)
            if not math.isfinite(t):
                # cannot move and nothing to drop: constraints inconsistent
                return QPResult(x, INFEASIBLE, iterations, tuple(active))

            if math.isfinite(t2):
                x = [xv + t * zv for xv, zv in zip(x, z)]
            for k in range(len(active)):
                lam[k] -= t * r[k]
            lam_p += t

            if t == t2:
                active.append(p)
                lam.append(lam_p)
                break
            del active[blocking], lam[blocking]
    return QPResult(x, ITERATION_LIMIT, iterations, tuple(active))


def _dot(pairs: Iterable[tuple[int, float]], vec: Sequence[float]) -> float:
    s = 0.0
    for v, c in pairs:
        s += c * vec[v]
    return s


def _hinv(row: Row, h: Sequence[float]) -> list[float]:
    """H^-1 row as a dense vector."""
    out = [0.0] * len(h)
    for v, c in row:
        out[v] = c / h[v]
    return out


def _gauss(M: list[list[float]], y: list[float]) -> list[float] | None:
    """The solution of ``M r = y`` by Gaussian elimination with partial
    pivoting (the first of equal pivots), or None when a pivot is zero."""
    q = len(y)
    M = [row + [yv] for row, yv in zip(M, y)]
    for col in range(q):
        piv = max(range(col, q), key=lambda i: abs(M[i][col]))
        if M[piv][col] == 0.0:
            return None
        M[col], M[piv] = M[piv], M[col]
        for row in M[col + 1:]:
            f = row[col] / M[col][col]
            for j in range(col + 1, q + 1):
                row[j] -= f * M[col][j]
    r = [0.0] * q
    for i in reversed(range(q)):
        s = M[i][q]
        for j in range(i + 1, q):
            s -= M[i][j] * r[j]
        r[i] = s / M[i][i]
    return r
