"""Dense strictly convex quadratic programming on a diagonal Hessian.

Solves ``min 0.5 x'Hx + g'x  s.t.  Ax >= b`` with a Goldfarb-Idnani dual
active-set method. The solver starts from the unconstrained optimum and adds
violated constraints one at a time, so it needs no feasible starting point and
detects inconsistent constraint sets cleanly. Every QP the simulator builds has
H = diag(h) with h > 0, so each H^-1 v is ``(v * s) * s`` with s = 1/sqrt(h),
the bytes LAPACK ``potrs`` gives on the factor of diag(h) up to a zero's sign.
Problems here are tiny (a few dozen rows), so every step re-solves small dense
systems instead of updating factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class QPResult:
    x: np.ndarray
    status: str
    iterations: int


def solve_qp(
    H: np.ndarray,
    g: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> QPResult:
    """Solve ``min 0.5 x'Hx + g'x`` subject to ``Ax >= b``.

    Returns the optimum and the number of active-set steps taken, or a
    result flagged ``infeasible`` (no x satisfies the constraints) or
    ``iteration_limit``. Raises ValueError for a non-diagonal H, a diagonal
    that is not positive, no variables or malformed shapes.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if H.shape != (d, d):
        raise ValueError("H and g have incompatible shapes")
    if d == 0:
        raise ValueError("the problem has no variables")
    if np.triu(H, 1).any() or np.tril(H, -1).any():
        raise ValueError("H must be diagonal")
    if A is None or len(A) == 0:
        A = np.zeros((0, d))
        b = np.zeros(0)
    else:
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.shape != (b.shape[0], d):
            raise ValueError("A and b have incompatible shapes")
    if not np.all(np.isfinite(H)) or not np.all(np.isfinite(g)):
        raise ValueError("non-finite objective")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
        raise ValueError("non-finite constraints")
    h = H.diagonal()
    if not (h > 0).all():
        raise ValueError("H is not positive definite")
    return solve_diagonal(h, g, A, b, max_iter, tol)


def solve_diagonal(
    h: float | np.ndarray,
    g: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> QPResult:
    """``solve_qp`` on ``H = diag(h)``, with no argument checks.

    ``h`` is a positive float (``H = h * I``) or a positive 1-D array; g, A
    and b must be finite float arrays of matching shapes, with at least one
    variable (A may have no rows).
    """
    s = np.asarray(1.0 / np.sqrt(h))  # numpy multiplies by an array faster than by a scalar
    x = (-g * s) * s
    hinv_A = None  # row k is H^-1 A[k], built once a step is needed: most solves take none
    active: list[int] = []
    lam: list[float] = []
    iterations = 0

    def result(status: str) -> QPResult:
        return QPResult(x, status, iterations)

    while iterations < max_iter:
        slack = A @ x - b
        if active:
            slack[active] = 0.0  # active rows are satisfied by construction
        # most violated row; argmin takes the first of equal minima
        p = int(slack.argmin()) if len(slack) else -1
        if p < 0 or slack[p] >= -tol:
            return result(OPTIMAL)
        n_p = A[p]
        lam_p = 0.0
        if hinv_A is None:
            hinv_A = (A * s) * s

        while iterations < max_iter:
            iterations += 1
            hinv_np = hinv_A[p]
            if active:
                N = A[active].T
                hinv_N = hinv_A[active].T  # F-order: the products below round by layout
                M = N.T @ hinv_N
                try:
                    r = np.linalg.solve(M, N.T @ hinv_np)
                except np.linalg.LinAlgError:
                    return result(INFEASIBLE)
                z = hinv_np - hinv_N @ r
            else:
                r = np.zeros(0)
                z = hinv_np
            nz = float(n_p @ z)

            s_p = float(n_p @ x - b[p])
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
                return result(INFEASIBLE)

            if math.isfinite(t2):
                x = x + t * z
            for k in range(len(active)):
                lam[k] -= t * r[k]
            lam_p += t

            if t == t2:
                active.append(p)
                lam.append(lam_p)
                break
            del active[blocking], lam[blocking]
    return result(ITERATION_LIMIT)
