"""Per-tick control synthesis: nominal laws plus the CBF-QP safety filter.

Safety constraints use a squared-distance barrier h = |dp|^2 - r^2 with a
second-order condition (position constraints have relative degree 2 under
acceleration control):

    hddot + (alpha1 + alpha2) * hdot + alpha1 * alpha2 * h >= -s

hddot is linear in the stacked controls of a dynamic unicycle, so each
constraint is one linear row of the QP. Solving is two-phase: the hard QP
first (slack identically zero when it succeeds), then a slack-penalized QP
only when the hard problem is infeasible; if even that fails the decision
falls back to stop controls for every member. Both Hessians are diagonal:
the hard QP's is 2I at every size, so it goes straight to the unchecked core
``qp.solve_diagonal`` with h = 2.0.

Most hard QPs are solved by their starting point. The filter is minimally
invasive: when the nominal controls already meet every row, the filtered
controls are the nominal ones, and the dual active-set solver, which starts
from the unconstrained optimum x = ((2u) * s) * s with s = 1/sqrt(2), returns
after zero steps. ``_nominal_decision`` tests exactly that in plain floats
before any array is built, and returns the decision the full path would
return, or None to fall through to it:

- On a box row ``A @ x`` is exactly -x or x, so ``a_max - x`` and
  ``x + a_max`` (likewise for omega) are the solver's slacks bit for bit,
  tested against ``-TOL`` as it tests them.
- A barrier row's slack is evaluated in plain floats, where ``_assemble``
  and the solver take BLAS dots whose rounding (fma or not, summation
  order) is the kernel's. Both evaluations expand to the same monomials in
  the same inputs (each row's offsets dp and dv, cos and sin, 2v, x, the
  alphas and r^2), with at most 8 roundings on any monomial (a pair row's
  ``A @ x`` sums four nonzero products; its zero entries add exactly), so
  each lies within gamma_8 * E of the exact slack (Higham, "Accuracy and
  Stability of Numerical Algorithms", chap. 3), where u = 2^-53,
  gamma_8 = 8u/(1 - 8u) < 9e-16 and E is the sum of the monomials'
  absolute values. The row's ``mag``
  bounds E from above, so the two evaluations differ by less than
  1.8e-15 * mag and the test's own rounding by less than 3e-16 * mag.
  A row is accepted only when ``slack - REL * mag >= -TOL``: with
  REL = 1e-12 that is over 400 times the gap, so an accepted row is one
  the solver's slack also finds satisfied. Underflow adds at most a few
  2^-1074, far below REL * mag whenever the slack is near -TOL.
- ``mag`` weighs each |x| by 1 plus its box bound, at least 1 and at
  least |x|, so it also bounds each entry of the row's A and b; requiring ``mag <= MAG_MAX`` keeps both evaluations
  finite, and a row whose A or b would overflow falls through to the full
  path's "non-finite constraints" error.

Accepted decisions therefore depend on IEEE-754 arithmetic and libm's sin
and cos only, not on the BLAS kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Control, HumanState, RobotState, wrap_angle
from .qp import OPTIMAL, solve_diagonal, solve_qp
from .world import ObstaclePointSet

FEASIBLE = "feasible"
FEASIBLE_WITH_SLACK = "feasible-with-slack"
INFEASIBLE_FALLBACK = "infeasible-fallback"

# the hard solve's optimality tolerance, ``solve_diagonal``'s default
TOL = 1e-9
# relative margin on a barrier row's slack, over 400x the rounding gap
# between the plain-float and the BLAS evaluation (module docstring)
REL = 1e-12
# largest row magnitude accepted: keeps both evaluations finite
MAG_MAX = 1e300
_S = 1.0 / math.sqrt(2.0)  # ``solve_diagonal``'s s for h = 2.0


@dataclass(frozen=True)
class ControllerParams:
    k_v: float = 1.0
    k_theta: float = 2.0
    k_slow: float = -2.0
    theta_bar: float = math.pi / 4
    v_max: float = 1.0
    a_max: float = 2.0
    omega_max: float = 2.0
    delta: float = 0.5
    d_arrive: float = 0.3
    r_robot: float = 0.3
    r_safe: float = 0.8
    alpha1: float = 1.5
    alpha2: float = 1.5
    slack_penalty: float = 1e4
    r_human: float = 0.35

    def __post_init__(self) -> None:
        positive = {
            "k_v": self.k_v, "k_theta": self.k_theta, "v_max": self.v_max,
            "a_max": self.a_max, "omega_max": self.omega_max, "delta": self.delta,
            "d_arrive": self.d_arrive, "r_robot": self.r_robot,
            "alpha1": self.alpha1, "alpha2": self.alpha2,
            "slack_penalty": self.slack_penalty, "r_human": self.r_human,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.k_slow < 0:
            raise ValueError(f"k_slow must be negative, got {self.k_slow}")
        if not 0 < self.theta_bar < math.pi:
            raise ValueError(f"theta_bar must lie in (0, pi), got {self.theta_bar}")
        if self.r_safe < 2 * self.r_robot:
            raise ValueError("r_safe must be at least 2 * r_robot")

    @property
    def r_obstacle(self) -> float:
        """Center-to-obstacle-point keepout: robot radius plus the pair margin."""
        return self.r_safe - self.r_robot

    @property
    def r_human_safe(self) -> float:
        """Center-to-human keepout: both radii plus the pair margin."""
        return self.r_safe - self.r_robot + self.r_human


@dataclass(frozen=True)
class ControlDecision:
    controls: dict[int, Control]
    slack_used: list[float] = field(default_factory=list)
    qp_status: str = FEASIBLE


def nominal_stop(state: RobotState, p: ControllerParams) -> Control:
    """Braking law: decelerate proportionally to speed, no turning."""
    a = min(max(p.k_slow * state.v, -p.v_max), p.v_max)
    return Control(a, 0.0)


def stop_control(state: RobotState, p: ControllerParams) -> Control:
    """The braking law clipped to the acceleration bound: all-stop and QP fallback."""
    return Control(_clip(nominal_stop(state, p).a, p.a_max), 0.0)


def nominal_leader(state: RobotState, waypoint: tuple[float, float], p: ControllerParams) -> Control:
    """Waypoint-seeking law for a cluster leader (or a lone robot).

    Aligns the heading at gain k_theta and regulates speed toward
    v* = clamp(k_v * d * cos(theta_hat), 0, v_max). Large heading error turns
    in place; arrival inside d_arrive hands over to the stop law. The output
    is unclamped, the QP box bounds enforce actuator limits.
    """
    dx = waypoint[0] - state.x
    dy = waypoint[1] - state.y
    d = math.hypot(dx, dy)
    if d < p.d_arrive:
        return nominal_stop(state, p)
    theta_hat = wrap_angle(math.atan2(dy, dx) - state.theta)
    if abs(theta_hat) > p.theta_bar:
        return Control(0.0, p.k_theta * theta_hat)
    v_star = max(0.0, min(p.k_v * d * math.cos(theta_hat), p.v_max))
    return Control(p.k_v * (v_star - state.v), p.k_theta * theta_hat)


@dataclass(frozen=True)
class BarrierTerms:
    """One second-order barrier row: h, hdot, the control-free part of hddot,
    and hddot's linear coefficients on each involved robot's (a, omega)."""

    h: float
    hdot: float
    c0: float
    coef_i: tuple[float, float]
    coef_j: tuple[float, float] | None = None


def point_barrier(
    s_i: RobotState,
    point: tuple[float, float],
    velocity: tuple[float, float],
    r: float,
) -> BarrierTerms:
    """Barrier terms against a point moving at constant velocity
    (static obstacles pass (0, 0))."""
    e_i = np.array([math.cos(s_i.theta), math.sin(s_i.theta)])
    n_i = np.array([-e_i[1], e_i[0]])
    dp = np.array([s_i.x - point[0], s_i.y - point[1]])
    dv = s_i.v * e_i - np.asarray(velocity, dtype=float)
    h = float(dp @ dp) - r * r
    hdot = 2.0 * float(dp @ dv)
    c0 = 2.0 * float(dv @ dv)
    coef_i = (2.0 * float(dp @ e_i), 2.0 * s_i.v * float(dp @ n_i))
    return BarrierTerms(h, hdot, c0, coef_i)


def pair_barrier(s_i: RobotState, s_j: RobotState, r: float) -> BarrierTerms:
    """Barrier terms for two unicycles keeping center distance at least r:
    the point barrier against s_j moving at its velocity, plus coef_j."""
    e_j = np.array([math.cos(s_j.theta), math.sin(s_j.theta)])
    n_j = np.array([-e_j[1], e_j[0]])
    dp = np.array([s_i.x - s_j.x, s_i.y - s_j.y])
    t = point_barrier(s_i, (s_j.x, s_j.y), s_j.v * e_j, r)
    coef_j = (-2.0 * float(dp @ e_j), -2.0 * s_j.v * float(dp @ n_j))
    return BarrierTerms(t.h, t.hdot, t.c0, t.coef_i, coef_j)


def _assemble(
    members: list[int],
    states: dict[int, RobotState],
    obstacle_points: dict[int, ObstaclePointSet],
    humans: list[HumanState],
    p: ControllerParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The hard system (A, b), A @ u >= b over stacked controls: the CBF
    rows, then the 4n box rows of ``_box_rows``.

    CBF rows come pairs first, then each member's obstacle hits, then each
    member against each human. Every one holds ``pair_barrier``'s or
    ``point_barrier``'s terms with the same float operations: each row's dp
    and dv are built from plain floats, and each kind of product is one
    ``np.vecdot`` over all rows, written into A by one indexed store per
    member role.
    """
    n = len(members)
    hits = [obstacle_points[rid].hit_points() for rid in members]
    m = n * (n - 1) // 2 + sum(map(len, hits)) + n * len(humans)
    A = np.zeros((m + 4 * n, 2 * n))
    b = np.empty(m + 4 * n)
    A[m:], b[m:] = _box_rows(2 * n, p.a_max, p.omega_max)
    if not m:
        return A, b
    # per member: position and velocity v * e; the coefficients of a row's
    # dots with heading e and its normal: (e, normal, 2, 2v) for the member
    # a row constrains, (e, normal, -2, -2v) for a pair's other robot
    kin, coef = [], []
    for rid in members:
        s = states[rid]
        cos, sin = math.cos(s.theta), math.sin(s.theta)
        kin.append((s.x, s.y, s.v * cos, s.v * sin))
        coef.append((cos, sin, -sin, cos, 2.0, 2.0 * s.v, -2.0, -2.0 * s.v))

    # per CBF row: (dp, dv, r^2) and the member it constrains
    rows, own, other = [], [], []
    r2 = p.r_safe * p.r_safe
    for i in range(n):
        xi, yi, vxi, vyi = kin[i]
        for j in range(i + 1, n):
            xj, yj, vxj, vyj = kin[j]
            rows.append((xi - xj, yi - yj, vxi - vxj, vyi - vyj, r2))
            own.append(i)
            other.append(j)
    r2 = p.r_obstacle * p.r_obstacle
    for k, pts in enumerate(hits):
        x, y, vx, vy = kin[k]  # static points: dv is the robot's velocity
        rows += [(x - px, y - py, vx, vy, r2) for px, py in pts]
        own += [k] * len(pts)
    r2 = p.r_human_safe * p.r_human_safe
    for k in range(n):
        x, y, vx, vy = kin[k]
        rows += [(x - h.x, y - h.y, vx - h.vx, vy - h.vy, r2) for h in humans]
        own += [k] * len(humans)

    # Each product is a BLAS 2-vector dot, rounded as fma(b, d, a*c) like
    # u.dot(v); np.vecdot calls that kernel once per row, while scalar
    # a*c + b*d or einsum would move the trace bytes.
    R = np.fromiter(itertools.chain.from_iterable(rows), float, 5 * m).reshape(m, 5)
    coef, own = np.array(coef), np.array(own)
    dp = R[:, None, 0:2]
    A_cbf = A[:m].reshape(m, n, 2)  # row, member, (a, omega)
    index = np.arange(m)
    c = coef[own]
    A_cbf[index, own] = c[:, 4:6] * np.vecdot(dp, c[:, 0:4].reshape(m, 2, 2))
    if other:  # pair rows come first
        n_pairs = len(other)
        c = coef[other]
        A_cbf[index[:n_pairs], other] = c[:, 6:8] * np.vecdot(
            dp[:n_pairs], c[:, 0:4].reshape(n_pairs, 2, 2))
    dp_dp, dp_dv = np.vecdot(dp, R[:, 0:4].reshape(m, 2, 2)).T
    dv = R[:, 2:4]
    b[:m] = (-2.0 * np.vecdot(dv, dv) - (p.alpha1 + p.alpha2) * (2.0 * dp_dv)
             - (p.alpha1 * p.alpha2) * (dp_dp - R[:, 4]))
    return A, b


@functools.cache
def _box_rows(n_vars: int, a_max: float, omega_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked (a, omega) variable: the upper bound row, then the lower.
    Read-only, shared by every solve of its size and bounds."""
    A = np.zeros((2 * n_vars, n_vars))
    for var in range(n_vars):
        A[2 * var, var] = -1.0
        A[2 * var + 1, var] = 1.0
    b = -np.array([a_max, a_max, omega_max, omega_max] * (n_vars // 2))
    A.flags.writeable = b.flags.writeable = False
    return A, b


def _clip(value: float, limit: float) -> float:
    return min(max(value, -limit), limit)


def solve_cluster_qp(
    members: list[int],
    states: dict[int, RobotState],
    nominals: dict[int, Control],
    obstacle_points: dict[int, ObstaclePointSet],
    humans: list[HumanState],
    p: ControllerParams,
) -> ControlDecision:
    """Filter the cluster's nominal controls through the joint CBF-QP.

    Minimizes sum |u_i - u_i*|^2 subject to every pairwise, obstacle and
    human barrier row plus control box bounds. Falls back to a slack-penalized
    problem (penalty slack_penalty * s^2 per row) when the hard QP is
    infeasible, and to stop controls for everyone when even that fails.
    Nominal controls that already satisfy every row are decided by
    ``_nominal_decision`` without building the QP.
    """
    if not members:
        raise ValueError("empty cluster")
    for rid in members:
        st = states[rid]
        nom = nominals[rid]
        if not all(map(math.isfinite, (st.x, st.y, st.theta, st.v, nom.a, nom.omega))):
            raise ValueError(f"non-finite state or nominal for robot {rid}")

    decision = _nominal_decision(members, states, nominals, obstacle_points, humans, p)
    if decision is not None:
        return decision

    n = len(members)
    u_star = np.array(
        [u for rid in members for u in (nominals[rid].a, nominals[rid].omega)], dtype=float
    )

    A, b = _assemble(members, states, obstacle_points, humans, p)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite constraints")
    hard = solve_diagonal(2.0, -2.0 * u_star, A, b)
    m = len(b) - 4 * n  # CBF rows
    if hard.status == OPTIMAL:
        return ControlDecision(
            _unpack(members, hard.x, p), [0.0] * m, FEASIBLE
        )

    # soft problem: append one slack variable per CBF row
    A_cbf, A_box, b_cbf, b_box = A[:m], A[m:], b[:m], b[m:]
    H = np.diag([2.0] * (2 * n) + [2.0 * p.slack_penalty] * m)
    g = np.concatenate([-2.0 * u_star, np.zeros(m)])
    soft = solve_qp(
        H,
        g,
        np.block([
            [A_cbf, np.eye(m)],                       # CBF rows + slack
            [np.zeros((m, 2 * n)), np.eye(m)],        # slack >= 0
            [A_box, np.zeros((A_box.shape[0], m))],   # box bounds
        ]),
        np.concatenate([b_cbf, np.zeros(m), b_box]),
    )
    if soft.status == OPTIMAL:
        slack = [max(0.0, float(s)) for s in soft.x[2 * n:]]
        return ControlDecision(_unpack(members, soft.x, p), slack, FEASIBLE_WITH_SLACK)

    stops = {rid: stop_control(states[rid], p) for rid in members}
    return ControlDecision(stops, [], INFEASIBLE_FALLBACK)


def _nominal_decision(
    members: list[int],
    states: dict[int, RobotState],
    nominals: dict[int, Control],
    obstacle_points: dict[int, ObstaclePointSet],
    humans: list[HumanState],
    p: ControllerParams,
) -> ControlDecision | None:
    """The hard solve's decision when its starting point, the nominal
    controls, satisfies every row; None at the first row it cannot accept.
    The tests and their error bound are in the module docstring."""
    a_max, omega_max = p.a_max, p.omega_max
    if not (a_max <= MAG_MAX and omega_max <= MAG_MAX):
        return None  # an infinite bound makes the full path raise
    # per member: position, velocity v * e, the gradient (gx, gy) of the
    # row's A @ x in dp, and the weight of dp's size in mag: x is inside
    # the box, so 1 + a_max and 1 + omega_max bound |x| and are at least 1
    kin, controls = [], {}
    wa, ww = 2.0 * (1.0 + a_max), 2.0 * (1.0 + omega_max)
    for rid in members:
        nom, s = nominals[rid], states[rid]
        xa = ((2.0 * nom.a) * _S) * _S
        xw = ((2.0 * nom.omega) * _S) * _S
        if not (a_max - xa >= -TOL and xa + a_max >= -TOL
                and omega_max - xw >= -TOL and xw + omega_max >= -TOL):
            return None
        controls[rid] = Control(_clip(xa, a_max), _clip(xw, omega_max))
        cos, sin = math.cos(s.theta), math.sin(s.theta)
        ta, tw = 2.0 * xa, (2.0 * s.v) * xw
        kin.append((s.x, s.y, s.v * cos, s.v * sin, ta * cos - tw * sin, ta * sin + tw * cos,
                    wa + abs(s.v) * ww))

    a12, a1a2 = 2.0 * (p.alpha1 + p.alpha2), p.alpha1 * p.alpha2

    def holds(dpx, dpy, dvx, dvy, lin, w, r2):
        # slack = A @ x - b of the row, b summed as _assemble sums it
        dvv = 2.0 * (dvx * dvx + dvy * dvy)
        dpv = dpx * dvx + dpy * dvy
        dpp = dpx * dpx + dpy * dpy
        slack = lin + ((dvv + a12 * dpv) + a1a2 * (dpp - r2))
        mag = (w * (abs(dpx) + abs(dpy)) + dvv
               + a12 * (abs(dpx * dvx) + abs(dpy * dvy)) + a1a2 * (dpp + r2))
        return slack - REL * mag >= -TOL and mag <= MAG_MAX

    m = 0
    r2 = p.r_human_safe * p.r_human_safe
    for x, y, vx, vy, gx, gy, w in kin:
        for h in humans:
            dpx, dpy = x - h.x, y - h.y
            if not holds(dpx, dpy, vx - h.vx, vy - h.vy, dpx * gx + dpy * gy, w, r2):
                return None
    m += len(kin) * len(humans)
    r2 = p.r_safe * p.r_safe
    for i, (xi, yi, vxi, vyi, gxi, gyi, wi) in enumerate(kin):
        for xj, yj, vxj, vyj, gxj, gyj, wj in kin[i + 1:]:
            dpx, dpy = xi - xj, yi - yj
            lin = (dpx * gxi + dpy * gyi) - (dpx * gxj + dpy * gyj)
            if not holds(dpx, dpy, vxi - vxj, vyi - vyj, lin, wi + wj, r2):
                return None
            m += 1
    r2 = p.r_obstacle * p.r_obstacle
    for rid, (x, y, vx, vy, gx, gy, w) in zip(members, kin):
        for px, py in obstacle_points[rid].hit_points():
            dpx, dpy = x - px, y - py
            if not holds(dpx, dpy, vx, vy, dpx * gx + dpy * gy, w, r2):
                return None
            m += 1
    return ControlDecision(controls, [0.0] * m, FEASIBLE)


def _unpack(members: list[int], x: np.ndarray, p: ControllerParams) -> dict[int, Control]:
    # clip away solver-tolerance overshoot so box bounds hold exactly
    u = x.tolist()
    return {
        rid: Control(_clip(u[2 * k], p.a_max), _clip(u[2 * k + 1], p.omega_max))
        for k, rid in enumerate(members)
    }


def solve_single_qp(
    state: RobotState,
    nominal: Control,
    obstacle_points: ObstaclePointSet,
    humans: list[HumanState],
    p: ControllerParams,
    robot_id: int = 0,
) -> ControlDecision:
    """Single-robot CBF-QP: obstacle and human constraints only."""
    return solve_cluster_qp(
        [robot_id],
        {robot_id: state},
        {robot_id: nominal},
        {robot_id: obstacle_points},
        humans,
        p,
    )
