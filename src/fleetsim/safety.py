"""Per-tick control synthesis: nominal laws plus the CBF-QP safety filter.

Safety constraints use a squared-distance barrier h = |dp|^2 - r^2 with a
second-order condition (position constraints have relative degree 2 under
acceleration control):

    hddot + (alpha1 + alpha2) * hdot + alpha1 * alpha2 * h >= -s

hddot is linear in the stacked controls of a dynamic unicycle, so each
constraint is one linear row of the QP. Solving is two-phase: the hard QP
first (slack identically zero when it succeeds), then a slack-penalized QP
only when the hard problem is infeasible; if even that fails the decision
falls back to stop controls for every member. The hard QP's Hessian is 2I at
every size, so it runs on a Cholesky factor cached per size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor

from .dynamics import Control, HumanState, RobotState, wrap_angle
from .qp import OPTIMAL, solve_factored, solve_qp
from .world import ObstaclePointSet

FEASIBLE = "feasible"
FEASIBLE_WITH_SLACK = "feasible-with-slack"
INFEASIBLE_FALLBACK = "infeasible-fallback"


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
    ``point_barrier``'s terms, computed in place with the same float operations.
    """
    n = len(members)
    hits = [obstacle_points[rid].hit_points() for rid in members]
    m = n * (n - 1) // 2 + sum(map(len, hits)) + n * len(humans)
    A = np.zeros((m + 4 * n, 2 * n))
    b = np.empty(m + 4 * n)
    A[m:], b[m:] = _box_rows(2 * n, p.a_max, p.omega_max)
    gain = p.alpha1 + p.alpha2
    decay = p.alpha1 * p.alpha2
    # per member: state, heading e, its normal, velocity v * e
    kin = []
    for rid in members:
        s = states[rid]
        e = np.array([math.cos(s.theta), math.sin(s.theta)])
        kin.append((s, e, np.array([-e[1], e[0]]), s.v * e))

    # Each product stays a numpy 2-vector dot: BLAS rounds it as
    # fma(b, d, a*c), and scalar a*c + b*d would move the trace bytes.
    def put(row: int, k: int, dp: np.ndarray, dv: np.ndarray, c0: float, r: float) -> None:
        s, e, normal, _ = kin[k]
        A[row, 2 * k] = 2.0 * float(dp.dot(e))
        A[row, 2 * k + 1] = 2.0 * s.v * float(dp.dot(normal))
        h = float(dp.dot(dp)) - r * r
        hdot = 2.0 * float(dp.dot(dv))
        b[row] = -c0 - gain * hdot - decay * h

    row = 0
    for a_idx in range(n):
        s_i, _, _, ve_i = kin[a_idx]
        for b_idx in range(a_idx + 1, n):
            s_j, e_j, normal_j, ve_j = kin[b_idx]
            dp = np.array([s_i.x - s_j.x, s_i.y - s_j.y])
            dv = ve_i - ve_j
            put(row, a_idx, dp, dv, 2.0 * float(dv.dot(dv)), p.r_safe)
            A[row, 2 * b_idx] = -2.0 * float(dp.dot(e_j))
            A[row, 2 * b_idx + 1] = -2.0 * s_j.v * float(dp.dot(normal_j))
            row += 1
    for k, pts in enumerate(hits):
        if not pts:
            continue
        s, _, _, ve = kin[k]
        c0 = 2.0 * float(ve.dot(ve))  # static points: dv is the robot's velocity
        for dp in np.array([s.x, s.y]) - np.array(pts):
            put(row, k, dp, ve, c0, p.r_obstacle)
            row += 1
    for k in range(n):
        s, _, _, ve = kin[k]
        for hum in humans:
            dp = np.array([s.x - hum.x, s.y - hum.y])
            dv = ve - np.array([hum.vx, hum.vy])
            put(row, k, dp, dv, 2.0 * float(dv.dot(dv)), p.r_human_safe)
            row += 1
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


@functools.cache
def _hard_factor(n_vars: int) -> tuple[np.ndarray, bool]:
    """``cho_factor`` of the hard problem's H = 2I, shared by every solve of its size."""
    c, lower = cho_factor(2.0 * np.eye(n_vars))
    c.flags.writeable = False
    return c, lower


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
    """
    if not members:
        raise ValueError("empty cluster")
    for rid in members:
        st = states[rid]
        nom = nominals[rid]
        if not all(math.isfinite(u) for u in (st.x, st.y, st.theta, st.v, nom.a, nom.omega)):
            raise ValueError(f"non-finite state or nominal for robot {rid}")

    n = len(members)
    u_star = np.empty(2 * n)
    for k, rid in enumerate(members):
        u_star[2 * k] = nominals[rid].a
        u_star[2 * k + 1] = nominals[rid].omega

    A, b = _assemble(members, states, obstacle_points, humans, p)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite constraints")
    hard = solve_factored(_hard_factor(2 * n), -2.0 * u_star, A, b)
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


def _unpack(members: list[int], x: np.ndarray, p: ControllerParams) -> dict[int, Control]:
    # clip away solver-tolerance overshoot so box bounds hold exactly
    return {
        rid: Control(_clip(float(x[2 * k]), p.a_max), _clip(float(x[2 * k + 1]), p.omega_max))
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
