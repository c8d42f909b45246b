"""Per-tick control synthesis: nominal laws plus the CBF-QP safety filter.

Safety constraints use a squared-distance barrier h = |dp|^2 - r^2 with a
second-order condition (position constraints have relative degree 2 under
acceleration control):

    hddot + (alpha1 + alpha2) * hdot + alpha1 * alpha2 * h >= -s

hddot is linear in the stacked controls of a dynamic unicycle, so each
constraint is one linear row of the QP, built once by ``_rows`` in plain
floats: every two-term dot is written ``a*c + b*d`` and rounded product by
product, with no fused multiply-add. Solving is two-phase: the hard QP first
(slack identically zero when it succeeds), then a slack-penalized QP only
when the hard problem is infeasible; if even that fails the decision falls
back to stop controls for every member. The hard QP's Hessian is 2I, so it
goes straight to the unchecked core ``qp.solve_diagonal``, which starts at
the nominal controls: when they meet every row, its first scan returns them.
The soft problem hands the same sparse rows, each with its slack, to the
checked entry ``qp.solve_qp``.
A decision depends on IEEE-754 arithmetic and libm's sin and cos only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .dynamics import Control, HumanState, RobotState, wrap_angle
from .qp import OPTIMAL, Row, solve_diagonal, solve_qp
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


def _rows(
    members: list[int],
    states: dict[int, RobotState],
    obstacle_points: dict[int, ObstaclePointSet],
    humans: list[HumanState],
    p: ControllerParams,
) -> tuple[list[Row], list[float]]:
    """The hard system ``A @ u >= b`` over the stacked (a, omega) of
    ``members``: the CBF rows (pairs, then each member's obstacle hits, then
    each member against each human), then per variable its upper and lower
    box row. A row at offset dp, relative velocity dv, heading e and normal
    n reads ``2 (dp . e) a + 2 v (dp . n) omega >= -2 |dv|^2 - (alpha1 +
    alpha2) 2 (dp . dv) - alpha1 alpha2 (|dp|^2 - r^2)``; a pair row adds
    the other robot's terms with -2 for 2. Raises ValueError on a non-finite
    entry."""
    isfinite = math.isfinite
    n = len(members)
    kin, trig = [], []  # per member: position and velocity v e; heading e and speed
    for rid in members:
        s = states[rid]
        cos, sin = math.cos(s.theta), math.sin(s.theta)
        kin.append((s.x, s.y, s.v * cos, s.v * sin))
        trig.append((cos, sin, s.v))
    a12, a1a2 = p.alpha1 + p.alpha2, p.alpha1 * p.alpha2
    rows, b = [], []

    def terms(k, dpx, dpy, two):
        # member k's coefficients on its (a, omega) in a row at offset dp
        cos, sin, v = trig[k]
        ca, cw = two * (dpx * cos + dpy * sin), (two * v) * (dpy * cos - dpx * sin)
        if not (isfinite(ca) and isfinite(cw)):
            raise ValueError("non-finite constraints")
        return (2 * k, ca), (2 * k + 1, cw)

    def add(k, dpx, dpy, dvx, dvy, r2, other=()):
        rows.append(terms(k, dpx, dpy, 2.0) + other)
        b.append((-2.0 * (dvx * dvx + dvy * dvy) - a12 * (2.0 * (dpx * dvx + dpy * dvy)))
                 - a1a2 * ((dpx * dpx + dpy * dpy) - r2))

    r2 = p.r_safe * p.r_safe
    for i, j in itertools.combinations(range(n), 2):
        (xi, yi, vxi, vyi), (xj, yj, vxj, vyj) = kin[i], kin[j]
        dpx, dpy = xi - xj, yi - yj
        add(i, dpx, dpy, vxi - vxj, vyi - vyj, r2, terms(j, dpx, dpy, -2.0))
    r2 = p.r_obstacle * p.r_obstacle
    for k, rid in enumerate(members):
        x, y, vx, vy = kin[k]  # static points: dv is the robot's velocity
        for px, py in obstacle_points[rid].hit_points():
            add(k, x - px, y - py, vx, vy, r2)
    if humans:
        r2 = p.r_human_safe * p.r_human_safe
        for (k, (x, y, vx, vy)), h in itertools.product(enumerate(kin), humans):
            add(k, x - h.x, y - h.y, vx - h.vx, vy - h.vy, r2)
    for var in range(2 * n):
        rows += ((var, -1.0),), ((var, 1.0),)
    b += [-p.a_max, -p.a_max, -p.omega_max, -p.omega_max] * n
    if not all(map(isfinite, b)):
        raise ValueError("non-finite constraints")
    return rows, b


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
    g = []  # the objective's linear term, -2 u*
    for rid in members:
        st, nom = states[rid], nominals[rid]
        if not all(map(math.isfinite, (st.x, st.y, st.theta, st.v, nom.a, nom.omega))):
            raise ValueError(f"non-finite state or nominal for robot {rid}")
        g += (-2.0 * nom.a, -2.0 * nom.omega)

    rows, b = _rows(members, states, obstacle_points, humans, p)
    n = 2 * len(members)  # control variables
    m = len(b) - 2 * n  # CBF rows
    hard = solve_diagonal([2.0] * n, g, rows, b)
    if hard.status == OPTIMAL:
        return ControlDecision(_unpack(members, hard.x, p), [0.0] * m, FEASIBLE)

    # soft problem: one slack variable per CBF row, which it relaxes, kept
    # nonnegative; the rows without their zero coefficients
    rows = [[pair for pair in row if pair[1]] for row in rows]
    soft = solve_qp(
        [2.0] * n + [2.0 * p.slack_penalty] * m,
        g + [0.0] * m,
        [row + [(n + k, 1.0)] for k, row in enumerate(rows[:m])]  # CBF rows + slack
        + [[(n + k, 1.0)] for k in range(m)]                     # slack >= 0
        + rows[m:],                                               # box bounds
        b[:m] + [0.0] * m + b[m:],
    )
    if soft.status == OPTIMAL:
        slack = [max(0.0, s) for s in soft.x[n:]]
        return ControlDecision(_unpack(members, soft.x, p), slack, FEASIBLE_WITH_SLACK)

    stops = {rid: stop_control(states[rid], p) for rid in members}
    return ControlDecision(stops, [], INFEASIBLE_FALLBACK)


def _unpack(members: list[int], x: list[float], p: ControllerParams) -> dict[int, Control]:
    # clip away solver-tolerance overshoot so box bounds hold exactly
    return {
        rid: Control(_clip(x[2 * k], p.a_max), _clip(x[2 * k + 1], p.omega_max))
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
