"""Robot and pedestrian motion models.

Robots follow a dynamic unicycle integrated with RK4; pedestrians follow a
social-force model integrated with semi-implicit Euler. Both steppers are pure
functions returning new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# longest RK4 substep; larger requested steps are split evenly
MAX_SUBSTEP = 0.05

# social-force model (Helbing & Molnar 1995)
TAU = 0.5  # s, relaxation time toward the desired velocity
REPULSE_STRENGTH = 2.0  # m/s^2, repulsion at body contact
REPULSE_RANGE = 0.35  # m, e-folding distance of the repulsion
FORCE_CAP = 10.0  # m/s^2, cap on each repulsion term
WAYPOINT_TOLERANCE = 0.3  # m, distance that counts as reaching a waypoint
MAX_SPEED_FACTOR = 1.3  # speed cap as a multiple of v_desired


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = (theta + math.pi) % (2.0 * math.pi) - math.pi
    if wrapped == -math.pi:
        return math.pi
    return wrapped


@dataclass(frozen=True)
class RobotState:
    """Dynamic unicycle state: planar pose plus signed forward speed."""

    x: float
    y: float
    theta: float
    v: float


@dataclass(frozen=True)
class Control:
    """Forward acceleration and yaw rate."""

    a: float
    omega: float


@dataclass(frozen=True)
class HumanSpec:
    """A pedestrian's start, cyclic waypoint route and desired speed."""

    start: tuple[float, float]
    waypoints: tuple[tuple[float, float], ...] = ()
    v_desired: float = 1.0


@dataclass(frozen=True)
class HumanState:
    """Pedestrian position, velocity and index of its current waypoint."""

    x: float
    y: float
    vx: float
    vy: float
    goal_index: int = 0


def step_robot(
    state: RobotState,
    control: Control,
    dt: float,
    v_max: float = 1.0,
) -> RobotState:
    """Advance the unicycle by dt under constant control.

    Steps longer than MAX_SUBSTEP are split into equal RK4 substeps. After
    each substep the speed is clamped to [-v_max, v_max] and the heading is
    renormalized, so the returned state always satisfies both bounds.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    values = (state.x, state.y, state.theta, state.v, control.a, control.omega, dt)
    if not all(math.isfinite(u) for u in values):
        raise ValueError("non-finite state or control")

    n_sub = max(1, math.ceil(dt / MAX_SUBSTEP - 1e-12))
    h = dt / n_sub
    half = 0.5 * h
    sixth = h / 6.0
    x, y, theta, v = state.x, state.y, state.theta, state.v
    a, omega = control.a, control.omega
    # the derivative (v cos theta, v sin theta, omega, a) reads only theta and
    # v; its last two components are constant, and k3 equals k2 because both
    # midpoints move theta and v by the same half step
    d_theta = sixth * (omega + 2.0 * omega + 2.0 * omega + omega)
    d_v = sixth * (a + 2.0 * a + 2.0 * a + a)
    for _ in range(n_sub):
        mid_theta = theta + half * omega
        mid_v = v + half * a
        end_theta = theta + h * omega
        end_v = v + h * a
        k2x = mid_v * math.cos(mid_theta)
        k2y = mid_v * math.sin(mid_theta)
        x += sixth * (v * math.cos(theta) + 2.0 * k2x + 2.0 * k2x + end_v * math.cos(end_theta))
        y += sixth * (v * math.sin(theta) + 2.0 * k2y + 2.0 * k2y + end_v * math.sin(end_theta))
        theta += d_theta
        v = min(max(v + d_v, -v_max), v_max)
    return RobotState(x, y, wrap_angle(theta), v)


def _hypot(x: float, y: float) -> float:
    """C's ``hypot(x, y)``, the libm function numpy's ``np.hypot`` calls.

    Complex ``abs`` calls it too, without ``np.hypot``'s per-call cost on
    scalars; ``math.hypot`` is a different algorithm and differs in the last
    bit on some inputs. Complex ``abs`` raises OverflowError where the result
    overflows (``np.hypot`` gives inf), and on a nan part whenever an earlier
    libm call left ``errno`` at ERANGE (``np.hypot`` gives nan). It answers
    inf for an infinite part without calling ``hypot``, which gives nan when
    the other part is a signalling nan; arithmetic makes no signalling nans.
    """
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.nan if math.isnan(x) or math.isnan(y) else math.inf


def step_human(
    human: HumanState,
    spec: HumanSpec,
    robot_positions: list[tuple[float, float]],
    other_humans: list[HumanState],
    obstacle_points: list[tuple[float, float]],
    dt: float,
    r_robot: float,
    r_human: float,
) -> HumanState:
    """Advance one pedestrian by dt under the social-force model.

    Force terms: goal attraction (v_desired toward the current waypoint,
    relaxation time TAU) plus exponential repulsion from robots, other humans
    and sensed obstacle points, each repulsion capped at FORCE_CAP.
    Integration is semi-implicit Euler with the speed capped at
    MAX_SPEED_FACTOR * v_desired. Reaching a waypoint (within
    WAYPOINT_TOLERANCE) cycles to the next one.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, vx, vy = human.x, human.y, human.vx, human.vy

    fx = fy = 0.0  # summing onto +0.0 turns a -0.0 term into +0.0
    if spec.waypoints:
        gx, gy = spec.waypoints[human.goal_index]
        tx, ty = gx - x, gy - y
        dist = _hypot(tx, ty)
        if dist > 1e-12:
            wx, wy = spec.v_desired * tx / dist, spec.v_desired * ty / dist
        else:
            wx = wy = 0.0
        fx += (wx - vx) / TAU
        fy += (wy - vy) / TAU
    # exponential repulsion along the line from each source to the human
    exp = math.exp
    for sources, radius_sum in (
        (robot_positions, r_human + r_robot),
        ([(o.x, o.y) for o in other_humans], 2.0 * r_human),
        (obstacle_points, r_human),
    ):
        for sx, sy in sources:
            dx, dy = x - sx, y - sy
            try:  # _hypot, inlined on the hot path
                dist = abs(complex(dx, dy))
            except OverflowError:
                dist = _hypot(dx, dy)
            magnitude = REPULSE_STRENGTH * exp((radius_sum - dist) / REPULSE_RANGE)
            if magnitude > FORCE_CAP:
                magnitude = FORCE_CAP
            if dist < 1e-12:  # overlapping bodies: push along +x
                fx += magnitude
            else:
                fx += magnitude * (dx / dist)
                fy += magnitude * (dy / dist)

    vx = vx + fx * dt
    vy = vy + fy * dt
    speed = _hypot(vx, vy)
    cap = MAX_SPEED_FACTOR * spec.v_desired
    if speed > cap:
        vx = vx * (cap / speed)
        vy = vy * (cap / speed)
    x = x + vx * dt
    y = y + vy * dt

    goal_index = human.goal_index
    if spec.waypoints:
        gx, gy = spec.waypoints[goal_index]
        if _hypot(gx - x, gy - y) <= WAYPOINT_TOLERANCE:
            goal_index = (goal_index + 1) % len(spec.waypoints)
    return HumanState(x, y, vx, vy, goal_index)
