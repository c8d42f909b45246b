"""Robot and pedestrian motion models.

Robots follow a dynamic unicycle integrated with RK4; pedestrians follow a
social-force model integrated with semi-implicit Euler. Both steppers are pure
functions returning new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# longest RK4 substep; larger requested steps are split evenly
MAX_SUBSTEP = 0.05


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


@dataclass
class HumanState:
    """Pedestrian with a cyclic waypoint list."""

    position: np.ndarray  # shape (2,)
    velocity: np.ndarray  # shape (2,)
    goal_waypoints: list[tuple[float, float]] = field(default_factory=list)
    current_goal_index: int = 0


@dataclass(frozen=True)
class SocialForceParams:
    v_desired: float = 1.0
    tau: float = 0.5
    repulse_strength: float = 2.0
    repulse_range: float = 0.35
    force_cap: float = 10.0
    r_human: float = 0.35
    r_robot: float = 0.3
    waypoint_tolerance: float = 0.3
    max_speed_factor: float = 1.3


def _unicycle_deriv(x: float, y: float, theta: float, v: float, a: float, omega: float):
    return (v * math.cos(theta), v * math.sin(theta), omega, a)


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
    x, y, theta, v = state.x, state.y, state.theta, state.v
    a, omega = control.a, control.omega
    for _ in range(n_sub):
        k1 = _unicycle_deriv(x, y, theta, v, a, omega)
        k2 = _unicycle_deriv(
            x + 0.5 * h * k1[0], y + 0.5 * h * k1[1],
            theta + 0.5 * h * k1[2], v + 0.5 * h * k1[3], a, omega,
        )
        k3 = _unicycle_deriv(
            x + 0.5 * h * k2[0], y + 0.5 * h * k2[1],
            theta + 0.5 * h * k2[2], v + 0.5 * h * k2[3], a, omega,
        )
        k4 = _unicycle_deriv(
            x + h * k3[0], y + h * k3[1], theta + h * k3[2], v + h * k3[3], a, omega,
        )
        x += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        theta += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        v += h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        v = min(max(v, -v_max), v_max)
    return RobotState(x, y, wrap_angle(theta), v)


def _repulsion(
    delta: np.ndarray, radius_sum: float, params: SocialForceParams
) -> np.ndarray:
    """Exponential repulsion along delta (from the other body toward the human)."""
    dist = float(np.hypot(delta[0], delta[1]))
    if dist < 1e-12:
        direction = np.array([1.0, 0.0])  # overlapping bodies: push along +x
    else:
        direction = delta / dist
    magnitude = params.repulse_strength * math.exp(
        (radius_sum - dist) / params.repulse_range
    )
    return min(magnitude, params.force_cap) * direction


def step_human(
    human: HumanState,
    robot_positions: list[tuple[float, float]],
    other_humans: list[HumanState],
    obstacle_points: list[tuple[float, float]],
    dt: float,
    params: SocialForceParams = SocialForceParams(),
) -> HumanState:
    """Advance one pedestrian by dt under the social-force model.

    Force terms: goal attraction (v_desired toward the current waypoint,
    relaxation time tau) plus exponential repulsion from robots, other humans
    and sensed obstacle points, each term capped at force_cap. Integration is
    semi-implicit Euler with the speed capped at max_speed_factor * v_desired.
    Reaching a waypoint (within waypoint_tolerance) cycles to the next one.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos = np.asarray(human.position, dtype=float)
    vel = np.asarray(human.velocity, dtype=float)

    force = np.zeros(2)
    if human.goal_waypoints:
        goal = np.asarray(human.goal_waypoints[human.current_goal_index], dtype=float)
        to_goal = goal - pos
        dist = float(np.hypot(to_goal[0], to_goal[1]))
        desired = params.v_desired * to_goal / dist if dist > 1e-12 else np.zeros(2)
        force += (desired - vel) / params.tau
    for rp in robot_positions:
        force += _repulsion(pos - np.asarray(rp, float), params.r_human + params.r_robot, params)
    for other in other_humans:
        force += _repulsion(pos - np.asarray(other.position, float), 2.0 * params.r_human, params)
    for op in obstacle_points:
        force += _repulsion(pos - np.asarray(op, float), params.r_human, params)

    vel = vel + force * dt
    speed = float(np.hypot(vel[0], vel[1]))
    cap = params.max_speed_factor * params.v_desired
    if speed > cap:
        vel = vel * (cap / speed)
    pos = pos + vel * dt

    goal_index = human.current_goal_index
    if human.goal_waypoints:
        goal = np.asarray(human.goal_waypoints[goal_index], dtype=float)
        if float(np.hypot(*(goal - pos))) <= params.waypoint_tolerance:
            goal_index = (goal_index + 1) % len(human.goal_waypoints)
    return replace(human, position=pos, velocity=vel, current_goal_index=goal_index)
