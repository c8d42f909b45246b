"""Microbenchmarks of the per-tick kernels, with pytest-benchmark.

Not part of the test suite (the file name does not match ``test_*.py``); run
it by name:

    PYTHONPATH=src python -m pytest tests/bench_kernels.py -p no:cacheprovider

Inputs are fixed: poses on the bundled depot map, one control period of the
default scenario timing (tick_dt 0.01 s, control_period 0.05 s), and a
50-vertex path planned across that map.
"""

from __future__ import annotations

import math
import random

import pytest

from fleetsim.dynamics import Control, RobotState, step_robot
from fleetsim.planner import Path, lookahead_point, plan
from fleetsim.world import inflate, load_map, raycast

from _support import SCENARIOS

pytest.importorskip("pytest_benchmark")


@pytest.fixture(scope="module")
def depot_grid():
    return load_map((SCENARIOS / "maps" / "depot.map").read_text())


def _free_poses(grid, n, seed=1):
    rng = random.Random(seed)
    poses = []
    while len(poses) < n:
        x = grid.origin_x + rng.random() * grid.width * grid.resolution
        y = grid.origin_y + rng.random() * grid.height * grid.resolution
        ix, iy = grid.world_to_cell(x, y)
        if not grid.occupied[iy, ix]:
            poses.append((x, y, rng.uniform(-math.pi, math.pi)))
    return poses


def test_raycast(benchmark, depot_grid):
    """16 rays of 3 m from each of 200 free poses."""
    poses = _free_poses(depot_grid, 200)

    def cast_all():
        for x, y, heading in poses:
            raycast(depot_grid, x, y, heading, 16, 3.0)

    benchmark(cast_all)


def test_step_robot_per_control_period(benchmark):
    """One call of five 0.01 s ticks for each of 200 states."""
    rng = random.Random(2)
    inputs = [
        (RobotState(rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(-math.pi, math.pi),
                    rng.uniform(-1, 1)),
         Control(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        for _ in range(200)
    ]

    def step_all():
        for state, control in inputs:
            step_robot(state, control, 0.01, 1.0, 5)

    benchmark(step_all)


def test_lookahead_point_on_a_50_vertex_path(benchmark, depot_grid):
    """200 positions near a 50-vertex path."""
    costmap = inflate(depot_grid, 0.6, 3.0)
    poses = _free_poses(depot_grid, 400, seed=3)
    path = next(
        p for p in (plan(costmap, a[:2], b[:2]) for a, b in zip(poses, poses[1:]))
        if len(p.points) >= 50
    )
    path = Path(path.points[:50], path.total_cost)
    rng = random.Random(4)
    positions = [
        (x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5))
        for x, y in (rng.choice(path.points) for _ in range(200))
    ]

    def look_all():
        for position in positions:
            lookahead_point(path, position, 0.5)

    benchmark(look_all)
