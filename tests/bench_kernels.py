"""Microbenchmarks of the per-tick kernels and of the trace pipeline, with
pytest-benchmark.

Not part of the test suite (the file name does not match ``test_*.py``); run
it by name:

    PYTHONPATH=src python -m pytest tests/bench_kernels.py -p no:cacheprovider

Inputs are fixed: the bundled depot map (loading it, its distance field and
its costmap), poses on that map and on the bundled rooms map (the raycast
ends 50 of the 200 depot poses at its pose skip, with no wall in range, and
4 of the 200 rooms poses), one control period of the
default scenario timing (tick_dt 0.01 s, control_period 0.05 s), a
50-vertex path planned across that map, and the trace of the six-robot busy
fleet (``_support.busy_fleet_scenario(6)``, 120 s, about 21 000 records).
The allocator solves the seed-1 depot_dispatch batch at its size cap
(``test_tasking._CAP_*``: 8 tasks, 6 robots).
"""

from __future__ import annotations

import math
import random

import pytest

from fleetsim.dynamics import Control, RobotState, step_robot
from fleetsim.engine import run
from fleetsim.metrics import compute_metrics
from fleetsim.planner import Path, lookahead_point, plan
from fleetsim.tasking import Task, TravelTimeGraph, solve_exact
from fleetsim.trace import dumps_record, read_trace, write_trace
from fleetsim.world import inflate, load_map, raycast

from _support import SCENARIOS, busy_fleet_scenario, grid_view
from test_tasking import _CAP_NOW, _CAP_ROBOTS, _CAP_TASKS

pytest.importorskip("pytest_benchmark")


@pytest.fixture(scope="module")
def depot_grid():
    return load_map((SCENARIOS / "maps" / "depot.map").read_text())


def _free_poses(grid, n, seed=1):
    rng = random.Random(seed)
    occupied = grid_view(grid, grid.occupied)
    poses = []
    while len(poses) < n:
        x = grid.origin_x + rng.random() * grid.width * grid.resolution
        y = grid.origin_y + rng.random() * grid.height * grid.resolution
        ix, iy = grid.world_to_cell(x, y)
        if not occupied[iy, ix]:
            poses.append((x, y, rng.uniform(-math.pi, math.pi)))
    return poses


def test_raycast(benchmark, depot_grid):
    """16 rays of 3 m from each of 200 free poses."""
    poses = _free_poses(depot_grid, 200)

    def cast_all():
        for x, y, heading in poses:
            raycast(depot_grid, x, y, heading, 16, 3.0)

    benchmark(cast_all)


def test_raycast_rooms(benchmark):
    """16 rays of 3 m from each of 200 free poses on the rooms map."""
    grid = load_map((SCENARIOS / "maps" / "rooms.map").read_text())
    poses = _free_poses(grid, 200)

    def cast_all():
        for x, y, heading in poses:
            raycast(grid, x, y, heading, 16, 3.0)

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
    """196 positions near a 50-vertex path, in path order, each call
    starting from the index the one before returned: the steady state of
    one robot tracking the path."""
    costmap = inflate(depot_grid, 0.6, 3.0)
    poses = _free_poses(depot_grid, 400, seed=3)
    path = next(
        p for p in (plan(costmap, a[:2], b[:2]) for a, b in zip(poses, poses[1:]))
        if len(p.points) >= 50
    )
    path = Path(path.points[:50], path.total_cost)
    rng = random.Random(4)
    positions = [
        (x0 + k / 4 * (x1 - x0) + rng.uniform(-0.1, 0.1),
         y0 + k / 4 * (y1 - y0) + rng.uniform(-0.1, 0.1))
        for (x0, y0), (x1, y1) in zip(path.points, path.points[1:])
        for k in range(4)
    ]

    def look_all():
        start = 0
        for position in positions:
            _, start = lookahead_point(path, position, 0.5, start)

    benchmark(look_all)


def test_load_map(benchmark):
    """Parse the depot map file into its occupancy store."""
    text = (SCENARIOS / "maps" / "depot.map").read_text()
    benchmark(load_map, text)


def test_clearance_of_a_fresh_grid(benchmark):
    """The depot map's distance field, on a grid that has not cached it."""
    text = (SCENARIOS / "maps" / "depot.map").read_text()
    benchmark.pedantic(lambda grid: grid.clearance, setup=lambda: ((load_map(text),), {}),
                       rounds=200)


def test_inflate(benchmark, depot_grid):
    """The depot costmap at the default world parameters, clearance cached."""
    assert depot_grid.clearance  # cached before the timing starts
    benchmark(inflate, depot_grid, 1.0, 3.0, 0.3)


def test_solve_exact_at_the_cap(benchmark):
    """The exact allocator on its largest instance, 8 tasks x 6 robots."""
    g = TravelTimeGraph.from_text((SCENARIOS / "tables" / "depot_travel.txt").read_text())
    tasks = [Task(a, b, float.fromhex(d)) for a, b, d in _CAP_TASKS]
    alloc = benchmark(solve_exact, _CAP_ROBOTS, tasks, g, float.fromhex(_CAP_NOW))
    assert alloc is not None and not alloc.unassigned


@pytest.fixture(scope="module")
def busy6_trace():
    return run(busy_fleet_scenario(6)).trace


@pytest.fixture(scope="module")
def busy6_file(busy6_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("busy6") / "busy6.trace"
    write_trace(path, busy6_trace)
    return path


@pytest.mark.parametrize("kind", ["state", "control", "clusters", "qp", "plan"])
def test_dumps_record(benchmark, busy6_trace, kind):
    """Every record of one bulk type in the busy6 trace."""
    records = [e for e in busy6_trace.events if e["type"] == kind]
    benchmark(lambda: [dumps_record(r) for r in records])


def test_write_trace(benchmark, busy6_trace, tmp_path):
    benchmark(write_trace, tmp_path / "busy6.trace", busy6_trace)


def test_read_trace(benchmark, busy6_file):
    benchmark(read_trace, busy6_file)


def test_compute_metrics(benchmark, busy6_file):
    """On the trace as read back, as ``fleetsim report`` takes it."""
    benchmark(compute_metrics, read_trace(busy6_file))
