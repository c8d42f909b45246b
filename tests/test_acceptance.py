"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a user-facing property of the package: solver speed and
scaling, faster-than-realtime headless execution, safety margins under
randomized traffic, room mutual exclusion, oracle equivalence for the three
optimizers, integrator accuracy, byte-level determinism, and a frozen
regression for the bundled two-robot delivery scenario.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from fleetsim.dynamics import Control, HumanState, RobotState, step_robot
from fleetsim.engine import run
from fleetsim.metrics import compute_metrics
from fleetsim.navigation import RoomQueue, point_in_polygon
from fleetsim.planner import UnreachableError, plan
from fleetsim.qp import OPTIMAL, solve_diagonal, solve_qp
from fleetsim.safety import (
    FEASIBLE,
    INFEASIBLE_FALLBACK,
    ControllerParams,
    _rows,
    solve_cluster_qp,
)
from fleetsim.scenario import load_scenario
from fleetsim.tasking import Task, solve_exact
from fleetsim.trace import write_trace
from fleetsim.world import ObstaclePointSet

from _support import (
    SCENARIOS,
    busy_fleet_scenario,
    dijkstra_cost,
    enumerate_best_makespan,
    grid_view,
    occupied_cell_bounds,
    random_costmap,
    random_safety_scenario,
    rect_distances,
    sparse_rows,
    straight_line_graph,
    unicycle_closed_form,
)


def _qp_timing_scene(n: int):
    """n robots in a mutual-keepout line with wall hits and one pedestrian."""
    params = ControllerParams()
    members = list(range(n))
    states = [RobotState(1.2 * i, 0.0, math.pi if i % 2 else 0.0, 0.6) for i in members]
    nominals = [Control(0.5, 0.2)] * n
    obstacles = [ObstaclePointSet(((1.2 * i, 1.0), (1.2 * i + 0.7, 0.8), None))
                 for i in members]
    humans = [HumanState(0.6, -1.0, 0.0, 0.3)]
    return members, states, nominals, obstacles, humans, params


def test_qp_solve_time_scaling():
    """1/2/3-agent solves average under 50 ms, ordered by size, no warm-up."""
    # warm the solver on an unrelated problem so the first measured cluster
    # solve reflects this solver, not cold start
    solve_qp([2.0, 2.0], [0.0, 0.0], [[(0, 1.0)], [(1, 1.0)]], [-1.0, -1.0])

    scenes = {n: _qp_timing_scene(n) for n in (1, 2, 3)}
    # every scene's nominal controls break a row, so each solve takes
    # active-set steps, not only the first scan for unconstrained optima
    for members, states, nominals, obstacles, humans, params in scenes.values():
        rows, b = _rows(states, obstacles, humans, params)
        g = [-2.0 * u for nom in nominals for u in (nom.a, nom.omega)]
        assert solve_diagonal([2.0] * len(g), g, rows, b).iterations >= 1
    durations = {n: [] for n in scenes}
    # round-robin, so a swing in host speed lands on every size alike
    for _ in range(80):
        for n, args in scenes.items():
            t0 = time.perf_counter()
            decision = solve_cluster_qp(*args)
            durations[n].append(time.perf_counter() - t0)
            assert decision.qp_status == FEASIBLE

    first_call, steady_mean, steady_median = {}, {}, {}
    for n, times in durations.items():
        first_call[n] = times[0]
        steady_mean[n] = statistics.fmean(times[20:])
        steady_median[n] = statistics.median(times[20:])
        assert steady_mean[n] < 0.05
        assert first_call[n] < 5 * steady_median[n]
    assert steady_median[1] < steady_median[2]
    assert steady_median[1] < steady_median[3]
    ratio = steady_median[3] / steady_median[2]
    assert 0.5 <= ratio <= 2.0


def test_headless_realtime_factor():
    """A busy 6-robot fleet simulates faster than realtime, monotone in size.

    The three fleet sizes run in turn, twice, and each keeps its best
    factor, so that a change in the host's speed between runs does not
    decide the order."""
    factors = {}
    for _ in range(2):
        for n in (2, 4, 6):
            scenario = busy_fleet_scenario(n)
            assert scenario.duration == 120.0
            factors[n] = max(factors.get(n, 0.0), run(scenario).realtime_factor)
    assert scenario.grid.width == 60 and scenario.grid.height == 60
    assert len(scenario.robots) == 6
    assert len(scenario.task_stream[0].tasks) == 6
    assert factors[6] >= 1.0
    assert factors[2] >= factors[4] >= factors[6]


def test_randomized_safety_margins():
    """Keepout margins hold across 20 randomized four-robot runs."""
    for seed in range(1, 21):
        scenario = random_safety_scenario(seed)
        params = scenario.robots[0].params
        result = run(scenario)
        bounds = occupied_cell_bounds(scenario.grid)

        fallback_ticks = {
            e["t"] for e in result.trace.events
            if e["type"] == "qp" and e["status"] == INFEASIBLE_FALLBACK
        }
        end = [e for e in result.trace.events if e["type"] == "end"][0]
        assert len(fallback_ticks) <= 0.01 * end["ticks"], f"seed {seed}"

        dt = scenario.control_period
        min_sep = math.inf
        min_obs = math.inf
        for ev in result.trace.events:
            if ev["type"] != "state":
                continue
            if ev["t"] in fallback_ticks or ev["t"] - dt in fallback_ticks:
                continue
            pts = np.array([[r[1], r[2]] for r in ev["robots"]])
            diffs = pts[:, None, :] - pts[None, :, :]
            dist = np.hypot(diffs[..., 0], diffs[..., 1])
            iu = np.triu_indices(len(pts), k=1)
            min_sep = min(min_sep, float(dist[iu].min()))
            min_obs = min(min_obs, float(rect_distances(pts, bounds).min()))

        assert min_sep >= params.r_safe - 0.05, f"seed {seed}: {min_sep}"
        assert min_obs >= params.r_robot - 0.05, f"seed {seed}: {min_obs}"


def test_room_mutual_exclusion_and_fifo(rooms_result):
    """At most one robot per room polygon; queue grants strictly FIFO."""
    scenario, result = rooms_result
    polygons = [list(spec.polygon) for spec in scenario.rooms.values()]
    for ev in result.trace.events:
        if ev["type"] != "state":
            continue
        for polygon in polygons:
            inside = [
                row[0] for row in ev["robots"]
                if point_in_polygon((row[1], row[2]), polygon)
            ]
            assert len(inside) <= 1, (ev["t"], inside)

    rng = random.Random(2024)
    grants = 0
    for _ in range(500):
        n_slots = rng.randint(1, 3)
        queue = RoomQueue(
            room_id=0,
            slots=[(float(k), 0.0) for k in range(n_slots)],
            room_position=(0.0, 0.0),
        )
        members: list[int] = []  # acceptance order; members[0] is the holder
        prev_holder = None
        for _ in range(rng.randint(4, 24)):
            rid = rng.randrange(6)
            if rng.random() < 0.6:
                idx = queue.request_slot(rid)
                if rid in members:
                    want = 0 if rid == members[0] else members.index(rid) - 1
                    assert idx == want
                elif not members:
                    assert idx == 0
                    members.append(rid)
                elif len(members) - 1 < n_slots:
                    assert idx == len(members) - 1
                    members.append(rid)
                else:
                    assert idx is None
            else:
                far = rng.random() < 0.7
                position = (10.0, 0.0) if far else (0.1, 0.0)
                exhausted = rng.random() < 0.3
                released = queue.release(rid, position, 2.0,
                                         tasks_exhausted=exhausted)
                if rid in members and (far or exhausted):
                    assert released
                    members.remove(rid)
                else:
                    assert not released
            # FIFO: the holder is always the longest-waiting live member
            assert queue.holder == (members[0] if members else None)
            assert queue.occupants == members[1:]
            if queue.holder is not None and queue.holder != prev_holder:
                grants += 1
            prev_holder = queue.holder
    assert grants >= 500


def test_exact_allocator_matches_enumeration():
    """Branch-and-bound equals brute-force enumeration on 100 random instances."""
    rng = random.Random(2026)
    started = time.perf_counter()
    feasible = infeasible = 0
    for _ in range(100):
        n_loc = rng.randint(2, 5)
        locations = {k: (rng.uniform(0, 20), rng.uniform(0, 20))
                     for k in range(n_loc)}
        graph = straight_line_graph(locations)
        robots = {r: rng.randrange(n_loc) for r in range(rng.randint(1, 3))}
        tasks = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(n_loc), 2)
            deadline = (rng.uniform(10.0, 90.0) if rng.random() < 0.7
                        else rng.uniform(2.0, 12.0))
            tasks.append(Task(a, b, deadline))

        expected = enumerate_best_makespan(robots, tasks, graph, 0.0)
        allocation = solve_exact(robots, tasks, graph, 0.0)
        if expected is None:
            assert allocation is None
            infeasible += 1
        else:
            assert allocation is not None
            assert allocation.makespan(0.0) == expected
            allocation.validate()
            feasible += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert feasible > 30 and infeasible > 10


def test_astar_matches_dijkstra():
    """Grid planner cost equals uniform-cost search exactly on 200 maps."""
    rng = random.Random(77)
    reachable = blocked = 0
    for k in range(200):
        occupancy = 0.18 if k < 150 else 0.35
        grid, costmap = random_costmap(rng, occupancy=occupancy)
        cost = grid_view(grid, costmap.cost)
        free = [
            (ix, iy)
            for iy in range(grid.height)
            for ix in range(grid.width)
            if cost[iy, ix] < 255
        ]
        start, goal = rng.sample(free, 2)
        expected = dijkstra_cost(costmap, start, goal, 3.0)
        try:
            path = plan(costmap, grid.cell_center(*start),
                        grid.cell_center(*goal), 3.0)
        except UnreachableError:
            assert expected is None, f"map {k}"
            blocked += 1
            continue
        assert expected is not None, f"map {k}"
        assert path.total_cost == expected, f"map {k}"
        for x, y in path.points:
            ix, iy = grid.world_to_cell(x, y)
            assert cost[iy, ix] < 255
        reachable += 1
    assert reachable >= 150 and blocked >= 5


def test_qp_matches_grid_search():
    """Active-set solutions match a 0.01-step grid oracle on 50 instances."""
    rng = np.random.default_rng(7)

    for k in range(25):
        nominal = rng.uniform(-0.5, 0.5, 2)
        ca = rng.choice([-1, 1]) * rng.uniform(1.2, 2.0)
        cw = rng.uniform(-0.5, 0.5)
        violation = rng.uniform(0.015, 0.06)
        row = np.array([ca, cw])
        rhs = float(row @ nominal + violation)
        box = 1.2
        A = np.vstack([row, np.eye(2), -np.eye(2)])
        b = np.array([rhs, -box, -box, -box, -box])
        result = solve_qp([2.0] * 2, -2 * nominal, sparse_rows(A), b)
        assert result.status == OPTIMAL, f"instance {k}"
        assert float((A @ result.x - b).min()) >= -1e-8
        objective = float(np.sum((result.x - nominal) ** 2))

        axis = np.arange(-box, box + 1e-12, 0.01)
        ga, gw = np.meshgrid(axis, axis, indexing="ij")
        feasible = ga * row[0] + gw * row[1] >= rhs
        values = (ga - nominal[0]) ** 2 + (gw - nominal[1]) ** 2
        grid_best = float(values[feasible].min())
        assert -1e-9 <= grid_best - objective <= 1e-3, f"instance {k}"

    for k in range(25):
        rows = rng.uniform(0.5, 2.0, (2, 4))
        rhs = rng.uniform(0.01, 0.075, 2)
        box = 0.1
        A = np.vstack([rows, np.eye(4), -np.eye(4)])
        b = np.concatenate([rhs, -box * np.ones(8)])
        result = solve_qp([2.0] * 4, np.zeros(4), sparse_rows(A), b)
        assert result.status == OPTIMAL, f"instance {k}"
        assert float((A @ result.x - b).min()) >= -1e-8
        objective = float(np.dot(result.x, result.x))

        axis = np.arange(-box, box + 1e-12, 0.01)
        mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
        points = np.stack(mesh, axis=-1).reshape(-1, 4)
        feasible = (points @ rows.T >= rhs).all(axis=1)
        grid_best = float((points[feasible] ** 2).sum(axis=1).min())
        assert -1e-9 <= grid_best - objective <= 1e-3, f"instance {k}"


def test_rk4_matches_closed_form():
    """Constant-control trajectories track the analytic solution to 1e-6."""
    cases = [(0.3, 0.0), (0.0, 1.2), (0.4, -0.9), (-0.3, 0.6), (0.25, 2.0)]
    worst = 0.0
    for a, omega in cases:
        state = RobotState(0.2, -0.4, 0.3, 0.5)
        for _ in range(20):
            state = step_robot(state, Control(a, omega), 0.05, 100.0)
        x, y, theta, v = unicycle_closed_form(0.2, -0.4, 0.3, 0.5, a, omega, 1.0)
        worst = max(worst, math.hypot(state.x - x, state.y - y))
        assert state.v == pytest.approx(v, abs=1e-9)
        assert state.theta == pytest.approx(theta, abs=1e-9)
    assert worst <= 1e-6


def test_same_seed_traces_identical(tmp_path):
    """Two runs of the same scenario produce byte-identical trace files."""
    paths = []
    for k in range(2):
        scenario = load_scenario(SCENARIOS / "corridors_two_robot.yaml")
        result = run(scenario)
        path = tmp_path / f"run{k}.trace"
        write_trace(path, result.trace)
        paths.append(path)
    first = paths[0].read_bytes()
    assert len(first) > 10_000
    assert first == paths[1].read_bytes()


def test_two_robot_delivery_regression(corridors_result):
    """Frozen timings for the bundled two-robot delivery scenario."""
    scenario, result = corridors_result
    assert scenario.task_stream[0].arrival == 40.0

    tasks = [e for e in result.trace.events if e["type"] == "task"]

    def times(kind):
        return {e["task"]: e["t"] for e in tasks if e["event"] == kind}

    assert times("pickup") == {
        "t0": 59.300000000000004, "t1": 62.050000000000004,
    }
    completions = times("completed")
    assert completions == {"t1": 83.15, "t0": 84.0}
    deadlines = {"t0": 150.0, "t1": 300.0}
    assert all(completions[t] < deadlines[t] for t in deadlines)

    report = compute_metrics(result.trace)
    assert report.tasks_completed == 2
    assert report.tasks_missed == 0 and report.tasks_unassigned == 0
    assert report.deadline_margins == [216.85, 66.0]
    assert sum(report.completion_times) / 2 == 83.575
