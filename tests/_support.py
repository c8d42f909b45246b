"""Shared builders for the test suite: grids, synthetic scenarios, oracles."""

from __future__ import annotations

import heapq
import math
import random
from functools import lru_cache
from pathlib import Path

import numpy as np

from fleetsim.navigation import RoadwayNetwork
from fleetsim.scenario import RobotSpec, Scenario, WorldParams
from fleetsim.tasking import (
    DROPOFF,
    EXACT_MAX_ROBOTS,
    EXACT_MAX_TASKS,
    PICKUP,
    Allocation,
    Leg,
    Task,
    TaskRequest,
    TravelTimeGraph,
    _check_locations,
)
from fleetsim.world import LETHAL_COST, ObstaclePointSet, OccupancyGrid, inflate, load_map

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

SQRT2 = math.sqrt(2.0)
_MOVES = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
)


def grid_from_rows(rows: list[str], resolution=0.5, ox=0.0, oy=0.0) -> OccupancyGrid:
    """Build a grid from '#'/'.' rows given top row first."""
    header = f"map {len(rows[0])} {len(rows)} {resolution:g} {ox:g} {oy:g}"
    return load_map("\n".join([header] + rows) + "\n")


@lru_cache(maxsize=None)
def depot_world():
    """Depot grid and its costmap, shared by synthetic scenario builders."""
    map_text = (SCENARIOS / "maps" / "depot.map").read_text()
    grid = load_map(map_text)
    return map_text, grid, inflate(grid, 1.0, 3.0, 0.3)


def straight_line_graph(locations: dict[int, tuple[float, float]]) -> TravelTimeGraph:
    """Synthetic allocator input: crow-flies distance at 1 m/s, floored at 1 s."""
    ids = tuple(sorted(locations))
    n = len(ids)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = max(1.0, math.dist(locations[ids[i]], locations[ids[j]]))
    return TravelTimeGraph(ids, w)


def busy_fleet_scenario(n_robots: int, duration: float = 120.0) -> Scenario:
    """n robots each shuttling a private north-south delivery lane.

    Every robot stays in motion for the whole run, so total compute grows
    with the robot count instead of saturating once the task list is spread
    thin across an overstaffed fleet.
    """
    map_text, grid, costmap = depot_world()
    robots = [
        RobotSpec(name=f"r{k}", start=(3.0 + 4.0 * k, 2.5),
                  heading=math.pi / 2)
        for k in range(n_robots)
    ]
    locations = {}
    for k in range(n_robots):
        locations[2 * k] = (3.0 + 4.0 * k, 5.5)
        locations[2 * k + 1] = (3.0 + 4.0 * k, 25.5)
    batches = [
        TaskRequest(t0, tuple(
            Task(2 * k, 2 * k + 1, 1000.0 + t0) for k in range(n_robots)
        ))
        for t0 in (0.0, 45.0, 90.0)
    ]
    return Scenario(
        grid=grid, costmap=costmap, map_text=map_text,
        robots=robots, humans=[],
        roadways=RoadwayNetwork(locations, {}), rooms={},
        travel_graph=straight_line_graph(locations), task_stream=batches,
        world=WorldParams(), duration=duration, seed=0, digest="",
    )


@lru_cache(maxsize=None)
def _depot_open_cells() -> tuple[tuple[float, float], ...]:
    # cells with low inflated cost sit well away from every wall and pillar
    _, grid, costmap = depot_world()
    return tuple(
        grid.cell_center(ix, iy)
        for iy in range(grid.height)
        for ix in range(grid.width)
        if costmap.cost[iy, ix] <= 40
    )


def random_safety_scenario(seed: int, duration: float = 60.0) -> Scenario:
    """Four robots with random starts, headings and deliveries on the depot map."""
    map_text, grid, costmap = depot_world()
    rng = random.Random(seed)
    cands = _depot_open_cells()

    def sample_apart(n, min_sep, taken=()):
        picked: list[tuple[float, float]] = []
        while len(picked) < n:
            c = cands[rng.randrange(len(cands))]
            if all(math.dist(c, q) >= min_sep for q in picked) and all(
                math.dist(c, q) >= 1.0 for q in taken
            ):
                picked.append(c)
        return picked

    starts = sample_apart(4, 1.6)
    locs = sample_apart(4, 4.0, taken=starts)
    locations = {i: locs[i] for i in range(4)}
    robots = [
        RobotSpec(name=f"r{k}", start=starts[k],
                  heading=rng.uniform(-math.pi, math.pi))
        for k in range(4)
    ]
    tasks = []
    for _ in range(3):
        a, b = rng.sample(sorted(locations), 2)
        tasks.append(Task(a, b, 1000.0))
    return Scenario(
        grid=grid, costmap=costmap, map_text=map_text,
        robots=robots, humans=[],
        roadways=RoadwayNetwork(locations, {}), rooms={},
        travel_graph=straight_line_graph(locations),
        task_stream=[TaskRequest(0.0, tuple(tasks))],
        world=WorldParams(), duration=duration, seed=seed, digest="",
    )


def dijkstra_cost(costmap, start_cell, goal_cell, cost_weight: float) -> float | None:
    """Uniform-cost search over the exact same move graph as the planner."""
    grid = costmap.grid
    width, height = grid.width, grid.height
    cost = costmap.cost
    s = start_cell[1] * width + start_cell[0]
    g = goal_cell[1] * width + goal_cell[0]
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        d, idx = heapq.heappop(heap)
        if idx in done:
            continue
        done.add(idx)
        if idx == g:
            return d
        iy, ix = divmod(idx, width)
        c_here = int(cost[iy, ix])
        for dx, dy, length in _MOVES:
            nx, ny = ix + dx, iy + dy
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            c_next = int(cost[ny, nx])
            if c_next == LETHAL_COST:
                continue
            if dx != 0 and dy != 0:
                if cost[iy, nx] == LETHAL_COST or cost[ny, ix] == LETHAL_COST:
                    continue
            avg = 0.5 * (c_here + c_next)
            nd = d + length * (1.0 + cost_weight * avg / 254.0)
            nidx = ny * width + nx
            if nd < dist.get(nidx, math.inf):
                dist[nidx] = nd
                heapq.heappush(heap, (nd, nidx))
    return None


def random_costmap(rng: random.Random, size: int = 20, occupancy: float = 0.18):
    """Random occupancy grid with its inflated costmap."""
    rows = []
    for _ in range(size):
        rows.append("".join(
            "#" if rng.random() < occupancy else "." for _ in range(size)
        ))
    grid = grid_from_rows(rows)
    return grid, inflate(grid, 1.0, 3.0, 0.3)


def _best_completion(loc, now, assigned, tasks, g):
    """Minimum completion time over all deadline-respecting leg orders."""
    if not assigned:
        return now
    best = [None]

    def rec(loc, t, picked, done):
        if len(done) == len(assigned):
            if best[0] is None or t < best[0]:
                best[0] = t
            return
        for k in assigned:
            if k in done:
                continue
            if k in picked:
                arrive = t + g.time(loc, tasks[k].end)
                if arrive > tasks[k].deadline:
                    continue
                rec(tasks[k].end, arrive, picked - {k}, done | {k})
            else:
                arrive = t + g.time(loc, tasks[k].start)
                rec(tasks[k].start, arrive, picked | {k}, done)

    rec(loc, now, frozenset(), frozenset())
    return best[0]


def enumerate_best_makespan(robots, tasks, g, now):
    """Reference allocator: full enumeration of assignments and leg orders.

    Returns the optimal makespan, or None when no assignment meets every
    deadline. Arrival times accumulate leg by leg exactly as the solver's
    do, so a correct solver must reproduce the value bit for bit.
    """
    import itertools

    robot_ids = sorted(robots)
    best = None
    for assignment in itertools.product(robot_ids, repeat=len(tasks)):
        makespan = now
        ok = True
        for rid in robot_ids:
            assigned = [k for k, r in enumerate(assignment) if r == rid]
            done = _best_completion(robots[rid], now, assigned, tasks, g)
            if done is None:
                ok = False
                break
            makespan = max(makespan, done)
        if ok and (best is None or makespan < best):
            best = makespan
    return best


# The exact allocator without the cutoff, the location-entry bound or shared
# searches: one plain interleaving search per (robot, task set). solve_exact
# must return its allocations bit for bit.
def _reference_best_schedule(
    start_loc: int,
    now: float,
    task_ids: tuple[int, ...],
    tasks: list[Task],
    g: TravelTimeGraph,
    pre_picked: frozenset[int],
    forced_first: tuple[int, str] | None,
) -> tuple[float, list[Leg]] | None:
    """Minimum-completion leg order for one robot over its assigned tasks.

    Depth-first search over pickup/drop-off interleavings with hard-deadline
    pruning and dominance pruning on (location, picked, done) states. Returns
    None when no order meets every deadline.
    """
    full = frozenset(task_ids)
    if forced_first is not None and forced_first[0] not in full:
        # the forced task is not assigned here (partial assignments during
        # search); its absence only shortens the schedule, keeping bounds valid
        forced_first = None
    best: list[tuple[float, list[Leg]] | None] = [None]
    visited: dict[tuple[int, frozenset, frozenset], float] = {}

    def legs_from(picked: frozenset, done: frozenset, seq: list[Leg]) -> list[tuple[int, str, int]]:
        if not seq and forced_first is not None:
            # the robot's in-progress leg stays its first
            t, stage = forced_first
            return [(tasks[t].start if stage == PICKUP else tasks[t].end, stage, t)]
        out = []
        for t in task_ids:
            if t in done:
                continue
            if t in picked:
                out.append((tasks[t].end, DROPOFF, t))
            else:
                out.append((tasks[t].start, PICKUP, t))
        out.sort()
        return out

    def dfs(loc: int, t_now: float, picked: frozenset, done: frozenset, seq: list[Leg]) -> None:
        if done == full:
            if best[0] is None or t_now < best[0][0]:
                best[0] = (t_now, list(seq))
            return
        if best[0] is not None and t_now >= best[0][0]:
            return
        key = (loc, picked, done)
        prev = visited.get(key)
        if prev is not None and prev <= t_now:
            return
        visited[key] = t_now
        for target, stage, t in legs_from(picked, done, seq):
            arrive = t_now + g.time(loc, target)
            if stage == DROPOFF and arrive > tasks[t].deadline:
                continue
            seq.append(Leg(t, stage, target, arrive))
            if stage == PICKUP:
                dfs(target, arrive, picked | {t}, done, seq)
            else:
                dfs(target, arrive, picked - {t}, done | {t}, seq)
            seq.pop()

    dfs(start_loc, now, frozenset(t for t in task_ids if t in pre_picked), frozenset(), [])
    return best[0]


def reference_solve_exact(
    robots: dict[int, int],
    tasks: list[Task],
    g: TravelTimeGraph,
    now: float,
    pinned: dict[int, int] | None = None,
    pre_picked: frozenset[int] = frozenset(),
    forced_first: dict[int, tuple[int, str]] | None = None,
) -> Allocation | None:
    """Minimum-makespan allocation meeting every deadline, or None.

    Branch-and-bound over task-to-robot assignments; each robot's legs are
    ordered by an exhaustive interleaving search. ``pinned`` forces specific
    tasks onto specific robots, ``pre_picked`` marks tasks already carried
    (only their drop-off remains), and ``forced_first`` pins a robot's
    in-progress leg as its first element. Ties break lexicographically by
    (robot id, visit sequence).
    """
    if len(tasks) > EXACT_MAX_TASKS or len(robots) > EXACT_MAX_ROBOTS:
        raise ValueError(
            f"instance too large for exact search "
            f"({len(tasks)} tasks, {len(robots)} robots); use solve_greedy"
        )
    _check_locations(robots, tasks, g)
    pinned = dict(pinned or {})
    forced_first = dict(forced_first or {})
    for rid, (t, stage) in forced_first.items():
        pinned.setdefault(t, rid)
    for t in pre_picked:
        if t not in pinned:
            raise ValueError(f"carried task {t} must be pinned to its robot")

    robot_ids = sorted(robots)
    if not robot_ids:
        raise ValueError("no robots")
    n_tasks = len(tasks)

    schedule_cache: dict[tuple[int, frozenset], tuple[float, list[Leg]] | None] = {}

    def robot_schedule(rid: int, assigned: frozenset[int]):
        key = (rid, assigned)
        if key not in schedule_cache:
            schedule_cache[key] = _reference_best_schedule(
                robots[rid], now, tuple(sorted(assigned)), tasks, g,
                pre_picked, forced_first.get(rid),
            )
        return schedule_cache[key]

    best: list[tuple[float, tuple, dict[int, frozenset]] | None] = [None]

    def lex_key(assignment: dict[int, frozenset]) -> tuple:
        parts = []
        for rid in robot_ids:
            sched = robot_schedule(rid, assignment.get(rid, frozenset()))
            parts.append(tuple(leg.location for leg in sched[1]) if sched else ())
        return tuple(parts)

    def assign(task_idx: int, assignment: dict[int, frozenset], completions: dict[int, float]) -> None:
        if best[0] is not None and max(completions.values(), default=now) > best[0][0]:
            return
        if task_idx == n_tasks:
            makespan = max(completions.values(), default=now)
            key = lex_key(assignment)
            if best[0] is None or (makespan, key) < (best[0][0], best[0][1]):
                best[0] = (makespan, key, dict(assignment))
            return
        candidates = [pinned[task_idx]] if task_idx in pinned else robot_ids
        for rid in candidates:
            new_set = assignment.get(rid, frozenset()) | {task_idx}
            sched = robot_schedule(rid, new_set)
            if sched is None:
                continue
            assignment[rid] = new_set
            old = completions.get(rid)
            completions[rid] = sched[0]
            assign(task_idx + 1, assignment, completions)
            if old is None:
                del completions[rid]
            else:
                completions[rid] = old
            if len(new_set) == 1:
                del assignment[rid]
            else:
                assignment[rid] = new_set - {task_idx}

    assign(0, {}, {})
    if best[0] is None:
        return None
    assignment = best[0][2]
    legs: dict[int, list[Leg]] = {rid: [] for rid in robot_ids}
    for rid in robot_ids:
        sched = robot_schedule(rid, assignment.get(rid, frozenset()))
        if sched:
            legs[rid] = sched[1]
    return Allocation(legs, [])


def unicycle_closed_form(x0, y0, th0, v0, a, w, t):
    """Exact constant-control unicycle trajectory (no speed clamp)."""
    v = v0 + a * t
    th = th0 + w * t
    if abs(w) < 1e-15:
        s = v0 * t + 0.5 * a * t * t
        return x0 + s * math.cos(th0), y0 + s * math.sin(th0), th, v

    def fx(s):
        return (v0 + a * s) / w * math.sin(th0 + w * s) + a / w ** 2 * math.cos(th0 + w * s)

    def fy(s):
        return -(v0 + a * s) / w * math.cos(th0 + w * s) + a / w ** 2 * math.sin(th0 + w * s)

    return x0 + fx(t) - fx(0.0), y0 + fy(t) - fy(0.0), th, v


def reference_raycast(
    grid: OccupancyGrid,
    x: float,
    y: float,
    heading: float,
    n_rays: int = 16,
    max_range: float = 3.0,
) -> ObstaclePointSet:
    """The plain ray walk ``world.raycast`` must match bit for bit: every ray
    traced cell by cell, with no clearance skip."""
    points: list[tuple[float, float] | None] = []
    for k in range(n_rays):
        angle = heading + 2.0 * math.pi * k / n_rays
        points.append(_reference_trace_ray(grid, x, y, angle, max_range))
    return ObstaclePointSet(tuple(points))


def _reference_trace_ray(
    grid: OccupancyGrid, x: float, y: float, angle: float, max_range: float
) -> tuple[float, float] | None:
    """Amanatides-Woo traversal; returns the entry point of the first occupied cell."""
    res = grid.resolution
    dx, dy = math.cos(angle), math.sin(angle)
    ix, iy = grid.world_to_cell(x, y)
    if grid.occupied[iy, ix]:
        return (x, y)  # surrounded: the sensing pose itself sits on an occupied cell

    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    inf = math.inf
    if dx != 0.0:
        next_gx = grid.origin_x + (ix + (1 if dx > 0 else 0)) * res
        t_max_x = (next_gx - x) / dx
        t_delta_x = res / abs(dx)
    else:
        t_max_x, t_delta_x = inf, inf
    if dy != 0.0:
        next_gy = grid.origin_y + (iy + (1 if dy > 0 else 0)) * res
        t_max_y = (next_gy - y) / dy
        t_delta_y = res / abs(dy)
    else:
        t_max_y, t_delta_y = inf, inf

    while True:
        # advance to the next crossed boundary; equal t means a corner crossing
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_delta_x
            ix += step_x
        elif t_max_y < t_max_x:
            t = t_max_y
            t_max_y += t_delta_y
            iy += step_y
        else:
            t = t_max_x
            t_max_x += t_delta_x
            t_max_y += t_delta_y
            ix += step_x
            iy += step_y
        if t > max_range:
            return None
        if not (0 <= ix < grid.width and 0 <= iy < grid.height):
            return None
        if grid.occupied[iy, ix]:
            return (x + t * dx, y + t * dy)
