"""Shared builders for the test suite: grids, synthetic scenarios, oracles."""

from __future__ import annotations

import heapq
import math
import random
from functools import lru_cache
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from fleetsim import dynamics
from fleetsim.dynamics import Control, HumanSpec, HumanState, RobotState
from fleetsim.navigation import RoadwayNetwork
from fleetsim.planner import Path as PlannedPath, PlanningError, UnreachableError
from fleetsim.qp import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, QPResult
from fleetsim.safety import ControllerParams
from fleetsim.scenario import RobotSpec, Scenario, WorldParams, load_scenario
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
from fleetsim.world import (
    LETHAL_COST,
    MAX_INFLATED_COST,
    ObstaclePointSet,
    OccupancyGrid,
    inflate,
    load_map,
)

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


def grid_view(grid: OccupancyGrid, store) -> np.ndarray:
    """A flat per-cell store of ``grid`` as a read-only array indexed
    ``[iy, ix]``: ``grid.occupied`` reads as bool, a costmap's ``cost`` as
    uint8 and ``grid.clearance`` as float."""
    if store is grid.occupied:
        view = np.frombuffer(store, dtype=bool)
    elif isinstance(store, bytes):
        view = np.frombuffer(store, dtype=np.uint8)
    else:
        view = np.array(store, dtype=float)
        view.flags.writeable = False
    return view.reshape(grid.height, grid.width)


def reference_occupancy(text: str) -> np.ndarray:
    """The occupancy of a valid map file as the 2-D bool array ``load_map``
    built before its store became bytes, indexed ``[iy, ix]``."""
    first, *rows = text.splitlines()
    width, height = (int(v) for v in first.split()[1:3])
    occupied = np.zeros((height, width), dtype=bool)
    for row, line in enumerate(rows[:height]):
        iy = height - 1 - row
        for ix, ch in enumerate(line):
            if ch == "#":
                occupied[iy, ix] = True
    return occupied


def reference_clearance(occupied: np.ndarray, resolution: float) -> np.ndarray:
    """``OccupancyGrid.clearance`` as the 2-D float array it was built as:
    the Euclidean distance transform in meters, inf everywhere with no wall."""
    if not occupied.any():
        return np.full(occupied.shape, math.inf)
    return ndimage.distance_transform_edt(~occupied) * resolution


def reference_inflate(occupied: np.ndarray, clearance: np.ndarray, inflation_radius: float,
                      cost_scale: float, r_robot: float) -> np.ndarray:
    """``inflate``'s cost as the 2-D uint8 array it was built as, from the
    2-D occupancy and clearance arrays."""
    cost = np.zeros(occupied.shape, dtype=np.uint8)
    if not occupied.any():
        return cost
    with np.errstate(over="ignore"):
        decay = 254.0 * np.exp(-cost_scale * (clearance - r_robot))
    inflated = np.clip(np.rint(decay), 0, MAX_INFLATED_COST)
    mask = (clearance > 0) & (clearance <= inflation_radius)
    cost[mask] = inflated[mask].astype(np.uint8)
    cost[occupied] = LETHAL_COST
    return cost


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


def crowd_scenario(duration: float = 60.0) -> Scenario:
    """The bundled rooms scenario with three pedestrians: its own, one
    crossing the corridor and one walking along it past both queue lines.

    Pedestrians repel each other, and multi-robot QPs carry pedestrian rows.
    """
    scenario = load_scenario(SCENARIOS / "rooms_four_robot.yaml", duration=duration)
    return replace(scenario, digest="", humans=[
        *scenario.humans,
        HumanSpec((5.5, 6.0), ((4.5, 6.0), (11.0, 6.0)), 0.75),
        HumanSpec((6.5, 4.0), ((6.5, 1.5), (6.5, 10.5)), 0.75),
    ])


@lru_cache(maxsize=None)
def _depot_open_cells() -> tuple[tuple[float, float], ...]:
    # cells with low inflated cost sit well away from every wall and pillar
    _, grid, costmap = depot_world()
    cost = grid_view(grid, costmap.cost)
    return tuple(
        grid.cell_center(ix, iy)
        for iy in range(grid.height)
        for ix in range(grid.width)
        if cost[iy, ix] <= 40
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
    cost = grid_view(grid, costmap.cost)
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


def reference_plan(costmap, start, goal, cost_weight: float = 3.0):
    """The planner's A* as a plain loop over numpy cost lookups, no caches.

    Same moves, edge weights, heuristic and (f, -g, index) tie-break as
    ``planner.plan``, so paths and costs must match bit for bit.
    """
    grid = costmap.grid
    try:
        s = grid.world_to_cell(*start)
        g = grid.world_to_cell(*goal)
    except ValueError as exc:
        raise PlanningError(str(exc)) from None
    cost = grid_view(grid, costmap.cost)
    if cost[s[1], s[0]] == LETHAL_COST:
        raise PlanningError(f"start {start} lies on a lethal cell")
    if cost[g[1], g[0]] == LETHAL_COST:
        raise PlanningError(f"goal {goal} lies on a lethal cell")

    width, height = grid.width, grid.height

    def h(ix: int, iy: int) -> float:
        return math.hypot(ix - g[0], iy - g[1])

    start_idx = s[1] * width + s[0]
    open_heap = [(h(*s), 0.0, start_idx)]
    g_score = {start_idx: 0.0}
    came_from = {}
    closed = set()

    while open_heap:
        f, neg_g, idx = heapq.heappop(open_heap)
        if idx in closed:
            continue
        closed.add(idx)
        iy, ix = divmod(idx, width)
        if (ix, iy) == g:
            cells = [idx]
            while idx in came_from:
                idx = came_from[idx]
                cells.append(idx)
            cells.reverse()
            points = tuple(grid.cell_center(i % width, i // width) for i in cells)
            return PlannedPath(points, -neg_g)
        g_here = -neg_g
        c_here = int(cost[iy, ix])
        for dx, dy, length in _MOVES:
            nx, ny = ix + dx, iy + dy
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            c_next = int(cost[ny, nx])
            if c_next == LETHAL_COST:
                continue
            if dx != 0 and dy != 0:
                # no squeezing diagonally past a lethal cell
                if cost[iy, nx] == LETHAL_COST or cost[ny, ix] == LETHAL_COST:
                    continue
            nidx = ny * width + nx
            if nidx in closed:
                continue
            avg = 0.5 * (c_here + c_next)
            tentative = g_here + length * (1.0 + cost_weight * avg / 254.0)
            if tentative < g_score.get(nidx, math.inf):
                g_score[nidx] = tentative
                came_from[nidx] = idx
                heapq.heappush(open_heap, (tentative + h(nx, ny), -tentative, nidx))
    raise UnreachableError(f"no path from {start} to {goal}")


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


def reference_step_robot(
    state: RobotState, control: Control, dt: float, v_max: float = 1.0
) -> RobotState:
    """One step of the unicycle as a plain RK4 loop: the four stages written
    out, the speed clamped after each substep and the heading wrapped once,
    on return. ``dynamics.step_robot`` must match chained calls bit for bit."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    values = (state.x, state.y, state.theta, state.v, control.a, control.omega, dt)
    if not all(math.isfinite(u) for u in values):
        raise ValueError("non-finite state or control")
    n_sub = max(1, math.ceil(dt / dynamics.MAX_SUBSTEP - 1e-12))
    h = dt / n_sub
    x, y, theta, v = state.x, state.y, state.theta, state.v
    a, w = control.a, control.omega

    def f(th, vel):
        return vel * math.cos(th), vel * math.sin(th), w, a

    for _ in range(n_sub):
        k1 = f(theta, v)
        k2 = f(theta + 0.5 * h * w, v + 0.5 * h * a)
        k3 = f(theta + 0.5 * h * w, v + 0.5 * h * a)
        k4 = f(theta + h * w, v + h * a)
        x += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        theta += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        v = min(max(v + h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]), -v_max), v_max)
    return RobotState(x, y, dynamics.wrap_angle(theta), v)


def reference_lookahead_point(points, position, delta):
    """The tracking target by a full scan: every vertex's distance, the first
    nearest, then the first vertex from it at least ``delta`` away."""
    px, py = position
    dists = [math.hypot(x - px, y - py) for x, y in points]
    nearest = dists.index(min(dists))
    for i in range(nearest, len(dists)):
        if dists[i] >= delta:
            return points[i]
    return points[-1]


def _reference_repulsion(dx: float, dy: float, radius_sum: float) -> tuple[float, float]:
    dist = float(np.hypot(dx, dy))
    magnitude = min(
        dynamics.REPULSE_STRENGTH * math.exp((radius_sum - dist) / dynamics.REPULSE_RANGE),
        dynamics.FORCE_CAP,
    )
    if dist < 1e-12:
        return magnitude, 0.0  # overlapping bodies: push along +x
    return magnitude * (dx / dist), magnitude * (dy / dist)


def reference_step_human(
    human: HumanState,
    spec: HumanSpec,
    robot_positions: list[tuple[float, float]],
    other_humans: list[HumanState],
    obstacle_points: list[tuple[float, float]],
    dt: float,
    r_robot: float,
    r_human: float,
) -> HumanState:
    """The social-force step ``dynamics.step_human`` must match bit for bit,
    with every distance taken by ``np.hypot``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, vx, vy = human.x, human.y, human.vx, human.vy

    fx = fy = 0.0
    if spec.waypoints:
        gx, gy = spec.waypoints[human.goal_index]
        tx, ty = gx - x, gy - y
        dist = float(np.hypot(tx, ty))
        if dist > 1e-12:
            wx, wy = spec.v_desired * tx / dist, spec.v_desired * ty / dist
        else:
            wx = wy = 0.0
        fx += (wx - vx) / dynamics.TAU
        fy += (wy - vy) / dynamics.TAU
    sources = (
        [(rx, ry, r_human + r_robot) for rx, ry in robot_positions]
        + [(o.x, o.y, 2.0 * r_human) for o in other_humans]
        + [(ox, oy, r_human) for ox, oy in obstacle_points]
    )
    for sx, sy, radius_sum in sources:
        px, py = _reference_repulsion(x - sx, y - sy, radius_sum)
        fx += px
        fy += py

    vx = vx + fx * dt
    vy = vy + fy * dt
    speed = float(np.hypot(vx, vy))
    cap = dynamics.MAX_SPEED_FACTOR * spec.v_desired
    if speed > cap:
        vx = vx * (cap / speed)
        vy = vy * (cap / speed)
    x = x + vx * dt
    y = y + vy * dt

    goal_index = human.goal_index
    if spec.waypoints:
        gx, gy = spec.waypoints[goal_index]
        if float(np.hypot(gx - x, gy - y)) <= dynamics.WAYPOINT_TOLERANCE:
            goal_index = (goal_index + 1) % len(spec.waypoints)
    return HumanState(x, y, vx, vy, goal_index)


def occupied_cell_bounds(grid: OccupancyGrid) -> np.ndarray | None:
    """(N, 4) array of x_lo, x_hi, y_lo, y_hi for every occupied cell."""
    iy, ix = np.nonzero(grid_view(grid, grid.occupied))
    if len(ix) == 0:
        return None
    res = grid.resolution
    x_lo = grid.origin_x + ix * res
    y_lo = grid.origin_y + iy * res
    return np.stack([x_lo, x_lo + res, y_lo, y_lo + res], axis=1)


def rect_distances(points: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Min distance from each point to the nearest solid cell rectangle."""
    x = points[:, 0:1]
    y = points[:, 1:2]
    dx = np.maximum(0.0, np.maximum(bounds[:, 0] - x, x - bounds[:, 1]))
    dy = np.maximum(0.0, np.maximum(bounds[:, 2] - y, y - bounds[:, 3]))
    return np.min(np.hypot(dx, dy), axis=1)


def reference_distance_minima(grid: OccupancyGrid, states) -> tuple[float | None, float | None]:
    """``min_robot_distance`` and ``min_obstacle_distance`` over ``state``
    records, as ``metrics.compute_metrics`` computed them with numpy arrays
    per record; ``compute_metrics`` must match them bit for bit."""
    bounds = occupied_cell_bounds(grid)
    min_rr = math.inf
    min_obs = math.inf
    for ev in states:
        pts = np.array([[r[1], r[2]] for r in ev["robots"]], dtype=float)
        if len(pts) >= 2:
            diffs = pts[:, None, :] - pts[None, :, :]
            d = np.hypot(diffs[..., 0], diffs[..., 1])
            iu = np.triu_indices(len(pts), k=1)
            min_rr = min(min_rr, float(d[iu].min()))
        if bounds is not None and len(pts):
            min_obs = min(min_obs, float(rect_distances(pts, bounds).min()))
    return (min_rr if min_rr < math.inf else None,
            min_obs if min_obs < math.inf else None)


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
    occupied = grid_view(grid, grid.occupied)
    ix, iy = grid.world_to_cell(x, y)
    if occupied[iy, ix]:
        return (x, y)  # surrounded: the sensing pose itself sits on an occupied cell
    for t, ix, iy in reference_ray_cells(grid, x, y, angle, max_range):
        if occupied[iy, ix]:
            return (x + t * math.cos(angle), y + t * math.sin(angle))
    return None


def reference_ray_cells(grid: OccupancyGrid, x: float, y: float, angle: float,
                        max_range: float):
    """Yield ``(t, ix, iy)`` for each cell the ray enters, in order, at entry
    distance ``t``, up to ``max_range`` and the map's edge."""
    res = grid.resolution
    dx, dy = math.cos(angle), math.sin(angle)
    ix, iy = grid.world_to_cell(x, y)
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
            return
        if not (0 <= ix < grid.width and 0 <= iy < grid.height):
            return
        yield t, ix, iy


def random_cluster(rng: random.Random, u_max: float = 3.0):
    """The solve_cluster_qp arguments of a random cluster: members with
    shuffled ids, close enough for pair, obstacle and human rows to bind,
    with nominal controls drawn from [-u_max, u_max]; states, nominals and
    obstacle points in member order."""
    n = rng.randint(1, 4)
    members = rng.sample(range(6), n)
    spread = rng.choice((0.6, 1.5, 4.0))
    states, nominals, obstacle_points = [], [], []
    for _ in members:
        s = RobotState(rng.uniform(0, spread), rng.uniform(0, spread),
                       rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
        states.append(s)
        nominals.append(Control(rng.uniform(-u_max, u_max), rng.uniform(-u_max, u_max)))
        points = []
        for _ in range(rng.choice((1, 4, 16))):
            d, ang = rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi)
            hit = (s.x + d * math.cos(ang), s.y + d * math.sin(ang))
            points.append(hit if rng.random() < 0.3 else None)
        obstacle_points.append(ObstaclePointSet(tuple(points)))
    humans = [HumanState(rng.uniform(-1, spread + 1), rng.uniform(-1, spread + 1),
                         rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in range(rng.randint(0, 2))]
    return members, states, nominals, obstacle_points, humans


def near_dependent_cluster():
    """The solve_cluster_qp arguments of a three-robot cluster from a seed-1
    rooms_crowd run (perfbench/workloads.py), the 5 483rd call of the run:
    9, 7 and 8 wall hits, 3 pedestrians, 48 rows. Robot 1 moves at 0.0015
    m/s, so its omega coefficients are near zero and the active set (1, 3,
    32, 2, 42, 47, 39) is near-dependent. A scan that skips active rows
    returns that set as optimal with pair row 1 violated by 0.28."""
    members = [1, 2, 3]
    states = [
        RobotState(4.499521165510837, 2.264011104640521, 3.0995563421438774,
                   0.0014867800887132672),
        RobotState(6.02205243288903, 1.8332039282522024, 0.9510653805180551,
                   -0.029714707583967825),
        RobotState(5.296936006646442, 2.1999305053868077, 2.3533380966356914,
                   0.0027208966549107797),
    ]
    nominals = [
        Control(-0.0029735601774265345, 0.0),
        Control(0.05942941516793565, 0.0),
        Control(0.7729822967576017, 1.262101534393878e-12),
    ]
    hits = [
        ((4.0, 2.285021508874514), (4.0, 2.0812963734540686), (4.0, 1.8048146464897505),
         (3.6803762467588603, 0.5), (4.425324937321291, 0.4999999999999998),
         (5.144760721005343, 0.5000000000000002), (6.121129432221975, 0.5),
         (3.8645315669541915, 4.0), (4.0, 2.4959712229531843)),
        ((3.9999999999999996, 2.300327703071085), (3.887819790764558, 0.5),
         (5.070807559287586, 0.4999999999999998), (5.714062767814548, 0.5000000000000002),
         (6.244963671555745, 0.5), (6.854872941405757, 0.4999999999999998),
         (7.890585723983348, 0.5)),
        ((3.50712066383982, 4.0), (4.0, 2.2036350751147653), (4.0, 1.6670570662598),
         (3.5872663147380113, 0.5), (4.587106210133703, 0.4999999999999998),
         (5.292080322898274, 0.5), (5.995388212491726, 0.5), (6.9871828050902565, 0.5)),
    ]
    humans = [
        HumanState(8.159222928376177, 6.063544674274321, -0.009361828303825839,
                   -0.7973104812106904, 1),
        HumanState(6.319064722912167, 5.97766009548229, 0.7366378481015062,
                   -0.0014783301666346912, 1),
        HumanState(6.818377469336435, 1.5528128519723536, -0.10766991315141283,
                   -0.08895082952083062, 0),
    ]
    obstacle_points = [ObstaclePointSet(points) for points in hits]
    return members, states, nominals, obstacle_points, humans, ControllerParams()


def row_violation(rows, b, x) -> float:
    """How far the worst row of ``rows x >= b`` falls below its bound (0.0
    when every row holds), each dot summed as ``qp.solve_diagonal`` does."""
    worst = 0.0
    for row, bk in zip(rows, b):
        s = 0.0
        for v, c in row:
            s += c * x[v]
        worst = max(worst, bk - s)
    return worst


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
    (static obstacles pass (0, 0)): the row oracle, one row at a time."""
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


def sparse_rows(A) -> list[list[tuple[int, float]]]:
    """A dense constraint matrix as ``qp.solve_qp`` rows: the nonzero
    (variable, coefficient) pairs of each row."""
    return [[(j, float(c)) for j, c in enumerate(row) if c] for row in A]


def reference_soft_system(A, b, g, n, penalty):
    """The slack-penalized problem over a hard system (A, b) with 2n
    controls, laid out as ``safety.solve_cluster_qp`` builds it: the
    Hessian's diagonal, then (g, A, b) over the controls and one slack per
    CBF row."""
    m = len(b) - 4 * n
    h = np.array([2.0] * (2 * n) + [2.0 * penalty] * m)
    A_soft = np.block([
        [A[:m], np.eye(m)],
        [np.zeros((m, 2 * n)), np.eye(m)],
        [A[m:], np.zeros((4 * n, m))],
    ])
    b_soft = np.concatenate([b[:m], np.zeros(m), b[m:]])
    return h, np.concatenate([g, np.zeros(m)]), A_soft, b_soft


def reference_solve_diagonal(h, g, A, b, max_iter: int = 200, tol: float = 1e-9) -> QPResult:
    """The numpy Goldfarb-Idnani core ``qp.solve_diagonal`` must match to
    rounding: the same status, active-set steps and active set. h is a
    positive float or 1-D array, A and b dense arrays; each H^-1 v is
    ``(v * s) * s`` with s = 1/sqrt(h), and every product a BLAS dot."""
    s = np.asarray(1.0 / np.sqrt(h))
    x = (-g * s) * s
    hinv_A = (A * s) * s
    active: list[int] = []
    lam: list[float] = []
    iterations = 0

    def result(status: str) -> QPResult:
        return QPResult(x, status, iterations, tuple(active))

    while iterations < max_iter:
        slack = A @ x - b
        if active:
            slack[active] = 0.0
        p = int(slack.argmin()) if len(slack) else -1
        if p < 0 or slack[p] >= -tol:
            return result(OPTIMAL)
        n_p = A[p]
        lam_p = 0.0

        while iterations < max_iter:
            iterations += 1
            hinv_np = hinv_A[p]
            if active:
                N = A[active].T
                hinv_N = hinv_A[active].T
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
