"""Grid path planning over inflated costmaps.

8-connected A* with costmap-weighted edges. Paths are sequences of cell
centers in world coordinates; costs are reported in cell units so they can be
compared exactly against a uniform-cost search over the same graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .world import Costmap, LETHAL_COST

SQRT2 = math.sqrt(2.0)

# (dx, dy, base length in cells)
_MOVES = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2),
)


class PlanningError(ValueError):
    """Invalid planning query (out of bounds or lethal endpoint)."""


class UnreachableError(PlanningError):
    """No lethal-free path exists between the endpoints."""


@dataclass(frozen=True)
class Path:
    """Planned route: cell-center points in world coordinates."""

    points: tuple[tuple[float, float], ...]
    total_cost: float

    def __len__(self) -> int:
        return len(self.points)


def _edge_weight(cost_a: int, cost_b: int, length: float, cost_weight: float) -> float:
    avg = 0.5 * (cost_a + cost_b)
    return length * (1.0 + cost_weight * avg / 254.0)


def plan(
    costmap: Costmap,
    start: tuple[float, float],
    goal: tuple[float, float],
    cost_weight: float = 3.0,
) -> Path:
    """Plan a minimum-cost 8-connected path from start to goal.

    Edge weight is move length (1 or sqrt(2) cells) scaled by
    ``1 + cost_weight * avg(cell costs) / 254``. Lethal cells are never
    entered and diagonal moves may not cut corners past a lethal cell.
    Ties on f are broken toward larger g, then smaller cell index.

    The search depends only on the start cell, the goal cell and
    ``cost_weight``, so its result is memoized on those in ``costmap.plans``.
    """
    grid = costmap.grid
    try:
        s = grid.world_to_cell(*start)
        g = grid.world_to_cell(*goal)
    except ValueError as exc:
        raise PlanningError(str(exc)) from None
    cost, width = costmap.cost, grid.width
    if cost[s[1] * width + s[0]] == LETHAL_COST:
        raise PlanningError(f"start {start} lies on a lethal cell")
    if cost[g[1] * width + g[0]] == LETHAL_COST:
        raise PlanningError(f"goal {goal} lies on a lethal cell")
    key = (s, g, cost_weight)
    try:
        path = costmap.plans[key]
    except KeyError:
        path = costmap.plans[key] = _search(costmap, s, g, cost_weight)
    if path is None:
        raise UnreachableError(f"no path from {start} to {goal}")
    return path


def _edge_table(costmap: Costmap, cost_weight: float) -> list:
    """Per move in ``_MOVES`` order: ``(index offset, dx, dy, weights)``.

    ``weights[idx]`` is the weight of the move out of cell ``idx``, or None
    where it leaves the map, leaves or enters a lethal cell, or cuts a
    corner past one. Built once per costmap and ``cost_weight``.
    """
    table = costmap.edge_tables.get(cost_weight)
    if table is not None:
        return table
    width, height = costmap.grid.width, costmap.grid.height
    cost = costmap.cost
    shared: dict[tuple[int, int, float], float] = {}
    table = []
    for dx, dy, length in _MOVES:
        off = dy * width + dx
        weights: list[float | None] = [None] * (width * height)
        for iy in range(max(0, -dy), min(height, height - dy)):
            row = iy * width
            for idx in range(row + max(0, -dx), row + min(width, width - dx)):
                c_here, c_next = cost[idx], cost[idx + off]
                if c_here == LETHAL_COST or c_next == LETHAL_COST:
                    continue
                # no squeezing diagonally past a lethal cell
                if dx and dy and (
                    cost[idx + dx] == LETHAL_COST or cost[idx + dy * width] == LETHAL_COST
                ):
                    continue
                key = (c_here, c_next, length)
                w = shared.get(key)
                if w is None:
                    w = shared[key] = _edge_weight(c_here, c_next, length, cost_weight)
                weights[idx] = w
        table.append((off, dx, dy, weights))
    costmap.edge_tables[cost_weight] = table
    return table


def _search(
    costmap: Costmap, s: tuple[int, int], g: tuple[int, int], cost_weight: float
) -> Path | None:
    """A* from cell ``s`` to cell ``g``; None when ``g`` is unreachable."""
    columns = _edge_table(costmap, cost_weight)
    width = costmap.grid.width
    gx, gy = g
    hypot, heappush, heappop = math.hypot, heapq.heappush, heapq.heappop
    inf = math.inf
    start_idx = s[1] * width + s[0]
    goal_idx = gy * width + gx
    open_heap: list[tuple[float, float, int]] = [
        (hypot(s[0] - gx, s[1] - gy), 0.0, start_idx)
    ]
    g_score: dict[int, float] = {start_idx: 0.0}
    came_from: dict[int, int] = {}
    closed: set[int] = set()

    while open_heap:
        _, neg_g, idx = heappop(open_heap)
        if idx in closed:
            continue
        closed.add(idx)
        if idx == goal_idx:
            return _reconstruct(costmap, came_from, idx, -neg_g)
        g_here = -neg_g
        iy, ix = divmod(idx, width)
        for off, dx, dy, weights in columns:
            w = weights[idx]
            if w is None:
                continue
            nidx = idx + off
            if nidx in closed:
                continue
            tentative = g_here + w
            if tentative < g_score.get(nidx, inf):
                g_score[nidx] = tentative
                came_from[nidx] = idx
                heappush(
                    open_heap,
                    (tentative + hypot(ix + dx - gx, iy + dy - gy), -tentative, nidx),
                )
    return None


def _reconstruct(costmap: Costmap, came_from: dict[int, int], idx: int, total: float) -> Path:
    grid, centers = costmap.grid, costmap.centers
    width = grid.width
    cells = [idx]
    while idx in came_from:
        idx = came_from[idx]
        cells.append(idx)
    cells.reverse()
    points = []
    for i in cells:
        center = centers.get(i)
        if center is None:
            center = centers[i] = grid.cell_center(i % width, i // width)
        points.append(center)
    return Path(tuple(points), total)


def lookahead_point(
    path: Path, position: tuple[float, float], delta: float, start: int
) -> tuple[tuple[float, float], int]:
    """Pick the tracking target on a path, forward of a progress index.

    Walks forward from vertex ``start`` while the next vertex is strictly
    nearer to ``position`` (a tie or nan stops the walk), then scans forward
    from the vertex it stopped at for the first vertex at least ``delta``
    away from ``position``, falling back to the final vertex. Returns the
    target and the stop vertex, which the caller passes as the next
    ``start``: vertices behind the robot are never searched again, so a
    path that ends where the robot stands does not hold it there.
    """
    points = path.points
    n = len(points)
    if not 0 <= start < n:
        raise ValueError(f"start {start} is not a vertex of a {n}-vertex path")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    px, py = position
    hypot = math.hypot
    x, y = points[start]
    best, nearest = hypot(x - px, y - py), start
    for i in range(start + 1, n):
        x, y = points[i]
        d = hypot(x - px, y - py)
        if not d < best:
            break
        best, nearest = d, i
    for i in range(nearest, n):
        x, y = points[i]
        if hypot(x - px, y - py) >= delta:
            return points[i], nearest
    return points[-1], nearest
