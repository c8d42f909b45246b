"""Static environment: ASCII occupancy grids, inflated costmaps, ray sensing.

The map is immutable after loading and safe to share across readers: the
occupancy and cost arrays are read-only, so caches derived from them stay
valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

LETHAL_COST = 255
MAX_INFLATED_COST = 254


class MapError(ValueError):
    """Raised when a map file does not conform to the expected format."""


@dataclass(frozen=True)
class OccupancyGrid:
    """2D occupancy grid.

    ``occupied`` is indexed ``[iy, ix]``; cell (ix, iy) spans the world
    rectangle ``[origin + i*res, origin + (i+1)*res)`` on each axis.
    """

    width: int
    height: int
    resolution: float
    origin_x: float
    origin_y: float
    occupied: np.ndarray = field(repr=False)  # bool, shape (height, width)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise MapError("grid dimensions must be positive")
        if self.resolution <= 0:
            raise MapError("resolution must be positive")
        if self.occupied.shape != (self.height, self.width):
            raise MapError("occupancy array shape does not match header")
        self.occupied.flags.writeable = False

    def in_bounds(self, x: float, y: float) -> bool:
        return (
            self.origin_x <= x < self.origin_x + self.width * self.resolution
            and self.origin_y <= y < self.origin_y + self.height * self.resolution
        )

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Map a world point to its (ix, iy) cell. Raises for out-of-bounds points."""
        if not self.in_bounds(x, y):
            raise MapError(f"point ({x}, {y}) is outside the map bounds")
        ix = int(math.floor((x - self.origin_x) / self.resolution))
        iy = int(math.floor((y - self.origin_y) / self.resolution))
        # floor of a point exactly on the far edge is excluded by in_bounds,
        # but guard against float roundoff at the boundary
        return min(ix, self.width - 1), min(iy, self.height - 1)

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        return (
            self.origin_x + (ix + 0.5) * self.resolution,
            self.origin_y + (iy + 0.5) * self.resolution,
        )

    def is_occupied_cell(self, ix: int, iy: int) -> bool:
        return bool(self.occupied[iy, ix])

    @cached_property
    def clearance(self) -> np.ndarray:
        """Per cell, the distance in meters between its center and the nearest
        occupied cell's center (0 on occupied cells, inf with no wall at all)."""
        if not self.occupied.any():
            # the transform of an all-free grid measures to nothing
            return np.full((self.height, self.width), math.inf)
        return ndimage.distance_transform_edt(~self.occupied) * self.resolution

    @cached_property
    def clearance_flat(self) -> list[float]:
        """``clearance`` as one float per cell, cell (ix, iy) at ``iy * width + ix``."""
        return self.clearance.ravel().tolist()

    @cached_property
    def occupied_flat(self) -> bytes:
        """``occupied`` as one byte per cell, cell (ix, iy) at ``iy * width + ix``."""
        return self.occupied.tobytes()


@dataclass(frozen=True)
class Costmap:
    """Per-cell traversal cost on the same geometry as the source grid.

    255 marks lethal (occupied) cells; 0 is free space far from obstacles.
    ``plans``, ``edge_tables`` and ``centers`` are the planner's caches
    (``planner.plan``): A* results by (start cell, goal cell, cost_weight),
    edge weights by cost_weight, and the one center tuple per flat cell index
    that every path through the cell shares.
    """

    grid: OccupancyGrid
    cost: np.ndarray = field(repr=False)  # uint8, shape (height, width)
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    edge_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    centers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cost.flags.writeable = False


@dataclass(frozen=True)
class ObstaclePointSet:
    """First obstacle hit per sensing ray; ``None`` where a ray found nothing."""

    points: tuple[tuple[float, float] | None, ...]

    def hit_points(self) -> list[tuple[float, float]]:
        return [p for p in self.points if p is not None]

    def __len__(self) -> int:
        return len(self.hit_points())


def load_map(text: str) -> OccupancyGrid:
    """Parse a map file.

    Format: ``map <width> <height> <resolution> <origin_x> <origin_y>`` on the
    first line, then ``height`` rows of '#'/'.' characters, top row first
    (the top row holds the cells with the largest y).
    """
    lines = text.splitlines()
    if not lines:
        raise MapError("line 1: empty map file")
    fields = lines[0].split()
    if len(fields) != 6 or fields[0] != "map":
        raise MapError("line 1: expected 'map <width> <height> <resolution> <ox> <oy>'")
    try:
        width, height = int(fields[1]), int(fields[2])
        resolution, ox, oy = (float(v) for v in fields[3:6])
    except ValueError as exc:
        raise MapError(f"line 1: malformed header field: {exc}") from None
    if width <= 0 or height <= 0 or resolution <= 0:
        raise MapError("line 1: width, height and resolution must be positive")

    body = lines[1:]
    # trailing blank lines are tolerated, blank lines inside the body are not
    while body and body[-1] == "":
        body.pop()
    if len(body) != height:
        raise MapError(f"line {len(body) + 1}: expected {height} rows, found {len(body)}")

    occupied = np.zeros((height, width), dtype=bool)
    for row, line in enumerate(body):
        lineno = row + 2
        if len(line) != width:
            raise MapError(f"line {lineno}: row has {len(line)} characters, expected {width}")
        iy = height - 1 - row
        for ix, ch in enumerate(line):
            if ch == "#":
                occupied[iy, ix] = True
            elif ch != ".":
                raise MapError(f"line {lineno}: unknown character {ch!r}")
    return OccupancyGrid(width, height, resolution, ox, oy, occupied)


def inflate(
    grid: OccupancyGrid,
    inflation_radius: float,
    cost_scale: float,
    r_robot: float = 0.3,
) -> Costmap:
    """Build the inflated costmap.

    Occupied cells are lethal (255). A free cell at distance d (meters, between
    cell centers) from the nearest occupied cell gets
    ``round(254 * exp(-cost_scale * (d - r_robot)))`` clamped to [0, 254] while
    d <= inflation_radius, and 0 beyond the radius.
    """
    if inflation_radius < 0:
        raise ValueError("inflation_radius must be >= 0")
    cost = np.zeros((grid.height, grid.width), dtype=np.uint8)
    if not grid.occupied.any():
        return Costmap(grid, cost)
    dist = grid.clearance
    with np.errstate(over="ignore"):
        decay = 254.0 * np.exp(-cost_scale * (dist - r_robot))
    inflated = np.clip(np.rint(decay), 0, MAX_INFLATED_COST)
    mask = (dist > 0) & (dist <= inflation_radius)
    cost[mask] = inflated[mask].astype(np.uint8)
    cost[grid.occupied] = LETHAL_COST
    return Costmap(grid, cost)


def raycast(
    grid: OccupancyGrid,
    x: float,
    y: float,
    heading: float,
    n_rays: int = 16,
    max_range: float = 3.0,
) -> ObstaclePointSet:
    """Cast evenly spaced rays from (x, y) and return first-hit points.

    Rays leave at angles ``heading + 2*pi*k/n_rays``. Each ray walks the grid
    cell by cell (Amanatides & Woo 1987; every traversed cell is visited);
    the hit point is the ray's entry point on the first occupied cell's
    boundary. A ray with no occupied cell within ``max_range`` contributes
    ``None``.

    A ray entering a cell at distance t stops with ``None`` once the cell's
    clearance exceeds ``max_range - t + resolution*sqrt(2)``: every point of a
    cell lies within ``resolution*sqrt(2)/2`` of its center, so no occupied
    cell is left within ``max_range``. At t = 0 this skips the whole pose.
    """
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    if not grid.in_bounds(x, y):
        raise MapError(f"sensing pose ({x}, {y}) is outside the map bounds")
    ix0, iy0 = grid.world_to_cell(x, y)
    res = grid.resolution
    width, height = grid.width, grid.height
    clearance = grid.clearance_flat
    reach = max_range + res * math.sqrt(2.0)
    # the relative margin keeps distance-transform rounding from skipping a hit
    if clearance[iy0 * width + ix0] > reach * (1.0 + 1e-9):
        return ObstaclePointSet((None,) * n_rays)
    occupied = grid.occupied_flat
    if occupied[iy0 * width + ix0]:
        # surrounded: the sensing pose itself sits on an occupied cell
        return ObstaclePointSet(((x, y),) * n_rays)
    ox, oy = grid.origin_x, grid.origin_y
    inf = math.inf
    points: list[tuple[float, float] | None] = []
    for offset in _ray_offsets(n_rays):
        angle = heading + offset
        dx, dy = math.cos(angle), math.sin(angle)
        ix, iy = ix0, iy0
        step_x = 1 if dx > 0 else -1
        step_y = 1 if dy > 0 else -1
        if dx != 0.0:
            next_gx = ox + (ix + (1 if dx > 0 else 0)) * res
            t_max_x = (next_gx - x) / dx
            t_delta_x = res / abs(dx)
        else:
            t_max_x, t_delta_x = inf, inf
        if dy != 0.0:
            next_gy = oy + (iy + (1 if dy > 0 else 0)) * res
            t_max_y = (next_gy - y) / dy
            t_delta_y = res / abs(dy)
        else:
            t_max_y, t_delta_y = inf, inf

        hit = None
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
            if t > max_range or not (0 <= ix < width and 0 <= iy < height):
                break
            cell = iy * width + ix
            if occupied[cell]:
                hit = (x + t * dx, y + t * dy)
                break
            if clearance[cell] > (reach - t) * (1.0 + 1e-9):
                break  # no occupied cell is left within reach of the ray
        points.append(hit)
    return ObstaclePointSet(tuple(points))


@lru_cache(maxsize=None)
def _ray_offsets(n_rays: int) -> tuple[float, ...]:
    return tuple(2.0 * math.pi * k / n_rays for k in range(n_rays))
