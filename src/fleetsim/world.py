"""Static environment: ASCII occupancy grids, inflated costmaps, ray sensing.

The map is immutable after loading and safe to share across readers: grids
and costmaps are immutable flat per-cell stores, cell (ix, iy) at index
``iy * width + ix`` (bytes for occupancy and cost, a float tuple computed once
per grid for clearance), so caches derived from them stay valid.

Ray sensing reads one more store, built at a grid's first cast: the sensor
store, the clearance of each free cell padded with a one-cell ring around
the map, with a sentinel for walls and another for the ring. A ray's step
moves one index and reads one value from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

LETHAL_COST = 255
MAX_INFLATED_COST = 254
_CELL_BYTES = bytes.maketrans(b"#.", b"\x01\x00")  # map characters to occupancy bytes
# sensor store values below every clearance: an occupied cell, the ring off the map
_WALL = -1.0
_OFF_MAP = -2.0


class MapError(ValueError):
    """Raised when a map file does not conform to the expected format."""


@dataclass(frozen=True)
class OccupancyGrid:
    """2D occupancy grid.

    ``occupied`` holds one byte per cell, 1 for a wall and 0 for free, cell
    (ix, iy) at ``iy * width + ix``; the cell spans the world rectangle
    ``[origin + i*res, origin + (i+1)*res)`` on each axis.
    """

    width: int
    height: int
    resolution: float
    origin_x: float
    origin_y: float
    occupied: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise MapError("grid dimensions must be positive")
        if self.resolution <= 0:
            raise MapError("resolution must be positive")
        if len(self.occupied) != self.width * self.height:
            raise MapError("occupancy length does not match header")
        if self.occupied.translate(None, b"\x00\x01"):
            raise MapError("occupancy bytes must be 0 or 1")

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
        return bool(self.occupied[iy * self.width + ix])

    @cached_property
    def clearance(self) -> tuple[float, ...]:
        """Per cell, flat like ``occupied``, the distance in meters between its
        center and the nearest occupied cell's center (0 on occupied cells, inf
        with no wall at all)."""
        if 1 not in self.occupied:
            # the transform of an all-free grid measures to nothing
            return (math.inf,) * len(self.occupied)
        walls = np.frombuffer(self.occupied, dtype=bool).reshape(self.height, self.width)
        return tuple(
            (ndimage.distance_transform_edt(~walls) * self.resolution).ravel().tolist())

    @cached_property
    def sensor_store(self) -> tuple[float, ...]:
        """``clearance`` padded with a one-cell ring around the map, for the
        ray walk: cell (ix, iy) at ``(iy + 1) * (width + 2) + ix + 1``, each
        free cell holding its clearance, each occupied cell -1.0 and the ring
        -2.0. The ring is a value of its own, so a ray that reaches it ends
        with no hit."""
        width = self.width
        ring = (_OFF_MAP,) * (width + 2)
        store = list(ring)
        for start in range(0, len(self.occupied), width):
            store.append(_OFF_MAP)
            store.extend(_WALL if wall else clear for wall, clear in zip(
                self.occupied[start:start + width], self.clearance[start:start + width]))
            store.append(_OFF_MAP)
        store += ring
        return tuple(store)


@dataclass(frozen=True)
class Costmap:
    """Per-cell traversal cost on the same geometry as the source grid.

    ``cost`` holds one byte per cell, flat like the grid's ``occupied``: 255
    marks lethal (occupied) cells; 0 is free space far from obstacles.
    ``plans``, ``edge_tables`` and ``centers`` are the planner's caches
    (``planner.plan``): A* results by (start cell, goal cell, cost_weight),
    edge weights by cost_weight, and the one center tuple per flat cell index
    that every path through the cell shares.
    """

    grid: OccupancyGrid
    cost: bytes = field(repr=False)
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    edge_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    centers: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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

    for lineno, line in enumerate(body, start=2):
        if len(line) != width:
            raise MapError(f"line {lineno}: row has {len(line)} characters, expected {width}")
        stray = line.replace("#", "").replace(".", "")
        if stray:
            raise MapError(f"line {lineno}: unknown character {stray[0]!r}")
    # the bottom text row holds iy = 0, so the rows go in reversed
    occupied = "".join(reversed(body)).encode().translate(_CELL_BYTES)
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
    if 1 not in grid.occupied:
        return Costmap(grid, bytes(len(grid.occupied)))
    dist = np.array(grid.clearance)
    with np.errstate(over="ignore"):
        decay = 254.0 * np.exp(-cost_scale * (dist - r_robot))
    inflated = np.clip(np.rint(decay), 0, MAX_INFLATED_COST)
    mask = (dist > 0) & (dist <= inflation_radius)
    cost = np.zeros(dist.shape, dtype=np.uint8)
    cost[mask] = inflated[mask].astype(np.uint8)
    cost[np.frombuffer(grid.occupied, dtype=bool)] = LETHAL_COST
    return Costmap(grid, cost.tobytes())


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

    The walk runs over ``grid.sensor_store``: one index per ray, moved by
    one cell along x or by one padded row along y, and one value read per
    step, which is a free cell's clearance, a wall or the ring off the map.
    """
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    if not math.isfinite(heading):
        raise ValueError(f"heading must be finite, got {heading}")
    ox, oy, res, width = grid.origin_x, grid.origin_y, grid.resolution, grid.width
    if not (ox <= x < ox + width * res and oy <= y < oy + grid.height * res):
        raise MapError(f"sensing pose ({x}, {y}) is outside the map bounds")
    # the pose's cell as world_to_cell finds it: the offsets are >= 0, so int
    # floors them, and the clamp guards float roundoff at the far edge
    ix0 = min(int((x - ox) / res), width - 1)
    iy0 = min(int((y - oy) / res), grid.height - 1)
    stride = width + 2
    start = (iy0 + 1) * stride + ix0 + 1
    store = grid.sensor_store
    reach = max_range + res * math.sqrt(2.0)
    # the relative margin keeps distance-transform rounding from skipping a hit
    if store[start] > reach * (1.0 + 1e-9):
        return ObstaclePointSet((None,) * n_rays)
    if store[start] == _WALL:
        # surrounded: the sensing pose itself sits on an occupied cell
        return ObstaclePointSet(((x, y),) * n_rays)
    # the pose cell's boundaries; a ray leaves through the far one on each axis
    x_lo, x_hi = ox + ix0 * res, ox + (ix0 + 1) * res
    y_lo, y_hi = oy + iy0 * res, oy + (iy0 + 1) * res
    inf = math.inf
    points: list[tuple[float, float] | None] = []
    for offset in _ray_offsets(n_rays):
        angle = heading + offset
        dx, dy = math.cos(angle), math.sin(angle)
        if dx > 0.0:
            step_x, t_max_x, t_delta_x = 1, (x_hi - x) / dx, res / dx
        elif dx != 0.0:  # negative
            step_x, t_max_x, t_delta_x = -1, (x_lo - x) / dx, res / -dx
        else:
            step_x, t_max_x, t_delta_x = -1, inf, inf
        if dy > 0.0:
            step_y, t_max_y, t_delta_y = stride, (y_hi - y) / dy, res / dy
        elif dy != 0.0:
            step_y, t_max_y, t_delta_y = -stride, (y_lo - y) / dy, res / -dy
        else:
            step_y, t_max_y, t_delta_y = -stride, inf, inf

        cell = start
        hit = None
        while True:
            # advance to the next crossed boundary; equal t means a corner crossing
            if t_max_x < t_max_y:
                t = t_max_x
                t_max_x += t_delta_x
                cell += step_x
            elif t_max_y < t_max_x:
                t = t_max_y
                t_max_y += t_delta_y
                cell += step_y
            else:
                t = t_max_x
                t_max_x += t_delta_x
                t_max_y += t_delta_y
                cell += step_x + step_y
            if t > max_range:
                break
            value = store[cell]
            if value < 0.0:
                if value == _WALL:
                    hit = (x + t * dx, y + t * dy)
                break  # a wall, or the ring off the map
            if value > (reach - t) * (1.0 + 1e-9):
                break  # no occupied cell is left within reach of the ray
        points.append(hit)
    return ObstaclePointSet(tuple(points))


@lru_cache(maxsize=None)
def _ray_offsets(n_rays: int) -> tuple[float, ...]:
    return tuple(2.0 * math.pi * k / n_rays for k in range(n_rays))
