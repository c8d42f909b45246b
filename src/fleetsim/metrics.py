"""Post-run reporting computed from a trace.

Everything here is derived from the trace records alone, so a report can be
regenerated later from a trace file without re-running the scenario. The
solver and realtime-factor rows need a trace written with timing enabled
(``qp.duration`` and ``end.wall_time``); without it they read NA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import trace as tr
from .dynamics import _hypot
from .safety import INFEASIBLE_FALLBACK
from .trace import Trace
from .world import load_map


@dataclass
class QPTimingStats:
    count: int
    mean: float
    max: float


@dataclass
class MetricsReport:
    duration: float
    ticks: int
    robots: int
    tasks_arrived: int = 0
    tasks_completed: int = 0
    tasks_missed: int = 0
    tasks_unassigned: int = 0
    completion_times: list[float] = field(default_factory=list)
    deadline_margins: list[float] = field(default_factory=list)
    min_robot_distance: float | None = None
    min_obstacle_distance: float | None = None
    fallback_fraction: float = 0.0
    qp_timing: dict[int, QPTimingStats] = field(default_factory=dict)
    realtime_factor: float | None = None
    queue_waits: list[float] = field(default_factory=list)
    arrivals: int = 0
    faults: int = 0

    def _rows(self) -> list[tuple[str, str]]:
        def num(v, fmt="%.6g"):
            return "NA" if v is None else fmt % v

        rows = [
            ("duration_s", num(self.duration)),
            ("ticks", str(self.ticks)),
            ("robots", str(self.robots)),
            ("tasks_arrived", str(self.tasks_arrived)),
            ("tasks_completed", str(self.tasks_completed)),
            ("tasks_missed", str(self.tasks_missed)),
            ("tasks_unassigned", str(self.tasks_unassigned)),
            ("mean_completion_s", num(_mean(self.completion_times))),
            ("min_deadline_margin_s", num(min(self.deadline_margins, default=None))),
            ("waypoint_arrivals", str(self.arrivals)),
            ("faults", str(self.faults)),
            ("min_robot_distance_m", num(self.min_robot_distance)),
            ("min_obstacle_distance_m", num(self.min_obstacle_distance)),
            ("fallback_tick_fraction", num(self.fallback_fraction, "%.4f")),
            ("mean_queue_wait_s", num(_mean(self.queue_waits))),
            ("max_queue_wait_s", num(max(self.queue_waits, default=None))),
            ("realtime_factor", num(self.realtime_factor)),
        ]
        if self.qp_timing:
            for size in sorted(self.qp_timing):
                st = self.qp_timing[size]
                rows.append((f"qp_mean_s_cluster_{size}", "%.6g" % st.mean))
                rows.append((f"qp_max_s_cluster_{size}", "%.6g" % st.max))
                rows.append((f"qp_solves_cluster_{size}", str(st.count)))
        else:
            rows.append(("qp_mean_s", "NA"))
        return rows

    def to_text(self) -> str:
        rows = self._rows()
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"

    def to_csv(self) -> str:
        rows = self._rows()
        head = ",".join(k for k, _ in rows)
        body = ",".join(v for _, v in rows)
        return head + "\n" + body + "\n"


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _gap(v: float, lo: float, hi: float) -> float:
    """Distance from ``v`` to ``[lo, hi]`` along one axis; nan for a nan ``v``."""
    if v < lo:
        return lo - v
    if v > hi:
        return v - hi
    return 0.0 if v == v else v


def _ring(r: int) -> list[tuple[int, int]]:
    """Cell offsets at Chebyshev distance ``r``."""
    if r == 0:
        return [(0, 0)]
    return ([(dx, dy) for dy in (-r, r) for dx in range(-r, r + 1)]
            + [(dx, dy) for dx in (-r, r) for dy in range(1 - r, r)])


class _Walls:
    """Distance from a point to the nearest occupied cell of a grid.

    Cell (ix, iy) is the rectangle ``[x_lo, x_lo + res] x [y_lo, y_lo + res]``
    with ``x_lo = origin_x + ix * res``, and a point's distance to it is
    ``_hypot`` of the point's gap to it along each axis. ``nearest`` looks
    its candidates up in a table per query cell: occupied cells in order of
    a lower bound on their distance from anywhere in the query cell, shaded
    down to cover the rounding of cell edges and of the point's cell index.
    The scan stops once the bound reaches the minimum so far.
    """

    def __init__(self, grid) -> None:
        self.width, self.height = grid.width, grid.height
        self.res, self.ox, self.oy = grid.resolution, grid.origin_x, grid.origin_y
        self.occupied = grid.occupied
        extent = max(abs(self.ox), abs(self.oy), abs(self.ox + self.width * self.res),
                     abs(self.oy + self.height * self.res))
        self.slack = 1e-9 * (extent + self.res)
        # flat query cell -> (bound the table is complete below, candidates)
        self.tables: dict[int, tuple[float, list]] = {}

    @cached_property
    def everywhere(self) -> list:
        """The candidates for a point off the map: every occupied cell, with
        no bound."""
        return [(-math.inf, *self._rect(i % self.width, i // self.width))
                for i, cell in enumerate(self.occupied) if cell]

    def _rect(self, ix: int, iy: int) -> tuple[float, float, float, float]:
        x_lo = self.ox + ix * self.res
        y_lo = self.oy + iy * self.res
        return x_lo, x_lo + self.res, y_lo, y_lo + self.res

    def _under(self, cells: float) -> float:
        """A distance under ``cells`` cell widths by more than any rounding."""
        return cells * self.res * (1.0 - 1e-9) - self.slack

    def _table(self, qx: int, qy: int, bound: float) -> tuple[float, list]:
        """The occupied cells around cell (qx, qy), sorted by lower bound:
        every one whose bound is under ``bound``, or under how far any point
        of the cell can be from its nearest occupied cell.

        A cell r rings out (Chebyshev) is at least r - 1 cell widths from
        the query cell; one dx, dy cells over is at most hypot(dx, dy) from
        any of its points.
        """
        reach = math.inf
        found = []
        for r in range(max(qx, qy, self.width - 1 - qx, self.height - 1 - qy) + 1):
            below = self._under(r - 1)
            if below >= reach:
                complete = math.inf
                break
            if below >= bound:
                complete = below
                break
            for dx, dy in _ring(r):
                ix, iy = qx + dx, qy + dy
                if (0 <= ix < self.width and 0 <= iy < self.height
                        and self.occupied[iy * self.width + ix]):
                    gap = _hypot(max(abs(dx) - 1, 0), max(abs(dy) - 1, 0))
                    found.append((self._under(gap), *self._rect(ix, iy)))
                    far = _hypot(dx, dy) * self.res * (1.0 + 1e-9) + self.slack
                    reach = min(reach, far)
        else:
            complete = math.inf
        found.sort()
        return complete, found

    def nearest(self, x: float, y: float, best: float) -> float:
        """The least of ``best`` and the distance from (x, y), or nan where
        ``np.min`` over the distances to every occupied cell gives nan."""
        fx = (x - self.ox) / self.res
        fy = (y - self.oy) / self.res
        if 0.0 <= fx < self.width and 0.0 <= fy < self.height:
            qx, qy = int(fx), int(fy)
            key = qy * self.width + qx
            table = self.tables.get(key)
            if table is None or best > table[0]:
                table = self.tables[key] = self._table(qx, qy, best)
            candidates = table[1]
        else:
            candidates = self.everywhere
        for bound, x_lo, x_hi, y_lo, y_hi in candidates:
            if bound >= best:
                break
            d = _hypot(_gap(x, x_lo, x_hi), _gap(y, y_lo, y_hi))
            if d < best:
                best = d
            elif d != d:
                return d
        return best


def _nearest_pair(points: list[tuple[float, float]], best: float) -> float:
    """The least of ``best`` and each pairwise distance, or nan if a pair's
    distance is nan."""
    for i, (x, y) in enumerate(points):
        for u, v in points[i + 1:]:
            d = _hypot(x - u, y - v)
            if d < best:
                best = d
            elif d != d:
                return d
    return best


def compute_metrics(trace: Trace) -> MetricsReport:
    """Summarize a trace; see MetricsReport for what is reported."""
    header = trace.header
    grid = load_map(header["map"]["text"])
    walls = _Walls(grid) if 1 in grid.occupied else None
    n_robots = len(header["robots"])

    report = MetricsReport(
        duration=header["duration"],
        ticks=0,
        robots=n_robots,
    )

    deadlines: dict[str, float] = {}
    request_at: dict[tuple[int, int], float] = {}
    fallback_ticks: set[float] = set()
    by_size: dict[int, list[float]] = {}
    min_rr = math.inf
    min_obs = math.inf
    wall: float | None = None

    for ev in trace.events:
        kind = ev["type"]
        if kind == tr.STATE:
            # a state whose distances include nan adds nothing, as in the
            # numpy report this fold replaces, where min(m, nan) kept m
            points = [(float(r[1]), float(r[2])) for r in ev["robots"]]
            d = _nearest_pair(points, min_rr)
            if d < min_rr:
                min_rr = d
            if walls is not None:
                d = min_obs
                for x, y in points:
                    d = walls.nearest(x, y, d)
                    if d != d:
                        break
                if d < min_obs:
                    min_obs = d
        elif kind == tr.TASK:
            event = ev["event"]
            if event == "arrival":
                report.tasks_arrived += 1
                deadlines[ev["task"]] = ev["deadline"]
            elif event == "completed":
                report.tasks_completed += 1
                report.completion_times.append(ev["t"])
                deadline = deadlines.get(ev["task"])
                if deadline is not None and math.isfinite(deadline):
                    report.deadline_margins.append(deadline - ev["t"])
            elif event == "missed":
                report.tasks_missed += 1
            elif event == "unassigned":
                report.tasks_unassigned += 1
        elif kind == tr.QP:
            if ev["status"] == INFEASIBLE_FALLBACK:
                fallback_ticks.add(ev["t"])
            if "duration" in ev:
                by_size.setdefault(len(ev["members"]), []).append(ev["duration"])
        elif kind == tr.QUEUE:
            key = (ev["room"], ev["robot"])
            if ev["event"] == "request":
                request_at.setdefault(key, ev["t"])
            elif ev["event"] == "grant" and key in request_at:
                report.queue_waits.append(ev["t"] - request_at.pop(key))
        elif kind == tr.ARRIVAL:
            report.arrivals += 1
        elif kind == tr.FAULT:
            report.faults += 1
        elif kind == tr.END:
            report.ticks = ev["ticks"]
            wall = ev.get("wall_time")

    if min_rr < math.inf:
        report.min_robot_distance = min_rr
    if min_obs < math.inf:
        report.min_obstacle_distance = min_obs
    if report.ticks > 0:
        report.fallback_fraction = len(fallback_ticks) / report.ticks

    report.qp_timing = {
        size: QPTimingStats(len(vals), sum(vals) / len(vals), max(vals))
        for size, vals in sorted(by_size.items())
    }
    if wall is not None and wall > 0 and report.ticks > 0:
        sim_time = report.ticks * header["control_period"]
        report.realtime_factor = sim_time / wall
    return report
