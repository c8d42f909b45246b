"""Post-run reporting computed from a trace.

Everything here is derived from the trace records alone, so a report can be
regenerated later from a trace file without re-running the scenario. The
solver and realtime-factor rows need a trace written with timing enabled
(``qp.duration`` and ``end.wall_time``); without it they read NA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import trace as tr
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


def _occupied_cell_bounds(grid) -> np.ndarray | None:
    """(N, 4) array of x_lo, x_hi, y_lo, y_hi for every occupied cell."""
    iy, ix = np.nonzero(grid.occupied)
    if len(ix) == 0:
        return None
    res = grid.resolution
    x_lo = grid.origin_x + ix * res
    y_lo = grid.origin_y + iy * res
    return np.stack([x_lo, x_lo + res, y_lo, y_lo + res], axis=1)


def _rect_distances(points: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Min distance from each point to the nearest solid cell rectangle."""
    x = points[:, 0:1]
    y = points[:, 1:2]
    dx = np.maximum(0.0, np.maximum(bounds[:, 0] - x, x - bounds[:, 1]))
    dy = np.maximum(0.0, np.maximum(bounds[:, 2] - y, y - bounds[:, 3]))
    return np.min(np.hypot(dx, dy), axis=1)


def compute_metrics(trace: Trace) -> MetricsReport:
    """Summarize a trace; see MetricsReport for what is reported."""
    header = trace.header
    grid = load_map(header["map"]["text"])
    bounds = _occupied_cell_bounds(grid)
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
            pts = np.array([[r[1], r[2]] for r in ev["robots"]], dtype=float)
            if len(pts) >= 2:
                diffs = pts[:, None, :] - pts[None, :, :]
                d = np.hypot(diffs[..., 0], diffs[..., 1])
                iu = np.triu_indices(len(pts), k=1)
                min_rr = min(min_rr, float(d[iu].min()))
            if bounds is not None and len(pts):
                min_obs = min(min_obs, float(_rect_distances(pts, bounds).min()))
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
