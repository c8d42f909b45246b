"""Offline SVG rendering of trace playback.

Frames are sampled from a finished trace at a fixed interval; nothing here
touches the simulation itself. Output is plain SVG text, one file per frame,
deterministic for a given trace and scale.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import trace as tr
from .trace import Trace
from .world import OccupancyGrid, load_map, raycast

BACKGROUND = "#ffffff"
WALL_COLOR = "#222222"
HUMAN_COLOR = "#e6a23c"
ROOM_COLOR = "#4a6fa5"
ROBOT_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#bcbd22",
)


class _Camera:
    def __init__(self, grid: OccupancyGrid, mpp: float) -> None:
        self.mpp = mpp
        self.ox = grid.origin_x
        self.top = grid.origin_y + grid.height * grid.resolution
        self.width_px = grid.width * grid.resolution / mpp
        self.height_px = grid.height * grid.resolution / mpp

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.ox) / self.mpp, (self.top - y) / self.mpp)

    def scale(self, meters: float) -> float:
        return meters / self.mpp


def _f(v: float) -> str:
    return "%.2f" % v


def _poly_points(cam: _Camera, pts) -> str:
    return " ".join(
        "%s,%s" % (_f(px), _f(py))
        for px, py in (cam.to_px(x, y) for x, y in pts)
    )


class _Playback:
    """Walks trace events forward, holding the latest state of everything."""

    def __init__(self, trace: Trace) -> None:
        self.header = trace.header
        self.events = trace.events
        self.pos = 0
        self.robots: dict[int, tuple[float, float, float, float]] = {
            spec["id"]: (spec["x"], spec["y"], spec["heading"], 0.0)
            for spec in self.header["robots"]
        }
        self.humans: list[tuple[float, float, float, float]] = [
            (h["x"], h["y"], 0.0, 0.0) for h in self.header["humans"]
        ]
        self.paths: dict[int, list] = {}
        self.clusters: list = []
        self.queues: dict[int, dict] = {}
        self.faults: set[int] = set()

    def advance_to(self, t: float) -> None:
        while self.pos < len(self.events) and self.events[self.pos]["t"] <= t + 1e-9:
            ev = self.events[self.pos]
            self.pos += 1
            kind = ev["type"]
            if kind == tr.STATE:
                for rid, x, y, theta, v in ev["robots"]:
                    self.robots[rid] = (x, y, theta, v)
                self.humans = [tuple(h) for h in ev["humans"]]
            elif kind == tr.PLAN:
                if ev["status"] == "ok":
                    self.paths[ev["robot"]] = ev["points"]
                else:
                    self.paths.pop(ev["robot"], None)
            elif kind == tr.CLUSTERS:
                self.clusters = ev["clusters"]
            elif kind == tr.QUEUE:
                self.queues[ev["room"]] = {
                    "occupants": ev["occupants"], "holder": ev["holder"],
                }
            elif kind == tr.ARRIVAL:
                rid = ev["robot"]
                if rid in self.paths and len(self.paths[rid]) <= 1:
                    self.paths.pop(rid, None)
            elif kind == tr.FAULT:
                self.faults.add(ev["robot"])
                self.paths.pop(ev["robot"], None)


def render_frame(playback: _Playback, grid: OccupancyGrid, t: float,
                 meters_per_pixel: float) -> str:
    cam = _Camera(grid, meters_per_pixel)
    header = playback.header
    params = header["params"]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">' % (
            _f(cam.width_px), _f(cam.height_px), _f(cam.width_px), _f(cam.height_px)
        ),
        '<rect width="100%%" height="100%%" fill="%s"/>' % BACKGROUND,
    ]
    res = grid.resolution
    cell_px = cam.scale(res)
    for iy in range(grid.height):
        for ix in range(grid.width):
            if grid.occupied[iy, ix]:
                x = grid.origin_x + ix * res
                y = grid.origin_y + (iy + 1) * res
                px, py = cam.to_px(x, y)
                parts.append(
                    '<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>'
                    % (_f(px), _f(py), _f(cell_px), _f(cell_px), WALL_COLOR)
                )
    for room in header["rooms"]:
        parts.append(
            '<polygon points="%s" fill="none" stroke="%s" stroke-width="1.5" '
            'stroke-dasharray="4 3"/>'
            % (_poly_points(cam, room["polygon"]), ROOM_COLOR)
        )
        occupants = playback.queues.get(room["location"], {}).get("occupants", [])
        for k, slot in enumerate(room["queue_slots"]):
            px, py = cam.to_px(slot[0], slot[1])
            s = cam.scale(0.3)
            filled = k < len(occupants)
            parts.append(
                '<rect x="%s" y="%s" width="%s" height="%s" fill="%s" '
                'stroke="%s" stroke-width="1"/>'
                % (_f(px - s / 2), _f(py - s / 2), _f(s), _f(s),
                   ROOM_COLOR if filled else "none", ROOM_COLOR)
            )
    for cluster in playback.clusters:
        leader, members = cluster[0], cluster[1]
        if leader is None or len(members) < 2:
            continue
        lx, ly = playback.robots[leader][:2]
        lpx, lpy = cam.to_px(lx, ly)
        for m in members:
            if m == leader:
                continue
            mx, my = playback.robots[m][:2]
            mpx, mpy = cam.to_px(mx, my)
            parts.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999999" '
                'stroke-width="1" stroke-dasharray="2 2"/>'
                % (_f(lpx), _f(lpy), _f(mpx), _f(mpy))
            )
    for rid in sorted(playback.paths):
        pts = playback.paths[rid]
        if len(pts) < 2:
            continue
        color = ROBOT_COLORS[rid % len(ROBOT_COLORS)]
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1" '
            'opacity="0.5"/>' % (_poly_points(cam, pts), color)
        )
    for hx, hy, _, _ in playback.humans:
        px, py = cam.to_px(hx, hy)
        parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s" opacity="0.9"/>'
            % (_f(px), _f(py), _f(cam.scale(params["r_human"])), HUMAN_COLOR)
        )
    for spec in header["robots"]:
        rid = spec["id"]
        x, y, theta, _ = playback.robots[rid]
        px, py = cam.to_px(x, y)
        color = ROBOT_COLORS[rid % len(ROBOT_COLORS)]
        if grid.in_bounds(x, y):
            hits = raycast(grid, x, y, theta, params["n_rays"], params["max_range"])
            for hit in hits.hit_points():
                hpx, hpy = cam.to_px(hit[0], hit[1])
                parts.append(
                    '<circle cx="%s" cy="%s" r="1.5" fill="%s" opacity="0.6"/>'
                    % (_f(hpx), _f(hpy), color)
                )
        parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="none" stroke="%s" '
            'stroke-width="0.5" opacity="0.4"/>'
            % (_f(px), _f(py), _f(cam.scale(spec["r_safe"] / 2.0)), color)
        )
        fill = "#888888" if rid in playback.faults else color
        r_px = cam.scale(spec["r_robot"])
        parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s" stroke="#000000" '
            'stroke-width="0.8"/>' % (_f(px), _f(py), _f(r_px), fill)
        )
        tip = cam.to_px(x + spec["r_robot"] * math.cos(theta),
                        y + spec["r_robot"] * math.sin(theta))
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000000" '
            'stroke-width="1.2"/>' % (_f(px), _f(py), _f(tip[0]), _f(tip[1]))
        )
        parts.append(
            '<text x="%s" y="%s" font-size="10" text-anchor="middle" '
            'fill="#000000">%d</text>' % (_f(px), _f(py - r_px - 3), rid)
        )
    parts.append(
        '<text x="6" y="14" font-size="12" fill="#000000">t = %.2f s</text>' % t
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_trace(
    trace: Trace,
    out_dir: str | Path,
    every: float = 1.0,
    meters_per_pixel: float = 0.05,
) -> list[Path]:
    """Write one SVG frame per sample time; returns the files written.

    Samples run from t = 0 to the trace duration inclusive in steps of
    ``every`` seconds.
    """
    if not every > 0:
        raise ValueError(f"every must be positive, got {every}")
    if not 0 < meters_per_pixel < math.inf:
        raise ValueError(f"meters_per_pixel must be positive and finite, got {meters_per_pixel}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = load_map(trace.header["map"]["text"])
    playback = _Playback(trace)
    duration = trace.duration
    n_frames = int(math.floor(duration / every + 1e-9)) + 1
    written = []
    for k in range(n_frames):
        t = k * every if k else 0.0  # 0 * inf is nan
        playback.advance_to(t)
        svg = render_frame(playback, grid, t, meters_per_pixel)
        path = out / f"frame_{k:05d}.svg"
        path.write_text(svg)
        written.append(path)
    return written
