"""Scenario files: parsing, cross-reference validation, digesting.

A scenario is a YAML document naming a map file, the robot fleet (``agents``
mapping with per-robot ``start: [x, y]``), optional pedestrians, system
locations with roadway routes, rooms with access queues, a travel-time graph,
and the task stream (a JSON list of request batches with ``arrival`` and
``tasks`` entries). All file references are resolved relative to the scenario
file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath

import yaml

from .dynamics import HumanSpec
from .navigation import RoadwayNetwork, RoomQueue
from .safety import ControllerParams
from .tasking import Task, TaskRequest, TravelTimeGraph
from .world import Costmap, OccupancyGrid, inflate, load_map

Position = tuple[float, float]

# how far a roadway's first and last waypoints may lie from its locations
ROUTE_ENDPOINT_TOLERANCE = 0.5

# the keys a scenario document may have
SCENARIO_KEYS = (
    "map", "travel_times", "tasks", "agents", "humans", "locations", "roadways",
    "rooms", "params", "duration", "seed", "tick_dt", "control_period", "replan_period",
)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


@dataclass(frozen=True)
class WorldParams:
    """Engine-level tuning outside the per-robot controller."""

    d_neighbor: float = 3.0
    n_rays: int = 16
    max_range: float = 3.0
    cost_weight: float = 3.0
    inflation_radius: float = 1.0
    cost_scale: float = 3.0
    release_distance: float = 2.0
    queue_request_factor: float = 1.5

    def __post_init__(self) -> None:
        for name in ("d_neighbor", "max_range", "cost_weight", "cost_scale",
                     "release_distance", "queue_request_factor"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"world parameter {name} must be positive")
        if self.n_rays < 1:
            raise ScenarioError("n_rays must be >= 1")
        if self.inflation_radius < 0:
            raise ScenarioError("inflation_radius must be >= 0")


@dataclass(frozen=True)
class RobotSpec:
    name: str
    start: Position
    heading: float = 0.0
    params: ControllerParams = field(default_factory=ControllerParams)


@dataclass(frozen=True)
class RoomSpec:
    location: int
    polygon: tuple[Position, ...]
    queue_slots: tuple[Position, ...]


@dataclass
class Scenario:
    grid: OccupancyGrid
    costmap: Costmap
    map_text: str
    robots: list[RobotSpec]
    humans: list[HumanSpec]
    locations: dict[int, Position]
    roadways: RoadwayNetwork
    rooms: dict[int, RoomSpec]
    travel_graph: TravelTimeGraph | None
    task_stream: list[TaskRequest]
    world: WorldParams
    tick_dt: float = 0.01
    control_period: float = 0.05
    replan_period: float = 1.0
    duration: float = 60.0
    seed: int = 0
    digest: str = ""

    def build_queues(self) -> dict[int, RoomQueue]:
        return {
            loc: RoomQueue(
                room_id=loc,
                slots=list(spec.queue_slots),
                room_position=self.locations[loc],
            )
            for loc, spec in self.rooms.items()
        }


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _position(value, context: str) -> Position:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ScenarioError(f"{context}: expected [x, y], got {value!r}")
    return (float(value[0]), float(value[1]))


def _number(value, context: str, kind=float):
    """``kind(value)``, or a ScenarioError naming ``context``.

    Booleans and non-finite values are not numbers here, and an integer must
    be integral: 0.7 is not location 0.
    """
    integral = kind is not int or not isinstance(value, float) or value.is_integer()
    try:
        number = kind(value) if integral and not isinstance(value, bool) else math.nan
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        expected = "an integer" if kind is int else "a finite number"
        raise ScenarioError(f"{context}: expected {expected}, got {value!r}")
    return number


def _list(value, context: str) -> list:
    """A list section; absent or empty reads as no entries."""
    if not value:
        return []
    if not isinstance(value, list):
        raise ScenarioError(f"{context}: expected a list, got {value!r}")
    return value


def _mapping(value, context: str, keys, what: str = "keys") -> dict:
    """``value``, which must be a mapping with no keys outside ``keys``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected a mapping, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        # YAML keys need not be strings, so they sort as text
        raise ScenarioError(f"{context}: unknown {what} {sorted(unknown, key=str)}")
    return value


def _params_from(mapping: dict | None, base, context: str):
    """``base`` with the mapping's entries read as numbers of each field's type."""
    if not mapping:
        return base
    section = "world" if isinstance(base, WorldParams) else "controller"
    _mapping(mapping, context, base.__dataclass_fields__, f"{section} parameters")
    values = {
        k: _number(v, f"{context}.{k}", type(getattr(base, k)))
        for k, v in mapping.items()
    }
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from None


def _free_position(grid: OccupancyGrid, value, context: str) -> Position:
    """``value`` as [x, y], which must lie on the map, on a free cell."""
    position = _position(value, context)
    if not grid.in_bounds(*position):
        raise ScenarioError(f"{context}: {position} is outside the map")
    if grid.is_occupied_cell(*grid.world_to_cell(*position)):
        raise ScenarioError(f"{context}: {position} lies on an occupied cell")
    return position


def _file_text(base: FsPath, name, context: str) -> str:
    """The text of a file named relative to the scenario directory."""
    if not isinstance(name, str):
        raise ScenarioError(f"{context}: expected a file name, got {name!r}")
    return (base / name).read_text()


def load_task_stream(text: str) -> list[TaskRequest]:
    """Parse the task-stream file: a JSON list of request batches."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"task stream: invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ScenarioError("task stream: top level must be a list of requests")
    requests = []
    for k, entry in enumerate(raw):
        ctx = f"task request {k}"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{ctx}: expected an object")
        _mapping(entry, ctx, ("arrival", "tasks"))
        arrival = _require(entry, "arrival", ctx)
        tasks_raw = _require(entry, "tasks", ctx)
        if not isinstance(tasks_raw, list):
            raise ScenarioError(f"{ctx}: 'tasks' must be a list")
        tasks = []
        for j, t in enumerate(tasks_raw):
            tctx = f"{ctx}, task {j}"
            if not isinstance(t, dict):
                raise ScenarioError(f"{tctx}: expected an object")
            _mapping(t, tctx, ("start", "end", "deadline"))
            try:
                tasks.append(Task(
                    start=_number(_require(t, "start", tctx), f"{tctx}: start", int),
                    end=_number(_require(t, "end", tctx), f"{tctx}: end", int),
                    deadline=_number(_require(t, "deadline", tctx), f"{tctx}: deadline"),
                ))
            except ValueError as exc:
                raise ScenarioError(f"{tctx}: {exc}") from None
        try:
            requests.append(TaskRequest(_number(arrival, f"{ctx}: arrival"), tuple(tasks)))
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from None
    order = [r.arrival for r in requests]
    if order != sorted(order):
        raise ScenarioError("task stream: request arrivals must be non-decreasing")
    return requests


def load_scenario(
    path: str | FsPath,
    tasks_path: str | FsPath | None = None,
    duration: float | None = None,
) -> Scenario:
    """Load and validate a scenario plus its referenced files.

    ``tasks_path`` and ``duration`` override the scenario's own
    entries (command-line precedence). I/O failures propagate as OSError;
    everything about content raises ScenarioError.
    """
    path = FsPath(path)
    text = path.read_text()
    base = path.parent
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    _mapping(doc, str(path), SCENARIO_KEYS)

    map_rel = _require(doc, "map", str(path))
    map_text = _file_text(base, map_rel, "map")
    try:
        grid = load_map(map_text)
    except ValueError as exc:
        raise ScenarioError(f"map {map_rel}: {exc}") from None

    world_raw = _mapping(doc.get("params") or {}, "params", ("world", "controller"))
    world = _params_from(world_raw.get("world"), WorldParams(), "params.world")
    base_controller = _params_from(
        world_raw.get("controller"), ControllerParams(), "params.controller"
    )

    agents_raw = _require(doc, "agents", str(path))
    if not isinstance(agents_raw, dict) or not agents_raw:
        raise ScenarioError("agents: expected a non-empty mapping of robot entries")
    costmap = inflate(
        grid, world.inflation_radius, world.cost_scale, base_controller.r_robot
    )
    robots = []
    for name, spec in agents_raw.items():
        ctx = f"agents.{name}"
        _mapping(spec, ctx, ("start", "heading", "params"))
        start = _free_position(grid, _require(spec, "start", ctx), f"{ctx}.start")
        params = _params_from(spec.get("params"), base_controller, f"{ctx}.params")
        robots.append(RobotSpec(
            name=str(name),
            start=start,
            heading=_number(spec.get("heading", 0.0), f"{ctx}.heading"),
            params=params,
        ))

    humans = []
    for k, entry in enumerate(_list(doc.get("humans"), "humans")):
        ctx = f"humans[{k}]"
        _mapping(entry, ctx, ("start", "waypoints", "v_desired"))
        start = _free_position(grid, _require(entry, "start", ctx), f"{ctx}.start")
        wps = tuple(
            _position(w, f"{ctx}.waypoints[{i}]")
            for i, w in enumerate(_list(entry.get("waypoints"), f"{ctx}.waypoints"))
        )
        v_desired = _number(entry.get("v_desired", 1.0), f"{ctx}.v_desired")
        if v_desired <= 0:
            raise ScenarioError(f"{ctx}.v_desired: must be positive, got {v_desired}")
        humans.append(HumanSpec(start, wps, v_desired))

    locations: dict[int, Position] = {}
    for k, entry in enumerate(_list(doc.get("locations"), "locations")):
        locations[k] = _free_position(grid, entry, f"locations[{k}]")

    routes: dict[tuple[int, int], list[Position]] = {}
    for k, entry in enumerate(_list(doc.get("roadways"), "roadways")):
        ctx = f"roadways[{k}]"
        _mapping(entry, ctx, ("from", "to", "waypoints"))
        a = _number(_require(entry, "from", ctx), f"{ctx}.from", int)
        b = _number(_require(entry, "to", ctx), f"{ctx}.to", int)
        wps = [
            _free_position(grid, w, f"{ctx}.waypoints[{i}]")
            for i, w in enumerate(
                _list(_require(entry, "waypoints", ctx), f"{ctx}.waypoints")
            )
        ]
        if a not in locations or b not in locations:
            raise ScenarioError(f"{ctx}: references unknown location {a if a not in locations else b}")
        if (a, b) in routes:
            # routes holds one pair per earlier entry, in entry order
            first = list(routes).index((a, b))
            raise ScenarioError(f"{ctx} repeats roadways[{first}] (from {a} to {b})")
        if not wps:
            raise ScenarioError(f"{ctx}: waypoints must not be empty")
        if math.dist(wps[0], locations[a]) > ROUTE_ENDPOINT_TOLERANCE:
            raise ScenarioError(f"{ctx}: does not start at location {a}")
        if math.dist(wps[-1], locations[b]) > ROUTE_ENDPOINT_TOLERANCE:
            raise ScenarioError(f"{ctx}: does not end at location {b}")
        routes[(a, b)] = wps
    net = RoadwayNetwork(dict(locations), routes)

    rooms: dict[int, RoomSpec] = {}
    for k, entry in enumerate(_list(doc.get("rooms"), "rooms")):
        ctx = f"rooms[{k}]"
        _mapping(entry, ctx, ("location", "polygon", "queue_slots"))
        loc = _number(_require(entry, "location", ctx), f"{ctx}.location", int)
        if loc not in locations:
            raise ScenarioError(f"{ctx}: unknown location {loc}")
        polygon = tuple(
            _position(p, f"{ctx}.polygon[{i}]")
            for i, p in enumerate(_list(_require(entry, "polygon", ctx), f"{ctx}.polygon"))
        )
        if len(polygon) < 3:
            raise ScenarioError(f"{ctx}: polygon needs at least 3 vertices")
        slots = tuple(
            _free_position(grid, s, f"{ctx}.queue_slots[{i}]")
            for i, s in enumerate(
                _list(_require(entry, "queue_slots", ctx), f"{ctx}.queue_slots")
            )
        )
        if not slots:
            raise ScenarioError(f"{ctx}: queue_slots must not be empty")
        for i, slot in enumerate(slots):
            if slot in slots[:i]:
                # two robots cannot wait at one spot
                raise ScenarioError(
                    f"{ctx}.queue_slots[{i}] repeats queue_slots[{slots.index(slot)}]"
                )
        rooms[loc] = RoomSpec(loc, polygon, slots)

    graph = None
    graph_rel = doc.get("travel_times")
    if graph_rel:
        graph_text = _file_text(base, graph_rel, "travel_times")
        try:
            graph = TravelTimeGraph.from_text(graph_text)
        except ValueError as exc:
            raise ScenarioError(f"travel_times {graph_rel}: {exc}") from None
        missing = set(locations) - set(graph.locations)
        if missing:
            raise ScenarioError(
                f"travel_times {graph_rel}: missing locations {sorted(missing)}"
            )

    tasks_text = ""
    if tasks_path is not None:
        tasks_text = FsPath(tasks_path).read_text()
    elif doc.get("tasks"):
        tasks_text = _file_text(base, doc["tasks"], "tasks")
    task_stream = load_task_stream(tasks_text) if tasks_text.strip() else []
    for k, req in enumerate(task_stream):
        for j, task in enumerate(req.tasks):
            for loc in (task.start, task.end):
                if loc not in locations:
                    raise ScenarioError(
                        f"task request {k}, task {j}: unknown location {loc}"
                    )
    if task_stream and graph is None:
        raise ScenarioError("scenario has tasks but no travel_times graph")

    tick_dt = _number(doc.get("tick_dt", 0.01), "tick_dt")
    control_period = _number(doc.get("control_period", 0.05), "control_period")
    replan_period = _number(doc.get("replan_period", 1.0), "replan_period")
    if tick_dt <= 0 or control_period <= 0 or replan_period <= 0:
        raise ScenarioError("tick_dt, control_period and replan_period must be positive")
    ratio = control_period / tick_dt
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ScenarioError(
            f"control_period {control_period} must be an integer multiple of tick_dt {tick_dt}"
        )
    run_duration = _number(
        duration if duration is not None else doc.get("duration", 60.0), "duration"
    )
    if run_duration < 0:
        raise ScenarioError("duration must be >= 0")
    seed = _number(doc.get("seed", 0), "seed", int)

    digest = hashlib.sha256(
        (text + "\x00" + map_text + "\x00" + tasks_text).encode()
    ).hexdigest()

    return Scenario(
        grid=grid,
        costmap=costmap,
        map_text=map_text,
        robots=robots,
        humans=humans,
        locations=locations,
        roadways=net,
        rooms=rooms,
        travel_graph=graph,
        task_stream=task_stream,
        world=world,
        tick_dt=tick_dt,
        control_period=control_period,
        replan_period=replan_period,
        duration=run_duration,
        seed=seed,
        digest=digest,
    )
