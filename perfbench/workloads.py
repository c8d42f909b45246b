"""Seeded input generators for the benchmark's four workloads.

Each generator writes one scenario into a work directory: the scenario YAML
plus the map, travel-time table and task-stream files it names. fleetsim only
ever sees these files. The same seed writes the same bytes.

The seed varies the inputs inside a family whose amount of work hardly
depends on the draw: lane geometry and task order, delivery depots,
rooms and times, start poses and timing around one fixed allocator
instance, one side of the depot. Runs are compared by their medians over
different seeds, so a family whose cost swung with the draw would report the
draw instead of the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """Generated inputs for one run."""

    name: str
    kind: str  # "sim": run + trace + report; "table": collect_travel_times
    scenario_path: Path
    # travel_table only: original depot location id of each generated location
    location_ids: tuple[int, ...] = ()


def _write(workdir: Path, doc: dict, files: dict[str, str]) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    path = workdir / "scenario.yaml"
    # JSON is a subset of YAML and keeps every float exact
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _straight_line_table(locations: list[tuple[float, float]]) -> str:
    """Crow-flies seconds at 1 m/s, floored at 1 s, as a table file."""
    n = len(locations)
    rows = [" ".join(str(k) for k in range(n))]
    for a in range(n):
        rows.append(" ".join(
            "0" if a == b
            else format(max(1.0, math.dist(locations[a], locations[b])), ".9g")
            for b in range(n)
        ))
    return "\n".join(rows) + "\n"


def _tasks_json(batches: list[tuple[float, list[tuple[int, int, float]]]]) -> str:
    return json.dumps([
        {"arrival": t0, "tasks": [
            {"start": a, "end": b, "deadline": d} for a, b, d in tasks
        ]}
        for t0, tasks in batches
    ], indent=1) + "\n"


def busy_lanes(seed: int, workdir: Path, scenarios: Path) -> Workload:
    """Six robots, each shuttling its own north-south lane of the depot.

    Lanes sit 3.6 m or more apart, beyond the 3 m neighbour radius, so
    nearly every cluster is a single robot. Three lanes pass the pillars and
    make A* detour. Every batch sends each lane's robot south, then north.
    """
    rng = random.Random(f"busy_lanes/{seed}")
    offset = rng.uniform(-0.4, 0.4)
    xs = [3.0 + 4.0 * k + offset + rng.uniform(-0.2, 0.2) for k in range(6)]
    south = [5.5 + rng.uniform(-0.5, 0.5) for _ in xs]
    north = [25.5 + rng.uniform(-0.5, 0.5) for _ in xs]
    locations = []
    for k, x in enumerate(xs):
        locations += [(x, south[k]), (x, north[k])]
    lane_of_robot = list(range(6))
    rng.shuffle(lane_of_robot)
    batches = []
    for t0 in (0.0, 45.0, 90.0):
        tasks = [(2 * k, 2 * k + 1, 1000.0 + t0) for k in range(6)]
        rng.shuffle(tasks)
        batches.append((t0, tasks))
    doc = {
        "map": "depot.map",
        "travel_times": "travel.txt",
        "tasks": "tasks.json",
        "agents": {
            f"r{i}": {"start": [xs[lane], 2.5], "heading": math.pi / 2}
            for i, lane in enumerate(lane_of_robot)
        },
        "locations": [[x, y] for x, y in locations],
        "duration": 120,
        "seed": seed,
    }
    files = {
        "depot.map": (scenarios / "maps" / "depot.map").read_text(),
        "travel.txt": _straight_line_table(locations),
        "tasks.json": _tasks_json(batches),
    }
    return Workload("busy_lanes", "sim", _write(workdir, doc, files))


def rooms_crowd(seed: int, workdir: Path, scenarios: Path) -> Workload:
    """The bundled rooms scenario with three pedestrians and more deliveries.

    Besides the bundled pedestrian, one walks across the corridor and one
    walks along it past both queue lines. Four batches of room-bound
    deliveries keep both room queues busy: every batch serves both rooms,
    and the seed picks the depots, the order, the third room of the larger
    batches and the arrival times. Fixed pedestrian routes, room counts and
    walking speeds keep queue contention and crowding, and with them the
    work, alike across seeds: with seeded routes, rtf differed by up to 16 %
    between seeds.
    """
    rng = random.Random(f"rooms_crowd/{seed}")
    robots = [(10.5, 10.5), (10.5, 7.0), (10.5, 5.0), (10.5, 1.5)]
    humans = [
        {"start": [8.0, 6.0], "waypoints": [[8.0, 10.5], [8.0, 1.5]],
         "v_desired": 0.8},
        {"start": [5.5, 6.0], "waypoints": [[4.5, 6.0], [11.0, 6.0]],
         "v_desired": 0.75},
        {"start": [6.5, 4.0], "waypoints": [[6.5, 1.5], [6.5, 10.5]],
         "v_desired": 0.75},
    ]
    batches = []
    for t0, count in ((0.0, 3), (40.0, 2), (80.0, 3), (120.0, 2)):
        arrival = t0 + rng.uniform(0.0, 5.0)
        rooms = [0, 1] + [rng.choice((0, 1)) for _ in range(count - 2)]
        tasks = [(rng.choice((2, 3)), room, arrival + 400.0) for room in rooms]
        rng.shuffle(tasks)
        batches.append((arrival, tasks))
    doc = {
        "map": "rooms.map",
        "travel_times": "travel.txt",
        "tasks": "tasks.json",
        "agents": {
            f"r{i}": {"start": list(p), "heading": 3.14159265}
            for i, p in enumerate(robots)
        },
        "humans": humans,
        "locations": [[2.0, 8.75], [2.0, 3.25], [9.5, 8.75], [9.5, 3.25]],
        "rooms": [
            {"location": 0,
             "polygon": [[0.5, 7.5], [3.5, 7.5], [3.5, 10.0], [0.5, 10.0]],
             "queue_slots": [[5.0, 9.7], [6.2, 9.7], [7.4, 9.7]]},
            {"location": 1,
             "polygon": [[0.5, 2.0], [3.5, 2.0], [3.5, 4.5], [0.5, 4.5]],
             "queue_slots": [[5.0, 2.3], [6.2, 2.3], [7.4, 2.3]]},
        ],
        "duration": 160,
        "seed": seed,
    }
    files = {
        "rooms.map": (scenarios / "maps" / "rooms.map").read_text(),
        "travel.txt": (scenarios / "tables" / "rooms_travel.txt").read_text(),
        "tasks.json": _tasks_json(batches),
    }
    return Workload("rooms_crowd", "sim", _write(workdir, doc, files))


_DEPOT_LOCATIONS = ((4.0, 4.0), (26.0, 4.0), (4.0, 26.0), (26.0, 26.0),
                    (15.0, 8.0), (15.0, 22.0))


# Eight depot tasks that start and end at every location. Dispatched while
# the whole fleet idles, they are the exact allocator's largest instance
# (8 tasks x 6 robots). The instance is fixed: one dispatch of a freshly drawn
# set of tasks, or of these tasks in a drawn order, took anywhere from 2 s to
# 6 s, which would swamp the run-to-run spread. The seed moves the robots'
# starts north by up to 0.5 m (sideways moves would change the nearest
# location of r2 and r4, and with it the allocator's problem), the batch's
# arrival inside the idle spell, and the deadlines, which stay loose.
_DISPATCH_TASKS = ((0, 3), (1, 2), (4, 5), (3, 0), (2, 1), (5, 4), (0, 5), (1, 4))


def depot_dispatch(seed: int, workdir: Path, scenarios: Path) -> Workload:
    """The bundled depot scenario with one allocator-cap batch at start."""
    rng = random.Random(f"depot_dispatch/{seed}")
    starts = [
        [3.0 + 4.0 * i, 2.0 + rng.uniform(0.0, 0.5)]
        for i in range(6)
    ]
    arrival = rng.uniform(0.0, 2.0)
    tasks = [(a, b, arrival + rng.uniform(400.0, 600.0)) for a, b in _DISPATCH_TASKS]
    doc = {
        "map": "depot.map",
        "travel_times": "travel.txt",
        "tasks": "tasks.json",
        "agents": {f"r{i}": {"start": p} for i, p in enumerate(starts)},
        "locations": [list(p) for p in _DEPOT_LOCATIONS],
        "duration": 90,
        "seed": seed,
    }
    files = {
        "depot.map": (scenarios / "maps" / "depot.map").read_text(),
        "travel.txt": (scenarios / "tables" / "depot_travel.txt").read_text(),
        "tasks.json": _tasks_json([(arrival, tasks)]),
    }
    return Workload("depot_dispatch", "sim", _write(workdir, doc, files))


# one side of the depot: two neighbouring corners; diagonal corner pairs
# would add a 42 m pair and about 8 % more simulated travel
_DEPOT_SIDES = ((0, 1), (2, 3), (0, 2), (1, 3))


def travel_table(seed: int, workdir: Path, scenarios: Path) -> Workload:
    """collect_travel_times on one side of the depot plus both centre stops.

    The seed picks the side and the order the locations are listed in. The
    bundled depot table holds the expected value of every entry.
    """
    rng = random.Random(f"travel_table/{seed}")
    ids = list(rng.choice(_DEPOT_SIDES)) + [4, 5]
    rng.shuffle(ids)
    doc = {
        "map": "depot.map",
        "agents": {
            f"r{i}": {"start": [3.0 + 4.0 * i, 2.0]} for i in range(6)
        },
        "locations": [list(_DEPOT_LOCATIONS[k]) for k in ids],
        "duration": 0,
        "seed": seed,
    }
    files = {"depot.map": (scenarios / "maps" / "depot.map").read_text()}
    return Workload("travel_table", "table", _write(workdir, doc, files), tuple(ids))


# Why each workload exists, the layers it stresses and the ones it bypasses
# are in BENCHMARK.json.
WORKLOADS = {
    "busy_lanes": busy_lanes,
    "rooms_crowd": rooms_crowd,
    "depot_dispatch": depot_dispatch,
    "travel_table": travel_table,
}


def generate(name: str, seed: int, workdir: Path, scenarios: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    return WORKLOADS[name](seed, workdir, scenarios)
