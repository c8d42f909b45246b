import math
import random
from collections import Counter

import numpy as np
import pytest

from fleetsim.metrics import QPTimingStats, _Walls, compute_metrics
from fleetsim.safety import FEASIBLE, INFEASIBLE_FALLBACK
from fleetsim.trace import Trace, read_trace, write_trace
from fleetsim.world import load_map

from _support import (
    grid_view,
    occupied_cell_bounds,
    rect_distances,
    reference_distance_minima,
)

# one solid cell spanning x in [2, 3], y in [1, 2]
MAP_TEXT = "map 4 4 1 0 0\n....\n....\n..#.\n....\n"


def make_header(**overrides):
    header = {
        "type": "header",
        "map": {"text": MAP_TEXT},
        "robots": [{"id": 0}, {"id": 1}],
        "duration": 5.0,
        "control_period": 0.05,
    }
    header.update(overrides)
    return header


def state(t, positions):
    return {
        "type": "state",
        "t": t,
        "robots": [[i, x, y, 0.0, 0.0] for i, (x, y) in enumerate(positions)],
    }


class TestDistances:
    def test_minima_over_all_states(self):
        trace = Trace(make_header(), [
            state(0.0, [(0.5, 0.5), (3.5, 0.5)]),
            state(0.1, [(1.0, 1.5), (1.5, 1.5)]),
        ])
        report = compute_metrics(trace)
        assert report.min_robot_distance == pytest.approx(0.5)
        # closest approach: (1.5, 1.5) to the wall face at x = 2
        assert report.min_obstacle_distance == pytest.approx(0.5)

    def test_diagonal_corner_distance(self):
        trace = Trace(make_header(), [state(0.0, [(1.5, 0.5), (3.5, 3.5)])])
        report = compute_metrics(trace)
        assert report.min_obstacle_distance == pytest.approx(math.hypot(0.5, 0.5))

    def test_point_inside_solid_cell_reads_zero(self):
        trace = Trace(make_header(), [state(0.0, [(2.5, 1.5), (0.5, 0.5)])])
        assert compute_metrics(trace).min_obstacle_distance == 0.0

    def test_open_map_leaves_obstacle_distance_unset(self):
        header = make_header(map={"text": "map 2 2 1 0 0\n..\n..\n"})
        trace = Trace(header, [state(0.0, [(0.5, 0.5), (1.5, 1.5)])])
        report = compute_metrics(trace)
        assert report.min_obstacle_distance is None
        assert report.min_robot_distance == pytest.approx(math.sqrt(2.0))

    def test_single_robot_has_no_pair_distance(self):
        header = make_header(robots=[{"id": 0}])
        trace = Trace(header, [{"type": "state", "t": 0.0,
                                "robots": [[0, 0.5, 0.5, 0.0, 0.0]]}])
        report = compute_metrics(trace)
        assert report.min_robot_distance is None
        assert report.min_obstacle_distance is not None


def _hex(*values):
    return [None if v is None else v.hex() for v in values]


def _distances(trace: Trace) -> list:
    report = compute_metrics(trace)
    return _hex(report.min_robot_distance, report.min_obstacle_distance)


def _reference(trace: Trace) -> list:
    grid = load_map(trace.header["map"]["text"])
    return _hex(*reference_distance_minima(grid, trace.of_type("state")))


@pytest.mark.parametrize("fixture", ["smoke_result", "corridors_result", "rooms_result",
                                     "depot_result", "busy6_result", "crowd_result"])
def test_golden_distances_equal_the_numpy_report(fixture, request, tmp_path):
    """The plain-float fold gives the numpy report's distances bit for bit,
    on the golden runs in memory and read back."""
    _, result = request.getfixturevalue(fixture)
    path = tmp_path / "run.trace"
    write_trace(path, result.trace)
    for trace in (result.trace, read_trace(path)):
        assert _distances(trace) == _reference(trace)


def _random_point(rng: random.Random, grid, kinds: Counter) -> tuple[float, float]:
    res, ox, oy = grid.resolution, grid.origin_x, grid.origin_y
    ix, iy = rng.randrange(grid.width + 1), rng.randrange(grid.height + 1)
    kind = rng.choice(["anywhere", "edge", "corner", "near_edge", "wall", "far"])
    occupied = grid_view(grid, grid.occupied)
    if kind == "wall" and occupied.any():
        walls = list(zip(*occupied.nonzero()))
        iy, ix = rng.choice(walls)
        x, y = ox + (ix + rng.random()) * res, oy + (iy + rng.random()) * res
    elif kind == "edge":
        x, y = ox + ix * res, oy + rng.uniform(-1.0, grid.height + 1.0) * res
        if rng.random() < 0.5:
            x, y = ox + rng.uniform(-1.0, grid.width + 1.0) * res, oy + iy * res
    elif kind == "corner":
        x, y = ox + ix * res, oy + iy * res
    elif kind == "near_edge":
        x = math.nextafter(ox + ix * res, rng.choice([-math.inf, math.inf]))
        y = math.nextafter(oy + iy * res, rng.choice([-math.inf, math.inf]))
    elif kind == "far":
        x, y = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
    else:
        kind = "anywhere"
        x = ox + rng.uniform(-2.0, grid.width + 2.0) * res
        y = oy + rng.uniform(-2.0, grid.height + 2.0) * res
    kinds[kind] += 1
    kinds["off_map"] += not grid.in_bounds(x, y)
    return x, y


def random_distance_case(rng: random.Random, kinds: Counter) -> Trace:
    """A random map, open ones included, and 1-4 states of 1-6 robots placed
    anywhere, off the map, on cell edges and corners, next to them, inside
    walls, or on top of each other."""
    width, height = rng.randint(1, 12), rng.randint(1, 12)
    res = rng.choice([0.5, 1.0, 0.25, 0.3, 0.7])
    ox, oy = (rng.choice([0.0, -3.0, 1.25, rng.uniform(-5.0, 5.0)]) for _ in range(2))
    density = rng.choice([0.0, 0.05, 0.2, 0.5, 1.0])
    rows = ["".join("#" if rng.random() < density else "." for _ in range(width))
            for _ in range(height)]
    text = f"map {width} {height} {res!r} {ox!r} {oy!r}\n" + "\n".join(rows) + "\n"
    grid = load_map(text)
    kinds["open_map"] += not grid_view(grid, grid.occupied).any()
    states = []
    for k in range(rng.randint(1, 4)):
        points = []
        for _ in range(rng.choice([1, 1, 2, 3, 6])):
            coincident = points and rng.random() < 0.1
            kinds["coincident"] += bool(coincident)
            points.append(rng.choice(points) if coincident else _random_point(rng, grid, kinds))
        kinds["single_robot"] += len(points) == 1
        states.append({"type": "state", "t": 0.05 * k, "humans": [],
                       "robots": [[i, x, y, 0.0, 0.0] for i, (x, y) in enumerate(points)]})
    header = {"type": "header", "map": {"text": text}, "robots": [{"id": 0}],
              "duration": 1.0, "control_period": 0.05}
    return Trace(header, states)


def test_random_distances_equal_the_numpy_report():
    """2 000 random state sets, compared by float.hex."""
    rng = random.Random(2023)
    kinds = Counter()
    for _ in range(2_000):
        trace = random_distance_case(rng, kinds)
        assert _distances(trace) == _reference(trace), trace
    for kind in ("anywhere", "edge", "corner", "near_edge", "wall", "far", "off_map",
                 "open_map", "single_robot", "coincident"):
        assert kinds[kind] >= 100, kinds


@pytest.mark.parametrize("odd", [
    (math.nan, 1.5), (1.5, math.nan), (math.inf, 1.5), (-math.inf, math.inf),
    (math.nan, math.inf), (math.inf, math.nan), (1.79e308, 1.79e308),
])
def test_non_finite_states_count_as_in_the_numpy_report(odd):
    """An in-memory trace of a run that overflowed can hold nan and inf: a
    state whose minimum is nan adds nothing, and inf takes part as it did."""
    states = [
        state(0.0, [(0.5, 3.5), (3.5, 3.5), (0.5, 0.5)]),
        state(0.1, [(1.5, 1.5), odd, (1.75, 1.5)]),
        state(0.2, [odd, (3.5, 0.25)]),
        state(0.3, [(1.0, 3.0), (3.0, 3.0), odd]),
    ]
    trace = Trace(make_header(), states)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _reference(trace)
    assert _distances(trace) == expected


def test_each_point_finds_its_nearest_wall():
    """_Walls.nearest per point, with no running minimum to hide a missed
    cell: the least of the given bound and the numpy distance, bit for bit.
    A cell's candidate table is built by its first query, here with no
    bound, an ample one or a tight one, and serves every later point in it."""
    rng = random.Random(7)
    kinds = Counter()
    checked = 0
    for _ in range(300):
        trace = random_distance_case(rng, kinds)
        grid = load_map(trace.header["map"]["text"])
        bounds = occupied_cell_bounds(grid)
        if bounds is None:
            continue
        walls = _Walls(grid)
        for _ in range(40):
            x, y = _random_point(rng, grid, kinds)
            exact = float(rect_distances(np.array([[x, y]]), bounds)[0])
            best = rng.choice([math.inf, 2.0 * exact + 1.0, exact, 0.5 * exact])
            assert walls.nearest(x, y, best).hex() == min(best, exact).hex(), (x, y, best)
            checked += 1
    assert checked > 8_000


class TestTaskCounters:
    def make_trace(self):
        events = [
            {"type": "task", "event": "arrival", "task": "t0", "robot": None,
             "t": 0.0, "deadline": 30.0},
            {"type": "task", "event": "arrival", "task": "t1", "robot": None,
             "t": 0.0, "deadline": 55.0},
            {"type": "task", "event": "arrival", "task": "t2", "robot": None,
             "t": 0.0, "deadline": None},
            {"type": "task", "event": "completed", "task": "t2", "robot": 0, "t": 5.0},
            {"type": "task", "event": "completed", "task": "t0", "robot": 0, "t": 10.0},
            {"type": "task", "event": "completed", "task": "t1", "robot": 1, "t": 20.0},
            {"type": "task", "event": "missed", "task": "t3", "robot": None, "t": 21.0},
            {"type": "task", "event": "unassigned", "task": "t4", "robot": None,
             "t": 22.0},
        ]
        return Trace(make_header(), events)

    def test_counts(self):
        report = compute_metrics(self.make_trace())
        assert report.tasks_arrived == 3
        assert report.tasks_completed == 3
        assert report.tasks_missed == 1
        assert report.tasks_unassigned == 1

    def test_completion_times_and_margins(self):
        report = compute_metrics(self.make_trace())
        assert report.completion_times == [5.0, 10.0, 20.0]
        # t2 has no recorded deadline, so only t0 and t1 produce margins
        assert report.deadline_margins == [20.0, 35.0]


class TestQPAndQueues:
    def test_fallback_fraction_counts_distinct_ticks(self):
        events = [
            {"type": "qp", "t": 0.1, "status": INFEASIBLE_FALLBACK, "members": [0]},
            {"type": "qp", "t": 0.1, "status": INFEASIBLE_FALLBACK, "members": [1]},
            {"type": "qp", "t": 0.2, "status": INFEASIBLE_FALLBACK, "members": [0]},
            {"type": "qp", "t": 0.3, "status": FEASIBLE, "members": [0, 1]},
            {"type": "end", "t": 5.0, "ticks": 100},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.fallback_fraction == pytest.approx(0.02)

    def test_qp_timing_from_trace_durations(self):
        events = [
            {"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1],
             "duration": 0.001},
            {"type": "qp", "t": 0.2, "status": FEASIBLE, "members": [0, 1],
             "duration": 0.003},
            {"type": "qp", "t": 0.3, "status": FEASIBLE, "members": [0],
             "duration": 0.0005},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert set(report.qp_timing) == {1, 2}
        assert report.qp_timing[2] == QPTimingStats(2, 0.002, 0.003)
        assert report.qp_timing[1].count == 1

    def test_qp_records_without_duration_give_no_timing(self):
        events = [
            {"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1]},
            {"type": "end", "t": 5.0, "ticks": 100},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.qp_timing == {}
        assert ("qp_mean_s", "NA") in report._rows()

    def test_queue_waits_pair_request_with_grant(self):
        events = [
            {"type": "queue", "event": "request", "room": 0, "robot": 1, "t": 2.0},
            {"type": "queue", "event": "request", "room": 0, "robot": 2, "t": 3.0},
            {"type": "queue", "event": "request", "room": 0, "robot": 1, "t": 4.0},
            {"type": "queue", "event": "grant", "room": 0, "robot": 1, "t": 5.0},
            {"type": "queue", "event": "grant", "room": 0, "robot": 2, "t": 9.0},
            {"type": "queue", "event": "grant", "room": 1, "robot": 0, "t": 9.5},
        ]
        report = compute_metrics(Trace(make_header(), events))
        # repeat request keeps the first timestamp; grant without request ignored
        assert report.queue_waits == [3.0, 6.0]


class TestWallClock:
    def test_realtime_factor_from_end_record(self):
        events = [{"type": "end", "t": 5.0, "ticks": 100, "wall_time": 2.0}]
        report = compute_metrics(Trace(make_header(), events))
        assert report.ticks == 100
        assert report.realtime_factor == pytest.approx(100 * 0.05 / 2.0)

    def test_no_wall_time_leaves_factor_unset(self):
        events = [{"type": "end", "t": 5.0, "ticks": 100}]
        assert compute_metrics(Trace(make_header(), events)).realtime_factor is None

    def test_counters_for_arrivals_and_faults(self):
        events = [
            {"type": "arrival", "t": 1.0, "robot": 0},
            {"type": "arrival", "t": 2.0, "robot": 1},
            {"type": "fault", "t": 3.0, "robot": 0, "reason": "stuck"},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.arrivals == 2 and report.faults == 1


class TestRendering:
    def test_text_report_lines_up(self):
        report = compute_metrics(Trace(make_header()))
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("duration_s")
        assert any(line.startswith("qp_mean_s ") or "qp_mean_s  " in line
                   for line in lines)
        assert "NA" in text
        assert text.endswith("\n")

    def test_csv_header_matches_body(self):
        report = compute_metrics(Trace(make_header()))
        head, body = report.to_csv().strip().split("\n")
        assert len(head.split(",")) == len(body.split(","))
        assert head.split(",")[0] == "duration_s"
        assert body.split(",")[0] == "5"

    def test_csv_includes_timing_when_present(self):
        events = [{"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1],
                   "duration": 0.002}]
        head, body = compute_metrics(Trace(make_header(), events)).to_csv().split("\n")[:2]
        assert "qp_mean_s_cluster_2" in head
        assert "qp_solves_cluster_2" in head
        assert "qp_mean_s" not in head.split(",")
        assert dict(zip(head.split(","), body.split(",")))["qp_mean_s_cluster_2"] == "0.002"

    def test_empty_trace_report(self):
        report = compute_metrics(Trace(make_header()))
        assert report.ticks == 0
        assert report.fallback_fraction == 0.0
        assert report.min_robot_distance is None
        assert report.completion_times == []
