import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fleetsim.engine import collect_travel_times
from fleetsim.scenario import load_scenario
from fleetsim.tasking import (
    DROPOFF,
    EXACT_MAX_ROBOTS,
    EXACT_MAX_TASKS,
    PICKUP,
    Allocation,
    Dispatcher,
    Leg,
    Task,
    TaskRequest,
    TravelTimeGraph,
    solve_exact,
    solve_greedy,
)

from _support import (
    SCENARIOS,
    busy_fleet_scenario,
    enumerate_best_makespan,
    random_safety_scenario,
    reference_solve_exact,
    straight_line_graph,
    straight_line_table,
)

LINE = straight_line_graph({k: (float(k), 0.0) for k in range(5)})


def visits(alloc: Allocation, rid: int) -> list[int]:
    """The robot's visit order as location ids."""
    return [leg.location for leg in alloc.legs[rid]]


class TestDataTypes:
    def test_task_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            Task(1, 1, 10.0)

    def test_request_deadline_after_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            TaskRequest(5.0, (Task(0, 1, 5.0),))
        TaskRequest(5.0, (Task(0, 1, 5.1),))


class TestTravelTimeGraph:
    def test_time_lookup(self):
        assert LINE.time(0, 3) == 3.0
        assert LINE.time(3, 0) == 3.0
        assert LINE.time(2, 2) == 0.0

    def test_unknown_location(self):
        with pytest.raises(KeyError, match="9"):
            LINE.time(0, 9)

    def test_text_round_trip(self):
        text = LINE.to_text()
        again = TravelTimeGraph.from_text(text)
        assert again.locations == LINE.locations
        assert np.array_equal(again.weights, LINE.weights)

    def test_owns_read_only_float_rows(self):
        given = np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        g = TravelTimeGraph((7, 8, 9), given)
        given[0, 1] = given[1, 0] = 1
        assert g.weights.dtype == float and not g.weights.flags.writeable
        assert g.rows == [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]
        assert g.entry == [3.0, 3.0, 4.0]
        assert g.time(7, 8) == 3.0 and type(g.time(9, 8)) is float

    @pytest.mark.parametrize("weights,fragment", [
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
        (np.array([[1.0, 2.0], [2.0, 0.0]]), "diagonal"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "positive"),
        (np.zeros((3, 3)), "shape"),
        (np.array([[0.0, 1.0], [1.000001, 0.0]]), "symmetric"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), r"row 1, column 2 .* not finite"),
        (np.array([[0.0, 1.0], [np.inf, 0.0]]), r"row 2, column 1 .* not finite"),
    ])
    def test_validation(self, weights, fragment):
        with pytest.raises(ValueError, match=fragment):
            TravelTimeGraph((0, 1), weights)

    def test_closes_under_shortest_paths(self):
        # 0 -> 2 direct takes 4 s, by way of 1 it takes 2 s
        g = TravelTimeGraph((0, 1, 2), np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        assert g.rows == [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        assert g.weights.tolist() == g.rows and not g.weights.flags.writeable
        assert g.time(2, 0) == 2.0 and g.entry == [1.0, 1.0, 1.0]
        assert g.to_text() == "0 1 2\n0 1 2\n1 0 1\n2 1 0\n"

    def test_closure_keeps_metric_tables(self):
        """The bundled tables and the straight-line ones the tests build meet
        the triangle inequality, so closing them moves no bit."""
        tables = []
        for path in sorted((SCENARIOS / "tables").glob("*_travel.txt")):
            header, *body = [ln for ln in path.read_text().splitlines() if ln.strip()]
            tables.append((tuple(int(v) for v in header.split()),
                           [[float(v) for v in ln.split()] for ln in body]))
        assert len(tables) == 4
        rng = random.Random(34)
        layouts = [{k: (float(k), 0.0) for k in range(5)}]
        layouts += [busy_fleet_scenario(n).roadways.locations for n in (2, 4, 6)]
        layouts += [random_safety_scenario(seed).roadways.locations for seed in range(10)]
        layouts += [
            {k: (rng.uniform(0, 20), rng.uniform(0, 20)) for k in range(rng.randint(2, 7))}
            for _ in range(500)
        ]
        tables += [straight_line_table(locations) for locations in layouts]
        for ids, raw in tables:
            g = TravelTimeGraph(ids, np.array(raw))
            assert _hex(g.rows) == _hex(raw) and g.weights.tolist() == g.rows

    def test_closure_property(self):
        """Random float tables, a share of which one k-i-j pass leaves a
        rounding step off the triangle inequality. Each accepted table is
        closed, as float comparisons see it; each entry is its shortest path
        to rounding; closing it again moves no bit; and its text reloads to
        the same table, bit for bit where 9 digits write every entry exactly."""
        rng = random.Random(34)
        multi_pass = exact_text = 0
        for _ in range(2000):
            n = rng.randint(2, 7)
            draw = rng.choice([
                lambda: rng.uniform(0.1, 100.0),
                lambda: math.exp(rng.uniform(-3.0, 8.0)),
                lambda: rng.randint(1, 400) / 10,
            ])
            raw = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = draw()
            g = TravelTimeGraph(tuple(range(n)), np.array(raw))
            rows = g.rows
            pairs = [(a, b) for a in range(n) for b in range(n)]
            assert g.weights.tolist() == rows
            assert all(rows[a][b] == rows[b][a] for a, b in pairs)
            assert all(rows[a][b] > 0.0 if a != b else rows[a][b] == 0.0 for a, b in pairs)
            assert _meets_triangle(rows)
            exact = _shortest_paths(raw)
            assert all(abs(rows[a][b] - exact[a][b]) <= 1e-13 * exact[a][b] for a, b in pairs)
            assert _hex(TravelTimeGraph(g.locations, g.weights).rows) == _hex(rows)
            reloaded = TravelTimeGraph.from_text(g.to_text()).rows
            if all(float(f"{v:.9g}") == v for row in rows for v in row):
                exact_text += 1
                assert _hex(reloaded) == _hex(rows)
            else:
                assert all(abs(reloaded[a][b] - rows[a][b]) <= 1e-8 * rows[a][b] for a, b in pairs)
            multi_pass += not _meets_triangle(_one_pass(raw))
        assert multi_pass >= 20 and exact_text >= 100, (multi_pass, exact_text)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            TravelTimeGraph((1, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("0 x\n0 1\n1 0\n", "location ids"),
        ("0 1\n0 1\n", "matrix rows"),
        ("0 1\n0 1\n1\n", "entries"),
        ("0 1\n0 one\none 0\n", "malformed"),
        ("0 1\n0 31.3\n31.3003 0\n", "symmetric"),
        ("0 1\n0 nan\nnan 0\n", r"location 0 to 1\): travel time nan is not finite"),
        ("0 1\n0 inf\ninf 0\n", r"location 0 to 1\): travel time inf is not finite"),
    ])
    def test_from_text_errors(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            TravelTimeGraph.from_text(text)


class TestAllocationValidate:
    def test_split_task_rejected(self):
        alloc = Allocation(legs={
            0: [Leg(0, PICKUP, 1, 1.0), Leg(0, DROPOFF, 2, 2.0)],
            1: [Leg(0, PICKUP, 1, 3.0), Leg(0, DROPOFF, 2, 4.0)],
        })
        with pytest.raises(ValueError, match="split"):
            alloc.validate()

    def test_pickup_without_dropoff_rejected(self):
        alloc = Allocation(legs={0: [Leg(0, PICKUP, 1, 1.0)]})
        with pytest.raises(ValueError, match="never dropped"):
            alloc.validate()

    def test_dropoff_before_pickup_rejected(self):
        alloc = Allocation(legs={
            0: [Leg(0, DROPOFF, 2, 1.0), Leg(0, PICKUP, 1, 2.0)],
        })
        with pytest.raises(ValueError, match="before pickup"):
            alloc.validate()

    def test_assigned_and_unassigned_rejected(self):
        alloc = Allocation(legs={
            0: [Leg(0, PICKUP, 1, 1.0), Leg(0, DROPOFF, 2, 2.0)],
        }, unassigned=[0])
        with pytest.raises(ValueError, match="both"):
            alloc.validate()

    def test_makespan(self):
        alloc = Allocation(legs={0: [Leg(0, PICKUP, 1, 4.5)], 1: []})
        assert alloc.makespan(0.0) == 4.5
        assert alloc.makespan(9.0) == 9.0


def _hex(rows) -> list[list[str]]:
    return [[float(v).hex() for v in row] for row in rows]


def _meets_triangle(rows) -> bool:
    n = len(rows)
    return all(
        rows[a][c] <= rows[a][b] + rows[b][c]
        for a in range(n) for b in range(n) for c in range(n)
    )


def _one_pass(rows) -> list[list[float]]:
    """One k-i-j pass of the shortest-path closure, in floats, on a copy."""
    rows = [row[:] for row in rows]
    for k in range(len(rows)):
        for row in rows:
            for j, onward in enumerate(rows[k]):
                row[j] = min(row[j], row[k] + onward)
    return rows


def _shortest_paths(rows) -> list[list[float]]:
    """Shortest-path lengths in exact rational arithmetic, then rounded."""
    exact = [[Fraction(v) for v in row] for row in rows]
    for k in range(len(rows)):
        for row in exact:
            for j, onward in enumerate(exact[k]):
                row[j] = min(row[j], row[k] + onward)
    return [[float(v) for v in row] for row in exact]


def _legs(alloc: Allocation | None):
    if alloc is None:
        return None
    return {
        rid: [(leg.task, leg.stage, leg.location, leg.time.hex()) for leg in legs]
        for rid, legs in alloc.legs.items()
    }


def _random_table(rng, kind: str, n: int) -> TravelTimeGraph:
    if kind == "collinear":
        points = [(float(x), 0.0) for x in rng.sample(range(12), n)]
    else:
        points = [(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(n)]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "non-metric":
                v = rng.choice([rng.uniform(1, 40), rng.uniform(1, 5), rng.randint(1, 6)])
            elif kind == "rounded":
                v = max(0.1, round(math.dist(points[i], points[j]), 1))
            else:
                v = max(1.0, math.dist(points[i], points[j]))
            w[i, j] = w[j, i] = v
    ids = tuple(range(n)) if rng.random() < 0.5 else tuple(sorted(rng.sample(range(100), n)))
    return TravelTimeGraph(ids, w)


def _random_instance(rng):
    """A solve_exact input: table kind, pinned, carried and forced legs, and
    lifted (infinite) deadlines drawn at random."""
    kind = rng.choice(["collinear", "plane", "non-metric", "rounded"])
    g = _random_table(rng, kind, rng.randint(2, 6))
    scale = float(g.weights.max())
    n_tasks = rng.randint(1, 5)
    now = rng.choice([0.0, rng.uniform(0, 500)])
    robots = {r: rng.choice(g.locations) for r in rng.sample(range(6), rng.randint(1, 3))}
    tasks = []
    for _ in range(n_tasks):
        a, b = rng.sample(g.locations, 2)
        lifted = rng.random() < 0.1
        deadline = now + rng.uniform(0.5, 2.5 * n_tasks) * scale
        tasks.append(Task(a, b, math.inf if lifted else deadline))
    pinned, carried, forced = {}, set(), {}
    for k in range(n_tasks):
        u = rng.random()
        if u < 0.2:
            pinned[k] = rng.choice(sorted(robots))
            if u < 0.1:
                carried.add(k)
    for rid in sorted(robots):
        # the in-progress leg: a carried task's drop-off or a free pickup
        options = [(k, DROPOFF) for k in sorted(carried) if pinned[k] == rid] + [
            (k, PICKUP) for k in range(n_tasks)
            if k not in carried and pinned.get(k, rid) == rid
            and all(f[0] != k for f in forced.values())
        ]
        if options and rng.random() < 0.15:
            forced[rid] = rng.choice(options)
    return (robots, tasks, g, now), dict(
        pinned=pinned, pre_picked=frozenset(carried), forced_first=forced,
    )


# The seed-1 depot_dispatch batch of perfbench/workloads.py, the allocator's
# largest instance (8 tasks x 6 robots), and the legs it was first solved to.
_CAP_ROBOTS = {0: 0, 1: 0, 2: 4, 3: 4, 4: 4, 5: 1}
_CAP_NOW = "0x1.b333333333334p-1"
_CAP_TASKS = [
    (0, 3, "0x1.9b92e05de2c56p+8"), (1, 2, "0x1.979afe26e2a8ep+8"),
    (4, 5, "0x1.da0f232d02112p+8"), (3, 0, "0x1.baf445d277ec1p+8"),
    (2, 1, "0x1.e407cdd9bd7fcp+8"), (5, 4, "0x1.c1a705df5fad8p+8"),
    (0, 5, "0x1.b0689ce00b849p+8"), (1, 4, "0x1.2702a34cad127p+9"),
]
_CAP_LEGS = {
    0: [],
    1: [(0, PICKUP, 0, "0x1.b333333333334p-1"), (6, PICKUP, 0, "0x1.b333333333334p-1"),
        (2, PICKUP, 4, "0x1.2e66666666667p+4"), (2, DROPOFF, 5, "0x1.42ccccccccccdp+5"),
        (6, DROPOFF, 5, "0x1.42ccccccccccdp+5"), (0, DROPOFF, 3, "0x1.d000000000000p+5")],
    2: [(1, PICKUP, 1, "0x1.2800000000000p+4"), (7, PICKUP, 1, "0x1.2800000000000p+4"),
        (7, DROPOFF, 4, "0x1.2133333333333p+5"), (1, DROPOFF, 2, "0x1.0600000000000p+6")],
    3: [(4, PICKUP, 2, "0x1.e333333333334p+4"), (4, DROPOFF, 1, "0x1.2266666666666p+6")],
    4: [(3, PICKUP, 3, "0x1.eb33333333334p+4"), (3, DROPOFF, 0, "0x1.2400000000000p+6")],
    5: [(5, PICKUP, 5, "0x1.ed9999999999ap+4"), (5, DROPOFF, 4, "0x1.a266666666666p+5")],
}


class TestSolveExact:
    def test_single_robot_single_task(self):
        alloc = solve_exact({0: 0}, [Task(2, 4, 100.0)], LINE, 0.0)
        assert alloc.legs[0] == [Leg(0, PICKUP, 2, 2.0), Leg(0, DROPOFF, 4, 4.0)]
        assert alloc.makespan(0.0) == 4.0
        alloc.validate()

    def test_offset_start_time(self):
        alloc = solve_exact({0: 0}, [Task(2, 4, 100.0)], LINE, 10.0)
        assert [leg.time for leg in alloc.legs[0]] == [12.0, 14.0]

    def test_interleaves_pickups(self):
        # carrying both items at once: p1 p2 d1 d2 in one straight sweep
        tasks = [Task(1, 3, 100.0), Task(2, 4, 100.0)]
        alloc = solve_exact({0: 0}, tasks, LINE, 0.0)
        assert visits(alloc, 0) == [1, 2, 3, 4]
        assert alloc.makespan(0.0) == 4.0

    def test_splits_tasks_across_robots(self):
        g = straight_line_graph({
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            10: (10.0, 0.0), 11: (11.0, 0.0), 12: (12.0, 0.0),
        })
        tasks = [Task(1, 2, 100.0), Task(11, 12, 100.0)]
        alloc = solve_exact({0: 0, 1: 10}, tasks, g, 0.0)
        assert visits(alloc, 0) == [1, 2]
        assert visits(alloc, 1) == [11, 12]

    def test_deadline_infeasible_returns_none(self):
        assert solve_exact({0: 0}, [Task(2, 4, 3.0)], LINE, 0.0) is None

    def test_deadline_forces_split(self):
        # a lone robot finishes task 1 at t=4.0 at best, after its deadline;
        # a second robot sitting on the pickup meets it easily
        g = straight_line_graph({
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            3: (3.0, 0.0), 4: (4.0, 0.0),
        })
        tasks = [Task(1, 3, 100.0), Task(2, 4, 3.9)]
        assert solve_exact({0: 0}, tasks, g, 0.0) is None
        alloc = solve_exact({0: 0, 1: 2}, tasks, g, 0.0)
        assert alloc is not None
        assert visits(alloc, 1) == [2, 4]
        assert visits(alloc, 0) == [1, 3]

    def test_makespan_tie_is_deterministic(self):
        g = straight_line_graph({
            0: (0.0, 0.0), 10: (10.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 2.0),
        })
        alloc = solve_exact({0: 0, 1: 10}, [Task(1, 2, 100.0)], g, 0.0)
        # both robots reach the task in the same time; the lex key on
        # per-robot visit sequences leaves the lower robot empty
        assert visits(alloc, 0) == []
        assert visits(alloc, 1) == [1, 2]

    def test_pinned_task(self):
        g = straight_line_graph({
            0: (0.0, 0.0), 10: (10.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
        })
        alloc = solve_exact({0: 0, 1: 10}, [Task(1, 2, 100.0)], g, 0.0,
                            pinned={0: 1})
        assert visits(alloc, 1) == [1, 2]
        assert visits(alloc, 0) == []

    def test_pre_picked_skips_pickup(self):
        alloc = solve_exact({0: 0}, [Task(2, 4, 100.0)], LINE, 0.0,
                            pinned={0: 0}, pre_picked=frozenset({0}))
        assert alloc.legs[0] == [Leg(0, DROPOFF, 4, 4.0)]

    def test_pre_picked_requires_pin(self):
        with pytest.raises(ValueError, match="pinned"):
            solve_exact({0: 0}, [Task(2, 4, 100.0)], LINE, 0.0,
                        pre_picked=frozenset({0}))

    def test_forced_first_overrides_better_order(self):
        tasks = [Task(1, 3, 100.0), Task(2, 4, 100.0)]
        free = solve_exact({0: 0}, tasks, LINE, 0.0)
        assert free.legs[0][0].task == 0
        forced = solve_exact({0: 0}, tasks, LINE, 0.0,
                             forced_first={0: (1, PICKUP)})
        assert forced.legs[0][0] == Leg(1, PICKUP, 2, 2.0)
        assert forced.makespan(0.0) >= free.makespan(0.0)

    def test_forced_first_dropoff_of_carried_task(self):
        # robot at 0 carries task 0 (drop-off at 4); task 1 (1 -> 2) would
        # come first on its own
        tasks = [Task(2, 4, 3.0), Task(1, 2, 100.0)]
        kwargs = dict(pinned={0: 0}, pre_picked=frozenset({0}),
                      forced_first={0: (0, DROPOFF)})
        assert solve_exact({0: 0}, tasks, LINE, 0.0, **kwargs) is None
        tasks[0] = Task(2, 4, 100.0)
        alloc = solve_exact({0: 0}, tasks, LINE, 0.0, **kwargs)
        assert alloc.legs[0][0] == Leg(0, DROPOFF, 4, 4.0)
        assert visits(alloc, 0) == [4, 1, 2]
        free = solve_exact({0: 0}, tasks, LINE, 0.0, pinned={0: 0},
                           pre_picked=frozenset({0}))
        assert visits(free, 0) == [1, 2, 4]

    def test_size_caps(self):
        tasks = [Task(0, 1, 100.0)] * (EXACT_MAX_TASKS + 1)
        with pytest.raises(ValueError, match="too large"):
            solve_exact({0: 0}, tasks, LINE, 0.0)
        robots = {k: 0 for k in range(EXACT_MAX_ROBOTS + 1)}
        with pytest.raises(ValueError, match="too large"):
            solve_exact(robots, [Task(0, 1, 100.0)], LINE, 0.0)

    def test_no_robots(self):
        with pytest.raises(ValueError, match="no robots"):
            solve_exact({}, [Task(0, 1, 100.0)], LINE, 0.0)

    def test_unknown_locations(self):
        with pytest.raises(KeyError):
            solve_exact({0: 99}, [Task(0, 1, 100.0)], LINE, 0.0)
        with pytest.raises(KeyError):
            solve_exact({0: 0}, [Task(0, 99, 100.0)], LINE, 0.0)

    def test_matches_enumeration_on_small_instances(self):
        import random

        rng = random.Random(3)
        for _ in range(20):
            n_loc = rng.randint(2, 5)
            locs = {k: (rng.uniform(0, 20), rng.uniform(0, 20)) for k in range(n_loc)}
            g = straight_line_graph(locs)
            robots = {r: rng.randrange(n_loc) for r in range(rng.randint(1, 2))}
            tasks = []
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(n_loc), 2)
                tasks.append(Task(a, b, rng.uniform(10.0, 90.0)))
            expected = enumerate_best_makespan(robots, tasks, g, 0.0)
            alloc = solve_exact(robots, tasks, g, 0.0)
            if expected is None:
                assert alloc is None
            else:
                assert alloc is not None
                assert alloc.makespan(0.0) == expected
                alloc.validate()

    def test_matches_reference_search(self):
        """Same legs, to the last bit, as the search the allocator replaced."""
        rng = random.Random(7)
        outcomes = {"none": 0, "forced": 0, "carried": 0, "lifted": 0}
        for _ in range(500):
            args, kwargs = _random_instance(rng)
            expected = _legs(reference_solve_exact(*args, **kwargs))
            assert _legs(solve_exact(*args, **kwargs)) == expected, (args, kwargs)
            outcomes["none"] += expected is None
            outcomes["forced"] += bool(kwargs["forced_first"])
            outcomes["carried"] += bool(kwargs["pre_picked"])
            outcomes["lifted"] += any(math.isinf(t.deadline) for t in args[1])
        assert min(outcomes.values()) >= 40, outcomes

    def test_greedy_seed_matches_reference_search(self):
        """Instances the greedy makespan seeds: any table, no commitments,
        4-6 tasks over 3-6 robots, against the unbounded reference."""
        rng = random.Random(27)
        seeded = 0
        for _ in range(60):
            kind = rng.choice(["plane", "rounded", "collinear", "non-metric"])
            g = _random_table(rng, kind, rng.randint(3, 6))
            n_tasks = rng.randint(4, 6)
            robots = {r: rng.choice(g.locations) for r in rng.sample(range(8), rng.randint(3, 6))}
            scale = float(g.weights.max())
            tasks = []
            for _ in range(n_tasks):
                a, b = rng.sample(g.locations, 2)
                tasks.append(Task(a, b, rng.uniform(0.5, 1.5 * n_tasks) * scale))
            expected = _legs(reference_solve_exact(robots, tasks, g, 0.0))
            assert _legs(solve_exact(robots, tasks, g, 0.0)) == expected, (robots, tasks, g)
            seeded += not solve_greedy(robots, tasks, g, 0.0).unassigned
        assert seeded >= 40, seeded

    def test_greedy_seed_on_a_closed_table(self):
        # 1 -> 0 takes 6 s direct and 5 s by way of 2, so the table holds 5 s,
        # and task 0 alone ends at 10 s, no later than greedy's 10 s for both
        # tasks: the seed cuts no allocation that could win
        g = TravelTimeGraph((0, 1, 2), np.array([[0, 6, 2], [6, 0, 3], [2, 3, 0]]))
        assert g.time(1, 0) == 5.0
        tasks = [Task(0, 1, 15.0), Task(1, 2, 5.0)]
        assert solve_greedy({0: 1}, tasks, g, 0.0).makespan(0.0) == 10.0
        alloc = solve_exact({0: 1}, tasks, g, 0.0)
        assert visits(alloc, 0) == [1, 2, 0, 1] and alloc.makespan(0.0) == 10.0
        assert enumerate_best_makespan({0: 1}, tasks, g, 0.0) == 10.0

    def test_greedy_seed_gives_way_to_rounding(self):
        # 0 -> 2 closes to 0.4 + 0.4 s by way of 1. From t = 1 s, task 0 alone
        # ends at (1 + 0.8) + 0.8 = 2.6 s, a rounding step after greedy's
        # ((1 + 0.4) + 0.4) + 0.8 for both tasks: seeded with greedy's
        # makespan and no margin, the search would cut the only allocation
        g = TravelTimeGraph((0, 1, 2), np.array([[0, 0.4, 9], [0.4, 0, 0.4], [9, 0.4, 0]]))
        tasks = [Task(2, 0, 100.0), Task(1, 2, 2.0)]
        assert solve_greedy({0: 0}, tasks, g, 1.0).makespan(1.0) == 2.5999999999999996
        assert solve_exact({0: 0}, [tasks[0]], g, 1.0).makespan(1.0) == 2.6
        alloc = solve_exact({0: 0}, tasks, g, 1.0)
        assert alloc is not None and visits(alloc, 0) == [1, 2, 2, 0]
        assert alloc.makespan(1.0) == enumerate_best_makespan({0: 0}, tasks, g, 1.0)

    def test_finds_allocation_on_non_metric_table(self):
        g = TravelTimeGraph((0, 1, 2), np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        robots = {0: 1, 1: 0}
        tasks = [Task(2, 0, 3.0), Task(0, 1, 22.0), Task(1, 0, 18.0)]
        assert enumerate_best_makespan(robots, tasks, g, 0.0) == 3.0
        alloc = solve_exact(robots, tasks, g, 0.0)
        assert alloc is not None and alloc.makespan(0.0) == 3.0

    def test_golden_allocation_at_the_cap(self):
        g = TravelTimeGraph.from_text((SCENARIOS / "tables" / "depot_travel.txt").read_text())
        tasks = [Task(a, b, float.fromhex(d)) for a, b, d in _CAP_TASKS]
        alloc = solve_exact(_CAP_ROBOTS, tasks, g, float.fromhex(_CAP_NOW))
        assert _legs(alloc) == _CAP_LEGS


class TestSolveGreedy:
    def test_earliest_deadline_first(self):
        # task 1 has the tighter deadline and grabs the better robot
        tasks = [Task(3, 4, 100.0), Task(1, 2, 8.0)]
        alloc = solve_greedy({0: 0}, tasks, LINE, 0.0)
        assert [leg.task for leg in alloc.legs[0]] == [1, 1, 0, 0]
        alloc.validate()

    def test_soonest_finisher_wins(self):
        alloc = solve_greedy({0: 0, 1: 3}, [Task(3, 4, 100.0)], LINE, 0.0)
        assert visits(alloc, 1) == [3, 4]
        assert visits(alloc, 0) == []

    def test_unassigned_when_no_deadline_fits(self):
        tasks = [Task(2, 4, 3.0), Task(1, 2, 100.0)]
        alloc = solve_greedy({0: 0}, tasks, LINE, 0.0)
        assert alloc.unassigned == [0]
        assert [leg.task for leg in alloc.legs[0]] == [1, 1]

    def test_committed_legs_preserved(self):
        committed = {0: [Leg(0, PICKUP, 1, 1.0), Leg(0, DROPOFF, 2, 2.0)]}
        tasks = [Task(1, 2, 100.0), Task(3, 4, 100.0)]
        alloc = solve_greedy({0: 0}, tasks, LINE, 0.0, committed=committed)
        assert alloc.legs[0][:2] == committed[0]
        assert [leg.task for leg in alloc.legs[0]] == [0, 0, 1, 1]
        # the appended task starts from the committed tail state
        assert alloc.legs[0][2].time == pytest.approx(2.0 + 1.0)

    def test_no_robots(self):
        with pytest.raises(ValueError, match="no robots"):
            solve_greedy({}, [Task(0, 1, 100.0)], LINE, 0.0)


class TestDispatcher:
    def make(self):
        return Dispatcher(LINE)

    def test_arrival_and_assignment_events(self):
        d = self.make()
        changed, events = d.dispatch(TaskRequest(0.0, (Task(2, 4, 100.0),)), {0: 0}, 0.0)
        kinds = [e["event"] for e in events]
        assert kinds == ["arrival", "assigned"]
        assert events[0]["task"] == "t0"
        assert d.robot_legs[0][0].stage == PICKUP
        assert d.has_tasks(0)
        assert changed == {0}
        assert d.records["t0"].robot == 0 and not d.records["t0"].terminal

    def test_complete_leg_lifecycle(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(2, 4, 100.0),)), {0: 0}, 0.0)
        assert d.complete_leg(0, 4, 1.0) == []  # the front leg is the pickup at 2
        assert [e["event"] for e in d.complete_leg(0, 2, 2.0)] == ["pickup"]
        assert d.records["t0"].picked_at == 2.0
        events = d.complete_leg(0, 4, 4.0)
        assert [e["event"] for e in events] == ["dropoff", "completed"]
        assert d.records["t0"].completed
        assert not d.has_tasks(0)

    def test_missed_deadline_reported_once(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(2, 4, 5.0),)), {0: 0}, 0.0)
        assert d.check_deadlines(4.0) == []
        events = d.check_deadlines(6.0)
        assert [e["event"] for e in events] == ["missed"]
        assert d.check_deadlines(7.0) == []
        assert d.records["t0"].missed

    def test_missed_task_kept_in_schedule(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(2, 4, 5.0),)), {0: 0}, 0.0)
        d.check_deadlines(6.0)
        # a new batch re-solves; the missed task stays scheduled with its
        # deadline lifted rather than being dropped
        d.dispatch(TaskRequest(6.0, (Task(1, 2, 100.0),)), {0: 0}, 6.0)
        scheduled = {leg.task_id for leg in d.robot_legs[0]}
        assert scheduled == {"t0", "t1"}

    def test_picked_task_stays_on_robot(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(2, 4, 100.0),)), {0: 0, 1: 4}, 0.0)
        robot = d.records["t0"].robot
        d.complete_leg(robot, 2, 2.0)  # picked up
        d.dispatch(TaskRequest(2.0, (Task(1, 2, 100.0),)), {0: 2, 1: 4}, 2.0)
        assert d.records["t0"].robot == robot
        legs = d.robot_legs[robot]
        assert legs[0] == type(legs[0])("t0", DROPOFF, 4)

    def test_unassigned_event(self):
        d = self.make()
        tasks = tuple(Task(1, 2, 4.05) for _ in range(9))  # over the exact cap
        _, events = d.dispatch(TaskRequest(0.0, tasks), {0: 4}, 0.0)
        kinds = [e["event"] for e in events]
        # greedy fallback: one task fits the deadline, the rest are rejected
        assert kinds.count("unassigned") == 8
        assert sum(rec.unassigned for rec in d.records.values()) == 8

    def test_release_ends_carried_and_resolves_unpicked(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(1, 2, 100.0), Task(3, 4, 100.0))),
                   {0: 1, 1: 0}, 0.0)
        assert {d.records[t].robot for t in ("t0", "t1")} == {0}
        d.complete_leg(0, 1, 1.0)  # robot 0 carries t0; t1 is unpicked
        changed, events = d.release([0], {1: 0}, 1.0)
        assert events == [
            {"event": "unassigned", "task": "t0", "robot": 0},
            {"event": "assigned", "task": "t1", "robot": 1},
        ]
        assert changed == {1}
        assert 0 not in d.robot_legs
        assert [leg.task_id for leg in d.robot_legs[1]] == ["t1", "t1"]
        assert d.records["t0"].unassigned and not d.records["t1"].terminal

    def test_release_of_last_robot_leaves_tasks_unassigned(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(1, 2, 100.0),)), {0: 0}, 0.0)
        changed, events = d.release([0], {}, 1.0)
        assert events == [{"event": "unassigned", "task": "t0", "robot": None}]
        assert changed == set() and not d.robot_legs
        # later batches find no robot either
        _, events = d.dispatch(TaskRequest(2.0, (Task(3, 4, 100.0),)), {}, 2.0)
        assert [e["event"] for e in events] == ["arrival", "unassigned"]

    def test_release_of_missed_carried_task_ends_it_once(self):
        d = self.make()
        d.dispatch(TaskRequest(0.0, (Task(1, 2, 5.0),)), {0: 0}, 0.0)
        d.complete_leg(0, 1, 1.0)
        d.check_deadlines(6.0)
        _, events = d.release([0], {1: 0}, 6.0)
        assert events == []
        assert d.records["t0"].missed and d.records["t0"].terminal


class TestCollectTravelTimes:
    # rooms pins that the measurement ignores room queues
    @pytest.mark.parametrize("name", ["smoke", "corridors", "rooms"])
    def test_reproduces_bundled_table(self, name):
        (scenario_file,) = SCENARIOS.glob(f"{name}_*.yaml")
        graph = collect_travel_times(load_scenario(scenario_file))
        expected = (SCENARIOS / "tables" / f"{name}_travel.txt").read_bytes()
        assert graph.to_text().encode() == expected
