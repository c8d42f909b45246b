import math
import random

import pytest

from fleetsim import planner
from fleetsim.planner import (
    CHUNK,
    Path,
    PlanningError,
    SQRT2,
    UnreachableError,
    lookahead_point,
    plan,
)
from fleetsim.world import LETHAL_COST, inflate

from _support import (
    dijkstra_cost,
    grid_from_rows,
    grid_view,
    random_costmap,
    reference_lookahead_point,
    reference_plan,
)


def _open_costmap(size=8):
    grid = grid_from_rows(["." * size for _ in range(size)])
    return grid, inflate(grid, 1.0, 3.0)


class TestPlan:
    def test_straight_line_cost(self):
        grid, cm = _open_costmap()
        p = plan(cm, grid.cell_center(0, 0), grid.cell_center(4, 0))
        assert p.total_cost == 4.0
        assert p.points == tuple(grid.cell_center(i, 0) for i in range(5))

    def test_diagonal_cost(self):
        grid, cm = _open_costmap()
        p = plan(cm, grid.cell_center(0, 0), grid.cell_center(3, 3))
        expected = 0.0
        for _ in range(3):
            expected += SQRT2
        assert p.total_cost == expected
        assert len(p) == 4

    def test_start_equals_goal(self):
        grid, cm = _open_costmap()
        p = plan(cm, grid.cell_center(2, 2), grid.cell_center(2, 2))
        assert p.points == (grid.cell_center(2, 2),)
        assert p.total_cost == 0.0

    def test_zero_cost_weight_ignores_costs(self):
        grid, cm = _open_costmap()
        p = plan(cm, grid.cell_center(0, 0), grid.cell_center(2, 1), cost_weight=0.0)
        assert p.total_cost == SQRT2 + 1.0

    def test_lethal_endpoints_rejected(self):
        grid = grid_from_rows(["#...", "....", "....", "...#"])
        cm = inflate(grid, 1.0, 3.0)
        ok = grid.cell_center(1, 2)
        with pytest.raises(PlanningError, match="start"):
            plan(cm, grid.cell_center(0, 3), ok)
        with pytest.raises(PlanningError, match="goal"):
            plan(cm, ok, grid.cell_center(3, 0))

    def test_out_of_bounds_rejected(self):
        _, cm = _open_costmap()
        with pytest.raises(PlanningError, match="outside"):
            plan(cm, (-10.0, 0.0), (1.0, 1.0))

    def test_no_corner_cutting(self):
        # free cells only touch at a corner between two lethal cells; with
        # corner cutting forbidden that corner is impassable
        grid = grid_from_rows(["#.", ".#"])
        cm = inflate(grid, 1.0, 3.0)
        with pytest.raises(UnreachableError):
            plan(cm, grid.cell_center(0, 0), grid.cell_center(1, 1))

    def test_unreachable_is_planning_error(self):
        grid = grid_from_rows(["..#..", "..#..", "..#.."])
        cm = inflate(grid, 0.0, 3.0)
        with pytest.raises(PlanningError):
            plan(cm, grid.cell_center(0, 1), grid.cell_center(4, 1))

    def test_detours_around_inflated_cost(self):
        # a pillar inflates the direct row; the cheapest route swings wide
        rows = [
            ".......",
            ".......",
            ".......",
            "...#...",
        ]
        grid = grid_from_rows(rows)
        cm = inflate(grid, 1.0, 3.0)
        p = plan(cm, grid.cell_center(0, 0), grid.cell_center(6, 0))
        assert any(y > grid.cell_center(0, 0)[1] for _, y in p.points)

    def test_matches_uniform_cost_search_on_random_maps(self):
        rng = random.Random(7)
        checked = 0
        while checked < 10:
            grid, cm = random_costmap(rng, size=12)
            cost = grid_view(grid, cm.cost)
            free = [
                (ix, iy)
                for iy in range(12) for ix in range(12)
                if cost[iy, ix] != LETHAL_COST
            ]
            s, g = rng.sample(free, 2)
            oracle = dijkstra_cost(cm, s, g, 3.0)
            if oracle is None:
                with pytest.raises(UnreachableError):
                    plan(cm, grid.cell_center(*s), grid.cell_center(*g))
            else:
                p = plan(cm, grid.cell_center(*s), grid.cell_center(*g))
                assert p.total_cost == oracle
                self._check_path_shape(grid, cm, p, s, g)
            checked += 1

    @staticmethod
    def _check_path_shape(grid, cm, p: Path, s, g):
        assert p.points[0] == grid.cell_center(*s)
        assert p.points[-1] == grid.cell_center(*g)
        cells = [grid.world_to_cell(x, y) for x, y in p.points]
        for (ax, ay), (bx, by) in zip(cells, cells[1:]):
            assert max(abs(ax - bx), abs(ay - by)) == 1
        cost = grid_view(grid, cm.cost)
        for ix, iy in cells:
            assert cost[iy, ix] != LETHAL_COST


def _outcome(fn, *args):
    """A plan's result as exact text: float.hex of cost and points, or the error."""
    try:
        p = fn(*args)
    except PlanningError as exc:
        return f"{type(exc).__name__}: {exc}"
    return p.total_cost.hex() + " " + " ".join(f"{x.hex()},{y.hex()}" for x, y in p.points)


class TestMatchesReference:
    def test_random_queries_bit_for_bit(self):
        # random maps and endpoints, some out of bounds or on walls, a third
        # of them repeats that the memo answers
        rng = random.Random(13)
        n_queries = raised = 0
        for _ in range(40):
            w, h = rng.randint(4, 20), rng.randint(4, 20)
            walls = rng.choice((0.0, 0.1, 0.25))
            rows = ["".join("#" if rng.random() < walls else "." for _ in range(w))
                    for _ in range(h)]
            res = rng.choice((0.25, 0.5, 1.0))
            grid = grid_from_rows(rows, resolution=res, ox=-1.5)
            cm = inflate(grid, rng.choice((0.0, 1.0, 1.5)), rng.choice((1.0, 3.0)), 0.3)
            span_x, span_y = w * res, h * res

            def point():
                u = rng.uniform(-0.05, 1.05) if rng.random() < 0.05 else rng.random()
                return (-1.5 + u * span_x, rng.random() * span_y)

            queries = []
            for _ in range(50):
                if queries and rng.random() < 0.3:
                    queries.append(rng.choice(queries))
                else:
                    queries.append((point(), point(), rng.choice((0.0, 1.0, 3.0, 7.5))))
            for q in queries:
                got = _outcome(plan, cm, *q)
                assert got == _outcome(reference_plan, cm, *q), q
                raised += "Error" in got
                n_queries += 1
        assert n_queries == 2000
        assert 0 < raised < n_queries


class TestMemo:
    @staticmethod
    def _count_searches(monkeypatch):
        calls = []
        search = planner._search

        def counting(*args):
            calls.append(args[1:])
            return search(*args)

        monkeypatch.setattr(planner, "_search", counting)
        return calls

    def test_hit_does_not_search_again(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        grid, cm = _open_costmap()
        first = plan(cm, grid.cell_center(0, 0), grid.cell_center(5, 3))
        # another point in the same start cell is the same query
        again = plan(cm, (0.1, 0.1), grid.cell_center(5, 3))
        assert again is first
        assert len(calls) == 1

    def test_repeated_unreachable_names_new_coordinates(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        grid = grid_from_rows(["..#..", "..#..", "..#.."])
        cm = inflate(grid, 0.0, 3.0)
        with pytest.raises(UnreachableError, match=r"\(0\.25, 0\.75\)"):
            plan(cm, (0.25, 0.75), (2.25, 0.75))
        with pytest.raises(UnreachableError) as info:
            plan(cm, (0.1, 0.6), (2.4, 0.9))
        assert str(info.value) == "no path from (0.1, 0.6) to (2.4, 0.9)"
        assert len(calls) == 1

    def test_cost_weights_cached_apart(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        grid = grid_from_rows([".......", ".......", ".......", "...#..."])
        cm = inflate(grid, 1.0, 3.0)
        a, b = grid.cell_center(0, 1), grid.cell_center(6, 1)
        flat = plan(cm, a, b, cost_weight=0.0)
        weighted = plan(cm, a, b, cost_weight=3.0)
        assert flat.total_cost == 6.0
        assert weighted.total_cost > flat.total_cost
        assert plan(cm, a, b, cost_weight=0.0) is flat
        assert len(calls) == 2

    def test_costmaps_of_one_grid_do_not_share(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        grid = grid_from_rows(["." * 6] * 6)
        first, second = inflate(grid, 1.0, 3.0), inflate(grid, 1.0, 3.0)
        a, b = grid.cell_center(0, 0), grid.cell_center(5, 5)
        assert plan(first, a, b) == plan(second, a, b)
        assert len(calls) == 2
        assert first.plans is not second.plans

    def test_paths_through_a_cell_share_its_center(self):
        grid, cm = _open_costmap()
        there = plan(cm, grid.cell_center(0, 0), grid.cell_center(6, 0))
        back = plan(cm, grid.cell_center(6, 0), grid.cell_center(0, 0))
        assert there is not back
        assert back.points == there.points[::-1]
        assert there.points[0] == grid.cell_center(0, 0)
        for a, b in zip(there.points, reversed(back.points)):
            assert a is b


class TestLookaheadPoint:
    PATH = Path(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), 2.0)

    def test_scans_forward_from_nearest(self):
        assert lookahead_point(self.PATH, (0.1, 0.0), 0.5) == (1.0, 0.0)

    def test_falls_back_to_last_vertex(self):
        assert lookahead_point(self.PATH, (0.1, 0.0), 5.0) == (2.0, 0.0)

    def test_zero_delta_returns_nearest(self):
        assert lookahead_point(self.PATH, (0.9, 0.0), 0.0) == (1.0, 0.0)

    def test_nearest_tie_prefers_lowest_index(self):
        path = Path(((0.0, 0.0), (2.0, 0.0)), 2.0)
        assert lookahead_point(path, (1.0, 0.0), 0.5) == (0.0, 0.0)

    def test_ties_match_the_keyed_scan(self):
        # points on a coarse lattice, often repeated, put many vertices at
        # one distance from the position
        rng = random.Random(5)
        lattice = [(float(x), float(y)) for x in range(3) for y in range(3)]
        for _ in range(2000):
            points = tuple(rng.choice(lattice) for _ in range(rng.randint(1, 120)))
            position = (rng.choice((0.0, 0.5, 1.0)), rng.choice((0.0, 0.5, 1.0)))
            delta = rng.choice((0.0, 0.5, 1.0, 1.5, 3.0))
            dists = [math.hypot(x - position[0], y - position[1]) for x, y in points]
            nearest = min(range(len(dists)), key=lambda i: (dists[i], i))
            scan = [points[i] for i in range(nearest, len(points)) if dists[i] >= delta]
            expected = scan[0] if scan else points[-1]
            assert lookahead_point(Path(points, 0.0), position, delta) == expected

    def test_pruned_scan_matches_the_full_scan(self):
        # lattice walks that fold back on themselves: vertices in far chunks
        # tie with, or beat, the nearest of an earlier chunk
        rng = random.Random(6)
        pruned = 0
        for _ in range(3000):
            x, y = rng.randrange(10), rng.randrange(10)
            points = []
            for _ in range(rng.randint(1, 120)):
                x = min(max(x + rng.choice((-1, 0, 1)), 0), 9)
                y = min(max(y + rng.choice((-1, 0, 1)), 0), 9)
                points.append((0.5 * x, 0.5 * y))
            path = Path(tuple(points), 0.0)
            position = (0.25 * rng.randrange(-2, 22), 0.25 * rng.randrange(-2, 22))
            delta = rng.choice((0.0, 0.5, 1.0, 2.0))
            assert lookahead_point(path, position, delta) == reference_lookahead_point(
                points, position, delta)
            best = min(math.hypot(px - position[0], py - position[1]) for px, py in points)
            pruned += any(math.hypot(cx - position[0], cy - position[1]) - r > best
                          for _, cx, cy, r in path.chunks)
        assert pruned > 1000

    def test_chunk_circles_hold_their_vertices(self):
        rng = random.Random(7)
        points = tuple((rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(100))
        chunks = Path(points, 0.0).chunks
        assert [first for first, *_ in chunks] == list(range(0, 100, CHUNK))
        for first, cx, cy, r in chunks:
            for px, py in points[first:first + CHUNK]:
                assert math.hypot(px - cx, py - cy) <= r

    def test_progress_past_visited_vertices(self):
        # standing just past the middle vertex: nearest is index 1, so the
        # scan may not return the start vertex even though it is delta away
        assert lookahead_point(self.PATH, (1.1, 0.0), 0.5) == (2.0, 0.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            lookahead_point(Path((), 0.0), (0, 0), 0.5)
        with pytest.raises(ValueError, match="delta"):
            lookahead_point(self.PATH, (0, 0), -0.1)
