import math
import random

import numpy as np
import pytest

from fleetsim.world import (
    LETHAL_COST,
    MapError,
    ObstaclePointSet,
    inflate,
    load_map,
    raycast,
)

from _support import SCENARIOS, grid_from_rows, reference_ray_cells, reference_raycast


class TestLoadMap:
    def test_round_trip_small_grid(self):
        text = "map 3 2 0.5 -1 2\n#..\n.#.\n"
        grid = load_map(text)
        assert grid.width == 3 and grid.height == 2
        assert grid.resolution == 0.5
        assert (grid.origin_x, grid.origin_y) == (-1.0, 2.0)
        # top text row is the max-y row
        assert grid.is_occupied_cell(0, 1) and not grid.is_occupied_cell(0, 0)
        assert grid.is_occupied_cell(1, 0)
        assert grid.occupied.tolist() == [[False, True, False], [True, False, False]]

    @pytest.mark.parametrize("name", ["open", "corridors", "depot", "rooms"])
    def test_round_trip_bundled_maps(self, name):
        text = (SCENARIOS / "maps" / f"{name}.map").read_text()
        grid = load_map(text)
        first, *rows = text.splitlines()
        header = first.split()
        assert [grid.width, grid.height] == [int(v) for v in header[1:3]]
        assert [grid.resolution, grid.origin_x, grid.origin_y] == [
            float(v) for v in header[3:]]
        # the top text row is the max-y row
        assert ["".join("#" if c else "." for c in row) for row in grid.occupied[::-1]] == [
            row for row in rows if row.strip()]

    def test_trailing_blank_lines_tolerated(self):
        grid = load_map("map 2 2 1 0 0\n..\n..\n\n\n")
        assert grid.width == 2

    @pytest.mark.parametrize("text,fragment", [
        ("", "line 1"),
        ("grid 2 2 1 0 0\n..\n..\n", "line 1"),
        ("map 2 two 1 0 0\n..\n..\n", "line 1"),
        ("map 2 2 0 0 0\n..\n..\n", "positive"),
        ("map 2 2 1 0 0\n..\n", "expected 2 rows"),
        ("map 2 2 1 0 0\n..\n...\n", "line 3"),
        ("map 2 2 1 0 0\n..\n.x\n", "line 3"),
    ])
    def test_malformed_maps_rejected(self, text, fragment):
        with pytest.raises(MapError, match=fragment):
            load_map(text)


class TestGridGeometry:
    def test_in_bounds_half_open(self):
        grid = load_map("map 4 2 0.5 1 2\n....\n....\n")
        assert grid.in_bounds(1.0, 2.0)
        assert grid.in_bounds(2.999, 2.999)
        assert not grid.in_bounds(3.0, 2.5)
        assert not grid.in_bounds(1.5, 3.0)
        assert not grid.in_bounds(0.999, 2.5)

    def test_world_to_cell_floors(self):
        grid = load_map("map 4 4 0.5 0 0\n....\n....\n....\n....\n")
        assert grid.world_to_cell(0.0, 0.0) == (0, 0)
        assert grid.world_to_cell(0.499, 0.999) == (0, 1)
        assert grid.world_to_cell(1.5, 1.99) == (3, 3)

    def test_world_to_cell_out_of_bounds(self):
        grid = load_map("map 2 2 1 0 0\n..\n..\n")
        with pytest.raises(MapError, match="outside"):
            grid.world_to_cell(2.0, 1.0)

    def test_cell_center_inverts_world_to_cell(self):
        grid = load_map("map 3 3 0.5 -1 -1\n...\n...\n...\n")
        for ix in range(3):
            for iy in range(3):
                cx, cy = grid.cell_center(ix, iy)
                assert grid.world_to_cell(cx, cy) == (ix, iy)


class TestInflate:
    def test_frozen_decay_values(self):
        # res 0.5, scale 3, r_robot 0.3: 254*exp(-3*(d-0.3)) rounded
        rows = ["." * 9 for _ in range(9)]
        rows[4] = "....#...."
        grid = grid_from_rows(rows)
        cm = inflate(grid, 1.0, 3.0, 0.3)
        assert cm.cost[4, 4] == LETHAL_COST
        assert cm.cost[4, 5] == 139  # d = 0.5
        assert cm.cost[5, 5] == 75  # d = sqrt(2)/2
        assert cm.cost[4, 6] == 31  # d = 1.0 (on the radius)
        assert cm.cost[4, 7] == 0  # d = 1.5, outside the radius
        assert cm.cost[0, 0] == 0

    def test_distance_under_robot_radius_saturates(self):
        rows = ["." * 5 for _ in range(5)]
        rows[2] = "..#.."
        grid = grid_from_rows(rows, resolution=0.25)
        cm = inflate(grid, 1.0, 3.0, 0.3)
        # d = 0.25 < r_robot: decay exceeds 254 and clamps
        assert cm.cost[2, 3] == 254

    def test_empty_grid_all_zero(self):
        grid = grid_from_rows(["..", ".."])
        cm = inflate(grid, 1.0, 3.0)
        assert not cm.cost.any()

    def test_negative_radius_rejected(self):
        grid = grid_from_rows(["..", ".."])
        with pytest.raises(ValueError):
            inflate(grid, -0.1, 3.0)

    def test_lethal_preserved_and_dtype(self):
        rows = ["##", ".."]
        grid = grid_from_rows(rows)
        cm = inflate(grid, 1.0, 3.0)
        assert cm.cost.dtype == np.uint8
        assert cm.cost[1, 0] == LETHAL_COST and cm.cost[1, 1] == LETHAL_COST
        assert cm.cost[0, 0] != LETHAL_COST

    def test_arrays_are_read_only(self):
        grid = grid_from_rows(["#.", ".."])
        cm = inflate(grid, 1.0, 3.0)
        with pytest.raises(ValueError):
            grid.occupied[0, 0] = True
        with pytest.raises(ValueError):
            cm.cost[0, 0] = 7


def _bordered(width=8, height=8):
    rows = ["#" * width]
    rows += ["#" + "." * (width - 2) + "#" for _ in range(height - 2)]
    rows.append("#" * width)
    return grid_from_rows(rows)


class TestRaycast:
    def test_axis_hit_point_exact(self):
        grid = _bordered()
        # +x ray from (1.25, 1.25): wall cells start at x = 3.5
        pts = raycast(grid, 1.25, 1.25, 0.0, n_rays=4, max_range=3.0)
        assert pts.points[0] == (3.5, 1.25)
        # +y ray hits the top wall entry at y = 3.5
        assert pts.points[1] == pytest.approx((1.25, 3.5), abs=1e-12)
        # -x ray hits the left wall boundary at x = 0.5
        assert pts.points[2] == pytest.approx((0.5, 1.25), abs=1e-12)

    def test_out_of_range_is_none(self):
        grid = _bordered()
        pts = raycast(grid, 2.0, 2.0, 0.0, n_rays=1, max_range=1.0)
        assert pts.points[0] is None
        assert len(pts) == 0

    def test_ray_leaving_bounds_is_none(self):
        grid = grid_from_rows(["..", ".."])
        pts = raycast(grid, 0.25, 0.25, math.pi, n_rays=1, max_range=5.0)
        assert pts.points == (None,)

    def test_origin_on_occupied_cell(self):
        grid = grid_from_rows(["..", "#."])
        pts = raycast(grid, 0.25, 0.25, 0.3, n_rays=3, max_range=2.0)
        assert pts.points == ((0.25, 0.25),) * 3

    def test_heading_rotates_ray_zero(self):
        grid = _bordered()
        pts = raycast(grid, 1.25, 1.25, math.pi / 2, n_rays=1, max_range=3.0)
        assert pts.points[0] == pytest.approx((1.25, 3.5), abs=1e-12)

    def test_corner_tie_steps_both_axes(self):
        # start chosen so both axis crossings of corner (1, 1) happen at the
        # exact same float t; the traversal then jumps diagonally and must
        # skip both off-diagonal neighbors of the corner
        ang = math.pi / 4
        dx, dy = math.cos(ang), math.sin(ang)
        x0, y0 = 0.5005999999999999, 0.5006
        assert (1.0 - x0) / dx == (1.0 - y0) / dy
        rows = ["........"] * 8
        rows[7 - 1] = "..#....."  # cell (2, 1)
        rows[7 - 2] = ".#......"  # cell (1, 2)
        grid = grid_from_rows(rows)
        assert raycast(grid, x0, y0, ang, n_rays=1, max_range=2.0).points[0] is None
        rows[7 - 2] = ".##....."  # now the diagonal cell (2, 2) as well
        grid = grid_from_rows(rows)
        hit = raycast(grid, x0, y0, ang, n_rays=1, max_range=2.0).points[0]
        assert hit == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_diagonal_staircase_skips_untouched_cell(self):
        # from a cell center at pi/4 the walk staircases; cell (2, 3) is only
        # grazed at a corner and must never count as a hit
        rows = ["........"] * 8
        rows[7 - 3] = "..#....."
        grid = grid_from_rows(rows)
        assert raycast(grid, 0.75, 0.75, math.pi / 4, n_rays=1, max_range=2.0).points[0] is None

    def test_bad_inputs(self):
        grid = _bordered()
        with pytest.raises(ValueError):
            raycast(grid, 1.0, 1.0, 0.0, n_rays=0)
        with pytest.raises(MapError):
            raycast(grid, 99.0, 1.0, 0.0)


def _bundled_grids():
    return [load_map(path.read_text()) for path in sorted((SCENARIOS / "maps").glob("*.map"))]


def _hex(points):
    return [None if p is None else (p[0].hex(), p[1].hex()) for p in points.points]


def _assert_matches_reference(grid, x, y, heading, n_rays, max_range):
    assert _hex(raycast(grid, x, y, heading, n_rays, max_range)) == _hex(
        reference_raycast(grid, x, y, heading, n_rays, max_range)
    ), (x, y, heading, n_rays, max_range)


class TestRaycastMatchesReference:
    """``raycast`` against the plain per-ray walk, bit for bit."""

    def test_random_poses_on_bundled_maps(self):
        rng = random.Random(7)
        grids = _bundled_grids()
        for k in range(2000):
            grid = grids[k % len(grids)]
            x = grid.origin_x + rng.random() * grid.width * grid.resolution
            y = grid.origin_y + rng.random() * grid.height * grid.resolution
            _assert_matches_reference(grid, x, y, rng.uniform(-math.pi, math.pi),
                                      rng.choice((1, 8, 16)), rng.choice((1.0, 3.0, 5.0)))

    @pytest.mark.parametrize("max_range", [1.0, 3.0])
    def test_poses_near_the_skip_threshold(self, max_range):
        # poses in cells within one cell of the clearance limit: the skipped
        # ones must see nothing, and the unskipped ones may see a wall
        rng = random.Random(8)
        skipped = hits_beyond_range = 0
        for grid in _bundled_grids():
            res = grid.resolution
            limit = max_range + res * math.sqrt(2.0)
            iys, ixs = np.nonzero(np.abs(grid.clearance - limit) <= res)
            assert len(ixs) > 0
            for _ in range(125):
                c = rng.randrange(len(ixs))
                x = grid.origin_x + (ixs[c] + rng.random()) * res
                y = grid.origin_y + (iys[c] + rng.random()) * res
                heading = rng.uniform(-math.pi, math.pi)
                _assert_matches_reference(grid, x, y, heading, 16, max_range)
                clearance = grid.clearance[iys[c], ixs[c]]
                skipped += clearance > limit
                hits = len(raycast(grid, x, y, heading, 16, max_range))
                hits_beyond_range += clearance > max_range and hits > 0
        assert skipped > 0 and hits_beyond_range > 0

    @pytest.mark.parametrize("max_range", [1.0, 2.0, 3.0])
    def test_rays_crossing_a_cell_near_the_exit_bound(self, max_range):
        # poses with a ray that enters, at distance t, a cell whose clearance
        # lies within one cell of max_range - t + res * sqrt(2): the cells
        # just above the bound must end in nothing, and some just below it
        # still lead to a hit
        rng = random.Random(int(max_range * 10))
        grids = _bundled_grids()
        poses = above = below_then_hit = 0
        while poses < 250:
            grid = grids[rng.randrange(len(grids))]
            res = grid.resolution
            x = grid.origin_x + rng.random() * grid.width * res
            y = grid.origin_y + rng.random() * grid.height * res
            heading = rng.uniform(-math.pi, math.pi)
            near = False
            for k in range(16):
                angle = heading + 2.0 * math.pi * k / 16
                below = 0
                for t, ix, iy in reference_ray_cells(grid, x, y, angle, max_range):
                    if grid.occupied[iy, ix]:
                        below_then_hit += below
                        break
                    gap = grid.clearance[iy, ix] - (max_range - t + res * math.sqrt(2.0))
                    if abs(gap) <= res:
                        near = True
                        above += gap > 0
                        below += gap <= 0
            if near:
                poses += 1
                _assert_matches_reference(grid, x, y, heading, 16, max_range)
        assert above > 0 and below_then_hit > 0

    def test_skip_bound_is_tight_at_a_corner(self):
        # one wall cell (4, 4); the pose sits at its cell's corner nearest the
        # wall, just over max_range from the cell centers' limit: a skip that
        # left out any part of res * sqrt(2) would lose this hit
        rows = ["......"] * 6
        rows[5 - 4] = "....#."
        grid = grid_from_rows(rows, resolution=1.0)
        max_range = 3.0 * math.sqrt(2.0) + 0.01
        assert grid.clearance[0, 0] < max_range + math.sqrt(2.0)
        assert grid.clearance[0, 0] > max_range + 1.0
        hit = raycast(grid, 0.999, 0.999, math.pi / 4, 1, max_range).points[0]
        assert hit is not None and hit == pytest.approx((4.0, 4.0), abs=1e-9)
        _assert_matches_reference(grid, 0.999, 0.999, math.pi / 4, 1, max_range)

    def test_all_free_grid(self):
        grid = grid_from_rows(["......"] * 5)
        assert np.all(grid.clearance == math.inf)
        rng = random.Random(9)
        for _ in range(50):
            x, y = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.5)
            _assert_matches_reference(grid, x, y, rng.uniform(-math.pi, math.pi), 16, 5.0)
            assert raycast(grid, x, y, 0.0, 16, 5.0).points == (None,) * 16


def test_clearance_is_the_distance_field_inflate_reads():
    grid = grid_from_rows(["#....", ".....", "....."], resolution=0.5)
    # wall at cell (0, 2); cell (4, 0) is 4 across and 2 down
    assert grid.clearance[0, 4] == pytest.approx(0.5 * math.hypot(4, 2))
    assert grid.clearance[2, 0] == 0.0
    field = grid.clearance
    costmap = inflate(grid, inflation_radius=1.0, cost_scale=3.0)
    assert grid.clearance is field  # computed once per grid, then shared
    assert costmap.cost[2, 1] > costmap.cost[2, 2] > costmap.cost[2, 3] == 0


def test_obstacle_point_set_filters_misses():
    pts = ObstaclePointSet(((1.0, 2.0), None, (3.0, 4.0)))
    assert pts.hit_points() == [(1.0, 2.0), (3.0, 4.0)]
    assert len(pts) == 2
