import math
import warnings

import numpy as np
import pytest

from deqmcl.gridmap import MapFormatError, OccupancyGrid, Point2, load_grid
from deqmcl.harness import packaged_config_dir

from conftest import make_room


def raycast(grid: OccupancyGrid, origin: Point2, heading: float, max_range: float, step: float = 0.5) -> float:
    """Distance along ``heading`` to the first occupied sample: one ray through `raycast_batch`."""
    d = grid.raycast_batch(np.array([origin.x]), np.array([origin.y]), np.array([heading]), max_range, step)
    return float(d[0])


def is_occupied(grid: OccupancyGrid, p: Point2) -> bool:
    """Whether ``p`` is occupied: one point through `occupied_xy`."""
    return bool(grid.occupied_xy(np.array([p.x]), np.array([p.y]))[0])


def segment_count(grid: OccupancyGrid, a: Point2, b: Point2, step: float = 1.0) -> int:
    """Occupied samples of the segment from ``a`` to ``b``: one segment through `segment_collision_counts`."""
    ends = [np.array([v]) for v in (a.x, a.y, b.x, b.y)]
    return int(grid.segment_collision_counts(*ends, step)[0])


class TestLoadGrid:
    def test_three_by_two_example(self):
        grid = load_grid("3 2 1.0\n###\n#.#\n")
        assert (grid.width, grid.height, grid.resolution) == (3, 2, 1.0)
        # file row 0 is the top of the world, so the free cell sits at (1, 0)
        for ix in range(3):
            for iy in range(2):
                expected_free = (ix, iy) == (1, 0)
                assert is_occupied(grid, Point2(ix + 0.5, iy + 0.5)) != expected_free

    def test_shipped_benchmark_map_loads(self):
        text = (packaged_config_dir() / "paper_map.txt").read_text()
        grid = load_grid(text)
        assert (grid.width, grid.height) == (350, 300)
        assert grid.resolution == 1.0
        # outer walls solid, interior reachable
        assert is_occupied(grid, Point2(0.5, 150.0))
        assert not is_occupied(grid, Point2(175.0, 75.0))

    def test_zero_width_header_rejected(self):
        with pytest.raises(MapFormatError, match="line 1"):
            load_grid("0 2 1.0\n\n\n")

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("3 2\n###\n#.#\n", 1),              # missing resolution
            ("3 2 1.0 x\n###\n#.#\n", 1),        # extra header field
            ("a 2 1.0\n###\n#.#\n", 1),          # non-decimal width
            ("3 -2 1.0\n###\n#.#\n", 1),         # negative height
            ("3 2 0\n###\n#.#\n", 1),            # zero resolution
            ("3 2 1.0\n##\n#.#\n", 2),           # short row
            ("3 2 1.0\n###\n#x#\n", 3),          # invalid character
            ("3 2 1.0\n###\n#.#\n#\n", 4),       # trailing content
        ],
    )
    def test_malformed_text_names_line(self, text, lineno):
        with pytest.raises(MapFormatError, match=f"line {lineno}"):
            load_grid(text)

    def test_missing_rows(self):
        with pytest.raises(MapFormatError):
            load_grid("3 2 1.0\n###\n")

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            OccupancyGrid(0, 2, 1.0, np.zeros((2, 0), dtype=bool))
        with pytest.raises(ValueError):
            OccupancyGrid(2, 2, -1.0, np.zeros((2, 2), dtype=bool))


class TestOccupancy:
    def test_point_in_wall(self):
        grid = load_grid("3 2 1.0\n###\n#.#\n")
        assert is_occupied(grid, Point2(0.5, 0.5))

    def test_out_of_bounds_is_solid(self):
        grid = load_grid("3 2 1.0\n###\n#.#\n")
        assert is_occupied(grid, Point2(-1.0, -1.0))
        assert is_occupied(grid, Point2(100.0, 0.5))
        assert is_occupied(grid, Point2(0.5, 2.0))  # upper edge excluded

    def test_free_cell(self):
        grid = load_grid("3 2 1.0\n###\n#.#\n")
        assert not is_occupied(grid, Point2(1.5, 0.5))

    def test_non_finite_points_occupied(self):
        grid = make_room()
        assert grid.occupied_xy(np.array([np.nan]), np.array([5.0]))[0]
        assert grid.occupied_xy(np.array([np.inf]), np.array([5.0]))[0]

    def test_resolution_scaling(self):
        grid = load_grid("3 2 2.0\n###\n#.#\n")
        assert not is_occupied(grid, Point2(3.0, 1.0))   # cell (1, 0) spans [2,4)x[0,2)
        assert is_occupied(grid, Point2(1.0, 1.0))


class TestSegmentCollisionCount:
    def test_coincident_free_endpoints(self, room):
        p = Point2(30.0, 30.0)
        assert segment_count(room, p, p, 1.0) == 0

    def test_coincident_occupied_endpoints(self, room):
        p = Point2(0.5, 0.5)
        assert segment_count(room, p, p, 1.0) == 1

    def test_length_ten_inside_obstacle(self):
        # 11 lattice points (both endpoints plus nine interior) all occupied
        cells = np.ones((4, 20), dtype=bool)
        grid = OccupancyGrid(20, 4, 1.0, cells)
        count = segment_count(grid, Point2(4.0, 2.0), Point2(14.0, 2.0), 1.0)
        assert count == 11

    def test_open_space_segment(self, room):
        assert segment_count(room, Point2(10.0, 10.0), Point2(40.0, 40.0), 1.0) == 0

    def test_symmetric_sampling(self, room):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = Point2(*rng.uniform(0, 60, 2))
            b = Point2(*rng.uniform(0, 60, 2))
            step = float(rng.uniform(0.3, 3.0))
            assert segment_count(room, a, b, step) == segment_count(room, b, a, step)

    def test_agrees_with_is_occupied_on_points(self, room):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = Point2(*rng.uniform(-5, 65, 2))
            assert is_occupied(room, p) == (segment_count(room, p, p, 1.0) > 0)

    def test_batch_matches_scalar(self, room):
        rng = np.random.default_rng(6)
        ax, ay = rng.uniform(0, 60, 50), rng.uniform(0, 60, 50)
        bx, by = rng.uniform(0, 60, 50), rng.uniform(0, 60, 50)
        counts = room.segment_collision_counts(ax, ay, bx, by, 0.7)
        for i in range(50):
            expected = segment_count(room, Point2(ax[i], ay[i]), Point2(bx[i], by[i]), 0.7)
            assert counts[i] == expected

    def test_mixed_lengths_look_up_each_lattice_once(self, room, monkeypatch):
        # every segment starts off the grid, so none is proven free; one of
        # k intervals is looked up at exactly its k + 1 samples, however long
        # the batch's longest
        k = np.array([0, 1, 7, 2, 30, 3])
        ax, ay = np.full(k.size, -0.25), np.arange(k.size) + 2.5
        points = []
        lookup = OccupancyGrid.occupied_xy

        def counted(grid, x, y):
            points.append(np.size(x))
            return lookup(grid, x, y)

        monkeypatch.setattr(OccupancyGrid, "occupied_xy", counted)
        counts = room.segment_collision_counts(ax, ay, ax + 0.5 * k, ay, 0.5)
        assert sum(points) == (k + 1).sum()
        # the samples at x = -0.25, 0.25 and 0.75 lie off the grid or in its wall
        np.testing.assert_array_equal(counts, np.minimum(k + 1, 3))

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        grid = load_grid((packaged_config_dir() / "paper_map.txt").read_text())
        a, b = Point2(5.5, 150.0), Point2(0.5, 150.0)  # through the 3-cell left wall
        assert segment_count(grid, a, b, 1.0) == 3
        with pytest.raises(ValueError, match="step must be positive and finite"):
            segment_count(grid, a, b, step)

    def test_spacing_respected(self, room):
        # spacing must be <= step: a 1.5-unit segment at step 1 needs 2 intervals
        cells = np.zeros((4, 8), dtype=bool)
        cells[2, 3] = True  # obstacle cell [3,4) x [2,3)
        grid = OccupancyGrid(8, 4, 1.0, cells)
        # midpoint (3.25, 2.5) falls inside the obstacle; endpoints are free
        assert segment_count(grid, Point2(2.5, 2.5), Point2(4.0, 2.5), 1.0) == 1


class TestWholeBatchRectangle:
    """A batch of two or more segments first tests the one cell rectangle
    that spans all of its endpoints; when that is free, every count is 0."""

    @staticmethod
    def spy(monkeypatch):
        """The shape of the corners of each `_rectangle_free` call, and of each `occupied_xy` lookup."""
        calls = {"rectangles": [], "lookups": []}
        rectangle_free, occupied_xy = OccupancyGrid._rectangle_free, OccupancyGrid.occupied_xy

        def rectangles(grid, a, b):
            calls["rectangles"].append(a.shape)
            return rectangle_free(grid, a, b)

        def lookups(grid, x, y):
            calls["lookups"].append(np.shape(x))
            return occupied_xy(grid, x, y)

        monkeypatch.setattr(OccupancyGrid, "_rectangle_free", rectangles)
        monkeypatch.setattr(OccupancyGrid, "occupied_xy", lookups)
        return calls

    @staticmethod
    def free_batch(m=6):
        # inside the room's free interior [1, 59) x [1, 59)
        rng = np.random.default_rng(9)
        return rng.uniform(1.0, 58.99, (4, m))

    @staticmethod
    def one_at_a_time(grid, ends, step):
        return np.concatenate([grid.segment_collision_counts(*ends[:, i : i + 1], step) for i in range(ends.shape[1])])

    def test_free_batch_is_settled_by_one_rectangle(self, room, monkeypatch):
        calls = self.spy(monkeypatch)
        counts = room.segment_collision_counts(*self.free_batch(), 0.5)
        assert counts.dtype == np.intp and counts.tolist() == [0] * 6
        assert calls == {"rectangles": [(2,)], "lookups": []}

    def test_empty_batch(self, room, monkeypatch):
        calls = self.spy(monkeypatch)
        empty = np.empty(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = room.segment_collision_counts(empty, empty, empty, empty, 1.0)
        assert counts.shape == (0,) and counts.dtype == np.intp
        assert calls["rectangles"] == [(2, 0)]  # the per-segment test alone

    @pytest.mark.parametrize("end, want", [((30.0, 30.0), 0), ((30.0, -0.5), 2)])
    def test_one_segment_skips_the_batch_rectangle(self, room, monkeypatch, end, want):
        calls = self.spy(monkeypatch)
        counts = room.segment_collision_counts(np.array([30.0]), np.array([2.0]), np.array([end[0]]),
                                               np.array([end[1]]), 1.0)
        assert counts.tolist() == [want]
        assert calls["rectangles"] == [(2, 1)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", range(4))
    def test_non_finite_endpoint_in_a_free_batch(self, room, monkeypatch, bad, row):
        ends = self.free_batch()
        ends[row, 3] = bad
        calls = self.spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = room.segment_collision_counts(*ends, 0.5)
        assert counts.tolist() == [0, 0, 0, 2, 0, 0]
        assert calls["rectangles"] == [(2,), (2, 6)]  # the batch's is not free

    def test_one_segment_into_a_wall_among_free_ones(self, room, monkeypatch):
        ends = self.free_batch()
        ends[2:, 4] = (59.5, 20.0)  # the room's right wall, x in [59, 60)
        singly = self.one_at_a_time(room, ends, 0.5)
        calls = self.spy(monkeypatch)
        counts = room.segment_collision_counts(*ends, 0.5)
        assert counts[4] > 0 and (np.delete(counts, 4) == 0).all()
        np.testing.assert_array_equal(counts, singly)
        assert calls["rectangles"][:2] == [(2,), (2, 6)]
        assert len(calls["lookups"]) == 1  # one segment sampled


class TestRaycast:
    def test_distance_to_flat_wall(self):
        grid = make_room(40, 20, wall=2)
        # wall cells start at x = 38; origin 5 units away along +x hits at 5.0
        d = raycast(grid, Point2(33.0, 10.0), 0.0, max_range=50.0, step=0.1)
        assert d == pytest.approx(5.0, abs=0.1)

    def test_no_hit_returns_max_range(self):
        grid = make_room(200, 40, wall=1)
        d = raycast(grid, Point2(5.0, 20.0), 0.0, max_range=50.0, step=0.5)
        assert d == 50.0

    def test_wall_behind_beyond_max_range(self):
        grid = make_room(200, 40, wall=1)
        d = raycast(grid, Point2(100.0, 20.0), math.pi, max_range=50.0, step=0.5)
        assert d == 50.0

    def test_monotone_in_max_range(self, room):
        rng = np.random.default_rng(7)
        for _ in range(50):
            origin = Point2(*rng.uniform(2, 58, 2))
            if is_occupied(room, origin):
                continue
            heading = rng.uniform(-math.pi, math.pi)
            short = raycast(room, origin, heading, max_range=20.0, step=0.5)
            long = raycast(room, origin, heading, max_range=80.0, step=0.5)
            if short < 20.0:
                assert long == short  # a hit never changes
            else:
                assert long >= short  # no-hit result never decreases

    def test_result_within_bounds(self, room):
        rng = np.random.default_rng(8)
        xs = rng.uniform(5, 55, 200)
        ys = rng.uniform(5, 55, 200)
        ths = rng.uniform(-math.pi, math.pi, 200)
        d = room.raycast_batch(xs, ys, ths, 30.0, 0.5)
        assert np.all(d >= 0) and np.all(d <= 30.0)

    def test_batch_matches_scalar(self, room):
        rng = np.random.default_rng(9)
        xs = rng.uniform(5, 55, 30)
        ys = rng.uniform(5, 55, 30)
        ths = rng.uniform(-math.pi, math.pi, 30)
        batch = room.raycast_batch(xs, ys, ths, 40.0, 0.5)
        for i in range(30):
            assert batch[i] == raycast(room, Point2(xs[i], ys[i]), ths[i], 40.0, 0.5)
