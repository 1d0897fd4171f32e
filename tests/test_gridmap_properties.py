"""Property tests: the block-marched raycast, the segment collision counts and
the occupancy lookup agree exactly with per-sample references over the
original lookup formula, and the clearance map with a brute-force distance."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqmcl.gridmap import OccupancyGrid


def reference_occupied_xy(grid: OccupancyGrid, x, y) -> np.ndarray:
    """Occupancy with explicit finiteness, NaN-to-zero and clip passes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        ix = np.floor(x / grid.resolution)
        iy = np.floor(y / grid.resolution)
    inside = (
        np.isfinite(x)
        & np.isfinite(y)
        & (ix >= 0)
        & (ix < grid.width)
        & (iy >= 0)
        & (iy < grid.height)
    )
    ix = np.nan_to_num(ix, nan=0.0, posinf=0.0, neginf=0.0)
    iy = np.nan_to_num(iy, nan=0.0, posinf=0.0, neginf=0.0)
    ixc = np.clip(ix, 0, grid.width - 1).astype(np.int64)
    iyc = np.clip(iy, 0, grid.height - 1).astype(np.int64)
    return np.where(inside, grid.cells[iyc, ixc], True)


def reference_raycast(grid: OccupancyGrid, x, y, theta, max_range: float, step: float) -> np.ndarray:
    """One occupancy lookup per sample distance, over all rays still marching."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m = x.shape[0]
    dist = np.full(m, float(max_range))
    if m == 0:
        return dist
    n_samples = int(math.floor(max_range / step + 1e-9))
    xa, ya = x.copy(), y.copy()
    ca, sa = np.cos(theta), np.sin(theta)
    idx = np.arange(m)
    for k in range(1, n_samples + 1):
        d = min(k * step, max_range)
        hit = reference_occupied_xy(grid, xa + d * ca, ya + d * sa)
        if hit.any():
            dist[idx[hit]] = d
            keep = ~hit
            xa, ya, ca, sa, idx = xa[keep], ya[keep], ca[keep], sa[keep], idx[keep]
            if idx.size == 0:
                break
    return dist


def reference_segment_counts(grid: OccupancyGrid, ax, ay, bx, by, step: float) -> np.ndarray:
    """One segment at a time: sample its lattice and count occupied samples.

    A segment of non-finite length gets the two samples ``t = 0, 1``."""
    counts = []
    for a_x, a_y, b_x, b_y in zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist()):
        dist = math.hypot(b_x - a_x, b_y - a_y)
        k = math.ceil(dist / step - 1e-9) if math.isfinite(dist) else 1
        t = np.array([j / max(k, 1) for j in range(k + 1)])
        with np.errstate(invalid="ignore"):
            px = a_x + t * (b_x - a_x)
            py = a_y + t * (b_y - a_y)
        counts.append(int(reference_occupied_xy(grid, px, py).sum()))
    return np.array(counts, dtype=np.intp)


def brute_clearance(grid: OccupancyGrid) -> np.ndarray:
    """Chebyshev distance from every cell to the nearest occupied or outside cell."""
    iy, ix = np.mgrid[0 : grid.height, 0 : grid.width]
    best = np.minimum.reduce([ix + 1, iy + 1, grid.width - ix, grid.height - iy])
    for oy, ox in zip(*np.nonzero(grid.cells)):
        best = np.minimum(best, np.maximum(np.abs(ix - ox), np.abs(iy - oy)))
    return best


@st.composite
def grids(draw, max_side=12):
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    resolution = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
    bits = draw(st.lists(st.booleans(), min_size=width * height, max_size=width * height))
    cells = np.array(bits, dtype=bool).reshape(height, width)
    return OccupancyGrid(width, height, resolution, cells)


@st.composite
def sparse_grids(draw, max_side=60):
    """Mostly open grids, where clearances of 3 and more let the raycast jump
    and short segments go unsampled: up to 8% occupancy plus optional thin
    walls across the whole grid."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    resolution = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
    density = draw(st.floats(0.0, 0.08))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((height, width)) < density
    for vertical, at in draw(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), max_size=3)):
        if vertical:
            cells[:, min(int(at * width), width - 1)] = True
        else:
            cells[min(int(at * height), height - 1), :] = True
    return OccupancyGrid(width, height, resolution, cells)


# (max_range, step): multiples, non-multiples and max_range < step
RANGE_STEP = st.one_of(
    st.sampled_from([(10.0, 0.5), (7.3, 0.5), (0.3, 0.5), (0.5, 0.5), (12.0, 0.1), (5.0, 1.7)]),
    st.tuples(st.floats(0.05, 25.0), st.floats(0.05, 3.0)),
)


def free_origins(grid: OccupancyGrid, rng: np.random.Generator, n: int):
    """``n`` uniform points in free cells, or None when the grid has none."""
    free_iy, free_ix = np.nonzero(~grid.cells)
    if free_ix.size == 0:
        return None
    picks = rng.integers(0, free_ix.size, n)
    x = (free_ix[picks] + rng.random(n)) * grid.resolution
    y = (free_iy[picks] + rng.random(n)) * grid.resolution
    return x, y


class TestRaycastMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=grids(),
        range_step=RANGE_STEP,
        n_rays=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_batches(self, grid, range_step, n_rays, seed):
        max_range, step = range_step
        rng = np.random.default_rng(seed)
        origins = free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = rng.uniform(-math.pi, math.pi, n_rays)
        got = grid.raycast_batch(x, y, theta, max_range, step)
        want = reference_raycast(grid, x, y, theta, max_range, step)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=4, deadline=None)
    @given(
        grid=grids(max_side=30),
        n_rays=st.integers(65_537, 140_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_spanning_several_blocks(self, grid, n_rays, seed):
        # more rays than points per block: the march starts one sample per
        # block and widens its blocks as rays hit and are dropped
        rng = np.random.default_rng(seed)
        origins = free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = rng.uniform(-math.pi, math.pi, n_rays)
        max_range = 2.0 * max(grid.world_width, grid.world_height)
        step = grid.resolution / 3.0
        got = grid.raycast_batch(x, y, theta, max_range, step)
        want = reference_raycast(grid, x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        grid=sparse_grids(),
        range_factor=st.floats(0.01, 2.5),
        step_factor=st.sampled_from([0.1, 0.3, 0.5, 0.999, 1.0, 1.001, 1.7, 2.5]),
        n_rays=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_grids(self, grid, range_factor, step_factor, n_rays, seed):
        # steps above and below the resolution; ranges past the far corner
        rng = np.random.default_rng(seed)
        origins = free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = rng.uniform(-math.pi, math.pi, n_rays)
        max_range = range_factor * math.hypot(grid.world_width, grid.world_height)
        step = step_factor * grid.resolution
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    @settings(max_examples=150, deadline=None)
    @given(
        grid=sparse_grids(),
        step_factor=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.0]),
        n_rays=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_axis_aligned_rays_on_cell_faces(self, grid, step_factor, n_rays, seed):
        # origins and, for steps that are multiples of the resolution, samples
        # lie exactly on cell faces, where the floor is decided by rounding
        rng = np.random.default_rng(seed)
        x = rng.integers(0, grid.width + 1, n_rays) * grid.resolution
        y = rng.integers(0, grid.height + 1, n_rays) * grid.resolution
        theta = rng.choice([0.0, math.pi / 2, math.pi, -math.pi / 2], n_rays)
        max_range = 1.2 * max(grid.world_width, grid.world_height)
        step = step_factor * grid.resolution
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    @settings(max_examples=3, deadline=None)
    @given(
        grid=sparse_grids(),
        n_rays=st.integers(65_537, 80_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_batches_spanning_several_blocks(self, grid, n_rays, seed):
        # one sample per block at first, then per-ray offsets after jumps
        rng = np.random.default_rng(seed)
        origins = free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = rng.uniform(-math.pi, math.pi, n_rays)
        max_range = 1.5 * max(grid.world_width, grid.world_height)
        step = grid.resolution / 3.0
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    def test_axis_aligned_rays_hit_cell_faces(self):
        # the march samples exactly on cell boundaries here
        cells = np.zeros((5, 20), dtype=bool)
        cells[:, 13] = True
        grid = OccupancyGrid(20, 5, 1.0, cells)
        x = np.array([0.5, 2.0, 12.999, 19.5])
        y = np.full(4, 2.5)
        theta = np.array([0.0, 0.0, 0.0, math.pi])
        got = grid.raycast_batch(x, y, theta, 30.0, 0.5)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, 30.0, 0.5))


class TestSegmentCountsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        grid=sparse_grids(),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        n_segments=st.integers(0, 30),
        reach=st.floats(0.0, 12.0),
        special_share=st.sampled_from([0.0, 0.0, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_grids(self, grid, step, n_segments, reach, special_share, seed):
        # short segments that the clearance proves free, longer ones that it
        # does not, starts off the grid, and NaN or infinite endpoints
        rng = np.random.default_rng(seed)
        ax = rng.uniform(-2.0, grid.world_width + 2.0, n_segments)
        ay = rng.uniform(-2.0, grid.world_height + 2.0, n_segments)
        bx = ax + rng.uniform(-reach, reach, n_segments)
        by = ay + rng.uniform(-reach, reach, n_segments)
        ends = np.stack([ax, ay, bx, by])
        special = rng.random(ends.shape) < special_share
        ends[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        got = grid.segment_collision_counts(*ends, step)
        want = reference_segment_counts(grid, *ends, step)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_non_finite_endpoint_counts_two(self):
        grid = OccupancyGrid(20, 20, 1.0, np.zeros((20, 20), dtype=bool))
        ax = np.array([10.0, 10.0, np.nan, 10.0, np.inf, 10.0])
        ay = np.full(6, 10.0)
        bx = np.array([np.nan, np.inf, 10.0, -np.inf, np.inf, 10.5])
        by = np.full(6, 10.0)
        counts = grid.segment_collision_counts(ax, ay, bx, by, 0.5)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2, 0])


class TestClearance:
    @settings(max_examples=200, deadline=None)
    @given(grid=st.one_of(grids(max_side=20), sparse_grids(max_side=25)))
    def test_matches_brute_force(self, grid):
        np.testing.assert_array_equal(grid.clearance, brute_clearance(grid))
        assert grid.max_clearance == grid.clearance.max()

    def test_saturates_at_255(self):
        grid = OccupancyGrid(600, 530, 1.0, np.zeros((530, 600), dtype=bool))
        np.testing.assert_array_equal(grid.clearance, np.minimum(brute_clearance(grid), 255))
        x = np.array([300.2, 300.2, 10.5])
        y = np.array([265.7, 265.7, 265.7])
        theta = np.array([0.0, 2.0, math.pi])
        got = grid.raycast_batch(x, y, theta, 700.0, 0.5)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, 700.0, 0.5))


class TestOccupiedMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=grids(),
        points=st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True, width=64),
                st.floats(allow_nan=True, allow_infinity=True, width=64),
            ),
            max_size=30,
        ),
    )
    def test_arbitrary_floats(self, grid, points):
        x = np.array([p[0] for p in points], dtype=float)
        y = np.array([p[1] for p in points], dtype=float)
        np.testing.assert_array_equal(grid.occupied_xy(x, y), reference_occupied_xy(grid, x, y))

    def test_special_values_and_edges(self):
        cells = np.zeros((4, 6), dtype=bool)
        cells[0, 0] = True
        cells[3, 5] = True
        grid = OccupancyGrid(6, 4, 0.5, cells)
        specials = [
            np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300, 1e-300,
            grid.world_width, grid.world_height,
            np.nextafter(grid.world_width, 0.0), np.nextafter(grid.world_height, 0.0),
            1.2, 2.9999,
        ]
        xs, ys = np.meshgrid(np.array(specials), np.array(specials))
        got = grid.occupied_xy(xs, ys)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, reference_occupied_xy(grid, xs, ys))
        # -0.0 lies in the first column; the right and top edges lie outside
        assert not grid.occupied_xy(-0.0, 1.2)
        assert grid.occupied_xy(grid.world_width, 1.2)
        assert grid.occupied_xy(1.2, grid.world_height)
        assert not grid.occupied_xy(np.nextafter(grid.world_width, 0.0), 1.2)

    def test_huge_coordinates_raise_no_warning(self):
        # x / resolution overflows to inf for |x| near the float maximum
        grid = OccupancyGrid(6, 4, 0.25, np.zeros((4, 6), dtype=bool))
        x = np.array([1e308, -1e308, 0.5, 0.5])
        y = np.array([0.5, 0.5, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid.occupied_xy(x, y)
            want = reference_occupied_xy(grid, x, y)
        assert got.all() and want.all()

    @pytest.mark.parametrize("x, y", [(0.2, 0.2), (1.2, 0.7), (np.nan, 0.7), (-0.0, -0.0), (3.0, 0.2)])
    def test_scalar_input_gives_0d_result(self, x, y):
        cells = np.zeros((4, 6), dtype=bool)
        cells[0, 0] = True
        grid = OccupancyGrid(6, 4, 0.5, cells)
        got = grid.occupied_xy(x, y)
        want = reference_occupied_xy(grid, x, y)
        assert got.shape == () == want.shape
        assert got.dtype == want.dtype == np.bool_
        assert bool(got) == bool(want)

    def test_broadcasts_like_reference(self):
        grid = OccupancyGrid(6, 4, 0.5, np.eye(4, 6, dtype=bool))
        x = np.linspace(-0.5, 3.5, 9)
        y = np.array([[0.1], [0.6], [1.9]])
        np.testing.assert_array_equal(grid.occupied_xy(x, y), reference_occupied_xy(grid, x, y))
