"""Property tests: the block-marched raycast, the segment collision counts and
the occupancy lookup agree exactly with per-sample references over the
original lookup formula, and the free-rectangle test and the raycast's
free-prefix search with brute force."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqmcl.gridmap import _MARCH_POINTS, OccupancyGrid, load_grid
from deqmcl.harness import packaged_config_dir


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


def reference_rectangle_free(grid: OccupancyGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`OccupancyGrid._rectangle_free` by four 2-D gathers from the summed-area table."""
    # along each axis entry c + 2 counts the cells through c, c + 1 those before it
    lo = np.fmin(grid._clamp_cells(a), grid._clamp_cells(b)).astype(np.intp) + 1
    hi = np.fmax(a, b).astype(np.intp) + 2
    s = grid._occupied_sums
    return s[hi[1], hi[0]] - s[lo[1], hi[0]] - s[hi[1], lo[0]] + s[lo[1], lo[0]] == 0


def reference_sample_cells(grid: OccupancyGrid, rays, k, max_range: float, step: float) -> np.ndarray:
    """Cell of sample ``k`` of each ray, by the arithmetic of a block."""
    cell = rays[2:4] * np.minimum(k * step, max_range)
    cell += rays[0:2]
    cell /= grid.resolution
    return np.floor(cell, out=cell)


def reference_free_prefix(grid: OccupancyGrid, rays, n_samples: int, max_range: float, step: float) -> np.ndarray:
    """`OccupancyGrid._free_prefix` with every probe a whole `reference_rectangle_free`
    test between the origin's cell and the sample's, the origin clamped anew each time."""
    origin = reference_sample_cells(grid, rays, np.zeros(rays.shape[1], dtype=np.intp), max_range, step)
    lo = np.zeros(rays.shape[1], dtype=np.intp)  # proven free, or 0
    hi = np.full(rays.shape[1], n_samples + 1, dtype=np.intp)  # not proven free
    for _ in range(n_samples.bit_length()):
        mid = (lo + hi) // 2
        free = reference_rectangle_free(grid, origin, reference_sample_cells(grid, rays, mid, max_range, step))
        lo = np.where(free, mid, lo)
        hi = np.where(free, hi, mid)
    return lo


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
    """Mostly open grids, whose wide free rectangles let the raycast skip far
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


@st.composite
def narrow_grids(draw, max_side=24):
    """Corridors and mazes in which no cell has a clearance above 2, so every
    free box is at most 3 cells wide: walls every 2-5 rows or columns with
    random doors, or random blocks, both over a lattice of posts every 4 cells."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    resolution = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # corridors
        period = draw(st.integers(2, 5))
        cells = np.zeros((height, width), dtype=bool)
        cells[draw(st.integers(0, period - 1)) :: period, :] = True
        cells &= rng.random(cells.shape) >= draw(st.floats(0.0, 0.3))  # doors
        if draw(st.booleans()) and width == height:
            cells = cells.T.copy()
    else:  # maze
        cells = rng.random((height, width)) < draw(st.floats(0.1, 0.5))
    cells[draw(st.integers(0, 3)) :: 4, draw(st.integers(0, 3)) :: 4] = True
    return OccupancyGrid(width, height, resolution, cells)


def face_points(grid: OccupancyGrid, rng: np.random.Generator, n: int):
    """``n`` points on cell faces, corners and in cell interiors, off the grid
    by up to one cell: each coordinate is a whole or half number of cells."""
    x = rng.integers(-2, 2 * grid.width + 3, n) / 2.0 * grid.resolution
    y = rng.integers(-2, 2 * grid.height + 3, n) / 2.0 * grid.resolution
    return x, y


# exact axis headings, with -0.0 and -pi
HEADINGS = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]


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


def free_rectangle(grid: OccupancyGrid, rng: np.random.Generator):
    """The cells (ix0, ix1, iy0, iy1), both ends included, of a free rectangle
    grown from a random free cell, first along x and then along y; None when
    the grid has no free cell."""
    free_iy, free_ix = np.nonzero(~grid.cells)
    if free_ix.size == 0:
        return None
    pick = rng.integers(free_ix.size)
    ix0 = ix1 = free_ix[pick]
    iy0 = iy1 = free_iy[pick]
    while ix1 + 1 < grid.width and not grid.cells[iy0, ix1 + 1]:
        ix1 += 1
    while iy1 + 1 < grid.height and not grid.cells[iy1 + 1, ix0 : ix1 + 1].any():
        iy1 += 1
    return ix0, ix1, iy0, iy1


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
        # one sample per block at first, each ray from its own free prefix
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

    def test_long_rays_on_an_open_grid(self):
        # rays up to 1,400 samples long across a grid with no obstacle
        grid = OccupancyGrid(600, 530, 1.0, np.zeros((530, 600), dtype=bool))
        x = np.array([300.2, 300.2, 10.5])
        y = np.array([265.7, 265.7, 265.7])
        theta = np.array([0.0, 2.0, math.pi])
        got = grid.raycast_batch(x, y, theta, 700.0, 0.5)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, 700.0, 0.5))

    @pytest.mark.parametrize("resolution", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("step_factor", [0.01, 0.02, 0.05, 0.1])
    def test_axis_rays_from_half_cells_at_fine_steps(self, resolution, step_factor):
        # samples fall exactly on the wall faces, where the floor is decided
        # by rounding
        cells = np.zeros((12, 20), dtype=bool)
        cells[:, [4, 14]] = True
        cells[7, :] = True
        grid = OccupancyGrid(20, 12, resolution, cells)
        ix, iy = np.meshgrid(np.arange(9, 29), np.arange(2, 15))
        x = np.tile(ix.ravel() * 0.5 * resolution, 4)
        y = np.tile(iy.ravel() * 0.5 * resolution, 4)
        theta = np.repeat([0.0, math.pi, math.pi / 2, -math.pi / 2], ix.size)
        step = step_factor * resolution
        got = grid.raycast_batch(x, y, theta, 12.0 * resolution, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, 12.0 * resolution, step))


def ray_rows(x, y, theta) -> np.ndarray:
    """The origin and direction rows of the rays `OccupancyGrid.raycast_batch` marches."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.cos(theta), np.sin(theta)])


def brute_free_samples(grid: OccupancyGrid, rays: np.ndarray, n_samples: int, max_range: float, step: float):
    """Per ray, the samples ``j`` in [0, n_samples] whose cell and the origin's
    (sample 0) span a rectangle of free cells on the grid, one slice each."""
    cells = []
    for k in range(n_samples + 1):
        with np.errstate(invalid="ignore", over="ignore"):
            c = rays[2:4] * min(k * step, max_range)
            c += rays[0:2]
            c /= grid.resolution
            cells.append(np.floor(c))
    free = []
    for i in range(rays.shape[1]):
        row = []
        for c in cells:
            (x0, y0), (x1, y1) = cells[0][:, i], c[:, i]
            if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
                row.append(False)
                continue
            lx, hx = sorted((int(x0), int(x1)))
            ly, hy = sorted((int(y0), int(y1)))
            inside = lx >= 0 and ly >= 0 and hx < grid.width and hy < grid.height
            row.append(inside and not grid.cells[ly : hy + 1, lx : hx + 1].any())
        free.append(row)
    return np.array(free, dtype=bool).reshape(rays.shape[1], n_samples + 1)


def mixed_headings(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact axis headings, headings a few degrees off an axis, NaN and uniform ones."""
    near = rng.choice(HEADINGS, n) + np.radians(rng.choice([-5.0, -2.0, -0.5, 0.5, 2.0, 5.0], n))
    kind = rng.integers(0, 4, n)
    uniform = rng.uniform(-math.pi, math.pi, n)
    theta = np.choose(kind, [rng.choice(HEADINGS, n), near, uniform, uniform])
    theta[rng.random(n) < 0.03] = np.nan
    return theta


def corridor_grid() -> OccupancyGrid:
    """Four east-west corridors one cell wide, joined by a few doors, at 0.5 units per cell."""
    cells = np.ones((9, 40), dtype=bool)
    cells[1::2, 1:-1] = False
    cells[2:-2:2, [7, 20, 33]] = False
    return OccupancyGrid(40, 9, 0.5, cells)


def maze_grid() -> OccupancyGrid:
    """A fixed random maze, a third of it blocked, with posts every four cells."""
    cells = np.random.default_rng(11).random((25, 30)) < 0.33
    cells[::4, ::4] = True
    return OccupancyGrid(30, 25, 1.0, cells)


def posts_grid() -> OccupancyGrid:
    """A 9 x 7 room at 0.5 units per cell with three single-cell posts and one short wall."""
    cells = np.zeros((7, 9), dtype=bool)
    cells[[1, 3, 5], [2, 6, 4]] = True
    cells[5, 0:2] = True
    return OccupancyGrid(9, 7, 0.5, cells)


class TestFreePrefix:
    """The search each marched ray makes before its first block."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid=st.one_of(narrow_grids(), sparse_grids(max_side=30)),
        step_factor=st.sampled_from([0.1, 0.3, 0.5, 1.0, 1.7]),
        range_factor=st.floats(0.05, 1.2),
        n_rays=st.integers(1, 20),
        on_faces=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linear_scan(self, grid, step_factor, range_factor, n_rays, on_faces, seed):
        # the free samples form a prefix, and the search returns its last one
        # (0 when even the origin's cell is not free)
        rng = np.random.default_rng(seed)
        origins = face_points(grid, rng, n_rays) if on_faces else free_origins(grid, rng, n_rays)
        if origins is None:
            return
        rays = ray_rows(*origins, mixed_headings(rng, n_rays))
        step = step_factor * grid.resolution
        max_range = max(range_factor * math.hypot(grid.world_width, grid.world_height), step)
        n_samples = int(math.floor(max_range / step + 1e-9))
        free = brute_free_samples(grid, rays, n_samples, max_range, step)
        prefix = np.cumprod(free, axis=1).astype(bool)
        np.testing.assert_array_equal(free, prefix)
        want = np.maximum(free.sum(axis=1) - 1, 0)
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))

    @pytest.mark.parametrize("make_grid, step_factor", [
        (posts_grid, 0.5), (posts_grid, 1.0), (corridor_grid, 0.5), (maze_grid, 0.5), (maze_grid, 1.5),
    ])
    def test_axis_headings_from_cell_faces_and_corners(self, make_grid, step_factor):
        # every half-cell point from one cell off the grid to one past it (the
        # cell faces, corners and centres) with headings 0.0, -0.0, +-pi/2,
        # +-pi and NaN: a direction component of 0.0, -0.0, 6e-17 or -1.2e-16
        # (sin(-pi)) picks which corner is the origin's, and samples at whole
        # multiples of half a cell land on faces
        grid = make_grid()
        ix, iy = np.meshgrid(np.arange(-2, 2 * grid.width + 3), np.arange(-2, 2 * grid.height + 3))
        headings = HEADINGS + [np.nan]
        x = np.repeat(ix.ravel() / 2.0 * grid.resolution, len(headings))
        y = np.repeat(iy.ravel() / 2.0 * grid.resolution, len(headings))
        rays = ray_rows(x, y, np.tile(headings, ix.size))
        assert (rays[3] < 0).any() and (rays[3] == 0).any() and np.signbit(rays[3][rays[3] == 0]).any()
        step = step_factor * grid.resolution
        max_range = 6.0 * grid.resolution
        n_samples = int(math.floor(max_range / step + 1e-9))
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))
        free = brute_free_samples(grid, rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, np.maximum(free.sum(axis=1) - 1, 0))
        assert got.max() == n_samples and (got[np.isnan(rays[2])] == 0).all()

    @pytest.mark.parametrize("max_range, step", [(7.3, 0.5), (7.0, 0.5), (3.05, 0.1), (0.5, 0.5)])
    def test_rays_that_never_hit_skip_every_sample(self, max_range, step):
        # an open room: every ray's whole path is proven free, also when
        # max_range is not a multiple of step and is never sampled itself
        grid = OccupancyGrid(40, 40, 1.0, np.pad(np.zeros((38, 38), dtype=bool), 1, constant_values=True))
        rng = np.random.default_rng(3)
        n = _MARCH_POINTS // int(max_range / step + 1e-9) + 1
        x, y = rng.uniform(12.0, 28.0, (2, n))
        theta = rng.uniform(-math.pi, math.pi, n)
        n_samples = int(math.floor(max_range / step + 1e-9))
        got = grid._free_prefix(ray_rows(x, y, theta), n_samples, max_range, step)
        np.testing.assert_array_equal(got, np.full(n, n_samples))
        dist = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(dist, np.full(n, max_range))
        np.testing.assert_array_equal(dist, reference_raycast(grid, x, y, theta, max_range, step))

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 255, 256, 257, 300])
    @pytest.mark.parametrize("between", [False, True])
    def test_probes_past_the_last_sample(self, n_samples, between):
        # binary lifting probes samples up to 2**n_samples.bit_length() - 1,
        # past the last one, where samples sit at max_range; with ``between``
        # max_range lies half a step past sample n_samples instead of on it
        cells = np.random.default_rng(n_samples).random((80, 80)) < 0.01
        grid = OccupancyGrid(80, 80, 1.0, np.pad(cells[1:-1, 1:-1], 1, constant_values=True))
        max_range = 20.0
        step = max_range / (n_samples + 0.5 * between)
        assert int(math.floor(max_range / step + 1e-9)) == n_samples
        rng = np.random.default_rng(n_samples + between)
        x, y = free_origins(grid, rng, 2000)
        rays = ray_rows(x, y, mixed_headings(rng, 2000))
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))
        assert (got == n_samples).any() and (got < n_samples).any()

    @pytest.mark.parametrize("max_range, step", [(40.0, 0.1), (40.0, 40.0 / 255.5), (1000.0, 0.5)])
    def test_probes_stop_at_the_grid_diagonal(self, monkeypatch, max_range, step):
        # no free rectangle reaches further than the grid's diagonal (a cell
        # more covers rounding), so the search makes fewer probes than
        # n_samples.bit_length(); rays along the open grid's diagonals from
        # its corners come closest to that bound
        grid = OccupancyGrid(12, 9, 1.0, np.zeros((9, 12), dtype=bool))
        rng = np.random.default_rng(12)
        x, y = free_origins(grid, rng, 100)
        theta = mixed_headings(rng, 100)
        corners = np.array([[1e-9, 1e-9], [12.0 - 1e-9, 9.0 - 1e-9], [1e-9, 9.0 - 1e-9], [12.0 - 1e-9, 1e-9]])
        x, y = np.concatenate([x, corners[:, 0]]), np.concatenate([y, corners[:, 1]])
        diagonal = math.atan2(9.0, 12.0)
        theta = np.concatenate([theta, [diagonal, diagonal - math.pi, -diagonal, math.pi - diagonal]])
        rays = ray_rows(x, y, theta)
        n_samples = int(math.floor(max_range / step + 1e-9))
        probes = []
        sample_corners = OccupancyGrid._sample_corners
        monkeypatch.setattr(OccupancyGrid, "_sample_corners", lambda self, *a: probes.append(1) or sample_corners(self, *a))
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))
        reach = int((15.0 + 1.0) / step) + 1
        assert len(probes) == 1 + reach.bit_length() < 1 + n_samples.bit_length()
        assert got[-4:].min() >= int(14.0 / step)  # the corner rays cross most of the grid

    @pytest.mark.parametrize("blocked", [False, True])
    def test_whole_range_probe_comes_first(self, monkeypatch, blocked):
        # on this grid reach == n_samples: after the origin's corners, one
        # probe at the last sample; rays that pass it are done, and only the
        # others are lifted, in reach.bit_length() probes
        cells = np.pad(np.zeros((38, 38), dtype=bool), 1, constant_values=True)
        if blocked:
            cells[10:30, 20] = True
        grid = OccupancyGrid(40, 40, 1.0, cells)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(12.0, 28.0, (2, 400))
        rays = ray_rows(x, y, mixed_headings(rng, 400))
        max_range, step = 5.0, 0.5
        n_samples = int(math.floor(max_range / step + 1e-9))
        reach = min(n_samples, int((math.hypot(40.0, 40.0) + 1.0) / step) + 1)
        assert reach == n_samples
        probes = []
        sample_corners = OccupancyGrid._sample_corners
        monkeypatch.setattr(OccupancyGrid, "_sample_corners", lambda self, *a: probes.append(1) or sample_corners(self, *a))
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))
        nan = np.isnan(rays[2])
        assert (got[nan] == 0).all() and (got[~nan] == n_samples).any()
        if blocked:
            assert (got[~nan] < n_samples).any()
            assert len(probes) == 2 + reach.bit_length()
        else:
            probes.clear()
            assert (grid._free_prefix(rays[:, ~nan], n_samples, max_range, step) == n_samples).all()
            assert len(probes) == 2

    def test_march_batch_mixes_rays_free_to_the_end_with_blocked_ones(self):
        # a batch over `_MARCH_POINTS` points where reach == n_samples: the
        # probe proves some rays free to the end, the rest are lifted and march
        cells = np.random.default_rng(8).random((60, 60)) < 0.02
        grid = OccupancyGrid(60, 60, 1.0, np.pad(cells[1:-1, 1:-1], 1, constant_values=True))
        max_range, step = 8.0, 0.25
        n_samples = int(math.floor(max_range / step + 1e-9))
        n = _MARCH_POINTS // n_samples + 100
        rng = np.random.default_rng(n)
        x, y = free_origins(grid, rng, n)
        theta = mixed_headings(rng, n)
        rays = ray_rows(x, y, theta)
        got = grid._free_prefix(rays, n_samples, max_range, step)
        np.testing.assert_array_equal(got, reference_free_prefix(grid, rays, n_samples, max_range, step))
        assert (got == n_samples).any() and (got < n_samples).any()
        dist = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(dist, reference_raycast(grid, x, y, theta, max_range, step))
        assert (dist == max_range).any() and (dist < max_range).any()

    def test_blocked_first_rectangle(self):
        # origins in a wall, off the grid, or on a wall's face with the ray
        # heading into it, and NaN rays: nothing is skipped
        grid = corridor_grid()
        x = np.array([0.1, -0.3, 3.0, 19.45, 2.25, 2.25, 5.0])
        y = np.array([0.1, 0.75, 1.0, 0.75, 0.5, 0.5, 0.75])
        theta = np.array([0.0, 0.0, -math.pi / 2, 0.0, -math.pi / 2, -math.radians(1.0), np.nan])
        got = grid._free_prefix(ray_rows(x, y, theta), 100, 10.0, 0.1)
        np.testing.assert_array_equal(got, [0, 0, 0, 0, 0, 0, 0])
        # the first three have no free origin; the next three start in a
        # free cell and reach the corridor's end or floor at their first sample
        free = brute_free_samples(grid, ray_rows(x, y, theta), 100, 10.0, 0.1)
        np.testing.assert_array_equal(free[:, 0], [False, False, False, True, True, True, False])


class TestMarchedSearch:
    """Batches over `_MARCH_POINTS` points, where each ray bisects before it marches."""

    @pytest.mark.parametrize("make_grid", [corridor_grid, maze_grid])
    @pytest.mark.parametrize("step_factor, max_range", [(0.1, 12.0), (0.3, 17.3), (1.0, 25.0), (1.7, 40.0)])
    def test_corridors_and_mazes(self, make_grid, step_factor, max_range):
        grid = make_grid()
        step = step_factor * grid.resolution
        n_samples = int(math.floor(max_range / step + 1e-9))
        n = _MARCH_POINTS // n_samples + 500
        rng = np.random.default_rng(n)
        x, y = face_points(grid, rng, n) if step_factor < 1.0 else free_origins(grid, rng, n)
        theta = mixed_headings(rng, n)
        assert n * n_samples > _MARCH_POINTS
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    @pytest.mark.parametrize("map_name, max_range, step", [("paper_map.txt", 100.0, 0.5), ("tiny_map.txt", 30.0, 0.1)])
    def test_70000_rays_on_shipped_maps(self, map_name, max_range, step):
        grid = load_grid((packaged_config_dir() / map_name).read_text())
        rng = np.random.default_rng(70_000)
        x, y = free_origins(grid, rng, 70_000)
        theta = mixed_headings(rng, 70_000)
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))


class TestNarrowGrids:
    """Grids where rays cross free boxes one to three cells wide, at steps
    from 0.01x to 3x the resolution, from origins on cell faces and corners."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid=narrow_grids(),
        step_factor=st.one_of(st.floats(0.01, 3.0), st.sampled_from([0.01, 0.1, 0.5, 1.0, 2.0, 3.0])),
        range_factor=st.floats(0.05, 1.2),
        n_rays=st.integers(1, 40),
        axis_share=st.sampled_from([0.0, 0.5, 1.0]),
        on_faces=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raycast(self, grid, step_factor, range_factor, n_rays, axis_share, on_faces, seed):
        assert brute_clearance(grid).max() <= 2
        rng = np.random.default_rng(seed)
        origins = face_points(grid, rng, n_rays) if on_faces else free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = np.where(
            rng.random(n_rays) < axis_share,
            rng.choice(HEADINGS, n_rays),
            rng.uniform(-math.pi, math.pi, n_rays),
        )
        step = step_factor * grid.resolution
        max_range = max(range_factor * math.hypot(grid.world_width, grid.world_height), 0.01)
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    @settings(max_examples=4, deadline=None)
    @given(grid=narrow_grids(), n_rays=st.integers(20_000, 40_000), seed=st.integers(0, 2**32 - 1))
    def test_raycast_many_rays_at_a_tenth_of_a_cell(self, grid, n_rays, seed):
        # the oracle's regime: more rays than a block holds points, ten
        # samples per cell, every ray marching through narrow free space
        rng = np.random.default_rng(seed)
        origins = free_origins(grid, rng, n_rays)
        if origins is None:
            return
        x, y = origins
        theta = np.where(rng.random(n_rays) < 0.5, rng.choice(HEADINGS, n_rays), rng.uniform(-4.0, 4.0, n_rays))
        step = grid.resolution / 10.0
        max_range = 1.2 * max(grid.world_width, grid.world_height)
        got = grid.raycast_batch(x, y, theta, max_range, step)
        np.testing.assert_array_equal(got, reference_raycast(grid, x, y, theta, max_range, step))

    @settings(max_examples=200, deadline=None)
    @given(
        grid=narrow_grids(),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        n_segments=st.integers(1, 30),
        reach=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segments_between_faces_and_corners(self, grid, step, n_segments, reach, seed):
        rng = np.random.default_rng(seed)
        ax, ay = face_points(grid, rng, n_segments)
        bx = ax + rng.integers(-reach, reach + 1, n_segments) / 2.0 * grid.resolution
        by = ay + rng.integers(-reach, reach + 1, n_segments) / 2.0 * grid.resolution
        got = grid.segment_collision_counts(ax, ay, bx, by, step)
        np.testing.assert_array_equal(got, reference_segment_counts(grid, ax, ay, bx, by, step))

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.one_of(narrow_grids(), sparse_grids(max_side=30)),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        n_segments=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segments_ending_on_a_box_face(self, grid, step, n_segments, seed):
        # from a free cell of clearance c to a face of its free box (the
        # cells within c - 1 of it) or just inside or outside of one: the
        # far faces belong to the next cell out, the near ones to the box
        rng = np.random.default_rng(seed)
        free_iy, free_ix = np.nonzero(~grid.cells)
        if free_ix.size == 0:
            return
        pick = rng.integers(0, free_ix.size, n_segments)
        cx, cy = free_ix[pick], free_iy[pick]
        r = brute_clearance(grid)[cy, cx].astype(float) - 1.0
        res = grid.resolution
        ax = (cx + rng.random(n_segments)) * res
        ay = (cy + rng.random(n_segments)) * res
        faces_x = np.stack([(cx - r) * res, (cx + r + 1.0) * res])
        faces_y = np.stack([(cy - r) * res, (cy + r + 1.0) * res])
        side = rng.integers(0, 2, (2, n_segments))
        bx = faces_x[side[0], np.arange(n_segments)]
        by = faces_y[side[1], np.arange(n_segments)]
        nudge = rng.choice([-np.inf, 0.0, 0.0, np.inf], (2, n_segments))
        bx = np.where(nudge[0] == 0.0, bx, np.nextafter(bx, nudge[0]))
        by = np.where(nudge[1] == 0.0, by, np.nextafter(by, nudge[1]))
        # one coordinate on a face, the other anywhere along it
        along = rng.random(n_segments) < 0.5
        bx = np.where(along, ax + rng.uniform(-1.0, 1.0, n_segments) * (r + 1.0) * res, bx)
        got = grid.segment_collision_counts(ax, ay, bx, by, step)
        np.testing.assert_array_equal(got, reference_segment_counts(grid, ax, ay, bx, by, step))


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
        # short segments that the free-rectangle test proves free, longer
        # ones that it does not, starts off the grid, and NaN or infinite
        # endpoints
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

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.one_of(narrow_grids(), sparse_grids(max_side=30)),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        n_segments=st.integers(1, 30),
        axis_share=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_long_segments_along_corridors(self, grid, step, n_segments, axis_share, seed):
        # segments up to the grid's extent, many along a row or a column, so
        # that whole free runs of a corridor go unsampled while one cell
        # further reaches a wall or the outside
        origins = free_origins(grid, np.random.default_rng(seed), n_segments)
        if origins is None:
            return
        rng = np.random.default_rng(seed + 1)
        ax, ay = origins
        reach = max(grid.world_width, grid.world_height)
        dx = rng.uniform(-reach, reach, n_segments)
        dy = rng.uniform(-reach, reach, n_segments)
        axis = rng.random(n_segments) < axis_share
        vertical = rng.random(n_segments) < 0.5
        bx = ax + np.where(axis & vertical, 0.0, dx)
        by = ay + np.where(axis & ~vertical, 0.0, dy)
        got = grid.segment_collision_counts(ax, ay, bx, by, step)
        np.testing.assert_array_equal(got, reference_segment_counts(grid, ax, ay, bx, by, step))

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.one_of(sparse_grids(), narrow_grids()),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        special_share=st.sampled_from([0.0, 0.2]),
        zero_share=st.sampled_from([0.0, 0.3]),
        in_free_rectangle=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_independent(self, grid, step, sizes, special_share, zero_share, in_free_rectangle, seed):
        # a segment's count does not depend on the batch it is counted in:
        # one segment's samples must not reach its neighbours' counts;
        # `filters._roll_out` groups whole transitions into one call on this.
        # Batches drawn inside one free rectangle are settled by the one test
        # of the rectangle that spans the whole batch, unless a special value
        # falls in them.
        rng = np.random.default_rng(seed)
        m = sum(sizes)
        rectangle = free_rectangle(grid, rng) if in_free_rectangle else None
        if rectangle is not None:
            ix0, ix1, iy0, iy1 = rectangle
            ax, bx = (ix0 + rng.random((2, m)) * (ix1 + 1 - ix0)) * grid.resolution
            ay, by = (iy0 + rng.random((2, m)) * (iy1 + 1 - iy0)) * grid.resolution
        else:
            reach = rng.choice([1.0, max(grid.world_width, grid.world_height)], m)
            ax = rng.uniform(-2.0, grid.world_width + 2.0, m)
            ay = rng.uniform(-2.0, grid.world_height + 2.0, m)
            bx = ax + rng.uniform(-1.0, 1.0, m) * reach
            by = ay + rng.uniform(-1.0, 1.0, m) * reach
        zero = rng.random(m) < zero_share
        bx[zero], by[zero] = ax[zero], ay[zero]
        ends = np.stack([ax, ay, bx, by])
        special = rng.random(ends.shape) < special_share
        ends[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        whole = grid.segment_collision_counts(*ends, step)
        cuts = np.cumsum(sizes)[:-1]
        parts = [grid.segment_collision_counts(*part, step) for part in np.split(ends, cuts, axis=1)]
        assert whole.shape == (m,)
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        np.testing.assert_array_equal(whole, reference_segment_counts(grid, *ends, step))

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.one_of(sparse_grids(max_side=30), narrow_grids()),
        step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.7]),
        n_segments=st.integers(1, 8),
        through=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segments_far_longer_than_the_grid(self, grid, step, n_segments, through, seed):
        # up to 20 grid extents long, many of them crossing the grid, some
        # along a row or a column: only the run of samples that may lie on
        # the grid is sampled, and the count is the reference's
        rng = np.random.default_rng(seed)
        reach = 20.0 * max(grid.world_width, grid.world_height)
        ax, ay = rng.uniform(-reach, reach, (2, n_segments))
        cx = rng.uniform(0.0, grid.world_width, n_segments)
        cy = rng.uniform(0.0, grid.world_height, n_segments)
        cross = rng.random(n_segments) < through
        bx = np.where(cross, 2.0 * cx - ax, rng.uniform(-reach, reach, n_segments))
        by = np.where(cross, 2.0 * cy - ay, rng.uniform(-reach, reach, n_segments))
        by = np.where(rng.random(n_segments) < 0.3, ay, by)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid.segment_collision_counts(ax, ay, bx, by, step)
        np.testing.assert_array_equal(got, reference_segment_counts(grid, ax, ay, bx, by, step))

    def test_huge_segments_are_counted_without_building_their_samples(self, monkeypatch):
        # from far off the grid to a point on it: all samples but the eleven
        # at x = 0.5 .. 5.5 lie off the grid; the reference samples the 1e6
        # one whole
        grid = OccupancyGrid(6, 4, 1.0, np.zeros((4, 6), dtype=bool))
        looked_up = []
        lookup = OccupancyGrid.occupied_xy

        def counted(g, x, y):
            looked_up.append(np.size(x))
            return lookup(g, x, y)

        monkeypatch.setattr(OccupancyGrid, "occupied_xy", counted)
        ends = np.array([[1e6, 1e12], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = grid.segment_collision_counts(*ends, 0.5)
            assert counts.tolist() == [1_999_989, 1_999_999_999_989]
            assert sum(looked_up) <= 2 * 12
            np.testing.assert_array_equal(counts[:1], reference_segment_counts(grid, *ends[:, :1], 0.5))
            for far in (1e300, 1e308):
                message = rf"^segment \({far}, 0.5\) -> \(0.5, 0.5\) has more samples at step 0.5 than a count holds$"
                with pytest.raises(ValueError, match=message.replace("+", r"\+")):
                    grid.segment_collision_counts(np.array([0.5, far]), np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5), 0.5)

    def test_non_finite_endpoint_counts_two(self):
        grid = OccupancyGrid(20, 20, 1.0, np.zeros((20, 20), dtype=bool))
        ax = np.array([10.0, 10.0, np.nan, 10.0, np.inf, 10.0])
        ay = np.full(6, 10.0)
        bx = np.array([np.nan, np.inf, 10.0, -np.inf, np.inf, 10.5])
        by = np.full(6, 10.0)
        counts = grid.segment_collision_counts(ax, ay, bx, by, 0.5)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2, 0])


class TestRectangleFree:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.one_of(grids(max_side=15), narrow_grids(max_side=15), sparse_grids(max_side=15)),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, grid, n, seed):
        # corners anywhere from three cells off the grid to three past it,
        # some NaN; only rectangles of free cells on the grid are free
        rng = np.random.default_rng(seed)
        a = np.stack([rng.integers(-3, grid.width + 3, n), rng.integers(-3, grid.height + 3, n)])
        b = np.stack([rng.integers(-3, grid.width + 3, n), rng.integers(-3, grid.height + 3, n)])
        a, b = a.astype(float), b.astype(float)
        a[rng.random(a.shape) < 0.05] = np.nan
        want = []
        for (x0, y0), (x1, y1) in zip(a.T.tolist(), b.T.tolist()):
            if any(math.isnan(v) for v in (x0, y0, x1, y1)):
                want.append(False)
                continue
            lx, hx = sorted((int(x0), int(x1)))
            ly, hy = sorted((int(y0), int(y1)))
            inside = lx >= 0 and ly >= 0 and hx < grid.width and hy < grid.height
            want.append(inside and not grid.cells[ly : hy + 1, lx : hx + 1].any())
        ref = reference_rectangle_free(grid, a.copy(), b.copy())
        np.testing.assert_array_equal(grid._rectangle_free(a, b), want)
        np.testing.assert_array_equal(ref, want)


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

    def test_unit_resolution_special_values(self):
        # at resolution 1.0 no division is made: NaN, infinite, far-off and
        # -0.0 coordinates are looked up as the references look them up, the
        # non-finite and far-off ones as occupied, with no warning
        cells = np.zeros((4, 6), dtype=bool)
        cells[0, 0] = True
        cells[3, 5] = True
        grid = OccupancyGrid(6, 4, 1.0, cells)
        specials = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0, 0.5, 2.5, 3.999, 5.999, 6.0])
        far = ~np.isfinite(specials) | (np.abs(specials) > 10.0)
        xs, ys = np.meshgrid(specials, specials)
        ax, ay = xs.ravel(), ys.ravel()
        # short segments, and mirrored ones: +-1e308 to -+1e308 is of infinite length
        bx, by = np.concatenate([ax + 0.75, -ax]), np.concatenate([ay - 1.25, ay])
        theta = np.resize([0.0, -0.0, math.pi / 2, -math.pi, 1.0, np.nan], ax.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid.occupied_xy(xs, ys)
            np.testing.assert_array_equal(got, reference_occupied_xy(grid, xs, ys))
            ends = np.tile(ax, 2), np.tile(ay, 2), bx, by
            counts = grid.segment_collision_counts(*ends, 0.5)
            np.testing.assert_array_equal(counts, reference_segment_counts(grid, *ends, 0.5))
            for max_range, step in [(3.0, 0.5), (6.0, 6.0 / (_MARCH_POINTS // ax.size + 1))]:
                dist = grid.raycast_batch(ax, ay, theta, max_range, step)
                np.testing.assert_array_equal(dist, reference_raycast(grid, ax, ay, theta, max_range, step))
        assert got[far[:, None] | far[None, :]].all()
        assert not grid.occupied_xy(-0.0, 1.5) and not grid.occupied_xy(1.5, -0.0)

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
