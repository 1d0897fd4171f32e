"""Occupancy-grid map: collision queries, segment sampling and raycasting.

The grid is a plain boolean array over square cells.  World coordinates use
x rightward, y upward, with the origin at the bottom-left map corner; any
point outside ``[0, width*resolution) x [0, height*resolution)`` counts as
occupied, so the map boundary behaves like a solid wall.  A point's cell is
its coordinates divided by the resolution and floored; at resolution 1.0,
that of both shipped maps, no division is made, since ``x / 1.0`` is ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# `OccupancyGrid.raycast_batch` tests a batch of at most `_MARCH_POINTS`
# points as one dense block, without the free-prefix search.  Where the two
# cross depends on the map.  Median ms per batch, dense / search, on 2 cores
# with numpy 2.4.6, rays from random free points at random headings, timed
# with the whole-range first probe of `_free_prefix` (`BENCH_gridpasses.json`):
# `tiny_map.txt`, 300-sample rays, which never make the first probe: 44 rays
# 0.079 / 0.149, 88 rays 0.139 / 0.155, 100 rays 0.155 / 0.157, 130 rays
# 0.203 / 0.163; `paper_map.txt`, 200-sample rays: 82 rays 0.093 / 0.189,
# 164 rays 0.169 / 0.208, 200 rays 0.205 / 0.207, 250 rays 0.259 / 0.211.
# The crossings lie near 30,000 and 40,000 points, and the limit between
# them.  The pipeline's batches, replayed, median of 15 in ms, dense / march
# from sample 0 / search and march: one 5-seed `tiny.cfg` oracle call's 65
# one-ray truth batches 1.28 / 1.75 / 7.70, `paper.cfg`'s 126 one-ray truth
# batches 2.31 / 3.11 / 5.71.  The oracle call's 65 batches of 88 rays
# (26,400 points) replay at 19.1 / 12.1 / 10.1 beside that call's other
# arrays, but alone at 10.3 dense and 10.1 searched, and end to end a limit
# that searches them ties this one: no pipeline batch changes sides.  A
# batch over the limit first searches each ray over the summed-area table,
# then marches from there in blocks of at most `_MARCH_BLOCK` points, but at
# least one sample per ray.  One pass of the march costs about as much
# interpreter time as testing a few thousand points: narrower blocks pay in
# passes, wider ones test samples past the first hit.
_MARCH_POINTS = 1 << 15
_MARCH_BLOCK = 1 << 12


class MapFormatError(ValueError):
    """Map text does not conform to the map file format."""


@dataclass(frozen=True)
class Point2:
    """A finite 2D world point."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean occupancy grid with solid outer boundary.

    ``cells[iy, ix]`` is True where the cell is an obstacle.  Row 0 is the
    bottom (y = 0) row of the world.  Every query finds a point's cell
    through `_to_cells`, which makes no division at resolution 1.0.
    Instances are treated as immutable and may be shared freely across
    concurrent trial runners.
    """

    width: int
    height: int
    resolution: float
    cells: np.ndarray
    # `cells` with one more row and column of occupied cells, the outside:
    # cell indices clamped to [-1, width] x [-1, height] all find their
    # value in it, index -1 by wrapping round to the last row or column
    _occupied: np.ndarray = field(init=False, repr=False, compare=False)
    # entry [iy + 2, ix + 2] counts the occupied cells in [-1, ix] x [-1, iy], the
    # outside counted as occupied (`_summed_area`); read flat (`_sum_offsets`)
    _occupied_sums: np.ndarray = field(init=False, repr=False, compare=False)
    # the upper clamp of cell indices along x and y (`_clamp_cells`)
    _cell_bound: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValueError(f"resolution must be a positive real, got {self.resolution}")
        cells = np.ascontiguousarray(self.cells, dtype=bool)
        if cells.shape != (self.height, self.width):
            raise ValueError(f"cells shape {cells.shape} does not match {self.height}x{self.width}")
        object.__setattr__(self, "cells", cells)
        ringed = np.pad(cells, 1, constant_values=True)  # the outside is occupied
        object.__setattr__(self, "_occupied", np.ascontiguousarray(ringed[1:, 1:]))
        object.__setattr__(self, "_occupied_sums", _summed_area(ringed))
        object.__setattr__(self, "_cell_bound", np.array([self.width, self.height], dtype=float))

    @property
    def world_width(self) -> float:
        return self.width * self.resolution

    @property
    def world_height(self) -> float:
        return self.height * self.resolution

    def occupied_xy(self, x, y) -> np.ndarray:
        """Vectorized occupancy test; out-of-bounds and non-finite points are occupied."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        return np.asarray(self._occupied_at(self._to_cells(np.array([x, y]))))

    def _to_cells(self, xy: np.ndarray) -> np.ndarray:
        """Float cell indices of the world coordinates ``xy``, computed in place.

        At resolution 1.0 the division is skipped: IEEE ``x / 1.0`` is ``x``
        bit for bit, NaN, infinities and -0.0 included.  Otherwise a finite
        coordinate near the float maximum may overflow to infinity in the
        division, which puts it outside the grid as it should.
        """
        if self.resolution != 1.0:
            with np.errstate(over="ignore"):
                xy /= self.resolution
        return np.floor(xy, out=xy)

    def _clamp_cells(self, cell: np.ndarray) -> np.ndarray:
        """Clamp stacked float cell indices in place to [-1, width] x [-1, height].

        Only indices off the grid change, and they stay off it: ``fmax`` sends
        NaN to -1 too.
        """
        np.fmax(cell, -1.0, out=cell)
        np.fmin(cell.T, self._cell_bound, out=cell.T)  # the axis runs last in the transpose
        return cell

    def _occupied_at(self, cell: np.ndarray) -> np.ndarray:
        """Occupancy at stacked float cell indices, clamped in place (`_clamp_cells`); True off the grid."""
        self._clamp_cells(cell)
        flat = cell[1] * (self.width + 1)  # exact: small whole numbers
        flat += cell[0]
        return self._occupied.ravel()[flat.astype(np.intp)]

    def _rectangle_free(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether every cell of the rectangle spanned by cells ``a`` and ``b`` is free.

        ``a`` and ``b`` are stacked float cell indices, clamped in place
        (`_clamp_cells`); a rectangle reaching off the grid, or with a NaN
        corner, holds an outside cell and is not free.  Four corner sums of
        `_occupied_sums`, each one flat `take`, count its occupied cells.
        """
        # along each axis entry c + 2 counts the cells through c, c + 1 those before it
        lo = self._sum_offsets(np.fmin(self._clamp_cells(a), self._clamp_cells(b)), 1.0)
        hi = self._sum_offsets(np.fmax(a, b), 2.0)
        s = self._occupied_sums.ravel()
        return s.take(hi[1] + hi[0]) - s.take(lo[1] + hi[0]) - s.take(hi[1] + lo[0]) + s.take(lo[1] + lo[0]) == 0

    def _sum_offsets(self, cell: np.ndarray, shift) -> np.ndarray:
        """Flat `_occupied_sums` offsets of columns ``cell[0] + shift`` and rows
        ``cell[1] + shift``; ``cell`` is shifted in place, which spares the
        raycast search a temporary as large as its rays."""
        cell += shift
        corner = cell.astype(np.intp)
        corner[1] *= self._occupied_sums.shape[1]
        return corner

    def segment_collision_counts(self, ax, ay, bx, by, step: float) -> np.ndarray:
        """Count the occupied sample points of each segment from ``(ax, ay)``
        to ``(bx, by)``, over parallel arrays of endpoints.

        A segment is sampled on a symmetric lattice: both endpoints plus
        equally spaced interior points, with spacing at most ``step``, which
        must be positive and finite.  A segment with a NaN or infinite
        endpoint counts 2: it gets the two samples ``t = 0, 1``, and both are
        non-finite, hence occupied.

        Sample ``j = 0 .. k`` of a segment with ``k`` intervals lies at
        ``a + t*(b - a)``, ``t = j/max(k, 1)``.  Each step of that
        arithmetic and the floor to a cell are monotone in ``j``, so along
        each axis a sample's cell lies between the cells of the samples
        ``t = 0`` (``a``) and ``t = 1`` (``a + (b - a)``, since ``1.0*(b - a)``
        is exact): every sample lies in the cell rectangle those two span.
        When that rectangle is free (`_rectangle_free`), the segment counts 0
        without being sampled.  A batch of two or more segments first tests
        the one rectangle that spans the cells of all of its endpoints: when
        that is free, every segment's is, and each counts 0.  A NaN cell
        makes that rectangle not free, as it makes a segment's.

        A segment longer than the grid's diagonal has samples off the grid, all
        occupied.  Then only the run of samples that may lie on the grid is
        sampled (`_grid_run`), and the others are counted without being
        built.  A segment whose sample count does not fit in ``intp`` raises
        a `ValueError` that names it.
        """
        if not (step > 0 and math.isfinite(step)):
            raise ValueError(f"step must be positive and finite, got {step}")
        ax = np.asarray(ax, dtype=float)
        ay = np.asarray(ay, dtype=float)
        bx = np.asarray(bx, dtype=float)
        by = np.asarray(by, dtype=float)
        # inf - inf, 0 * inf, far-off points, and a huge length over a small step
        with np.errstate(invalid="ignore", over="ignore"):
            dx, dy = bx - ax, by - ay
            # rows: the cells of a and of b along x, then along y
            cells = self._to_cells(np.array([ax, ax + dx, ay, ay + dy]))
            if ax.size > 1:
                span = cells.reshape(2, -1)  # max and min carry NaN through
                if self._rectangle_free(span.min(axis=1), span.max(axis=1)):
                    return np.zeros(ax.shape, dtype=np.intp)
            sampled = ~self._rectangle_free(cells[0::2], cells[1::2])
            counts = np.zeros(sampled.shape, dtype=np.intp)
            if not sampled.any():
                return counts
            ax, ay, dx, dy = ax[sampled], ay[sampled], dx[sampled], dy[sampled]
            dist = np.hypot(dx, dy)
            # 1e-9 slack so that e.g. a length-10 segment at step 1 yields exactly
            # 10 intervals despite float noise; one interval at non-finite length.
            k = np.where(np.isfinite(dist), np.ceil(dist / step - 1e-9), 1.0)
            longest = k.max()
            if not longest < np.iinfo(np.intp).max:
                worst = k.argmax()
                i = np.flatnonzero(sampled)[worst]  # its index among all segments
                raise ValueError(
                    f"segment ({ax[worst]}, {ay[worst]}) -> ({bx.flat[i]}, {by.flat[i]}) "
                    f"has more samples at step {step} than a count holds"
                )
            k = k.astype(np.int64)
            trim = longest * step > math.hypot(self.world_width, self.world_height)
            # samples j = first .. first + n - 1 of each segment, one segment after the other
            first, n = self._grid_run(ax, ay, dx, dy, k) if trim else (0, k + 1)
            seg = np.arange(k.size).repeat(n)
            j = np.arange(seg.size) - (n.cumsum() - n - first).repeat(n)
            t = j / np.maximum(k, 1)[seg]
            px = ax[seg] + t * dx[seg]
            py = ay[seg] + t * dy[seg]
        counts[sampled] = np.bincount(seg, weights=self.occupied_xy(px, py), minlength=k.size)
        if trim:
            counts[sampled] += k + 1 - n  # the samples off the grid
        return counts

    def _grid_run(self, ax, ay, dx, dy, k) -> tuple[np.ndarray, np.ndarray]:
        """The first sample and the number of samples of the run of each
        segment (`segment_collision_counts`) outside which every sample lies
        off the grid.

        Along each axis a sample's cell is monotone in ``j``, so the samples
        that have entered the grid's span along both axes (cell >= 0 where the
        axis runs forward, <= the last cell where it runs back) form a
        suffix, and those that have not left it a prefix; the run is their
        overlap.  Binary lifting, as in `_lift`, finds the last sample before
        the suffix and the last of the prefix, one sample of each per probe.
        A segment of non-finite length has two samples, both off the grid,
        and an empty run.
        """
        back = np.array([dx < 0, dy < 0])
        last_cell = (self._cell_bound - 1.0)[:, None, None]
        before = np.full(k.size, -1, dtype=np.int64)  # has not entered, or -1
        inside = np.full(k.size, -1, dtype=np.int64)  # has not left, or -1
        for b in reversed(range(int(k.max() + 1).bit_length())):
            j = np.array([before, inside]) + (1 << b)
            t = np.minimum(j, k) / np.maximum(k, 1)
            cell = self._to_cells(np.array([ax + t * dx, ay + t * dy]))  # axis, (before, inside), segment
            low, high = cell >= 0, cell <= last_cell
            entered = np.where(back, high[:, 0], low[:, 0]).all(axis=0)
            kept = np.where(back, low[:, 1], high[:, 1]).all(axis=0)
            reach = j <= k
            before += (reach[0] & ~entered) * (1 << b)
            inside += (reach[1] & kept) * (1 << b)
        return before + 1, np.maximum(inside - before, 0)

    def raycast_batch(self, x, y, theta, max_range: float, step: float) -> np.ndarray:
        """Vectorized raycast; returns hit distances in [0, max_range], also from an
        occupied, off-grid or NaN origin, whose value the scan likelihood discards.

        Ray ``i`` is sampled at distances ``d_k = min(k*step, max_range)`` for
        ``k = 1 .. floor(max_range/step)``, at the points ``x + d_k*cos(theta)``,
        ``y + d_k*sin(theta)``; its result is the first ``d_k`` whose point is
        occupied, or ``max_range`` when none is (also when ``max_range < step``,
        which leaves no samples).

        Every step of the sample arithmetic (``k*step``, the ``min``, the
        product with the cosine, the sum, the division and the floor) is
        monotone in ``k``, so along each axis a sample's cell lies between the
        cells of any earlier and any later sample: all samples between two
        samples lie in the cell rectangle those two span.  The rest is built
        on that fact and finds the first hit the per-sample march finds.

        A batch of at most `_MARCH_POINTS` points is one dense block: all of
        its samples are tested with one lookup.  In a larger batch each ray
        first searches for the last sample it can skip (`_free_prefix`): the
        largest ``j`` whose cell spans a free rectangle with the origin's
        cell (sample 0), so that samples ``1 .. j`` are all free.  Each probe
        reads three corner sums.  When the grid's diagonal reaches past the
        last sample, a first probe there ends every ray it proves free, and
        only the others search on.  The search is binary lifting: starting
        from ``j = 0``, each power of two from the highest down is added to
        ``j`` (as the product of the probe's bool and the power, with no
        masked update) where the sample that far on still spans a free
        rectangle.  No more probes are made than a ray inside the grid needs
        to cross it.  A ray whose ``j`` is the last sample ends at
        ``max_range``.  The others march in blocks, each from its own ``j``:
        a block takes each of the ``active`` rays that have not hit yet
        ``max(1, _MARCH_BLOCK // active)`` samples further, never past the
        last sample, tests all of those points with one lookup, records each
        ray's first hit in the block and drops the rays that hit.  A ray
        that goes on starts its next block after its last tested sample.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.asarray(theta, dtype=float)
        m = x.shape[0]
        dist = np.full(m, float(max_range))
        n_samples = int(math.floor(max_range / step + 1e-9))
        if m == 0 or n_samples == 0:
            return dist
        # rows: origin and direction; one column per ray still marching
        rays = np.array([x, y, np.cos(theta), np.sin(theta)])
        idx = np.arange(m)
        dense = m * n_samples <= _MARCH_POINTS
        with np.errstate(over="ignore"):  # far-off points
            # samples 1..k of each ray are done: 0 for the dense block, else one per ray
            # (`compress` and `take` pick the columns and rows of a 2-D array
            # several times faster than boolean or fancy indexing does)
            k = 0
            if not dense:
                k = self._free_prefix(rays, n_samples, max_range, step)
                keep = k < n_samples
                if not keep.all():
                    k, rays, idx = k[keep], rays.compress(keep, axis=1), idx[keep]
            while idx.size:
                width = n_samples if dense else min(max(1, _MARCH_BLOCK // idx.size), n_samples - int(k.min()))
                ks = np.minimum(np.add.outer(k, np.arange(1, width + 1)), n_samples)
                block = np.minimum(ks * step, max_range)
                cell = block * rays[2:4, :, None]
                cell += rays[0:2, :, None]
                hit = self._occupied_at(self._to_cells(cell))
                done = hit.any(axis=1)
                rows = done.nonzero()[0]
                if rows.size:
                    # argmax goes row by row, which costs more than the lookup
                    # on one-sample rows, whose first hit is their one sample
                    first = hit.take(rows, axis=0).argmax(axis=1) if width > 1 else 0
                    dist[idx[rows]] = block[first] if dense else block[rows, first]
                if dense:
                    break
                last = ks[:, -1]
                keep = ~done & (last < n_samples)
                k = last[keep]
                if not keep.all():
                    rays, idx = rays.compress(keep, axis=1), idx[keep]
        return dist

    def _sample_corners(self, rays, d, shift) -> np.ndarray:
        """`_sum_offsets` of the clamped cell of each ray's sample at distance ``d``, by the arithmetic of a block."""
        cell = rays[2:4] * d
        cell += rays[0:2]
        return self._sum_offsets(self._clamp_cells(self._to_cells(cell)), shift)

    def _free_prefix(self, rays, n_samples: int, max_range: float, step: float) -> np.ndarray:
        """Largest ``j`` in [0, n_samples] per ray whose sample's cell and the
        origin's span a free rectangle (`_rectangle_free`); 0 when none does.

        Sample ``k`` lies at ``min(k*step, max_range)``, as in a block; sample
        0 is the origin.  The rectangles nest as ``j`` grows, since sample
        cells are monotone in the sample index along each axis, so the test
        is true for a prefix of ``j``, which ends at most ``reach`` samples
        on: a free rectangle lies on the grid, so its far sample lies within
        the grid's diagonal of the origin (a cell more covers rounding).
        Every sample ``1 .. j`` lies in the rectangle: it is free.

        When ``reach`` is ``n_samples``, a first probe at sample ``n_samples``
        gives each ray that passes ``n_samples`` (on ``paper.cfg`` about 70%
        of the filter's rays), and only the others are lifted (`_lift`): their
        end lies before ``n_samples``.  Else every ray is lifted, and its end
        lies at or before ``reach``, before ``n_samples``.

        Along an axis whose direction is not ``< 0`` the origin's cell is the
        low corner, else the high one; its corner sum is read once.  Swapped
        corners along one axis only negate the sum, so ``== 0`` still means
        free.  A NaN ray's origin clamps to the outside cell: never free.
        """
        back = rays[2:4] < 0  # per axis: every sample's cell is at or before the origin's
        fixed = self._sample_corners(rays, 0.0, 1.0 + back)
        # per ray: direction and origin, origin corner, its corner sum, far-corner shift
        cols = (rays, fixed, self._occupied_sums.ravel().take(fixed[1] + fixed[0]), 2.0 - back)
        diagonal = math.hypot(self.world_width, self.world_height)
        reach = min(n_samples, int((diagonal + self.resolution) / step) + 1)
        sample_dist = np.minimum(np.arange(1 << reach.bit_length()) * step, max_range)  # distance of sample k
        if reach < n_samples:
            return self._lift(sample_dist, *cols)
        whole = self._spans_free(sample_dist[n_samples], *cols)
        j = whole * np.intp(n_samples)
        rest = (~whole).nonzero()[0]
        if rest.size:
            j[rest] = self._lift(sample_dist, *(c.take(rest, axis=-1) for c in cols))
        return j

    def _lift(self, sample_dist, rays, fixed, base, shift) -> np.ndarray:
        """The end of each ray's free prefix (`_free_prefix`) over samples
        ``[0, 2**p - 1]``, by binary lifting in ``p`` probes, where
        ``sample_dist`` holds the ``2**p`` sample distances.

        From ``j = 0``, each power of two ``b`` from the highest down is added
        to ``j`` where sample ``j + b`` passes, as ``j += free * b``: a
        product, with no branch per ray.  Samples past ``n_samples`` sit at
        ``max_range`` (the distance is still monotone in ``k``), so the
        rectangles nest over the whole range.
        """
        j = np.zeros(rays.shape[1], dtype=np.intp)  # proven free, or 0
        for b in reversed(range(sample_dist.size.bit_length() - 1)):
            j += self._spans_free(sample_dist[1 << b :].take(j), rays, fixed, base, shift) * (1 << b)
        return j

    def _spans_free(self, d, rays, fixed, base, shift) -> np.ndarray:
        """Whether each ray's sample at distance ``d`` (one, or one per ray) and
        its origin span a free rectangle: three corner sums and ``base``."""
        m = self._sample_corners(rays, d, shift)
        s = self._occupied_sums.ravel()
        return s.take(m[1] + m[0]) - s.take(fixed[1] + m[0]) - s.take(m[1] + fixed[0]) + base == 0


def _summed_area(ringed: np.ndarray) -> np.ndarray:
    """Summed-area table of the occupied cells of ``ringed``.

    Entry ``[i, j]`` counts the occupied cells among the first ``i`` rows and
    ``j`` columns of ``ringed``; row and column 0 are zeros.  The sums
    accumulate in place, with no temporary as large as the table.
    """
    sums = np.zeros((ringed.shape[0] + 1, ringed.shape[1] + 1), dtype=np.int32)
    inner = sums[1:, 1:]
    inner[...] = ringed
    np.cumsum(inner, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return sums


def load_grid(text: str) -> OccupancyGrid:
    """Parse map text into an `OccupancyGrid`.

    Format (bit-exact): line 1 is ``<width> <height> <resolution>`` with
    ASCII decimal fields separated by single spaces; the next ``height``
    lines hold exactly ``width`` characters each, ``.`` free and ``#``
    occupied; rows are newline-terminated with no trailing content.  Row 0
    of the file is the top (maximum-y) row of the world.
    """
    lines = text.split("\n")
    header = lines[0]
    parts = header.split(" ")
    if len(parts) != 3 or any(p == "" for p in parts):
        raise MapFormatError(f"line 1: header must be '<width> <height> <resolution>', got {header!r}")
    if not (parts[0].isdigit() and parts[1].isdigit()):
        raise MapFormatError(f"line 1: width and height must be decimal integers, got {header!r}")
    width, height = int(parts[0]), int(parts[1])
    try:
        resolution = float(parts[2])
    except ValueError:
        raise MapFormatError(f"line 1: resolution is not a number, got {parts[2]!r}") from None
    if width <= 0 or height <= 0:
        raise MapFormatError(f"line 1: width and height must be positive, got {width}x{height}")
    if not (resolution > 0 and math.isfinite(resolution)):
        raise MapFormatError(f"line 1: resolution must be a positive real, got {parts[2]!r}")
    if len(lines) < 1 + height:
        raise MapFormatError(f"line {len(lines)}: expected {height} map rows, file ends early")

    cells = np.zeros((height, width), dtype=bool)
    for r in range(height):
        line = lines[1 + r]
        lineno = r + 2
        if len(line) != width:
            raise MapFormatError(f"line {lineno}: expected {width} characters, got {len(line)}")
        bad = set(line) - {".", "#"}
        if bad:
            raise MapFormatError(f"line {lineno}: invalid characters {sorted(bad)!r}")
        # file row 0 is the top of the world
        cells[height - 1 - r] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) == ord("#")

    trailing = lines[1 + height :]
    if any(t != "" for t in trailing) or len(trailing) > 1:
        raise MapFormatError(f"line {height + 2}: trailing content after {height} map rows")
    return OccupancyGrid(width=width, height=height, resolution=resolution, cells=cells)

