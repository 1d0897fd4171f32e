"""Occupancy-grid map: collision queries, segment sampling and raycasting.

The grid is a plain boolean array over square cells.  World coordinates use
x rightward, y upward, with the origin at the bottom-left map corner; any
point outside ``[0, width*resolution) x [0, height*resolution)`` counts as
occupied, so the map boundary behaves like a solid wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points tested per `occupied_xy` call in `OccupancyGrid.raycast_batch`.
_MARCH_POINTS = 1 << 16


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
    bottom (y = 0) row of the world.  Instances are treated as immutable and
    may be shared freely across concurrent trial runners.
    """

    width: int
    height: int
    resolution: float
    cells: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValueError(f"resolution must be a positive real, got {self.resolution}")
        cells = np.ascontiguousarray(self.cells, dtype=bool)
        if cells.shape != (self.height, self.width):
            raise ValueError(f"cells shape {cells.shape} does not match {self.height}x{self.width}")
        object.__setattr__(self, "cells", cells)

    @property
    def world_width(self) -> float:
        return self.width * self.resolution

    @property
    def world_height(self) -> float:
        return self.height * self.resolution

    def occupied_xy(self, x, y) -> np.ndarray:
        """Vectorized occupancy test; out-of-bounds and non-finite points are occupied.

        NaN and infinite coordinates fail the bounds comparisons, so they need
        no separate finiteness pass; only points inside the grid are looked up.
        """
        ix = np.floor(np.asarray(x, dtype=float) / self.resolution)
        iy = np.floor(np.asarray(y, dtype=float) / self.resolution)
        if ix.shape != iy.shape:
            ix, iy = np.broadcast_arrays(ix, iy)
        inside = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        occupied = np.ones(inside.shape, dtype=bool)
        flat = iy[inside].astype(np.intp) * self.width + ix[inside].astype(np.intp)
        occupied[inside] = self.cells.ravel()[flat]
        return occupied

    def is_occupied(self, p: Point2) -> bool:
        """True iff ``p`` maps to an occupied cell or lies outside the grid."""
        return bool(self.occupied_xy(p.x, p.y))

    def segment_collision_count(self, a: Point2, b: Point2, step: float = 1.0) -> int:
        """Count occupied sample points on the segment from ``a`` to ``b``.

        The segment is sampled on a symmetric lattice: both endpoints plus
        equally spaced interior points, with spacing at most ``step``.
        """
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        counts = self.segment_collision_counts(
            np.array([a.x]), np.array([a.y]), np.array([b.x]), np.array([b.y]), step
        )
        return int(counts[0])

    def segment_collision_counts(self, ax, ay, bx, by, step: float) -> np.ndarray:
        """Vectorized `segment_collision_count` over parallel arrays of endpoints."""
        ax = np.asarray(ax, dtype=float)
        ay = np.asarray(ay, dtype=float)
        bx = np.asarray(bx, dtype=float)
        by = np.asarray(by, dtype=float)
        dist = np.hypot(bx - ax, by - ay)
        # 1e-9 slack so that e.g. a length-10 segment at step 1 yields exactly
        # 10 intervals despite float noise.
        k = np.ceil(dist / step - 1e-9).astype(np.int64)
        k_max = int(k.max()) if k.size else 0
        j = np.arange(k_max + 1)
        denom = np.maximum(k, 1)[:, None]
        t = np.minimum(j[None, :], k[:, None]) / denom
        px = ax[:, None] + t * (bx - ax)[:, None]
        py = ay[:, None] + t * (by - ay)[:, None]
        occ = self.occupied_xy(px.ravel(), py.ravel()).reshape(px.shape)
        valid = j[None, :] <= k[:, None]
        return (occ & valid).sum(axis=1)

    def raycast(self, origin: Point2, heading: float, max_range: float, step: float = 0.5) -> float:
        """Distance along ``heading`` to the first occupied sample point.

        Marches at fixed spacing ``step`` out to ``max_range`` and returns
        ``max_range`` when nothing is hit.  Raises ValueError when the origin
        itself is occupied (a sensor inside a wall is undefined).
        """
        if max_range <= 0 or step <= 0:
            raise ValueError(f"max_range and step must be positive, got {max_range}, {step}")
        if self.is_occupied(origin):
            raise ValueError(f"raycast origin ({origin.x}, {origin.y}) is inside an obstacle")
        d = self.raycast_batch(
            np.array([origin.x]), np.array([origin.y]), np.array([heading]), max_range, step
        )
        return float(d[0])

    def raycast_batch(self, x, y, theta, max_range: float, step: float) -> np.ndarray:
        """Vectorized raycast for free origins; returns hit distances in [0, max_range].

        Ray ``i`` is sampled at distances ``d_k = min(k*step, max_range)`` for
        ``k = 1 .. floor(max_range/step)``, at the points ``x + d_k*cos(theta)``,
        ``y + d_k*sin(theta)``; its result is the first ``d_k`` whose point is
        occupied, or ``max_range`` when none is (also when ``max_range < step``,
        which leaves no samples).

        The march goes in blocks: each block takes the next
        ``max(1, _MARCH_POINTS // active)`` sample distances for the ``active``
        rays that have not hit yet, tests all of those points with one
        `occupied_xy` call, takes each ray's first hit in the block and drops
        the rays that hit.  A few rays therefore finish in one call, while very
        large batches step nearly one sample at a time; either way each block
        temporary holds about ``_MARCH_POINTS`` values.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.asarray(theta, dtype=float)
        m = x.shape[0]
        dist = np.full(m, float(max_range))
        n_samples = int(math.floor(max_range / step + 1e-9))
        if m == 0 or n_samples == 0:
            return dist
        ca, sa = np.cos(theta), np.sin(theta)
        idx = np.arange(m)
        k = 0  # samples 1..k are done
        while k < n_samples:
            ks = np.arange(k + 1, min(k + max(1, _MARCH_POINTS // idx.size), n_samples) + 1)
            k += ks.size
            block = np.minimum(ks * step, max_range)
            hit = self.occupied_xy(
                x[:, None] + block * ca[:, None], y[:, None] + block * sa[:, None]
            )
            done = hit.any(axis=1)
            if done.any():
                dist[idx[done]] = block[hit[done].argmax(axis=1)]
                keep = ~done
                x, y, ca, sa, idx = x[keep], y[keep], ca[keep], sa[keep], idx[keep]
                if idx.size == 0:
                    break
        return dist


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


def dump_grid(grid: OccupancyGrid) -> str:
    """Serialize a grid back to the map text format (inverse of `load_grid`)."""
    out = [f"{grid.width} {grid.height} {grid.resolution!r}"]
    for r in range(grid.height):
        row = grid.cells[grid.height - 1 - r]
        out.append("".join("#" if c else "." for c in row))
    return "\n".join(out) + "\n"
