"""Static SVG snapshots of trace records: map, truth and particle clouds.

Color scheme: obstacles black, the true pose a gray circle, current-state
particles orange, past-state (lagged) particles pink, predicted future-state
particles light blue; the step index is annotated top-left.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .gridmap import OccupancyGrid
from .harness import METHODS

_CLOUD_COLORS = {-1: "pink", 0: "orange", 1: "lightblue"}
SNAPSHOT_KEYS = ("method", "trial", "t", "truth")  # what a cloud-carrying record must hold


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_offset(key: str) -> bool:
    try:
        return str(int(key)) == key
    except ValueError:
        return False


def record_fault(record: dict) -> str | None:
    """What keeps a cloud-carrying trace record from being drawn, or None; the
    text follows "line <n>" in an error message, so it starts with " " or ": "."""
    missing = [key for key in SNAPSHOT_KEYS if key not in record]
    if missing:
        return f" has clouds but no {', '.join(missing)}"
    if record["method"] not in METHODS:  # it names the snapshot file
        return f": method must be one of {', '.join(METHODS)}, got {record['method']!r}"
    for key in ("trial", "t"):
        if not (isinstance(record[key], int) and not isinstance(record[key], bool)):
            return f": {key} must be an integer, got {record[key]!r}"
    truth, clouds = record["truth"], record["clouds"]
    if not (isinstance(truth, list) and len(truth) == 3 and all(map(_is_number, truth))):
        return f": truth must be 3 numbers, got {truth!r}"
    triples = isinstance(clouds, dict) and all(
        _is_offset(key) and isinstance(points, list)
        and all(isinstance(p, list) and len(p) == 3 and all(map(_is_number, p)) for p in points)
        for key, points in clouds.items()
    )
    return None if triples else ": clouds must map integer offsets to lists of [x, y, w] number triples"


def _obstacle_rects(grid: OccupancyGrid) -> list[tuple[float, float, float, float]]:
    """Merge occupied runs per row into (x, y, w, h) rects in world units."""
    rects = []
    res = grid.resolution
    for iy in range(grid.height):
        row = grid.cells[iy]
        edges = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))))
        for x0, x1 in zip(edges[::2], edges[1::2]):
            rects.append((x0 * res, iy * res, (x1 - x0) * res, res))
    return rects


def render_snapshot(record: dict, grid: OccupancyGrid) -> str:
    """Render one cloud-carrying trace record as an SVG document string.

    The gray circle marks the true pose at the record's estimated time
    ``t`` (for lagged methods that pairs with the pink past-state cloud),
    while the top-left step index is the queue time the clouds were taken
    at.  Raises ValueError when the record carries no particle clouds
    (clouds are stored only every cloud_stride steps).
    """
    clouds = record.get("clouds")
    if not clouds:
        raise ValueError(f"record t={record.get('t')} has no particle clouds to render")
    w, h = grid.world_width, grid.world_height

    def sy(y: float) -> float:
        return h - y  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    for x, y, rw, rh in _obstacle_rects(grid):
        parts.append(
            f'<rect x="{x}" y="{sy(y + rh)}" width="{rw}" height="{rh}" fill="black"/>'
        )

    # draw future, then past, then current so the current cloud sits on top
    offsets = sorted((int(k) for k in clouds), reverse=True)
    for off in offsets:
        color = _CLOUD_COLORS[0 if off == 0 else (1 if off > 0 else -1)]
        for x, y, weight in clouds[str(off)]:
            r = 0.5 + min(1.5, weight * len(clouds[str(off)]))
            parts.append(
                f'<circle cx="{x:.2f}" cy="{sy(y):.2f}" r="{r:.2f}" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )

    tx, ty, _ = record["truth"]
    parts.append(
        f'<circle cx="{tx:.2f}" cy="{sy(ty):.2f}" r="3.00" '
        f'fill="gray" stroke="black" stroke-width="0.5"/>'
    )
    step = record.get("cloud_t", record["t"])
    parts.append(
        f'<text x="{0.02 * w:.1f}" y="{0.06 * h:.1f}" font-size="{0.05 * h:.1f}" '
        f'font-family="sans-serif" fill="black">{step}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_records(records: list[dict], grid: OccupancyGrid, out_dir: Path) -> list[Path]:
    """Render every cloud-carrying trace record into the existing directory ``out_dir``; returns written paths."""
    written = []
    for record in records:
        if not record.get("clouds"):
            continue
        svg = render_snapshot(record, grid)
        name = f"{record['method']}_trial{record['trial']:02d}_t{record['t']:04d}.svg"
        path = out_dir / name
        path.write_text(svg)
        written.append(path)
    return written
