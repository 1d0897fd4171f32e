"""Exact fixed-lag smoothing and prediction on small discretized instances.

Used as ground truth for the particle filters: the continuous model is
discretized onto a pose lattice (cells x heading bins), the queue posterior
is computed exactly by forward-backward message passing over the window, and
filter marginals are compared against it in total-variation distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterConfig, observation_log_likelihood_batch
from .gridmap import OccupancyGrid
from .worldsim import TWO_PI, Action, DepthScan, Pose, normalize_angles

MAX_LATTICE_STATES = 10_000  # largest lattice `discretize` builds
# Largest total of the dense (S, S) float64 kernels, one per distinct action,
# that `discretize` holds at once; they are its peak memory.  tiny.cfg's one
# kernel takes 0.66 MB and a 1,680-state room's 22.6 MB, so such a room fits
# with paper.cfg's 6 distinct actions (135 MB), while the state cap alone lets
# 800 MB per action through to an out-of-memory kill.
MAX_KERNEL_BYTES = 256 * 2**20
QUAD_POINTS = 61  # midpoint nodes of the forward-noise quadrature


class LatticeSizeError(ValueError):
    """The requested lattice is too large to enumerate."""


class ImpossibleEvidenceError(RuntimeError):
    """The observation sequence has zero probability under the discrete model."""


@dataclass
class DiscreteHmm:
    """Pose-lattice HMM mirroring the continuous localization model.

    State ``(iy * nx + ix) * n_heading_bins + ib`` is cell (ix, iy) at
    heading bin ib.  ``weighted_transitions`` holds one motion matrix per
    action, each entry weighted by the traversability prior exp(-beta * C)
    of its center-to-center segment: the rows are stochastic at beta 0 and
    sub-stochastic near obstacles otherwise.
    """

    grid: OccupancyGrid
    cell: float
    n_heading_bins: int
    nx: int
    ny: int
    centers: np.ndarray  # (3, S): the x, y and heading rows of every state's center
    weighted_transitions: dict[Action, np.ndarray]
    sensor_sigma: float
    initial: np.ndarray  # (S,)

    @property
    def n_states(self) -> int:
        return self.centers.shape[1]

    def log_emission(self, scan: DepthScan) -> np.ndarray:
        """The scan's log-likelihood at every state's center.  Every state is
        cast, the ones in walls included (200 of tiny.cfg's 288), and
        `observation_log_likelihood_batch` then replaces their values by
        -inf.  Dropping those states from the lattice would change the model:
        the prior penalizes a move into a wall without forbidding it, so
        future-side mass can sit there (ROADMAP, "Sized and left out")."""
        return observation_log_likelihood_batch(scan, self.centers, self.grid, self.sensor_sigma)

    def heading_bin(self, theta: np.ndarray) -> np.ndarray:
        """The heading bin of each angle, after wrapping it into (-pi, pi]."""
        if self.n_heading_bins == 1:  # every heading is in bin 0
            return np.zeros(np.shape(theta), dtype=np.int64)
        ib = ((normalize_angles(theta) + math.pi) / (TWO_PI / self.n_heading_bins)).astype(np.int64)
        return np.minimum(ib, self.n_heading_bins - 1)

    def state_index(self, x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lattice state of each pose, meaningless off the lattice, and
        whether the pose lies on it; the arguments broadcast."""
        ix = np.floor(x / self.cell).astype(np.int64)
        iy = np.floor(y / self.cell).astype(np.int64)
        # a negative index reads as a huge unsigned one
        on_lattice = (ix.view(np.uint64) < self.nx) & (iy.view(np.uint64) < self.ny)
        return (iy * self.nx + ix) * self.n_heading_bins + self.heading_bin(theta), on_lattice


def discretize(
    grid: OccupancyGrid,
    cfg: FilterConfig,
    actions: list[Action],
    cell: float,
    n_heading_bins: int,
) -> DiscreteHmm:
    """Discretize the motion/observation model onto a pose lattice.

    Transition rows are built by composite-midpoint integration of the motion
    kernel: the heading noise is evaluated at destination-bin centers and the
    forward noise on a midpoint grid over +/- 6 sigma, each node mapped to
    the state it lands in by `DiscreteHmm.state_index`.  Rows are
    renormalized so they sum to exactly 1, then each nonzero entry is
    weighted by the traversability prior.
    """
    if not (cell > 0 and math.isfinite(cell)):  # written so that NaN fails
        raise ValueError(f"cell must be positive and finite, got {cell}")
    nx = math.ceil(grid.world_width / cell - 1e-9)
    ny = math.ceil(grid.world_height / cell - 1e-9)
    n_states = nx * ny * n_heading_bins
    if n_states > MAX_LATTICE_STATES:
        raise LatticeSizeError(
            f"{nx} x {ny} cells x {n_heading_bins} heading bins = {n_states} states "
            f"exceeds the enumerable limit of {MAX_LATTICE_STATES}"
        )
    n_kernels = len(set(actions))
    if n_states * n_states * 8 * n_kernels > MAX_KERNEL_BYTES:
        raise LatticeSizeError(
            f"{nx} x {ny} cells x {n_heading_bins} heading bins = {n_states} states need "
            f"{n_kernels} distinct actions x {n_states * n_states * 8 / 2**20:.1f} MiB of dense kernels, "
            f"over the {MAX_KERNEL_BYTES // 2**20} MiB budget"
        )

    ixs, iys = np.meshgrid(np.arange(nx), np.arange(ny))
    cell_x = (ixs.ravel() + 0.5) * cell
    cell_y = (iys.ravel() + 0.5) * cell
    bin_centers = -math.pi + (np.arange(n_heading_bins) + 0.5) * (TWO_PI / n_heading_bins)
    centers = np.stack([
        np.repeat(cell_x, n_heading_bins), np.repeat(cell_y, n_heading_bins), np.tile(bin_centers, nx * ny)
    ])
    initial = (~grid.occupied_xy(centers[0], centers[1])).astype(float)
    initial /= initial.sum()
    hmm = DiscreteHmm(grid, cell, n_heading_bins, nx, ny, centers, {}, cfg.sensor_sigma, initial)

    noise = cfg.motion_noise
    cos_b, sin_b = np.cos(bin_centers)[:, None], np.sin(bin_centers)[:, None]
    cell_states = np.arange(nx * ny) * n_heading_bins
    for action in actions:
        target = bin_centers + action.omega
        if noise.sigma_omega == 0:
            head = np.zeros((n_heading_bins, n_heading_bins))
            head[np.arange(n_heading_bins), hmm.heading_bin(target)] = 1.0
        else:  # midpoint density at destination-bin centers
            diff = normalize_angles(bin_centers - target[:, None])
            dens = np.exp(-0.5 * (diff / noise.sigma_omega) ** 2)
            head = dens / dens.sum(axis=1, keepdims=True)

        # forward displacement: midpoint quadrature over +/- 6 sigma
        if noise.sigma_v == 0:
            s_nodes = np.array([action.v])
            s_weights = np.array([1.0])
        else:
            z = -6.0 + (np.arange(QUAD_POINTS) + 0.5) * 12.0 / QUAD_POINTS
            s_nodes = action.v + noise.sigma_v * z
            s_weights = np.exp(-0.5 * z * z)
            s_weights = s_weights / s_weights.sum()

        # the state every (destination bin, node, source cell) lands in; each
        # nonzero (source bin, destination bin) weight, row-major, then adds its
        # nodes' mass, so an entry sums the nodes of one bin pair in node order
        dst, on_lattice = hmm.state_index(
            cell_x + (cos_b * s_nodes)[:, :, None],
            cell_y + (sin_b * s_nodes)[:, :, None],
            bin_centers[:, None, None],
        )
        ib, bt = np.nonzero(head)
        src = cell_states + ib[:, None, None]
        keep = on_lattice[bt]
        trans = np.bincount(
            (src * n_states + dst[bt])[keep],
            weights=np.broadcast_to((head[ib, bt][:, None] * s_weights)[:, :, None], keep.shape)[keep],
            minlength=n_states * n_states,
        ).reshape(n_states, n_states)
        row_sums = trans.sum(axis=1)
        dead = row_sums == 0
        trans[dead, np.arange(n_states)[dead]] = 1.0  # all mass off-lattice: hold state
        row_sums[dead] = 1.0
        trans /= row_sums[:, None]

        src_idx, dst_idx = np.nonzero(trans)
        counts = grid.segment_collision_counts(
            centers[0, src_idx], centers[1, src_idx], centers[0, dst_idx], centers[1, dst_idx], cfg.collision_step
        )
        trans[src_idx, dst_idx] *= np.exp(-cfg.beta * counts)
        hmm.weighted_transitions[action] = trans
    return hmm


def emission_weights(hmm: DiscreteHmm, scan: DepthScan) -> np.ndarray:
    """The lattice weights of one scan, scaled so that the largest is 1."""
    log_e = hmm.log_emission(scan)
    m = log_e.max()
    if m == -np.inf:
        raise ImpossibleEvidenceError("observation impossible at every lattice state")
    return np.exp(log_e - m)


def exact_queue_posterior(
    hmm: DiscreteHmm, actions: list[Action], emissions: list[np.ndarray], lag: int
) -> dict[int, dict[int, np.ndarray]]:
    """Exact queue marginals p(x_{t+k} | plan, o_{2:t}, map) of every step t, from one sweep.

    ``actions`` holds the plan's actions for steps 2..T, so T =
    len(actions) + 1; ``emissions`` holds the `emission_weights` of scans
    2..len(emissions) + 1.  The result maps each t = 1..len(emissions) + 1
    to its window ``{k: marginal}`` (the time-1 belief is the prior,
    matching the filters), with offsets k over [-min(t-1, lag),
    +min(lag, T-t)].  Each step's filtered belief is computed once, before
    any window; each t then adds its planned predictions, its backward
    messages and their normalized products.  Every transition carries the
    traversability prior, so infeasible plans feed back into the current
    and past marginals exactly as in the queue filter.
    """
    if len(emissions) > len(actions):
        raise ValueError(f"{len(emissions)} emissions but only {len(actions)} actions")
    kernels = [hmm.weighted_transitions[a] for a in actions]  # kernels[j - 2] leads to step j

    def forward(j: int, msg: np.ndarray, emission: np.ndarray | None = None) -> np.ndarray:
        msg = kernels[j - 2].T @ msg
        if emission is not None:
            msg = msg * emission
        total = msg.sum()
        if not (total > 0 and np.isfinite(total)):
            raise ImpossibleEvidenceError(f"evidence has zero probability at step {j}")
        return msg / total

    filtered = [hmm.initial / hmm.initial.sum()]  # filtered[j - 1]: step j given scans 2..j
    for j, emission in enumerate(emissions, start=2):
        filtered.append(forward(j, filtered[-1], emission))

    out: dict[int, dict[int, np.ndarray]] = {}
    for t in range(1, len(emissions) + 2):
        n_past, n_future = min(t - 1, lag), min(lag, len(actions) + 1 - t)
        alphas = filtered[t - 1 - n_past : t]
        for j in range(t + 1, t + n_future + 1):
            alphas.append(forward(j, alphas[-1]))
        betas = [np.ones(hmm.n_states)]  # steps t + n_future down to t - n_past
        for j in range(t + n_future - 1, t - n_past - 1, -1):
            incoming = betas[-1] * emissions[j - 1] if j + 1 <= t else betas[-1]
            b = kernels[j - 1] @ incoming
            peak = b.max()
            if not (peak > 0 and np.isfinite(peak)):
                raise ImpossibleEvidenceError(f"evidence has zero probability beyond step {j}")
            betas.append(b / peak)
        out[t] = {}
        for k, alpha, beta in zip(range(-n_past, n_future + 1), alphas, betas[::-1]):
            m = alpha * beta
            total = m.sum()
            if not (total > 0 and np.isfinite(total)):
                raise ImpossibleEvidenceError(f"zero-probability marginal at offset {k}")
            out[t][k] = m / total
    return out


# ---------------------------------------------------------------------------
# validation plumbing
# ---------------------------------------------------------------------------

def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance, 0.5 * L1."""
    return float(0.5 * np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def bin_belief(hmm: DiscreteHmm, poses: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Histogram each slot of a particle window onto the lattice.

    ``poses`` is a coordinate-major ``(3, k, n)`` window, as `QueueState`
    stores it, and ``weights`` its ``(n,)`` particle weights; row ``j`` of the
    ``(k, n_states)`` result is the histogram of slot ``j``.  Off-lattice
    mass is dropped.  One ``bincount`` bins every slot: the slots are
    flattened one after the other, so each bin sums its weights in particle
    order, as a histogram of its slot alone would.
    """
    k = poses.shape[1]
    idx, on_lattice = hmm.state_index(*poses)  # (k, n): each slot's particles in order
    idx += np.arange(0, k * hmm.n_states, hmm.n_states)[:, None]
    idx[~on_lattice] = k * hmm.n_states  # one bin past every slot's, cut off below
    sums = np.bincount(idx.ravel(), weights=np.tile(weights, k), minlength=k * hmm.n_states + 1)
    return sums[:-1].reshape(k, hmm.n_states)


def _holds(hmm: DiscreteHmm, axis: int, value: float) -> np.ndarray:
    """The lattice image of a point mass at ``value`` on one axis (x, y or theta): 1.0 at
    the states whose cell or heading bin holds it, as `DiscreteHmm.state_index` bins it."""
    moved = hmm.centers.copy()
    moved[axis] = value
    state, on_lattice = hmm.state_index(*moved)
    return ((state == np.arange(hmm.n_states)) & on_lattice).astype(float)


def uniform_box_initial(hmm: DiscreteHmm, box: tuple[float, float, float, float, float, float]) -> np.ndarray:
    """Lattice distribution of a uniform box (xmin, xmax, ymin, ymax, thmin, thmax);
    a zero-width axis is a point mass (`_holds`), as the filter's sampler draws it."""
    xmin, xmax, ymin, ymax, thmin, thmax = box

    def overlap(lo: float, hi: float, centers: np.ndarray, width: float) -> np.ndarray:
        left = centers - width / 2
        right = centers + width / 2
        return np.clip(np.minimum(hi, right) - np.maximum(lo, left), 0.0, None)

    cx, cy, cth = hmm.centers
    ox = overlap(xmin, xmax, cx, hmm.cell) if xmax > xmin else _holds(hmm, 0, xmin)
    oy = overlap(ymin, ymax, cy, hmm.cell) if ymax > ymin else _holds(hmm, 1, ymin)
    if thmax > thmin:  # headings wrap, as the filter's sampler wraps them: every turn of a bin counts
        turns = np.arange(math.floor((thmin - math.pi) / TWO_PI), math.ceil((thmax + math.pi) / TWO_PI) + 1)
        width = TWO_PI / hmm.n_heading_bins
        oth = overlap(thmin, thmax, cth[:, None] + TWO_PI * turns, width).sum(axis=1)
    else:  # degenerate box: the bin of its one heading
        oth = _holds(hmm, 2, thmin)
    mass = ox * oy * oth
    total = mass.sum()
    if total <= 0:
        raise ValueError("uniform box does not overlap the lattice")
    return mass / total


def gaussian_initial(
    hmm: DiscreteHmm, mean: Pose, sigma_xy: float, sigma_theta: float
) -> np.ndarray:
    """Lattice distribution of the Gaussian initial belief around ``mean``;
    the axes of a zero sigma are a point mass there (`_holds`)."""

    def cdf(z: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))

    half = hmm.cell / 2
    cx, cy, cth = hmm.centers
    if sigma_xy == 0:
        px, py = _holds(hmm, 0, mean.x), _holds(hmm, 1, mean.y)
    else:
        px = cdf((cx + half - mean.x) / sigma_xy) - cdf((cx - half - mean.x) / sigma_xy)
        py = cdf((cy + half - mean.y) / sigma_xy) - cdf((cy - half - mean.y) / sigma_xy)
    if sigma_theta == 0:
        pth = _holds(hmm, 2, mean.theta)
    else:  # relative to the nearest bin centre, so that a sharp heading cannot underflow everywhere
        z2 = (normalize_angles(cth - mean.theta) / sigma_theta) ** 2
        pth = np.exp(-0.5 * (z2 - z2.min()))
    mass = px * py * pth
    total = mass.sum()
    if total <= 0:
        raise ValueError("gaussian initial belief has no mass on the lattice")
    return mass / total
