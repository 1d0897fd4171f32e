"""Evaluation metrics: per-step estimation error, its trial mean, and the
entropy and per-dimension variance of a particle belief.

The state for error purposes is the 4-vector (x, y, cos theta, sin theta);
angle averages use the weighted mean of cos and sin directly, matching the
per-dimension variance reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import BeliefSnapshot
from .worldsim import TWO_PI, Pose

# `belief_entropy` sums each bin's weight with one `bincount` over the raveled
# (ix, iy, ib) key while the key space holds at most this many bins, and
# through `np.unique`'s inverse above it.  Measured per call, keys to
# `p[p > 0]` (2 cores, numpy 2.4.6): at 1,000 particles the `np.unique` path
# costs 22 us whatever the spread, and the direct bincount 4 / 18 / 32 us at
# 1,000 / 32,000 / 64,000 bins; at 10,000 particles 171-200 us against
# 142 / 198 / 254 us at 40,000 / 80,000 / 160,000 bins.  On paper.cfg (3
# trials at seed 1) the key space has median 4,579 bins and p99 39,989, so
# 2.3% of its records take the `np.unique` path.
_ENTROPY_BINS = 1 << 15


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial aggregates of one (method, trial) run."""

    rmse: float
    entropy: float
    variance: np.ndarray  # (var_x, var_y, var_cos, var_sin)


def mean_state(belief: BeliefSnapshot) -> np.ndarray:
    """Weighted mean of (x, y, cos theta, sin theta) over the particles."""
    return belief.features.T @ belief.weights


def error_from_mean(mean: np.ndarray, truth: Pose) -> float:
    """e_t: Euclidean distance between a 4-vector state mean (`mean_state`)
    and the true state."""
    ref = np.array([truth.x, truth.y, math.cos(truth.theta), math.sin(truth.theta)])
    return float(np.sqrt(((np.asarray(mean, float) - ref) ** 2).sum()))


def trial_rmse(errors) -> float:
    """Aggregate per-step errors over a trial: the mean of e_t, each e_t
    already being a root of summed squares."""
    values = np.asarray(errors, dtype=float)
    if values.size == 0:
        raise ValueError("no step errors to aggregate")
    return float(values.mean())


def belief_entropy(belief: BeliefSnapshot, cell: float, n_heading_bins: int) -> float:
    """Plug-in histogram entropy (nats) of the belief over (x, y, theta) bins."""
    if not (cell > 0 and math.isfinite(cell)):
        raise ValueError(f"cell must be positive and finite, got {cell}")
    if (isinstance(n_heading_bins, bool) or not isinstance(n_heading_bins, (int, np.integer))
            or not n_heading_bins >= 1):
        raise ValueError(f"n_heading_bins must be an integer >= 1, got {n_heading_bins!r}")
    x, y, theta = belief.poses
    if theta.size == 0:
        raise ValueError("belief holds no particles")
    ix = np.floor(x / cell).astype(np.int64)
    iy = np.floor(y / cell).astype(np.int64)
    width = TWO_PI / n_heading_bins
    ib = np.minimum(((theta + math.pi) / width).astype(np.int64), n_heading_bins - 1)
    # One int64 key per (ix, iy, ib) bin, in lexicographic bin order;
    # `ravel_multi_index` raises where the key space would overflow.  Either
    # path below sums each bin's weights in particle order and lists the bins
    # in key order, so `p` has the same bits whichever runs: the bincount over
    # the keys themselves leaves empty bins as zeros, which `p > 0` drops, and
    # `np.unique`'s inverse numbers only the occupied bins, in key order.
    bins = [b - b.min() for b in (ix, iy, ib)]
    shape = [int(b.max()) + 1 for b in bins]
    keys = np.ravel_multi_index(bins, shape)
    if math.prod(shape) > _ENTROPY_BINS:
        _, keys = np.unique(keys, return_inverse=True)
    p = np.bincount(keys, weights=belief.weights)
    p = p[p > 0]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum())


def belief_variance(belief: BeliefSnapshot) -> np.ndarray:
    """Weighted variance of each of x, y, cos theta, sin theta."""
    feats = belief.features
    w = belief.weights
    mean = feats.T @ w
    return ((feats - mean) ** 2).T @ w
