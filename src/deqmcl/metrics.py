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
from .worldsim import Pose

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial aggregates of one (method, trial) run."""

    rmse: float
    entropy: float
    variance: np.ndarray  # (var_x, var_y, var_cos, var_sin)


def _features(belief: BeliefSnapshot) -> np.ndarray:
    """The (n, 4) matrix of (x, y, cos theta, sin theta), one row per particle."""
    if belief.poses.shape[0] == 0:
        raise ValueError("belief holds no particles")
    theta = belief.poses[:, 2]
    return np.column_stack([belief.poses[:, 0], belief.poses[:, 1], np.cos(theta), np.sin(theta)])


def mean_state(belief: BeliefSnapshot) -> np.ndarray:
    """Weighted mean of (x, y, cos theta, sin theta) over the particles."""
    return _features(belief).T @ belief.weights


def error_from_mean(mean: np.ndarray, truth: Pose) -> float:
    """e_t: Euclidean distance between a 4-vector state mean (`mean_state`)
    and the true state."""
    ref = np.array([truth.x, truth.y, math.cos(truth.theta), math.sin(truth.theta)])
    return float(np.sqrt(np.sum((np.asarray(mean, float) - ref) ** 2)))


def trial_rmse(errors) -> float:
    """Aggregate per-step errors over a trial: the mean of e_t, each e_t
    already being a root of summed squares."""
    values = np.asarray(errors, dtype=float)
    if values.size == 0:
        raise ValueError("no step errors to aggregate")
    return float(values.mean())


def belief_entropy(belief: BeliefSnapshot, cell: float, n_heading_bins: int) -> float:
    """Plug-in histogram entropy (nats) of the belief over (x, y, theta) bins."""
    if cell <= 0 or n_heading_bins < 1:
        raise ValueError("cell must be positive and n_heading_bins >= 1")
    if belief.poses.shape[0] == 0:
        raise ValueError("belief holds no particles")
    ix = np.floor(belief.poses[:, 0] / cell).astype(np.int64)
    iy = np.floor(belief.poses[:, 1] / cell).astype(np.int64)
    width = TWO_PI / n_heading_bins
    ib = np.minimum(
        ((belief.poses[:, 2] + math.pi) / width).astype(np.int64), n_heading_bins - 1
    )
    # One int64 key per (ix, iy, ib) bin, in lexicographic bin order, so the
    # bins come out of `np.unique` in the order a row sort gives them;
    # `ravel_multi_index` raises where the key space would overflow.
    bins = [b - b.min() for b in (ix, iy, ib)]
    keys = np.ravel_multi_index(bins, [int(b.max()) + 1 for b in bins])
    _, inverse = np.unique(keys, return_inverse=True)
    p = np.bincount(inverse, weights=belief.weights)
    p = p[p > 0]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum())


def belief_variance(belief: BeliefSnapshot) -> np.ndarray:
    """Weighted variance of each of x, y, cos theta, sin theta."""
    feats = _features(belief)
    w = belief.weights
    mean = feats.T @ w
    return ((feats - mean) ** 2).T @ w
