"""Particle-filter localizers over a known occupancy grid.

All four estimators run one window step, `_window_step`.  Each particle is a
trajectory over the window [t - n_past, t + n_future]: the step samples the
new current pose under the executed action, rolls the future side afresh
along the planned actions, weights every sampled transition by the
traversability prior exp(-beta * C) on the moved segment (C = collision
sample count), keeps up to ``lag`` past poses, and weights by the scan
likelihood at the new current pose.  The likelihood raycasts every pose, one
inside an obstacle too, and then gives each such pose -inf.

* ``deq_init``/``deq_step`` -- the queue filter: ``lag`` past poses and up to
                             ``lag`` planned future poses, so infeasible
                             futures feed back into the present and past
                             belief,
* ``mcl_smoother_step``   -- the queue filter with beta 0 and no future side:
                             the marginal at offset -lag is the fixed-lag
                             smoothed belief,
* ``mcl_map_motion_step`` -- the queue filter with lag 0: MCL whose motion
                             update is multiplied by the prior,
* ``mcl_step``            -- the queue filter with lag 0 and beta 0: plain
                             Monte-Carlo localization.

With beta 0 the prior is skipped, which is exact: it would add -0.0 to every
log weight.  All weights live in log domain.  Every step consumes its random
stream in a fixed documented order (per transition a v noise block, then an
omega noise block; then at most one uniform for resampling), so the
baselines equal the queue filter's special cases bit for bit.  The prior of
a roll-out is evaluated in groups of whole transitions (`_PRIOR_SEGMENTS`)
after all of its poses are drawn, and added to the log weights one
transition at a time, first to last, so grouping changes no draw and no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .gridmap import OccupancyGrid
from .worldsim import Action, ActionPlan, DepthScan, NoiseParams, normalize_angles

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# `_roll_out` evaluates the traversability prior over at most this many
# segments per call, in groups of whole transitions (one transition per call
# when n exceeds it).  On paper.cfg's 1,000 particles and 21 transitions, a
# budget of 2,048 / 4,096 / 8,192 / 16,384 / 32,768 segments spent 2.17-2.46
# / 1.82-1.95 / 1.46-1.63 / 1.44-1.68 / 1.70-1.86 s in `_roll_out` over three
# battery calls (2 cores, numpy 2.4.6), against 2.92-3.15 s at one call per
# transition: fewer calls save interpreter overhead until the collision
# count's temporaries outgrow the cache.
_PRIOR_SEGMENTS = 1 << 13

InitSampler = Callable[[np.random.Generator, int], np.ndarray]  # (rng, n) -> (3, n) coordinate rows


def _check_rows(name: str, a: np.ndarray) -> None:
    """A `ValueError` unless ``a`` is ``(3, n)`` coordinate rows, one row per coordinate."""
    if a.ndim != 2 or a.shape[0] != 3:
        raise ValueError(f"{name} must be coordinate rows, shape (3, n), got {a.shape}")


class FilterDegeneracyError(RuntimeError):
    """The filter has no usable particle: all weights vanished or, as an
    `InitializationError`, no initial particle is free; the caller decides how to recover."""


class InitializationError(FilterDegeneracyError):
    """The initial belief sampler produced no usable particles."""


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 1000
    lag: int = 0
    beta: float = 0.0
    motion_noise: NoiseParams = field(default_factory=NoiseParams)
    sensor_sigma: float = 2.0
    resample_threshold: float = 0.5
    collision_step: float = 1.0

    def __post_init__(self):
        for name in ("n_particles", "lag"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # written as not (x >= lo) so that NaN fails every check
        if not self.n_particles >= 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if not self.lag >= 0:
            raise ValueError(f"lag must be >= 0, got {self.lag}")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        if not (self.sensor_sigma > 0 and math.isfinite(self.sensor_sigma)):
            raise ValueError(f"sensor_sigma must be > 0 and finite, got {self.sensor_sigma}")
        if not 0.0 <= self.resample_threshold <= 1.0:
            raise ValueError(f"resample_threshold must be in [0, 1], got {self.resample_threshold}")
        if not (self.collision_step > 0 and math.isfinite(self.collision_step)):
            raise ValueError(f"collision_step must be > 0 and finite, got {self.collision_step}")


@dataclass(frozen=True)
class BeliefSnapshot:
    """Weighted particle cloud of one pose of the window, in coordinate rows as a slot."""

    poses: np.ndarray    # (3, n)
    weights: np.ndarray  # (n,), sums to 1

    def __post_init__(self):
        _check_rows("poses", self.poses)
        if self.weights.shape != (self.poses.shape[1],):
            raise ValueError("weights must match the particle count")

    @cached_property
    def features(self) -> np.ndarray:
        """The (n, 4) matrix of (x, y, cos theta, sin theta), one row per
        particle, built once per snapshot: `metrics.mean_state` and
        `metrics.belief_variance` read it through BLAS, whose bits depend on
        this layout.  `cached_property` stores it in the instance ``__dict__``
        directly, which a frozen dataclass without ``__slots__`` allows."""
        if self.poses.shape[1] == 0:
            raise ValueError("belief holds no particles")
        x, y, theta = self.poses
        return np.column_stack([x, y, np.cos(theta), np.sin(theta)])


@dataclass
class QueueState:
    """Particle approximation of the joint belief over a sliding time window.

    Stored coordinate-major, as `_roll_out` draws it: ``poses[c, k]`` is
    coordinate ``c`` (x, y, heading) of slot ``k`` for every particle, one
    contiguous n-vector.  Slot ``n_past`` is the current-time marginal, the
    slots before it hold past states (oldest first) and those after it
    predicted future states.  Plain MCL is the degenerate case n_past ==
    n_future == 0.  ``future_log_priors[k - 1]`` is the log traversability
    prior of the predicted transition into slot ``n_past + k``.  `slot` and
    `marginal` take an offset from now in ``[-n_past, +n_future]``, else raise `ValueError`.
    """

    t: int
    poses: np.ndarray              # (3, n_past + 1 + n_future, n)
    log_weights: np.ndarray        # (n,)
    future_log_priors: np.ndarray  # (n_future, n)

    def __post_init__(self):
        if self.poses.ndim != 3 or self.poses.shape[0] != 3:
            raise ValueError(f"poses must be coordinate-major, shape (3, slots, n), got {self.poses.shape}")
        if self.log_weights.shape != (self.n_particles,):
            raise ValueError("log_weights must match the particle count")
        priors = self.future_log_priors.shape
        if len(priors) != 2 or priors[1] != self.n_particles or priors[0] >= self.poses.shape[1]:
            raise ValueError(f"future_log_priors shape {priors} does not fit poses {self.poses.shape}")

    @property
    def n_past(self) -> int:
        return self.poses.shape[1] - 1 - self.n_future

    @property
    def n_future(self) -> int:
        return self.future_log_priors.shape[0]

    @property
    def n_particles(self) -> int:
        return self.poses.shape[2]

    def slot(self, offset: int) -> np.ndarray:
        """The ``(3, n)`` poses at ``offset`` steps from now, a view of the window's rows."""
        if not -self.n_past <= offset <= self.n_future:
            raise ValueError(f"offset {offset} outside queue span [-{self.n_past}, +{self.n_future}]")
        return self.poses[:, self.n_past + offset]

    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights)
        return w / w.sum()

    def marginal(self, offset: int) -> BeliefSnapshot:
        """Weighted particle cloud of the pose at ``offset`` steps from now, its slot copied."""
        return BeliefSnapshot(self.slot(offset).copy(), self.weights())


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def motion_sample_batch(
    poses: np.ndarray, action: Action, noise: NoiseParams, rng: np.random.Generator
) -> np.ndarray:
    """Propagate ``(3, n)`` coordinate rows of poses through the noisy unicycle kernel.

    Draw order: n standard normals for the v perturbations, then n for omega.
    Any other shape is a `ValueError`; a particle-major ``(3, 3)`` array
    cannot be told apart from coordinate rows.
    """
    _check_rows("poses", poses)
    n = poses.shape[1]
    dv = rng.standard_normal(n) * noise.sigma_v
    domega = rng.standard_normal(n) * noise.sigma_omega
    theta = normalize_angles(poses[2] + action.omega + domega)
    out = np.empty_like(poses)
    v = action.v + dv
    out[0] = poses[0] + v * np.cos(theta)
    out[1] = poses[1] + v * np.sin(theta)
    out[2] = theta
    return out


def observation_log_likelihood_batch(
    scan: DepthScan, poses: np.ndarray, grid: OccupancyGrid, sensor_sigma: float
) -> np.ndarray:
    """Per-pose log p(scan | pose, map) of ``(3, n)`` coordinate rows: independent Gaussian beams.

    Each beam contributes the log density of (observed - predicted) range at
    std ``sensor_sigma``, with the prediction raycast from the pose by the
    scan's own `BeamConfig`.  Every pose is cast as given; a pose inside an
    obstacle or off the grid then gets -inf in place of its cast's value.
    A pose's value does not depend on the other poses of the batch.
    """
    if not (sensor_sigma > 0 and math.isfinite(sensor_sigma)):  # written so that NaN fails
        raise ValueError(f"sensor_sigma must be > 0 and finite, got {sensor_sigma}")
    x, y, theta = poses
    resid = scan.ranges[None, :] - scan.beams.cast(grid, x, y, theta)
    log_lik = -0.5 * ((resid / sensor_sigma) ** 2).sum(axis=1) - scan.ranges.size * (
        math.log(sensor_sigma) + LOG_SQRT_2PI
    )
    log_lik[grid.occupied_xy(x, y)] = -np.inf
    return log_lik


def traversability_log_prior_batch(
    grid: OccupancyGrid, prev: np.ndarray, nxt: np.ndarray, beta: float, step: float
) -> np.ndarray:
    """log exp(-beta * C) for each motion segment between the ``(3, n)`` coordinate rows
    ``prev`` and ``nxt``, C = collision sample count.  Any other shape is a `ValueError`;
    a particle-major ``(3, 3)`` array cannot be told apart from coordinate rows."""
    if not (beta >= 0 and math.isfinite(beta)):  # written so that NaN fails
        raise ValueError(f"beta must be >= 0 and finite, got {beta}")
    _check_rows("prev", prev)
    _check_rows("nxt", nxt)
    counts = grid.segment_collision_counts(prev[0], prev[1], nxt[0], nxt[1], step)
    return -(beta * counts)


def effective_sample_size(log_weights: np.ndarray) -> float:
    """1 / sum(w^2) of the normalized weights."""
    w = np.exp(log_weights - log_weights.max())
    w = w / w.sum()
    return float(1.0 / (w * w).sum())


def systematic_resample(weights, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: particle indices from one uniform offset and stride 1/n.

    Copy counts satisfy floor(n * w_i) <= count_i <= ceil(n * w_i).  Raises
    `FilterDegeneracyError` when all weights are zero.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1D array")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0:
        raise FilterDegeneracyError("all resampling weights are zero")
    n = w.size
    cum = (w / total).cumsum()
    cum[-1] = 1.0
    u = (rng.random() + np.arange(n)) / n
    return cum.searchsorted(u, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# shared step plumbing
# ---------------------------------------------------------------------------

def _normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    m = log_weights.max()
    if m == -np.inf:
        raise FilterDegeneracyError("all particle weights vanished")
    if not math.isfinite(m):
        raise FilterDegeneracyError(f"non-finite particle log-weight ({m})")
    return log_weights - (m + math.log(np.exp(log_weights - m).sum()))


def _finish_step(
    log_weights: np.ndarray, cfg: FilterConfig, rng: np.random.Generator, *per_particle: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Normalize, then resample whole particles when ESS drops below threshold.

    Returns the log weights followed by the ``per_particle`` arrays, each
    taken along its particle axis, the last, by the same resampled indices.
    """
    log_weights = _normalize_log_weights(log_weights)
    w = np.exp(log_weights)
    ess = 1.0 / (w * w).sum()
    if ess < cfg.resample_threshold * w.size:
        idx = systematic_resample(w, rng)
        per_particle = tuple(a.take(idx, axis=-1) for a in per_particle)
        log_weights = np.full(w.size, -math.log(w.size))
    return (log_weights, *per_particle)


def init_belief(
    cfg: FilterConfig, init_sampler: InitSampler, grid: OccupancyGrid, rng: np.random.Generator
) -> QueueState:
    """Uniform-weight belief at time 1, drawn as ``(3, n)`` coordinate rows by the initial-belief sampler."""
    poses = np.array(init_sampler(rng, cfg.n_particles), dtype=float)
    if poses.shape != (3, cfg.n_particles):
        raise InitializationError(f"init sampler returned {poses.shape}, not coordinate rows (3, {cfg.n_particles})")
    poses[2] = normalize_angles(poses[2])
    if grid.occupied_xy(poses[0], poses[1]).all():
        raise InitializationError("every initial particle lies in occupied space")
    logw = np.full(cfg.n_particles, -math.log(cfg.n_particles))
    return QueueState(t=1, poses=poses[:, None], log_weights=logw, future_log_priors=np.empty((0, cfg.n_particles)))


# ---------------------------------------------------------------------------
# the window step
# ---------------------------------------------------------------------------

def _roll_out(
    start: np.ndarray,
    actions: list[Action],
    log_weights: np.ndarray,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one pose per action from ``start`` on, weighting each transition.

    Returns the sampled poses ``(3, len(actions), n)``, coordinate-major as
    `QueueState` stores them, the log traversability prior of each
    transition ``(len(actions), n)``, and ``log_weights`` with those priors
    added one transition at a time, first to last (one axis-0 reduction).
    With beta 0 every prior is -0.0, so it is stored but neither computed
    nor added.

    The poses are drawn one transition at a time, as `motion_sample_batch`
    draws them, into a ``(3, len(actions) + 1, n)`` chain whose slot 0 is
    ``start``; each draw reads and writes whole coordinate rows.  The prior
    is then evaluated once per group of ``max(1, _PRIOR_SEGMENTS // n)``
    whole transitions, on the group's segments read as views of the chain
    with no copy; segment counts do not depend on the batch they are counted
    in, so the priors are those of one call per transition.
    """
    n, n_actions = start.shape[1], len(actions)
    chain = np.empty((3, n_actions + 1, n))
    chain[:, 0] = start
    for k, action in enumerate(actions):
        chain[:, k + 1] = motion_sample_batch(chain[:, k], action, cfg.motion_noise, rng)
    log_priors = np.full((n_actions, n), -0.0)
    if cfg.beta:
        group = max(1, _PRIOR_SEGMENTS // n)
        for lo in range(0, n_actions, group):
            hi = min(lo + group, n_actions)
            log_priors[lo:hi] = traversability_log_prior_batch(
                grid, chain[:, lo:hi].reshape(3, -1), chain[:, lo + 1 : hi + 1].reshape(3, -1),
                cfg.beta, cfg.collision_step,
            ).reshape(hi - lo, n)
        log_weights = np.add.reduce(np.vstack([log_weights, log_priors]))
    return chain[:, 1:], log_priors, log_weights


def _window_step(
    state: QueueState,
    actions: list[Action],
    scan: DepthScan,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """Advance a window belief by one time step.

    ``actions`` holds the executed action followed by the planned actions of
    the new future side.  Per particle: back out the stored future factors
    ``f``, sample the new current pose (prior ``p_0``), re-propose the future
    side (priors ``n``), drop the oldest pose once the past side holds
    ``cfg.lag`` states, and weight by the scan likelihood at the new current
    pose, in the order ``((logw - f_1 ... - f_F) + p_0 + n_1 ... + n_F) + obs``;
    then normalize and resample whole windows when the ESS falls below
    threshold.
    """
    # in the order `_roll_out` added them, one axis-0 reduction
    logw = np.subtract.reduce(np.vstack([state.log_weights, state.future_log_priors]))
    rolled, log_priors, logw = _roll_out(state.slot(0), actions, logw, cfg, grid, rng)
    n_past = min(state.n_past + 1, cfg.lag)
    past = state.poses[:, state.n_past + 1 - n_past : state.n_past + 1]
    obs = observation_log_likelihood_batch(scan, rolled[:, 0], grid, cfg.sensor_sigma)
    logw, poses, future_log_priors = _finish_step(
        logw + obs, cfg, rng, np.concatenate([past, rolled], axis=1), log_priors[1:]
    )
    return QueueState(t=state.t + 1, poses=poses, log_weights=logw, future_log_priors=future_log_priors)


# ---------------------------------------------------------------------------
# the four filters
# ---------------------------------------------------------------------------

def mcl_step(
    state: QueueState,
    action: Action,
    scan: DepthScan,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """Plain MCL: propagate, weight by the scan likelihood, resample on low ESS."""
    return _window_step(state, [action], scan, replace(cfg, lag=0, beta=0.0), grid, rng)


def mcl_map_motion_step(
    state: QueueState,
    action: Action,
    scan: DepthScan,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """MCL with the motion kernel multiplied by the traversability prior."""
    return _window_step(state, [action], scan, replace(cfg, lag=0), grid, rng)


def mcl_smoother_step(
    state: QueueState,
    action: Action,
    scan: DepthScan,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """MCL whose particles carry their last ``lag`` poses.

    Resampling copies histories atomically, so the marginal at offset -lag is
    the fixed-lag smoothed distribution of time t - lag.
    """
    return _window_step(state, [action], scan, replace(cfg, beta=0.0), grid, rng)


def deq_init(
    cfg: FilterConfig,
    init_sampler: InitSampler,
    plan: ActionPlan,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """Queue belief at time 1: initial poses rolled ``min(lag, T-1)`` steps ahead.

    The future side is sampled from the motion kernel under the planned
    actions (plan steps 2 .. 1+F) and each rolled transition multiplies the
    weight by the traversability prior, which the state keeps per transition.
    """
    base = init_belief(cfg, init_sampler, grid, rng)
    f_target = min(cfg.lag, plan.horizon - 1)
    actions = [plan.action(k) for k in range(2, f_target + 2)]
    future, future_log_priors, logw = _roll_out(
        base.slot(0), actions, base.log_weights, cfg, grid, rng
    )
    return QueueState(
        t=1, poses=np.concatenate([base.poses, future], axis=1), log_weights=_normalize_log_weights(logw),
        future_log_priors=future_log_priors,
    )


def deq_step(
    state: QueueState,
    t: int,
    action: Action,
    scan: DepthScan,
    plan: ActionPlan,
    cfg: FilterConfig,
    grid: OccupancyGrid,
    rng: np.random.Generator,
) -> QueueState:
    """Advance the queue filter from time t-1 to t.

    The future side is re-proposed along the plan, ``min(lag, T-t)`` steps.
    """
    if t != state.t + 1:
        raise ValueError(f"deq_step expects t == {state.t + 1}, got {t}")
    f_target = min(cfg.lag, plan.horizon - t)
    actions = [action] + [plan.action(t + k) for k in range(1, f_target + 1)]
    return _window_step(state, actions, scan, cfg, grid, rng)
