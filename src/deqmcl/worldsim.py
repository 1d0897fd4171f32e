"""Ground-truth 2D world: unicycle kinematics, noisy actions, depth sensing, loop plans.

Conventions: x rightward, y upward, heading theta in radians counterclockwise
from +x and always normalized to (-pi, pi].  One simulation step applies one
action: rotate by omega, then translate v along the new heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridmap import OccupancyGrid, Point2

TWO_PI = 2.0 * math.pi
MAX_PLAN_ACTIONS = 100_000  # a waypoint plan longer than this did not converge


class PlanError(ValueError):
    """A plan cannot be built or its noise-free rollout collides."""


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = theta % TWO_PI
    if t > math.pi:
        t -= TWO_PI
    return t


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    t = np.fmod(theta, TWO_PI)
    t += (t < 0) * TWO_PI  # numpy's remainder rule, as `np.mod`; -0.0 + 0.0 is +0.0
    t -= (t > math.pi) * TWO_PI  # t - 0.0 is t, -0.0 included
    return t


@dataclass(frozen=True)
class Pose:
    """Robot state: planar position plus heading, heading kept in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise ValueError(f"pose fields must be finite, got {(self.x, self.y, self.theta)}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class Action:
    """One step of motor control: forward displacement v and rotation omega."""

    v: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ValueError(f"action fields must be finite, got ({self.v}, {self.omega})")


@dataclass(frozen=True)
class ActionPlan:
    """The executed-plus-planned control sequence, indexed 1..T.

    Slot 1 is the start step: the robot is already at its start pose at time
    1, so plan builders put a zero action there and the harness never executes
    it.  Action t moves the state at time t-1 to the state at time t.
    """

    actions: tuple[Action, ...]

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError("a plan must contain at least one action")

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def action(self, t: int) -> Action:
        if not 1 <= t <= len(self.actions):
            raise IndexError(f"plan step {t} outside 1..{len(self.actions)}")
        return self.actions[t - 1]


@dataclass(frozen=True)
class NoiseParams:
    """Standard deviations for action execution and range sensing noise."""

    sigma_v: float = 0.5
    sigma_omega: float = 0.05
    sigma_range: float = 2.0

    def __post_init__(self):
        for name in ("sigma_v", "sigma_omega", "sigma_range"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):  # written so that NaN fails the check
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class BeamConfig:
    """Depth sensor geometry: beam headings relative to the robot heading."""

    headings: tuple[float, ...] = (
        -math.pi / 3,
        -math.pi / 6,
        0.0,
        math.pi / 6,
        math.pi / 3,
    )
    max_range: float = 100.0
    ray_step: float = 0.5

    def __post_init__(self):
        if len(self.headings) < 1:
            raise ValueError("at least one beam is required")
        if not all(math.isfinite(h) for h in self.headings):
            raise ValueError(f"beam headings must be finite, got {self.headings}")
        # written so that NaN fails the checks
        if not (self.max_range > 0 and math.isfinite(self.max_range)):
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        if not (self.ray_step > 0 and math.isfinite(self.ray_step)):
            raise ValueError(f"ray_step must be positive and finite, got {self.ray_step}")

    def cast(self, grid: OccupancyGrid, x, y, theta) -> np.ndarray:
        """The noise-free range of every beam from each pose (scalars: one pose),
        ``(n_poses, n_beams)``; beam ``j`` leaves pose ``i`` at ``theta[i] + headings[j]``."""
        n = len(self.headings)
        x, y, theta = np.asarray(x).repeat(n), np.asarray(y).repeat(n), np.add.outer(theta, self.headings).ravel()
        return grid.raycast_batch(x, y, theta, self.max_range, self.ray_step).reshape(-1, n)


@dataclass(frozen=True)
class DepthScan:
    """One sensor reading: a range in [0, max_range] per beam of the
    `BeamConfig` it was read with, which the likelihood raycasts again."""

    ranges: np.ndarray
    beams: BeamConfig

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=float)
        n_beams = len(self.beams.headings)
        if ranges.shape != (n_beams,):
            raise ValueError(f"a scan needs one range per beam ({n_beams}), got shape {ranges.shape}")
        if not ((ranges >= 0) & (ranges <= self.beams.max_range)).all():  # written so that NaN fails
            raise ValueError("ranges must lie in [0, max_range]")
        object.__setattr__(self, "ranges", ranges)


def apply_action(pose: Pose, action: Action) -> Pose:
    """Deterministic unicycle step: rotate by omega, then drive v forward."""
    theta = normalize_angle(pose.theta + action.omega)
    return Pose(pose.x + action.v * math.cos(theta), pose.y + action.v * math.sin(theta), theta)


def step_true(pose: Pose, action: Action, noise: NoiseParams, rng: np.random.Generator) -> Pose:
    """Ground-truth step: apply_action with Gaussian-perturbed v and omega.

    Draws exactly two standard normal variates, v noise first, then omega
    noise, so trajectories are reproducible from the stream alone.
    """
    dv = float(rng.standard_normal()) * noise.sigma_v
    domega = float(rng.standard_normal()) * noise.sigma_omega
    return apply_action(pose, Action(action.v + dv, action.omega + domega))


def sense(
    grid: OccupancyGrid,
    pose: Pose,
    beams: BeamConfig,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> DepthScan:
    """Simulate one depth scan from ``pose``; one noise variate per beam, in beam order."""
    if grid.occupied_xy(pose.x, pose.y):
        raise ValueError(f"sensor pose ({pose.x}, {pose.y}) is inside an obstacle")
    true_ranges = beams.cast(grid, pose.x, pose.y, pose.theta)[0]
    perturbed = true_ranges + rng.standard_normal(true_ranges.size) * noise.sigma_range
    return DepthScan(perturbed.clip(0.0, beams.max_range), beams)


def rollout(start: Pose, plan: ActionPlan) -> list[Pose]:
    """Noise-free pose chain [start, pose after step 1, ...]."""
    poses = [start]
    for action in plan.actions:
        poses.append(apply_action(poses[-1], action))
    return poses


def check_rollout(grid: OccupancyGrid, start: Pose, plan: ActionPlan, collision_step: float) -> None:
    """Raise `PlanError` at the first step whose noise-free rollout segment
    touches an occupied sample (sampled every ``collision_step``)."""
    poses = rollout(start, plan)
    xy = np.array([[p.x, p.y] for p in poses])
    counts = grid.segment_collision_counts(xy[:-1, 0], xy[:-1, 1], xy[1:, 0], xy[1:, 1], collision_step)
    hits = np.flatnonzero(counts)
    if hits.size:
        i = int(hits[0]) + 1
        a, b = poses[i - 1], poses[i]
        raise PlanError(
            f"noise-free rollout collides on step {i}: "
            f"({a.x:.1f}, {a.y:.1f}) -> ({b.x:.1f}, {b.y:.1f}), {counts[i - 1]} contact samples"
        )


def build_loop_plan(
    grid: OccupancyGrid,
    start: Pose,
    waypoints: list[Point2],
    v_step: float,
    omega_step: float,
    collision_step: float = 1.0,
) -> ActionPlan:
    """Build a turn-then-drive plan visiting ``waypoints`` in order.

    At each waypoint the plan first emits rotation actions (each |omega| <=
    omega_step) until the heading points at the waypoint within omega_step/2,
    then forward actions (v = v_step) until within v_step of it; the aim is
    re-checked every step so long legs stay on course.  The returned plan
    starts with a zero action (the start step, never executed) and its
    noise-free rollout passes `check_rollout`.  Waypoints that leave it no
    executed step, all within v_step of the start, are a `PlanError`.
    """
    if not all(step > 0 and math.isfinite(step) for step in (v_step, omega_step)):  # written so that NaN fails
        raise PlanError(f"v_step and omega_step must be positive and finite, got {v_step}, {omega_step}")
    for i, wp in enumerate(waypoints):
        if grid.occupied_xy(wp.x, wp.y):
            raise PlanError(f"waypoint {i} at ({wp.x}, {wp.y}) is in occupied space")

    actions = [Action(0.0, 0.0)]
    pose = start
    for wp in waypoints:
        while True:
            dx, dy = wp.x - pose.x, wp.y - pose.y
            if math.hypot(dx, dy) <= v_step:
                break
            err = normalize_angle(math.atan2(dy, dx) - pose.theta)
            if abs(err) > omega_step / 2:
                act = Action(0.0, max(-omega_step, min(omega_step, err)))
            else:
                act = Action(v_step, 0.0)
            actions.append(act)
            pose = apply_action(pose, act)
            if len(actions) > MAX_PLAN_ACTIONS:
                raise PlanError(f"plan did not converge within {MAX_PLAN_ACTIONS} actions")

    if len(actions) == 1:
        raise PlanError(
            f"waypoint plan has no executed step: every waypoint lies within v_step {v_step} "
            f"of the start ({start.x}, {start.y})"
        )
    plan = ActionPlan(tuple(actions))
    check_rollout(grid, start, plan, collision_step)
    return plan
