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


class PlanError(ValueError):
    """A waypoint plan cannot be built or its noise-free rollout collides."""


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = theta % TWO_PI
    if t > math.pi:
        t -= TWO_PI
    return t


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    t = np.mod(theta, TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, t)


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

    @property
    def position(self) -> Point2:
        return Point2(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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
        # written so that NaN fails the checks
        if not (self.max_range > 0 and math.isfinite(self.max_range)):
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")
        if not (self.ray_step > 0 and math.isfinite(self.ray_step)):
            raise ValueError(f"ray_step must be positive and finite, got {self.ray_step}")


@dataclass(frozen=True)
class DepthScan:
    """One sensor reading: a range per beam, clamped to [0, max_range].

    Carries the sensor geometry (beam headings, max range, ray step) so that
    likelihood evaluation can reproduce the exact raycast the sensor used.
    """

    ranges: np.ndarray
    beam_headings: np.ndarray
    max_range: float
    ray_step: float

    def __post_init__(self):
        ranges = np.asarray(self.ranges, dtype=float)
        headings = np.asarray(self.beam_headings, dtype=float)
        if ranges.shape != headings.shape or ranges.ndim != 1 or ranges.size < 1:
            raise ValueError("ranges and beam_headings must be equal-length 1D arrays")
        if np.any(ranges < 0) or np.any(ranges > self.max_range):
            raise ValueError("ranges must lie in [0, max_range]")
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "beam_headings", headings)


def apply_action(pose: Pose, action: Action) -> Pose:
    """Deterministic unicycle step: rotate by omega, then drive v forward."""
    theta = normalize_angle(pose.theta + action.omega)
    return Pose(pose.x + action.v * math.cos(theta), pose.y + action.v * math.sin(theta), theta)


def apply_action_array(poses: np.ndarray, action: Action) -> np.ndarray:
    """`apply_action` over an (n, 3) pose array."""
    theta = normalize_angles(poses[:, 2] + action.omega)
    out = np.empty_like(poses)
    out[:, 0] = poses[:, 0] + action.v * np.cos(theta)
    out[:, 1] = poses[:, 1] + action.v * np.sin(theta)
    out[:, 2] = theta
    return out


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
    if grid.is_occupied(pose.position):
        raise ValueError(f"sensor pose ({pose.x}, {pose.y}) is inside an obstacle")
    headings = np.asarray(beams.headings, dtype=float)
    true_ranges = grid.raycast_batch(
        np.full(headings.shape, pose.x),
        np.full(headings.shape, pose.y),
        pose.theta + headings,
        beams.max_range,
        beams.ray_step,
    )
    perturbed = true_ranges + rng.standard_normal(headings.size) * noise.sigma_range
    ranges = np.clip(perturbed, 0.0, beams.max_range)
    return DepthScan(
        ranges=ranges,
        beam_headings=headings,
        max_range=beams.max_range,
        ray_step=beams.ray_step,
    )


def rollout(start: Pose, plan: ActionPlan, from_step: int = 1) -> list[Pose]:
    """Noise-free pose chain [start, pose after step from_step, ...]."""
    poses = [start]
    for t in range(from_step, plan.horizon + 1):
        poses.append(apply_action(poses[-1], plan.action(t)))
    return poses


def build_loop_plan(
    grid: OccupancyGrid,
    start: Pose,
    waypoints: list[Point2],
    v_step: float,
    omega_step: float,
    collision_step: float = 1.0,
    max_actions: int = 100_000,
) -> ActionPlan:
    """Build a turn-then-drive plan visiting ``waypoints`` in order.

    At each waypoint the plan first emits rotation actions (each |omega| <=
    omega_step) until the heading points at the waypoint within omega_step/2,
    then forward actions (v = v_step) until within v_step of it; the aim is
    re-checked every step so long legs stay on course.  The returned plan
    starts with a zero action (the start step, never executed) and its
    noise-free rollout is verified collision-free segment by segment.
    """
    if v_step <= 0 or omega_step <= 0:
        raise PlanError(f"v_step and omega_step must be positive, got {v_step}, {omega_step}")
    for i, wp in enumerate(waypoints):
        if grid.is_occupied(wp):
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
            if len(actions) > max_actions:
                raise PlanError(f"plan did not converge within {max_actions} actions")

    plan = ActionPlan(tuple(actions))
    poses = rollout(start, plan)
    for i in range(1, len(poses)):
        a, b = poses[i - 1], poses[i]
        c = grid.segment_collision_count(a.position, b.position, collision_step)
        if c > 0:
            raise PlanError(
                f"noise-free rollout collides on step {i}: "
                f"({a.x:.1f}, {a.y:.1f}) -> ({b.x:.1f}, {b.y:.1f}), {c} contact samples"
            )
    return plan
