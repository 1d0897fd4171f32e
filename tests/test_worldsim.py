import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqmcl.gridmap import OccupancyGrid, Point2
from deqmcl.worldsim import (
    Action,
    ActionPlan,
    BeamConfig,
    DepthScan,
    NoiseParams,
    PlanError,
    Pose,
    apply_action,
    build_loop_plan,
    TWO_PI,
    normalize_angle,
    normalize_angles,
    rollout,
    sense,
    step_true,
)

from conftest import make_room
from test_gridmap import segment_count


class TestPose:
    def test_theta_normalized_by_constructor(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, math.pi).theta == math.pi

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0, 0)

    def test_normalize_angle_range(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, 1000):
            t = normalize_angle(theta)
            assert -math.pi < t <= math.pi


def reference_normalize_angles(theta):
    """The `np.mod` form of `normalize_angles`, which it must match bit for bit.

    It calls `np.mod` itself, so a numpy whose remainder rule changes fails
    the tests below."""
    t = np.mod(theta, TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, t)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal as float64 bit patterns, any NaN equal to any NaN."""
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, f"differ at {bad[:5]}: got {got[bad[:5]]!r}, want {want[bad[:5]]!r}"


def around(values):
    """Each value with its two float neighbours."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


class TestNormalizeAngles:
    # signed zeros, the wrap points, the period and its multiples, the
    # smallest subnormal, huge values and the float maximum, each with its
    # neighbours; NaN
    SPECIALS = np.concatenate([
        around([0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 5e-324, -5e-324, 1e300, -1e300]),
        around(np.arange(-40, 41) * TWO_PI), around(np.arange(-40, 41) * math.pi),
        [np.finfo(float).max, -np.finfo(float).max, np.nan, -np.nan],
    ])

    def test_specials_match_np_mod_bit_for_bit(self):
        got = normalize_angles(self.SPECIALS)
        assert_same_bits(got, reference_normalize_angles(self.SPECIALS))
        finite = got[np.isfinite(got)]
        assert np.all((finite > -math.pi) & (finite <= math.pi))
        assert np.signbit(normalize_angles(np.array([-0.0, -TWO_PI]))).tolist() == [False, False]

    def test_random_bit_patterns_and_headings(self):
        rng = np.random.default_rng(0)
        theta = np.concatenate([
            rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
            rng.uniform(-4 * math.pi, 4 * math.pi, 200_000),
        ])
        with np.errstate(invalid="ignore"):  # +-inf
            assert_same_bits(normalize_angles(theta), reference_normalize_angles(theta))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_arbitrary_float64_bit_patterns(self, bits):
        theta = np.array(bits, dtype=np.uint64).view(np.float64)
        with np.errstate(invalid="ignore"):  # +-inf
            assert_same_bits(normalize_angles(theta), reference_normalize_angles(theta))

    def test_scalar_wrap_matches_array_wrap(self):
        # `normalize_angle` wraps the truth's poses and `normalize_angles` the
        # filters': on every finite value they give the same bits
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64)
        theta = np.concatenate([
            self.SPECIALS, bits, rng.uniform(-4 * math.pi, 4 * math.pi, 150_000),
        ])
        theta = theta[np.isfinite(theta)]
        scalar = np.array([normalize_angle(float(v)) for v in theta])
        assert_same_bits(scalar, normalize_angles(theta))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinities_warn_as_np_mod_does(self, value):
        theta = np.array([0.5, value])
        for wrap in (reference_normalize_angles, normalize_angles):
            with pytest.warns(RuntimeWarning, match="^invalid value encountered in"):
                out = wrap(theta)
            assert out[0] == 0.5 and np.isnan(out[1])
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
                wrap(theta)


class TestApplyAction:
    def test_forward(self):
        assert apply_action(Pose(0, 0, 0), Action(1, 0)) == Pose(1, 0, 0)

    def test_pure_rotation(self):
        p = apply_action(Pose(0, 0, 0), Action(0, math.pi / 2))
        assert (p.x, p.y) == (0, 0)
        assert p.theta == pytest.approx(math.pi / 2)

    def test_axis_alignment(self):
        p = apply_action(Pose(0, 0, math.pi / 2), Action(2, 0))
        assert p.x == pytest.approx(0, abs=1e-12)
        assert p.y == pytest.approx(2)
        assert p.theta == pytest.approx(math.pi / 2)

    def test_identity_action(self):
        pose = Pose(3.5, -2.0, 1.1)
        assert apply_action(pose, Action(0, 0)) == pose

    def test_rotate_then_translate(self):
        # translation happens along the already-rotated heading
        p = apply_action(Pose(0, 0, 0), Action(1, math.pi / 2))
        assert p.x == pytest.approx(0, abs=1e-12)
        assert p.y == pytest.approx(1)


class TestStepTrue:
    def test_zero_noise_equals_apply_action(self):
        rng = np.random.default_rng(0)
        pose, action = Pose(2, 3, 0.4), Action(1.5, -0.2)
        assert step_true(pose, action, NoiseParams(0, 0, 0), rng) == apply_action(pose, action)

    def test_reproducible_across_runs(self):
        noise = NoiseParams(sigma_v=0.1, sigma_omega=0.05, sigma_range=0)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            pose = Pose(0, 0, 0)
            for _ in range(20):
                pose = step_true(pose, Action(1, 0.1), noise, rng)
            out.append(pose)
        assert out[0] == out[1]

    def test_monte_carlo_mean_matches_expectation(self):
        # E[x'] = 1 for action (1, 0) from the origin with omega noise off
        noise = NoiseParams(sigma_v=0.1, sigma_omega=0.0, sigma_range=0)
        rng = np.random.default_rng(7)
        xs = [step_true(Pose(0, 0, 0), Action(1, 0), noise, rng).x for _ in range(100_000)]
        assert np.mean(xs) == pytest.approx(1.0, abs=0.01)

    def test_two_draws_per_step(self):
        # v noise first, then omega noise
        rng = np.random.default_rng(3)
        expected_dv = rng.standard_normal() * 0.2
        expected_dw = rng.standard_normal() * 0.1
        rng2 = np.random.default_rng(3)
        p = step_true(Pose(0, 0, 0), Action(1, 0), NoiseParams(0.2, 0.1, 0), rng2)
        expected = apply_action(Pose(0, 0, 0), Action(1 + expected_dv, expected_dw))
        assert p == expected


class TestActionPlan:
    def test_one_based_indexing(self):
        plan = ActionPlan((Action(0, 0), Action(1, 0), Action(2, 0)))
        assert plan.horizon == 3
        assert plan.action(1) == Action(0, 0)
        assert plan.action(3) == Action(2, 0)
        with pytest.raises(IndexError):
            plan.action(0)
        with pytest.raises(IndexError):
            plan.action(4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActionPlan(())


class TestSense:
    def test_noise_free_forward_beam(self):
        grid = make_room(40, 20, wall=2)
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.1)
        scan = sense(grid, Pose(33.0, 10.0, 0.0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        assert scan.ranges[0] == pytest.approx(5.0, abs=0.1)

    def test_open_space_reads_max_range(self):
        grid = make_room(300, 40, wall=1)
        beams = BeamConfig(headings=(0.0,), max_range=60.0, ray_step=0.5)
        scan = sense(grid, Pose(10.0, 20.0, 0.0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        assert scan.ranges[0] == 60.0

    def test_symmetric_beams_in_symmetric_corridor(self):
        grid = make_room(100, 21, wall=1)
        beams = BeamConfig(headings=(-math.pi / 4, math.pi / 4), max_range=60.0, ray_step=0.05)
        scan = sense(grid, Pose(50.0, 10.5, 0.0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        assert scan.ranges[0] == pytest.approx(scan.ranges[1], abs=0.1)

    def test_pose_in_wall_rejected(self, room):
        beams = BeamConfig(headings=(0.0,), max_range=10.0, ray_step=0.5)
        with pytest.raises(ValueError):
            sense(room, Pose(0.5, 0.5, 0.0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))

    def test_one_variate_per_beam_in_order(self, room):
        beams = BeamConfig(headings=(-0.5, 0.0, 0.5), max_range=30.0, ray_step=0.5)
        noise = NoiseParams(0, 0, 2.0)
        pose = Pose(30.0, 30.0, 0.3)
        true_ranges = room.raycast_batch(
            np.full(3, pose.x), np.full(3, pose.y), pose.theta + np.array(beams.headings), 30.0, 0.5
        )
        rng = np.random.default_rng(11)
        expected = np.clip(true_ranges + rng.standard_normal(3) * 2.0, 0, 30.0)
        scan = sense(room, pose, beams, noise, np.random.default_rng(11))
        assert np.array_equal(scan.ranges, expected)

    def test_ranges_clamped(self, room):
        beams = BeamConfig(headings=(0.0,), max_range=5.0, ray_step=0.5)
        noise = NoiseParams(0, 0, 100.0)
        for seed in range(20):
            scan = sense(room, Pose(30.0, 30.0, 0.0), beams, noise, np.random.default_rng(seed))
            assert 0.0 <= scan.ranges[0] <= 5.0


class TestNoiseParams:
    @pytest.mark.parametrize("name", ["sigma_v", "sigma_omega", "sigma_range"])
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_nan_or_negative_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            NoiseParams(**{name: value})


class TestBeamConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("headings", (0.0, math.nan)),
            ("headings", (0.0, math.inf)),
            ("max_range", math.nan),
            ("max_range", math.inf),
            ("max_range", 0.0),
            ("ray_step", math.nan),
            ("ray_step", math.inf),
            ("ray_step", 0.0),
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, field, value):
        fields = dict(headings=(0.0, 0.5), max_range=10.0, ray_step=0.5)
        BeamConfig(**fields)
        with pytest.raises(ValueError, match=field):
            BeamConfig(**{**fields, field: value})

    @pytest.mark.parametrize("n_beams", [1, 2, 3, 4, 5])
    def test_sense_without_noise_is_cast(self, n_beams):
        """`sense` reads `BeamConfig.cast` bit for bit, one pose at a time
        against every pose in one call."""
        cells = make_room(60, 60, wall=1).cells.copy()
        cells[20:25, 10:40] = True
        cells[35:50, 30:33] = True
        grid = OccupancyGrid(60, 60, 1.0, cells)
        rng = np.random.default_rng(n_beams)
        beams = BeamConfig(headings=tuple(rng.uniform(-math.pi, math.pi, n_beams)), max_range=45.0, ray_step=0.3)
        poses = []
        while len(poses) < 40:
            x, y = rng.uniform(0.0, 60.0, 2)
            if not grid.occupied_xy(x, y):
                poses.append(Pose(x, y, rng.uniform(-4.0, 4.0)))
        cast = beams.cast(grid, *np.array([[p.x, p.y, p.theta] for p in poses]).T)
        assert cast.shape == (len(poses), n_beams)
        assert (cast < beams.max_range).any()
        for pose, want in zip(poses, cast):
            scan = sense(grid, pose, beams, NoiseParams(0, 0, 0), rng)
            assert scan.beams is beams
            assert_same_bits(scan.ranges, want)


class TestDepthScan:
    beams = BeamConfig(headings=(0.0, 0.5), max_range=10.0, ray_step=0.5)

    @pytest.mark.parametrize("ranges", [[1.0, math.nan], [1.0, 10.5], [-0.5, 1.0]])
    def test_range_outside_zero_to_max_range_rejected(self, ranges):
        DepthScan([1.0, 10.0], self.beams)
        with pytest.raises(ValueError, match="max_range"):
            DepthScan(ranges, self.beams)

    @pytest.mark.parametrize("ranges", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_one_range_per_beam(self, ranges):
        with pytest.raises(ValueError, match="one range per beam"):
            DepthScan(ranges, self.beams)


class TestBuildLoopPlan:
    def test_square_loop_returns_near_start(self):
        grid = make_room(350, 300, wall=3)
        start = Pose(100.0, 100.0, 0.0)
        wps = [Point2(200.0, 100.0), Point2(200.0, 200.0), Point2(100.0, 200.0), Point2(100.0, 100.0)]
        plan = build_loop_plan(grid, start, wps, v_step=5.0, omega_step=math.pi / 8)
        end = rollout(start, plan)[-1]
        assert math.hypot(end.x - start.x, end.y - start.y) <= 5.0

    def test_first_action_is_start_placeholder(self):
        grid = make_room(100, 100)
        plan = build_loop_plan(grid, Pose(50, 50, 0), [Point2(70, 50)], 5.0, math.pi / 8)
        assert plan.action(1) == Action(0.0, 0.0)

    def test_single_waypoint_at_start(self):
        # the plan would hold the start placeholder alone, and a run would
        # score the initial belief; so would waypoints all within v_step
        grid = make_room(100, 100)
        with pytest.raises(PlanError, match=r"no executed step: every waypoint lies within v_step 5\.0 of the start \(50, 50\)"):
            build_loop_plan(grid, Pose(50, 50, 0), [Point2(50, 50)], 5.0, math.pi / 8)
        with pytest.raises(PlanError, match="no executed step"):
            build_loop_plan(grid, Pose(50, 50, 0), [Point2(53, 51), Point2(48, 47)], 5.0, math.pi / 8)

    @pytest.mark.parametrize("v_step, omega_step", [(5.0, math.nan), (math.inf, math.pi / 8)])
    def test_non_finite_steps_rejected(self, v_step, omega_step):
        # NaN would build actions until the plan cap, inf would take one step past every waypoint
        grid = make_room(100, 100)
        with pytest.raises(PlanError, match="v_step and omega_step must be positive and finite"):
            build_loop_plan(grid, Pose(50, 50, 0), [Point2(70, 50)], v_step, omega_step)

    def test_waypoint_in_wall_rejected(self, room):
        with pytest.raises(PlanError, match="waypoint"):
            build_loop_plan(room, Pose(30, 30, 0), [Point2(0.5, 0.5)], 2.0, math.pi / 8)

    def test_colliding_rollout_rejected(self):
        # a wall separates start from the waypoint: driving straight collides
        cells = np.zeros((40, 40), dtype=bool)
        cells[:, 20] = True
        from deqmcl.gridmap import OccupancyGrid

        grid = OccupancyGrid(40, 40, 1.0, cells)
        with pytest.raises(PlanError):
            build_loop_plan(grid, Pose(10, 20, 0), [Point2(30, 20)], 2.0, math.pi / 8)

    def test_rollout_collision_free(self):
        grid = make_room(200, 200, wall=2)
        start = Pose(50.0, 50.0, 0.0)
        wps = [Point2(150.0, 50.0), Point2(150.0, 150.0), Point2(50.0, 150.0), Point2(50.0, 50.0)]
        plan = build_loop_plan(grid, start, wps, v_step=4.0, omega_step=math.pi / 8)
        poses = rollout(start, plan)
        for a, b in zip(poses, poses[1:]):
            assert segment_count(grid, Point2(a.x, a.y), Point2(b.x, b.y), 1.0) == 0

    def test_turn_then_drive_structure(self):
        grid = make_room(100, 100)
        plan = build_loop_plan(grid, Pose(50, 50, 0), [Point2(50, 80)], 5.0, math.pi / 8)
        kinds = ["turn" if a.v == 0 and a.omega != 0 else "drive" for a in plan.actions[1:]]
        # 90 degree turn first, then pure forward motion
        assert "turn" in kinds and "drive" in kinds
        assert kinds.index("drive") == len([k for k in kinds if k == "turn"])
