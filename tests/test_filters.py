import math

import numpy as np
import pytest

from deqmcl import filters
from deqmcl.filters import (
    FilterConfig,
    FilterDegeneracyError,
    QueueState,
    deq_step,
    effective_sample_size,
    init_belief,
    mcl_map_motion_step,
    mcl_smoother_step,
    mcl_step,
    motion_sample_batch,
    observation_log_likelihood_batch,
    systematic_resample,
    traversability_log_prior_batch,
)
from deqmcl.gridmap import OccupancyGrid
from deqmcl.metrics import BeliefSnapshot, belief_variance, mean_state
from deqmcl.worldsim import Action, ActionPlan, BeamConfig, NoiseParams, Pose, apply_action, sense

from conftest import make_corridor, make_room, pose_array

LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def constant_plan(v, omega, count):
    return ActionPlan((Action(0.0, 0.0),) + (Action(v, omega),) * count)


def point_sampler(pose):
    def sampler(rng, n):
        return np.tile(pose_array(pose)[:, None], (1, n))
    return sampler


def gaussian_sampler(pose, sigma_xy, sigma_theta):
    def sampler(rng, n):
        x = pose.x + rng.standard_normal(n) * sigma_xy
        y = pose.y + rng.standard_normal(n) * sigma_xy
        theta = pose.theta + rng.standard_normal(n) * sigma_theta
        return np.stack([x, y, theta])
    return sampler


class TestMotionSample:
    def test_zero_noise_equals_apply_action(self):
        pose, action = Pose(1, 2, 0.3), Action(2.0, -0.4)
        got = motion_sample_batch(pose_array(pose)[:, None], action, NoiseParams(0, 0, 0),
                                  np.random.default_rng(0))
        assert np.array_equal(got[:, 0], pose_array(apply_action(pose, action)))

    def test_sample_mean_matches_deterministic_step(self):
        # mean over 1e5 draws within 3 standard errors of the noise-free step
        noise = NoiseParams(sigma_v=0.2, sigma_omega=0.0, sigma_range=0)
        poses = np.tile(pose_array(Pose(0, 0, 0.7))[:, None], (1, 100_000))
        out = motion_sample_batch(poses, Action(1.5, 0.0), noise, np.random.default_rng(1))
        target = apply_action(Pose(0, 0, 0.7), Action(1.5, 0.0))
        se = 0.2 / math.sqrt(100_000)
        assert abs(out[0].mean() - target.x) < 3 * se
        assert abs(out[1].mean() - target.y) < 3 * se

    def test_distinct_seeds_distinct_samples(self):
        noise = NoiseParams(0.5, 0.1, 0)
        start = np.zeros((3, 1))
        a = motion_sample_batch(start, Action(1, 0), noise, np.random.default_rng(1))
        b = motion_sample_batch(start, Action(1, 0), noise, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_window_row_view_equals_its_contiguous_copy(self):
        # slot 2 of a (3, slots, n) window, as `_roll_out` passes it, and its copy
        window = np.random.default_rng(8).uniform(-20, 20, (3, 4, 500))
        noise = NoiseParams(0.5, 0.2, 0)
        view = window[:, 2]
        assert not view.flags.c_contiguous
        a = motion_sample_batch(view, Action(1.5, 0.3), noise, np.random.default_rng(3))
        b = motion_sample_batch(np.ascontiguousarray(view), Action(1.5, 0.3), noise, np.random.default_rng(3))
        assert a.shape == (3, 500)
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_particle_major_poses_rejected(self):
        # (5, 3): 5 particles, one (x, y, theta) row each
        with pytest.raises(ValueError, match=r"poses must be coordinate rows, shape \(3, n\), got \(5, 3\)"):
            motion_sample_batch(np.zeros((5, 3)), Action(1.0, 0.0), NoiseParams(0.1, 0.1, 0), np.random.default_rng(0))


class TestObservationLogLikelihood:
    def test_zero_residual_attains_maximum(self):
        grid = make_room(40, 20, wall=2)
        pose = Pose(30.0, 10.0, 0.0)
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.5)
        scan = sense(grid, pose, beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        got = observation_log_likelihood_batch(scan, pose_array(pose)[:, None], grid, 2.0)
        assert got[0] == pytest.approx(-(math.log(2.0) + LOG_SQRT_2PI), abs=1e-12)

    def test_pose_inside_wall_is_minus_inf(self, room):
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.5)
        scan = sense(room, Pose(30, 30, 0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        assert observation_log_likelihood_batch(scan, np.array([[0.5], [0.5], [0.0]]), room, 2.0)[0] == -np.inf

    def test_one_sigma_residual_costs_half(self):
        # two candidates whose predicted ranges differ by exactly sensor_sigma
        grid = make_room(40, 20, wall=2)
        sigma = 1.0
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.5)
        scan = sense(grid, Pose(28.0, 10.0, 0.0), beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        ll_true, ll_off = observation_log_likelihood_batch(
            scan, np.array([[28.0, 29.0], [10.0, 10.0], [0.0, 0.0]]), grid, sigma
        )
        assert ll_true - ll_off == pytest.approx(0.5, abs=1e-12)

    def test_batch_matches_scalar(self, room):
        beams = BeamConfig(headings=(-0.4, 0.0, 0.4), max_range=40.0, ray_step=0.5)
        scan = sense(room, Pose(30, 30, 0.2), beams, NoiseParams(0, 0, 1.0), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        poses = np.stack([rng.uniform(2, 58, 20), rng.uniform(2, 58, 20), rng.uniform(-3, 3, 20)])
        batch = observation_log_likelihood_batch(scan, poses, room, 2.0)
        for i in range(20):
            single = observation_log_likelihood_batch(scan, poses[:, i : i + 1], room, 2.0)
            assert batch[i] == single[0]

    @staticmethod
    def gathered(scan, poses, grid, sigma):
        """The likelihood with the free poses always gathered and scattered back."""
        out = np.full(poses.shape[1], -np.inf)
        free = ~grid.occupied_xy(poses[0], poses[1])
        resid = scan.ranges[None, :] - scan.beams.cast(grid, *poses[:, free])
        out[free] = -0.5 * ((resid / sigma) ** 2).sum(axis=1) - scan.ranges.size * (math.log(sigma) + LOG_SQRT_2PI)
        return out

    @pytest.mark.parametrize("low, high, free", [(1.0, 58.99, "all"), (0.0, 58.99, "some"), (-5.0, 0.99, "none")],
                             ids=["all_free", "mixed", "all_occupied"])
    def test_all_free_and_mixed_batches_equal_the_gathered_path(self, room, low, high, free):
        # `room` is free on [1, 59) along both axes; from 0.0 some poses fall in
        # its wall, and below 1.0 every pose lies in the wall or off the grid.
        # Poses are passed as a window slot is, a view of coordinate-major rows,
        # and as its contiguous copy
        beams = BeamConfig(headings=(-0.4, 0.0, 0.4), max_range=40.0, ray_step=0.5)
        scan = sense(room, Pose(30, 30, 0.2), beams, NoiseParams(0, 0, 1.0), np.random.default_rng(5))
        rng = np.random.default_rng(7)
        window = np.stack([rng.uniform(low, high, (2, 300)), rng.uniform(low, high, (2, 300)),
                           rng.uniform(-3, 3, (2, 300))])  # (3, slots, n)
        poses = window[:, 1]
        want = self.gathered(scan, np.ascontiguousarray(poses), room, 2.0)
        finite = np.isfinite(want)
        assert (finite.all(), finite.any()) == {"all": (True, True), "some": (False, True), "none": (False, False)}[free]
        assert (want[~finite] == -np.inf).all()
        for given in (poses, np.ascontiguousarray(poses)):
            got = observation_log_likelihood_batch(scan, given, room, 2.0)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestTraversabilityLogPrior:
    @staticmethod
    def _slab():
        # wall slab three cells thick; lattice samples crossing it hit it exactly 3 times
        cells = np.zeros((4, 12), dtype=bool)
        cells[:, 5:8] = True
        return OccupancyGrid(12, 4, 1.0, cells)

    def test_collision_free_segment_is_zero(self, room):
        got = traversability_log_prior_batch(room, np.array([[10.0], [10.0], [0.0]]),
                                             np.array([[20.0], [20.0], [0.0]]), beta=10.0, step=1.0)
        assert got[0] == 0.0

    def test_three_collisions_beta_ten(self):
        got = traversability_log_prior_batch(self._slab(), np.array([[4.5], [2.0], [0.0]]),
                                             np.array([[8.5], [2.0], [0.0]]), beta=10.0, step=1.0)
        assert got[0] == -30.0

    def test_beta_zero_disables_prior(self, room):
        got = traversability_log_prior_batch(room, np.array([[0.5], [0.5], [0.0]]),
                                             np.array([[5.0], [5.0], [0.0]]), beta=0.0, step=1.0)
        assert got[0] == 0.0

    def test_particle_major_rows_rejected(self, room):
        ends = np.full((5, 3), 10.0)  # 5 particles, one (x, y, theta) row each
        rows = np.full((3, 5), 10.0)
        with pytest.raises(ValueError, match=r"prev must be coordinate rows, shape \(3, n\), got \(5, 3\)"):
            traversability_log_prior_batch(room, ends, ends + 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"nxt must be coordinate rows, shape \(3, n\), got \(5, 3\)"):
            traversability_log_prior_batch(room, rows, ends, 1.0, 1.0)

    def test_monotone_suppression_in_beta(self):
        # column 0 crosses the slab, column 1 stays in free space
        prev = np.array([[4.5, 1.0], [2.0, 2.0], [0.0, 0.0]])
        nxt = np.array([[8.5, 3.0], [2.0, 2.0], [0.0, 0.0]])
        prev_ratio = np.inf
        for beta in (0.0, 1.0, 5.0, 10.0, 20.0):
            crossing, free = traversability_log_prior_batch(self._slab(), prev, nxt, beta, 1.0)
            log_ratio = crossing - free
            assert log_ratio <= prev_ratio
            prev_ratio = log_ratio

    def test_window_row_views_equal_their_contiguous_copies(self):
        # segments from slot 1 to slot 2 of a (3, slots, n) window over a cluttered room
        grid = make_room(40, 40)
        grid = OccupancyGrid(40, 40, 1.0, grid.cells | (np.random.default_rng(3).random(grid.cells.shape) < 0.15))
        rng = np.random.default_rng(9)
        window = np.stack([rng.uniform(0, 40, (3, 500)), rng.uniform(0, 40, (3, 500)), rng.uniform(-3, 3, (3, 500))])
        prev, nxt = window[:, 1], window[:, 2]
        assert not (prev.flags.c_contiguous or nxt.flags.c_contiguous)
        got = traversability_log_prior_batch(grid, prev, nxt, 2.5, 0.5)
        want = traversability_log_prior_batch(grid, np.ascontiguousarray(prev), np.ascontiguousarray(nxt), 2.5, 0.5)
        assert np.any(want < 0) and np.any(want == 0)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSystematicResample:
    def test_uniform_weights_identity(self):
        for seed in range(10):
            idx = systematic_resample(np.full(8, 1 / 8), np.random.default_rng(seed))
            assert np.array_equal(idx, np.arange(8))

    def test_point_mass(self):
        idx = systematic_resample(np.array([1.0, 0, 0, 0]), np.random.default_rng(0))
        assert np.array_equal(idx, np.zeros(4, dtype=int))

    def test_expected_copy_counts(self):
        for seed in range(20):
            idx = systematic_resample(np.array([0.5, 0.25, 0.25, 0.0]), np.random.default_rng(seed))
            assert np.array_equal(np.bincount(idx, minlength=4), [2, 1, 1, 0])

    def test_copy_count_bound(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            w = rng.random(n)
            w /= w.sum()
            idx = systematic_resample(w, rng)
            counts = np.bincount(idx, minlength=n)
            assert np.all(counts >= np.floor(n * w)) and np.all(counts <= np.ceil(n * w))

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(FilterDegeneracyError):
            systematic_resample(np.zeros(4), np.random.default_rng(0))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            systematic_resample(np.array([0.5, -0.1]), np.random.default_rng(0))


class TestNonFiniteGuards:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_log_weight_raises(self, bad):
        from deqmcl.filters import _normalize_log_weights

        with pytest.raises(FilterDegeneracyError, match="non-finite"):
            _normalize_log_weights(np.array([-1.0, bad, -2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["n_particles", "lag", "beta", "sensor_sigma",
                                     "resample_threshold", "collision_step"])
    def test_nan_setting_rejected(self, key, bad):
        with pytest.raises(ValueError, match=key):
            FilterConfig(**{key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_observation_kernel_rejects_bad_sensor_sigma(self, room, bad):
        scan = sense(room, Pose(30, 30, 0), BeamConfig(), NoiseParams(0, 0, 0), np.random.default_rng(0))
        with pytest.raises(ValueError, match="sensor_sigma"):
            observation_log_likelihood_batch(scan, pose_array(Pose(30, 30, 0))[:, None], room, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_prior_kernel_rejects_bad_beta(self, room, bad):
        ends = np.array([[10.0], [10.0], [0.0]])
        with pytest.raises(ValueError, match="beta"):
            traversability_log_prior_batch(room, ends, ends + [[1.0], [0.0], [0.0]], bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("key", ["sigma_v", "sigma_omega", "sigma_range"])
    def test_noise_setting_rejected(self, key, bad):
        with pytest.raises(ValueError, match=key):
            NoiseParams(**{key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_lattice_rejects_bad_cell(self, room, bad):
        from deqmcl.oracle import discretize

        with pytest.raises(ValueError, match="cell must be positive and finite"):
            discretize(room, FilterConfig(), [Action(1.0, 0.0)], bad, 1)


class TestEffectiveSampleSize:
    def test_uniform(self):
        logw = np.full(100, -math.log(100))
        assert effective_sample_size(logw) == pytest.approx(100.0)

    def test_point_mass(self):
        logw = np.full(50, -np.inf)
        logw[3] = 0.0
        assert effective_sample_size(logw) == pytest.approx(1.0)


def _run_filter(step_fn, state, plan, scans, cfg, grid, rng, t_range):
    for t in t_range:
        state = step_fn(state, t, plan.action(t), scans[t], rng)
    return state


def _world(grid, plan, start, world_noise, beams, seed):
    from deqmcl.harness import derive_rng, simulate_truth

    rt, rs = derive_rng(seed, 0, 0), derive_rng(seed, 0, 1)
    return simulate_truth(grid, plan, start, world_noise, beams, rt, rs)


class TestMclStep:
    def test_converges_on_corridor(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        world_noise = NoiseParams(0.1, 0.0, 0.5)
        plan = constant_plan(1.0, 0.0, 30)
        cfg = FilterConfig(
            n_particles=400, motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=1.5
        )
        first, last = [], []
        for seed in range(10):
            truth, scans = _world(grid, plan, Pose(6.0, 6.0, 0.0), world_noise, beams, seed)
            rng = np.random.default_rng(1000 + seed)
            state = init_belief(cfg, gaussian_sampler(Pose(6, 6, 0), 4.0, 0.05), grid, rng)
            errs = []
            for t in range(2, plan.horizon + 1):
                state = mcl_step(state, plan.action(t), scans[t], cfg, grid, rng)
                m = mean_state(BeliefSnapshot(state.slot(0), state.weights()))
                errs.append(math.hypot(m[0] - truth[t].x, m[1] - truth[t].y))
            first.append(np.mean(errs[:5]))
            last.append(np.mean(errs[-5:]))
        assert np.mean(last) < np.mean(first)

    def test_spread_non_increasing_under_repeated_scans(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        pose = Pose(20.0, 6.0, 0.0)
        scan = sense(grid, pose, beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        cfg = FilterConfig(
            n_particles=300, motion_noise=NoiseParams(0.05, 0.005, 0), sensor_sigma=1.5
        )
        start_var, end_var = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = init_belief(cfg, gaussian_sampler(pose, 3.0, 0.1), grid, rng)
            start_var.append(belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum())
            for _ in range(50):
                state = mcl_step(state, Action(0, 0), scan, cfg, grid, rng)
            end_var.append(belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum())
        assert np.mean(end_var) <= np.mean(start_var)

    def test_single_particle_at_truth_stays(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        pose = Pose(20.0, 6.0, 0.0)
        scan = sense(grid, pose, beams, NoiseParams(0, 0, 0), np.random.default_rng(0))
        cfg = FilterConfig(n_particles=1, motion_noise=NoiseParams(0, 0, 0), sensor_sigma=1.0)
        rng = np.random.default_rng(0)
        state = init_belief(cfg, point_sampler(pose), grid, rng)
        for _ in range(5):
            state = mcl_step(state, Action(0, 0), scan, cfg, grid, rng)
        assert np.allclose(state.slot(0)[:, 0], pose_array(pose))

    def test_weights_normalized_every_step(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, 15)
        truth, scans = _world(grid, plan, Pose(6, 6, 0), NoiseParams(0.1, 0.0, 0.5), beams, 3)
        cfg = FilterConfig(n_particles=100, motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=1.5)
        rng = np.random.default_rng(5)
        state = init_belief(cfg, gaussian_sampler(Pose(6, 6, 0), 3.0, 0.05), grid, rng)
        for t in range(2, plan.horizon + 1):
            state = mcl_step(state, plan.action(t), scans[t], cfg, grid, rng)
            snap = BeliefSnapshot(state.slot(0), state.weights())
            assert snap.weights.shape == (100,)
            assert np.all(snap.weights >= 0)
            assert abs(snap.weights.sum() - 1.0) < 1e-9


class TestReductions:
    """The three baselines and the queue filter collapse onto plain MCL."""

    def _setup(self, grid, n_steps, seed):
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, n_steps)
        truth, scans = _world(grid, plan, Pose(6.0, 6.0, 0.0), NoiseParams(0.1, 0.0, 0.5), beams, seed)
        return plan, scans

    def _states_equal(self, a: QueueState, b: QueueState) -> bool:
        return (
            np.array_equal(a.slot(0), b.slot(0))
            and np.array_equal(a.log_weights, b.log_weights)
        )

    def test_deq_lag0_empty_map_equals_mcl(self):
        grid = make_room(80, 80, wall=1)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.02, 30)
        truth, scans = _world(grid, plan, Pose(20, 40, 0), NoiseParams(0.1, 0.0, 0.5), beams, 9)
        cfg = FilterConfig(n_particles=200, lag=0, beta=10.0,
                           motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(Pose(20, 40, 0), 3.0, 0.1)
        rng_a, rng_b = np.random.default_rng(77), np.random.default_rng(77)
        deq = init_belief(cfg, sampler, grid, rng_a, plan.actions[1 : 1 + cfg.lag])
        mcl = init_belief(cfg, sampler, grid, rng_b)
        assert self._states_equal(deq, mcl)
        for t in range(2, plan.horizon + 1):
            deq = deq_step(deq, plan.action(t), scans[t], cfg, grid, rng_a, plan.actions[t : t + cfg.lag])
            mcl = mcl_step(mcl, plan.action(t), scans[t], cfg, grid, rng_b)
            assert self._states_equal(deq, mcl)

    def test_map_motion_beta0_equals_mcl(self):
        grid = make_corridor(60, 12)
        plan, scans = self._setup(grid, 30, 4)
        cfg = FilterConfig(n_particles=200, beta=0.0,
                           motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(Pose(6, 6, 0), 3.0, 0.1)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a = init_belief(cfg, sampler, grid, rng_a)
        b = init_belief(cfg, sampler, grid, rng_b)
        for t in range(2, plan.horizon + 1):
            a = mcl_map_motion_step(a, plan.action(t), scans[t], cfg, grid, rng_a)
            b = mcl_step(b, plan.action(t), scans[t], cfg, grid, rng_b)
            assert self._states_equal(a, b)

    def test_map_motion_open_space_equals_mcl(self):
        # away from every wall the collision count is zero, so the prior
        # contributes nothing even at full strength
        grid = make_room(120, 120, wall=1)
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.03, 30)
        truth, scans = _world(grid, plan, Pose(40, 60, 0), NoiseParams(0.1, 0.0, 0.5), beams, 14)
        cfg = FilterConfig(n_particles=200, beta=10.0,
                           motion_noise=NoiseParams(0.3, 0.01, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(Pose(40, 60, 0), 3.0, 0.05)
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        a = init_belief(cfg, sampler, grid, rng_a)
        b = init_belief(cfg, sampler, grid, rng_b)
        for t in range(2, plan.horizon + 1):
            a = mcl_map_motion_step(a, plan.action(t), scans[t], cfg, grid, rng_a)
            b = mcl_step(b, plan.action(t), scans[t], cfg, grid, rng_b)
            assert self._states_equal(a, b)

    def test_smoother_lag0_equals_mcl(self):
        grid = make_corridor(60, 12)
        plan, scans = self._setup(grid, 30, 6)
        cfg = FilterConfig(n_particles=200, lag=0,
                           motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(Pose(6, 6, 0), 3.0, 0.1)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        a = init_belief(cfg, sampler, grid, rng_a)
        b = init_belief(cfg, sampler, grid, rng_b)
        for t in range(2, plan.horizon + 1):
            a = mcl_smoother_step(a, plan.action(t), scans[t], cfg, grid, rng_a)
            b = mcl_step(b, plan.action(t), scans[t], cfg, grid, rng_b)
            assert self._states_equal(a, b)

    @pytest.mark.parametrize("n_future", [0, 2])
    def test_deq_lag0_equals_map_motion_on_any_map(self, n_future):
        # with lag 0 the queue filter is exactly MCL with the map-based motion
        # model, given the same planned future (none, or the caller's own)
        grid = make_corridor(60, 12)
        plan, scans = self._setup(grid, 30, 10)
        cfg = FilterConfig(n_particles=200, lag=0, beta=7.0,
                           motion_noise=NoiseParams(0.4, 0.05, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(Pose(6, 6, 0), 3.0, 0.1)
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        a = init_belief(cfg, sampler, grid, rng_a, plan.actions[1 : 1 + n_future])
        b = init_belief(cfg, sampler, grid, rng_b, plan.actions[1 : 1 + n_future])
        for t in range(2, plan.horizon + 1):
            future = plan.actions[t : t + n_future]
            a = deq_step(a, plan.action(t), scans[t], cfg, grid, rng_a, future)
            b = mcl_map_motion_step(b, plan.action(t), scans[t], cfg, grid, rng_b, future)
            assert self._states_equal(a, b)
            assert a.n_future == len(future)
            assert a.poses.tobytes() == b.poses.tobytes()
            assert a.future_log_priors.tobytes() == b.future_log_priors.tobytes()


class TestSmoother:
    def test_smoothed_variance_not_larger(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=40.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, 30)
        lag = 5
        cfg = FilterConfig(n_particles=400, lag=lag,
                           motion_noise=NoiseParams(0.3, 0.01, 0), sensor_sigma=1.5)
        wins = ties = total = 0
        for seed in range(20):
            truth, scans = _world(grid, plan, Pose(6, 6, 0), NoiseParams(0.1, 0.0, 0.5), beams, seed)
            rng = np.random.default_rng(300 + seed)
            state = init_belief(cfg, gaussian_sampler(Pose(6, 6, 0), 3.0, 0.05), grid, rng)
            filtered_var = {1: belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum()}
            for t in range(2, plan.horizon + 1):
                state = mcl_smoother_step(state, plan.action(t), scans[t], cfg, grid, rng)
                filtered_var[t] = belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum()
                if state.n_past == lag:
                    sm = belief_variance(BeliefSnapshot(state.slot(-lag), state.weights()))[:2].sum()
                    fl = filtered_var[t - lag]
                    total += 1
                    if sm < fl:
                        wins += 1
                    elif sm == fl:
                        ties += 1
        assert (wins + ties) / total >= 0.8

    def test_postdiction_shifts_past_marginal(self):
        # once the end wall comes into range, the lagged estimate of an
        # earlier time moves relative to its original filtered estimate
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=40.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, 25)
        lag = 8
        cfg = FilterConfig(n_particles=500, lag=lag,
                           motion_noise=NoiseParams(0.4, 0.01, 0), sensor_sigma=1.5)
        shifts = []
        for seed in range(10):
            truth, scans = _world(grid, plan, Pose(6, 6, 0), NoiseParams(0.1, 0.0, 0.5), beams, seed)
            rng = np.random.default_rng(400 + seed)
            state = init_belief(cfg, gaussian_sampler(Pose(6, 6, 0), 4.0, 0.05), grid, rng)
            filtered_mean = {1: mean_state(BeliefSnapshot(state.slot(0), state.weights()))}
            for t in range(2, plan.horizon + 1):
                state = mcl_smoother_step(state, plan.action(t), scans[t], cfg, grid, rng)
                filtered_mean[t] = mean_state(BeliefSnapshot(state.slot(0), state.weights()))
                if state.n_past == lag:
                    sm = mean_state(BeliefSnapshot(state.slot(-lag), state.weights()))
                    shifts.append(abs(sm[0] - filtered_mean[t - lag][0]))
        assert max(shifts) > 0.5  # the past estimate genuinely moves


class TestDeqQueue:
    def _mini(self, lag=2, steps=8):
        grid = make_corridor(40, 8)
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, steps)
        truth, scans = _world(grid, plan, Pose(5, 4, 0), NoiseParams(0.1, 0.0, 0.5), beams, 2)
        cfg = FilterConfig(n_particles=50, lag=lag, beta=2.0,
                           motion_noise=NoiseParams(0.3, 0.0, 0), sensor_sigma=2.0)
        return grid, plan, scans, cfg

    def test_queue_span_matches_lag_window(self):
        grid, plan, scans, cfg = self._mini(lag=2, steps=8)
        horizon = plan.horizon
        rng = np.random.default_rng(0)
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid, rng, plan.actions[1 : 1 + cfg.lag])
        assert (state.n_past, state.n_future) == (0, min(2, horizon - 1))
        for t in range(2, horizon + 1):
            state = deq_step(state, plan.action(t), scans[t], cfg, grid, rng, plan.actions[t : t + cfg.lag])
            assert state.n_past == min(t - 1, 2)
            assert state.n_future == min(2, horizon - t)
        assert state.n_future == 0  # future side empty at the end of the plan

    @pytest.mark.parametrize("n_future", [0, 1, 3, 5])
    def test_future_horizon_is_the_callers(self, n_future):
        # cfg.lag bounds the past side only; the future side is as long as
        # the planned actions given, shorter or longer than the lag
        grid, plan, scans, cfg = self._mini(lag=2, steps=8)
        rng = np.random.default_rng(0)
        future = [Action(1.0, 0.0)] * n_future
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid, rng, future)
        assert (state.n_past, state.n_future) == (0, n_future)
        for t in range(2, 6):
            state = deq_step(state, plan.action(t), scans[t], cfg, grid, rng, future)
            assert (state.n_past, state.n_future) == (min(t - 1, cfg.lag), n_future)
            assert state.future_log_priors.shape == (n_future, cfg.n_particles)

    def test_init_lag0_uniform_single_pose(self):
        grid, plan, scans, cfg = self._mini(lag=0)
        import dataclasses

        cfg = dataclasses.replace(cfg, lag=0)
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid,
                            np.random.default_rng(0), plan.actions[1 : 1 + cfg.lag])
        assert (state.n_past, state.n_future) == (0, 0)
        assert np.allclose(state.log_weights, -math.log(cfg.n_particles))

    def test_init_future_clamped_by_horizon(self):
        grid, _, _, cfg = self._mini(lag=2)
        short_plan = constant_plan(1.0, 0.0, 1)  # horizon T = 2
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid,
                            np.random.default_rng(0), short_plan.actions[1 : 1 + cfg.lag])
        assert state.n_future == 1

    def test_init_zero_noise_future_is_plan_rollout(self):
        grid, plan, scans, cfg = self._mini(lag=2)
        import dataclasses

        cfg = dataclasses.replace(cfg, motion_noise=NoiseParams(0, 0, 0))
        start = Pose(5.0, 4.0, 0.0)
        state = init_belief(cfg, point_sampler(start), grid, np.random.default_rng(0), plan.actions[1 : 1 + cfg.lag])
        expected = start
        for k in range(1, 3):
            expected = apply_action(expected, plan.action(1 + k))
            assert np.allclose(state.poses[:, k], pose_array(expected)[:, None])

    def test_marginal_offsets_and_errors(self):
        grid, plan, scans, cfg = self._mini(lag=2)
        rng = np.random.default_rng(0)
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid, rng, plan.actions[1 : 1 + cfg.lag])
        for t in range(2, 5):
            state = deq_step(state, plan.action(t), scans[t], cfg, grid, rng, plan.actions[t : t + cfg.lag])
        for off in range(-state.n_past, state.n_future + 1):
            snap = BeliefSnapshot(state.slot(off), state.weights())
            assert np.array_equal(snap.poses, state.poses[:, state.n_past + off]) and snap.poses.shape == (3, 50)
            assert np.shares_memory(state.slot(off), state.poses) and np.array_equal(state.slot(off), snap.poses)
        # one offset past either end: before the window, not its last future slot
        span = rf"outside queue span \[-{state.n_past}, \+{state.n_future}\]"
        for off in (-(state.n_past + 1), state.n_future + 1):
            with pytest.raises(ValueError, match=span):
                state.slot(off)

    def test_marginal_weights_uniform_after_resample(self):
        import dataclasses

        grid, plan, scans, cfg = self._mini(lag=2)
        cfg = dataclasses.replace(cfg, resample_threshold=1.0)  # resample every step
        rng = np.random.default_rng(0)
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid, rng, plan.actions[1 : 1 + cfg.lag])
        state = deq_step(state, plan.action(2), scans[2], cfg, grid, rng, plan.actions[2 : 2 + cfg.lag])
        assert np.allclose(BeliefSnapshot(state.slot(0), state.weights()).weights, 1.0 / cfg.n_particles)

    def test_resampling_copies_trajectories_atomically(self):
        # the future side is re-proposed every step, so what survives of an
        # old trajectory is its past and current poses: each new trajectory's
        # past slots are those of one old trajectory, minus the oldest once
        # the window is full
        import dataclasses

        grid, plan, scans, cfg = self._mini(lag=2)
        cfg = dataclasses.replace(cfg, resample_threshold=1.0)
        rng = np.random.default_rng(1)
        state = init_belief(cfg, gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05), grid, rng, plan.actions[1 : 1 + cfg.lag])
        for t in range(2, 6):
            new_state = deq_step(state, plan.action(t), scans[t], cfg, grid, rng, plan.actions[t : t + cfg.lag])
            n = new_state.n_past
            # (n_particles, n, 3): one trajectory of past slots per particle
            old = state.poses[:, state.n_past + 1 - n : state.n_past + 1].transpose(2, 1, 0)
            new = new_state.poses[:, :n].transpose(2, 1, 0)
            assert len({row.tobytes() for row in new}) < cfg.n_particles  # some were copied
            for row in new:
                assert (old == row).all(axis=(1, 2)).any()
            state = new_state

    def test_state_rejects_a_particle_major_window(self):
        # (slots, n, 3): 2 slots of 4 particles, stored the other way round
        with pytest.raises(ValueError, match=r"coordinate-major, shape \(3, slots, n\), got \(2, 4, 3\)"):
            QueueState(poses=np.zeros((2, 4, 3)), log_weights=np.zeros(4), future_log_priors=np.zeros((0, 4)))
        with pytest.raises(ValueError, match="coordinate-major"):
            QueueState(poses=np.zeros((3, 4)), log_weights=np.zeros(4), future_log_priors=np.zeros((0, 4)))

    def test_state_requires_one_factor_per_future_transition(self):
        poses, logw = np.zeros((3, 3, 4)), np.zeros(4)  # 3 slots of 4 particles
        with pytest.raises(TypeError, match="future_log_priors"):
            QueueState(poses=poses, log_weights=logw)
        # as many factors as the window has slots, a wrong particle count, no particle axis
        for priors in (np.zeros((3, 4)), np.zeros((2, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match="future_log_priors"):
                QueueState(poses=poses, log_weights=logw, future_log_priors=priors)
        for n_future in (0, 1, 2):
            state = QueueState(poses=poses, log_weights=logw, future_log_priors=np.zeros((n_future, 4)))
            assert (state.n_past, state.n_future, state.n_particles) == (2 - n_future, n_future, 4)
        with pytest.raises(AttributeError):
            state.n_past = 0

    def test_init_belief_rejects_a_particle_major_sampler(self):
        grid, _, _, cfg = self._mini()

        def particle_major(rng, n):  # one (x, y, theta) row per particle
            return gaussian_sampler(Pose(5, 4, 0), 2.0, 0.05)(rng, n).T

        with pytest.raises(FilterDegeneracyError, match=r"returned \(50, 3\), not coordinate rows \(3, 50\)"):
            init_belief(cfg, particle_major, grid, np.random.default_rng(0))

    def test_all_occupied_init_rejected(self):
        grid, plan, scans, cfg = self._mini()
        with pytest.raises(FilterDegeneracyError):
            init_belief(cfg, point_sampler(Pose(0.5, 0.5, 0)), grid, np.random.default_rng(0),
                        plan.actions[1 : 1 + cfg.lag])

    def test_degenerate_weights_raise(self):
        grid, plan, scans, cfg = self._mini(lag=0)
        import dataclasses

        cfg = dataclasses.replace(cfg, lag=0, n_particles=5, motion_noise=NoiseParams(0, 0, 0))
        # every particle steps into the far wall, so all weights vanish
        state = init_belief(cfg, point_sampler(Pose(38.5, 4.0, 0.0)), grid, np.random.default_rng(0))
        with pytest.raises(FilterDegeneracyError):
            deq_step(state, Action(1.0, 0.0), scans[2], cfg, grid, np.random.default_rng(0))


def reference_roll_out(start, actions, log_weights, cfg, grid, rng):
    """`filters._roll_out` as one prior call per transition, in draw order."""
    n = start.shape[1]
    poses = np.empty((3, len(actions), n))
    log_priors = np.full((len(actions), n), -0.0)
    prev = start
    for k, action in enumerate(actions):
        nxt = motion_sample_batch(prev, action, cfg.motion_noise, rng)
        if cfg.beta:
            log_priors[k] = traversability_log_prior_batch(
                grid, prev, nxt, cfg.beta, cfg.collision_step
            )
            log_weights = log_weights + log_priors[k]
        poses[:, k] = nxt
        prev = nxt
    return poses, log_priors, log_weights


class TestRollOut:
    """The grouped prior of `_roll_out` against one prior call per transition."""

    S = filters._PRIOR_SEGMENTS

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("beta", [0.0, 2.5])
    @pytest.mark.parametrize("k, n", [
        (0, 7), (0, 8193),  # init_belief with no planned action
        (1, 8191), (1, 8192), (1, 8193),
        (2, S // 2 - 1), (2, S // 2), (2, S // 2 + 1),
        (21, S // 21 - 1), (21, S // 21), (21, S // 21 + 1), (21, S + 1),
    ])
    def test_bit_exact_against_per_transition_loop(self, monkeypatch, k, n, beta):
        # a cluttered room, so that segments of both kinds, free and colliding, occur
        grid = make_room(40, 40)
        cells = grid.cells | (np.random.default_rng(3).random(grid.cells.shape) < 0.15)
        grid = OccupancyGrid(40, 40, 1.0, cells)
        cfg = FilterConfig(n_particles=n, lag=k, beta=beta, motion_noise=NoiseParams(0.5, 0.2, 0))
        setup = np.random.default_rng(n + k)
        start = np.vstack([setup.uniform(0, 40, (n, 2)).T, setup.uniform(-np.pi, np.pi, n)])
        log_weights = setup.standard_normal(n) * 3.0
        actions = [Action(2.0 + 0.1 * i, 0.3 * (-1) ** i) for i in range(k)]

        rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        reference = reference_roll_out(start, actions, log_weights, cfg, grid, rng_ref)
        calls = []
        original = filters.traversability_log_prior_batch

        def counted(grid, prev, nxt, beta, step):
            calls.append(prev.shape[1])
            return original(grid, prev, nxt, beta, step)

        monkeypatch.setattr(filters, "traversability_log_prior_batch", counted)
        got = filters._roll_out(start, actions, log_weights, cfg, grid, rng)

        assert got[0].shape == (3, k, n) and got[1].shape == (k, n)
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(self._bits(a), self._bits(b))
        assert rng.standard_normal() == rng_ref.standard_normal()
        group = max(1, self.S // n)
        assert len(calls) == (-(-k // group) if beta else 0)
        assert sum(calls) == (k * n if beta else 0)
        assert all(c <= max(self.S, n) for c in calls)
        if beta and k:
            assert np.any(reference[1] < 0) and np.any(reference[1] == 0)


class TestStepInvariantsAllFilters:
    @pytest.mark.parametrize("method", ["mcl", "mcl_map_motion", "mcl_smoother", "deq_mcl"])
    def test_weights_normalized_and_count_preserved(self, method):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=50.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, 12)
        truth, scans = _world(grid, plan, Pose(6, 6, 0), NoiseParams(0.1, 0.0, 0.5), beams, 1)
        cfg = FilterConfig(n_particles=120, lag=3, beta=4.0,
                           motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=1.5)
        rng = np.random.default_rng(21)
        sampler = gaussian_sampler(Pose(6, 6, 0), 3.0, 0.1)
        if method == "deq_mcl":
            state = init_belief(cfg, sampler, grid, rng, plan.actions[1 : 1 + cfg.lag])
        else:
            state = init_belief(cfg, sampler, grid, rng)
        steppers = {
            "mcl": lambda st, t: mcl_step(st, plan.action(t), scans[t], cfg, grid, rng),
            "mcl_map_motion": lambda st, t: mcl_map_motion_step(st, plan.action(t), scans[t], cfg, grid, rng),
            "mcl_smoother": lambda st, t: mcl_smoother_step(st, plan.action(t), scans[t], cfg, grid, rng),
            "deq_mcl": lambda st, t: deq_step(st, plan.action(t), scans[t], cfg, grid, rng, plan.actions[t : t + cfg.lag]),
        }
        for t in range(2, plan.horizon + 1):
            state = steppers[method](state, t)
            assert state.n_particles == 120
            for off in range(-state.n_past, state.n_future + 1):
                w = BeliefSnapshot(state.slot(off), state.weights()).weights
                assert np.all(w >= 0)
                assert abs(w.sum() - 1.0) < 1e-9
