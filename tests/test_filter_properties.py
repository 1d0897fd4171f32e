"""Property tests of the queue filter over small random thin-walled grids:
weights stay normalized and finite, the window spans what the lag allows,
the stored future factors are the priors of the stored future transitions,
and with lag 0 the queue filter is map-motion MCL bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deqmcl.filters import (
    FilterConfig,
    FilterDegeneracyError,
    deq_step,
    init_belief,
    mcl_map_motion_step,
    traversability_log_prior_batch,
)
from deqmcl.gridmap import OccupancyGrid
from deqmcl.harness import simulate_truth
from deqmcl.worldsim import Action, ActionPlan, BeamConfig, NoiseParams, Pose

from conftest import pose_array


@st.composite
def worlds(draw):
    """A walled room with up to three one-cell interior walls with doors, a
    start in a free cell, a constant plan and a scan per step."""
    width = draw(st.integers(8, 30))
    height = draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.zeros((height, width), dtype=bool)
    cells[[0, -1], :] = True
    cells[:, [0, -1]] = True
    for _ in range(draw(st.integers(0, 3))):
        if rng.random() < 0.5:
            wall = cells[:, rng.integers(2, width - 2)]
        else:
            wall = cells[rng.integers(2, height - 2), :]
        wall |= rng.random(wall.size) >= 0.2  # in place on a view of cells; the rest are doors
    grid = OccupancyGrid(width, height, 1.0, cells)
    free_iy, free_ix = np.nonzero(~cells)
    pick = rng.integers(0, free_ix.size)
    start = Pose(free_ix[pick] + 0.5, free_iy[pick] + 0.5, rng.uniform(-np.pi, np.pi))
    count = draw(st.integers(1, 8))
    plan = ActionPlan((Action(0.0, 0.0),) + (Action(rng.uniform(0.0, 1.5), rng.uniform(-0.3, 0.3)),) * count)
    beams = BeamConfig(headings=(-1.0, 0.0, 1.0), max_range=20.0, ray_step=0.5)
    _, scans = simulate_truth(
        grid, plan, start, NoiseParams(0.1, 0.02, 0.3), beams,
        np.random.default_rng(rng.integers(2**32)), np.random.default_rng(rng.integers(2**32)),
    )
    return grid, start, plan, scans


def filter_configs(lag):
    return st.builds(
        FilterConfig,
        n_particles=st.integers(1, 60),
        lag=lag,
        beta=st.floats(0.0, 10.0),
        motion_noise=st.just(NoiseParams(0.4, 0.1, 0.0)),
        sensor_sigma=st.floats(0.5, 5.0),
        resample_threshold=st.floats(0.0, 1.0),
        collision_step=st.sampled_from([0.3, 0.5, 1.0]),
    )


def near(start):
    """Initial particles in the start's free cell (the start is its centre)."""
    def sampler(rng, n):
        return pose_array(start)[:, None] + rng.uniform(-0.49, 0.49, (n, 3)).T * [[1.0], [1.0], [0.2]]
    return sampler


def assert_stored_future_factors(state, grid, cfg):
    for k in range(1, state.n_future + 1):
        prev, nxt = state.poses[:, state.n_past + k - 1], state.poses[:, state.n_past + k]
        recomputed = traversability_log_prior_batch(grid, prev, nxt, cfg.beta, cfg.collision_step)
        np.testing.assert_array_equal(state.future_log_priors[k - 1], recomputed)


class TestQueueFilterProperties:
    @settings(max_examples=300, deadline=None)
    @given(world=worlds(), cfg=filter_configs(st.integers(0, 4)), seed=st.integers(0, 2**32 - 1))
    def test_step_invariants(self, world, cfg, seed):
        grid, start, plan, scans = world
        horizon, lag = plan.horizon, cfg.lag
        rng = np.random.default_rng(seed)
        state = init_belief(cfg, near(start), grid, rng, plan.actions[1 : 1 + cfg.lag])
        for t in range(1, horizon + 1):
            if t >= 2:
                try:
                    state = deq_step(state, plan.action(t), scans[t], cfg, grid, rng, plan.actions[t : t + cfg.lag])
                except FilterDegeneracyError:
                    return  # every particle left the free space; nothing more to check
            assert (state.n_past, state.n_future) == (min(t - 1, lag), min(lag, horizon - t))
            assert state.poses.shape == (3, min(t - 1, lag) + 1 + min(lag, horizon - t), cfg.n_particles)
            # a particle in an obstacle keeps log weight -inf, i.e. weight 0
            assert not np.isnan(state.log_weights).any()
            w = np.exp(state.log_weights)
            assert np.isfinite(w).all() and (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-9
            assert_stored_future_factors(state, grid, cfg)

    @settings(max_examples=200, deadline=None)
    @given(world=worlds(), cfg=filter_configs(st.just(0)), seed=st.integers(0, 2**32 - 1))
    def test_lag0_equals_map_motion(self, world, cfg, seed):
        grid, start, plan, scans = world
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        a = init_belief(cfg, near(start), grid, rng_a, plan.actions[1 : 1 + cfg.lag])
        b = init_belief(cfg, near(start), grid, rng_b)
        for t in range(2, plan.horizon + 1):
            try:
                a = deq_step(a, plan.action(t), scans[t], cfg, grid, rng_a, plan.actions[t : t + cfg.lag])
            except FilterDegeneracyError:
                a = None
            try:
                b = mcl_map_motion_step(b, plan.action(t), scans[t], cfg, grid, rng_b)
            except FilterDegeneracyError:
                b = None
            assert (a is None) == (b is None)
            if a is None:
                return
            assert np.array_equal(a.poses, b.poses)
            assert np.array_equal(a.log_weights, b.log_weights)
