import collections
import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from deqmcl import filters, harness, oracle

from deqmcl.filters import FilterConfig
from deqmcl.gridmap import OccupancyGrid
from deqmcl.oracle import (
    DiscreteHmm,
    ImpossibleEvidenceError,
    LatticeSizeError,
    discretize,
    emission_weights,
    exact_queue_posterior,
    gaussian_initial,
    tv_distance,
    uniform_box_initial,
)
from deqmcl.worldsim import Action, BeamConfig, NoiseParams, Pose, normalize_angle, normalize_angles, sense

from conftest import make_room


def strip_grid(n_cells=6):
    """All-free 1D strip; the out-of-bounds boundary acts as the walls."""
    return OccupancyGrid(n_cells, 1, 1.0, np.zeros((1, n_cells), dtype=bool))


def strip_hmm(n_cells=6, sigma_v=0.5, beta=0.0, sensor_sigma=1.5):
    grid = strip_grid(n_cells)
    cfg = FilterConfig(
        n_particles=10,
        lag=2,
        beta=beta,
        motion_noise=NoiseParams(sigma_v, 0.0, 0.5),
        sensor_sigma=sensor_sigma,
        collision_step=0.5,
    )
    hmm = discretize(grid, cfg, [Action(1.0, 0.0), Action(-1.0, 0.0)], cell=1.0, n_heading_bins=1)
    return grid, cfg, hmm


def strip_scan(grid, x, rng_seed=0, sigma_range=0.3):
    beams = BeamConfig(headings=(0.0,), max_range=10.0, ray_step=0.1)
    return sense(grid, Pose(x, 0.5, 0.0), beams, NoiseParams(0, 0, sigma_range),
                 np.random.default_rng(rng_seed))


def enumerate_queue_posterior(hmm, actions, emissions, lag, max_tuples=2_000_000):
    """Brute-force joint enumeration over full trajectories, for tiny instances.

    Takes `exact_queue_posterior`'s arguments and returns the window of its
    last step t = len(emissions) + 1, summed over every trajectory of the
    window instead of by message passing, so that it guards the oracle itself.
    """
    if len(emissions) > len(actions):
        raise ValueError(f"{len(emissions)} emissions but only {len(actions)} actions")
    t = len(emissions) + 1
    n_past, n_future = min(t - 1, lag), min(lag, len(actions) + 1 - t)
    steps = t + n_future
    n_states = hmm.n_states
    if n_states ** steps > max_tuples:
        raise LatticeSizeError(f"{n_states}^{steps} trajectories exceed {max_tuples}")

    kernels = [hmm.weighted_transitions[a] for a in actions]
    marginals = {k: np.zeros(n_states) for k in range(-n_past, n_future + 1)}
    total = 0.0
    for traj in itertools.product(range(n_states), repeat=steps):
        w = hmm.initial[traj[0]]
        for j in range(2, steps + 1):
            if w == 0.0:
                break
            w *= kernels[j - 2][traj[j - 2], traj[j - 1]]
            if j <= t:
                w *= emissions[j - 2][traj[j - 1]]
        else:
            if w > 0.0:
                total += w
                for k in range(-n_past, n_future + 1):
                    marginals[k][traj[t + k - 1]] += w
    if total <= 0:
        raise ImpossibleEvidenceError("evidence has zero probability under enumeration")
    return {k: m / total for k, m in marginals.items()}


def restarted_queue_posterior(hmm, actions, emissions, lag):
    """The window of step t = len(emissions) + 1 alone, its forward recursion
    restarted from the prior: `exact_queue_posterior`'s bit-for-bit reference
    for each step of its one sweep."""
    t = len(emissions) + 1
    n_past, n_future = min(t - 1, lag), min(lag, len(actions) + 1 - t)
    kernels = [hmm.weighted_transitions[a] for a in actions]

    alphas = {}
    msg = hmm.initial / hmm.initial.sum()
    if 1 >= t - n_past:
        alphas[1] = msg
    for j in range(2, t + n_future + 1):
        msg = kernels[j - 2].T @ msg
        if j <= t:
            msg = msg * emissions[j - 2]
        msg = msg / msg.sum()
        if j >= t - n_past:
            alphas[j] = msg

    betas = {t + n_future: np.ones(hmm.n_states)}
    for j in range(t + n_future - 1, t - n_past - 1, -1):
        incoming = betas[j + 1]
        if j + 1 <= t:
            incoming = incoming * emissions[j - 1]
        b = kernels[j - 1] @ incoming
        betas[j] = b / b.max()

    out = {}
    for k in range(-n_past, n_future + 1):
        m = alphas[t + k] * betas[t + k]
        out[k] = m / m.sum()
    return out


def reference_discretize(grid, cfg, actions, cell, n_heading_bins):
    """`discretize`'s lattice as a loop of `np.add.at` calls, one per (source
    heading bin, destination heading bin, forward node): (centers, initial,
    kernels, number of rows whose mass all left the lattice)."""
    nx = math.ceil(grid.world_width / cell - 1e-9)
    ny = math.ceil(grid.world_height / cell - 1e-9)
    n_states = nx * ny * n_heading_bins
    ixs, iys = np.meshgrid(np.arange(nx), np.arange(ny))
    cell_x = (ixs.ravel() + 0.5) * cell
    cell_y = (iys.ravel() + 0.5) * cell
    bin_width = 2.0 * math.pi / n_heading_bins
    bin_centers = -math.pi + (np.arange(n_heading_bins) + 0.5) * bin_width

    centers = np.empty((3, n_states))
    for ib in range(n_heading_bins):
        idx = np.arange(nx * ny) * n_heading_bins + ib
        centers[0, idx] = cell_x
        centers[1, idx] = cell_y
        centers[2, idx] = bin_centers[ib]
    initial = (~grid.occupied_xy(centers[0], centers[1])).astype(float)
    initial /= initial.sum()

    noise = cfg.motion_noise
    kernels, n_dead = {}, 0
    cell_state_base = np.arange(nx * ny) * n_heading_bins
    for action in actions:
        head = np.zeros((n_heading_bins, n_heading_bins))
        for ib in range(n_heading_bins):
            target = bin_centers[ib] + action.omega
            if noise.sigma_omega == 0:
                bt = min(int((normalize_angle(target) + math.pi) / bin_width), n_heading_bins - 1)
                head[ib, bt] = 1.0
            else:
                diff = np.array([normalize_angle(c - target) for c in bin_centers])
                dens = np.exp(-0.5 * (diff / noise.sigma_omega) ** 2)
                head[ib] = dens / dens.sum()
        if noise.sigma_v == 0:
            s_nodes, s_weights = np.array([action.v]), np.array([1.0])
        else:
            z = -6.0 + (np.arange(oracle.QUAD_POINTS) + 0.5) * 12.0 / oracle.QUAD_POINTS
            s_nodes = action.v + noise.sigma_v * z
            s_weights = np.exp(-0.5 * z * z)
            s_weights = s_weights / s_weights.sum()

        trans = np.zeros((n_states, n_states))
        for ib in range(n_heading_bins):
            src = cell_state_base + ib
            for bt in range(n_heading_bins):
                hw = head[ib, bt]
                if hw == 0.0:
                    continue
                ct, st = math.cos(bin_centers[bt]), math.sin(bin_centers[bt])
                for s_val, s_w in zip(s_nodes, s_weights):
                    dst_ix = np.floor((cell_x + s_val * ct) / cell).astype(np.int64)
                    dst_iy = np.floor((cell_y + s_val * st) / cell).astype(np.int64)
                    ok = (dst_ix >= 0) & (dst_ix < nx) & (dst_iy >= 0) & (dst_iy < ny)
                    dst = (dst_iy[ok] * nx + dst_ix[ok]) * n_heading_bins + bt
                    np.add.at(trans, (src[ok], dst), hw * s_w)
        row_sums = trans.sum(axis=1)
        dead = row_sums == 0
        n_dead += dead.sum()
        trans[dead, np.arange(n_states)[dead]] = 1.0
        row_sums[dead] = 1.0
        trans /= row_sums[:, None]

        src_idx, dst_idx = np.nonzero(trans)
        counts = grid.segment_collision_counts(
            centers[0, src_idx], centers[1, src_idx], centers[0, dst_idx], centers[1, dst_idx],
            cfg.collision_step,
        )
        trans[src_idx, dst_idx] *= np.exp(-cfg.beta * counts)
        kernels[action] = trans
    return centers, initial, kernels, n_dead


class TestDiscretize:
    def test_zero_noise_unit_mass_on_successor(self):
        grid, cfg, _ = strip_hmm()
        import dataclasses

        cfg0 = dataclasses.replace(cfg, motion_noise=NoiseParams(0, 0, 0))
        hmm = discretize(grid, cfg0, [Action(1.0, 0.0)], cell=1.0, n_heading_bins=1)
        trans = hmm.weighted_transitions[Action(1.0, 0.0)]
        for i in range(5):  # interior states step one cell right
            assert trans[i, i + 1] == 1.0
            assert trans[i].sum() == 1.0

    @pytest.mark.parametrize("beta", [0.0, 1.5])
    @pytest.mark.parametrize("sigma_v, sigma_omega", [(0.4, 0.3), (0.4, 0.0), (0.0, 0.3), (0.0, 0.0)])
    @pytest.mark.parametrize("n_heading_bins", [1, 5, 12])
    def test_kernels_match_reference_loop(self, n_heading_bins, sigma_v, sigma_omega, beta):
        # a 7 x 5 room with a one-cell pillar on a lattice of 0.7-unit cells;
        # a step of 4.5 leaves the lattice from the middle cells at every
        # heading, so without forward noise their rows hold their state
        grid = make_room(7, 5)
        grid.cells[2, 3] = True
        cfg = FilterConfig(n_particles=10, lag=1, beta=beta, motion_noise=NoiseParams(sigma_v, sigma_omega, 0.5),
                           sensor_sigma=1.0, collision_step=0.3)
        actions = [Action(1.0, 0.0), Action(4.5, 0.7), Action(-0.8, -2.0)]
        hmm = discretize(grid, cfg, actions, cell=0.7, n_heading_bins=n_heading_bins)
        centers, initial, kernels, n_dead = reference_discretize(grid, cfg, actions, 0.7, n_heading_bins)
        assert n_dead > 0 or sigma_v > 0
        np.testing.assert_array_equal(hmm.centers.view(np.int64), centers.view(np.int64))
        np.testing.assert_array_equal(hmm.initial.view(np.int64), initial.view(np.int64))
        assert list(hmm.weighted_transitions) == actions
        for action in actions:
            np.testing.assert_array_equal(
                hmm.weighted_transitions[action].view(np.int64), kernels[action].view(np.int64)
            )

    def test_rows_sum_to_one(self):
        _, _, hmm = strip_hmm(sigma_v=0.7)
        for trans in hmm.weighted_transitions.values():
            np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-9)

    def test_mirrored_action_mirrors_rows(self):
        _, _, hmm = strip_hmm(sigma_v=0.5)
        fwd = hmm.weighted_transitions[Action(1.0, 0.0)]
        bwd = hmm.weighted_transitions[Action(-1.0, 0.0)]
        n = fwd.shape[0]
        np.testing.assert_allclose(fwd, bwd[::-1, ::-1], atol=1e-12)

    def test_lattice_size_refusal_reports_size(self):
        grid = make_room(200, 200)
        cfg = FilterConfig(n_particles=10)
        with pytest.raises(LatticeSizeError, match="40000"):
            discretize(grid, cfg, [Action(1, 0)], cell=1.0, n_heading_bins=1)

    def test_kernel_budget_refused_before_any_allocation(self):
        # 100 x 60 cells = 6,000 states, under the state cap; one dense
        # 6000 x 6000 float64 kernel would take 275 MiB
        grid = make_room(100, 60)
        cfg = FilterConfig(n_particles=10)
        assert 6000 <= oracle.MAX_LATTICE_STATES and 6000**2 * 8 > oracle.MAX_KERNEL_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(LatticeSizeError, match=(
                r"^100 x 60 cells x 1 heading bins = 6000 states need 1 distinct actions x 274.7 MiB "
                r"of dense kernels, over the 256 MiB budget$"
            )):
                discretize(grid, cfg, [Action(1, 0), Action(1, 0)], cell=1.0, n_heading_bins=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the budget counts each distinct action: 3,000 states take 68.7 MiB per kernel
        with pytest.raises(LatticeSizeError, match=r"3000 states need 4 distinct actions x 68.7 MiB"):
            discretize(make_room(50, 60), cfg, [Action(1, 0), Action(1, 0.1), Action(1, 0.2), Action(1, 0.3)],
                       cell=1.0, n_heading_bins=1)

    def test_map_prior_folds_into_weighted_kernel(self):
        # the strip with its cell 3 occupied: moves across it lose weight
        cells = np.zeros((1, 6), dtype=bool)
        cells[0, 3] = True
        grid = OccupancyGrid(6, 1, 1.0, cells)
        _, cfg, _ = strip_hmm(sigma_v=0.5)
        act = Action(1.0, 0.0)
        trans, weighted = (
            discretize(grid, dataclasses.replace(cfg, beta=beta), [act], 1.0, 1).weighted_transitions[act]
            for beta in (0.0, 2.0)
        )
        assert np.all(weighted <= trans)
        # moves that stay in free space: no penalty
        assert weighted[1, 2] == trans[1, 2]
        assert 0 < weighted[2, 4] < trans[2, 4]

    def test_emission_minus_inf_at_occupied_states(self):
        grid = make_room(8, 8)
        cfg = FilterConfig(n_particles=10, sensor_sigma=1.0)
        hmm = discretize(grid, cfg, [Action(1, 0)], cell=1.0, n_heading_bins=1)
        beams = BeamConfig(headings=(0.0,), max_range=10.0, ray_step=0.1)
        scan = sense(grid, Pose(4.0, 4.0, 0.0), beams, NoiseParams(0, 0, 0.3),
                     np.random.default_rng(0))
        log_e = hmm.log_emission(scan)
        free = ~grid.occupied_xy(hmm.centers[0], hmm.centers[1])
        assert np.all(log_e[~free] == -np.inf)
        assert np.all(np.isfinite(log_e[free]))


def weights(hmm, scans):
    return [emission_weights(hmm, scan) for scan in scans]


class TestExactQueuePosterior:
    def test_lag0_reduces_to_forward_filter(self):
        grid, cfg, hmm = strip_hmm(sigma_v=0.5, sensor_sigma=1.5)
        act = Action(1.0, 0.0)
        scans = [strip_scan(grid, 2.5, s) for s in range(3)]
        out = exact_queue_posterior(hmm, [act] * 3, weights(hmm, scans), lag=0)[4]
        assert set(out) == {0}
        # independent forward algorithm written inline
        msg = hmm.initial.copy()
        g = hmm.weighted_transitions[act]
        for scan in scans:
            log_e = hmm.log_emission(scan)
            e = np.exp(log_e - log_e.max())
            msg = (g.T @ msg) * e
            msg /= msg.sum()
        np.testing.assert_allclose(out[0], msg, atol=1e-12)

    def test_uninformative_emission_smoothing_equals_filtering(self):
        grid, cfg, hmm = strip_hmm(sigma_v=0.5, beta=0.0)
        act = Action(1.0, 0.0)
        out = exact_queue_posterior(hmm, [act] * 5, [np.ones(hmm.n_states)] * 3, lag=2)[4]
        # with constant emission and no map prior the backward pass is flat:
        # every past/current marginal equals the plain forward marginal
        msg = hmm.initial.copy()
        g = hmm.weighted_transitions[act]
        forward = {1: msg}
        for j in range(2, 7):
            msg = g.T @ msg
            msg = msg / msg.sum()
            forward[j] = msg
        for k in range(-2, 3):
            np.testing.assert_allclose(out[k], forward[4 + k], atol=1e-12)

    def test_future_offsets_beta0_are_chapman_kolmogorov(self):
        grid, cfg, hmm = strip_hmm(sigma_v=0.5, beta=0.0)
        act = Action(1.0, 0.0)
        scans = [strip_scan(grid, 2.5, s) for s in range(3)]
        out = exact_queue_posterior(hmm, [act] * 7, weights(hmm, scans), lag=2)[4]
        g = hmm.weighted_transitions[act]
        prop1 = g.T @ out[0]
        prop2 = g.T @ prop1
        np.testing.assert_allclose(out[1], prop1 / prop1.sum(), atol=1e-12)
        np.testing.assert_allclose(out[2], prop2 / prop2.sum(), atol=1e-12)

    def test_hand_computed_tiny_chain(self):
        # 3-step chain on a 4-cell strip, computed inline by explicit sums
        grid = strip_grid(4)
        cfg = FilterConfig(n_particles=10, lag=1, beta=1.0,
                           motion_noise=NoiseParams(0.6, 0.0, 0.5),
                           sensor_sigma=1.0, collision_step=0.5)
        act = Action(1.0, 0.0)
        hmm = discretize(grid, cfg, [act], cell=1.0, n_heading_bins=1)
        scans = [strip_scan(grid, 1.5, 7), strip_scan(grid, 2.5, 8)]
        out = exact_queue_posterior(hmm, [act] * 3, weights(hmm, scans), lag=1)[3]

        g = hmm.weighted_transitions[act]
        e = {}
        for j, scan in zip((2, 3), scans):
            log_e = hmm.log_emission(scan)
            e[j] = np.exp(log_e - log_e.max())
        pi = hmm.initial
        n = 4
        joint = np.zeros((n, n, n, n))  # times 1..4
        for x1 in range(n):
            for x2 in range(n):
                for x3 in range(n):
                    for x4 in range(n):
                        joint[x1, x2, x3, x4] = (
                            pi[x1]
                            * g[x1, x2] * e[2][x2]
                            * g[x2, x3] * e[3][x3]
                            * g[x3, x4]
                        )
        joint /= joint.sum()
        np.testing.assert_allclose(out[-1], joint.sum(axis=(0, 2, 3)), atol=1e-12)
        np.testing.assert_allclose(out[0], joint.sum(axis=(0, 1, 3)), atol=1e-12)
        np.testing.assert_allclose(out[1], joint.sum(axis=(0, 1, 2)), atol=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        # every step's window of one sweep against the enumeration of that step alone
        act = Action(1.0, 0.0)
        for seed in range(5):
            grid, cfg, hmm = strip_hmm(sigma_v=0.6, beta=1.5, sensor_sigma=1.2)
            scans = [strip_scan(grid, 1.5 + 0.8 * j, 50 + 10 * seed + j) for j in range(3)]
            emissions = weights(hmm, scans)
            sweep = exact_queue_posterior(hmm, [act] * 4, emissions, lag=2)
            assert list(sweep) == [1, 2, 3, 4]
            for t, fb in sweep.items():
                brute = enumerate_queue_posterior(hmm, [act] * 4, emissions[: t - 1], lag=2)
                assert list(fb) == list(brute)
                for k in fb:
                    assert abs(fb[k].sum() - 1.0) < 1e-9
                    np.testing.assert_allclose(fb[k], brute[k], atol=1e-10)

    def test_impossible_evidence_raises(self, monkeypatch):
        grid, cfg, hmm = strip_hmm()
        ones, zeros = np.ones(hmm.n_states), np.zeros(hmm.n_states)
        with pytest.raises(ImpossibleEvidenceError, match="^evidence has zero probability at step 2$"):
            exact_queue_posterior(hmm, [Action(1, 0)], [zeros], lag=0)
        # the sweep fails at the step of the scan that explains no state, though
        # the windows of steps 1 and 2 never read that scan
        with pytest.raises(ImpossibleEvidenceError, match="^evidence has zero probability at step 3$"):
            exact_queue_posterior(hmm, [Action(1, 0)] * 3, [ones, zeros, ones], lag=1)
        monkeypatch.setattr(
            DiscreteHmm, "log_emission", lambda self, scan: np.full(self.n_states, -np.inf)
        )
        with pytest.raises(ImpossibleEvidenceError):
            emission_weights(hmm, None)

    def test_argument_length_validation(self):
        _, _, hmm = strip_hmm()
        ones = np.ones(hmm.n_states)
        exact_queue_posterior(hmm, [Action(1, 0)], [ones], lag=0)  # t = T is allowed
        for posterior in (exact_queue_posterior, enumerate_queue_posterior):
            with pytest.raises(ValueError, match="2 emissions but only 1 actions"):
                posterior(hmm, [Action(1, 0)], [ones, ones], lag=0)

    def test_enumeration_guards_size(self):
        _, _, hmm = strip_hmm()
        with pytest.raises(LatticeSizeError):
            enumerate_queue_posterior(hmm, [Action(1, 0)] * 19, [np.ones(hmm.n_states)] * 19,
                                      lag=0, max_tuples=1000)


class TestValidationPlumbing:
    def test_tv_distance(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        assert tv_distance(np.array([0.7, 0.3]), np.array([0.3, 0.7])) == pytest.approx(0.4)

    def test_uniform_box_initial_covers_expected_cells(self):
        _, _, hmm = strip_hmm()
        init = uniform_box_initial(hmm, (1.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        assert init.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(init[1:3], 0.5, atol=1e-12)
        assert init[0] == 0.0 and init[3:].sum() == 0.0

    def test_uniform_box_initial_wraps_headings_as_the_sampler(self):
        # a 170-190 degree box on 12 bins: the sampler's wrapped headings fall
        # in bins 0 and 11 alike, and the lattice splits the mass between them
        grid = strip_grid(2)
        cfg = FilterConfig(n_particles=10, motion_noise=NoiseParams(0.0, 0.0, 0.5))
        hmm = discretize(grid, cfg, [Action(1.0, 0.0)], cell=1.0, n_heading_bins=12)
        box = (0.0, 2.0, 0.0, 1.0, math.radians(170.0), math.radians(190.0))
        init = uniform_box_initial(hmm, box)
        per_bin = init.reshape(2, 12).sum(axis=0)
        np.testing.assert_allclose(per_bin[[0, 11]], 0.5, atol=1e-12)
        assert per_bin[1:11].sum() == 0.0
        cfg = harness.load_config("tiny.cfg")  # a uniform box
        sampler = harness.make_init_sampler(dataclasses.replace(cfg, init=dataclasses.replace(cfg.init, box=box)))
        theta = normalize_angles(sampler(np.random.default_rng(0), 20_000)[2])
        sampled = np.bincount(hmm.heading_bin(theta), minlength=12) / theta.size
        np.testing.assert_allclose(sampled, per_bin, atol=0.01)

    def test_uniform_box_initial_degenerate_heading_past_pi(self):
        # 190 degrees wraps to -170, the middle of bin 0 of 12
        grid = strip_grid(2)
        cfg = FilterConfig(n_particles=10, motion_noise=NoiseParams(0.0, 0.0, 0.5))
        hmm = discretize(grid, cfg, [Action(1.0, 0.0)], cell=1.0, n_heading_bins=12)
        theta = math.radians(190.0)
        init = uniform_box_initial(hmm, (0.0, 2.0, 0.0, 1.0, theta, theta))
        np.testing.assert_array_equal(init.reshape(2, 12)[:, 0], 0.5)
        assert init.reshape(2, 12)[:, 1:].sum() == 0.0

    def test_gaussian_initial_normalized_and_centered(self):
        _, _, hmm = strip_hmm(n_cells=9)
        init = gaussian_initial(hmm, Pose(4.5, 0.5, 0.0), sigma_xy=1.0, sigma_theta=0.2)
        assert init.sum() == pytest.approx(1.0, abs=1e-12)
        assert init.argmax() == 4

    @pytest.mark.parametrize("n_heading_bins", [1, 12])
    def test_point_mass_initial_belief_is_the_state_that_holds_it(self, n_heading_bins):
        # a zero-width box axis, or a zero sigma, puts the mass where the
        # filter's sampler puts every particle: in the state that holds the point
        grid = OccupancyGrid(6, 3, 1.0, np.zeros((3, 6), dtype=bool))
        cfg = FilterConfig(n_particles=10, motion_noise=NoiseParams(0.0, 0.0, 0.5))
        hmm = discretize(grid, cfg, [Action(1.0, 0.0)], cell=0.5, n_heading_bins=n_heading_bins)
        x, y, theta = 3.5, 1.5, math.radians(100.0)  # x and y on cell edges
        state, on_lattice = hmm.state_index(np.array(x), np.array(y), np.array(theta))
        assert on_lattice
        one_state = np.zeros(hmm.n_states)
        one_state[state] = 1.0
        np.testing.assert_array_equal(uniform_box_initial(hmm, (x, x, y, y, theta, theta)), one_state)
        np.testing.assert_array_equal(gaussian_initial(hmm, Pose(x, y, theta), 0.0, 0.0), one_state)
        # one point-mass axis: the other axes keep their spread
        xs, ys, ths = hmm.centers
        box = uniform_box_initial(hmm, (x, x, 0.0, 3.0, theta, theta))
        np.testing.assert_array_equal(box > 0, (xs == 3.75) & (hmm.heading_bin(ths) == hmm.heading_bin(theta)))
        gauss = gaussian_initial(hmm, Pose(x, y, theta), 0.0, 0.3)
        np.testing.assert_array_equal(gauss > 0, (xs == 3.75) & (ys == 1.75))
        assert gauss.sum() == pytest.approx(1.0, abs=1e-12)
        gauss = gaussian_initial(hmm, Pose(x, y, theta), 1.0, 0.0)
        np.testing.assert_array_equal(gauss > 0, hmm.heading_bin(ths) == hmm.heading_bin(theta))

    def test_gaussian_initial_sharp_heading_keeps_its_mass(self):
        # 0.005 degrees of spread around 0.5 degrees: every bin centre lies
        # 100 sigma away or more, where the density underflows to 0
        for n_heading_bins in (1, 12):
            grid = strip_grid(9)
            cfg = FilterConfig(n_particles=10, motion_noise=NoiseParams(0.0, 0.0, 0.5))
            hmm = discretize(grid, cfg, [Action(1.0, 0.0)], cell=1.0, n_heading_bins=n_heading_bins)
            mean = Pose(4.5, 0.5, math.radians(0.5))
            sharp = gaussian_initial(hmm, mean, 1.0, math.radians(0.005))
            np.testing.assert_array_equal(sharp, gaussian_initial(hmm, mean, 1.0, 0.0))

    @pytest.mark.parametrize("init", [
        harness.InitSpec(kind="uniform_box", sigma_xy=10.0, sigma_theta=0.2, box=(3.5, 3.5, 1.5, 1.5, 0.0, 0.0)),
        harness.InitSpec(kind="gaussian", sigma_xy=0.0, sigma_theta=0.2, box=None),
    ], ids=["box", "gaussian"])
    def test_point_mass_initial_belief_validates(self, init):
        # tiny.cfg starts at (3.5, 1.5): both put every particle at the start position
        cfg = dataclasses.replace(tiny_cfg(seeds=1), init=init)
        rows = harness.run_oracle_validation(cfg)
        assert rows and all(math.isfinite(r["tv"]) for r in rows)

    def test_bin_belief_drops_off_lattice_mass(self):
        from deqmcl.oracle import bin_belief

        _, _, hmm = strip_hmm()
        # two slots of two particles: off the lattice in one slot each; (3, slots, n)
        poses = np.array([[[1.5, 0.5, 0.0], [100.0, 0.5, 0.0]], [[4.5, 0.5, 0.0], [2.5, -0.5, 0.0]]]).transpose(2, 0, 1)
        binned = bin_belief(hmm, poses, np.array([0.25, 0.75]))
        assert binned.shape == (2, hmm.n_states)
        np.testing.assert_array_equal(binned.sum(axis=1), [0.25, 0.25])
        assert binned[0, 1] == 0.25 and binned[1, 4] == 0.25


def reference_bin_belief(hmm: DiscreteHmm, snapshot) -> np.ndarray:
    """`oracle.bin_belief` of one slot, with its heading wrap written out by `np.mod`."""
    ix = np.floor(snapshot.poses[0] / hmm.cell).astype(np.int64)
    iy = np.floor(snapshot.poses[1] / hmm.cell).astype(np.int64)
    width = 2.0 * math.pi / hmm.n_heading_bins
    theta = np.mod(snapshot.poses[2], 2.0 * math.pi)
    theta = np.where(theta > math.pi, theta - 2.0 * math.pi, theta)
    ib = np.minimum(((theta + math.pi) / width).astype(np.int64), hmm.n_heading_bins - 1)
    valid = (ix >= 0) & (ix < hmm.nx) & (iy >= 0) & (iy < hmm.ny)
    idx = (iy[valid] * hmm.nx + ix[valid]) * hmm.n_heading_bins + ib[valid]
    return np.bincount(idx, weights=snapshot.weights[valid], minlength=hmm.n_states).astype(float)


class TestBinBelief:
    @pytest.mark.parametrize("n_slots", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_heading_bins", [1, 4, 36])
    def test_matches_the_np_mod_wrap(self, n_heading_bins, n_slots):
        # headings at +-pi, one ulp either side of them, at multiples of 2 pi
        # and of pi wrapped from up to 20 turns away, and at bin edges; every
        # slot shuffles them and draws its own positions, some off the lattice
        from deqmcl.filters import BeliefSnapshot
        from deqmcl.oracle import bin_belief

        grid = OccupancyGrid(3, 2, 1.0, np.zeros((2, 3), dtype=bool))
        cfg = FilterConfig(n_particles=10, lag=1, beta=0.0, motion_noise=NoiseParams(0.2, 0.1, 0.5),
                           sensor_sigma=1.0, collision_step=0.5)
        hmm = discretize(grid, cfg, [Action(1.0, 0.0)], cell=1.0, n_heading_bins=n_heading_bins)
        edges = -math.pi + np.arange(n_heading_bins + 1) * (2.0 * math.pi / n_heading_bins)
        turns = np.arange(-20, 21) * 2.0 * math.pi
        base = np.concatenate([[math.pi, -math.pi, 0.0, -0.0], edges, turns, turns + math.pi, turns - math.pi])
        theta = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
        rng = np.random.default_rng(10 * n_heading_bins + n_slots)
        n = theta.size
        poses = np.stack([
            rng.uniform(-0.5, 3.5, (n, n_slots)).T,
            rng.uniform(-0.5, 2.5, (n, n_slots)).T,
            np.array([rng.permutation(theta) for _ in range(n_slots)]),
        ])  # (3, n_slots, n)
        weights = rng.random(n)
        weights /= weights.sum()
        got = bin_belief(hmm, poses, weights)
        assert got.shape == (n_slots, hmm.n_states)
        for j in range(n_slots):
            snap = BeliefSnapshot(poses[:, j], weights)
            np.testing.assert_array_equal(got[j], reference_bin_belief(hmm, snap))
            assert got[j].sum() > 0


class TestOracleOutputDigest:
    # sha256 of oracle_tv.csv from tiny.cfg with 2 oracle seeds (Python
    # 3.11.7, numpy 2.4.6, x86-64).  Recorded when the queue filter became
    # one path: tiny.cfg used to run the incremental variant, which appended
    # one prediction per step, and now re-proposes its future side every
    # step as paper.cfg does, which draws other samples.  Speed-ups must
    # keep it.
    TINY_2_SEEDS = "0cf65c5df6343f971d55cf67ba86eb9233ff2d291cc665b0897c3698fbb81b78"

    def test_tiny_oracle_output_is_byte_identical(self, tmp_path):
        cfg = harness.load_config("tiny.cfg")
        cfg = dataclasses.replace(cfg, oracle_params=dataclasses.replace(cfg.oracle_params, seeds=2))
        harness.run_oracle_validation(cfg, out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "oracle_tv.csv").read_bytes()).hexdigest()
        assert digest == self.TINY_2_SEEDS

    # the same file with 5 oracle seeds at master seeds 1 and 7, hashed as the
    # benchmark's `oracle` workload hashes it (`perfbench/run.py`), whose own
    # recorded digests predate the one-path change above
    TINY_5_SEEDS = {
        1: "e425433e04d5d4b0cfbfc56bb6f8c8f9e0f7bf3dd82ae55c49c21039fabb4937",
        7: "0cb584cde388b621617e10553a8ac2390e2519e5f0b081369a07d0d27048d63d",
    }

    @pytest.mark.parametrize("master_seed", [1, 7])
    def test_benchmark_oracle_output_is_byte_identical(self, tmp_path, master_seed):
        cfg = dataclasses.replace(tiny_cfg(seeds=5), master_seed=master_seed)
        harness.run_oracle_validation(cfg, out_dir=str(tmp_path))
        digest = hashlib.sha256((tmp_path / "oracle_tv.csv").read_bytes()).hexdigest()
        assert digest == self.TINY_5_SEEDS[master_seed]


def tiny_cfg(**oracle_params):
    cfg = harness.load_config("tiny.cfg")
    return dataclasses.replace(
        cfg, oracle_params=dataclasses.replace(cfg.oracle_params, **oracle_params)
    )


def count_oracle_calls(monkeypatch, names) -> collections.Counter:
    """Calls of each of the `oracle` functions ``names`` over a 2-seed tiny.cfg validation."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(oracle, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    harness.run_oracle_validation(tiny_cfg(seeds=2))
    return calls


class TestOracleValidation:
    def test_validates_the_filter_run_runs(self, monkeypatch):
        # the oracle scores the very deq_mcl trial `run` makes: every step's
        # poses and log weights, bit for bit, on trials 0 and 2
        steps = []

        def recorded(*args, _original=filters.deq_step, **kwargs):
            state = _original(*args, **kwargs)
            steps.append(tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (state.poses, state.log_weights)))
            return state

        monkeypatch.setattr(filters, "deq_step", recorded)
        cfg = tiny_cfg(seeds=3)
        harness.run_oracle_validation(cfg)
        per_trial = 13  # tiny.cfg's plan has 14 steps
        assert len(steps) == 3 * per_trial
        validated = [steps[k : k + per_trial] for k in range(0, len(steps), per_trial)]
        for trial in (0, 2):
            steps.clear()
            harness.run_trial(cfg, "deq_mcl", trial)
            assert steps == validated[trial]

    def test_one_emission_per_scan(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch, ["observation_log_likelihood_batch", "exact_queue_posterior"])
        # tiny.cfg's plan has 14 steps: 13 scans per seed, and one exact sweep per seed
        assert calls == {"observation_log_likelihood_batch": 26, "exact_queue_posterior": 2}

    def test_one_binning_per_filter_step(self, monkeypatch):
        # the whole window is binned at once, not one marginal per offset
        assert count_oracle_calls(monkeypatch, ["bin_belief"]) == {"bin_belief": 26}

    def test_window_that_is_not_the_exact_posteriors_rejected(self, monkeypatch):
        # the rows of the binned window are matched to the exact offsets by position
        exact = oracle.exact_queue_posterior
        monkeypatch.setattr(oracle, "exact_queue_posterior",
                            lambda *a: {t: {**window, 3: None} for t, window in exact(*a).items()})
        with pytest.raises(RuntimeError, match="queue window"):
            harness.run_oracle_validation(tiny_cfg(seeds=1))

    def test_impossible_step_fails_before_its_filter_runs(self, monkeypatch, tmp_path):
        # seed 1's scan at step 5 has zero weight at every lattice state, so
        # wherever the predicted belief has mass: its sweep fails before any
        # of seed 1's filter steps, and only seed 0's 13 steps run
        scans_per_seed, seed, step = 13, 1, 5
        n_emissions, n_filter_steps = itertools.count(), itertools.count()

        def emission_weights(hmm, scan, _original=oracle.emission_weights):
            w = _original(hmm, scan)
            return np.zeros_like(w) if next(n_emissions) == seed * scans_per_seed + step - 2 else w

        def deq_step(*args, _original=filters.deq_step, **kwargs):
            next(n_filter_steps)
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, "emission_weights", emission_weights)
        monkeypatch.setattr(filters, "deq_step", deq_step)
        (tmp_path / "oracle_tv.csv").write_text("seed,t,offset,tv\n")  # a stale one, removed
        message = f"evidence has zero probability at step {step}"
        with pytest.raises(ImpossibleEvidenceError, match=f"^{message}$"):
            harness.run_oracle_validation(tiny_cfg(seeds=2), out_dir=str(tmp_path))
        assert next(n_filter_steps) == scans_per_seed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle_failures.txt"]
        assert (tmp_path / "oracle_failures.txt").read_text() == f"seed {seed}: {message}\n"

    def test_compare_t_past_horizon_rejected(self):
        with pytest.raises(harness.ConfigError, match="oracle.compare_t"):
            harness.run_oracle_validation(tiny_cfg(compare_t=50))

    def test_lattice_too_large_rejected(self):
        with pytest.raises(harness.ConfigError, match=(
            r"^oracle.cell and oracle.heading_bins: 480 x 60 cells x 1 heading bins = 28800 states "
            r"exceeds the enumerable limit of 10000$"
        )):
            harness.run_oracle_validation(tiny_cfg(cell=0.05))

    def test_lattice_over_the_kernel_budget_rejected(self):
        # 9,216 states, under the state cap, whose one dense kernel is over the budget
        with pytest.raises(harness.ConfigError, match=(
            r"^oracle.cell and oracle.heading_bins: 96 x 12 cells x 8 heading bins = 9216 states "
            r"need 1 distinct actions x 648.0 MiB of dense kernels, over the 256 MiB budget$"
        )):
            harness.run_oracle_validation(tiny_cfg(cell=0.25, heading_bins=8))


def tiny_lattice_emissions(n_seeds):
    """tiny.cfg's lattice, its plan's actions for steps 2..T and, per seed, the
    emission weights of scans 2..T, as `run_oracle_validation` builds them."""
    cfg = tiny_cfg()
    grid, plan = harness._world(cfg)
    actions = list(plan.actions[1:])
    hmm = discretize(grid, cfg.filter_base, list(dict.fromkeys(actions)), cfg.oracle_params.cell,
                     cfg.oracle_params.heading_bins)
    hmm.initial = uniform_box_initial(hmm, cfg.init.box)
    return hmm, actions, [weights(hmm, harness.trial_truth(cfg, s, grid, plan)[1][2:]) for s in range(n_seeds)]


def assert_windows_bit_identical(window, reference):
    assert list(window) == list(reference)
    for k in window:
        np.testing.assert_array_equal(window[k].view(np.int64), reference[k].view(np.int64))


class TestSweepMatchesRestart:
    @pytest.mark.parametrize("lag", [0, 2, 5, 20])  # none, tiny.cfg's, a middle one, past its 14 steps
    def test_every_step_is_bit_identical(self, lag):
        hmm, actions, per_seed = tiny_lattice_emissions(3)
        for emissions in per_seed:
            sweep = exact_queue_posterior(hmm, actions, emissions, lag)
            assert list(sweep) == list(range(1, len(actions) + 2))
            for t, window in sweep.items():
                assert_windows_bit_identical(window, restarted_queue_posterior(hmm, actions, emissions[: t - 1], lag))

    def test_no_emission_is_the_first_step_alone(self):
        hmm, actions, _ = tiny_lattice_emissions(0)
        sweep = exact_queue_posterior(hmm, actions, [], 2)
        assert list(sweep) == [1] and list(sweep[1]) == [0, 1, 2]
        assert_windows_bit_identical(sweep[1], restarted_queue_posterior(hmm, actions, [], 2))
