import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deqmcl
from deqmcl.metrics import (
    _ENTROPY_BINS,
    BeliefSnapshot,
    belief_entropy,
    belief_variance,
    error_from_mean,
    mean_state,
    trial_rmse,
)
from deqmcl.worldsim import Pose


def snap(poses, weights=None):
    """A snapshot of ``(3, n)`` coordinate rows, uniformly weighted unless ``weights`` is given."""
    poses = np.asarray(poses, dtype=float)
    if weights is None:
        weights = np.full(poses.shape[1], 1.0 / poses.shape[1])
    return BeliefSnapshot(poses, np.asarray(weights, float))


def reference_bins(belief, cell, n_heading_bins):
    """The (ix, iy, ib) bin of every particle, each axis shifted to start at 0."""
    ix = np.floor(belief.poses[0] / cell).astype(np.int64)
    iy = np.floor(belief.poses[1] / cell).astype(np.int64)
    width = 2.0 * math.pi / n_heading_bins
    ib = np.minimum(((belief.poses[2] + math.pi) / width).astype(np.int64), n_heading_bins - 1)
    return [b - b.min() for b in (ix, iy, ib)]


def key_space(belief, cell, n_heading_bins) -> int:
    """Bins in the box that `belief_entropy` keys the cloud in."""
    return math.prod(int(b.max()) + 1 for b in reference_bins(belief, cell, n_heading_bins))


def reference_belief_entropy(belief, cell, n_heading_bins) -> float:
    """`belief_entropy` with every cloud's bins numbered by `np.unique`'s
    inverse, whatever the size of the key space."""
    bins = reference_bins(belief, cell, n_heading_bins)
    keys = np.ravel_multi_index(bins, [int(b.max()) + 1 for b in bins])
    _, inverse = np.unique(keys, return_inverse=True)
    p = np.bincount(inverse, weights=belief.weights)
    p = p[p > 0]
    p = p / p.sum()
    return float(-(p * np.log(p)).sum())


def random_cloud(rng, n, spread):
    """A weighted cloud with resampled duplicates, some zero weights,
    headings of exactly +-pi and negative coordinates."""
    distinct = max(1, n // 3)
    base = np.stack([
        rng.uniform(-spread, spread, distinct),
        rng.uniform(-spread, spread, distinct),
        rng.uniform(-math.pi, math.pi, distinct),
    ])
    base[2, rng.random(distinct) < 0.1] = math.pi
    base[2, rng.random(distinct) < 0.1] = -math.pi
    poses = base[:, rng.integers(0, distinct, n)]
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    if w.sum() == 0:
        w[0] = 1.0
    return snap(poses, w / w.sum())


def step_error(belief, truth) -> float:
    """e_t as `harness.run_trial` records it."""
    return error_from_mean(mean_state(belief), truth)


class TestStepError:
    def test_exact_belief_zero_error(self):
        truth = Pose(3.0, 4.0, 0.7)
        belief = snap(np.tile([[3.0], [4.0], [0.7]], 5))
        assert step_error(belief, truth) == pytest.approx(0.0, abs=1e-12)

    def test_three_four_five(self):
        truth = Pose(0.0, 0.0, 1.2)
        belief = snap([[3.0], [4.0], [1.2]])
        assert step_error(belief, truth) == pytest.approx(5.0, abs=1e-12)

    def test_opposite_heading_costs_two(self):
        truth = Pose(1.0, 2.0, 0.0)
        belief = snap([[1.0], [2.0], [math.pi]])
        assert step_error(belief, truth) == pytest.approx(2.0, abs=1e-12)

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(0)
        poses = rng.uniform(-5, 5, (20, 3)).T
        w = rng.random(20)
        w /= w.sum()
        truth = Pose(1.0, -2.0, 0.3)
        perm = rng.permutation(20)
        a = step_error(snap(poses, w), truth)
        b = step_error(snap(poses[:, perm], w[perm]), truth)
        assert a == pytest.approx(b, abs=1e-12)

    def test_invariant_under_particle_split(self):
        poses = np.array([[1.0, 3.0], [2.0, -1.0], [0.5, -0.4]])
        w = np.array([0.6, 0.4])
        split_poses = np.array([[1.0, 1.0, 3.0], [2.0, 2.0, -1.0], [0.5, 0.5, -0.4]])
        split_w = np.array([0.3, 0.3, 0.4])
        truth = Pose(0, 0, 0)
        assert step_error(snap(poses, w), truth) == pytest.approx(
            step_error(snap(split_poses, split_w), truth), abs=1e-12
        )

    def test_error_bound(self):
        rng = np.random.default_rng(1)
        dx, dy = 60.0, 40.0
        bound = math.sqrt(dx**2 + dy**2 + 8)
        for _ in range(50):
            poses = np.stack(
                [rng.uniform(0, dx, 10), rng.uniform(0, dy, 10), rng.uniform(-math.pi, math.pi, 10)]
            )
            truth = Pose(rng.uniform(0, dx), rng.uniform(0, dy), rng.uniform(-math.pi, math.pi))
            assert step_error(snap(poses), truth) <= bound

    def test_empty_belief_rejected(self):
        with pytest.raises(ValueError):
            step_error(snap(np.empty((3, 0)), np.empty(0)), Pose(0, 0, 0))


class TestTrialRmse:
    def test_constant_errors(self):
        errors = [5.0] * 100
        assert trial_rmse(errors) == 5.0

    def test_arithmetic_mean(self):
        assert trial_rmse([0.0, 10.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trial_rmse([])


class TestBeliefEntropy:
    def test_point_mass_zero(self):
        belief = snap(np.tile([[10.0], [10.0], [0.0]], 7))
        assert belief_entropy(belief, cell=5.0, n_heading_bins=36) == 0.0

    def test_uniform_over_k_bins(self):
        # four particles in four distinct position bins, equal weight
        poses = [[2.0, 12.0, 2.0, 12.0], [2.0, 2.0, 12.0, 12.0], [0.0, 0.0, 0.0, 0.0]]
        assert belief_entropy(snap(poses), cell=5.0, n_heading_bins=36) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_coarsening_never_increases_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            poses = np.stack(
                [rng.uniform(0, 50, 200), rng.uniform(0, 50, 200), rng.uniform(-math.pi, math.pi, 200)]
            )
            w = rng.random(200)
            w /= w.sum()
            fine = belief_entropy(snap(poses, w), cell=2.5, n_heading_bins=36)
            coarse = belief_entropy(snap(poses, w), cell=5.0, n_heading_bins=18)
            assert coarse <= fine + 1e-12

    def test_bin_key_overflow_raises(self):
        # 4e18 x-bins times 18 heading bins cannot be packed into one int64 key
        poses = [[0.0, 2e19], [0.0, 0.0], [0.0, 3.0]]
        with pytest.raises(ValueError):
            belief_entropy(snap(poses), cell=5.0, n_heading_bins=36)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        poses = np.stack([rng.uniform(0, 9, 30), rng.uniform(0, 9, 30), rng.uniform(-3, 3, 30)])
        assert belief_entropy(snap(poses), cell=5.0, n_heading_bins=36) >= 0.0

    def test_heading_wrap_binning(self):
        # theta = pi sits in the last bin, just below the wrap point
        belief = snap([[0.0, 0.0], [0.0, 0.0], [math.pi, -math.pi + 1e-9]])
        assert belief_entropy(belief, cell=5.0, n_heading_bins=4) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_cell_must_be_positive_and_finite(self, cell):
        belief = random_cloud(np.random.default_rng(5), 100, 20.0)
        with pytest.raises(ValueError, match="cell"):
            belief_entropy(belief, cell=cell, n_heading_bins=36)

    @pytest.mark.parametrize("n_heading_bins", [2.5, 36.0, 0, -3, True, "36"])
    def test_heading_bins_must_be_a_positive_integer(self, n_heading_bins):
        belief = random_cloud(np.random.default_rng(6), 100, 20.0)
        with pytest.raises(ValueError, match="n_heading_bins"):
            belief_entropy(belief, cell=5.0, n_heading_bins=n_heading_bins)

    def test_numpy_integer_heading_bins_accepted(self):
        belief = random_cloud(np.random.default_rng(7), 100, 20.0)
        assert belief_entropy(belief, 5.0, np.int64(36)) == belief_entropy(belief, 5.0, 36)

    def test_matches_unique_reference_on_both_sides_of_bound(self):
        rng = np.random.default_rng(8)
        sides = {False: 0, True: 0}
        for trial in range(300):
            n = int(rng.choice([1, 2, 50, 1000, 3000]))
            spread = float(rng.choice([0.5, 10.0, 60.0, 200.0, 2000.0]))
            cell, n_bins = float(rng.choice([0.5, 2.5, 5.0])), int(rng.choice([1, 4, 36]))
            belief = random_cloud(rng, n, spread)
            got = belief_entropy(belief, cell, n_bins)
            want = reference_belief_entropy(belief, cell, n_bins)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial
            sides[key_space(belief, cell, n_bins) > _ENTROPY_BINS] += 1
        assert min(sides.values()) >= 50, sides

    def test_single_bin_clouds_match_reference(self):
        rng = np.random.default_rng(9)
        for n in (1, 7, 1000):
            poses = np.stack([
                rng.uniform(-4.9, -0.1, n), rng.uniform(0.1, 4.9, n), rng.uniform(0.02, 0.08, n)
            ])
            w = rng.random(n)
            belief = snap(poses, w / w.sum())
            assert key_space(belief, 5.0, 36) == 1
            assert belief_entropy(belief, 5.0, 36) == reference_belief_entropy(belief, 5.0, 36) == 0.0


class TestBeliefVariance:
    def test_single_particle_all_zero(self):
        assert np.array_equal(belief_variance(snap([[4.0], [5.0], [1.0]])), np.zeros(4))

    def test_two_points_unit_variance(self):
        v = belief_variance(snap([[0.0, 2.0], [3.0, 3.0], [0.0, 0.0]]))
        assert v[0] == pytest.approx(1.0, abs=1e-12)
        assert v[1] == 0.0

    def test_cos_sin_variances_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            poses = np.stack(
                [rng.uniform(0, 10, 50), rng.uniform(0, 10, 50), rng.uniform(-math.pi, math.pi, 50)]
            )
            w = rng.random(50)
            w /= w.sum()
            v = belief_variance(snap(poses, w))
            assert v[2] <= 1.0 and v[3] <= 1.0
            assert np.all(v >= 0)

    def test_zero_iff_point_mass_per_coordinate(self):
        belief = snap([[1.0, 1.0], [5.0, 7.0], [0.3, 0.3]])
        v = belief_variance(belief)
        assert v[0] == 0.0 and v[2] == 0.0 and v[3] == 0.0
        assert v[1] > 0.0


class TestBeliefSnapshot:
    def test_snapshot_rejects_particle_major_poses(self):
        # (n, 3): 4 particles, one row each
        with pytest.raises(ValueError, match=r"coordinate rows, shape \(3, n\), got \(4, 3\)"):
            BeliefSnapshot(np.zeros((4, 3)), np.full(4, 0.25))
        with pytest.raises(ValueError, match="weights must match"):
            BeliefSnapshot(np.zeros((3, 4)), np.full(3, 1 / 3))

    def test_metrics_does_not_load_the_filters(self):
        # scoring owns its input type, so a fresh interpreter can import it alone
        code = "import sys, deqmcl.metrics; print('deqmcl.filters' in sys.modules)"
        src = str(Path(deqmcl.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              cwd=src)
        assert done.stdout.strip() == "False"


class TestSharedFeatures:
    def test_features_built_once_per_snapshot(self):
        belief = random_cloud(np.random.default_rng(10), 200, 30.0)
        assert belief.features is belief.features
        mean_state(belief)
        belief_variance(belief)
        assert belief.__dict__["features"] is belief.features

    def test_empty_belief_has_no_features(self):
        with pytest.raises(ValueError):
            BeliefSnapshot(np.empty((3, 0)), np.empty(0)).features

    def test_mean_and_variance_match_column_stack_reference(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 50, 1000):
            belief = random_cloud(rng, n, 40.0)
            poses, w = belief.poses, belief.weights
            feats = np.column_stack([poses[0], poses[1], np.cos(poses[2]), np.sin(poses[2])])
            mean = feats.T @ w
            assert mean_state(belief).tobytes() == mean.tobytes()
            assert belief_variance(belief).tobytes() == (((feats - mean) ** 2).T @ w).tobytes()
