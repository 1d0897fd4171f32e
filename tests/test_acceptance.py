"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with ``pytest -s`` to see them all);
a failing criterion fails its test.  The battery tests run the shipped
benchmark config end to end, so this module takes several minutes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from deqmcl import cli, harness
from deqmcl.filters import (
    FilterConfig,
    deq_step,
    init_belief,
    mcl_map_motion_step,
    mcl_smoother_step,
    mcl_step,
    systematic_resample,
)
from deqmcl.harness import load_config, run_experiment, run_oracle_validation
from deqmcl.metrics import BeliefSnapshot, belief_variance, error_from_mean, mean_state
from deqmcl.worldsim import BeamConfig, NoiseParams, Pose

from conftest import make_corridor, make_room
from test_filters import constant_plan, gaussian_sampler
from test_metrics import snap


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """One full run of the shipped benchmark config at its shipped seed."""
    out = tmp_path_factory.mktemp("battery")
    cfg = load_config("paper.cfg")
    t0 = time.monotonic()
    result = run_experiment(cfg, out_dir=str(out))
    result["elapsed"] = time.monotonic() - t0
    result["cfg"] = cfg
    return result


def _per_trial_rmse(out_dir, method, n_trials):
    vals = []
    for trial in range(n_trials):
        path = out_dir / "traces" / f"{method}_trial{trial:02d}.jsonl"
        vals.append(np.mean([json.loads(line)["e_t"] for line in path.open()]))
    return np.array(vals)


class TestCriterion1OracleEquivalence:
    def test_queue_marginals_match_exact_posterior(self):
        cfg = load_config("tiny.cfg")
        assert cfg.filter_base.lag == 2
        assert cfg.filter_base.n_particles == 10_000
        assert cfg.oracle_params.seeds == 20
        t0 = time.monotonic()
        rows = run_oracle_validation(cfg)
        elapsed = time.monotonic() - t0
        compare_t = cfg.oracle_params.compare_t
        by_offset = {}
        for r in rows:
            if r["t"] == compare_t:
                by_offset.setdefault(r["offset"], []).append(r["tv"])
        assert sorted(by_offset) == [-2, -1, 0, 1, 2]
        means = {off: float(np.mean(v)) for off, v in by_offset.items()}
        for off, mean_tv in means.items():
            assert mean_tv < 0.05, f"offset {off}: mean TV {mean_tv:.4f} >= 0.05"
        assert elapsed < 60.0, f"oracle validation took {elapsed:.1f}s"
        pretty = ", ".join(f"{off:+d}: {means[off]:.3f}" for off in sorted(means))
        print(f"\nACCEPTANCE 1 oracle equivalence (mean TV per offset {pretty}; "
              f"{elapsed:.1f}s): PASS")


class TestCriterion2ReductionIdentities:
    N_STEPS = 100

    def _world(self, grid, plan, start, seed):
        beams = BeamConfig(headings=(0.0,), max_range=70.0, ray_step=0.5)
        noise = NoiseParams(0.1, 0.001, 0.5)
        rt = harness.derive_rng(seed, 0, 0)
        rs = harness.derive_rng(seed, 0, 1)
        return harness.simulate_truth(grid, plan, start, noise, beams, rt, rs)

    def _assert_identical_runs(self, grid, plan, scans, cfg, start, step_a, step_b, seed):
        sampler = gaussian_sampler(start, 3.0, 0.1)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        a = step_a("init", None, rng_a)
        b = step_b("init", None, rng_b)
        assert np.array_equal(a.slot(0), b.slot(0))
        assert np.array_equal(a.log_weights, b.log_weights)
        for t in range(2, plan.horizon + 1):
            a = step_a(t, a, rng_a)
            b = step_b(t, b, rng_b)
            assert np.array_equal(a.slot(0), b.slot(0)), f"poses diverge at t={t}"
            assert np.array_equal(a.log_weights, b.log_weights), f"weights diverge at t={t}"

    def test_reductions_hold_bit_exact_over_100_steps(self):
        # queue filter, lag 0, empty map == plain MCL
        room = make_room(80, 80, wall=1)
        plan_circle = constant_plan(1.0, 0.06, self.N_STEPS)
        start = Pose(40.0, 20.0, 0.0)
        truth, scans = self._world(room, plan_circle, start, 1)
        cfg = FilterConfig(n_particles=300, lag=0, beta=10.0,
                           motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        sampler = gaussian_sampler(start, 3.0, 0.1)

        self._assert_identical_runs(
            room, plan_circle, scans, cfg, start,
            lambda t, st, rng: init_belief(cfg, sampler, room, rng, plan_circle.actions[1 : 1 + cfg.lag]) if t == "init"
            else deq_step(st, plan_circle.action(t), scans[t], cfg, room, rng, plan_circle.actions[t : t + cfg.lag]),
            lambda t, st, rng: init_belief(cfg, sampler, room, rng) if t == "init"
            else mcl_step(st, plan_circle.action(t), scans[t], cfg, room, rng),
            seed=11,
        )

        # map-motion MCL with beta 0 == plain MCL, on a map with real walls
        corridor = make_corridor(150, 12, wall=1)
        plan_line = constant_plan(1.0, 0.0, self.N_STEPS)
        start_c = Pose(6.0, 6.0, 0.0)
        truth, scans_c = self._world(corridor, plan_line, start_c, 2)
        cfg0 = FilterConfig(n_particles=300, beta=0.0,
                            motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        sampler_c = gaussian_sampler(start_c, 3.0, 0.1)
        self._assert_identical_runs(
            corridor, plan_line, scans_c, cfg0, start_c,
            lambda t, st, rng: init_belief(cfg0, sampler_c, corridor, rng) if t == "init"
            else mcl_map_motion_step(st, plan_line.action(t), scans_c[t], cfg0, corridor, rng),
            lambda t, st, rng: init_belief(cfg0, sampler_c, corridor, rng) if t == "init"
            else mcl_step(st, plan_line.action(t), scans_c[t], cfg0, corridor, rng),
            seed=12,
        )

        # smoother with lag 0 == plain MCL
        cfg_s = FilterConfig(n_particles=300, lag=0,
                             motion_noise=NoiseParams(0.3, 0.02, 0), sensor_sigma=2.0)
        self._assert_identical_runs(
            corridor, plan_line, scans_c, cfg_s, start_c,
            lambda t, st, rng: init_belief(cfg_s, sampler_c, corridor, rng) if t == "init"
            else mcl_smoother_step(st, plan_line.action(t), scans_c[t], cfg_s, corridor, rng),
            lambda t, st, rng: init_belief(cfg_s, sampler_c, corridor, rng) if t == "init"
            else mcl_step(st, plan_line.action(t), scans_c[t], cfg_s, corridor, rng),
            seed=13,
        )
        print(f"\nACCEPTANCE 2 reduction identities ({self.N_STEPS} steps, bit-exact): PASS")


class TestCriterion3RmseOrdering:
    def test_method_ordering_and_improvement(self, battery):
        assert not battery["failures"], f"failed trials: {battery['failures']}"
        assert battery["elapsed"] < 600.0, f"battery took {battery['elapsed']:.0f}s"
        rows = {r["method"]: r for r in battery["summary"]}
        deq = rows["deq_mcl"]["rmse_mean"]
        smo = rows["mcl_smoother"]["rmse_mean"]
        mm = rows["mcl_map_motion"]["rmse_mean"]
        mcl = rows["mcl"]["rmse_mean"]
        assert deq < smo < mm < mcl, f"ordering violated: {deq:.2f}, {smo:.2f}, {mm:.2f}, {mcl:.2f}"
        assert deq <= 0.9 * mcl, f"improvement {1 - deq / mcl:.1%} below 10%"

        cfg = battery["cfg"]
        d = _per_trial_rmse(battery["out_dir"], "deq_mcl", cfg.n_trials)
        m = _per_trial_rmse(battery["out_dir"], "mcl", cfg.n_trials)
        test = stats.ttest_rel(d, m, alternative="less")
        assert test.pvalue < 0.05, f"paired one-sided p = {test.pvalue:.3g}"
        print(f"\nACCEPTANCE 3 rmse ordering (deq {deq:.2f} < smoother {smo:.2f} < "
              f"map-motion {mm:.2f} < mcl {mcl:.2f}; improvement {1 - deq / mcl:.0%}; "
              f"paired p {test.pvalue:.2g}; {battery['elapsed']:.0f}s; absolute values are "
              f"reconstruction-dependent, only the ordering is asserted): PASS")


class TestCriterion4UncertaintyOrdering:
    def test_entropy_and_positional_variance(self, battery):
        rows = {r["method"]: r for r in battery["summary"]}
        ent_deq, ent_mcl = rows["deq_mcl"]["entropy_mean"], rows["mcl"]["entropy_mean"]
        var_deq = rows["deq_mcl"]["var_x"] + rows["deq_mcl"]["var_y"]
        var_mcl = rows["mcl"]["var_x"] + rows["mcl"]["var_y"]
        assert ent_deq < ent_mcl, f"entropy {ent_deq:.2f} !< {ent_mcl:.2f}"
        assert var_deq < var_mcl, f"positional variance {var_deq:.1f} !< {var_mcl:.1f}"
        print(f"\nACCEPTANCE 4 uncertainty ordering (entropy {ent_deq:.2f} < {ent_mcl:.2f}; "
              f"positional variance {var_deq:.0f} < {var_mcl:.0f}): PASS")


class TestCriterion5SmoothingVarianceReduction:
    def test_lagged_marginal_variance_shrinks(self):
        grid = make_corridor(60, 12)
        beams = BeamConfig(headings=(0.0,), max_range=40.0, ray_step=0.5)
        plan = constant_plan(1.0, 0.0, 30)
        lag = 5
        cfg = FilterConfig(n_particles=400, lag=lag,
                           motion_noise=NoiseParams(0.3, 0.01, 0), sensor_sigma=1.5)
        wins = total = 0
        for seed in range(20):
            rt = harness.derive_rng(seed, 0, 0)
            rs = harness.derive_rng(seed, 0, 1)
            truth, scans = harness.simulate_truth(
                grid, plan, Pose(6, 6, 0), NoiseParams(0.1, 0.0, 0.5), beams, rt, rs
            )
            rng = np.random.default_rng(9000 + seed)
            state = init_belief(cfg, gaussian_sampler(Pose(6, 6, 0), 3.0, 0.05), grid, rng)
            filtered = {1: belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum()}
            for t in range(2, plan.horizon + 1):
                state = mcl_smoother_step(state, plan.action(t), scans[t], cfg, grid, rng)
                filtered[t] = belief_variance(BeliefSnapshot(state.slot(0), state.weights()))[:2].sum()
                if state.n_past == lag:
                    smoothed = belief_variance(BeliefSnapshot(state.slot(-lag), state.weights()))[:2].sum()
                    total += 1
                    if smoothed <= filtered[t - lag]:
                        wins += 1
        fraction = wins / total
        assert fraction >= 0.8, f"variance reduced in only {fraction:.0%} of pairs"
        print(f"\nACCEPTANCE 5 smoothing variance reduction ({fraction:.0%} of "
              f"{total} (seed, step) pairs): PASS")


class TestCriterion6ResamplingBound:
    def test_copy_count_bounds_exhaustive(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            w = rng.random(n) ** rng.integers(1, 4)  # include skewed vectors
            w /= w.sum()
            idx = systematic_resample(w, rng)
            counts = np.bincount(idx, minlength=n)
            assert np.all(counts >= np.floor(n * w))
            assert np.all(counts <= np.ceil(n * w))
        print("\nACCEPTANCE 6 systematic resampling copy-count bound (1000 vectors): PASS")


class TestCriterion7StepErrorExamples:
    def test_examples_exact(self):
        truth = Pose(0.0, 0.0, 1.2)
        assert error_from_mean(mean_state(snap(np.tile([[0.0], [0.0], [1.2]], 4))), truth) == pytest.approx(0.0, abs=1e-12)
        assert error_from_mean(mean_state(snap([[3.0], [4.0], [1.2]])), truth) == pytest.approx(5.0, abs=1e-12)
        truth2 = Pose(1.0, 2.0, 0.0)
        assert error_from_mean(mean_state(snap([[1.0], [2.0], [math.pi]])), truth2) == pytest.approx(2.0, abs=1e-12)
        print("\nACCEPTANCE 7 step-error examples (0, 5, 2 within 1e-12): PASS")


class TestCriterion8Determinism:
    def test_cli_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            rc = cli.main(["run", "--config", "paper.cfg", "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]
        print("\nACCEPTANCE 8 determinism (seed 7 reruns byte-identical summary.csv): PASS")
