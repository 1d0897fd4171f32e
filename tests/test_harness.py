import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from deqmcl import cli, filters, harness, render
from deqmcl.gridmap import load_grid
from deqmcl.harness import ConfigError, load_config, run_experiment, run_trial
from deqmcl.metrics import error_from_mean
from deqmcl.worldsim import BeamConfig, NoiseParams, PlanError, Pose

MINI_MAP = "30 12 1.0\n" + "#" * 30 + "\n" + ("#" + "." * 28 + "#\n") * 10 + "#" * 30 + "\n"

MINI_CFG = """\
map: mini_map.txt
start: {{x: 6.0, y: 6.0, theta_deg: 0.0}}
plan: {{kind: constant, v: 1.0, omega_deg: 0.0, count: {count}}}
n_trials: {n_trials}
master_seed: 5
methods: [{methods}]
noise: {{sigma_v: 0.1, sigma_omega_deg: 0.0, sigma_range: 0.5}}
beams: {{headings_deg: [0.0], max_range: 40.0, ray_step: 0.5}}
filter:
  n_particles: 80
  lag: {lag}
  beta: 5.0
  sensor_sigma: 1.5
  resample_threshold: 0.5
  collision_step: 1.0
init: {{kind: gaussian, sigma_xy: 2.0, sigma_theta_deg: 3.0}}
metrics: {{entropy_cell: 2.0, entropy_heading_bins: 18}}
trace: {{cloud_stride: {cloud_stride}}}
outputs: {outputs}
"""


# the `filter` section of the mini config, key by key
FILTER_SETTINGS = {"n_particles": "80", "lag": "0", "beta": "5.0", "sensor_sigma": "1.5",
                   "resample_threshold": "0.5", "collision_step": "1.0"}


def write_mini_config(tmp_path, methods="mcl", count=5, n_trials=1, lag=0,
                      cloud_stride=0, outputs="out"):
    (tmp_path / "mini_map.txt").write_text(MINI_MAP)
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(
        MINI_CFG.format(methods=methods, count=count, n_trials=n_trials, lag=lag,
                        cloud_stride=cloud_stride, outputs=str(tmp_path / outputs))
    )
    return cfg_path


def trial_records(cfg, method, trial=0):
    """`run_trial`'s metrics and the records it wrote, read back from its stream."""
    stream = io.StringIO()
    tm = run_trial(cfg, method, trial, trace=stream)
    return tm, [json.loads(line) for line in stream.getvalue().splitlines()]


class TestLoadConfig:
    def test_shipped_configs_parse(self):
        paper = load_config("paper.cfg")
        assert paper.n_trials == 10
        assert paper.filter_base.lag == 20
        assert paper.filter_base.beta == 10.0
        assert paper.filter_base.n_particles == 1000
        assert paper.methods == ("deq_mcl", "mcl_smoother", "mcl_map_motion", "mcl")
        tiny = load_config("tiny.cfg")
        assert tiny.oracle_params is not None
        assert tiny.filter_base.lag == 2

    def test_missing_config_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("no_such.cfg")

    def test_unknown_method_rejected(self, tmp_path):
        path = write_mini_config(tmp_path, methods="warp_drive")
        with pytest.raises(ConfigError, match="unknown method"):
            load_config(path)

    def test_missing_map_rejected(self, tmp_path):
        path = write_mini_config(tmp_path)
        (tmp_path / "mini_map.txt").unlink()
        with pytest.raises(ConfigError, match="map"):
            load_config(path)

    def test_degrees_converted(self, tmp_path):
        path = write_mini_config(tmp_path)
        cfg = load_config(path)
        assert cfg.start.theta == 0.0
        assert cfg.beams.headings == (0.0,)
        assert cfg.init.sigma_theta == pytest.approx(math.radians(3.0))

    def test_absent_noise_and_beams_keys_keep_the_dataclass_defaults(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text()
        noise = "noise: {sigma_v: 0.1, sigma_omega_deg: 0.0, sigma_range: 0.5}\n"
        beams = "beams: {headings_deg: [0.0], max_range: 40.0, ray_step: 0.5}\n"
        path.write_text(text.replace(noise, "").replace(beams, ""))
        cfg = load_config(path)
        assert cfg.noise == NoiseParams() == filters.FilterConfig().motion_noise == cfg.filter_base.motion_noise
        assert cfg.beams == BeamConfig()
        # an absent key among given ones keeps its own default
        path.write_text(text.replace("sigma_omega_deg: 0.0, ", "").replace("max_range: 40.0, ", ""))
        cfg = load_config(path)
        assert cfg.noise == NoiseParams(sigma_v=0.1, sigma_range=0.5)
        assert cfg.beams == BeamConfig(headings=(0.0,), ray_step=0.5)

    def test_nan_beta_rejected(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace("beta: 5.0", "beta: .nan"))
        with pytest.raises(ConfigError, match="beta"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("ray_step", ".nan"), ("ray_step", "-1"), ("ray_step", ".inf"),
        ("max_range", ".nan"), ("max_range", ".inf"), ("max_range", "0"),
    ])
    def test_bad_beam_setting_rejected(self, tmp_path, key, value):
        path = write_mini_config(tmp_path)
        text = path.read_text()
        default = {"ray_step": "ray_step: 0.5", "max_range": "max_range: 40.0"}[key]
        path.write_text(text.replace(default, f"{key}: {value}"))
        with pytest.raises(ConfigError, match=f"beams: {key} must be positive and finite"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("lag", "2.5"), ("lag", "true"), ("lag", "'2'"),
        ("n_particles", "80.0"), ("n_particles", "'10'"), ("n_particles", "false"),
    ])
    def test_non_integer_filter_setting_rejected(self, tmp_path, key, value):
        path = write_mini_config(tmp_path)
        text = path.read_text()
        default = {"lag": "lag: 0", "n_particles": "n_particles: 80"}[key]
        path.write_text(text.replace(default, f"{key}: {value}"))
        with pytest.raises(ConfigError, match=f"filter: {key} must be an integer"):
            load_config(path)

    def test_negative_cloud_stride_rejected(self, tmp_path):
        path = write_mini_config(tmp_path, cloud_stride=-1)
        with pytest.raises(ConfigError, match="trace: cloud_stride must be an integer >= 0, got -1"):
            load_config(path)

    # (text in the mini config, its replacement, the key path the error names);
    # an empty first entry appends the replacement, and a top-level key's
    # error says so
    @pytest.mark.parametrize("old, new, path", [
        ("sigma_v: 0.1", "sigma_vv: 0.1", "noise.sigma_vv"),
        ("max_range: 40.0", "max_rnage: 40.0", "beams.max_rnage"),
        ("theta_deg: 0.0}", "theta: 0.0}", "start.theta"),
        ("count: 5", "cont: 5", "plan.cont"),
        ("  beta: 5.0", "  resimulate_future: true", "filter.resimulate_future"),
        ("  beta: 5.0", "  replan_on_divergence: true", "filter.replan_on_divergence"),
        ("sigma_xy: 2.0", "sigma: 2.0", "init.sigma"),
        ("entropy_cell: 2.0", "entropy_cel: 2.0", "metrics.entropy_cel"),
        ("cloud_stride: 0", "stride: 0", "trace.stride"),
        ("", "filter_noise: {sigma_range: 1.0}", "filter_noise.sigma_range"),
        ("entropy_heading_bins: 18", "rmse_mode: mean", "metrics.rmse_mode"),
        ("", "per_method:\n  mcl: {lag: 1}", "per_method"),
        ("", "oracle: {seed: 3}", "oracle.seed"),
    ])
    def test_unknown_section_key_rejected(self, tmp_path, old, new, path):
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text()
        assert old in text
        cfg_path.write_text(text.replace(old, new) if old else text + new + "\n")
        with pytest.raises(ConfigError, match=f"unknown (top-level )?key '{path}'"):
            load_config(cfg_path)

    @pytest.mark.parametrize("old, new, where", [
        ("n_trials: 1", "n_trials: 2.5", "n_trials"),
        ("n_trials: 1", "n_trials: true", "n_trials"),
        ("n_trials: 1", "n_trials: 0", "n_trials"),
        ("master_seed: 5", "master_seed: 5.0", "master_seed"),
        ("master_seed: 5", "master_seed: -1", "master_seed"),
        ("count: 5", "count: 5.5", "plan: count"),
        ("count: 5", "count: false", "plan: count"),
        ("entropy_heading_bins: 18", "entropy_heading_bins: 18.0", "metrics: entropy_heading_bins"),
        ("entropy_heading_bins: 18", "entropy_heading_bins: true", "metrics: entropy_heading_bins"),
        ("", "oracle: {seeds: 2.5}", "oracle: seeds"),
        ("", "oracle: {seeds: true}", "oracle: seeds"),
        ("", "oracle: {heading_bins: 1.0}", "oracle: heading_bins"),
        ("", "oracle: {heading_bins: 0}", "oracle: heading_bins"),
        ("", "oracle: {compare_t: 4.5}", "oracle: compare_t"),
        ("", "oracle: {compare_t: '4'}", "oracle: compare_t"),
    ])
    def test_non_integer_count_rejected(self, tmp_path, old, new, where):
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text()
        assert old in text
        cfg_path.write_text(text.replace(old, new) if old else text + new + "\n")
        with pytest.raises(ConfigError, match=f"^{where} must be an integer >= "):
            load_config(cfg_path)

    @pytest.mark.parametrize("old, new, where", [
        ("x: 6.0", "x: abc", "start: x"),
        ("theta_deg: 0.0}", "theta_deg: true}", "start: theta_deg"),
        ("v: 1.0", "v: [1]", "plan: v"),
        ("omega_deg: 0.0", "omega_deg: '1x'", "plan: omega_deg"),
        ("kind: constant, v: 1.0", "kind: waypoints, v_step: x, waypoints: [[1, 2]]", "plan: v_step"),
        ("kind: constant, v: 1.0", "kind: waypoints, waypoints: [[1, 2], [3]]", "plan: waypoints"),
        ("kind: constant, v: 1.0", "kind: waypoints, waypoints: [[1, y]]", "plan: waypoints"),
        ("kind: constant, v: 1.0", "kind: waypoints, waypoints: 5", "plan: waypoints"),
        ("sigma_v: 0.1", "sigma_v: x", "noise: sigma_v"),
        ("sigma_range: 0.5", "sigma_range: null", "noise: sigma_range"),
        ("", "filter_noise: {sigma_v: 'x'}", "filter_noise: sigma_v"),
        ("", "filter_noise: {sigma_omega_deg: [2]}", "filter_noise: sigma_omega_deg"),
        ("headings_deg: [0.0]", "headings_deg: [zero]", "beams: headings_deg"),
        ("headings_deg: [0.0]", "headings_deg: 0.0", "beams: headings_deg"),
        ("max_range: 40.0", "max_range: forty", "beams: max_range"),
        ("ray_step: 0.5", "ray_step: false", "beams: ray_step"),
        ("sigma_xy: 2.0", "sigma_xy: null", "init: sigma_xy"),
        ("sigma_theta_deg: 3.0", "sigma_theta_deg: '3 deg'", "init: sigma_theta_deg"),
        ("kind: gaussian", "kind: uniform_box, box: [1, 2, 3]", "init: box"),
        ("kind: gaussian", "kind: uniform_box, box: [1, 2, 3, 4, x, 0]", "init: box"),
        ("entropy_cell: 2.0", "entropy_cell: {a: 1}", "metrics: entropy_cell"),
        ("", "oracle: {cell: 'x'}", "oracle: cell"),
    ])
    def test_non_number_rejected(self, tmp_path, old, new, where):
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text()
        assert old in text
        cfg_path.write_text(text.replace(old, new) if old else text + new + "\n")
        with pytest.raises(ConfigError, match=f"^{where} must be a (number|list of)"):
            load_config(cfg_path)

    @pytest.mark.parametrize("old, new, where", [
        ("x: 6.0", "x: .nan", "start: x"),
        ("theta_deg: 0.0}", "theta_deg: .inf}", "start: theta_deg"),
        ("sigma_v: 0.1", "sigma_v: -1", "noise: sigma_v"),
        ("", "filter_noise: {sigma_omega_deg: -0.5}", "filter_noise: sigma_omega_deg"),
        ("v: 1.0", "v: .inf", "plan: v"),
        ("kind: constant, v: 1.0", "kind: waypoints, v_step: 0, waypoints: [[1, 2]]", "plan: v_step"),
        ("kind: constant, v: 1.0", "kind: waypoints, waypoints: [[1, .nan]]", "plan: waypoints"),
        ("kind: constant, v: 1.0", "kind: waypoints, waypoints: []", "plan: waypoints"),
        ("headings_deg: [0.0]", "headings_deg: [.inf]", "beams: headings_deg"),
        ("", "oracle: {cell: 0}", "oracle: cell"),
        ("sigma_xy: 2.0", "sigma_xy: -3", "init: sigma_xy"),
        ("sigma_theta_deg: 3.0", "sigma_theta_deg: -1", "init: sigma_theta_deg"),
        ("kind: gaussian", "kind: uniform_box, box: [6, 2, 1, 2, 0, 0]", "init: box"),
        ("kind: gaussian", "kind: uniform_box, box: [2, 6, 1, 2, 10, -10]", "init: box"),
        ("entropy_cell: 2.0", "entropy_cell: 0", "metrics: entropy_cell"),
        ("kind: constant", "kind: spiral", "plan: kind"),
        ("kind: gaussian", "kind: uniform_free", "init: kind"),
        ("methods: [mcl]", "methods: 5", "methods"),
        ("methods: [mcl]", "methods:", "methods"),
        ("methods: [mcl]", "methods: mcl", "methods"),
        ("methods: [mcl]", "methods: []", "methods"),
        ("methods: [mcl]", "methods: [mcl, mcl]", "methods"),
        ("methods: [mcl]", "methods: [mcl, warp_drive]", "methods"),
        ("methods: [mcl]", "methods: [[mcl]]", "methods"),
        *[(f"{key}: {value}", f"{key}: {bad}", f"filter: {key}") for key, value in FILTER_SETTINGS.items()
          for bad in (".inf", ".nan")],
        ("resample_threshold: 0.5", "resample_threshold: 1.5", "filter: resample_threshold"),
        ("n_particles: 80", "n_particles: 0", "filter: n_particles"),
        ("headings_deg: [0.0]", "headings_deg: []", "beams: headings_deg"),
        # every given key is read, whether or not the plan or init kind uses it
        ("kind: gaussian", "kind: gaussian, box: [6, 2, 1, 2, 0, 0]", "init: box"),
        ("count: 5", "count: 5, waypoints: [[1]]", "plan: waypoints"),
    ])
    def test_out_of_range_rejected(self, tmp_path, old, new, where):
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text()
        assert old in text
        cfg_path.write_text(text.replace(old, new) if old else text + new + "\n")
        with pytest.raises(ConfigError, match=f"^{where} must be "):
            load_config(cfg_path)

    def test_non_number_error_names_key_and_value(self, tmp_path):
        cfg_path = write_mini_config(tmp_path)
        cfg_path.write_text(cfg_path.read_text().replace("sigma_v: 0.1", "sigma_v: 'x'"))
        with pytest.raises(ConfigError) as info:
            load_config(cfg_path)
        assert str(info.value) == "noise: sigma_v must be a number, got 'x'"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text().replace("n_trials:", "n_trails:"))
        with pytest.raises(ConfigError, match="unknown top-level key 'n_trails'"):
            load_config(path)


class TestRunTrial:
    def test_deterministic_repeat(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", lag=3, count=8))
        a = trial_records(cfg, "deq_mcl", 0)
        b = trial_records(cfg, "deq_mcl", 0)
        assert a[0].rmse == b[0].rmse
        assert json.dumps(a[1]) == json.dumps(b[1])

    def test_truth_shared_across_methods(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl, mcl_map_motion, deq_mcl",
                                            count=8, lag=2))
        truths = {}
        for method in cfg.methods:
            _, records = trial_records(cfg, method, 0)
            truths[method] = {r["t"]: r["truth"] for r in records}
        assert truths["mcl"] == truths["mcl_map_motion"] == truths["deq_mcl"]

    def test_truth_simulated_once_per_trial(self, tmp_path, monkeypatch):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl, mcl_map_motion", count=8, n_trials=2))
        steps = []
        simulate = harness.simulate_truth

        def spy(*args, **kwargs):
            steps.append(kwargs["collision_step"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_truth", spy)
        run_experiment(cfg, out_dir=str(tmp_path / "run"))
        # once per trial, at the filter's step, however many methods share it
        assert steps == [cfg.filter_base.collision_step] * cfg.n_trials
        for trial in range(cfg.n_trials):
            truths = [
                [json.loads(line)["truth"] for line in
                 (tmp_path / "run" / "traces" / f"{m}_trial{trial:02d}.jsonl").open()]
                for m in cfg.methods
            ]
            assert truths[0] == truths[1]
            _, records = trial_records(cfg, "mcl", trial)
            assert [r["truth"] for r in records] == truths[0]
        assert steps[cfg.n_trials:] == [cfg.filter_base.collision_step] * cfg.n_trials

    def test_unknown_method_rejected_before_any_stream(self, monkeypatch):
        monkeypatch.setattr(harness, "derive_rng", lambda *a, **k: pytest.fail("stream derived"))
        with pytest.raises(ConfigError, match="^methods must be drawn from .*'foo'"):
            run_trial(load_config("tiny.cfg"), "foo", 0)

    def test_one_record_per_step(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl_smoother", count=9, lag=3))
        _, records = trial_records(cfg, "mcl_smoother", 0)
        assert [r["t"] for r in records] == list(range(1, 11))  # horizon = count + 1

    def test_trace_error_consistent_with_mean(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=8, lag=2))
        _, records = trial_records(cfg, "deq_mcl", 0)
        for r in records:
            recomputed = error_from_mean(np.array(r["current_mean"]), Pose(*r["truth"]))
            assert abs(recomputed - r["e_t"]) < 1e-9

    def test_lagged_method_reports_smoothed_estimates(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl_smoother, mcl",
                                            count=12, lag=4))
        _, rec_s = trial_records(cfg, "mcl_smoother", 0)
        _, rec_m = trial_records(cfg, "mcl", 0)
        # same truth stream but different reporting conventions and streams
        assert [r["t"] for r in rec_s] == [r["t"] for r in rec_m]

    def test_stream_equals_written_trace(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=12, lag=2, n_trials=2,
                                            cloud_stride=4))
        out = run_experiment(cfg, out_dir=str(tmp_path / "run"))["out_dir"]
        for trial in range(cfg.n_trials):
            stream = io.StringIO()
            tm = run_trial(cfg, "deq_mcl", trial, trace=stream)
            assert stream.getvalue().encode() == (out / "traces" / f"deq_mcl_trial{trial:02d}.jsonl").read_bytes()
            assert '"clouds"' in stream.getvalue()
            assert (out / "metrics.csv").read_text().splitlines()[1 + trial].startswith(f"deq_mcl,{trial},{tm.rmse!r},")

    def test_clouds_every_stride(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=12, lag=2,
                                            cloud_stride=4))
        _, records = trial_records(cfg, "deq_mcl", 0)
        with_clouds = [r for r in records if "clouds" in r]
        assert with_clouds
        for r in with_clouds:
            assert r["cloud_t"] % 4 == 0
            offsets = set(map(int, r["clouds"].keys()))
            assert 0 in offsets
            assert offsets <= {-2, 0, 2}


class TestMethodTable:
    STEPS = {"deq_mcl": "deq_step", "mcl_smoother": "mcl_smoother_step",
             "mcl_map_motion": "mcl_map_motion_step", "mcl": "mcl_step"}

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_filters_looked_up_when_called(self, tmp_path, monkeypatch, method):
        # wrappers installed on `filters` after import (as a profiler's spans
        # are) must see every step, and the prior only where beta applies:
        # at 80 particles each roll-out is one grouped prior call, so deq_mcl
        # makes one in init_belief and one per step
        cfg = load_config(write_mini_config(tmp_path, methods=method, count=6, lag=2))
        calls = collections.Counter()
        for name in (*self.STEPS.values(), "traversability_log_prior_batch"):
            def counted(*args, _name=name, _original=getattr(filters, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(filters, name, counted)
        run_trial(cfg, method, 0)
        horizon = 7  # count + 1
        assert {n: calls[n] for n in self.STEPS.values()} == {
            n: (horizon - 1 if n == self.STEPS[method] else 0) for n in self.STEPS.values()
        }
        assert cfg.filter_base.beta == 5.0
        prior_calls = {"mcl": 0, "mcl_smoother": 0, "mcl_map_motion": horizon - 1, "deq_mcl": horizon}
        assert calls["traversability_log_prior_batch"] == prior_calls[method]


    @pytest.mark.parametrize("method", harness.METHODS)
    def test_window_span_of_each_row(self, tmp_path, monkeypatch, method):
        # the table's columns through run_trial: only deq_mcl rolls the plan
        # ahead, clipped at T, and the lag-reporting methods keep lag past poses
        cfg = load_config(write_mini_config(tmp_path, methods=method, count=6, lag=2))
        lag, horizon = cfg.filter_base.lag, 7  # count + 1
        name = self.STEPS[method]
        spans = {}

        def recorded(*args, _original=getattr(filters, name), **kwargs):
            state = _original(*args, **kwargs)
            spans[len(spans) + 2] = (state.n_past, state.n_future)  # the k-th step reaches t = k + 1
            return state

        monkeypatch.setattr(filters, name, recorded)
        run_trial(cfg, method, 0)
        for t in (2, horizon):
            want = {
                "deq_mcl": (min(t - 1, lag), min(lag, horizon - t)),
                "mcl_smoother": (min(t - 1, lag), 0),
            }.get(method, (0, 0))
            assert spans[t] == want

class TestRunExperiment:
    def test_single_method_single_trial_outputs(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=4))
        result = run_experiment(cfg)
        out = result["out_dir"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == harness.SUMMARY_HEADER
        assert len(summary) == 2
        trace = (out / "traces" / "mcl_trial00.jsonl").read_text().splitlines()
        assert len(trace) == 5  # horizon = count + 1 records
        assert (out / "report.txt").exists()

    def test_per_trial_metrics_csv(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl, deq_mcl", count=6, lag=2,
                                            n_trials=2))
        out = run_experiment(cfg)["out_dir"]
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,trial,rmse,entropy,var_x,var_y,var_cos,var_sin"
        assert len(lines) == 5  # 2 methods x 2 trials
        summary = harness.read_summary_csv(out / "summary.csv")
        mcl_rmses = [float(l.split(",")[2]) for l in lines[1:] if l.startswith("mcl,")]
        mcl_row = next(r for r in summary if r["method"] == "mcl")
        assert abs(np.mean(mcl_rmses) - mcl_row["rmse_mean"]) < 1e-9

    def test_summary_aggregates_trace_rows(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=8, lag=2,
                                            n_trials=2))
        result = run_experiment(cfg)
        out = result["out_dir"]
        rows = harness.read_summary_csv(out / "summary.csv")
        per_trial = []
        for trial in range(2):
            recs = [json.loads(l) for l in (out / "traces" / f"deq_mcl_trial{trial:02d}.jsonl").open()]
            per_trial.append(np.mean([r["e_t"] for r in recs]))
        assert abs(rows[0]["rmse_mean"] - np.mean(per_trial)) < 1e-9
        assert abs(rows[0]["rmse_sd"] - np.std(per_trial, ddof=1)) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl, deq_mcl", count=6, lag=2,
                                            n_trials=2))
        out_a = run_experiment(cfg, out_dir=str(tmp_path / "a"))["out_dir"]
        out_b = run_experiment(cfg, out_dir=str(tmp_path / "b"))["out_dir"]
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        for f in sorted((out_a / "traces").iterdir()):
            assert f.read_bytes() == (out_b / "traces" / f.name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=6))
        a = run_experiment(cfg, out_dir=str(tmp_path / "a"), seed=1)["summary"][0]["rmse_mean"]
        b = run_experiment(cfg, out_dir=str(tmp_path / "b"), seed=2)["summary"][0]["rmse_mean"]
        assert a != b

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=4))
        monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        result = run_experiment(cfg)
        assert result["out_dir"] == tmp_path / "env_out"
        assert (tmp_path / "env_out" / "summary.csv").exists()

    def test_report_states_absolute_value_caveat(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=4))
        out = run_experiment(cfg)["out_dir"]
        assert "only the relative ordering" in (out / "report.txt").read_text()


def fail_mcl_steps(monkeypatch, fails) -> None:
    """Make `filters.mcl_step` raise `FilterDegeneracyError` on each call whose
    0-based index ``fails`` accepts."""
    original = filters.mcl_step
    calls = itertools.count()

    def step(*args, **kwargs):
        if fails(next(calls)):
            raise filters.FilterDegeneracyError("all particle weights vanished (forced)")
        return original(*args, **kwargs)

    monkeypatch.setattr(filters, "mcl_step", step)


class TestFailedTrials:
    """A filter-degenerate (method, trial) pair, through `deqmcl run`: 3 trials of
    4 filter steps each, mcl's trials running first."""

    @staticmethod
    def run_cli(cfg_path, out) -> int:
        return cli.main(["run", "--config", str(cfg_path), "--out", str(out)])

    def test_one_failed_trial_leaves_every_other_output_as_it_was(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2, n_trials=3)
        clean, out = tmp_path / "clean", tmp_path / "faulty"
        assert self.run_cli(cfg_path, clean) == 0
        fail_mcl_steps(monkeypatch, lambda i: i == 4)  # the first step of trial 1
        assert self.run_cli(cfg_path, out) == 1
        assert "1 trial(s) failed" in capsys.readouterr().out
        failures = (out / "failures.txt").read_text().splitlines()
        assert len(failures) == 1 and failures[0].startswith("mcl trial 1: all particle weights vanished")
        assert "failed trials: 1 (see failures.txt)" in (out / "report.txt").read_text()

        clean_rows = (clean / "metrics.csv").read_text().splitlines()
        assert (out / "metrics.csv").read_text().splitlines() == [r for r in clean_rows if not r.startswith("mcl,1,")]
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert traces == sorted(p.name for p in (clean / "traces").iterdir() if p.name != "mcl_trial01.jsonl")
        for name in traces:
            assert (out / "traces" / name).read_bytes() == (clean / "traces" / name).read_bytes()

        kept = np.array([[float(v) for v in r.split(",")[2:]] for r in clean_rows if r.startswith(("mcl,0,", "mcl,2,"))])
        summary = {r["method"]: r for r in harness.read_summary_csv(out / "summary.csv")}
        want = [kept[:, 0].mean(), kept[:, 0].std(ddof=1), kept[:, 1].mean(), *kept[:, 2:].mean(axis=0)]
        assert [summary["mcl"][k] for k in harness.SUMMARY_KEYS] == want
        deq_row = [r for r in (clean / "summary.csv").read_text().splitlines() if r.startswith("deq_mcl,")]
        assert deq_row == [r for r in (out / "summary.csv").read_text().splitlines() if r.startswith("deq_mcl,")]

    def test_method_whose_every_trial_failed_gets_a_nan_row(self, tmp_path, monkeypatch):
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2, n_trials=3)
        out = tmp_path / "faulty"
        fail_mcl_steps(monkeypatch, lambda i: True)
        assert self.run_cli(cfg_path, out) == 1
        summary = {r["method"]: r for r in harness.read_summary_csv(out / "summary.csv")}
        assert all(math.isnan(summary["mcl"][k]) for k in harness.SUMMARY_KEYS)
        assert all(math.isfinite(summary["deq_mcl"][k]) for k in harness.SUMMARY_KEYS)
        assert (out / "failures.txt").read_text().splitlines() == [
            f"mcl trial {t}: all particle weights vanished (forced)" for t in range(3)
        ]
        report = (out / "report.txt").read_text()
        assert "failed trials: 3 (see failures.txt)" in report and "deq_mcl < mcl" in report
        assert [r.split(",")[:2] for r in (out / "metrics.csv").read_text().splitlines()[1:]] == [
            ["deq_mcl", str(t)] for t in range(3)
        ]
        assert sorted(p.name for p in (out / "traces").iterdir()) == [f"deq_mcl_trial{t:02d}.jsonl" for t in range(3)]

    def test_no_part_file_survives_a_failed_trial(self, tmp_path, monkeypatch):
        cfg_path = write_mini_config(tmp_path, methods="mcl", count=4, n_trials=2)
        fail_mcl_steps(monkeypatch, lambda i: i == 4)  # the first step of trial 1
        assert self.run_cli(cfg_path, tmp_path / "out") == 1
        assert sorted(p.name for p in (tmp_path / "out" / "traces").iterdir()) == ["mcl_trial00.jsonl"]

    def test_trial_stopped_by_another_error_leaves_no_trace(self, tmp_path, monkeypatch):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=4, n_trials=2))
        original, calls = filters.mcl_step, itertools.count()

        def step(*args, **kwargs):
            if next(calls) == 6:  # mid-way through trial 1
                raise RuntimeError("stopped (forced)")
            return original(*args, **kwargs)

        monkeypatch.setattr(filters, "mcl_step", step)
        with pytest.raises(RuntimeError, match="stopped"):
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert sorted(p.name for p in (tmp_path / "out" / "traces").iterdir()) == ["mcl_trial00.jsonl"]

    def test_reused_output_directory_keeps_nothing_stale(self, tmp_path, monkeypatch):
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2, n_trials=3)
        out = tmp_path / "out"
        assert self.run_cli(cfg_path, out) == 0
        traces = sorted(p.name for p in (out / "traces").iterdir())
        with monkeypatch.context() as m:
            fail_mcl_steps(m, lambda i: i == 4)  # the first step of trial 1
            assert self.run_cli(cfg_path, out) == 1
        # the clean run's trace of the failed trial is gone, the others stay
        assert sorted(p.name for p in (out / "traces").iterdir()) == [t for t in traces if t != "mcl_trial01.jsonl"]
        assert (out / "failures.txt").exists()
        assert self.run_cli(cfg_path, out) == 0
        assert not (out / "failures.txt").exists()
        assert sorted(p.name for p in (out / "traces").iterdir()) == traces

    def test_reused_output_directory_drops_traces_this_run_does_not_write(self, tmp_path):
        # two methods at two trials, then one method at one trial into the same directory
        cfg_path = write_mini_config(tmp_path, methods="mcl, mcl_smoother", count=4, lag=2, n_trials=2)
        out = tmp_path / "out"
        assert self.run_cli(cfg_path, out) == 0
        traces = out / "traces"
        assert len(list(traces.iterdir())) == 4
        # a stale `.part`, and files that only look like traces, which stay
        others = ["notes.txt", "mcl_trial00.jsonl.bak", "mcl_trial1.jsonl", "other_trial00.jsonl"]
        for name in ["deq_mcl_trial03.jsonl.part", *others]:
            (traces / name).write_text("kept\n")
        cfg_path.write_text(cfg_path.read_text().replace("n_trials: 2", "n_trials: 1"))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--methods", "mcl"]) == 0
        assert sorted(p.name for p in traces.iterdir()) == sorted(["mcl_trial00.jsonl", *others])
        assert [r["method"] for r in harness.read_summary_csv(out / "summary.csv")] == ["mcl"]

    def test_belief_drawn_wholly_off_the_map_fails_each_trial(self, tmp_path, capsys):
        # a Gaussian belief a million units wide: no initial particle lands on the map
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2, n_trials=2)
        cfg_path.write_text(cfg_path.read_text().replace("sigma_xy: 2.0", "sigma_xy: 1.0e6"))
        out = tmp_path / "out"
        assert self.run_cli(cfg_path, out) == 1
        assert "4 trial(s) failed" in capsys.readouterr().out
        assert (out / "failures.txt").read_text().splitlines() == [
            f"{method} trial {t}: every initial particle lies in occupied space"
            for method in ("mcl", "deq_mcl") for t in range(2)
        ]
        summary = harness.read_summary_csv(out / "summary.csv")
        assert [r["method"] for r in summary] == ["mcl", "deq_mcl"]
        assert all(math.isnan(r[k]) for r in summary for k in harness.SUMMARY_KEYS)
        assert (out / "metrics.csv").read_text().count("\n") == 1  # the header alone
        assert list((out / "traces").iterdir()) == []


class TestPaperPathDigest:
    # sha256 of summary.csv + metrics.csv from paper.cfg, deq_mcl and
    # mcl_map_motion, one trial at seed 1, recorded while the queue filter
    # still had its lag-0 and incremental branches (Python 3.11.7, numpy
    # 2.4.6, x86-64).  Refactors of the filters must keep it.
    PAPER_SEED_1 = "715d12adaa781f6c5de34eef99ea79c837993bacbf0ea7ed027826a17419e077"
    # the same digest of the benchmark's paper.cfg workloads, as the
    # benchmark records it: workload -> seed -> sha256
    BENCHMARK_DIGESTS = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
    )
    BENCHMARK_METHODS = {"battery": harness.METHODS, "mcl-only": ("mcl",)}

    @staticmethod
    def _digest(tmp_path, methods, seed=1):
        cfg = dataclasses.replace(load_config("paper.cfg"), n_trials=1)
        run_experiment(cfg, out_dir=str(tmp_path), methods=methods, seed=seed)
        digest = hashlib.sha256()
        for name in ("summary.csv", "metrics.csv"):
            digest.update((tmp_path / name).read_bytes())
        return digest.hexdigest()

    def test_paper_outputs_are_byte_identical(self, tmp_path):
        assert self._digest(tmp_path, ("deq_mcl", "mcl_map_motion")) == self.PAPER_SEED_1

    @pytest.mark.parametrize("workload", ["battery", "mcl-only"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_paper_outputs_match_benchmark_digests(self, tmp_path, workload, seed):
        digest = self._digest(tmp_path, self.BENCHMARK_METHODS[workload], seed)
        assert digest == self.BENCHMARK_DIGESTS[workload][str(seed)]


class TestBuildPlan:
    def test_colliding_constant_plan_rejected(self):
        # tiny.cfg's corridor ends at x = 23; 30 steps of 1.2 from x = 3.5 drive into the wall
        cfg = load_config("tiny.cfg")
        cfg = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, count=30))
        with pytest.raises(PlanError, match="collides on step"):
            harness.build_plan(cfg, harness.load_experiment_grid(cfg))


class TestInitSamplers:
    def test_uniform_box_stays_in_box(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text().replace(
            "init: {kind: gaussian, sigma_xy: 2.0, sigma_theta_deg: 3.0}",
            "init: {kind: uniform_box, box: [4.0, 8.0, 5.0, 7.0, -10.0, 10.0]}",
        )
        path.write_text(text)
        sampler = harness.make_init_sampler(load_config(path))
        poses = sampler(np.random.default_rng(0), 200)
        assert np.all((poses[0] >= 4) & (poses[0] < 8))
        assert np.all((poses[1] >= 5) & (poses[1] < 7))
        assert np.all(np.abs(poses[2]) <= math.radians(10) + 1e-12)


class TestStreamDerivation:
    def test_truth_streams_method_independent(self):
        a = harness.derive_rng(3, 1, 0)
        b = harness.derive_rng(3, 1, 0)
        assert a.random() == b.random()

    def test_filter_streams_method_keyed(self):
        a = harness.derive_rng(3, 1, 2, "mcl")
        b = harness.derive_rng(3, 1, 2, "deq_mcl")
        assert a.random() != b.random()

    def test_trials_independent(self):
        a = harness.derive_rng(3, 0, 0)
        b = harness.derive_rng(3, 1, 0)
        assert a.random() != b.random()


class TestRender:
    def _record_with_clouds(self, tmp_path, stride=4):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=12, lag=2,
                                            cloud_stride=stride))
        _, records = trial_records(cfg, "deq_mcl", 0)
        grid = harness.load_experiment_grid(cfg)
        return grid, [r for r in records if "clouds" in r]

    def test_snapshot_has_three_clouds_and_marker(self, tmp_path):
        grid, records = self._record_with_clouds(tmp_path)
        rec = next(r for r in records if len(r["clouds"]) == 3)
        svg = render.render_snapshot(rec, grid)
        assert svg.startswith("<svg")
        for color in ("orange", "pink", "lightblue", "gray", "black"):
            assert color in svg
        assert f">{rec['cloud_t']}</text>" in svg

    def test_mcl_record_renders_current_cloud_only(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl", count=8, cloud_stride=4))
        _, records = trial_records(cfg, "mcl", 0)
        grid = harness.load_experiment_grid(cfg)
        rec = next(r for r in records if "clouds" in r)
        svg = render.render_snapshot(rec, grid)
        assert "orange" in svg
        assert "pink" not in svg and "lightblue" not in svg

    def test_boundary_only_map_renders(self):
        grid = load_grid("20 10 1.0\n" + "#" * 20 + "\n" + ("#" + "." * 18 + "#\n") * 8 + "#" * 20 + "\n")
        rec = {
            "method": "mcl", "trial": 0, "t": 3, "truth": [10.0, 5.0, 0.0],
            "clouds": {"0": [[9.0, 5.0, 0.5], [11.0, 5.0, 0.5]]},
        }
        svg = render.render_snapshot(rec, grid)
        assert svg.count("<rect") >= 4  # background plus boundary wall runs
        assert "gray" in svg

    def test_missing_clouds_rejected(self, tmp_path):
        grid, _ = self._record_with_clouds(tmp_path)
        with pytest.raises(ValueError, match="clouds"):
            render.render_snapshot({"t": 1, "truth": [1, 1, 0]}, grid)


# a cloud-carrying trace record that `deqmcl render` draws
CLOUD_RECORD = '{"method": "mcl", "trial": 0, "t": 3, "truth": [3, 4, 0], "clouds": {"0": [[1, 2, 0.5]]}}'


class TestCheckInit:
    # tiny_map.txt: a 24 x 3 grid whose middle row holds the free cells x = 1 .. 22
    @pytest.mark.parametrize("box, free", [
        ((2.0, 6.0, 1.0, 2.0), True),  # tiny.cfg's own box
        ((0.1, 0.9, 0.1, 0.9), False),  # a wall cell
        ((0.1, 0.9, 1.2, 1.8), False),  # the corridor's left end wall
        ((-5.0, -1.0, 1.2, 1.8), False),  # off the grid
        ((-5.0, 1.0, 1.2, 1.8), False),  # stops at the first free cell's left face
        ((-5.0, 1.01, 1.2, 1.8), True),
        ((22.5, 1e308, 1.2, 1.8), True),  # the last free cell, then off the grid
        ((23.0, 1e308, 1.2, 1.8), False),
        ((3.0, 3.0, 1.5, 1.5), True),  # a point
        ((-1e308, 1e308, 2.0, 1e308), False),  # the top wall and above
    ])
    @pytest.mark.parametrize("resolution", ["1.0", "0.5"])
    def test_box_on_occupied_cells_names_init(self, box, free, resolution):
        # the same cells at either resolution: the box is scaled with them
        cfg = load_config("tiny.cfg")
        grid = load_grid(cfg.map_path.read_text().replace(" 1.0\n", f" {resolution}\n", 1))
        box = tuple(v * float(resolution) for v in box) + (0.0, 0.0)
        cfg = dataclasses.replace(cfg, init=dataclasses.replace(cfg.init, box=box))
        if free:
            harness.check_init(cfg, grid)
        else:
            with pytest.raises(ConfigError, match=r"^init: box .* lies wholly in occupied space"):
                harness.check_init(cfg, grid)

    def test_run_trial_checks_the_box(self, monkeypatch):
        # the library call that builds its own grid and plan checks the box as `run` does
        cfg = load_config("tiny.cfg")
        cfg = dataclasses.replace(cfg, init=dataclasses.replace(cfg.init, box=(0.1, 0.9, 0.1, 0.9, 0.0, 0.0)))
        monkeypatch.setattr(harness, "simulate_truth", lambda *a, **k: pytest.fail("truth simulated"))
        with pytest.raises(ConfigError, match=r"^init: box .* lies wholly in occupied space"):
            run_trial(cfg, "deq_mcl", 0)


class TestCli:
    def test_map_check(self, capsys):
        rc = cli.main(["map-check", "--config", "paper.cfg"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "collision samples: 0" in out

    def test_map_check_reports_colliding_plan(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, count=40)  # from x = 6 past the wall at x = 29
        rc = cli.main(["map-check", "--config", str(cfg_path)])
        assert rc == 1
        assert "noise-free rollout collides on step" in capsys.readouterr().out

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, methods="mcl", count=4)
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli_out")])
        assert rc == 0
        assert (tmp_path / "cli_out" / "summary.csv").exists()

    def test_run_methods_subset(self, tmp_path):
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2)
        cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "sub"),
                  "--methods", "mcl"])
        summary = (tmp_path / "sub" / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 and summary[1].startswith("mcl,")

    def test_run_methods_checked_before_truth(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_mini_config(tmp_path, methods="mcl, deq_mcl", count=4, lag=2)
        run = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "sub")]
        with monkeypatch.context() as m:
            m.setattr(harness, "simulate_truth", lambda *a, **k: pytest.fail("truth simulated"))
            for methods in ("warp_drive", "mcl,mcl", "mcl,", "mcl;deq_mcl", ""):
                assert cli.main([*run, "--methods", methods]) == 2
                err = capsys.readouterr().err
                assert err.startswith("deqmcl: methods must be") and err.count("\n") == 1
        assert not (tmp_path / "sub").exists()
        cli.main([*run, "--methods", " deq_mcl , mcl"])  # spaces around the names
        summary = harness.read_summary_csv(tmp_path / "sub" / "summary.csv")
        assert [r["method"] for r in summary] == ["deq_mcl", "mcl"]

    def test_bad_seed_is_one_line(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_mini_config(tmp_path)
        monkeypatch.setattr(harness, "simulate_truth", lambda *a, **k: pytest.fail("truth simulated"))
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "deqmcl: seed must be an integer >= 0, got -3\n"
        for seed in (2.5, True):
            with pytest.raises(ConfigError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
                run_experiment(load_config(cfg_path), seed=seed)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "oracle", "render"])
    @pytest.mark.parametrize("source", ["--out", "DEQMCL_OUT", "outputs"])
    def test_output_directory_that_is_a_file_is_one_line(self, tmp_path, monkeypatch, capsys, command, source):
        cfg_path = write_mini_config(tmp_path, count=4, outputs="taken" if source == "outputs" else "out")
        cfg_path.write_text(cfg_path.read_text() + "oracle: {cell: 1.0, heading_bins: 1, seeds: 1, compare_t: 4}\n")
        taken, trace = tmp_path / "taken", tmp_path / "t.jsonl"
        taken.write_text("a file\n")
        trace.write_text('{"t": 1}\n')
        monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
        if source == "DEQMCL_OUT":
            monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(taken))
        argv = [command, "--config", str(cfg_path), *(["--out", str(taken)] if source == "--out" else []),
                *(["--trace", str(trace)] if command == "render" else [])]
        before = sorted(tmp_path.iterdir())
        monkeypatch.setattr(harness, "simulate_truth", lambda *a, **k: pytest.fail("truth simulated"))
        assert cli.main(argv) == 2
        reason = "/snapshots: cannot create: Not a directory" if command == "render" else ": cannot create: File exists"
        assert capsys.readouterr() == ("", f"deqmcl: output directory {taken}{reason}\n")
        assert sorted(tmp_path.iterdir()) == before and taken.read_text() == "a file\n"

    def test_config_error_is_one_line_for_every_subcommand(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text() + "oracle: {cell: 1.0, heading_bins: 1, seeds: 1, compare_t: 4}\n"
        map_path, cfg_dir = tmp_path / "mini_map.txt", tmp_path / "cfg_dir"
        cfg_dir.mkdir()

        def assert_one_line(config, message):
            for argv in (["run"], ["oracle"], ["render", "--trace", "t.jsonl"], ["map-check"]):
                assert cli.main([argv[0], "--config", str(config), *argv[1:]]) == 2
                captured = capsys.readouterr()
                assert captured.err == f"deqmcl: {message}\n" and captured.out == ""

        cfg_path.write_text(text.replace("y: 6.0, ", ""))
        assert_one_line(cfg_path, "missing key 'y' in start")
        cfg_path.write_text(text.replace("collision_step: 1.0", "collision_step: .inf"))
        assert_one_line(cfg_path, "filter: collision_step must be positive and finite, got inf")
        assert_one_line(cfg_dir, f"{cfg_dir}: cannot read: Is a directory")
        cfg_path.write_text(text)
        map_path.write_text("3 2 1.0\n###\n#x#\n")
        assert_one_line(cfg_path, f"map: {map_path}: line 3: invalid characters ['x']")
        map_path.unlink()
        map_path.mkdir()
        assert_one_line(cfg_path, f"map: {map_path}: cannot read: Is a directory")

    def test_colliding_plan_is_one_line_for_run_and_oracle(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, count=40)  # from x = 6 past the wall at x = 29
        cfg_path.write_text(cfg_path.read_text() + "oracle: {cell: 1.0, heading_bins: 1, seeds: 1, compare_t: 4}\n")
        for command in ("run", "oracle"):
            assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("deqmcl: ") and "noise-free rollout collides on step" in err
            assert err.count("\n") == 1

    def test_plan_with_no_executed_step_is_one_line(self, tmp_path, capsys):
        # the one waypoint lies within v_step of the start (6, 6): no step would run
        cfg_path = write_mini_config(tmp_path)
        text = cfg_path.read_text().replace("kind: constant, v: 1.0, omega_deg: 0.0, count: 5",
                                            "kind: waypoints, v_step: 2.0, waypoints: [[7.0, 6.5]]")
        cfg_path.write_text(text + "oracle: {cell: 1.0, heading_bins: 1, seeds: 1, compare_t: 4}\n")
        message = "waypoint plan has no executed step: every waypoint lies within v_step 2.0 of the start (6.0, 6.0)"
        assert cli.main(["map-check", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [f"plan: {message}"]
        for command in ("run", "oracle"):
            assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err == f"deqmcl: {message}\n"

    def test_constant_plan_longer_than_a_plan_holds_is_one_line(self, tmp_path, monkeypatch, capsys):
        # count steps and the start step: MAX_PLAN_ACTIONS + 1 actions, one more than
        # a waypoint plan may hold; rejected at load, before any plan is built
        from deqmcl.worldsim import MAX_PLAN_ACTIONS

        cfg_path = write_mini_config(tmp_path, count=MAX_PLAN_ACTIONS)
        monkeypatch.setattr(harness, "ActionPlan", lambda *a: pytest.fail("plan built"))
        monkeypatch.setattr(harness, "check_rollout", lambda *a: pytest.fail("rollout checked"))
        message = (f"plan: count must be at most {MAX_PLAN_ACTIONS - 1}: a plan holds at most "
                   f"{MAX_PLAN_ACTIONS} actions, its start step included; got {MAX_PLAN_ACTIONS}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(cfg_path)
        for command in ("run", "oracle", "map-check"):
            out = tmp_path / command
            outputs = [] if command == "map-check" else ["--out", str(out)]
            assert cli.main([command, "--config", str(cfg_path), *outputs]) == 2
            assert capsys.readouterr().err == f"deqmcl: {message}\n"
            assert not out.exists()
        cfg_path.write_text(cfg_path.read_text().replace(f"count: {MAX_PLAN_ACTIONS}", f"count: {MAX_PLAN_ACTIONS - 1}"))
        assert load_config(cfg_path).plan.count == MAX_PLAN_ACTIONS - 1

    def test_initial_box_inside_a_wall_is_one_line(self, tmp_path, monkeypatch, capsys):
        # tiny.cfg's box moved into the corridor's bottom-left wall cell
        text = (harness.packaged_config_dir() / "tiny.cfg").read_text()
        cfg_path = tmp_path / "wall.cfg"
        cfg_path.write_text(
            text.replace("box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]", "box: [0.1, 0.9, 0.1, 0.9, 0.0, 0.0]")
            .replace("map: tiny_map.txt", f"map: {harness.packaged_config_dir() / 'tiny_map.txt'}")
        )
        monkeypatch.setattr(harness, "simulate_truth", lambda *a, **k: pytest.fail("truth simulated"))
        for command in ("run", "oracle"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "deqmcl: init: box x [0.1, 0.9], y [0.1, 0.9] lies wholly in occupied space, "
                "so no initial particle can be free\n"
            )
            assert not (out / "traces").exists()

    @pytest.mark.parametrize("edit, status, commands", [
        (("count: 13", "count: 30"), 1, ("run", "oracle")),  # the plan runs into the right end wall
        (("box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]", "box: [0.1, 0.9, 0.1, 0.9, 0.0, 0.0]"), 2, ("run", "oracle")),
        (("compare_t: 9", "compare_t: 50"), 2, ("oracle",)),  # past the plan horizon
        (("cell: 0.5", "cell: 0.05"), 2, ("oracle",)),  # 480 x 60 cells, a 6,328 MiB kernel
        # 9,216 states, whose 648 MiB kernel is past the budget
        (("cell: 0.5\n  heading_bins: 1", "cell: 0.25\n  heading_bins: 8"), 2, ("oracle",)),
    ], ids=["colliding_plan", "box_in_a_wall", "compare_t_past_horizon", "lattice_too_large", "kernels_too_large"])
    def test_config_that_fails_its_checks_leaves_no_directory(
        self, tmp_path, monkeypatch, capsys, edit, status, commands
    ):
        # the output directory named by --out, or else by the config's `outputs`
        monkeypatch.delenv(harness.OUTPUT_DIR_ENV, raising=False)
        text = (harness.packaged_config_dir() / "tiny.cfg").read_text()
        assert edit[0] in text
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            text.replace(*edit)
            .replace("map: tiny_map.txt", f"map: {harness.packaged_config_dir() / 'tiny_map.txt'}")
            .replace("outputs: out/tiny", f"outputs: {tmp_path / 'outputs'}")
        )
        for command in commands:
            for flag in ([], ["--out", str(tmp_path / "flag")]):
                assert cli.main([command, "--config", str(cfg_path), *flag]) == status
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("deqmcl: ")
                assert captured.err.count("\n") == 1
                assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("failure", ["impossible_evidence", "degenerate_weights"])
    def test_failed_oracle_trial_is_one_line(self, tmp_path, monkeypatch, capsys, failure):
        text = (harness.packaged_config_dir() / "tiny.cfg").read_text().replace("seeds: 20", "seeds: 2")
        text = text.replace("map: tiny_map.txt", f"map: {harness.packaged_config_dir() / 'tiny_map.txt'}")
        if failure == "impossible_evidence":
            # a box far from the start and a sharp sensor: the first scan has
            # zero probability at every lattice state the belief reaches
            text = text.replace("box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]", "box: [15, 20, 1, 2, 0, 0]")
            text = text.replace("sensor_sigma: 2.0", "sensor_sigma: 0.01")
            message = "evidence has zero probability at step 2"
        else:
            message = "all particle weights vanished"

            def degenerate(log_weights):
                raise filters.FilterDegeneracyError(message)

            monkeypatch.setattr(filters, "_normalize_log_weights", degenerate)
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(text)
        assert cli.main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"deqmcl: {message}\n")

    @staticmethod
    def tiny_config(tmp_path, *edits, name="tiny.cfg"):
        """tiny.cfg with its map path made absolute and each (old, new) edit applied."""
        text = (harness.packaged_config_dir() / "tiny.cfg").read_text()
        for old, new in (("map: tiny_map.txt", f"map: {harness.packaged_config_dir() / 'tiny_map.txt'}"), *edits):
            assert old in text
            text = text.replace(old, new)
        cfg_path = tmp_path / name
        cfg_path.write_text(text)
        return cfg_path

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_belief_drawn_wholly_off_the_map_is_a_failed_trial(self, tmp_path, capsys, command):
        cfg_path = self.tiny_config(
            tmp_path, ("count: 13", "count: 3"), ("n_particles: 10000", "n_particles: 50"),
            ("compare_t: 9", "compare_t: 3"),
            ("kind: uniform_box\n  box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]",
             "kind: gaussian\n  sigma_xy: 1.0e6\n  sigma_theta_deg: 1.0"),
        )
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        message = "every initial particle lies in occupied space"
        captured = capsys.readouterr()
        if command == "run":
            assert captured.err == "" and "1 trial(s) failed" in captured.out
            assert (out / "failures.txt").read_text() == f"deq_mcl trial 0: {message}\n"
        else:
            assert captured == ("", f"deqmcl: {message}\n")
            assert sorted(p.name for p in out.iterdir()) == ["oracle_failures.txt"]
            assert (out / "oracle_failures.txt").read_text() == f"seed 0: {message}\n"

    def test_failed_oracle_trial_is_recorded_in_a_reused_directory(self, tmp_path):
        clean = self.tiny_config(tmp_path, ("seeds: 20", "seeds: 2"), name="clean.cfg")
        # a box far from the start and a sharp sensor: the first scan has zero
        # probability at every lattice state the belief reaches
        failing = self.tiny_config(
            tmp_path, ("seeds: 20", "seeds: 2"), ("box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]", "box: [15, 20, 1, 2, 0, 0]"),
            ("sensor_sigma: 2.0", "sensor_sigma: 0.01"), name="failing.cfg",
        )
        out = tmp_path / "out"
        assert cli.main(["oracle", "--config", str(failing), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["oracle_failures.txt"]
        assert (out / "oracle_failures.txt").read_text() == "seed 0: evidence has zero probability at step 2\n"
        # a success removes the old record, and a later failure the old rows
        assert cli.main(["oracle", "--config", str(clean), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["oracle_tv.csv"]
        assert cli.main(["oracle", "--config", str(failing), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["oracle_failures.txt"]

    def test_oracle_keeps_the_failures_of_a_run(self, tmp_path):
        # a run whose one trial fails, then a clean oracle validation into the same directory
        failing = self.tiny_config(
            tmp_path, ("count: 13", "count: 3"), ("n_particles: 10000", "n_particles: 50"),
            ("kind: uniform_box\n  box: [2.0, 6.0, 1.0, 2.0, 0.0, 0.0]",
             "kind: gaussian\n  sigma_xy: 1.0e6\n  sigma_theta_deg: 1.0"), name="failing.cfg",
        )
        clean = self.tiny_config(tmp_path, ("seeds: 20", "seeds: 2"), name="clean.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(failing), "--out", str(out)]) == 1
        record = (out / "failures.txt").read_text()
        assert record == "deq_mcl trial 0: every initial particle lies in occupied space\n"
        assert "failed trials: 1 (see failures.txt)" in (out / "report.txt").read_text()
        assert cli.main(["oracle", "--config", str(clean), "--out", str(out)]) == 0
        assert (out / "failures.txt").read_text() == record
        assert "failed trials: 1 (see failures.txt)" in (out / "report.txt").read_text()
        assert (out / "oracle_tv.csv").exists() and not (out / "oracle_failures.txt").exists()

    def test_oracle_subcommand(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path, methods="deq_mcl", count=6, lag=2)
        text = cfg_path.read_text() + "oracle: {cell: 1.0, heading_bins: 1, seeds: 1, compare_t: 4}\n"
        # shrink the particle count so the validation is fast
        text = text.replace("n_particles: 80", "n_particles: 400")
        cfg_path.write_text(text)
        rc = cli.main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "oracle_out")])
        assert rc == 0
        csv_text = (tmp_path / "oracle_out" / "oracle_tv.csv").read_text().splitlines()
        assert csv_text[0] == "seed,t,offset,tv"
        assert len(csv_text) > 1

    def test_render_subcommand(self, tmp_path):
        cfg_path = write_mini_config(tmp_path, methods="deq_mcl", count=12, lag=2, cloud_stride=4)
        cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "ro")])
        trace = tmp_path / "ro" / "traces" / "deq_mcl_trial00.jsonl"
        rc = cli.main(["render", "--config", str(cfg_path), "--trace", str(trace),
                       "--out", str(tmp_path / "ro")])
        assert rc == 0
        snaps = list((tmp_path / "ro" / "snapshots").glob("*.svg"))
        assert snaps
        # the record the malformed cases below are made from is drawn
        (tmp_path / "one.jsonl").write_text(CLOUD_RECORD + "\n")
        assert cli.main(["render", "--config", str(cfg_path), "--trace", str(tmp_path / "one.jsonl"),
                         "--out", str(tmp_path / "one")]) == 0
        assert [p.name for p in (tmp_path / "one" / "snapshots").iterdir()] == ["mcl_trial00_t0003.svg"]

    @pytest.mark.parametrize("line, reason", [
        ("[1, 2]", "line 2 is not a trace record"),
        ('{"clouds": {"0": [[1, 2, 0.5]]}, "t": 3}', "line 2 has clouds but no method, trial, truth"),
        (CLOUD_RECORD.replace("[[1, 2, 0.5]]", "[[1, 2]]"),
         "line 2: clouds must map integer offsets to lists of [x, y, w] number triples"),
        (CLOUD_RECORD.replace("[3, 4, 0]", "[3, 4]"), "line 2: truth must be 3 numbers, got [3, 4]"),
        (CLOUD_RECORD.replace('"trial": 0', '"trial": "0"'), "line 2: trial must be an integer, got '0'"),
        (CLOUD_RECORD.replace('"0":', '"zero":'),
         "line 2: clouds must map integer offsets to lists of [x, y, w] number triples"),
        (CLOUD_RECORD.replace('{"0": [[1, 2, 0.5]]}', "[[1, 2, 0.5]]"),
         "line 2: clouds must map integer offsets to lists of [x, y, w] number triples"),
        (CLOUD_RECORD.replace('"mcl"', '"no/such"'),
         "line 2: method must be one of deq_mcl, mcl_smoother, mcl_map_motion, mcl, got 'no/such'"),
    ], ids=["list", "clouds_without_truth", "point_of_two", "truth_of_two", "string_trial", "offset_not_integer",
            "clouds_list", "unknown_method"])
    def test_render_line_that_is_not_a_record_is_one_line(self, tmp_path, capsys, line, reason):
        cfg_path = write_mini_config(tmp_path)
        trace = tmp_path / "odd.jsonl"
        trace.write_text('{"t": 1}\n' + line + "\n")  # a record without clouds is skipped, not refused
        rc = cli.main(["render", "--config", str(cfg_path), "--trace", str(trace), "--out", str(tmp_path / "ro")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"deqmcl: trace {trace}: {reason}\n"
        assert captured.out == ""
        assert not (tmp_path / "ro").exists()

    def test_render_bad_trace_is_one_line(self, tmp_path, capsys):
        cfg_path = write_mini_config(tmp_path)
        (tmp_path / "not_json.csv").write_text("method,trial\nmcl,0\n")
        (tmp_path / "a_dir").mkdir()
        for name, reason in [
            ("missing.jsonl", "cannot read: No such file or directory"),
            ("a_dir", "cannot read: Is a directory"),
            ("not_json.csv", "not a JSON-lines trace: "),
        ]:
            trace = tmp_path / name
            rc = cli.main(["render", "--config", str(cfg_path), "--trace", str(trace), "--out", str(tmp_path / "ro")])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"deqmcl: trace {trace}: {reason}") and captured.err.count("\n") == 1
            assert captured.out == ""
        assert not (tmp_path / "ro").exists()
