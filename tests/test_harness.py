import json
import math

import numpy as np
import pytest

from deqmcl import cli, harness, render
from deqmcl.gridmap import load_grid
from deqmcl.harness import ConfigError, load_config, run_experiment, run_trial
from deqmcl.metrics import error_from_mean
from deqmcl.worldsim import Pose

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


def write_mini_config(tmp_path, methods="mcl", count=5, n_trials=1, lag=0,
                      cloud_stride=0, outputs="out"):
    (tmp_path / "mini_map.txt").write_text(MINI_MAP)
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(
        MINI_CFG.format(methods=methods, count=count, n_trials=n_trials, lag=lag,
                        cloud_stride=cloud_stride, outputs=str(tmp_path / outputs))
    )
    return cfg_path


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

    def test_per_method_overrides(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text() + "per_method:\n  mcl: {n_particles: 33}\n"
        path.write_text(text)
        cfg = load_config(path)
        assert harness.filter_config_for(cfg, "mcl").n_particles == 33
        assert harness.filter_config_for(cfg, "deq_mcl").n_particles == 80

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

    def test_bad_per_method_override_rejected(self, tmp_path):
        path = write_mini_config(tmp_path)
        path.write_text(path.read_text() + "per_method:\n  mcl: {sensor_sigma: .nan}\n")
        with pytest.raises(ConfigError, match="per_method.mcl: sensor_sigma"):
            load_config(path)


class TestRunTrial:
    def test_deterministic_repeat(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", lag=3, count=8))
        a = run_trial(cfg, "deq_mcl", 0)
        b = run_trial(cfg, "deq_mcl", 0)
        assert a[0].rmse == b[0].rmse
        assert json.dumps(a[1]) == json.dumps(b[1])

    def test_truth_shared_across_methods(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl, mcl_map_motion, deq_mcl",
                                            count=8, lag=2))
        truths = {}
        for method in cfg.methods:
            _, records = run_trial(cfg, method, 0)
            truths[method] = {r["t"]: r["truth"] for r in records}
        assert truths["mcl"] == truths["mcl_map_motion"] == truths["deq_mcl"]

    def test_truth_ignores_per_method_collision_step(self, tmp_path, monkeypatch):
        path = write_mini_config(tmp_path, methods="mcl, mcl_map_motion", count=8, n_trials=2)
        path.write_text(path.read_text() + "per_method:\n  mcl: {collision_step: 0.5}\n")
        cfg = load_config(path)
        steps = []
        simulate = harness.simulate_truth

        def spy(*args, **kwargs):
            steps.append(kwargs["collision_step"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_truth", spy)
        run_experiment(cfg, out_dir=str(tmp_path / "run"))
        # once per trial, at the base step, however many methods share it
        assert steps == [cfg.filter_base.collision_step] * cfg.n_trials
        for trial in range(cfg.n_trials):
            truths = [
                [json.loads(line)["truth"] for line in
                 (tmp_path / "run" / "traces" / f"{m}_trial{trial:02d}.jsonl").open()]
                for m in cfg.methods
            ]
            assert truths[0] == truths[1]
            _, records = run_trial(cfg, "mcl", trial)
            assert [r["truth"] for r in records] == truths[0]
        assert steps[cfg.n_trials:] == [cfg.filter_base.collision_step] * cfg.n_trials

    def test_one_record_per_step(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl_smoother", count=9, lag=3))
        _, records = run_trial(cfg, "mcl_smoother", 0)
        assert [r["t"] for r in records] == list(range(1, 11))  # horizon = count + 1

    def test_trace_error_consistent_with_mean(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=8, lag=2))
        _, records = run_trial(cfg, "deq_mcl", 0)
        for r in records:
            recomputed = error_from_mean(np.array(r["current_mean"]), Pose(*r["truth"]))
            assert abs(recomputed - r["e_t"]) < 1e-9

    def test_lagged_method_reports_smoothed_estimates(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="mcl_smoother, mcl",
                                            count=12, lag=4))
        _, rec_s = run_trial(cfg, "mcl_smoother", 0)
        _, rec_m = run_trial(cfg, "mcl", 0)
        # same truth stream but different reporting conventions and streams
        assert [r["t"] for r in rec_s] == [r["t"] for r in rec_m]

    def test_clouds_every_stride(self, tmp_path):
        cfg = load_config(write_mini_config(tmp_path, methods="deq_mcl", count=12, lag=2,
                                            cloud_stride=4))
        _, records = run_trial(cfg, "deq_mcl", 0)
        with_clouds = [r for r in records if "clouds" in r]
        assert with_clouds
        for r in with_clouds:
            assert r["cloud_t"] % 4 == 0
            offsets = set(map(int, r["clouds"].keys()))
            assert 0 in offsets
            assert offsets <= {-2, 0, 2}


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


class TestInitSamplers:
    def test_uniform_free_covers_free_space(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text().replace(
            "init: {kind: gaussian, sigma_xy: 2.0, sigma_theta_deg: 3.0}",
            "init: {kind: uniform_free}",
        )
        path.write_text(text)
        cfg = load_config(path)
        grid = harness.load_experiment_grid(cfg)
        sampler = harness.make_init_sampler(cfg, grid)
        poses = sampler(np.random.default_rng(0), 500)
        assert poses.shape == (500, 3)
        assert not grid.occupied_xy(poses[:, 0], poses[:, 1]).any()
        # spreads over the whole free interior, not just around the start
        assert poses[:, 0].min() < 5 and poses[:, 0].max() > 25

    def test_uniform_box_stays_in_box(self, tmp_path):
        path = write_mini_config(tmp_path)
        text = path.read_text().replace(
            "init: {kind: gaussian, sigma_xy: 2.0, sigma_theta_deg: 3.0}",
            "init: {kind: uniform_box, box: [4.0, 8.0, 5.0, 7.0, -10.0, 10.0]}",
        )
        path.write_text(text)
        cfg = load_config(path)
        grid = harness.load_experiment_grid(cfg)
        sampler = harness.make_init_sampler(cfg, grid)
        poses = sampler(np.random.default_rng(0), 200)
        assert np.all((poses[:, 0] >= 4) & (poses[:, 0] < 8))
        assert np.all((poses[:, 1] >= 5) & (poses[:, 1] < 7))
        assert np.all(np.abs(poses[:, 2]) <= math.radians(10) + 1e-12)


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
        _, records = run_trial(cfg, "deq_mcl", 0)
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
        _, records = run_trial(cfg, "mcl", 0)
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


class TestCli:
    def test_map_check(self, capsys):
        rc = cli.main(["map-check", "--config", "paper.cfg"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "collision samples: 0" in out

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
