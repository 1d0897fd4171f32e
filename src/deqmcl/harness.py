"""Experiment harness: seeded trial batteries for the four localizers.

A trial rolls one noisy ground-truth trajectory along the configured loop
plan, feeds every method the same executed actions and scans (common random
numbers: the truth and sensor streams depend only on the master seed and the
trial index, never on the method), and scores each method on its final
reported estimate of every time step.  For the lag-carrying methods
(smoother, queue filter) that reported estimate is the lagged marginal, i.e.
the estimate of time j extracted at time j + lag (or at the end of the run
for the last steps), which is the whole point of carrying the lag.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import filters, metrics, oracle
from .filters import FilterConfig, FilterDegeneracyError, QueueState
from .gridmap import OccupancyGrid, Point2, load_grid
from .worldsim import (
    Action,
    ActionPlan,
    BeamConfig,
    DepthScan,
    NoiseParams,
    PlanError,
    Pose,
    build_loop_plan,
    sense,
    step_true,
)

METHODS = ("deq_mcl", "mcl_smoother", "mcl_map_motion", "mcl")
LAGGED_METHODS = ("deq_mcl", "mcl_smoother")
OUTPUT_DIR_ENV = "DEQMCL_OUT"

_STREAM_TRUTH = 0
_STREAM_SENSOR = 1
_STREAM_FILTER = 2

SUMMARY_HEADER = "method,rmse_mean,rmse_sd,entropy_mean,var_x,var_y,var_cos,var_sin"

REPORT_CAVEAT = (
    "Note: absolute metric values depend on the simulator noise levels, the sensor\n"
    "model and the reconstructed map geometry; only the relative ordering of the\n"
    "methods is meaningful."
)


class ConfigError(ValueError):
    """An experiment config file is missing or malformed."""


@dataclass(frozen=True)
class PlanSpec:
    kind: str  # "waypoints" | "constant"
    v_step: float = 5.0
    omega_step: float = math.pi / 8
    waypoints: tuple[Point2, ...] = ()
    v: float = 1.0
    omega: float = 0.0
    count: int = 1


@dataclass(frozen=True)
class InitSpec:
    kind: str = "gaussian"  # "gaussian" | "uniform_box" | "uniform_free"
    sigma_xy: float = 10.0
    sigma_theta: float = 0.2
    box: tuple[float, float, float, float, float, float] = (0, 0, 0, 0, 0, 0)


@dataclass(frozen=True)
class MetricParams:
    entropy_cell: float = 5.0
    entropy_heading_bins: int = 36
    rmse_mode: str = "mean"


@dataclass(frozen=True)
class OracleParams:
    cell: float = 1.0
    heading_bins: int = 1
    seeds: int = 20
    compare_t: int = 9


@dataclass(frozen=True)
class ExperimentConfig:
    map_path: Path
    start: Pose
    plan: PlanSpec
    n_trials: int
    master_seed: int
    methods: tuple[str, ...]
    noise: NoiseParams
    beams: BeamConfig
    filter_base: FilterConfig
    per_method: dict[str, dict] = field(default_factory=dict)
    init: InitSpec = field(default_factory=InitSpec)
    metric_params: MetricParams = field(default_factory=MetricParams)
    cloud_stride: int = 0
    outputs: str = "out"
    oracle_params: OracleParams | None = None


def packaged_config_dir() -> Path:
    return Path(resources.files("deqmcl") / "configs")


def resolve_config_path(name: str | Path) -> Path:
    """Resolve a config argument: a real path first, then the shipped configs."""
    p = Path(name)
    if p.exists():
        return p
    shipped = packaged_config_dir() / str(name)
    if shipped.exists():
        return shipped
    raise ConfigError(f"config {name!r} not found (also looked in {packaged_config_dir()})")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a YAML experiment config.

    All angles in config files are degrees (keys carry a ``_deg`` suffix);
    they are converted to radians here.  The map path is resolved relative to
    the config file's directory.
    """
    cfg_path = resolve_config_path(path)
    try:
        raw = yaml.safe_load(cfg_path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{cfg_path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{cfg_path}: top level must be a mapping")

    map_path = (cfg_path.parent / _require(raw, "map", "config")).resolve()
    if not map_path.exists():
        raise ConfigError(f"map file {map_path} does not exist")

    s = _require(raw, "start", "config")
    start = Pose(float(s["x"]), float(s["y"]), math.radians(float(s.get("theta_deg", 0.0))))

    p = _require(raw, "plan", "config")
    kind = p.get("kind", "waypoints")
    if kind == "waypoints":
        wps = tuple(Point2(float(w[0]), float(w[1])) for w in _require(p, "waypoints", "plan"))
        plan_spec = PlanSpec(
            kind="waypoints",
            v_step=float(p.get("v_step", 5.0)),
            omega_step=math.radians(float(p.get("omega_step_deg", 22.5))),
            waypoints=wps,
        )
    elif kind == "constant":
        plan_spec = PlanSpec(
            kind="constant",
            v=float(p.get("v", 1.0)),
            omega=math.radians(float(p.get("omega_deg", 0.0))),
            count=int(_require(p, "count", "plan")),
        )
    else:
        raise ConfigError(f"unknown plan kind {kind!r}")

    n_trials = int(raw.get("n_trials", 1))
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    master_seed = int(raw.get("master_seed", 0))
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")

    methods = tuple(raw.get("methods", list(METHODS)))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {METHODS}")

    nz = raw.get("noise", {})
    noise = NoiseParams(
        sigma_v=float(nz.get("sigma_v", 0.5)),
        sigma_omega=math.radians(float(nz.get("sigma_omega_deg", 2.9))),
        sigma_range=float(nz.get("sigma_range", 2.0)),
    )

    bm = raw.get("beams", {})
    try:
        beams = BeamConfig(
            headings=tuple(math.radians(float(h)) for h in bm.get("headings_deg", (-60, -30, 0, 30, 60))),
            max_range=float(bm.get("max_range", 100.0)),
            ray_step=float(bm.get("ray_step", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"beams: {exc}") from None

    fn = raw.get("filter_noise")
    if fn is None:
        filter_noise = noise  # filters model the world noise exactly
    else:
        filter_noise = NoiseParams(
            sigma_v=float(fn.get("sigma_v", noise.sigma_v)),
            sigma_omega=math.radians(float(fn.get("sigma_omega_deg", math.degrees(noise.sigma_omega)))),
            sigma_range=noise.sigma_range,
        )

    def filter_from(section: dict) -> FilterConfig:
        kw = {}
        for key in (
            "n_particles",
            "lag",
            "beta",
            "sensor_sigma",
            "resample_threshold",
            "collision_step",
            "replan_on_divergence",
            "resimulate_future",
        ):
            if key in section:
                kw[key] = section[key]
        return FilterConfig(motion_noise=filter_noise, **kw)

    try:
        filter_base = filter_from(raw.get("filter", {}))
    except ValueError as exc:
        raise ConfigError(f"filter: {exc}") from None
    per_method = raw.get("per_method", {}) or {}
    for m in per_method:
        if m not in METHODS:
            raise ConfigError(f"per_method override for unknown method {m!r}")
        try:
            dataclasses.replace(filter_base, **per_method[m])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"per_method.{m}: {exc}") from None

    init_raw = raw.get("init", {})
    init_kind = init_raw.get("kind", "gaussian")
    if init_kind not in ("gaussian", "uniform_box", "uniform_free"):
        raise ConfigError(f"unknown init kind {init_kind!r}")
    box = (0.0,) * 6
    if init_kind == "uniform_box":
        b = _require(init_raw, "box", "init")
        box = (
            float(b[0]), float(b[1]), float(b[2]), float(b[3]),
            math.radians(float(b[4])), math.radians(float(b[5])),
        )
    init = InitSpec(
        kind=init_kind,
        sigma_xy=float(init_raw.get("sigma_xy", 10.0)),
        sigma_theta=math.radians(float(init_raw.get("sigma_theta_deg", 11.5))),
        box=box,
    )

    mt = raw.get("metrics", {})
    metric_params = MetricParams(
        entropy_cell=float(mt.get("entropy_cell", 5.0)),
        entropy_heading_bins=int(mt.get("entropy_heading_bins", 36)),
        rmse_mode=str(mt.get("rmse_mode", "mean")),
    )
    if metric_params.rmse_mode not in ("mean", "rms"):
        raise ConfigError(f"metrics.rmse_mode must be 'mean' or 'rms', got {metric_params.rmse_mode!r}")

    oracle_params = None
    if "oracle" in raw:
        o = raw["oracle"]
        oracle_params = OracleParams(
            cell=float(o.get("cell", 1.0)),
            heading_bins=int(o.get("heading_bins", 1)),
            seeds=int(o.get("seeds", 20)),
            compare_t=int(o.get("compare_t", 9)),
        )

    return ExperimentConfig(
        map_path=map_path,
        start=start,
        plan=plan_spec,
        n_trials=n_trials,
        master_seed=master_seed,
        methods=methods,
        noise=noise,
        beams=beams,
        filter_base=filter_base,
        per_method={m: dict(v) for m, v in per_method.items()},
        init=init,
        metric_params=metric_params,
        cloud_stride=int(raw.get("trace", {}).get("cloud_stride", 0)),
        outputs=str(raw.get("outputs", "out")),
        oracle_params=oracle_params,
    )


def filter_config_for(cfg: ExperimentConfig, method: str) -> FilterConfig:
    base = cfg.filter_base
    override = cfg.per_method.get(method)
    if not override:
        return base
    return dataclasses.replace(base, **override)


def derive_rng(master_seed: int, trial: int, stream: int, method: str | None = None) -> np.random.Generator:
    """One named, seedable stream per consumer.

    Truth and sensor streams depend only on (master_seed, trial), so every
    method sees the same world; filter streams additionally mix the method.
    """
    entropy = [master_seed, trial, stream]
    if method is not None:
        entropy.append(METHODS.index(method))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def load_experiment_grid(cfg: ExperimentConfig) -> OccupancyGrid:
    return load_grid(cfg.map_path.read_text())


def build_plan(cfg: ExperimentConfig, grid: OccupancyGrid) -> ActionPlan:
    if cfg.plan.kind == "waypoints":
        return build_loop_plan(
            grid,
            cfg.start,
            list(cfg.plan.waypoints),
            cfg.plan.v_step,
            cfg.plan.omega_step,
            collision_step=cfg.filter_base.collision_step,
        )
    actions = [Action(0.0, 0.0)]
    actions += [Action(cfg.plan.v, cfg.plan.omega)] * cfg.plan.count
    return ActionPlan(tuple(actions))


def make_init_sampler(cfg: ExperimentConfig, grid: OccupancyGrid):
    """Initial-belief sampler; draws three blocks (x, y, theta) in that order."""
    spec = cfg.init
    start = cfg.start

    if spec.kind == "gaussian":

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            x = start.x + rng.standard_normal(n) * spec.sigma_xy
            y = start.y + rng.standard_normal(n) * spec.sigma_xy
            theta = start.theta + rng.standard_normal(n) * spec.sigma_theta
            return np.column_stack([x, y, theta])

    elif spec.kind == "uniform_box":
        xmin, xmax, ymin, ymax, thmin, thmax = spec.box

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            x = rng.uniform(xmin, xmax, n)
            y = rng.uniform(ymin, ymax, n)
            theta = rng.uniform(thmin, thmax, n) if thmax > thmin else np.full(n, thmin)
            return np.column_stack([x, y, theta])

    else:  # uniform over free cells

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            free_iy, free_ix = np.nonzero(~grid.cells)
            picks = rng.integers(0, free_ix.size, n)
            x = (free_ix[picks] + rng.random(n)) * grid.resolution
            y = (free_iy[picks] + rng.random(n)) * grid.resolution
            theta = rng.uniform(-math.pi, math.pi, n)
            return np.column_stack([x, y, theta])

    return sampler


def simulate_truth(
    grid: OccupancyGrid,
    plan: ActionPlan,
    start: Pose,
    noise: NoiseParams,
    beams: BeamConfig,
    rng_truth: np.random.Generator,
    rng_sensor: np.random.Generator,
    collision_step: float = 1.0,
    max_retries: int = 100,
) -> tuple[list[Pose], list[DepthScan | None]]:
    """Ground truth for one trial: poses[t] and scans[t] indexed 1..T.

    Noise draws that would push the robot through a wall are rejected and
    redrawn (the physical robot cannot pass through obstacles); after
    ``max_retries`` rejections the robot holds its pose for that step.
    """
    horizon = plan.horizon
    poses: list[Pose | None] = [None] * (horizon + 1)
    scans: list[DepthScan | None] = [None] * (horizon + 1)
    if grid.is_occupied(start.position):
        raise PlanError(f"start pose ({start.x}, {start.y}) is in occupied space")
    poses[1] = start
    for t in range(2, horizon + 1):
        base = poses[t - 1]
        nxt = None
        for _ in range(max_retries):
            cand = step_true(base, plan.action(t), noise, rng_truth)
            if not grid.is_occupied(cand.position) and (
                grid.segment_collision_count(base.position, cand.position, collision_step) == 0
            ):
                nxt = cand
                break
        poses[t] = nxt if nxt is not None else base
        scans[t] = sense(grid, poses[t], beams, noise, rng_sensor)
    return poses, scans  # type: ignore[return-value]


def trial_truth(
    cfg: ExperimentConfig, trial: int, grid: OccupancyGrid, plan: ActionPlan
) -> tuple[list[Pose], list[DepthScan | None]]:
    """The trial's ground truth, shared by every method.

    It uses the base filter section's collision step (the one `build_plan`
    checks the plan with), so a per-method override cannot change the world.
    """
    return simulate_truth(
        grid, plan, cfg.start, cfg.noise, cfg.beams,
        derive_rng(cfg.master_seed, trial, _STREAM_TRUTH),
        derive_rng(cfg.master_seed, trial, _STREAM_SENSOR),
        collision_step=cfg.filter_base.collision_step,
    )


def _make_stepper(method: str, fcfg: FilterConfig, grid: OccupancyGrid, plan: ActionPlan):
    if method == "mcl":
        return lambda st, t, a, scan, rng: filters.mcl_step(st, a, scan, fcfg, grid, rng)
    if method == "mcl_map_motion":
        return lambda st, t, a, scan, rng: filters.mcl_map_motion_step(st, a, scan, fcfg, grid, rng)
    if method == "mcl_smoother":
        return lambda st, t, a, scan, rng: filters.mcl_smoother_step(st, a, scan, fcfg, grid, rng)
    if method == "deq_mcl":
        return lambda st, t, a, scan, rng: filters.deq_step(st, t, a, scan, plan, fcfg, grid, rng)
    raise ValueError(f"unknown method {method!r}")


def reporting_lag(method: str, fcfg: FilterConfig) -> int:
    return fcfg.lag if method in LAGGED_METHODS else 0


def run_trial(
    cfg: ExperimentConfig,
    method: str,
    trial: int,
    grid: OccupancyGrid | None = None,
    plan: ActionPlan | None = None,
    truth_scans: tuple[list[Pose], list[DepthScan | None]] | None = None,
) -> tuple[metrics.TrialMetrics, list[dict]]:
    """Run one (method, trial) pair; returns per-trial metrics and trace records.

    ``truth_scans`` is the trial's `trial_truth`; it is simulated here when
    not given.

    Emits exactly one record per time step t, containing the method's final
    estimate of the state at t, the matching error e_t, and (every
    ``cloud_stride`` steps) the particle clouds at offsets -lag/0/+lag of the
    queue from which the estimate was extracted.
    """
    if grid is None:
        grid = load_experiment_grid(cfg)
    if plan is None:
        plan = build_plan(cfg, grid)
    fcfg = filter_config_for(cfg, method)
    horizon = plan.horizon

    rng_filter = derive_rng(cfg.master_seed, trial, _STREAM_FILTER, method)
    if truth_scans is None:
        truth_scans = trial_truth(cfg, trial, grid, plan)
    truth, scans = truth_scans

    sampler = make_init_sampler(cfg, grid)
    if method == "deq_mcl":
        state = filters.deq_init(fcfg, sampler, plan, grid, rng_filter)
    else:
        state = filters.init_belief(fcfg, sampler, grid, rng_filter)
    stepper = _make_stepper(method, fcfg, grid, plan)
    lag = reporting_lag(method, fcfg)
    mp = cfg.metric_params

    records: list[dict] = []
    errors: list[metrics.StepError] = []
    entropies: list[float] = []
    variances: list[np.ndarray] = []

    def emit(j: int, state: QueueState, tau: int) -> None:
        snap = state.marginal(j - tau)
        mean = metrics.mean_state(snap)
        e = metrics.error_from_mean(mean, truth[j])
        entropy = metrics.belief_entropy(snap, mp.entropy_cell, mp.entropy_heading_bins)
        var = metrics.belief_variance(snap)
        errors.append(metrics.StepError(t=j, value=e))
        entropies.append(entropy)
        variances.append(var)
        rec = {
            "method": method,
            "trial": trial,
            "t": j,
            "truth": [truth[j].x, truth[j].y, truth[j].theta],
            "current_mean": [float(v) for v in mean],
            "e_t": e,
            "ess": filters.effective_sample_size(state.log_weights),
            "entropy": entropy,
            "var": [float(v) for v in var],
        }
        if cfg.cloud_stride and tau % cfg.cloud_stride == 0:
            clouds = {}
            for off in sorted({-lag, 0, lag}):
                if -state.n_past <= off <= state.n_future:
                    cloud = state.marginal(off)
                    clouds[str(off)] = np.column_stack(
                        [cloud.poses[:, 0], cloud.poses[:, 1], cloud.weights]
                    ).tolist()
            rec["clouds"] = clouds
            rec["cloud_t"] = tau
        records.append(rec)

    for tau in range(1, horizon + 1):
        if tau >= 2:
            state = stepper(state, tau, plan.action(tau), scans[tau], rng_filter)
        j = tau - lag
        if j >= 1:
            emit(j, state, tau)
    for j in range(max(1, horizon - lag + 1), horizon + 1):
        emit(j, state, horizon)

    trial_metrics = metrics.TrialMetrics(
        rmse=metrics.trial_rmse(errors, mp.rmse_mode),
        step_errors=np.array([e.value for e in errors]),
        entropy=float(np.mean(entropies)),
        variance=np.mean(np.stack(variances), axis=0),
    )
    return trial_metrics, records


def resolve_output_dir(cfg: ExperimentConfig, out_dir: str | None = None) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.outputs)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    methods: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> dict:
    """Run the full (method x trial) battery and write summary, report and traces.

    Filter-degenerate trials are recorded in failures.txt and skipped in the
    aggregates; the run continues.
    """
    if seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=seed)
    methods = tuple(methods) if methods is not None else cfg.methods
    out = resolve_output_dir(cfg, out_dir)
    traces_dir = out / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    grid = load_experiment_grid(cfg)
    plan = build_plan(cfg, grid)
    truths = [trial_truth(cfg, trial, grid, plan) for trial in range(cfg.n_trials)]

    summary_rows: list[dict] = []
    metric_rows: list[str] = []
    failures: list[tuple[str, int, str]] = []
    for method in methods:
        per_trial: list[metrics.TrialMetrics] = []
        for trial in range(cfg.n_trials):
            try:
                tm, records = run_trial(
                    cfg, method, trial, grid=grid, plan=plan, truth_scans=truths[trial]
                )
            except FilterDegeneracyError as exc:
                failures.append((method, trial, str(exc)))
                continue
            per_trial.append(tm)
            metric_rows.append(
                f"{method},{trial},{tm.rmse!r},{tm.entropy!r},"
                + ",".join(repr(float(v)) for v in tm.variance)
            )
            trace_path = traces_dir / f"{method}_trial{trial:02d}.jsonl"
            with trace_path.open("w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        if per_trial:
            rmses = np.array([tm.rmse for tm in per_trial])
            var_mean = np.mean(np.stack([tm.variance for tm in per_trial]), axis=0)
            row = {
                "method": method,
                "rmse_mean": float(rmses.mean()),
                "rmse_sd": float(rmses.std(ddof=1)) if rmses.size > 1 else 0.0,
                "entropy_mean": float(np.mean([tm.entropy for tm in per_trial])),
                "var_x": float(var_mean[0]),
                "var_y": float(var_mean[1]),
                "var_cos": float(var_mean[2]),
                "var_sin": float(var_mean[3]),
            }
        else:
            row = {
                "method": method,
                "rmse_mean": float("nan"),
                "rmse_sd": float("nan"),
                "entropy_mean": float("nan"),
                "var_x": float("nan"),
                "var_y": float("nan"),
                "var_cos": float("nan"),
                "var_sin": float("nan"),
            }
        summary_rows.append(row)

    write_summary_csv(out / "summary.csv", summary_rows)
    (out / "metrics.csv").write_text(
        "method,trial,rmse,entropy,var_x,var_y,var_cos,var_sin\n"
        + "".join(row + "\n" for row in metric_rows)
    )
    _write_report(out / "report.txt", summary_rows, cfg, failures)
    if failures:
        with (out / "failures.txt").open("w") as fh:
            for method, trial, msg in failures:
                fh.write(f"{method} trial {trial}: {msg}\n")
    return {"summary": summary_rows, "out_dir": out, "failures": failures}


def write_summary_csv(path: Path, rows: list[dict]) -> None:
    # repr keeps full float precision so the CSV equals the in-memory
    # aggregates exactly and identical runs are byte-identical.
    lines = [SUMMARY_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [r["method"]]
                + [
                    repr(float(r[k]))
                    for k in (
                        "rmse_mean", "rmse_sd", "entropy_mean",
                        "var_x", "var_y", "var_cos", "var_sin",
                    )
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def read_summary_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {"method": raw["method"]}
            row.update({k: float(v) for k, v in raw.items() if k != "method"})
            rows.append(row)
    return rows


def _write_report(path: Path, rows: list[dict], cfg: ExperimentConfig, failures) -> None:
    lines = [
        f"methods: {', '.join(r['method'] for r in rows)}",
        f"trials per method: {cfg.n_trials}, master seed: {cfg.master_seed}",
        "",
        f"{'method':<16} {'rmse_mean':>12} {'rmse_sd':>12} {'entropy':>10} {'var_x':>12} {'var_y':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r['method']:<16} {r['rmse_mean']:>12.4f} {r['rmse_sd']:>12.4f} "
            f"{r['entropy_mean']:>10.4f} {r['var_x']:>12.2f} {r['var_y']:>12.2f}"
        )
    ordering = sorted(rows, key=lambda r: (math.isnan(r["rmse_mean"]), r["rmse_mean"]))
    lines += [
        "",
        "rmse ordering (best first): " + " < ".join(r["method"] for r in ordering),
        "",
        REPORT_CAVEAT,
    ]
    if failures:
        lines += ["", f"failed trials: {len(failures)} (see failures.txt)"]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# oracle validation
# ---------------------------------------------------------------------------

def lattice_initial(cfg: ExperimentConfig, hmm: oracle.DiscreteHmm) -> np.ndarray:
    """Project the configured initial belief onto the oracle lattice."""
    if cfg.init.kind == "uniform_box":
        return oracle.uniform_box_initial(hmm, cfg.init.box)
    if cfg.init.kind == "gaussian":
        return oracle.gaussian_initial(hmm, cfg.start, cfg.init.sigma_xy, cfg.init.sigma_theta)
    initial = hmm.free.astype(float)
    return initial / initial.sum()


def run_oracle_validation(cfg: ExperimentConfig, out_dir: str | None = None) -> list[dict]:
    """Compare queue-filter marginals against exact lattice posteriors.

    Runs the queue filter on ``cfg.oracle_params.seeds`` independent trials
    and records, for every step and queue offset, the total-variation
    distance between the binned particle marginal and the exact posterior of
    the discretized model.  Returns the rows and, when ``out_dir`` is given,
    writes them to oracle_tv.csv.
    """
    if cfg.oracle_params is None:
        raise ConfigError("config has no 'oracle' section")
    op = cfg.oracle_params
    grid = load_experiment_grid(cfg)
    plan = build_plan(cfg, grid)
    fcfg = filter_config_for(cfg, "deq_mcl")
    horizon = plan.horizon

    plan_actions = [plan.action(t) for t in range(2, horizon + 1)]
    distinct = list(dict.fromkeys(plan_actions))
    hmm = oracle.discretize(grid, fcfg, distinct, op.cell, op.heading_bins)
    hmm.initial = lattice_initial(cfg, hmm)

    sampler = make_init_sampler(cfg, grid)
    rows: list[dict] = []
    for seed_idx in range(op.seeds):
        rng_filter = derive_rng(cfg.master_seed, seed_idx, _STREAM_FILTER, "deq_mcl")
        _, scans = trial_truth(cfg, seed_idx, grid, plan)
        state = filters.deq_init(fcfg, sampler, plan, grid, rng_filter)
        for t in range(2, horizon + 1):
            state = filters.deq_step(
                state, t, plan.action(t), scans[t], plan, fcfg, grid, rng_filter
            )
            exact = oracle.exact_queue_posterior(
                hmm,
                executed=plan_actions[: t - 1],
                planned=plan_actions[t - 1 :],
                observations=[scans[j] for j in range(2, t + 1)],
                lag=fcfg.lag,
                t=t,
            )
            for offset, dist in exact.items():
                binned = oracle.bin_belief(hmm, state.marginal(offset))
                rows.append(
                    {
                        "seed": seed_idx,
                        "t": t,
                        "offset": offset,
                        "tv": oracle.tv_distance(binned, dist),
                    }
                )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "oracle_tv.csv").open("w") as fh:
            fh.write("seed,t,offset,tv\n")
            for r in rows:
                fh.write(f"{r['seed']},{r['t']},{r['offset']},{r['tv']!r}\n")
    return rows
