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
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TextIO

import numpy as np
import yaml

from . import filters, metrics, oracle
from .filters import BeliefSnapshot, FilterConfig, FilterDegeneracyError, QueueState
from .gridmap import OccupancyGrid, Point2, load_grid
from .worldsim import (
    MAX_PLAN_ACTIONS,
    Action,
    ActionPlan,
    BeamConfig,
    DepthScan,
    NoiseParams,
    PlanError,
    Pose,
    build_loop_plan,
    check_rollout,
    sense,
    step_true,
)


def _baseline(step: str, lagged: bool):
    return (
        lambda fcfg, sampler, plan, grid, rng: filters.init_belief(fcfg, sampler, grid, rng),
        lambda st, t, action, scan, plan, fcfg, grid, rng: getattr(filters, step)(
            st, action, scan, fcfg, grid, rng
        ),
        lagged,
    )


# method -> (initial belief, step from t-1 to t, reports the marginal at -lag).
# Every init takes deq_init's arguments and every step deq_step's.  Each
# looks its filter up in `filters` when called, so that a wrapper installed
# on the module after import is the one that runs.
METHOD_TABLE = {
    "deq_mcl": (lambda *a: filters.deq_init(*a), lambda *a: filters.deq_step(*a), True),
    "mcl_smoother": _baseline("mcl_smoother_step", True),
    "mcl_map_motion": _baseline("mcl_map_motion_step", False),
    "mcl": _baseline("mcl_step", False),
}
METHODS = tuple(METHOD_TABLE)
OUTPUT_DIR_ENV = "DEQMCL_OUT"

MAX_TRUTH_RETRIES = 100  # rejected truth draws before the robot holds its pose

_TRACE_ENCODER = json.JSONEncoder(check_circular=False)  # records hold no cycles; bytes as json.dumps

_STREAM_TRUTH = 0
_STREAM_SENSOR = 1
_STREAM_FILTER = 2

SUMMARY_HEADER = "method,rmse_mean,rmse_sd,entropy_mean,var_x,var_y,var_cos,var_sin"
SUMMARY_KEYS = SUMMARY_HEADER.split(",")[1:]

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
    v_step: float
    omega_step: float
    waypoints: tuple[Point2, ...] | None  # waypoint plans only
    v: float
    omega: float
    count: int | None  # constant plans only


@dataclass(frozen=True)
class InitSpec:
    kind: str  # "gaussian" | "uniform_box"
    sigma_xy: float
    sigma_theta: float
    box: tuple[float, float, float, float, float, float] | None  # uniform_box only


@dataclass(frozen=True)
class MetricParams:
    entropy_cell: float
    entropy_heading_bins: int


@dataclass(frozen=True)
class OracleParams:
    cell: float
    heading_bins: int
    seeds: int
    compare_t: int


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
    init: InitSpec
    metric_params: MetricParams
    cloud_stride: int
    outputs: str
    oracle_params: OracleParams | None


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


_REQUIRED = object()  # default of a key that must be given


def _required(value, key: str, where: str):
    if value is None:
        raise ConfigError(f"missing key {key!r} in {where}")
    return value


def _section(section, where: str, keys) -> dict:
    """``section`` as a mapping ({} for None); a key outside ``keys`` raises a `ConfigError` naming it."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key '{where}.{key}'; known: {', '.join(keys)}")
    return section


def _integer(value, where: str, minimum: int) -> int:
    """``value`` if it is an integer >= ``minimum``; floats and bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _plan_count(value, where: str, _) -> int:
    """``value`` as the step count of a constant plan, which with its start
    step holds at most `MAX_PLAN_ACTIONS` actions, as a waypoint plan does."""
    count = _integer(value, where, 1)
    if count >= MAX_PLAN_ACTIONS:
        raise ConfigError(
            f"{where} must be at most {MAX_PLAN_ACTIONS - 1}: a plan holds at most "
            f"{MAX_PLAN_ACTIONS} actions, its start step included; got {count}"
        )
    return count


def _float(value, where: str, bound: str | None = None) -> float:
    """``value`` as a finite float, positive, non-negative or in [0, 1] as ``bound`` says."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    bounds = {"positive": x > 0, "non-negative": x >= 0, "in [0, 1]": 0 <= x <= 1}
    if not (math.isfinite(x) and bounds.get(bound, True)):
        raise ConfigError(f"{where} must be {bound + ' and ' if bound else ''}finite, got {x!r}")
    return x


def _choice(value, where: str, choices: tuple[str, ...] | None) -> str:
    """``value`` as a string, one of ``choices`` unless that is None."""
    if choices and str(value) not in choices:
        raise ConfigError(f"{where} must be one of {', '.join(choices)}, got {value!r}")
    return str(value)


def _numbers(value, where: str, count: int | None) -> tuple[float, ...]:
    """``value`` as a list of ``count`` finite floats, or of one or more when ``count`` is None."""
    if not (isinstance(value, (list, tuple)) and (len(value) == count if count else len(value) > 0)):
        raise ConfigError(f"{where} must be a list of {count or 'one or more'} numbers, got {value!r}")
    return tuple(_float(v, where) for v in value)


def _waypoints(value, where: str, _) -> tuple[Point2, ...]:
    """``value`` as a list of one or more [x, y] pairs."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a list of one or more [x, y] pairs, got {value!r}")
    return tuple(Point2(*_numbers(w, where, 2)) for w in value)


def _box(value, where: str, _) -> tuple[float, ...]:
    """``value`` as [xmin, xmax, ymin, ymax, thmin_deg, thmax_deg], each min <= max,
    with the heading range in radians."""
    b = _numbers(value, where, 6)
    if not (b[0] <= b[1] and b[2] <= b[3] and b[4] <= b[5]):
        raise ConfigError(
            f"{where} must be [xmin, xmax, ymin, ymax, thmin_deg, thmax_deg] with each min <= max, got {list(b)!r}"
        )
    return b[:4] + (math.radians(b[4]), math.radians(b[5]))


def check_methods(value) -> tuple[str, ...]:
    """``value`` as a tuple of distinct `METHODS` names; anything else is a
    `ConfigError` that names the ``methods`` key."""
    names = tuple(value) if isinstance(value, (list, tuple)) else ()
    for m in names:
        if m not in METHODS:
            raise ConfigError(f"methods must be drawn from {', '.join(METHODS)}; unknown method {m!r}")
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"methods must be a non-empty list of distinct method names, got {value!r}")
    return names


# Every config key: section -> key -> (reader, default, bound), section "" being
# the top level.  `_read_keys` calls ``reader(value, "<section>: <key>", bound)``
# on each given key and on each default but None, which stands for an absent
# key: an absent noise, beams or filter key keeps the default of NoiseParams,
# BeamConfig or FilterConfig, an absent filter_noise key the world noise.  A
# key ending in ``_deg`` is given in degrees and stored in radians, a list of
# them element by element; every key is stored without that suffix.
_CONFIG_KEYS = {
    "": {
        "map": (_choice, _REQUIRED, None), "n_trials": (_integer, 1, 1), "master_seed": (_integer, 0, 0),
        "methods": (lambda value, where, _: check_methods(value), METHODS, None),
        "outputs": (_choice, "out", None),
    },
    "start": {
        "x": (_float, _REQUIRED, None), "y": (_float, _REQUIRED, None), "theta_deg": (_float, 0.0, None),
    },
    "plan": {
        "kind": (_choice, "waypoints", ("waypoints", "constant")), "waypoints": (_waypoints, None, None),
        "v_step": (_float, 5.0, "positive"), "omega_step_deg": (_float, 22.5, "positive"),
        "v": (_float, 1.0, None), "omega_deg": (_float, 0.0, None), "count": (_plan_count, None, None),
    },
    "noise": {
        "sigma_v": (_float, None, "non-negative"), "sigma_omega_deg": (_float, None, "non-negative"),
        "sigma_range": (_float, None, "non-negative"),
    },
    "filter_noise": {
        "sigma_v": (_float, None, "non-negative"), "sigma_omega_deg": (_float, None, "non-negative"),
    },
    # every FilterConfig field but the motion noise
    "filter": {
        "n_particles": (_integer, None, 1), "lag": (_integer, None, 0),
        "beta": (_float, None, "non-negative"), "sensor_sigma": (_float, None, "positive"),
        "resample_threshold": (_float, None, "in [0, 1]"), "collision_step": (_float, None, "positive"),
    },
    "beams": {
        "headings_deg": (_numbers, None, None),
        "max_range": (_float, None, "positive"), "ray_step": (_float, None, "positive"),
    },
    "init": {
        "kind": (_choice, "gaussian", ("gaussian", "uniform_box")),
        "sigma_xy": (_float, 10.0, "non-negative"), "sigma_theta_deg": (_float, 11.5, "non-negative"),
        "box": (_box, None, None),
    },
    "metrics": {
        "entropy_cell": (_float, 5.0, "positive"), "entropy_heading_bins": (_integer, 36, 1),
    },
    "trace": {"cloud_stride": (_integer, 0, 0)},
    # oracle rows start at t = 2, the first filter step
    "oracle": {
        "cell": (_float, 1.0, "positive"), "heading_bins": (_integer, 1, 1), "seeds": (_integer, 20, 1),
        "compare_t": (_integer, 9, 2),
    },
}


def _read_keys(raw: dict) -> dict[str, dict]:
    """Every key of `_CONFIG_KEYS`, read, by section; a key absent from
    the table raises a `ConfigError` naming it."""
    known = [*_CONFIG_KEYS[""], *list(_CONFIG_KEYS)[1:]]
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown top-level key {key!r}; known: {', '.join(known)}")
    values = {}
    for section, rows in _CONFIG_KEYS.items():
        given = _section(raw.get(section), section, rows) if section else raw
        where = f"{section}: " if section else ""
        out = values[section] = {}
        for key, (reader, default, bound) in rows.items():
            value = given.get(key, default)
            if value is _REQUIRED:
                raise ConfigError(f"missing key {key!r} in {section or 'config'}")
            name = key.removesuffix("_deg")
            if key in given or value is not None:
                value = reader(value, where + key, bound)
                if name != key:
                    value = math.radians(value) if isinstance(value, float) else tuple(map(math.radians, value))
            out[name] = value
    return values


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a YAML experiment config.

    All angles in config files are degrees (keys carry a ``_deg`` suffix);
    they are converted to radians here.  The map path is resolved relative to
    the config file's directory.
    """
    cfg_path = resolve_config_path(path)
    try:
        raw = yaml.safe_load(cfg_path.read_text())
    except OSError as exc:
        raise ConfigError(f"{cfg_path}: cannot read: {exc.strerror}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{cfg_path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{cfg_path}: top level must be a mapping")
    v = _read_keys(raw)
    top, plan, init = v[""], v["plan"], v["init"]

    map_path = (cfg_path.parent / top["map"]).resolve()
    if not map_path.exists():
        raise ConfigError(f"map file {map_path} does not exist")
    if plan["kind"] == "waypoints":
        _required(plan["waypoints"], "waypoints", "plan")
    else:
        _required(plan["count"], "count", "plan")
    if init["kind"] == "uniform_box":
        _required(init["box"], "box", "init")

    def given(section: str) -> dict:  # the keys of ``section`` that the config sets
        return {k: x for k, x in v[section].items() if x is not None}

    noise = NoiseParams(**given("noise"))
    return ExperimentConfig(
        map_path=map_path,
        start=Pose(**v["start"]),
        plan=PlanSpec(**plan),
        n_trials=top["n_trials"],
        master_seed=top["master_seed"],
        methods=top["methods"],
        noise=noise,
        beams=BeamConfig(**given("beams")),
        filter_base=FilterConfig(
            motion_noise=dataclasses.replace(noise, **given("filter_noise")), **given("filter")
        ),
        init=InitSpec(**init),
        metric_params=MetricParams(**v["metrics"]),
        cloud_stride=v["trace"]["cloud_stride"],
        outputs=top["outputs"],
        oracle_params=OracleParams(**v["oracle"]) if "oracle" in raw else None,
    )


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
    """The config's map; a `ConfigError` naming ``map`` when it cannot be read or parsed."""
    try:
        return load_grid(cfg.map_path.read_text())
    except OSError as exc:
        raise ConfigError(f"map: {cfg.map_path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # MapFormatError, or text that is not UTF-8
        raise ConfigError(f"map: {cfg.map_path}: {exc}") from None


def build_plan(cfg: ExperimentConfig, grid: OccupancyGrid) -> ActionPlan:
    """The configured plan; a `PlanError` if its noise-free rollout collides."""
    spec, step = cfg.plan, cfg.filter_base.collision_step
    if spec.kind == "waypoints":
        return build_loop_plan(grid, cfg.start, list(spec.waypoints), spec.v_step, spec.omega_step, step)
    plan = ActionPlan((Action(0.0, 0.0),) + (Action(spec.v, spec.omega),) * spec.count)
    check_rollout(grid, cfg.start, plan, step)
    return plan


def check_init(cfg: ExperimentConfig, grid: OccupancyGrid) -> None:
    """A `ConfigError` naming ``init`` when a uniform box lies wholly in
    occupied space: on occupied cells or off the grid, so that every particle
    drawn from it would too.  The sampler draws a coordinate from ``[lo, hi)``,
    or ``lo`` when ``hi == lo``, so it falls in a cell from
    ``floor(lo / resolution)`` to ``ceil(hi / resolution) - 1``.  The
    Gaussian belief is centred on the start pose, which `build_plan` checks."""
    if cfg.init.kind != "uniform_box":
        return
    xmin, xmax, ymin, ymax = cfg.init.box[:4]

    def cells(lo: float, hi: float, n: int) -> slice:  # the on-grid cells of the range
        lo, hi = (min(max(v / grid.resolution, -1.0), n) for v in (lo, hi))
        first = math.floor(lo)
        return slice(max(first, 0), min(max(first, math.ceil(hi) - 1), n - 1) + 1)

    if grid.cells[cells(ymin, ymax, grid.height), cells(xmin, xmax, grid.width)].all():
        raise ConfigError(
            f"init: box x [{xmin}, {xmax}], y [{ymin}, {ymax}] lies wholly in occupied space, "
            "so no initial particle can be free"
        )


def make_init_sampler(cfg: ExperimentConfig):
    """Initial-belief sampler of ``(3, n)`` coordinate rows; draws three blocks (x, y, theta) in that order."""
    spec = cfg.init
    start = cfg.start

    if spec.kind == "gaussian":

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            x = start.x + rng.standard_normal(n) * spec.sigma_xy
            y = start.y + rng.standard_normal(n) * spec.sigma_xy
            theta = start.theta + rng.standard_normal(n) * spec.sigma_theta
            return np.stack([x, y, theta])

    else:  # uniform_box
        xmin, xmax, ymin, ymax, thmin, thmax = spec.box

        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            x = rng.uniform(xmin, xmax, n)
            y = rng.uniform(ymin, ymax, n)
            theta = rng.uniform(thmin, thmax, n) if thmax > thmin else np.full(n, thmin)
            return np.stack([x, y, theta])

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
) -> tuple[list[Pose], list[DepthScan | None]]:
    """Ground truth for one trial: poses[t] and scans[t] indexed 1..T.

    Noise draws that would push the robot through a wall are rejected and
    redrawn (the physical robot cannot pass through obstacles); after
    ``MAX_TRUTH_RETRIES`` rejections the robot holds its pose for that step.
    """
    horizon = plan.horizon
    poses: list[Pose | None] = [None] * (horizon + 1)
    scans: list[DepthScan | None] = [None] * (horizon + 1)
    if grid.occupied_xy(start.x, start.y):
        raise PlanError(f"start pose ({start.x}, {start.y}) is in occupied space")
    poses[1] = start
    for t in range(2, horizon + 1):
        base = poses[t - 1]
        poses[t] = base
        for _ in range(MAX_TRUTH_RETRIES):
            cand = step_true(base, plan.action(t), noise, rng_truth)
            if grid.occupied_xy(cand.x, cand.y):
                continue
            ends = np.array([[base.x], [base.y], [cand.x], [cand.y]])
            if not grid.segment_collision_counts(*ends, collision_step)[0]:
                poses[t] = cand
                break
        scans[t] = sense(grid, poses[t], beams, noise, rng_sensor)
    return poses, scans  # type: ignore[return-value]


def trial_truth(
    cfg: ExperimentConfig, trial: int, grid: OccupancyGrid, plan: ActionPlan
) -> tuple[list[Pose], list[DepthScan | None]]:
    """The trial's ground truth, shared by every method; it uses the collision
    step `build_plan` checks the plan with."""
    return simulate_truth(
        grid, plan, cfg.start, cfg.noise, cfg.beams,
        derive_rng(cfg.master_seed, trial, _STREAM_TRUTH),
        derive_rng(cfg.master_seed, trial, _STREAM_SENSOR),
        collision_step=cfg.filter_base.collision_step,
    )


def _world(cfg: ExperimentConfig, grid: OccupancyGrid | None = None, plan: ActionPlan | None = None):
    """The config's grid and plan, each loaded or built unless given, with
    the initial belief checked against the grid (`check_init`)."""
    if grid is None:
        grid = load_experiment_grid(cfg)
    if plan is None:
        plan = build_plan(cfg, grid)
    check_init(cfg, grid)
    return grid, plan


def _filter_states(cfg: ExperimentConfig, method: str, trial: int, grid: OccupancyGrid,
                   plan: ActionPlan, scans: list[DepthScan | None]):
    """Yield (t, state) for t = 1..T of ``method`` on ``trial``, as `run_trial` and `run_oracle_validation`
    run it: the initial belief, then one filter step per scan, on the (method, trial) filter stream."""
    init, step, _ = METHOD_TABLE[method]
    fcfg = cfg.filter_base
    rng = derive_rng(cfg.master_seed, trial, _STREAM_FILTER, method)
    state = init(fcfg, make_init_sampler(cfg), plan, grid, rng)
    yield 1, state
    for t in range(2, plan.horizon + 1):
        state = step(state, t, plan.action(t), scans[t], plan, fcfg, grid, rng)
        yield t, state


def run_trial(
    cfg: ExperimentConfig,
    method: str,
    trial: int,
    grid: OccupancyGrid | None = None,
    plan: ActionPlan | None = None,
    truth_scans: tuple[list[Pose], list[DepthScan | None]] | None = None,
    trace: TextIO | None = None,
) -> metrics.TrialMetrics:
    """Run one (method, trial) pair and return its per-trial metrics.

    ``truth_scans`` is the trial's `trial_truth`; it is simulated here when
    not given.  Each time step t makes one record: the method's final
    estimate of the state at t, the matching error e_t, and (every
    ``cloud_stride`` steps) the particle clouds at offsets -lag/0/+lag of the
    queue the estimate came from.  It is written to the text stream ``trace``
    as one JSON line as soon as it is made (``None`` writes nothing); only
    its ``e_t``, ``entropy`` and ``var`` are kept, for the metrics.
    ``method`` and ``init`` are checked as `run` checks them, before anything runs.
    """
    check_methods((method,))
    grid, plan = _world(cfg, grid, plan)
    horizon = plan.horizon
    if truth_scans is None:
        truth_scans = trial_truth(cfg, trial, grid, plan)
    truth, scans = truth_scans

    _, _, lagged = METHOD_TABLE[method]
    lag = cfg.filter_base.lag if lagged else 0
    mp = cfg.metric_params
    kept: list[tuple] = []  # (e_t, entropy, var) of every record

    def emit(j: int, state: QueueState, tau: int) -> None:
        # the window's slots are read in place; every offset shares one weight vector
        weights = state.weights()
        snap = BeliefSnapshot(state.slot(j - tau), weights)
        mean = metrics.mean_state(snap)
        rec = {
            "method": method,
            "trial": trial,
            "t": j,
            "truth": [truth[j].x, truth[j].y, truth[j].theta],
            "current_mean": [float(v) for v in mean],
            "e_t": metrics.error_from_mean(mean, truth[j]),
            "ess": filters.effective_sample_size(state.log_weights),
            "entropy": metrics.belief_entropy(snap, mp.entropy_cell, mp.entropy_heading_bins),
            "var": [float(v) for v in metrics.belief_variance(snap)],
        }
        kept.append((rec["e_t"], rec["entropy"], rec["var"]))
        if trace is None:
            return
        if cfg.cloud_stride and tau % cfg.cloud_stride == 0:
            rec["clouds"] = {
                str(off): np.column_stack([*state.slot(off)[:2], weights]).tolist()
                for off in sorted({-lag, 0, lag}) if -state.n_past <= off <= state.n_future
            }
            rec["cloud_t"] = tau
        trace.write(_TRACE_ENCODER.encode(rec) + "\n")

    for tau, state in _filter_states(cfg, method, trial, grid, plan, scans):
        if tau - lag >= 1:
            emit(tau - lag, state, tau)
    for j in range(max(1, horizon - lag + 1), horizon + 1):
        emit(j, state, horizon)

    errors, entropies, variances = zip(*kept)
    return metrics.TrialMetrics(metrics.trial_rmse(errors), float(np.mean(entropies)), np.mean(variances, axis=0))


def output_path(cfg: ExperimentConfig, out_dir: str | None = None, *parts: str) -> Path:
    """The output directory, ``out_dir``, else $DEQMCL_OUT, else ``outputs``, joined with ``parts``."""
    return Path(out_dir if out_dir is not None else os.environ.get(OUTPUT_DIR_ENV) or cfg.outputs, *parts)


def make_output_dir(cfg: ExperimentConfig, out_dir: str | None = None, *parts: str) -> Path:
    """`output_path`, made; a `ConfigError` naming it when it cannot be made."""
    path = output_path(cfg, out_dir, *parts)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: cannot create: {exc.strerror}") from None
    return path


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    methods: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> dict:
    """Run the full (method x trial) battery and write summary, report and traces.

    ``methods`` (default: the config's) and ``seed`` (default: the config's
    master seed) override the config and are checked as its keys are, before
    anything runs.  A trace is written to ``<name>.part`` as its trial runs
    and renamed when the trial ends, so a trace on disk is a whole trial.
    Filter-degenerate trials are recorded in failures.txt and skipped in the
    aggregates; the run continues, and a method whose trials all failed gets
    a row of NaN.  In a reused output directory, an old failures.txt, the old
    trace of a failed (method, trial), and every trace or ``.part`` named for
    a (method, trial) this run does not write (`_remove_stale_traces`) are
    removed.
    """
    if seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=_integer(seed, "seed", 0))
    methods = check_methods(methods) if methods is not None else cfg.methods
    grid, plan = _world(cfg)
    out = make_output_dir(cfg, out_dir)
    traces_dir = make_output_dir(cfg, out_dir, "traces")
    _remove_stale_traces(traces_dir, {f"{m}_trial{t:02d}.jsonl" for m in methods for t in range(cfg.n_trials)})
    truths = [trial_truth(cfg, trial, grid, plan) for trial in range(cfg.n_trials)]

    summary_rows: list[dict] = []
    metric_rows: list[str] = []
    failures: list[tuple[str, int, str]] = []
    for method in methods:
        per_trial: list[metrics.TrialMetrics] = []
        for trial in range(cfg.n_trials):
            trace_path = traces_dir / f"{method}_trial{trial:02d}.jsonl"
            part = trace_path.with_name(trace_path.name + ".part")
            try:
                with part.open("w") as fh:
                    tm = run_trial(cfg, method, trial, grid=grid, plan=plan, truth_scans=truths[trial], trace=fh)
                part.replace(trace_path)
            except FilterDegeneracyError as exc:
                failures.append((method, trial, str(exc)))
                trace_path.unlink(missing_ok=True)
                continue
            finally:
                part.unlink(missing_ok=True)
            per_trial.append(tm)
            metric_rows.append(
                f"{method},{trial},{tm.rmse!r},{tm.entropy!r},"
                + ",".join(repr(float(v)) for v in tm.variance)
            )
        if per_trial:
            rmses = np.array([tm.rmse for tm in per_trial])
            values = [
                rmses.mean(),
                rmses.std(ddof=1) if rmses.size > 1 else 0.0,
                np.mean([tm.entropy for tm in per_trial]),
                *np.mean(np.stack([tm.variance for tm in per_trial]), axis=0),
            ]
        else:
            values = [math.nan] * len(SUMMARY_KEYS)
        summary_rows.append({"method": method, **{k: float(x) for k, x in zip(SUMMARY_KEYS, values)}})

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
    else:
        (out / "failures.txt").unlink(missing_ok=True)
    return {"summary": summary_rows, "out_dir": out, "failures": failures}


_TRACE_NAME = re.compile(rf"(?:{'|'.join(METHODS)})_trial\d{{2,}}\.jsonl(?:\.part)?")


def _remove_stale_traces(traces_dir: Path, written: set[str]) -> None:
    """Remove each file of ``traces_dir`` named as a trace or its ``.part``
    (``<method>_trial<NN>.jsonl``) but not in ``written``; no other file."""
    for path in traces_dir.iterdir():
        if path.name not in written and _TRACE_NAME.fullmatch(path.name) and path.is_file():
            path.unlink()


def write_summary_csv(path: Path, rows: list[dict]) -> None:
    # repr keeps full float precision so the CSV equals the in-memory
    # aggregates exactly and identical runs are byte-identical.
    lines = [SUMMARY_HEADER] + [
        ",".join([r["method"]] + [repr(float(r[k])) for k in SUMMARY_KEYS]) for r in rows
    ]
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

def run_oracle_validation(cfg: ExperimentConfig, out_dir: str | None = None) -> list[dict]:
    """Compare queue-filter marginals against exact lattice posteriors.

    Runs the queue filter on ``cfg.oracle_params.seeds`` independent trials,
    each after its one exact sweep (`oracle.exact_queue_posterior`), and
    records, for every step and queue offset, the total-variation distance
    between the binned particle marginal and the exact posterior of the
    discretized model.  Returns the rows and, when ``out_dir`` is given,
    makes it once the config checks pass and the lattice is built, and
    writes them to oracle_tv.csv.  A trial that fails (no usable particle, or
    evidence the lattice model cannot explain) stops the validation: its seed
    and message go to oracle_failures.txt, no oracle_tv.csv is left, and the
    error is raised.  A validation that succeeds removes an old
    oracle_failures.txt; `run_experiment`'s failures.txt is left alone.
    """
    if cfg.oracle_params is None:
        raise ConfigError("config has no 'oracle' section")
    op = cfg.oracle_params
    grid, plan = _world(cfg)
    if op.compare_t > plan.horizon:
        raise ConfigError(
            f"oracle.compare_t = {op.compare_t} lies past the plan horizon {plan.horizon}"
        )
    fcfg = cfg.filter_base
    plan_actions = list(plan.actions[1:])
    try:
        hmm = oracle.discretize(grid, fcfg, list(dict.fromkeys(plan_actions)), op.cell, op.heading_bins)
    except oracle.LatticeSizeError as exc:
        raise ConfigError(f"oracle.cell and oracle.heading_bins: {exc}") from None
    if cfg.init.kind == "uniform_box":  # the configured initial belief, projected onto the lattice
        hmm.initial = oracle.uniform_box_initial(hmm, cfg.init.box)
    else:
        hmm.initial = oracle.gaussian_initial(hmm, cfg.start, cfg.init.sigma_xy, cfg.init.sigma_theta)
    out = make_output_dir(cfg, out_dir) if out_dir is not None else None

    rows: list[dict] = []
    try:
        for seed_idx in range(op.seeds):
            _, scans = trial_truth(cfg, seed_idx, grid, plan)
            emissions = [oracle.emission_weights(hmm, scan) for scan in scans[2:]]
            exact = oracle.exact_queue_posterior(hmm, plan_actions, emissions, fcfg.lag)
            for t, state in _filter_states(cfg, "deq_mcl", seed_idx, grid, plan, scans):
                if t == 1:  # rows start at the first filter step
                    continue
                if list(exact[t]) != list(range(-state.n_past, state.n_future + 1)):
                    raise RuntimeError(
                        f"queue window [-{state.n_past}, +{state.n_future}] at t = {t} "
                        f"is not the exact posterior's offsets {list(exact[t])}"
                    )
                # row j of the binned window is offset j - n_past; the comprehension
                # frees the window's histograms before the next filter step
                rows += [
                    {"seed": seed_idx, "t": t, "offset": offset, "tv": oracle.tv_distance(binned, dist)}
                    for binned, (offset, dist) in zip(oracle.bin_belief(hmm, state.poses, state.weights()), exact[t].items())
                ]
    except (FilterDegeneracyError, oracle.ImpossibleEvidenceError) as exc:
        if out is not None:  # the failed trial recorded as `run_experiment` records one
            (out / "oracle_tv.csv").unlink(missing_ok=True)
            (out / "oracle_failures.txt").write_text(f"seed {seed_idx}: {exc}\n")
        raise
    if out is not None:
        (out / "oracle_failures.txt").unlink(missing_ok=True)
        with (out / "oracle_tv.csv").open("w") as fh:
            fh.write("seed,t,offset,tv\n")
            for r in rows:
                fh.write(f"{r['seed']},{r['t']},{r['offset']},{r['tv']!r}\n")
    return rows
