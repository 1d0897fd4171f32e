"""Benchmark of the deqmcl experiment battery and oracle validation.

Usage (from the repository root):

    python3 perfbench/run.py --workload {battery,mcl-only,oracle} \
        --seed N --seconds S --trace {0,1}

Each workload runs in this one process as a closed loop: one public call
(`harness.run_experiment` or `harness.run_oracle_validation`) starts when
the previous one ends.  Call k takes its master seed from (seed, k), and
call 0 uses the seed itself.  The first `min_calls` calls always run; after
them a new call starts only while it is expected to end within
``--seconds``.  Every call's outputs are checked.  Those of call 0 define
the quality figure and the output digest, so both are exact functions of
the seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs call 0
untraced, then again with spans recorded around the public functions of
gridmap, worldsim, filters, metrics, harness and oracle (see tracing.py),
checks that both wrote byte-identical outputs and reports the per-layer
metrics; it ignores ``--seconds``.  Metric names and units come from
BENCHMARK.json at the repository root; the last line of standard output is
the JSON result.  Spans are written to .perfbench/ in the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads, so that the workload
# stays on one core and the figures measure the program, not the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5
TV_BOUND = 0.05  # the paper's bound on the oracle TV distance
STEP_FUNCTIONS = ("deq_step", "mcl_step", "mcl_smoother_step", "mcl_map_motion_step")
METRIC_FUNCTIONS = ("mean_state", "belief_entropy", "belief_variance")


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str
    methods: tuple[str, ...] | None  # None: oracle validation
    min_calls: int
    oracle_seeds: int = 0  # oracle seeds per call
    expected_layers: tuple[str, ...] = ()  # span names that must record calls


_COMMON_LAYERS = (
    "gridmap.raycast", "gridmap.occupied_xy", "gridmap.collision",
    "harness.simulate_truth", "worldsim.sense", "worldsim.step_true",
    "filters.motion", "filters.obs",
)
_EXPERIMENT_LAYERS = _COMMON_LAYERS + (
    "harness.run_experiment", "harness.run_trial",
    "metrics.mean_state", "metrics.belief_entropy", "metrics.belief_variance",
)

# One paper.cfg trial with all four methods takes ~23 s on one core, an mcl
# trial ~5 s and an oracle seed ~2 s.  The time of one call varies with its
# seed and with the speed of a shared host, so `battery` always makes two.
WORKLOADS = {
    "battery": Workload(
        "paper.cfg", ("deq_mcl", "mcl_smoother", "mcl_map_motion", "mcl"), 2,
        expected_layers=_EXPERIMENT_LAYERS + tuple(f"filters.{f}" for f in STEP_FUNCTIONS)
        + ("filters.prior", "filters.resample"),
    ),
    "mcl-only": Workload(
        "paper.cfg", ("mcl",), 1, expected_layers=_EXPERIMENT_LAYERS + ("filters.mcl_step",),
    ),
    "oracle": Workload(
        "tiny.cfg", None, 1, oracle_seeds=5,
        expected_layers=_COMMON_LAYERS + (
            "filters.deq_step", "filters.prior", "filters.resample", "oracle.discretize",
            "oracle.exact", "oracle.emission", "oracle.bin",
        ),
    ),
}


@dataclasses.dataclass
class CallResult:
    wall_s: float
    cpu_s: float
    ops: int
    failed: int
    output: bytes  # the deterministic output files, concatenated
    rmse: dict  # battery and mcl-only: method -> rmse_mean
    tv_rows: list  # oracle: rows of oracle_tv.csv
    trace_bytes: int
    problems: list


def call_seed(seed: int, k: int) -> int:
    return seed + k * 1_000_003


def fail(message: str) -> None:
    """Abort loudly without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_package():
    sys.path.insert(0, str(SRC))
    import deqmcl

    if Path(deqmcl.__file__).resolve().parent != SRC / "deqmcl":
        fail(f"imported deqmcl from {deqmcl.__file__}, not from {SRC}")
    from deqmcl import filters, gridmap, harness, metrics, oracle

    return dict(filters=filters, gridmap=gridmap, harness=harness, metrics=metrics, oracle=oracle)


def measure_setup(config: str) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), config]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# one public call, and the checks on what it wrote
# ---------------------------------------------------------------------------

def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def experiment_call(pkg, wl: Workload, cfg, plan, master_seed: int) -> CallResult:
    harness = pkg["harness"]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        c0, t0 = time.process_time(), time.perf_counter()
        result = harness.run_experiment(cfg, out_dir=str(out), methods=wl.methods, seed=master_seed)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0

        problems = []
        failed = {(m, t) for m, t, _ in result["failures"]}
        summary = harness.read_summary_csv(out / "summary.csv")
        if [r["method"] for r in summary] != list(wl.methods):
            problems.append(f"summary.csv methods {[r['method'] for r in summary]}")
        for r in summary:
            if not finite(v for k, v in r.items() if k != "method"):
                failed |= {(r["method"], t) for t in range(cfg.n_trials)}
        metric_lines = (out / "metrics.csv").read_text().splitlines()[1:]
        if len(metric_lines) != len(wl.methods) * cfg.n_trials - len(result["failures"]):
            problems.append(f"metrics.csv has {len(metric_lines)} rows")
        for line in metric_lines:
            if not finite(float(v) for v in line.split(",")[2:]):
                problems.append(f"non-finite metrics row {line}")

        trace_bytes = 0
        truths: dict[int, list] = {}
        for m in wl.methods:
            for trial in range(cfg.n_trials):
                if (m, trial) in failed:
                    continue
                path = out / "traces" / f"{m}_trial{trial:02d}.jsonl"
                trace_bytes += path.stat().st_size
                records = [json.loads(line) for line in path.read_text().splitlines()]
                if [r["t"] for r in records] != list(range(1, plan.horizon + 1)):
                    problems.append(f"{path.name}: records do not cover t = 1..{plan.horizon}")
                # common random numbers: every method sees the same truth
                truth = [r["truth"] for r in records]
                if truths.setdefault(trial, truth) != truth:
                    problems.append(f"{path.name}: truth differs from another method's")
        output = (out / "summary.csv").read_bytes() + (out / "metrics.csv").read_bytes()
    return CallResult(
        wall_s=wall, cpu_s=cpu, ops=len(wl.methods) * cfg.n_trials, failed=len(failed),
        output=output, rmse={r["method"]: r["rmse_mean"] for r in summary}, tv_rows=[],
        trace_bytes=trace_bytes, problems=problems,
    )


def oracle_call(pkg, wl: Workload, cfg, plan, master_seed: int) -> CallResult:
    harness, oracle, filters = pkg["harness"], pkg["oracle"], pkg["filters"]
    cfg = dataclasses.replace(cfg, master_seed=master_seed)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rows = harness.run_oracle_validation(cfg, out_dir=str(out))
        except (filters.FilterDegeneracyError, oracle.ImpossibleEvidenceError) as exc:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            return CallResult(wall, cpu, wl.oracle_seeds, wl.oracle_seeds, repr(exc).encode(),
                              {}, [], 0, [])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        output = (out / "oracle_tv.csv").read_bytes()

    lag, horizon = cfg.filter_base.lag, plan.horizon
    per_seed = sum(min(t - 1, lag) + min(lag, horizon - t) + 1 for t in range(2, horizon + 1))
    problems = []
    if len(rows) != wl.oracle_seeds * per_seed:
        problems.append(f"oracle returned {len(rows)} rows, expected {wl.oracle_seeds * per_seed}")
    if len(output.decode().splitlines()) != len(rows) + 1:
        problems.append("oracle_tv.csv row count differs from the returned rows")
    bad_seeds = {r["seed"] for r in rows if not math.isfinite(r["tv"])}
    if any(not 0.0 <= r["tv"] <= 1.0 for r in rows if math.isfinite(r["tv"])):
        problems.append("a TV distance lies outside [0, 1]")
    return CallResult(
        wall_s=wall, cpu_s=cpu, ops=wl.oracle_seeds, failed=len(bad_seeds), output=output,
        rmse={}, tv_rows=rows, trace_bytes=0, problems=problems,
    )


def quality(wl: Workload, cfg, call: CallResult) -> tuple[str, float, str]:
    """The workload's error figure for one call, lower is better.

    It is an exact function of the seed, but it varies too much from seed to
    seed to carry a bound, so it is reported beside the metrics.
    """
    if wl.methods is None:
        compare_t = cfg.oracle_params.compare_t
        by_offset: dict[int, list[float]] = {}
        for r in call.tv_rows:
            if r["t"] == compare_t and math.isfinite(r["tv"]):
                by_offset.setdefault(r["offset"], []).append(r["tv"])
        tv_max = max((statistics.fmean(v) for v in by_offset.values()), default=math.nan)
        return "tv_max", tv_max, "TV"

    if "deq_mcl" in wl.methods:
        return "rmse_ratio", call.rmse["deq_mcl"] / call.rmse["mcl"], "ratio"
    return "rmse_mean", call.rmse["mcl"], "world_units"


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracer(tracer, pkg) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    harness, filters, metrics, oracle = pkg["harness"], pkg["filters"], pkg["metrics"], pkg["oracle"]
    grid_cls = pkg["gridmap"].OccupancyGrid
    import numpy as np

    def count(key):
        def on_return(args, kwargs, result):
            tracer.counts[key] += int(np.size(result))
        return on_return

    # A truth step is accepted when its pose is the one sensed next; every
    # other draw was rejected and redrawn.
    last_draw = []

    def remember_draw(args, kwargs, result):
        last_draw[:] = [result]

    def count_accepted(args, kwargs, result):
        tracer.counts["worldsim.step_true.accepted"] += bool(last_draw) and args[1] is last_draw[0]

    tracer.wrap(grid_cls, "raycast_batch", "gridmap.raycast", count("gridmap.raycast.rays"))
    tracer.wrap(grid_cls, "occupied_xy", "gridmap.occupied_xy", count("gridmap.occupied_xy.points"))
    tracer.wrap(grid_cls, "segment_collision_counts", "gridmap.collision",
                count("gridmap.collision.segments"))
    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "run_oracle_validation", "harness.run_oracle_validation")
    tracer.wrap(harness, "load_experiment_grid", "harness.load_experiment_grid")
    tracer.wrap(harness, "build_plan", "harness.build_plan")
    tracer.wrap(harness, "run_trial", "harness.run_trial", starts_trial=True)
    tracer.wrap(harness, "simulate_truth", "harness.simulate_truth", starts_trial=True)
    tracer.wrap(harness, "step_true", "worldsim.step_true", remember_draw)
    tracer.wrap(harness, "sense", "worldsim.sense", count_accepted)
    for name in STEP_FUNCTIONS:
        tracer.wrap(filters, name, f"filters.{name}")
    tracer.wrap(filters, "motion_sample_batch", "filters.motion", count("filters.motion.particles"))
    tracer.wrap(filters, "observation_log_likelihood_batch", "filters.obs")
    tracer.wrap(filters, "traversability_log_prior_batch", "filters.prior")
    tracer.wrap(filters, "systematic_resample", "filters.resample")
    for name in METRIC_FUNCTIONS:
        tracer.wrap(metrics, name, f"metrics.{name}")
    tracer.wrap(oracle, "discretize", "oracle.discretize")
    tracer.wrap(oracle, "exact_queue_posterior", "oracle.exact")
    tracer.wrap(oracle, "observation_log_likelihood_batch", "oracle.emission")
    tracer.wrap(oracle, "bin_belief", "oracle.bin")


def layer_metrics(tracer, traced: CallResult, overhead_s: float) -> dict[str, float]:
    n, s, self_s, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    steps = sum(n[f"filters.{f}"] for f in STEP_FUNCTIONS)
    deq_steps = n["filters.deq_step"]
    out = {
        "gridmap.raycast.calls": n["gridmap.raycast"],
        "gridmap.raycast.rays": counts["gridmap.raycast.rays"],
        "gridmap.raycast.self_s": self_s["gridmap.raycast"],
        "gridmap.occupied_xy.calls": n["gridmap.occupied_xy"],
        "gridmap.occupied_xy.points": counts["gridmap.occupied_xy.points"],
        "gridmap.occupied_xy.s": s["gridmap.occupied_xy"],
        "gridmap.collision.calls": n["gridmap.collision"],
        "gridmap.collision.segments": counts["gridmap.collision.segments"],
        "gridmap.collision.s": s["gridmap.collision"],
        "harness.simulate_truth.calls": n["harness.simulate_truth"],
        "harness.simulate_truth.s": s["harness.simulate_truth"],
        "worldsim.sense.calls": n["worldsim.sense"],
        "worldsim.sense.self_s": self_s["worldsim.sense"],
        "worldsim.step_true.calls": n["worldsim.step_true"],
        "worldsim.step_true.retries": n["worldsim.step_true"] - counts["worldsim.step_true.accepted"],
        "filters.motion.calls": n["filters.motion"],
        "filters.motion.particles": counts["filters.motion.particles"],
        "filters.motion.s": s["filters.motion"],
        "filters.obs.calls": n["filters.obs"],
        "filters.obs.self_s": self_s["filters.obs"],
        "filters.prior.calls": n["filters.prior"],
        "filters.prior.calls_per_step": (
            tracer.calls_by_parent[("filters.prior", "filters.deq_step")] / deq_steps
            if deq_steps else 0.0
        ),
        "filters.prior.s": s["filters.prior"],
        "filters.resample.events": n["filters.resample"],
        "filters.resample.per_step": n["filters.resample"] / steps if steps else 0.0,
        "filters.resample.s": s["filters.resample"],
        "metrics.calls": sum(n[f"metrics.{f}"] for f in METRIC_FUNCTIONS),
        "metrics.s": sum(s[f"metrics.{f}"] for f in METRIC_FUNCTIONS),
        "harness.run_trial.self_s": self_s["harness.run_trial"],
        "harness.write.self_s": self_s["harness.run_experiment"],
        "harness.trace_bytes": traced.trace_bytes,
        "oracle.exact.calls": n["oracle.exact"],
        "oracle.exact.self_s": self_s["oracle.exact"],
        "oracle.emission.calls": n["oracle.emission"],
        "oracle.bin.s": s["oracle.bin"],
        "oracle.discretize.s": s["oracle.discretize"],
        "tracing.overhead_s": overhead_s,
    }
    for f in STEP_FUNCTIONS:
        out[f"filters.{f}.calls"] = n[f"filters.{f}"]
        out[f"filters.{f}.self_s"] = self_s[f"filters.{f}"]
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(section: str, values: dict[str, float], note: str, result: dict, detail: dict) -> None:
    units = declared_metrics(section)
    if set(values) != set(units):
        fail(f"computed metrics differ from BENCHMARK.json {section}: "
             f"{sorted(set(values) ^ set(units))}")
    for name in units:
        print(f"{name:34s} {values[name]:>16.6g} {units[name]}")
    print(note)
    print(json.dumps({"detail": detail}))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]

    if not (SRC / "deqmcl" / "__init__.py").is_file():
        fail(f"no deqmcl sources under {SRC}; run from a repository checkout")
    WORK.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(wl.config)
    pkg = load_package()
    harness = pkg["harness"]
    cfg = harness.load_config(wl.config)
    if wl.methods is None:
        cfg = dataclasses.replace(
            cfg, oracle_params=dataclasses.replace(cfg.oracle_params, seeds=wl.oracle_seeds))
        run_call = oracle_call
    else:
        cfg = dataclasses.replace(cfg, n_trials=1)
        run_call = experiment_call
    plan = harness.build_plan(cfg, harness.load_experiment_grid(cfg))

    def call(k: int) -> CallResult:
        return run_call(pkg, wl, cfg, plan, call_seed(args.seed, k))

    start = time.perf_counter()
    calls = [call(0)]
    digest = hashlib.sha256(calls[0].output).hexdigest()
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    quality_name, quality_value, quality_unit = quality(wl, cfg, calls[0])
    detail = {
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "digest": digest, "recorded_digest": recorded.get(str(args.seed)),
        quality_name: quality_value,
    }

    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            install_tracer(tracer, pkg)
            traced = call(0)
        silent = [name for name in wl.expected_layers if tracer.calls[name] == 0]
        if silent:
            fail(f"traced layers recorded no calls on {args.workload}: {silent}; "
                 "a wrapper is patched where the name is not looked up")
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
        traced_digest = hashlib.sha256(traced.output).hexdigest()
        detail["traced_digest"] = traced_digest
        values = layer_metrics(tracer, traced, traced.wall_s - calls[0].wall_s)
        calls.append(traced)
        problems = [p for c in calls for p in c.problems]
        if traced_digest != digest:
            problems.append("traced outputs differ from untraced outputs")
        section = "per_layer"
    else:
        while (len(calls) < wl.min_calls
               or time.perf_counter() - start + calls[-1].wall_s <= args.seconds):
            calls.append(call(len(calls)))
        problems = [p for c in calls for p in c.problems]
        values = {
            "setup_s": statistics.median(setup),
            # means, not medians: one call's time varies by up to 20% with its
            # seed and the host's speed, and a mean averages that out best
            "run_s": statistics.fmean(c.wall_s for c in calls),
            "cpu_s": statistics.fmean(c.cpu_s for c in calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["calls"] = len(calls)
        detail["setup_samples_s"] = setup
        detail["wall_s_per_call"] = [c.wall_s for c in calls]
        section = "end_to_end"

    if not quality_value <= (TV_BOUND if wl.methods is None else math.inf):
        problems.append(f"{quality_name} = {quality_value}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": sum(c.ops for c in calls),
        "failed": sum(c.failed for c in calls),
    }
    note = f"{quality_name:34s} {quality_value:>16.6g} {quality_unit} (not bounded)"
    report(section, values, note, result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
