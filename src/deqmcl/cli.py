"""Command-line interface: run experiments, validate against the oracle,
render trace snapshots, and audit plan rollouts.

Exit status: 0 on success; 1 when a trial failed or the plan collides;
2 on a bad config, map or trace file or command line, reported in one line."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import filters, harness, oracle, render
from .worldsim import PlanError, rollout


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="config file path or shipped config name")
    parser.add_argument("--out", default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deqmcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment battery")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--methods", default=None, help="comma-separated method subset")

    p_oracle = sub.add_parser("oracle", help="dump oracle-vs-filter TV distances as CSV")
    _add_common(p_oracle)

    p_render = sub.add_parser("render", help="render SVG snapshots from a trace file")
    _add_common(p_render)
    p_render.add_argument("--trace", required=True, help="JSONL trace file to render")

    p_check = sub.add_parser("map-check", help="audit the plan rollout against the map")
    p_check.add_argument("--config", required=True)
    return parser


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    methods = [m.strip() for m in args.methods.split(",")] if args.methods is not None else None
    result = harness.run_experiment(cfg, out_dir=args.out, methods=methods, seed=args.seed)
    out = result["out_dir"]
    print((out / "report.txt").read_text())
    print(f"summary: {out / 'summary.csv'}")
    if result["failures"]:
        print(f"{len(result['failures'])} trial(s) failed; see {out / 'failures.txt'}")
        return 1
    return 0


def cmd_oracle(args) -> int:
    cfg = harness.load_config(args.config)
    out = harness.output_path(cfg, args.out)  # made once the config checks pass
    rows = harness.run_oracle_validation(cfg, out_dir=str(out))
    by_offset: dict[int, list[float]] = {}
    for r in rows:
        by_offset.setdefault(r["offset"], []).append(r["tv"])
    print(f"wrote {len(rows)} rows to {out / 'oracle_tv.csv'}")
    for off in sorted(by_offset):
        vals = by_offset[off]
        print(f"offset {off:+d}: mean TV {np.mean(vals):.4f}  max {np.max(vals):.4f}")
    return 0


def cmd_render(args) -> int:
    cfg = harness.load_config(args.config)
    grid = harness.load_experiment_grid(cfg)
    try:
        records = [json.loads(line) for line in Path(args.trace).read_text().splitlines()]
    except OSError as exc:
        raise harness.ConfigError(f"trace {args.trace}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or a line that is not JSON
        raise harness.ConfigError(f"trace {args.trace}: not a JSON-lines trace: {exc}") from None
    for line, record in enumerate(records, 1):
        if not isinstance(record, dict):
            raise harness.ConfigError(f"trace {args.trace}: line {line} is not a trace record")
        if not record.get("clouds"):
            continue
        fault = render.record_fault(record)
        if fault:
            raise harness.ConfigError(f"trace {args.trace}: line {line}{fault}")
    out = harness.make_output_dir(cfg, args.out, "snapshots")
    written = render.render_records(records, grid, out)
    print(f"wrote {len(written)} snapshot(s) to {out}")
    return 0


def cmd_map_check(args) -> int:
    cfg = harness.load_config(args.config)
    grid = harness.load_experiment_grid(cfg)
    print(f"map: {cfg.map_path.name} ({grid.width}x{grid.height} cells)")
    try:
        plan = harness.build_plan(cfg, grid)
    except PlanError as exc:
        print(f"plan: {exc}")
        return 1
    end = rollout(cfg.start, plan)[-1]
    closing = math.hypot(end.x - cfg.start.x, end.y - cfg.start.y)
    print(f"plan: {plan.horizon} steps, rollout collision samples: 0")  # build_plan checked them
    print(f"rollout end: ({end.x:.1f}, {end.y:.1f}), {closing:.1f} units from start")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "oracle": cmd_oracle,
        "render": cmd_render,
        "map-check": cmd_map_check,
    }
    try:
        return handlers[args.command](args)
    except harness.ConfigError as exc:
        print(f"deqmcl: {exc}", file=sys.stderr)
        return 2
    # a plan that collides (map-check reports its own) or a trial that fails
    except (PlanError, filters.FilterDegeneracyError, oracle.ImpossibleEvidenceError) as exc:
        print(f"deqmcl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
