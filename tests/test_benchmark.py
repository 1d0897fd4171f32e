"""Smoke test of the benchmark (perfbench/run.py): one traced call per
workload, and one untraced call, the path whose end-to-end metrics the
benchmark reports.

It guards what the benchmark reads from the package (config fields, harness
functions and the functions its tracer wraps, and the set-up probe's
imports), which a refactor could rename without any other test failing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["battery", "mcl-only", "oracle"])
def test_traced_call_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    detail = json.loads(detail_line)["detail"]
    assert json.loads(result_line)["correct"], detail["problems"]
    if workload != "oracle":  # the recorded oracle digests predate its current output
        assert detail["digest"] == detail["recorded_digest"]


def test_untraced_call_reports_the_end_to_end_metrics():
    # the set-up probe, one closed-loop call and the end-to-end report
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "mcl-only", "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    detail = json.loads(detail_line)["detail"]
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["digest"] == detail["recorded_digest"]
