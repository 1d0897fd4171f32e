"""Smoke test of the benchmark (perfbench/run.py): one traced call per workload.

It guards what the benchmark reads from the package (config fields, harness
functions and the functions its tracer wraps), which a refactor could
rename without any other test failing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


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
