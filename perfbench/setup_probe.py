"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of the package, then `load_config`,
`load_experiment_grid` and `build_plan`.  Prints the seconds it took.

Usage: python3 perfbench/setup_probe.py <shipped config name>
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from deqmcl import harness

    cfg = harness.load_config(sys.argv[1])
    harness.build_plan(cfg, harness.load_experiment_grid(cfg))
    print(time.perf_counter() - t0)
