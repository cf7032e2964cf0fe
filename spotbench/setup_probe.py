"""Set-up probe: import the program and build one workload's cells, then exit.

``run.py`` times this script as a fresh process, so ``setup_s`` covers
interpreter start, imports and building the cluster (plus the fault
injector and the oracle for a scenario workload) -- the cost every figure,
matrix and fuzz cell pays before simulating anything.

Usage: python3 spotbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import Deployment, cell_seeds, workload_by_name  # noqa: E402

workload = workload_by_name(sys.argv[1])
deployments = [Deployment(workload, seed) for seed in cell_seeds(workload, int(sys.argv[2]))]
