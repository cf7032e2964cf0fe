"""Repository benchmark: calibrated simulator wall time and simulated performance.

Usage (from the repository root)::

    python3 spotbench/run.py --workload spotless-ramp --seed 1 --seconds 15 --trace 0

One run of a workload:

1. times ``setup_s``: fresh processes of ``setup_probe.py`` alternating
   with reference-kernel slices;
2. runs the first cell once unchunked (warm-up, and the reference outcome
   for the chunked runs);
3. repeats the chunked, untraced run of all cells until ``--seconds`` have
   passed and reports the median calibrated wall time;
4. with ``--trace 1``, keeps to the first two cells: skips step 1, runs
   step 3 once, then runs the cells twice more with every layer's entry
   points wrapped in spans, and reports per-layer metrics instead.

Every run checks the program's outputs (non-divergence, oracle violations,
offered = confirmed + unconfirmed), that every chunked and traced run ends
in the same outcome fingerprint as the plain run, and that exact per-layer
counts repeat.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh set-up processes timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: Traced repeats per ``--trace 1`` run; exact counts must agree across them.
TRACED_REPEATS = 2
#: Cells a ``--trace 1`` run simulates (the first ones), to bound its length.
TRACED_CELLS = 2


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload_name: str, seed: int, calibrator) -> float:
    """Calibrated median seconds of a fresh process that imports and builds.

    Kernel slices alternate with the spawns; the median spawn is divided by
    the median slice, so one slow spawn or slice moves neither.
    """
    from kernel import timed_slice

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    command = [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)]
    # One untimed spawn first, so byte-code caches exist for the timed ones.
    subprocess.run(command, env=env, cwd=ROOT, check=True)
    spawns, slices = [], [timed_slice()]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        spawns.append(time.perf_counter() - started)
        slices.append(timed_slice())
    return calibrator.calibrate(statistics.median(spawns), statistics.median(slices), 1)


def run_cells(workload, seed: int, chunked: bool, instrumentation=None, cells=None):
    """Build, run and check the first ``cells`` cells (all by default), one at a time.

    Each cell's cluster is dropped as soon as it is checked, so peak memory
    is one cell's.  Returns (outcomes, program_s, kernel_s, slices).
    """
    from workloads import CellOutcome, Deployment, cell_seeds, check_outputs, execute

    outcomes = []
    program_s = kernel_s = 0.0
    slices = 0
    for cell_seed in cell_seeds(workload, seed)[:cells]:
        if instrumentation is not None:
            instrumentation.install()
        try:
            deployment = Deployment(workload, cell_seed)
            if instrumentation is not None:
                instrumentation.attach(deployment)
            timing = execute(deployment, chunked=chunked)
        finally:
            if instrumentation is not None:
                instrumentation.uninstall()
        check_outputs(deployment)
        if instrumentation is not None:
            instrumentation.close_cell()
        outcomes.append(CellOutcome.of(deployment))
        del deployment
        gc.collect()
        program_s += timing.program_s
        kernel_s += timing.kernel_s
        slices += timing.slices
    return outcomes, program_s, kernel_s, slices


def fingerprints(outcomes) -> List[str]:
    return [outcome.fingerprint for outcome in outcomes]


def benchmark(args: argparse.Namespace) -> Dict[str, Any]:
    import kernel
    from kernel import Calibrator
    from layers import EXACT_COUNTS, PER_LAYER_UNITS, TIMED, Instrumentation
    from workloads import CheckFailed, load_config, outcome_metrics, workload_by_name

    config = load_config()
    workload = workload_by_name(args.workload, config)
    calibrator = Calibrator(config["kernel"]["nominal_slice_s"])

    # setup_s is an end-to-end metric: a traced run skips it.
    setup_s = None if args.trace else measure_setup(workload.name, args.seed, calibrator)

    # Warm-up and reference outcome: cell 0 once plain, no chunks, no spans.
    plain, _, _, _ = run_cells(workload, args.seed, chunked=False, cells=1)
    plain_fingerprint = plain[0].fingerprint

    cells = TRACED_CELLS if args.trace else None
    walls, raws, kernels, reference, outcome = [], [], [], None, None
    started = time.perf_counter()
    while True:
        outcomes, program_s, kernel_s, slices = run_cells(
            workload, args.seed, chunked=True, cells=cells
        )
        prints = fingerprints(outcomes)
        if reference is None:
            if prints[0] != plain_fingerprint:
                raise CheckFailed("the chunked run ended in another outcome than the plain run")
            reference, outcome = prints, outcome_metrics(workload, outcomes)
        elif prints != reference:
            raise CheckFailed("a repeat of the chunked run ended in another outcome")
        del outcomes
        walls.append(calibrator.calibrate(program_s, kernel_s, slices))
        raws.append(program_s)
        kernels.append(kernel_s / slices)
        # Stop when another repeat would overshoot --seconds by more than
        # half; a traced run needs one untraced repeat, for its overhead.
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + 0.5 * elapsed / len(walls) >= args.seconds:
            break
    wall_cal_s = statistics.median(walls)

    result: Dict[str, Any] = {
        "correct": True,
        "attempted": outcome["offered"],
        "failed": outcome["unconfirmed"],
    }
    if not args.trace:
        metrics = {
            "wall_cal_s": (wall_cal_s, "s"),
            "setup_s": (setup_s, "s"),
            # The kernel's probe table is the benchmark's, not the program's.
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - kernel.table_rss_mb,
                "MB",
            ),
            "sim_goodput_txn_s": (outcome["sim_goodput_txn_s"], "txn/s"),
            "sim_latency_p50_ms": (outcome["sim_latency_p50_ms"], "ms"),
            "sim_latency_p99_ms": (outcome["sim_latency_p99_ms"], "ms"),
            "sim_capacity_txn_s": (outcome["sim_capacity_txn_s"], "txn/s"),
            "sim_max_stall_ms": (outcome["sim_max_stall_ms"], "ms"),
            "txn_confirmed_frac": (outcome["txn_confirmed_frac"], "frac"),
        }
        diagnostics = {
            "latency_samples": outcome["latency_samples"],
            "raw_wall_s": statistics.median(raws),
            "kernel_slice_s": statistics.median(kernels),
            "repeats": len(walls),
            "steps": outcome["steps"],
        }
    else:
        # Per traced repeat: its layer metrics, timings calibrated, and its
        # calibrated wall time.
        traced_runs = []
        for _ in range(TRACED_REPEATS):
            instrumentation = Instrumentation()
            outcomes, program_s, kernel_s, slices = run_cells(
                workload, args.seed, chunked=True, instrumentation=instrumentation, cells=cells
            )
            if fingerprints(outcomes) != reference:
                raise CheckFailed("a traced run ended in another outcome than the chunked run")
            scale = slices * calibrator.nominal_slice_s / kernel_s
            values = {
                name: value * scale if name in TIMED else value
                for name, value in instrumentation.metrics().items()
            }
            traced_runs.append((values, program_s * scale))
        first = traced_runs[0][0]
        for other, _ in traced_runs[1:]:
            for name in EXACT_COUNTS:
                if other[name] != first[name]:
                    raise CheckFailed(
                        f"exact count {name} differs across repeats: {first[name]} != {other[name]}"
                    )
        metrics = {
            name: (statistics.median(values[name] for values, _ in traced_runs), PER_LAYER_UNITS[name])
            for name in first
        }
        traced_wall = statistics.median(wall for _, wall in traced_runs)
        metrics["trace_overhead_frac"] = (traced_wall / wall_cal_s - 1.0, "ratio")
        metrics["raw_wall_s"] = (statistics.median(raws), "s")
        metrics["kernel_s"] = (statistics.median(kernels), "s")
        if set(metrics) != set(PER_LAYER_UNITS):
            raise CheckFailed(f"per-layer metrics mismatch: {set(metrics) ^ set(PER_LAYER_UNITS)}")
        diagnostics = {"wall_cal_s": wall_cal_s, "traced_wall_cal_s": traced_wall}
    result["metrics"] = {
        name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
    }
    result["diagnostics"] = diagnostics
    return result


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    from workloads import load_config

    if args.workload not in load_config()["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = benchmark(args)
    except (AssertionError, RuntimeError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    diagnostics = result.pop("diagnostics")
    print(json.dumps({"diagnostics": diagnostics}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
