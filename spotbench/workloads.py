"""Workload definitions, the chunked runner and the simulated-outcome metrics.

A workload is read from ``config.json`` beside this file.  Two kinds exist:

* ``cluster`` -- a :class:`repro.bench.cluster.SimulatedCluster` driven by
  one open-loop client pool over a stepped :class:`LoadProfile`;
* ``scenario`` -- a :class:`repro.scenarios.runner.ScenarioRunner` with a
  crash-and-heal fault script, the invariant oracle and the flight
  recorder attached, the same open-loop pool carrying the load.

Every run of a workload simulates the same fixed horizon (the load
schedule, then a drain with no new arrivals).  A *chunked* run replaces
the simulator's ``run_for`` on that one instance by a loop of
``run(until=k * chunk_s)`` calls at absolute simulated-time boundaries,
with one reference-kernel slice after each chunk.  No event is added to
the schedule, so a chunked run and a plain run of the same seed end in the
same state; :func:`fingerprint` proves it on every run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from kernel import timed_slice

CONFIG_PATH = Path(__file__).resolve().parent / "config.json"


def load_config() -> Dict[str, Any]:
    with open(CONFIG_PATH) as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload as recorded in ``config.json``."""

    name: str
    kind: str
    protocol: str
    replicas: int
    batch_size: int
    steps_txn_s: Tuple[float, ...]
    step_s: float
    drain_s: float
    chunk_s: float
    p99_limit_ms: float
    latency_rate_max_txn_s: float
    cells: int = 1
    crash: Optional[Dict[str, Any]] = None
    checkpoint_interval: Optional[int] = None

    @classmethod
    def from_config(cls, name: str, data: Dict[str, Any]) -> "Workload":
        return cls(
            name=name,
            kind=data["kind"],
            protocol=data["protocol"],
            replicas=data["replicas"],
            batch_size=data["batch_size"],
            steps_txn_s=tuple(data["steps_txn_s"]),
            step_s=data["step_s"],
            drain_s=data["drain_s"],
            chunk_s=data["chunk_s"],
            p99_limit_ms=data["p99_limit_ms"],
            latency_rate_max_txn_s=data.get("latency_rate_max_txn_s", max(data["steps_txn_s"])),
            cells=data.get("cells", 1),
            crash=data.get("crash"),
            checkpoint_interval=data.get("checkpoint_interval"),
        )

    @property
    def load_s(self) -> float:
        return self.step_s * len(self.steps_txn_s)

    @property
    def horizon_s(self) -> float:
        return self.load_s + self.drain_s

    def rate_at(self, time_s: float) -> float:
        """Offered rate of the step ``time_s`` falls in (0 in the drain)."""
        index = int(time_s // self.step_s)
        return self.steps_txn_s[index] if index < len(self.steps_txn_s) else 0.0

    def profile(self):
        from repro.workload.arrival import LoadPhase, LoadProfile

        return LoadProfile(
            phases=tuple(
                LoadPhase(shape="hold", rate=rate, duration=self.step_s) for rate in self.steps_txn_s
            )
        )


def workload_by_name(name: str, config: Optional[Dict[str, Any]] = None) -> Workload:
    config = config or load_config()
    if name not in config["workloads"]:
        raise KeyError(f"unknown workload {name!r}; choose one of {sorted(config['workloads'])}")
    return Workload.from_config(name, config["workloads"][name])


def cell_seeds(workload: Workload, seed: int) -> List[int]:
    """Seeds of the workload's independent cells, derived from ``seed``."""
    return [seed * 1000 + cell for cell in range(workload.cells)]


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------


class Deployment:
    """A built, not yet started, workload: cluster plus optional scenario runner."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.runner = None
        if workload.kind == "scenario":
            from repro.scenarios.runner import ScenarioRunner
            from repro.scenarios.spec import FaultEvent, ScenarioSpec

            crash = workload.crash
            spec = ScenarioSpec(
                name=f"bench-{workload.name}-s{seed}",
                protocol=workload.protocol,
                num_replicas=workload.replicas,
                batch_size=workload.batch_size,
                duration=workload.horizon_s,
                seed=seed,
                events=(
                    FaultEvent(
                        kind="crash",
                        at=crash["at_s"],
                        until=crash["until_s"],
                        replicas=tuple(crash["replicas"]),
                    ),
                ),
                checkpoint_interval=workload.checkpoint_interval,
                load=workload.profile(),
            )
            self.runner = ScenarioRunner(spec, flight=True)
            self.cluster = self.runner.cluster
        elif workload.kind == "cluster":
            from repro.bench.cluster import SimulatedCluster

            self.cluster = SimulatedCluster.for_protocol(
                workload.protocol,
                num_replicas=workload.replicas,
                batch_size=workload.batch_size,
                seed=seed,
                checkpoint_interval=workload.checkpoint_interval,
                arrival=workload.profile(),
            )
        else:
            raise ValueError(f"unknown workload kind {workload.kind!r}")
        if len(self.cluster.clients) != 1:
            raise RuntimeError("an open-loop workload must have exactly one client pool")
        self.client = self.cluster.clients[0]
        # Outcome recording from outside: (scheduled arrival, confirmation)
        # per transaction.  Wrapping this one instance's confirmation hook
        # schedules nothing, so it cannot move the run.
        self.confirms: List[Tuple[float, float]] = []
        original = self.client._on_confirmed
        confirms = self.confirms
        client = self.client

        def on_confirmed(request, _original=original, _append=confirms.append):
            _append((request.submitted_at, client.now))
            _original(request)

        self.client._on_confirmed = on_confirmed
        self.scenario_result = None

    def run(self) -> None:
        if self.runner is not None:
            self.scenario_result = self.runner.run()
        else:
            self.cluster.run(duration=self.workload.horizon_s)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


@dataclass
class RunTiming:
    """Wall-clock accounting of one run: program and kernel seconds."""

    program_s: float = 0.0
    kernel_s: float = 0.0
    slices: int = 0


def install_chunking(simulator, chunk_s: float, timing: RunTiming) -> None:
    """Make ``simulator.run_for`` advance in absolute chunks with kernel slices.

    Boundaries are multiples of ``chunk_s`` from time zero, so every run of
    a workload stops at the same simulated instants whatever its speed.
    """
    run = simulator.run

    def run_for(duration: float) -> float:
        end = simulator.now + duration
        index = math.floor(simulator.now / chunk_s + 1e-9) + 1
        while True:
            boundary = min(index * chunk_s, end)
            run(until=boundary)
            timing.kernel_s += timed_slice()
            timing.slices += 1
            if boundary >= end:
                return simulator.now
            index += 1

    simulator.run_for = run_for


def execute(deployment: Deployment, chunked: bool) -> RunTiming:
    """Run ``deployment`` to its horizon; program seconds exclude kernel slices."""
    timing = RunTiming()
    if chunked:
        install_chunking(deployment.cluster.simulator, deployment.workload.chunk_s, timing)
    gc.collect()
    started = time.perf_counter()
    deployment.run()
    timing.program_s = time.perf_counter() - started - timing.kernel_s
    return timing


# ----------------------------------------------------------------------
# checks and outcome metrics
# ----------------------------------------------------------------------


class CheckFailed(AssertionError):
    """An output check of the benchmark failed; the run is not correct."""


def check_outputs(deployment: Deployment) -> None:
    """Fail loudly when the program's outputs are wrong."""
    cluster = deployment.cluster
    cluster.assert_no_divergence()
    client = deployment.client
    offered = client.offered_transactions
    confirmed = client.confirmed_transactions
    unconfirmed = client.unconfirmed_count()
    if offered != confirmed + unconfirmed:
        raise CheckFailed(
            f"offered {offered} != confirmed {confirmed} + unconfirmed {unconfirmed}"
        )
    if confirmed != len(deployment.confirms):
        raise CheckFailed("confirmation hook missed a confirmation")
    if offered == 0:
        raise CheckFailed("the workload offered no transactions")
    result = deployment.scenario_result
    if result is not None and result.violations:
        raise CheckFailed(
            "oracle violations: " + "; ".join(str(v) for v in result.violations[:3])
        )


def fingerprint(deployment: Deployment) -> str:
    """Digest of the run's outcome: events, confirmations and replica state."""
    cluster = deployment.cluster
    parts = (
        cluster.simulator.processed_events,
        deployment.client.offered_transactions,
        deployment.client.confirmed_transactions,
        tuple(digest.hex() for digest in cluster.state_digests()),
        tuple(deployment.confirms),
        None if deployment.scenario_result is None else deployment.scenario_result.summary_digest(),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CellOutcome:
    """What a finished cell leaves behind once its cluster is dropped."""

    fingerprint: str
    confirms: Tuple[Tuple[float, float], ...]
    pending: Tuple[float, ...]

    @classmethod
    def of(cls, deployment: Deployment) -> "CellOutcome":
        return cls(
            fingerprint=fingerprint(deployment),
            confirms=tuple(deployment.confirms),
            pending=tuple(
                request.submitted_at for request in deployment.client._pending.values()
            ),
        )


def nearest_rank(ordered: List[float], fraction: float) -> float:
    if not ordered:
        return math.inf
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def outcome_metrics(workload: Workload, cells: List[CellOutcome]) -> Dict[str, Any]:
    """Simulated end-to-end metrics of a finished set of cells, pooled."""
    limit_s = workload.p99_limit_ms / 1000.0
    confirms = [pair for cell in cells for pair in cell.confirms]
    pending = [arrival for cell in cells for arrival in cell.pending]
    offered = len(confirms) + len(pending)
    within = sum(1 for arrival, confirm in confirms if confirm - arrival <= limit_s)
    # p50/p99 describe the operating steps, those at or below
    # latency_rate_max_txn_s: past the knee latency grows with the backlog
    # and says nothing the capacity metric does not.
    latencies = sorted(
        confirm - arrival
        for arrival, confirm in confirms
        if workload.rate_at(arrival) <= workload.latency_rate_max_txn_s
    )

    # Per step: p99 of the step's arrivals (unconfirmed ones miss the limit)
    # and the mean backlog per cell at the step's end against Little's-law
    # headroom rate x limit -- more queued than that means a growing queue.
    arrivals = sorted([arrival for arrival, _ in confirms] + pending)
    completions = sorted(confirm for _, confirm in confirms)
    steps = []
    capacity = 0.0
    for index, rate in enumerate(workload.steps_txn_s):
        start = index * workload.step_s
        end = start + workload.step_s
        step_latencies = sorted(
            [confirm - arrival for arrival, confirm in confirms if start <= arrival < end]
            + [math.inf for arrival in pending if start <= arrival < end]
        )
        backlog = (bisect_right(arrivals, end) - bisect_right(completions, end)) / len(cells)
        p99 = nearest_rank(step_latencies, 0.99)
        meets = p99 <= limit_s and backlog <= rate * limit_s
        if meets:
            capacity = max(capacity, rate)
        steps.append(
            {
                "rate_txn_s": rate,
                "offered": len(step_latencies),
                "p50_ms": nearest_rank(step_latencies, 0.50) * 1000.0,
                "p99_ms": p99 * 1000.0,
                "backlog_at_end": backlog,
                "meets_limit": meets,
            }
        )
    stalls = [
        max_stall(
            sorted([arrival for arrival, _ in cell.confirms] + list(cell.pending)),
            sorted(confirm for _, confirm in cell.confirms),
            workload.horizon_s,
        )
        for cell in cells
    ]
    return {
        "offered": offered,
        "confirmed": len(confirms),
        "unconfirmed": len(pending),
        "latency_samples": len(latencies),
        "sim_goodput_txn_s": within / (workload.load_s * len(cells)),
        "sim_latency_p50_ms": nearest_rank(latencies, 0.50) * 1000.0,
        "sim_latency_p99_ms": nearest_rank(latencies, 0.99) * 1000.0,
        "sim_capacity_txn_s": capacity,
        "sim_max_stall_ms": sum(stalls) / len(cells) * 1000.0,
        "txn_confirmed_frac": len(confirms) / offered,
        "steps": steps,
    }


def max_stall(arrivals: List[float], completions: List[float], horizon: float) -> float:
    """Longest interval with a transaction outstanding and none confirmed."""
    events = [(time_, 1) for time_ in arrivals] + [(time_, -1) for time_ in completions]
    # At equal times a confirmation is processed before an arrival.
    events.sort(key=lambda item: (item[0], item[1]))
    outstanding = 0
    since = 0.0
    longest = 0.0
    for time_, delta in events:
        if outstanding > 0:
            longest = max(longest, time_ - since)
        if delta < 0:
            since = time_
        elif outstanding == 0:
            since = time_
        outstanding += delta
    if outstanding > 0:
        longest = max(longest, horizon - since)
    return longest


__all__ = [
    "CellOutcome",
    "CheckFailed",
    "Deployment",
    "RunTiming",
    "Workload",
    "cell_seeds",
    "check_outputs",
    "execute",
    "fingerprint",
    "install_chunking",
    "load_config",
    "outcome_metrics",
    "workload_by_name",
]
