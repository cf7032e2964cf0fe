"""Per-layer spans and counters, installed from outside the program.

The traced run wraps each layer's public entry points -- methods on the
program's classes and module functions -- in a span that measures wall
seconds.  A span's *self time* is its duration minus the part covered by
the spans it called, so every second of the run lands in exactly one
layer.  Callbacks the engine dispatches are wrapped in an ``unclaimed``
span: protocol code that is reached through no wrapped entry point shows
up there instead of silently inflating the engine.

Nothing here schedules an event or draws a random number, so a traced run
ends in the same state as an untraced one; the benchmark checks that on
every run.  :func:`Instrumentation.install` fails loudly when an entry
point no longer exists, so a refactor that renames one cannot make its
layer silently read zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:Qualified.name") for every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("engine", "repro.sim.engine:Simulator.run"),
    ("engine", "repro.sim.engine:Simulator.schedule"),
    ("engine", "repro.sim.engine:Simulator.schedule_call"),
    ("engine", "repro.sim.engine:Event.cancel"),
    ("network", "repro.sim.network:Network.send"),
    ("network", "repro.sim.network:Network.broadcast"),
    ("network", "repro.sim.network:Network._deliver"),
    ("network", "repro.sim.network:Network._deliver_traced"),
    ("cpu", "repro.sim.cpu:CpuModel.execute"),
    ("crypto", "repro.crypto.digest:digest_bytes"),
    ("crypto", "repro.crypto.authenticator:SignatureScheme.sign"),
    ("crypto", "repro.crypto.authenticator:SignatureScheme.verify"),
    ("crypto", "repro.crypto.authenticator:MacAuthenticator.tag"),
    ("crypto", "repro.crypto.authenticator:MacAuthenticator.verify"),
    ("core", "repro.core.node:SpotLessReplica.on_protocol_message"),
    ("core", "repro.core.node:SpotLessReplica._on_instance_commit"),
    ("core", "repro.core.node:SpotLessReplica._instance_execution_frontier"),
    ("core", "repro.core.node:SpotLessReplica._advance_execution"),
    ("core", "repro.core.node:SpotLessReplica._next_batch"),
    ("core", "repro.core.instance:SpotLessInstance.on_propose"),
    ("core", "repro.core.instance:SpotLessInstance.on_sync"),
    ("core", "repro.core.instance:SpotLessInstance._apply_sync_rules"),
    ("core", "repro.core.instance:SpotLessInstance.on_ask"),
    ("core", "repro.core.instance:SpotLessInstance.on_forward"),
    ("core", "repro.core.instance:SpotLessInstance._on_recording_timeout"),
    ("core", "repro.core.instance:SpotLessInstance._on_certifying_timeout"),
    ("core", "repro.core.instance:SpotLessInstance._send_ask"),
    ("core", "repro.core.chain:proposal_digest"),
    ("pbft", "repro.protocols.pbft.core:PbftInstanceCore.on_message"),
    ("pbft", "repro.protocols.pbft.core:PbftInstanceCore.try_propose"),
    ("pbft", "repro.protocols.pbft.core:PbftInstanceCore.request_view_change"),
    ("pbft", "repro.protocols.pbft.core:PbftInstanceCore._on_progress_timeout"),
    ("pbft", "repro.protocols.rcc.replica:RccReplica.on_protocol_message"),
    ("pbft", "repro.protocols.rcc.replica:RccReplica.on_request_arrival"),
    ("pbft", "repro.protocols.rcc.replica:RccReplica._on_instance_decide"),
    ("runtime", "repro.runtime.replica:ReplicaRuntime.on_message"),
    ("runtime", "repro.runtime.replica:ReplicaRuntime.submit_transaction"),
    ("runtime", "repro.runtime.replica:ReplicaRuntime.take_batch_or_noop"),
    ("runtime", "repro.runtime.replica:ReplicaRuntime.deliver_batch"),
    ("runtime", "repro.runtime.replica:ReplicaRuntime._inform_client"),
    ("runtime", "repro.runtime.mempool:Mempool.admit"),
    ("runtime", "repro.runtime.mempool:Mempool.take_batch"),
    ("runtime", "repro.runtime.pipeline:ExecutionPipeline.deliver"),
    ("runtime", "repro.runtime.pipeline:ExecutionPipeline.execute"),
    ("runtime", "repro.ledger.execution:ExecutionEngine.execute_batch"),
    ("recovery", "repro.runtime.replica:ReplicaRuntime._on_checkpoint_vote"),
    ("recovery", "repro.runtime.replica:ReplicaRuntime._serve_state_request"),
    ("recovery", "repro.runtime.replica:ReplicaRuntime._on_state_response"),
    ("recovery", "repro.runtime.replica:ReplicaRuntime._retry_transfer"),
    ("recovery", "repro.recovery.checkpoint:CheckpointManager.record_execution"),
    ("recovery", "repro.recovery.checkpoint:CheckpointManager.on_vote"),
    ("recovery", "repro.recovery.transfer:StateTransferEngine.on_response"),
    ("recovery", "repro.core.node:SpotLessReplica._fold_executed_view"),
    ("oracle", "repro.scenarios.oracle:InvariantOracle._tick"),
    ("oracle", "repro.scenarios.oracle:InvariantOracle.final_check"),
    ("tracer", "repro.obs.tracer:Tracer.begin"),
    ("tracer", "repro.obs.tracer:Tracer.end"),
    ("tracer", "repro.obs.tracer:Tracer.instant"),
    ("tracer", "repro.obs.tracer:Tracer.counter"),
    ("tracer", "repro.obs.tracer:Tracer.flow_begin"),
    ("tracer", "repro.obs.tracer:Tracer.flow_end"),
    ("client", "repro.core.client:SpotLessClient.on_message"),
    ("client", "repro.core.client:SpotLessClient._submit_new_transaction"),
    ("client", "repro.core.client:OpenLoopClientPool._fire_profile_candidate"),
)

#: Program methods whose result the oracle scans: counted, never timed, so
#: the oracle's rescans stay in the oracle's self time.
SCANNED: Tuple[str, ...] = (
    "repro.core.node:SpotLessReplica.committed_map",
    "repro.core.node:SpotLessReplica.executed_transaction_digests",
    "repro.runtime.replica:ReplicaRuntime.committed_map",
    "repro.runtime.replica:ReplicaRuntime.executed_transaction_digests",
)

#: The layers, in report order; ``tracer`` is the flight recorder (repro.obs)
#: and ``unclaimed`` is callback time no layer claims.
LAYERS = (
    "engine", "network", "cpu", "crypto", "core", "pbft", "runtime",
    "recovery", "oracle", "tracer", "client", "unclaimed",
)


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "engine.events": "count",
    "engine.cancelled_frac": "ratio",
    "network.msgs_per_txn": "msg/txn",
    "network.bytes_per_txn": "B/txn",
    "cpu.busy_frac_max": "ratio",
    "cpu.wait_ms_p99": "ms",
    "crypto.digest_calls": "count",
    "crypto.digest_calls_per_proposal": "calls/proposal",
    "core.sync_self_s": "s",
    "core.syncs": "count",
    "core.frontier_calls": "count",
    "core.frontier_self_s": "s",
    "core.noop_frac": "ratio",
    "core.timeouts": "count",
    "core.ask_recoveries": "count",
    "pbft.view_changes": "count",
    "mempool.wait_ms_p99": "ms",
    "runtime.batch_fill": "ratio",
    "pipeline.exec_wait_ms_p99": "ms",
    "recovery.transfers": "count",
    "recovery.transfer_bytes": "B",
    "recovery.catchup_ms": "ms",
    "oracle.ticks": "count",
    "oracle.digests_scanned": "count",
    "oracle.tick_growth": "ratio",
    "tracer.records": "count",
    "trace_overhead_frac": "ratio",
    "raw_wall_s": "s",
    "kernel_s": "s",
}

#: Metrics holding seconds of wall time: calibrated like every timing.
TIMED = frozenset(name for name, unit in PER_LAYER_UNITS.items() if unit == "s")


class CoverageError(RuntimeError):
    """A wrapped entry point no longer exists in the program."""


def _resolve(spec: str) -> Tuple[Any, str, Any]:
    """``module:Qual.name`` -> (owner object, attribute name, current value)."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise CoverageError(f"entry point {spec}: module is gone ({error})") from error
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"entry point {spec}: {part} no longer exists")
    attribute = parts[-1]
    # Look in the class's own dict so an inherited method is not mistaken
    # for one the class defines.
    namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attribute not in namespace:
        raise CoverageError(f"entry point {spec} no longer exists")
    return owner, attribute, namespace[attribute]


class Instrumentation:
    """Spans and counters for one traced run; install, run, then uninstall."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.entry_self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.simulator = None
        # Per-run bookkeeping for wait-time metrics.
        self._admitted: Dict[Tuple[int, bytes], float] = {}
        self._decided: Dict[Tuple[int, bytes], float] = {}
        self.cpu_models: Dict[int, Any] = {}
        # Per-cell state: attach() starts a cell, close_cell() folds it into
        # the totals and drops every reference to its cluster.
        self.deployment: Any = None
        self.totals: Dict[str, float] = defaultdict(float)
        self._tick_self: List[float] = []
        self.tick_growth: List[float] = []
        self.heal: Optional[Tuple[float, Tuple[int, ...], int]] = None
        self.catchup_s: Optional[float] = None
        self.catchups: List[float] = []
        self.crashed_pipelines: Dict[int, int] = {}

    def attach(self, deployment: Any) -> None:
        """Start a new cell: its simulator clocks the wait-time counters."""
        self.deployment = deployment
        self.simulator = deployment.cluster.simulator

    def close_cell(self) -> None:
        """Fold the attached cell's counts into the totals and let it go."""
        deployment = self.deployment
        cluster = deployment.cluster
        totals = self.totals
        totals["events"] += cluster.simulator.processed_events
        totals["scheduled"] += cluster.simulator._seq
        totals["confirmed"] += deployment.client.confirmed_transactions
        totals["sent"] += cluster.metrics.counter("network.messages_sent").value
        totals["sent_bytes"] += cluster.metrics.counter("network.bytes_sent").value
        for replica in cluster.replicas:
            for instance in getattr(replica, "instances", {}).values():
                totals["core.timeouts"] += instance.timeouts
                totals["core.ask_recoveries"] += instance.asks_sent
        if deployment.runner is not None and deployment.runner.tracer is not None:
            totals["tracer.records"] += deployment.runner.tracer.recorded_total
        horizon = deployment.workload.horizon_s
        for model in self.cpu_models.values():
            totals["cpu.busy_frac_max"] = max(totals["cpu.busy_frac_max"], model.utilization(horizon))
        ticks = self._tick_self
        quarter = len(ticks) // 4
        if quarter and sum(ticks[:quarter]) > 0:
            self.tick_growth.append(sum(ticks[-quarter:]) / sum(ticks[:quarter]))
        if self.catchup_s is not None:
            self.catchups.append(self.catchup_s)
        self.deployment = None
        self.simulator = None
        self.cpu_models = {}
        self._admitted.clear()
        self._decided.clear()
        self._tick_self = []
        self.heal = None
        self.catchup_s = None
        self.crashed_pipelines = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span(self, layer: str, name: str, function: Callable, after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``function`` wrapped in a span of ``layer``.

        ``before(args)`` and ``after(args, result, self_seconds)`` hooks feed
        the counters; their time is charged to no layer.
        """
        clock = time.perf_counter
        stack = self._stack
        layer_self = self.self_s
        entry_self = self.entry_self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            if before is not None:
                # Hook time counts as covered: it lands in no layer.
                before(args)
                frame[0] += clock() - start
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                layer_self[layer] += own
                entry_self[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                hooked = clock()
                after(args, result, own)
                if stack:
                    stack[-1][0] += clock() - hooked
            return result

        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(function, "__qualname__", wrapper.__name__)
        wrapper.__wrapped__ = function
        return wrapper

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; raises :class:`CoverageError` if one is gone."""
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        resolved = [(layer, spec, *_resolve(spec)) for layer, spec in ENTRY_POINTS]
        scanned = [(spec, *_resolve(spec)) for spec in SCANNED]
        hooks = self._hooks()
        for layer, spec, owner, attribute, original in resolved:
            name = spec.partition(":")[2]
            before, after = hooks.get(name, (None, None))
            if name in ("Simulator.schedule", "Simulator.schedule_call"):
                replacement = self._dispatching(layer, name, original)
            else:
                replacement = self.span(layer, name, original, after=after, before=before)
            if isinstance(owner, type):
                self._patch(owner, attribute, replacement)
            else:
                # A module function: rebind it wherever a repro module
                # imported it by name, or calls through those names would
                # bypass the span.
                for module in list(sys.modules.values()):
                    module_name = getattr(module, "__name__", "")
                    if not module_name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, replacement)
        for spec, owner, attribute, original in scanned:
            self._patch(owner, attribute, self._scanned(original))
        from repro.faults.injector import FaultInjector

        self._patch(FaultInjector, "_heal", self._on_heal(FaultInjector.__dict__["_heal"]))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # special wrappers
    # ------------------------------------------------------------------

    def _dispatching(self, layer: str, name: str, original: Callable) -> Callable:
        """schedule/schedule_call: an engine span that routes the callback.

        The callback the engine later dispatches runs inside one shared
        ``unclaimed`` span, so handler code reached through no wrapped entry
        point is visible as such.  Only the heap entry's payload changes;
        its ``(time, priority, seq)`` ordering key does not.
        """
        dispatch = self.span("unclaimed", "dispatch", _call)
        if name == "Simulator.schedule":
            def schedule(sim, delay, callback, **kwargs):
                return original(sim, delay, partial(dispatch, callback, ()), **kwargs)

            return self.span(layer, name, schedule)

        def schedule_call(sim, delay, callback, args=(), **kwargs):
            return original(sim, delay, dispatch, (callback, args), **kwargs)

        return self.span(layer, name, schedule_call)

    def _scanned(self, original: Callable) -> Callable:
        counts = self.counts
        stack_layers = self._oracle_depth

        def scanned(replica, *args, **kwargs):
            result = original(replica, *args, **kwargs)
            if stack_layers[0] > 0:
                counts["oracle.digests_scanned"] += len(result)
            return result

        scanned.__wrapped__ = original
        return scanned

    def _on_heal(self, original: Callable) -> Callable:
        instrumentation = self

        def heal(injector, fault):
            if fault.kind == "crash" and instrumentation.heal is None:
                cluster = injector.cluster
                crashed = tuple(fault.replicas)
                target = max(
                    replica.executed_transactions
                    for replica in cluster.replicas
                    if replica.node_id not in crashed
                )
                instrumentation.heal = (cluster.simulator.now, crashed, target)
                instrumentation.crashed_pipelines = {
                    id(cluster.replicas[r].pipeline): r for r in crashed
                }
            return original(injector, fault)

        heal.__wrapped__ = original
        return heal

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        """Per-entry counters that need the call's arguments or result."""
        counts = self.counts
        samples = self.samples
        admitted = self._admitted
        decided = self._decided
        self._oracle_depth = [0]
        oracle_depth = self._oracle_depth

        def now() -> float:
            return self.simulator.now

        def on_send(args, result, _own):
            payload = args[3]
            if payload.__class__.__name__ == "StateResponse" and result:
                counts["recovery.transfer_bytes"] += args[4]

        def on_cpu_before(args):
            model = args[0]
            self.cpu_models[id(model)] = model
            samples["cpu.wait"].append(max(0.0, min(model._core_free_at) - model.simulator.now))

        def on_cancel_before(args):
            event = args[0]
            if not (event.cancelled or event.executed):
                counts["engine.cancelled"] += 1

        def on_admit(args, result, _own):
            mempool, transaction = args[0], args[1]
            if result.name == "NEW":
                admitted[(id(mempool), transaction.digest())] = now()

        def on_take(args, result, _own):
            if result is None:
                return
            mempool, batch_size = args[0], args[1]
            counts["runtime.batches"] += 1
            counts["runtime.batch_slots"] += batch_size
            counts["runtime.batch_items"] += len(result)
            stamp = now()
            for digest in result:
                start = admitted.pop((id(mempool), digest), None)
                if start is not None:
                    samples["mempool.wait"].append(stamp - start)

        def on_deliver_batch(args, result, _own):
            replica, digests = args[0], args[2]
            key = id(replica.pipeline)
            stamp = now()
            for digest in digests:
                decided.setdefault((key, digest), stamp)

        def on_spotless_commit(args, result, _own):
            replica, proposal = args[0], args[2]
            counts["proposals.committed"] += replica.node_id == 0
            if proposal.message is None:
                return
            key = id(replica.pipeline)
            stamp = now()
            for digest in proposal.message.transaction_digests:
                decided.setdefault((key, digest), stamp)

        def on_rcc_decide(args, result, _own):
            counts["proposals.committed"] += args[0].node_id == 0

        def on_execute(args, result, _own):
            pipeline, transactions = args[0], args[1]
            key = id(pipeline)
            stamp = now()
            for transaction in transactions:
                start = decided.pop((key, transaction.digest()), None)
                if start is not None:
                    samples["pipeline.exec_wait"].append(stamp - start)
            if self.heal is not None and self.catchup_s is None and key in self.crashed_pipelines:
                heal_time, _crashed, target = self.heal
                if pipeline.executed_transactions >= target:
                    self.catchup_s = stamp - heal_time

        def on_next_batch(args, result, _own):
            replica = args[0]
            counts["core.proposals"] += 1
            if len(result) == 1:
                transaction = replica.mempool.get(result[0])
                if transaction is not None and transaction.is_noop():
                    counts["core.noops"] += 1

        def on_transfer(args, result, _own):
            if result:
                counts["recovery.transfers"] += 1

        def oracle_enter(args):
            oracle_depth[0] += 1

        def oracle_exit(args, result, own):
            oracle_depth[0] -= 1

        def tick_exit(args, result, own):
            oracle_depth[0] -= 1
            self._tick_self.append(own)

        return {
            "Network.send": (None, on_send),
            "CpuModel.execute": (on_cpu_before, None),
            "Event.cancel": (on_cancel_before, None),
            "Mempool.admit": (None, on_admit),
            "Mempool.take_batch": (None, on_take),
            "ReplicaRuntime.deliver_batch": (None, on_deliver_batch),
            "SpotLessReplica._on_instance_commit": (None, on_spotless_commit),
            "RccReplica._on_instance_decide": (None, on_rcc_decide),
            "ExecutionPipeline.execute": (None, on_execute),
            "SpotLessReplica._next_batch": (None, on_next_batch),
            "StateTransferEngine.on_response": (None, on_transfer),
            "InvariantOracle._tick": (oracle_enter, tick_exit),
            "InvariantOracle.final_check": (oracle_enter, oracle_exit),
        }

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts and ratios of the closed cells (times uncalibrated)."""
        counts = self.counts
        totals = self.totals
        confirmed = totals["confirmed"]
        proposals = counts["proposals.committed"]
        digest_calls = self.calls["digest_bytes"]
        return {
            **{f"{layer}.self_s": self.self_s[layer] for layer in LAYERS},
            "engine.events": totals["events"],
            "engine.cancelled_frac": counts["engine.cancelled"] / totals["scheduled"],
            "network.msgs_per_txn": totals["sent"] / confirmed,
            "network.bytes_per_txn": totals["sent_bytes"] / confirmed,
            "cpu.busy_frac_max": totals["cpu.busy_frac_max"],
            "cpu.wait_ms_p99": _p99_ms(self.samples["cpu.wait"]),
            "crypto.digest_calls": float(digest_calls),
            "crypto.digest_calls_per_proposal": digest_calls / proposals if proposals else 0.0,
            "core.sync_self_s": self.entry_self_s["SpotLessInstance.on_sync"]
            + self.entry_self_s["SpotLessInstance._apply_sync_rules"],
            "core.syncs": float(self.calls["SpotLessInstance.on_sync"]),
            "core.frontier_calls": float(self.calls["SpotLessReplica._instance_execution_frontier"]),
            "core.frontier_self_s": self.entry_self_s["SpotLessReplica._instance_execution_frontier"],
            "core.noop_frac": counts["core.noops"] / counts["core.proposals"]
            if counts["core.proposals"]
            else 0.0,
            "core.timeouts": totals["core.timeouts"],
            "core.ask_recoveries": totals["core.ask_recoveries"],
            "pbft.view_changes": float(self.calls["PbftInstanceCore.request_view_change"]),
            "mempool.wait_ms_p99": _p99_ms(self.samples["mempool.wait"]),
            "runtime.batch_fill": counts["runtime.batch_items"] / counts["runtime.batch_slots"]
            if counts["runtime.batch_slots"]
            else 0.0,
            "pipeline.exec_wait_ms_p99": _p99_ms(self.samples["pipeline.exec_wait"]),
            "recovery.transfers": counts["recovery.transfers"],
            "recovery.transfer_bytes": counts["recovery.transfer_bytes"],
            "recovery.catchup_ms": _mean(self.catchups) * 1000.0,
            "oracle.ticks": float(self.calls["InvariantOracle._tick"]),
            "oracle.digests_scanned": counts["oracle.digests_scanned"],
            "oracle.tick_growth": _mean(self.tick_growth),
            "tracer.records": totals["tracer.records"],
        }


def _call(callback: Callable, args: Tuple[Any, ...]) -> Any:
    return callback(*args)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p99_ms(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))
    return ordered[index] * 1000.0


#: Exact counts that must repeat across repeats of one seed.
EXACT_COUNTS = (
    "engine.events",
    "network.msgs_per_txn",
    "crypto.digest_calls",
    "core.syncs",
    "oracle.digests_scanned",
)

__all__ = [
    "CoverageError",
    "ENTRY_POINTS",
    "EXACT_COUNTS",
    "Instrumentation",
    "LAYERS",
    "PER_LAYER_UNITS",
    "TIMED",
]
