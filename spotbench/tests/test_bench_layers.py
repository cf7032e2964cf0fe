"""Coverage guard and schedule-neutrality of the per-layer instrumentation."""

import pytest

import layers
from layers import CoverageError, Instrumentation
from workloads import Deployment, Workload, execute, fingerprint

TINY = Workload(
    name="tiny",
    kind="cluster",
    protocol="spotless",
    replicas=4,
    batch_size=4,
    steps_txn_s=(800.0,),
    step_s=0.1,
    drain_s=0.1,
    chunk_s=0.05,
    p99_limit_ms=75.0,
    latency_rate_max_txn_s=800.0,
)


def _run(chunked: bool, instrumentation=None) -> str:
    if instrumentation is not None:
        instrumentation.install()
    try:
        deployment = Deployment(TINY, seed=3)
        if instrumentation is not None:
            instrumentation.attach(deployment)
        execute(deployment, chunked=chunked)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    if instrumentation is not None:
        instrumentation.close_cell()
    return fingerprint(deployment)


def test_chunks_and_spans_leave_the_outcome_unchanged():
    plain = _run(chunked=False)
    assert _run(chunked=True) == plain
    instrumentation = Instrumentation()
    assert _run(chunked=True, instrumentation=instrumentation) == plain
    assert instrumentation.self_s["core"] > 0.0
    assert instrumentation.metrics()["core.syncs"] > 0


def test_uninstall_restores_every_entry_point():
    from repro.crypto import digest
    from repro.sim.engine import Simulator

    run, digest_bytes = Simulator.run, digest.digest_bytes
    instrumentation = Instrumentation()
    instrumentation.install()
    assert Simulator.run is not run
    instrumentation.uninstall()
    assert Simulator.run is run and digest.digest_bytes is digest_bytes


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        layers,
        "ENTRY_POINTS",
        layers.ENTRY_POINTS + (("core", "repro.core.instance:SpotLessInstance.on_renamed"),),
    )
    with pytest.raises(CoverageError, match="on_renamed"):
        Instrumentation().install()
