"""The reference kernel must not be slowed by the program's heap.

Every calibrated time divides by kernel slices run inside the benchmark
process, after the simulation has grown its heap.  If a large GC-tracked
heap made slices slower, a program that bloats its heap would shrink its
own calibrated time.  Run with ``python3 -m pytest spotbench/tests``.
"""

import gc
import statistics

from kernel import Calibrator, kernel_slice, timed_slice


def _median_slice(count: int = 5) -> float:
    return statistics.median(timed_slice() for _ in range(count))


def test_kernel_slice_ignores_a_large_gc_tracked_heap():
    before = _median_slice()
    heap = [(index, [index], {"k": index}) for index in range(600_000)]
    assert gc.is_tracked(heap[0][1])
    loaded = _median_slice()
    del heap
    after = _median_slice()
    assert loaded < 1.3 * max(before, after), (before, loaded, after)


def test_kernel_slice_restores_the_collector_state():
    assert gc.isenabled()
    timed_slice()
    assert gc.isenabled()
    gc.disable()
    try:
        timed_slice()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_kernel_is_deterministic():
    assert kernel_slice(5_000) == kernel_slice(5_000)


def test_calibration_scales_by_nominal_over_measured():
    calibrator = Calibrator(nominal_slice_s=0.05)
    # A machine twice as slow as the reference: 0.1 s per slice.
    assert calibrator.calibrate(4.0, 0.1 * 10, 10) == 2.0
