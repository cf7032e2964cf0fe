"""The fixed reference kernel every benchmark timing is divided by.

The machine this benchmark runs on changes speed from minute to minute
(shared cores, frequency scaling), so a raw wall time of the same code can
move by a third between two processes.  The kernel is a fixed amount of
pure-Python work shaped like the simulator's inner loop -- a heap of
``(time, priority, seq, item)`` tuples, slotted message objects, a large
dict probed at random -- run in short slices interleaved with the program.  A program timing divided by the
kernel time taken next to it cancels the machine's speed, and multiplying
by the kernel's nominal seconds turns the ratio back into "seconds at
reference speed".

The kernel runs with the cyclic garbage collector disabled: the program's
heap is whatever size the simulation left it, and a collection pass
triggered inside a slice would charge that heap to the denominator.

Any edit to this file changes every calibrated number: it is a change of
the benchmark, not of the program.
"""

from __future__ import annotations

import gc
import heapq
import os
import time
from typing import Dict, List, Tuple

#: Loop iterations in one kernel slice.
SLICE_OPS = 14_000
#: Entries of the dict every slice probes; built once per process.
TABLE_SIZE = 1 << 18

_table: Dict[int, Tuple[int, int]] = {}
_keys: List[int] = []
#: Resident megabytes the probe table added when it was built.
table_rss_mb = 0.0


class _Message:
    """A small slotted object, like the simulator's messages and events."""

    __slots__ = ("src", "dst", "seq", "body")

    def __init__(self, src: int, dst: int, seq: int, body: int) -> None:
        self.src = src
        self.dst = dst
        self.seq = seq
        self.body = body

    def key(self) -> Tuple[int, int]:
        return (self.dst, self.seq & 1023)


def resident_mb() -> float:
    """Current resident set size of this process (0.0 where unknown)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _probe_table() -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
    global table_rss_mb
    if not _table:
        before = resident_mb()
        for index in range(TABLE_SIZE):
            key = index * 2654435761 & 0xFFFFFFFF
            _table[key] = (index, index & 7)
            _keys.append(key)
        table_rss_mb = max(0.0, resident_mb() - before)
    return _table, _keys


def kernel_slice(ops: int = SLICE_OPS) -> int:
    """One slice of reference work; returns a checksum so it cannot be elided.

    Slotted message objects flow through a heap of about a thousand
    ``(time, priority, seq, item)`` entries while a dict of a quarter
    million entries is probed at random -- like the simulator's, the
    working set does not fit in the fastest caches.
    """
    table, keys = _probe_table()
    heap: List[Tuple[float, int, int, _Message]] = []
    counts: Dict[Tuple[int, int], int] = {}
    push = heapq.heappush
    pop = heapq.heappop
    now = 0.0
    state = 12345
    checksum = 0
    for seq in range(ops):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        message = _Message(state & 3, (state >> 2) & 3, seq, keys[state % TABLE_SIZE])
        push(heap, (now + (state % 997) * 1e-6, state & 3, seq, message))
        if len(heap) > 1024:
            now, _priority, _seq, item = pop(heap)
            hit = table.get(item.body)
            key = item.key()
            counts[key] = counts.get(key, 0) + (hit[1] if hit else 1)
            checksum ^= item.seq
    return checksum + len(counts)


def timed_slice() -> float:
    """Run one kernel slice with the collector off; return its seconds."""
    was_enabled = gc.isenabled()
    _probe_table()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel_slice()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Accumulates program seconds and the kernel seconds run beside them.

    ``nominal_slice_s`` is the kernel's slice time at reference speed (the
    machine the benchmark was defined on).  ``calibrated(program_s,
    kernel_s, slices)`` = program_s x (slices x nominal) / kernel_s.
    """

    def __init__(self, nominal_slice_s: float) -> None:
        self.nominal_slice_s = nominal_slice_s

    def calibrate(self, program_s: float, kernel_s: float, slices: int) -> float:
        if slices < 1 or kernel_s <= 0.0:
            raise ValueError("a calibrated time needs at least one kernel slice")
        return program_s * slices * self.nominal_slice_s / kernel_s


__all__ = ["Calibrator", "SLICE_OPS", "TABLE_SIZE", "kernel_slice", "timed_slice"]
