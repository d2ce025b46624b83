"""Reference normalisation: scale CPU-bound samples to a fixed machine speed.

On a shared machine the same computation can run 1.5-2x slower for minutes
at a time without the process ever being descheduled (CPU time tracks wall
time).  A benchmark that reports raw seconds then measures the machine as
much as the program.  Every CPU-bound sample here therefore sits between two
slices of a fixed reference kernel, and is reported as

    normalised_s = raw_s * NOMINAL_REF_S / mean(ref_before, ref_after)

i.e. in seconds at the speed at which one reference slice takes
``NOMINAL_REF_S``.  A uniform slowdown of the machine stretches the sample
and the slices alike and cancels; a slowdown of the program alone shows.
A long computation can close a segment and open the next at its own
boundaries (:meth:`Bracketer.boundary`): each segment then gets the slices
on either side of it, so no stretch of the sample is normalised by slices
taken seconds away.

The kernel is pure Python mixing dict, tuple, frozenset and int work, never
imports the program under test, runs with the garbage collector paused and
allocates a bounded amount (a fixed-size table), so no program state can
slow it down.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Seconds one reference slice takes at the nominal machine speed.  Fixed
#: once in ``layers.json``; changing it rescales every normalised metric.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json"),
          encoding="utf-8") as _handle:
    NOMINAL_REF_S = float(json.load(_handle)["nominal_ref_s"])

#: Sub-runs per slice; a slice reports SUB_RUNS x their median, which keeps
#: a single interrupted sub-run from skewing the slice.
SUB_RUNS = 5

#: Kernel iterations per sub-run (about NOMINAL_REF_S / SUB_RUNS seconds).
KERNEL_ITERATIONS = 4000

#: Two reference slices further apart than this do not bracket a segment
#: closely enough to vouch for the machine speed in between.
MAX_GAP_S = 4.0


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid measurement."""


def reference_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum so it is not elided."""
    table = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        key = (i & 127, i % 7)
        members = frozenset((i & 15, (i >> 4) & 15, i % 5))
        table[key] = (table.get(key, 0) + len(members) + (hash(members) & 1023)) & 0xFFFF
        acc = (acc * 31 + i + table[key]) & 0xFFFFFFFF
    return acc + len(table)


def reference_slice() -> float:
    """Seconds of one reference slice, run with the garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(SUB_RUNS):
            start = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return SUB_RUNS * statistics.median(runs)


def scale_factor(ref_before: float, ref_after: float) -> float:
    """The factor taking raw seconds to seconds at the nominal reference speed."""
    return NOMINAL_REF_S / ((ref_before + ref_after) / 2.0)


@dataclass(frozen=True)
class Sample:
    """One bracketed measurement: raw seconds, its scale factor and the result."""

    raw_s: float
    factor: float
    value: object = None

    @property
    def normalised_s(self) -> float:
        return self.raw_s * self.factor


class Bracketer:
    """Runs samples between reference slices; consecutive samples share a slice.

    ``clock`` and ``slice_fn`` are injectable so tests can model a machine
    that slows down uniformly or a program that slows down alone.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        slice_fn: Callable[[], float] = reference_slice,
    ) -> None:
        self.clock = clock
        self.slice_fn = slice_fn
        self._last_ref: Optional[float] = None
        self._last_ref_end = 0.0
        # Inside measure(): [raw, normalised] seconds of the closed segments,
        # and the clock reading at which the open segment started.
        self._closed: Optional[list] = None
        self._segment_start = 0.0

    def _slice(self) -> float:
        ref = self.slice_fn()
        self._last_ref, self._last_ref_end = ref, self.clock()
        return ref

    def _close_segment(self) -> None:
        """Stop the open segment's clock, slice after it and normalise it."""
        end = self.clock()
        before, gap_start = self._last_ref, self._last_ref_end
        after = self._slice()
        if end - gap_start > MAX_GAP_S:
            raise BenchmarkError(
                f"reference slices {end - gap_start:.2f}s apart (limit {MAX_GAP_S:.1f}s): "
                "the segment is too long to normalise; split it"
            )
        raw = end - self._segment_start
        self._closed[0] += raw
        self._closed[1] += raw * scale_factor(before, after)

    def measure(self, fn: Callable[[], object]) -> Sample:
        """Time ``fn()`` between two reference slices and normalise it.

        A full collection runs first, outside the timing: garbage left by the
        previous sample would otherwise be collected inside this one, which
        makes a sample's time depend on what ran before it.  Slices taken at
        :meth:`boundary` calls are not part of the sample's time.
        """
        if self._last_ref is None:
            self._slice()
        gc.collect()
        self._closed = [0.0, 0.0]
        try:
            self._segment_start = self.clock()
            value = fn()
            self._close_segment()
            raw, normalised = self._closed
        finally:
            self._closed = None
        return Sample(raw, normalised / raw if raw > 0 else 1.0, value)

    def boundary(self) -> None:
        """Inside a sample: close the open segment with a slice and open the next."""
        if self._closed is None:
            raise BenchmarkError("boundary() outside a measured sample")
        self._close_segment()
        self._segment_start = self.clock()

    def invalidate(self) -> None:
        """Forget the last slice (after unbracketed work, e.g. a correctness check)."""
        self._last_ref = None
