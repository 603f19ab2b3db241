"""Host-speed reference: a fixed slice of stdlib exact arithmetic, timed
next to and during every item, so an item's time can be expressed in
reference slices.

The hosts this benchmark runs on drift in speed by up to a factor of two
over tens of seconds, and CPU time drifts with wall time, so raw seconds
from two runs minutes apart are not comparable.  One slice is a
Gauss-Jordan elimination of a fixed seeded 10 x 14 rational matrix with
``fractions.Fraction``, the kind of work sphlie's kernels do, written here
so that no change to sphlie can change it.  A slice runs before the first
item and after every item, and, while an item runs, from a SIGALRM handler
every ``SAMPLE_INTERVAL_S`` seconds; the handler's slices are subtracted
from the item's time.  An item's reference is the mean of the slices
around and during it.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from time import perf_counter

SAMPLE_INTERVAL_S = 0.25


def _reference_matrix() -> list:
    rng = Random(12345)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(14)] for _ in range(10)]


def _eliminate(rows) -> list:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = work[rank][col]
        work[rank] = [e / scale for e in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return work


class HostReference:
    """Times reference slices; one per worker process."""

    def __init__(self):
        self._matrix = _reference_matrix()
        self.slices: list[float] = []
        self._last = None

    def slice(self) -> float:
        start = perf_counter()
        _eliminate(self._matrix)
        took = perf_counter() - start
        self.slices.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.slice()

    @contextmanager
    def _sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timed(self, sample: bool = True):
        """Time the body.  Yields a dict that, after the body, holds
        ``seconds`` (its time without the handler's slices) and ``ref_s``
        (the mean slice around and during it).  ``sample=False`` takes the
        slices around the body only, for bodies that must not be
        interrupted, such as traced items."""
        if self._last is None:
            self._last = self.slice()
        before = self._last
        mark = len(self.slices)
        out: dict = {}
        start = perf_counter()
        try:
            if sample:
                with self._sampling():
                    yield out
            else:
                yield out
        finally:
            elapsed = perf_counter() - start
            during = self.slices[mark:]
            self._last = self.slice()
            out["seconds"] = elapsed - sum(during)
            out["ref_s"] = statistics.fmean([before, *during, self._last])
