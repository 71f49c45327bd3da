"""The machine's speed, measured while a workload runs.

On a shared virtual machine the same pass can take twice as long from one
minute to the next, and its speed changes from one second to the next too,
because other guests compete for the host's cores and caches.  So a pass runs
a fixed reference chunk of pure-Python work every ``INTERVAL_S`` of CPU time,
from a profiling-timer signal.  ``clock`` leaves the chunks out, and a time is
scaled by the chunk's nominal time over its mean measured time around it: a
scaled time is the time the work would take on a machine that runs the chunk
in ``NOMINAL_CHUNK_S``.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
NOMINAL_CHUNK_S = 0.001
# a short interval is scaled by at least this many chunks around it
LOCAL_CHUNKS = 25

# A process has one profiling timer and one handler for its signal, so the
# record of the chunks it ran is kept per process too.
_spent = 0.0  # seconds spent in reference chunks by this process
_log: "list[tuple[float, float]]" = []  # per chunk: clock() when it ran, seconds


def clock() -> float:
    """Elapsed seconds, less the time the chunks took."""
    while True:
        spent = _spent
        now = time.perf_counter()
        if spent == _spent:
            return now - spent


def chunk() -> int:
    """The reference work: rational arithmetic, tuples and a dict, like the
    program's own inner loops."""
    out = 0
    for _ in range(3):
        table = {}
        total = Fraction(0)
        for i in range(1, 41):
            term = Fraction(i, 7) * Fraction(3, i + 2) - Fraction(i % 5, 3)
            total += term
            table[(i % 13, i)] = (term.numerator, term.denominator)
        out += len(table) + total.denominator
    return out


def _tick(signum, frame) -> None:
    global _spent
    start = time.perf_counter()
    chunk()
    seconds = time.perf_counter() - start
    _log.append((start - _spent, seconds))
    _spent += seconds


def burst_factor(count: int = 100) -> float:
    """Nominal over measured chunk time, for ``count`` chunks back to back."""
    start = time.perf_counter()
    for _ in range(count):
        chunk()
    return NOMINAL_CHUNK_S * count / (time.perf_counter() - start)


class Meter:
    """Runs the reference chunk on a CPU-time timer while the block runs."""

    def __enter__(self) -> "Meter":
        self._first = len(_log)
        self._previous = signal.signal(signal.SIGPROF, _tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        chunks = _log[self._first :]
        self.stamps = [stamp for stamp, _ in chunks]
        self.sums = list(itertools.accumulate((seconds for _, seconds in chunks), initial=0.0))

    @property
    def chunks(self) -> int:
        return len(self.stamps)

    @property
    def factor(self) -> float:
        """Nominal over mean chunk time in the block: below 1 on a slow machine."""
        return NOMINAL_CHUNK_S * self.chunks / self.sums[-1] if self.chunks else 1.0

    def local_factor(self, start: float, end: float) -> float:
        """The factor over the chunks that ran between ``start`` and ``end``
        (``clock`` readings), widened to the ``LOCAL_CHUNKS`` nearest."""
        n = self.chunks
        if n <= LOCAL_CHUNKS:
            return self.factor
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < LOCAL_CHUNKS:
            if hi < n and (lo == 0 or self.stamps[hi] - end < start - self.stamps[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return NOMINAL_CHUNK_S * (hi - lo) / (self.sums[hi] - self.sums[lo])
