"""A reference clock: fixed stdlib work timed in the middle of a job.

The shared box this benchmark was written on changes speed by 20-35 %
over minutes, as other tenants load the host, and one run cannot outlast
that drift.  So every timed job carries its own measure of the machine's
speed.  A ``SIGALRM`` fires every ``INTERVAL_S`` of wall time; its handler,
which runs in the job's own thread between bytecodes, times one ``chunk``
of fixed pure-Python work.  The chunks see the same host load as the job
around them.  ``scaled`` turns the job's time, with the handler time taken
out, into seconds at the nominal speed: ``NOMINAL_CHUNK_S`` per chunk.

The chunk uses only builtins and ``fractions``, so no change to the engine
can make it faster or slower.  It runs with the garbage collector off, so
a collection of the engine's heap never lands in it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.25
# Mean wall (and CPU) time of one chunk on the 2-core box the benchmark was
# written on, at its faster level.  Only the ratio to the measured mean
# matters; it is fixed so that scaled times read as seconds.
NOMINAL_CHUNK_S = 0.007

_A = [(7 * i) % 11 - 5 or 1 for i in range(24)]
_B = [(5 * i) % 13 - 6 or 1 for i in range(24)]
_TABLE = {(i, i % 7): i for i in range(4096)}


def chunk():
    """Fixed work in the engine's style: integer polynomial products,
    ``Fraction`` sums and updates of a tuple-keyed dict."""
    out = 0
    for r in range(32):
        prod = [0] * 47
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                prod[i + j] += x * y
        f = Fraction(0)
        for k in range(1, 25):
            f += Fraction(k, 3 * k + 1)
        for i in range(r, 4096, 32):
            key = (i, i % 7)
            _TABLE[key] = _TABLE[key] ^ prod[i % 47]
        out += f.denominator % 7 + prod[r % 47]
    return out


def scaled(seconds, chunk_s):
    """``seconds`` measured at a mean of ``chunk_s`` a chunk, expressed at
    the nominal speed."""
    return seconds * NOMINAL_CHUNK_S / chunk_s


def chunk_wall(n):
    """Mean wall time of ``n`` chunks run now."""
    clock = RefClock()
    for _ in range(n):
        clock._tick(None, None)
    return clock.wall / clock.chunks


class RefClock:
    """Times one chunk at :meth:`start`, one every ``INTERVAL_S`` after it
    and one at :meth:`stop`; ``wall``, ``cpu`` and ``chunks`` accumulate."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.chunks = 0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            w, c = perf_counter(), process_time()
            chunk()
            self.wall += perf_counter() - w
            self.cpu += process_time() - c
            self.chunks += 1
        finally:
            if was_enabled:
                gc.enable()
            self._busy = False

    def start(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
