"""Scale measured times to a reference machine speed.

The benchmark runs on a shared host whose speed drifts by tens of
percent within seconds: on a shared 2-core machine the same 40
threshold queries, repeated for 80 s, took from 0.65 to 1.6 times their
median time, and whole runs landed fast or slow.  The program is pure
Python, so its latencies follow that drift.

A :class:`Speedometer` times a fixed probe (about 0.5 ms of the kinds
of work the program does: float arithmetic over lists, method calls on
small objects, dict inserts and a sort) every ``interval`` seconds of
the run, between operations and never inside one.  A measured span is
then scaled by ``REFERENCE_PROBE_S / p``, where ``p`` is the median
time of the three probes just before the span, the three just after it
and any run during it (a set-up's, between its adds).  A time reported
in ``ms`` is the time the span would take on a machine that runs the
probe in exactly ``REFERENCE_PROBE_S``.  The probe is the benchmark's own code, so a
change to the program moves the scaled figures just as it moves the
wall times; only the host's drift cancels.

Each probe runs twice and only the second pass is timed, so it finds
its code and data in the caches whatever the program did before it.
The probe allocates no object the garbage collector tracks, so it does
not move the program's collections.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

_perf = time.perf_counter

#: probe time of the reference machine; scaled times are its seconds
REFERENCE_PROBE_S = 0.5e-3

_rng = random.Random(20240611)
_A = [_rng.random() for _ in range(48)]
_B = [_rng.random() for _ in range(48)]
_KEYS = [_rng.randrange(1 << 30) for _ in range(300)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def far(self, other, eps):
        return abs(self.x - other.x) > eps or abs(self.y - other.y) > eps


_POINTS = [_Point(a, b) for a, b in zip(_A, _B)]
_ROWS = ([0.0] * len(_A), [0.0] * len(_A))
_TABLE: dict = {}
_BUF: list = []


def probe() -> float:
    """The fixed reference work: a discrete-Frechet-style DP over two
    48-point sequences, 384 method calls and a 300-key dict and sort,
    all in preallocated containers."""
    prev, row = _ROWS
    n = len(_A)
    for i in range(n):
        ai = _A[i]
        for j in range(n):
            d = abs(ai - _B[j])
            best = prev[j] if i else 0.0
            if j and row[j - 1] < best:
                best = row[j - 1]
            row[j] = d if d > best else best
        prev, row = row, prev
    far = 0
    for p in _POINTS:
        for q in _POINTS[::6]:
            if p.far(q, 0.3):
                far += 1
    _TABLE.clear()
    for key in _KEYS:
        _TABLE[key & 0xFFFF] = key
    _BUF[:] = _KEYS
    _BUF.sort()
    return prev[-1] + far


class Speedometer:
    """Probe times over a run and the speed factor of any span of it."""

    #: seconds between probes (end of one to start of the next)
    interval = 0.02
    #: a span's factor uses this many probes on either side of it
    side = 3
    #: most probes in a row after one long span
    burst = 4
    #: untimed probes before the first one recorded
    warmup = 20

    def __init__(self):
        #: mid-times and durations of the recorded probes, in time order
        self.times: list = []
        self.durations: list = []
        for _ in range(self.warmup):
            probe()
        self.last = 0.0
        self.probe()

    def probe(self) -> None:
        # The first pass brings the probe back into the caches the
        # program's last call evicted it from; only the second is timed,
        # so the figure is the host's speed, not the program's footprint.
        probe()
        t0 = _perf()
        probe()
        t1 = _perf()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Probe once per ``interval`` passed since the last probe, up to
        ``burst`` times, so that a long span has probes close to it."""
        due = int((_perf() - self.last) / self.interval)
        for _ in range(min(due, self.burst)):
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_PROBE_S`` over the median time of the probes run
        during the span ``start .. end`` (``perf_counter`` readings;
        only a set-up has any) and the ``side`` probes just before and
        just after it."""
        # The host's speed moves within a tenth of a second, so only the
        # nearest probes tell how fast the span ran.
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        around = self.durations[max(0, lo - self.side):hi + self.side]
        return REFERENCE_PROBE_S / statistics.median(around)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)

    def median_probe(self) -> float:
        return statistics.median(self.durations)
