"""A clock that runs at the machine's current speed.

On a shared host the same pass can take 60% longer for tens of seconds at
a time while a neighbour loads the processor, and CPU time grows with it,
so neither wall nor CPU time separates the program from the neighbour.
``SpeedClock`` times a fixed piece of the benchmark's own pure-Python work,
the probe, every ``TICK_S`` of wall time from a ``SIGALRM`` handler.  It
advances by each interval's wall time scaled by ``REF_PROBE_S`` over the
typical time of the last ``WINDOW`` probes, so its readings are seconds at
the reference speed: the speed at which one probe takes ``REF_PROBE_S``,
close to this benchmark's 2-core Xeon host when nothing else loads it.  Time
spent in the handler is left out.

The probe uses only the standard library, so no change to holomon can
move it.  It multiplies two 10-term sparse polynomials with ``Fraction``
coefficients keyed by exponent tuples: the allocation, hashing and gcd
work of holomon's own coefficient arithmetic.  A neighbour slows such a
probe in step with holomon more nearly than it slows short float or
integer loops: on the 2-core host, with both kinds of probe run side by
side, the pass-to-pass spread at the reference speed was a third to a
half smaller with this one.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.025           # wall time between probes
WINDOW = 8               # recent probes that set the current speed
REF_PROBE_S = 4e-4       # probe time at the reference speed


def probe():
    a = {(i % 7, i % 5): Fraction(i + 1, i + 3) for i in range(10)}
    b = {(i % 3, i % 11): Fraction(2 * i + 1, i + 2) for i in range(10)}
    product = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            product[key] = product.get(key, 0) + va * vb
    return product


def typical(times: list) -> float:
    """Mean probe time without the slowest quarter.  A neighbour that
    loads the host in bursts slows the program by the mean, which a median
    would understate; the slowest probes are dropped because one timer
    interrupt inside a 0.4 ms probe would swamp the mean."""
    kept = sorted(times)[:len(times) - len(times) // 4]
    return statistics.fmean(kept)


def probe_time(n: int = WINDOW) -> float:
    """Typical wall time of n probes, run now."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return typical(times)


def at_reference(wall_s: float, probe_s: float) -> float:
    """wall_s spent at the speed where a probe takes probe_s, in seconds at
    the reference speed."""
    return wall_s * REF_PROBE_S / probe_s


class SpeedClock:
    """Seconds at the reference speed, read with ``now()`` between ``start()``
    and ``stop()``.  Only one clock may run in a process: it owns SIGALRM."""

    def __init__(self):
        self.recent: list = []
        self.elapsed = 0.0       # reference seconds up to self.last
        self.handler_s = 0.0     # wall time spent probing from the handler
        self.ticks = 0
        self.busy = False

    def _speed(self) -> float:
        t0 = time.perf_counter()
        probe()
        self.recent.append(time.perf_counter() - t0)
        del self.recent[:-WINDOW]
        return typical(self.recent)

    def start(self) -> "SpeedClock":
        for _ in range(WINDOW - 1):
            self._speed()
        self.probe_s = self._speed()
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self.busy:            # a late tick arriving inside the handler
            return
        self.busy = True
        t0 = time.perf_counter()
        # The interval since the last tick is scaled at the speed that now()
        # used during it, so readings never step back.
        self.elapsed += at_reference(t0 - self.last, self.probe_s)
        self.probe_s = self._speed()
        self.last = time.perf_counter()
        self.handler_s += self.last - t0
        self.ticks += 1
        self.busy = False

    def now(self) -> float:
        # A tick between reading elapsed and last would drop an interval:
        # read again until no tick came in between.
        while True:
            ticks = self.ticks
            value = self.elapsed + at_reference(time.perf_counter() - self.last,
                                                self.probe_s)
            if ticks == self.ticks:
                return value
