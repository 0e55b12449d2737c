"""Machine-speed probe for a round.

On a shared host the speed at which this process runs swings by up to a
factor of two within seconds, as other tenants load the cores, which no
amount of work per run averages away.  The probe times a fixed reference
task every ``INTERVAL_S`` from a timer signal, so the samples fall inside
long operations too, and scales each stretch of the round by
``REFERENCE_S / sample``: the result is the time the round would have taken
at the reference speed.  The probe's own time is left out.
"""
from __future__ import annotations

import signal
import time
from math import gcd

from mpmath import mp, mpf

INTERVAL_S = 0.25
# the reference task's typical time on this host (see README.md)
REFERENCE_S = 0.0045


class _Ratio:
    """A bare exact rational built the way ``fractions.Fraction`` is (a
    Python object per result, a gcd per operation), so the probe costs what
    the program's rationals cost without adding to a traced round's count
    of Fraction constructions."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def reference_task():
    """A fixed mix of the work the program does: exact rationals with
    growing denominators, multiprecision floats, dictionary updates."""
    acc = _Ratio(0, 1)
    for i in range(1, 120):
        acc = acc + _Ratio(1, i)
    with mp.workprec(208):
        x = mpf(1)
        for i in range(1, 400):
            x = x * i / (i + 1) + 1
    counts: dict = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, x, counts


class SpeedProbe:
    def __init__(self, on_sample=None):
        """``on_sample(seconds)`` is told each sample's duration; a tracer
        uses it to keep the probe out of the self time of the span it
        interrupted."""
        self.on_sample = on_sample
        self.samples: list = []  # (wall clock at the sample, reference task time)
        self.probe_wall = 0.0
        self.probe_cpu = 0.0

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_task()
        w1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((w0, w1 - w0))
        self.probe_wall += w1 - w0
        self.probe_cpu += c1 - c0
        if self.on_sample:
            self.on_sample(w1 - w0)

    def start(self) -> None:
        """Take the first sample, then sample from the timer signal; the
        probe times kept are those of the samples from here to ``stop``."""
        reference_task()  # the first call in a process is slower
        self._sample()
        self.probe_wall = self.probe_cpu = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall, cpu = self.probe_wall, self.probe_cpu
        self._sample()
        self.probe_wall, self.probe_cpu = wall, cpu

    def scale(self) -> float:
        """Reference-speed time over measured time for the span from the
        first sample to the last, each stretch between two samples taken at
        the mean speed of its ends, probe time left out."""
        ref = measured = 0.0
        for (t0, d0), (t1, d1) in zip(self.samples, self.samples[1:]):
            stretch = t1 - (t0 + d0)  # from the end of one sample to the start of the next
            measured += stretch
            ref += stretch * REFERENCE_S * 2 / (d0 + d1)
        return ref / measured if measured > 0 else 1.0
