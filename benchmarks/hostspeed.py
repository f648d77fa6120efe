"""Correction of measured item times for the speed of a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
code runs between 1.0 and about 1.9 times its fastest time, in phases that
last from a second to minutes; process CPU time drifts as much as wall
time, so the core itself runs slower.  Medians over the passes of one run
cannot remove a phase that lasts the whole run.

A :class:`Sampler` measures the host's speed while an item runs: an
interval timer interrupts the item every ``PERIOD_S`` seconds and times
:func:`reference`, a fixed loop that uses no qconic code.  The item's corrected time
is its wall time, minus the time spent in the samples, times
``NOMINAL_S / median(sample times)``: the seconds the item would take on
this host when the reference loop takes ``NOMINAL_S``.  A change to qconic
moves the corrected time as it moves the wall time; a slow phase of the
host moves the reference loop as well and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds between two samples while an item runs
PERIOD_S = 0.02
#: iterations of the reference loop, about 0.35 ms on a 2-CPU shared host
REFERENCE_ITERATIONS = 4000
#: the reference loop's typical time on that host, so that corrected
#: times are seconds at this speed
NOMINAL_S = 0.00035


def reference() -> int:
    """The fixed loop whose time measures the host's speed.  Small-int
    interpreter work tracked the slow phases of the sweep, of the Hilbert
    route and of local algebra better than big-int, dict or ``Fraction``
    work, or a mix of them."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class Sampler:
    """Samples the reference loop once on :meth:`start`, every ``PERIOD_S``
    while running, and once on :meth:`stop`.  ``spent`` is the time spent
    in samples taken by the timer, which the measured interval contains."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> float:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, _signum, _frame) -> None:
        self.spent += self._sample()

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed_factor(self) -> float:
        """NOMINAL_S over the median sample: above 1 when the host ran fast.
        A time measured between start and stop, less ``spent``, times this
        factor is the corrected time."""
        return NOMINAL_S / statistics.median(self.samples)
