"""Host-speed calibration: a fixed pure-Python kernel and the scaling rule.

The benchmark host is a shared virtual machine whose pure-Python speed
drifts in phases that last seconds (the same loop measured 1.28-2.18 M
iterations/s on one host).  Absolute host-time metrics taken minutes
apart therefore disagree by more than any useful regression bound.  The
runner measures this kernel between rounds and scales every host-time
metric to a fixed reference host speed, using the calibration taken next
to the timed work.

The kernel and :data:`REF_MOPS` are part of the benchmark's definition:
changing either rescales every calibrated metric, so it is a benchmark
change (re-measure the baseline), never part of a change that claims a
gain.
"""

from __future__ import annotations

import statistics
import time

#: Reference host speed in million kernel iterations per second.  Every
#: calibrated metric reads as if measured on a host running
#: :func:`kernel` at exactly this rate.
REF_MOPS = 1.5

#: Kernel iterations per calibration sample (about 4 ms at REF_MOPS): short
#: enough to take one after every timed slice, so the rate used to scale a
#: slice is measured within milliseconds of it.
CALIB_ITERATIONS = 6_000


def kernel(iterations: int) -> int:
    """The fixed calibration workload.  Never change it.

    A mix of the operations an interpretive ISS spends its time on:
    masked integer arithmetic, list and dict indexing, bytearray stores
    and a data-dependent branch.
    """
    regs = [0] * 32
    mem = bytearray(1024)
    table = {i: (i * 7 + 1) & 0xFF for i in range(64)}
    acc = 0x12345678
    for i in range(iterations):
        r = i & 31
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        value = regs[r] ^ table[acc & 63]
        regs[(r + 1) & 31] = (value + acc) & 0xFFFFFFFF
        mem[acc & 1023] = value & 0xFF
        if value & 1:
            acc ^= mem[r]
    return acc ^ regs[0]


def measure(iterations: int = CALIB_ITERATIONS) -> float:
    """One calibration sample: the host's kernel rate in M iterations/s."""
    started = time.perf_counter()
    kernel(iterations)
    return iterations / (time.perf_counter() - started) / 1e6


def time_factor(host_mops: float) -> float:
    """Multiplier taking a host-time duration to the reference host.

    A host running the kernel faster than :data:`REF_MOPS` finishes work
    sooner; its durations are stretched by ``host_mops / REF_MOPS``.
    Rates (per second) are divided by the same factor.
    """
    if host_mops <= 0:
        raise ValueError(f"calibration rate must be positive, not {host_mops}")
    return host_mops / REF_MOPS


class Calibrator:
    """Calibration samples of one run, plus the rate next to each span.

    :meth:`sample` takes a fresh measurement and returns the rate to
    scale the work done since the previous sample with: the mean of the
    samples bracketing it.  ``sample(count)`` measures ``count`` times
    and keeps the median, for spans too few to take a median over.
    """

    def __init__(self, measure_fn=measure):
        self._measure = measure_fn
        self.samples = []
        self._last = None

    def sample(self, count: int = 1) -> float:
        rate = statistics.median(self._measure() for __ in range(count))
        self.samples.append(rate)
        previous = self._last if self._last is not None else rate
        self._last = rate
        return (previous + rate) / 2

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0
