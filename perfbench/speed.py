"""Speed-calibrated call times for a host whose speed drifts.

On a shared host the same call can take 40% longer for seconds to minutes
at a time, when another tenant loads the same core, and per-call wall time
cannot tell that from a change in the program.  While a call runs, an
interval timer interrupts it every ``PERIOD`` seconds to time a fixed
pure-Python kernel that uses nothing from the program under test.  The
call's wall time, less the time spent in those interruptions, is scaled by
``REFERENCE_S`` over the mean sampled kernel time: the result reads as the
call's time on a host where the kernel takes ``REFERENCE_S`` seconds.
Set-up time is rescaled the same way, from kernel timings taken just
before and after it.  This module imports only ``signal`` and ``time``, so
that loading it does not warm the imports a set-up probe measures.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.05
# Fastest kernel time seen on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = 1.5e-4


def _kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total


def kernel_seconds() -> float:
    """Best of three timings of the kernel."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds: float, kernel: float) -> float:
    """``seconds`` measured while the kernel took ``kernel``, rescaled."""
    return seconds * REFERENCE_S / kernel


class SpeedProbe:
    """Context manager that samples the kernel time during a call.

    Uses SIGALRM, so it must run in the main thread, one at a time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        began = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - began

    def __enter__(self) -> "SpeedProbe":
        # One sample before the call, so that a call shorter than the
        # period is still calibrated.
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, wall: float) -> float:
        """``wall`` less the sampling time, at the reference kernel speed."""
        return calibrated(wall - self.spent, sum(self.samples) / len(self.samples))
