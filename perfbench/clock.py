"""Wall time rescaled to a reference host speed.

On the shared 2-CPU host the baseline in README.md was measured on, per-CPU
speed changed by 30-60 % over seconds to minutes (other tenants on the same
cores), which moved run-to-run medians far more than any bound could allow.
So a Clock pins the process to one CPU and times a calibration kernel --
fixed mpmath arithmetic of the kind the library does, without calling it --
right after every timed interval and, from a SIGALRM handler in the
measuring thread, every SAMPLE_S seconds.  An interval is scaled by
REF_MS / (mean kernel time over the samples inside it and the kernels just
before and after it); the mean, because time adds up linearly in the time
per unit of work.  The handler's own time is taken out of the interval.  On
a host whose kernel time is REF_MS the scaled time equals the wall time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

from mpmath.libmp import (fzero, from_int, from_str, mpf_add, mpf_div, mpf_log,
                          mpf_pow_int, round_nearest)

# kernel time, in ms, on a quiet moment of the host the baseline in README.md
# was measured on
REF_MS = 1.0
SAMPLE_S = 0.2
KERNEL_PREC = 136  # bits, about 40 digits
_X = from_str("1.37", KERNEL_PREC, round_nearest)


def kernel():
    """sum_k log(k + 1.37)^3 / (k + 1.37) on raw mpmath numbers with an
    explicit precision: the handler runs in the middle of library calls and
    must not touch the global mp context they compute in."""
    prec, rnd = KERNEL_PREC, round_nearest
    s = fzero
    for k in range(1, 120):
        t = mpf_add(from_int(k), _X, prec, rnd)
        term = mpf_div(mpf_pow_int(mpf_log(t, prec, rnd), 3, prec, rnd), t, prec, rnd)
        s = mpf_add(s, term, prec, rnd)
    return s


def kernel_ms() -> float:
    """Best of two kernel runs, in ms of the calling thread's CPU time."""
    best = float("inf")
    for _ in range(2):
        t0 = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - t0)
    return best * 1e3


class Clock:
    """Use from the main thread; close() stops the timer."""

    def __init__(self):
        # one CPU for the process and its children, so that the kernel
        # measures the CPU the work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.samples: list[tuple[float, float, float]] = []  # (start, kernel ms, handler s)
        self._busy = True
        self.last = kernel_ms()
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.samples.append((t0, ms, time.perf_counter() - t0))

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 (perf_counter), just elapsed, at the
        reference speed."""
        self._busy = True
        before, self.last = self.last, kernel_ms()
        self._busy = False
        inside = [(ms, h) for t, ms, h in self.samples if t0 <= t <= t1]
        speed = statistics.fmean([ms for ms, _ in inside] + [before, self.last])
        return (t1 - t0 - sum(h for _, h in inside)) * REF_MS / speed
