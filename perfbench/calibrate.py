"""Host speed, measured with fixed reference kernels.

The benchmark runs on a few cores of a shared host whose speed drifts, with
the load of other tenants, by up to a factor of two over stretches of a
fraction of a second to minutes. Such a drift slows a fixed piece of work
about as much as it slows the workload, and CPU time drifts with it, so
neither a longer run nor CPU time removes it. The worker therefore times
fixed reference kernels every EVERY_S seconds, between and inside its units
of work, and ``run.py`` scales each end-to-end time by ``NOMINAL_S[kind]``
over the mean reference time around it. A time then reads as it would on a
host where the reference takes its nominal time: a slower program still
reads slower, a slower host does not. The raw wall times are printed beside
the scaled ones.

There are two kernels, because the host's load slows an interpreter loop
and a dense matrix product by different amounts: ``python`` runs small
numpy calls from a Python loop, as ``map_point``, ``step`` and
``load_libsvm`` do, and ``blas`` multiplies two dense matrices, as
``map_many`` on wide data does. Both take about a millisecond, so that
calibrating often costs little and follows short changes of speed. A
workload names the kernel that matches its units; set-ups, which parse
text, use ``python``.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# About each kernel's time on a 2-vCPU x86-64 VM at its faster speed; the
# scale's unit.
NOMINAL_S = {"python": 0.00075, "blas": 0.001}
# Wall time between two calibrations, kernel runs per calibration, and how
# far before and after an item the calibrations that scale it may lie.
EVERY_S = 0.05
RUNS = 3
REACH_S = 0.25


class _Python:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.Z = rng.standard_normal((64, 20))
        self.XS = rng.standard_normal((120, 20))

    def __call__(self):
        acc = 0
        for x in self.XS:
            acc += int(np.argmin(self.Z @ x))
            acc += sum(k * k for k in range(40)) & 1
        return acc


class _Blas:
    def __init__(self):
        rng = np.random.default_rng(1)
        self.A = rng.standard_normal((256, 2000))
        self.B = rng.standard_normal((2000, 64))

    def __call__(self):
        return int(np.argmax(self.A @ self.B))


KERNELS = {"python": _Python, "blas": _Blas}


class SpeedLog:
    """Reference times taken during a run, and the scale of each item.

    After ``start()``, a timer signal calibrates every EVERY_S seconds of
    wall time, also in the middle of a long unit of work. ``calibrate()``
    records, per kernel, the median time of RUNS runs, so that one run
    slowed by an interrupt does not set a scale, and adds its own time to
    ``paused``, which the caller takes out of the item it was timing. An
    item spanning ``t0``..``t1`` is scaled by the calibrations inside it and
    those up to REACH_S before and after it, and at least by the last one
    before it and the first one after it.
    """

    def __init__(self, kinds):
        self.kernels = {k: KERNELS[k]() for k in kinds}
        for kernel in self.kernels.values():
            kernel()  # warm-up: first-call costs are not the host's speed
        self.refs = {k: [] for k in kinds}
        self.times = []  # perf_counter() at each calibration
        self.paused = 0.0  # seconds spent calibrating
        self._busy = False

    def calibrate(self):
        if self._busy:  # the timer fired during a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        for kind, kernel in self.kernels.items():
            self.refs[kind].append(statistics.median(
                _timed(kernel) for _ in range(RUNS)))
        self.times.append(t0)
        self.paused += time.perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, kind, t0, t1):
        """Nominal time over the mean reference time around ``t0``..``t1``."""
        lo = max(0, min(bisect.bisect_left(self.times, t0 - REACH_S),
                        bisect.bisect_left(self.times, t0) - 1))
        hi = max(bisect.bisect_right(self.times, t1 + REACH_S),
                 bisect.bisect_right(self.times, t1) + 1)
        refs = self.refs[kind][lo:hi]
        return NOMINAL_S[kind] / statistics.fmean(refs)


def _timed(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
