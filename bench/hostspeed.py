"""Timing at a fixed host speed, for a benchmark on a shared machine.

The benchmark runs on a few cores of a shared host whose speed changes by up
to about 1.6x for seconds to minutes at a time, as other tenants load the
physical cores; a run of half a minute cannot average that out.  `Timed`
therefore samples the host's speed while it times an interval: every
`PERIOD_S` seconds of wall time a SIGALRM handler, in the main thread, runs
a fixed piece of reference work (small-array numpy and Python bytecode, the
mix of the package's inner loops) and records the CPU time it took.  The
interval's wall and CPU times, less the time spent in the samples, are
reported both as measured (`raw_wall`, `raw_cpu`) and rescaled to a host on
which the reference work takes `REFERENCE_S` (`wall`, `cpu`): each is
multiplied by the mean over the samples of REFERENCE_S / sample time.

The reference work is the benchmark's own code, so a change to the package
moves the rescaled times exactly as it moves the measured ones.  Given a
spool directory, a process forked while the block runs (a sweep's pool
worker) starts sampling too and appends its samples to a file there; they
join the mean, and their CPU time leaves the CPU time counted, when the
block ends.  Their wall time cannot be taken out: it delays the worker by
about as much as the samples delay the timing process, 1%.
"""

from __future__ import annotations

import glob
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 1e-3

_U = np.linspace(0.0, 1.0, 3 * 513).reshape(513, 3) * (1.0 + 1.0j)
_W = np.linspace(1.0, 2.0, 512)


def reference_work() -> float:
    """About a millisecond of fixed work on a (513, 3) complex column."""
    s = 0.0
    for _ in range(20):
        d = np.diff(_U, axis=0)
        s += float(np.sum(_W * np.sum(np.abs(d) ** 2, axis=1)))
        s += sum(j * 0.5 for j in range(60))
    return s


_running = None  # the Timed whose block runs now, in the timing process


class Timed:
    """Times the block it wraps, in wall and CPU time (`cpu_clock` gives the
    CPU seconds to count, children included if they should be), as measured
    and at reference speed.  `spool_dir`, if given, receives the samples of
    processes forked inside the block."""

    def __init__(self, cpu_clock, spool_dir=None):
        self.cpu_clock = cpu_clock
        self.spool_dir = spool_dir
        self.factors = []
        self._spent_wall = self._spent_cpu = 0.0
        self._spool_fd = None  # set in a forked child only

    def _sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_work()
        c1 = time.thread_time()
        factor = REFERENCE_S / max(c1 - c0, 1e-9)
        if self._spool_fd is not None:
            os.write(self._spool_fd, f"{factor!r} {c1 - c0!r}\n".encode())
            return
        self.factors.append(factor)
        self._spent_cpu += c1 - c0
        self._spent_wall += time.perf_counter() - w0

    def _spool_path(self, pid="*"):
        return os.path.join(self.spool_dir, f"speed-{pid}.txt")

    def _start_in_child(self):
        self._spool_fd = os.open(self._spool_path(os.getpid()),
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def __enter__(self):
        global _running
        if self.spool_dir is not None:
            os.makedirs(self.spool_dir, exist_ok=True)
            _running = self
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._cpu0, self._wall0 = self.cpu_clock(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        global _running
        wall, cpu = time.perf_counter() - self._wall0, self.cpu_clock() - self._cpu0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        _running = None
        if self.spool_dir is not None:
            for path in glob.glob(self._spool_path()):
                with open(path) as f:
                    for line in f:
                        factor, spent = line.split()
                        self.factors.append(float(factor))
                        self._spent_cpu += float(spent)
                os.remove(path)
        self.raw_wall = wall - self._spent_wall
        self.raw_cpu = cpu - self._spent_cpu
        if not self.factors:  # shorter than one period: sample once, after it
            self._sample()
        scale = statistics.fmean(self.factors)
        self.wall, self.cpu = self.raw_wall * scale, self.raw_cpu * scale
        return False


def _after_fork_in_child():
    if _running is not None:
        _running._start_in_child()


os.register_at_fork(after_in_child=_after_fork_in_child)
