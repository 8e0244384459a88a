"""Span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around its calls into the
package's public functions; nothing inside the package is edited.  A traced
round additionally wraps, for its duration only,

* the public functions of `rotstrip.spectral` where the other modules
  imported them, and the methods of `SpectralField`, so the share of wall
  time spent in `spectral` is measured (summed per call, not spanned);
* the names `harness.run`, `solve_direct` and `fit_decay` as the sweep path
  (`cli.main` -> `harness.run` -> one worker per grid point) looks them up.

Sweep workers are forked from the benchmark process and inherit the wrapped
names; a record made in a worker is appended to one spool file per process
and merged into the parent's record after the sweep.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import inspect
import json
import os
import time


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    """Accumulates spans (name, start, end, depth, pid), named counts, and
    summed times of calls too short and many to keep one span each."""

    enabled = True

    def __init__(self, spool_dir: str):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans = []
        self.counts = {}
        self.times = {}  # name -> [seconds, calls]
        self.depth = 0
        self.in_spectral = False

    @contextlib.contextmanager
    def span(self, name):
        depth = self.depth
        self.depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.depth = depth
            self._record(["span", name, t0, t1, depth])

    def count(self, name, n=1):
        self._record(["count", name, n])

    def add_time(self, name, seconds):
        self._record(["time", name, seconds])

    def _record(self, rec):
        pid = os.getpid()
        if pid == self.pid:
            self._add(rec, pid)
            return
        path = os.path.join(self.spool_dir, f"spool-{pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(rec) + "\n")

    def _add(self, rec, pid):
        kind, name, *value = rec
        if kind == "span":
            t0, t1, depth = value
            self.spans.append((name, t0, t1, depth, pid))
        elif kind == "count":
            self.counts[name] = self.counts.get(name, 0) + value[0]
        else:
            acc = self.times.setdefault(name, [0.0, 0])
            acc[0] += value[0]
            acc[1] += 1

    def merge_spool(self):
        """Fold the records that worker processes spooled into this tracer."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spool-*.jsonl"))):
            pid = int(os.path.basename(path)[len("spool-"):-len(".jsonl")])
            with open(path) as f:
                for line in f:
                    self._add(json.loads(line), pid)
            os.remove(path)

    # -- aggregation ---------------------------------------------------------

    def total(self, name) -> float:
        """Summed duration of every span or timed call of that name, in any
        process."""
        return (sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)
                + self.times.get(name, [0.0, 0])[0])

    def number(self, name) -> int:
        return (sum(1 for n, *_ in self.spans if n == name)
                + self.times.get(name, [0.0, 0])[1])

    def top_level(self) -> float:
        """Time covered by the outermost spans of the benchmark process."""
        return sum(t1 - t0 for _, t0, t1, depth, pid in self.spans
                   if depth == 0 and pid == self.pid)


def count_direct(tr, out: dict, dt: float):
    """Exact work counts of one solve_direct result."""
    tr.count("direct.columns", len(out))
    tr.count("direct.column_steps",
             sum(int(round(traj.times[-1] / dt)) for traj in out.values()))
    tr.count("direct.snapshots", sum(len(traj.snapshots) for traj in out.values()))


class TimedPart:
    """A part of an approximation whose hat_profile calls are timed."""

    def __init__(self, part, tr):
        self._part = part
        self._tr = tr

    def hat_profile(self, k_h, t, z):
        self._tr.count("harness.profile_evals")
        with self._tr.span("correctors.hat_profile"):
            return self._part.hat_profile(k_h, t, z)

    def l2_norm(self, t):
        return self._part.l2_norm(t)


class TimedTarget(TimedPart):
    """The approximation handed to `compare`, with its parts timed too."""

    def __init__(self, target, tr):
        super().__init__(target, tr)
        self.parts = {name: TimedPart(p, tr) for name, p in target.parts.items()}


# -- wrapping names inside the package for one traced round ------------------


def _spectral_wrapper(tr, fn):
    # spectral calls are many and short: their time is summed, not spanned,
    # and a call made inside another spectral call is not timed again
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if tr.in_spectral:
            return fn(*args, **kwargs)
        tr.in_spectral = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.add_time("spectral", time.perf_counter() - t0)
            tr.in_spectral = False
    return wrapped


def _spans_wrapper(tr, name, fn, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
    return wrapped


@contextlib.contextmanager
def instrument(tr):
    """Wrap the spectral functions and the sweep path for one traced round."""
    from rotstrip import cli, correctors, direct, envelope, harness, layers, spectral

    def count_solve(out, *args, **kwargs):
        count_direct(tr, out, kwargs["dt"])

    patches = [  # (owner, attribute, replacement)
        (cli, "run", _spans_wrapper(tr, "harness.run", cli.run)),
        (harness, "solve_direct",
         _spans_wrapper(tr, "direct.solve", harness.solve_direct, after=count_solve)),
        (harness, "fit_decay", _spans_wrapper(tr, "harness.fit_decay", harness.fit_decay)),
    ]
    for owner in (layers, envelope, correctors, direct, harness, cli, spectral.SpectralField):
        for attr, val in list(vars(owner).items()):
            if inspect.isfunction(val) and val.__module__ == spectral.__name__:
                patches.append((owner, attr, _spectral_wrapper(tr, val)))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapped in patches:
        setattr(owner, attr, wrapped)
    try:
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
