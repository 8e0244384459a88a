"""Self-test of the benchmark: every workload once at reduced size, and every
output check shown to reject a deliberately perturbed output.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def small_round(name, workdir, rounds=1):
    """Build the reduced inputs and run traced rounds; returns the inputs,
    the last round's outputs and its tracer."""
    wl = workloads.WORKLOADS[name]
    inp = wl.build(SEED, str(workdir), True)
    for _ in range(rounds):
        tr = tracing.Tracer(str(workdir))
        with tracing.instrument(tr):
            out = wl.run(inp, tr)
        tr.merge_spool()
        assert wl.check(inp, out) == []
    return inp, out, tr


def rejected(failures, fragment):
    return any(fragment in f for f in failures)


@pytest.fixture(scope="module")
def spindown(tmp_path_factory):
    return small_round("spindown_desk", tmp_path_factory.mktemp("spindown"))


@pytest.fixture(scope="module")
def wind(tmp_path_factory):
    return small_round("wind_shells", tmp_path_factory.mktemp("wind"))


@pytest.fixture(scope="module")
def asym(tmp_path_factory):
    return small_round("asymptotic_grid", tmp_path_factory.mktemp("asym"))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return small_round("ekman_sweep_cli", tmp_path_factory.mktemp("sweep"), rounds=2)


# -- every workload runs and is traced ---------------------------------------


def test_spindown_runs_and_traces(spindown):
    inp, rows, tr = spindown
    assert tr.counts["direct.columns"] == len(inp["epsilons"])
    assert tr.counts["direct.column_steps"] == sum(
        round(inp["t_end"] / (e / inp["dt_factor"])) for e in inp["epsilons"])
    assert tr.number("harness.compare") == 2 * len(inp["epsilons"])
    assert tr.total("correctors.hat_profile") < tr.total("harness.compare")


def test_wind_runs_and_traces(wind):
    inp, o, tr = wind
    assert tr.counts["direct.columns"] == len(o["out"]) == 9
    assert tr.counts["correctors.parts"] == 5
    assert tr.counts["harness.profile_evals"] > 0


def test_asymptotic_grid_runs_and_traces(asym):
    inp, rows, tr = asym
    assert tr.number("envelope.damping_table") == len(inp["epsilons"])
    assert tr.number("layers.build_B") == 2 * len(inp["epsilons"])
    assert "direct.solve" not in {s[0] for s in tr.spans}


def test_sweep_runs_and_traces_workers(sweep):
    inp, o, tr = sweep
    assert tr.counts["harness.points"] == 2
    # spans made in the forked pool workers reach the parent's record
    assert tr.number("direct.solve") == 2 and tr.number("harness.fit_decay") == 2
    assert tr.counts["cli.files_written"] >= 5


def test_tracer_coverage_and_nesting(tmp_path):
    tr = tracing.Tracer(str(tmp_path))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert tr.number("inner") == 1 and tr.top_level() == pytest.approx(tr.total("outer"))


def test_timed_samples_speed_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Timed(time.process_time) as timed:
        time.sleep(3.5 * hostspeed.PERIOD_S)
    assert len(timed.factors) >= 2
    assert timed.raw_wall == pytest.approx(3.5 * hostspeed.PERIOD_S, rel=0.5)
    assert timed.wall == pytest.approx(timed.raw_wall * np.mean(timed.factors))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with hostspeed.Timed(time.process_time) as short:  # shorter than one period
        pass
    assert len(short.factors) == 1 and short.raw_wall < hostspeed.PERIOD_S


def test_timed_samples_forked_children(tmp_path):
    import time

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with hostspeed.Timed(time.process_time, str(tmp_path)) as timed:
        pid = os.fork()
        if pid == 0:
            busy(4.5 * hostspeed.PERIOD_S)
            os._exit(0)
        os.waitpid(pid, 0)
        parent = len(timed.factors)
    assert len(timed.factors) >= parent + 3  # the child's samples joined
    assert list(tmp_path.iterdir()) == []  # and their spool file is gone


# -- every check rejects a perturbed output ----------------------------------


def test_spindown_checks_reject(spindown):
    inp, rows, _ = spindown
    check = workloads.spindown_check

    bad = copy.deepcopy(rows)
    traj = next(iter(bad[0]["out"].values()))
    u, p = traj.snapshots[-1]
    traj.snapshots[-1] = (1.01 * u, p)  # energy that increases
    assert rejected(check(inp, bad), "energy rises")

    bad = copy.deepcopy(rows)
    bad[0]["envelope"]["sup_error"], bad[1]["envelope"]["sup_error"] = (
        bad[1]["envelope"]["sup_error"], bad[0]["envelope"]["sup_error"])
    assert rejected(check(inp, bad), "not strictly decreasing")

    bad = copy.deepcopy(rows)
    bad[-1]["envelope"]["sup_error"] = 0.2 * inp["gamma"].norm()
    assert rejected(check(inp, bad), "not below")

    bad = copy.deepcopy(rows)
    traj = next(iter(bad[-1]["out"].values()))
    traj.snapshots = [(u * math.exp(-0.5 * t), p) for t, (u, p) in zip(traj.times, traj.snapshots)]
    assert rejected(check(inp, bad), "fitted spin-down rate")

    bad = copy.deepcopy(rows)
    bad[0]["full"]["attribution_flags"].append({"time": 0.0, "part": "x", "excess": 1.0})
    assert rejected(check(inp, bad), "attribution flags")


def test_wind_checks_reject(wind):
    inp, o, _ = wind
    check = workloads.wind_check

    bad = dict(o, out=copy.deepcopy(o["out"]))
    ref, k = workloads.shells()[1][:2]
    wrong = workloads.rotation(workloads.angle_between(k, ref) + 0.1)  # wrong angle
    bad["out"][k].snapshots = [(np.column_stack([u[:, :2] @ wrong.T, u[:, 2]]), p)
                               for u, p in bad["out"][ref].snapshots]
    assert rejected(check(inp, bad), f"rotation covariance direct column {k}")

    class Rotated:  # approximation whose column k is rotated by the wrong angle
        parts = o["approx"].parts

        def hat_profile(self, k_h, t, z):
            prof = o["approx"].hat_profile(ref if k_h == k else k_h, t, z)
            if k_h == k:
                prof[:2] = wrong @ prof[:2]
            return prof

    assert rejected(check(inp, dict(o, approx=Rotated())), "rotation covariance approximation")

    bad = dict(o, out=copy.deepcopy(o["out"]))
    next(iter(bad["out"].values())).diagnostics[-1]["divergence_residual"] = 1e-8
    assert rejected(check(inp, bad), "divergence residual")

    bad = dict(o, compare=dict(o["compare"], attribution_flags=[{"part": "x"}]))
    assert rejected(check(inp, bad), "attribution flags")

    bad = dict(o, approx_norms=[n / 100 for n in o["approx_norms"]])
    assert rejected(check(inp, bad), "sup_direct / sup_approx")


class _Scaled:
    """An approximation scaled by a constant: moves norm slopes when the
    constant depends on eps."""

    def __init__(self, approx, factor):
        self.approx, self.factor = approx, factor
        self.parts = approx.parts

    def hat_profile(self, k_h, t, z):
        return self.factor * self.approx.hat_profile(k_h, t, z)

    def horizontal_modes(self):
        return self.approx.horizontal_modes()


def test_asymptotic_grid_checks_reject(asym):
    inp, rows, _ = asym
    check = workloads.asym_check

    bad = [dict(r, wind=_Scaled(r["wind"], r["eps"] ** 0.2)) for r in rows]
    assert rejected(check(inp, bad), "mu=0 wind norm")

    for wall in (0, 1):
        key = f"classical_norm_{wall}"
        bad = [dict(r, **{key: r[key] * r["eps"] ** 0.1}) for r in rows]
        assert rejected(check(inp, bad), f"classical layer norm at wall {wall}")

    bad = [dict(r) for r in rows]
    bad[0]["classical_far_trace_0"] = 1e-6  # a layer that has not decayed
    assert rejected(check(inp, bad), "classical layer of wall 0 at the far wall")

    bad = [dict(r) for r in rows]
    r0 = bad[0]["rates"][1]
    bad[0]["rates"] = [dataclasses.replace(r0, lambda_minus=-r0.lambda_minus)]
    assert rejected(check(inp, bad), "Re lambda")
    bad[0]["rates"] = [dataclasses.replace(r0, lambda_minus=r0.lambda_minus + 0.1)]
    assert rejected(check(inp, bad), "det residual")

    bad = [dict(r) for r in rows]
    wind = copy.deepcopy(rows[0]["wind"])
    field = wind.parts["stopping_lift"].entries[0][0]
    k_h, (p1, p2, p3) = next(iter(field.items()))
    field.modes[k_h] = (p1, p2, p3 + np.polynomial.Polynomial([0.0, 0.0, 1.0]))
    bad[0]["wind"] = wind
    assert rejected(check(inp, bad), "stopping lift divergence")

    wind = copy.deepcopy(rows[0]["wind"])
    field = wind.parts["stopping_lift"].entries[0][0]
    k_h, (p1, p2, p3) = next(iter(field.items()))
    field.modes[k_h] = (p1, p2, p3 + 1e-3)
    bad[0]["wind"] = wind
    assert rejected(check(inp, bad), "vertical wall velocity")

    bad = [dict(r) for r in rows]
    bad[0]["wind_norms"] = [({"x": float("nan")}, 1.0)]
    assert rejected(check(inp, bad), "non-finite")


def test_sweep_checks_reject(sweep):
    inp, o, _ = sweep
    check = workloads.sweep_check

    assert rejected(check(inp, dict(o, code=1)), "exited 1")

    path = o["files"]["ekman_rate.csv"]
    original = Path(path).read_text()
    try:
        rows = checks.read_csv(path)
        with open(path, "w") as f:
            f.write(",".join(rows[0]) + "\n")
            for r in rows:
                values = (1.2 * v if k == "fitted" else v for k, v in r.items())
                f.write(",".join(repr(v) for v in values) + "\n")
        failures = check(inp, o)
        assert rejected(failures, "gap")
        assert rejected(failures, "ekman_rate.csv differs")
    finally:
        Path(path).write_text(original)
    assert check(inp, o) == []


def test_closed_form_rate_tends_to_classical_spin_down():
    # lambda_k -> 0 for |k_h| >> k3: pumping R -> 1/sqrt(2), I -> 0
    rate = checks.spindown_limit_rate((1000, 0, 1), 1.0, 1.0)
    assert rate.real - 1000 ** 2 - math.pi ** 2 == pytest.approx(1 / math.sqrt(2), rel=1e-2)
    assert abs(rate.imag) < 1e-2
