"""The four benchmark workloads: seeded inputs, one timed round, its checks.

Each workload is a `Workload` with

* `build(seed, workdir, small)`: the inputs, made from the seed alone (the
  package receives only the generated values); `small` gives the reduced
  size the self-test uses;
* `run(inputs, tr)`: one round of operations through the package's public
  functions, every call inside a span of the tracer `tr`; returns the
  outputs the checks read;
* `check(inputs, outputs)`: the list of failed output checks (empty when
  all pass), made from properties the method must have;
* `probe(inputs)`: the direct solver's per-column set-up, timed as one CN
  step per distinct column (traced runs only): (seconds, columns).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotstrip import cli
from rotstrip.correctors import assemble_dirichlet_approx, assemble_wind_approx
from rotstrip.direct import fit_decay, solve_direct
from rotstrip.envelope import damping_table
from rotstrip.harness import compare
from rotstrip.layers import (AmbiguousSelectionWarning, BoundaryTrace, build_B,
                             decay_rates, empty_trace, trace_residuals)
from rotstrip.params import Params
from rotstrip.spectral import SpectralField

import checks
from tracing import TimedTarget, count_direct


@dataclass(frozen=True)
class Workload:
    ops: object  # inputs -> operations attempted per round
    build: object
    run: object
    check: object
    probe: object
    min_rounds: int = 1


def _unit_phase(rng) -> complex:
    return complex(np.exp(2j * math.pi * rng.uniform()))


@contextlib.contextmanager
def _count_ambiguous(tr):
    """Catch every AmbiguousSelectionWarning of the block and count it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AmbiguousSelectionWarning)
        yield
    tr.count("layers.ambiguous_selections",
             sum(issubclass(w.category, AmbiguousSelectionWarning) for w in caught))


def _compare(tr, direct, target, times):
    if tr.enabled:
        target = TimedTarget(target, tr)
    with tr.span("harness.compare"):
        return compare(direct, target, times)


class EnvelopeOnly:
    """The filtered interior alone: what the convergence claim compares with.

    The harness has its own private copy; the benchmark keeps this one so a
    refactor of harness internals cannot change what the benchmark runs."""

    def __init__(self, approx):
        part = approx.parts["interior_envelope"]
        self.parts = {"interior_envelope": part}
        self.hat_profile = part.hat_profile


def _solve_probe(cases):
    """Time solve_direct with a single CN step for each (gamma, sigma, params,
    dt, Nz, columns) case; returns (seconds, columns)."""
    seconds, columns = 0.0, 0
    for gamma, sigma, params, dt, Nz, ncol in cases:
        t0 = time.perf_counter()
        solve_direct(gamma, sigma, params, t_end=dt, dt=dt, Nz=Nz, save_every=1)
        seconds += time.perf_counter() - t0
        columns += ncol
    return seconds, columns


# -- spindown_desk -----------------------------------------------------------
#
# The criterion-6 pipeline: one column, the step loop of the direct solver
# is nearly all of the time, so a faster CN step shows here first.  The run
# ends at t = 0.15 rather than the criterion's 0.5 so that a round takes a
# few seconds and every benchmark run holds several rounds; the decay fit
# over (0.03, 0.15) still lands within 0.2% of the closed-form rate.

SPINDOWN_MODE = (1, 0, 1)
SPINDOWN_T_END = 0.15


def spindown_build(seed, workdir, small=False):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.5, 2.0) * _unit_phase(rng)
    return {
        "gamma": SpectralField({SPINDOWN_MODE: amp}),
        "epsilons": (3e-3, 1e-3) if small else (1e-2, 3e-3, 1e-3),
        "dt_factor": 20.0 if small else 50.0,
        "Nz": 256 if small else 512,
        "t_end": SPINDOWN_T_END,
        "save_every": 50,
    }


def spindown_run(inp, tr):
    gamma = inp["gamma"]
    times = np.linspace(0.0, inp["t_end"], 11)
    rows = []
    for eps in inp["epsilons"]:
        p = Params(eps, eps)
        dt = eps / inp["dt_factor"]
        with tr.span("direct.solve"):
            out = solve_direct(gamma, None, p, t_end=inp["t_end"], dt=dt, Nz=inp["Nz"],
                               save_every=inp["save_every"])
        count_direct(tr, out, dt)
        with _count_ambiguous(tr), tr.span("correctors.assemble_dirichlet"):
            approx = assemble_dirichlet_approx(gamma, p)
        tr.count("correctors.parts", len(approx.parts))
        envelope = _compare(tr, out, EnvelopeOnly(approx), times)
        full = _compare(tr, out, approx, times)
        rows.append({"eps": eps, "out": out, "envelope": envelope, "full": full})
    return rows


def spindown_check(inp, rows):
    gamma = inp["gamma"]
    eps_min = rows[-1]["eps"]
    traj = rows[-1]["out"][SPINDOWN_MODE[:2]]
    fit = fit_decay(traj, (0.2 * inp["t_end"], inp["t_end"]), SPINDOWN_MODE)
    limit = checks.spindown_limit_rate(SPINDOWN_MODE, eps_min, eps_min)
    failures = checks.decreasing_below([r["envelope"]["sup_error"] for r in rows],
                                       0.1 * gamma.norm(), "envelope sup error")
    failures += checks.rate_near(fit.rate.real, limit.real, 0.10,
                                 f"fitted spin-down rate at eps={eps_min:g}")
    for r in rows:
        for (k_h, tr_) in r["out"].items():
            failures += checks.energy_non_increasing(
                checks.snapshot_energies(tr_.z, [u for u, _ in tr_.snapshots]),
                f"eps={r['eps']:g} k_h={k_h}")
        failures += checks.no_flags(r["full"]["attribution_flags"],
                                    f"full-sum compare at eps={r['eps']:g}")
    return failures


def spindown_probe(inp):
    return _solve_probe([(inp["gamma"], None, Params(eps, eps), eps / inp["dt_factor"],
                          inp["Nz"], 1) for eps in inp["epsilons"]])


# -- wind_shells -------------------------------------------------------------
#
# Surface stress on all 25 columns |k1|, |k2| <= 2: five |k_h|^2 shells plus
# k_h = 0.  Per-column assembly and LU are about half of the direct time
# here, so assembly or shell-wise factorisation changes show here and not
# on spindown_desk.

WIND_EPS = 1e-2
#: forcing frequency of each |k_h|^2 shell; k_h = 0 is resonant (mu = 1)
SHELL_MU = {0: 1.0, 1: 1.0, 2: 0.0, 4: 0.5, 5: 0.0, 8: 0.5}


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def shells(kmax=2):
    """{|k_h|^2: [columns]} for |k1|, |k2| <= kmax, reference column first."""
    out = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            out.setdefault(k1 * k1 + k2 * k2, []).append((k1, k2))
    return {r2: sorted(cols, key=lambda k: (-k[0], -k[1])) for r2, cols in sorted(out.items())}


def angle_between(k, ref):
    return math.atan2(k[1], k[0]) - math.atan2(ref[1], ref[0])


def wind_stress(seed):
    """{(mu, k_h): stress vector}: each shell carries rotated copies of one
    seeded complex stress vector at the shell's frequency."""
    rng = np.random.default_rng(seed)
    table = {}
    for r2, cols in shells().items():
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v *= rng.uniform(0.5, 1.5) / np.linalg.norm(v)
        for k in cols:
            table[(SHELL_MU[r2], k)] = rotation(angle_between(k, cols[0])) @ v
    return table


def wind_build(seed, workdir, small=False):
    table = wind_stress(seed)
    if small:
        table = {key: v for key, v in table.items() if key[1][0] ** 2 + key[1][1] ** 2 <= 2}
    return {
        "sigma": BoundaryTrace(1, table),
        "params": Params(WIND_EPS, WIND_EPS, beta=1.0),
        "dt": WIND_EPS / 10.0,
        "Nz": 128 if small else 256,
        "t_end": 0.3,
        "save_every": 25,
    }


def wind_run(inp, tr):
    p = inp["params"]
    with tr.span("direct.solve"):
        out = solve_direct(SpectralField({}), inp["sigma"], p, t_end=inp["t_end"],
                           dt=inp["dt"], Nz=inp["Nz"], save_every=inp["save_every"])
    count_direct(tr, out, inp["dt"])
    with _count_ambiguous(tr), tr.span("correctors.assemble_wind"):
        approx = assemble_wind_approx(inp["sigma"], p)
    tr.count("correctors.parts", len(approx.parts))
    times = np.linspace(0.0, inp["t_end"], 7)
    res = _compare(tr, out, approx, times)
    with tr.span("correctors.total_norm"):
        approx_norms = [approx.total_norm(t) for t in res["times"]]
    return {"out": out, "approx": approx, "compare": res, "approx_norms": approx_norms}


def wind_check(inp, o):
    out, approx, res = o["out"], o["approx"], o["compare"]
    failures = []
    for r2, cols in shells().items():
        present = [k for k in cols if k in out]
        if len(present) < 2:
            continue
        ref = present[0]
        for k in present[1:]:
            R = rotation(angle_between(k, ref))
            failures += checks.rotated_match(
                [u for u, _ in out[ref].snapshots], [u for u, _ in out[k].snapshots], R,
                1e-12, f"direct column {k} vs {ref}")
            z = out[k].z
            for t in res["times"][-2:]:
                failures += checks.rotated_match(
                    [approx.hat_profile(ref, t, z).T], [approx.hat_profile(k, t, z).T], R,
                    1e-12, f"approximation column {k} vs {ref} at t={t:g}")
    div = max(d["divergence_residual"] for traj in out.values() for d in traj.diagnostics)
    failures += checks.at_most(div, 1e-10, "direct divergence residual")
    failures += checks.no_flags(res["attribution_flags"], "wind compare")
    sup_direct = max(checks.total_l2(out, t) for t in res["times"])
    failures += checks.at_most(sup_direct / max(o["approx_norms"]), 5.0,
                               "sup_direct / sup_approx", strict=True)
    return failures


def wind_probe(inp):
    return _solve_probe([(SpectralField({}), inp["sigma"], inp["params"], inp["dt"],
                          inp["Nz"], len({k for _, k in inp["sigma"].table}))])


# -- asymptotic_grid ---------------------------------------------------------
#
# No direct solve: layers, envelope and correctors do all of the work, so a
# direct-solver change should move nothing here.

ASYM_EPS = (1e-2, 1e-3, 1e-4, 1e-5)
DIRICHLET_MODES = ((1, 0, 1), (0, 1, -1), (1, 1, 2), (0, 0, 1))
NORM_TIMES = (0.0, 0.1, 0.3)


def asym_build(seed, workdir, small=False):
    rng = np.random.default_rng(seed)
    table = wind_stress(seed)
    mu0 = sorted(k for (mu, k) in table if mu == 0.0)
    bottom = {(0.0, k): rng.standard_normal(2) + 1j * rng.standard_normal(2) for k in mu0}
    gamma = {m: rng.uniform(0.5, 1.5) * _unit_phase(rng) for m in DIRICHLET_MODES}
    kmax = 1 if small else 3
    modes = [(a, b, c) for a in range(-kmax, kmax + 1) for b in range(-kmax, kmax + 1)
             for c in range(-kmax, kmax + 1) if (a, b, c) != (0, 0, 0)]
    return {
        "epsilons": ASYM_EPS[:3] if small else ASYM_EPS,
        "sigma": BoundaryTrace(1, table),
        "bottom": BoundaryTrace(0, bottom),
        "mu0_columns": mu0,
        "gamma": SpectralField(gamma),
        "modes": modes,
    }


def asym_run(inp, tr):
    rows = []
    sigma = inp["sigma"]
    for eps in inp["epsilons"]:
        p = Params(eps, eps, beta=1.0)
        row = {"eps": eps, "params": p}
        with tr.span("envelope.damping_table"):
            row["table"] = damping_table(inp["modes"], p)
        with _count_ambiguous(tr):
            for wall, (d0, d1) in enumerate(((inp["bottom"], empty_trace(1)),
                                             (empty_trace(0), sigma))):
                with tr.span("layers.build_B"):
                    sol = build_B(d0, d1, p)
                with tr.span("layers.trace_residuals"):
                    res = trace_residuals(sol, p, 0.1)
                row[f"classical_norm_{wall}"] = sol.part_norm_h("classical")
                row[f"classical_far_trace_{wall}"] = res.max_magnitude(
                    "classical_bottom_at_top" if wall == 0 else "classical_top_at_bottom")
            with tr.span("layers.decay_rates"):
                row["rates"] = [decay_rates(mu, k_h, p) for (mu, k_h) in sorted(sigma.table)]
            with tr.span("correctors.assemble_wind"):
                wind = assemble_wind_approx(sigma, p)
            with tr.span("correctors.assemble_dirichlet"):
                dirichlet = assemble_dirichlet_approx(inp["gamma"], p)
        tr.count("correctors.parts", len(wind.parts) + len(dirichlet.parts))
        with tr.span("correctors.total_norm"):
            for name, approx in (("wind", wind), ("dirichlet", dirichlet)):
                row[f"{name}_norms"] = [(approx.part_norms(t), approx.total_norm(t))
                                        for t in NORM_TIMES]
        row["wind"], row["dirichlet"] = wind, dirichlet
        rows.append(row)
    return rows


def asym_check(inp, rows):
    failures = []
    ens = [r["eps"] ** 2 for r in rows]
    mu0 = [max(checks.restricted_norm(r["wind"], inp["mu0_columns"], t, r["params"])
               for t in NORM_TIMES) for r in rows]
    failures += checks.slope_near(ens, mu0, 0.75, 0.05, "mu=0 wind norm vs eps*nu")
    for wall in (0, 1):
        failures += checks.slope_near(ens, [r[f"classical_norm_{wall}"] for r in rows],
                                      (1 + 2 * wall) / 4, 0.03,
                                      f"classical layer norm at wall {wall}")
    for r in rows:
        p, tag = r["params"], f"eps={r['eps']:g}"
        failures += checks.decay_rates_valid(r["rates"], p, 1e-10, tag)
        for wall in (0, 1):
            # a classical layer has decayed by exp(-O(1/sqrt(eps nu))) at the far wall
            failures += checks.at_most(r[f"classical_far_trace_{wall}"], 1e-12,
                                       f"classical layer of wall {wall} at the far wall, {tag}")
        for name in ("wind", "dirichlet"):
            failures += checks.stopping_lift_exact(r[name], 1e-12, 1e-10, f"{name} {tag}")
            for part_norms, total in r[f"{name}_norms"]:
                failures += checks.finite_positive([total, *part_norms.values()],
                                                   f"{name} norms {tag}")
        if len(r["table"]) != len(inp["modes"]):
            failures.append(f"damping table {tag}: {len(r['table'])} rows for "
                            f"{len(inp['modes'])} modes")
    return failures


def asym_probe(inp):
    return 0.0, 0


# -- ekman_sweep_cli ---------------------------------------------------------
#
# The user-facing path: `rotstrip sweep` through cli.main, harness.run, a
# two-worker process pool and the file output.  The slowest point sets the
# time, so pool overhead and load balance show only here.

SWEEP_EPS = (1e-2, 5e-3, 2e-3, 1e-3)
SWEEP_SPEC = {"kind": "ekman_rate", "mode": [1, 0, 1], "t_end": 0.5, "Nz": 256,
              "dt_factor": 10.0, "save_every": 10}


def sweep_build(seed, workdir, small=False):
    # the ekman_rate experiment fixes its own unit initial mode, so no input
    # of this workload depends on the seed
    spec = dict(SWEEP_SPEC, epsilon=list(SWEEP_EPS[:2] if small else SWEEP_EPS))
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "sweep.json"), "w") as f:
        json.dump(spec, f, indent=2)
    return {"workdir": workdir, "spec": spec, "reference": None, "round": 0}


def sweep_run(inp, tr):
    # the first round's output stays as the reference for byte identity;
    # every later round writes to r1 (same path length, same bytes)
    out = "r0" if inp["round"] == 0 else "r1"
    inp["round"] += 1
    cwd = os.getcwd()
    os.chdir(inp["workdir"])
    try:
        shutil.rmtree(out, ignore_errors=True)
        argv = ["sweep", "--config", "sweep.json", "--out", out, "--parallel", "2",
                "--seedless"]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            with tr.span("cli.main"):
                code = cli.main(argv)
    finally:
        os.chdir(cwd)
    outdir = os.path.join(inp["workdir"], out)
    files = checks.csv_files(outdir)
    if tr.enabled:
        sizes = [os.path.getsize(os.path.join(d, f))
                 for d, _, names in os.walk(outdir) for f in names]
        tr.count("cli.files_written", len(sizes))
        tr.count("cli.bytes_written", sum(sizes))
        tr.count("harness.points", len(checks.read_csv(files["ekman_rate.csv"])))
    return {"code": code, "printed": printed.getvalue(), "outdir": outdir, "files": files}


def sweep_check(inp, o):
    failures = []
    if o["code"] != 0:
        failures.append(f"rotstrip sweep exited {o['code']}: {o['printed'][-300:]}")
    rows = checks.read_csv(o["files"]["ekman_rate.csv"])
    spec = inp["spec"]
    if len(rows) != len(spec["epsilon"]):
        failures.append(f"ekman_rate.csv has {len(rows)} rows for {len(spec['epsilon'])} points")
    for row in rows:
        eps, nu = row["epsilon"], row["nu"]
        limit = checks.spindown_limit_rate(tuple(spec["mode"]), eps, nu).real
        failures += checks.rate_near(row["fitted"], limit, 0.10, f"sweep eps={eps:g}")
    contents = {name: Path(path).read_bytes() for name, path in o["files"].items()}
    if inp["reference"] is None:
        inp["reference"] = contents
    else:
        failures += checks.same_bytes(inp["reference"], contents)
    return failures


def sweep_probe(inp):
    spec = inp["spec"]
    gamma = SpectralField({tuple(spec["mode"]): 1.0})
    return _solve_probe([(gamma, None, Params(eps, eps), eps / spec["dt_factor"],
                          spec["Nz"], 1) for eps in spec["epsilon"]])


WORKLOADS = {
    "spindown_desk": Workload(lambda inp: 4 * len(inp["epsilons"]), spindown_build,
                              spindown_run, spindown_check, spindown_probe),
    "wind_shells": Workload(lambda inp: 3, wind_build, wind_run, wind_check, wind_probe),
    "asymptotic_grid": Workload(lambda inp: 5 * len(inp["epsilons"]), asym_build, asym_run,
                                asym_check, asym_probe),
    "ekman_sweep_cli": Workload(lambda inp: len(inp["spec"]["epsilon"]), sweep_build,
                                sweep_run, sweep_check, sweep_probe, min_rounds=2),
}
