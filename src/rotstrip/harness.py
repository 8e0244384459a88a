"""Experiment runner: sweeps, scaling regressions and oracle comparisons.

Every experiment is batch-style: a validated spec fans out over a parameter
grid, each grid point writes flat CSVs into its own directory, and a single
top-level JSON summary collects the regression results and pass/fail verdicts
against the declared tolerances.  Reruns of the same spec produce
byte-identical numeric tables (fixed mode orderings, no randomness anywhere).
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .params import Params, _finite, check_integer, check_integers
from .spectral import SpectralField
from .layers import BoundaryTrace, HeatColumn, build_B, empty_trace
from .envelope import damping_rate, damping_table, envelope_trajectory
from .correctors import ApproxSolution, assemble_dirichlet_approx, assemble_wind_approx
from .direct import (MIN_WALL_NODES, diagnostics_csv, fit_decay, graded_nodes, l2_norm,
                     solve_direct, solver_modules)

#: default tolerances, mirroring the acceptance thresholds
DEFAULT_TOLERANCES = {
    "classical_slope": 0.03,
    "quasi_slope": 0.05,
    "resonant_slope": 0.05,
    "rate_slope": 0.05,
    "interior_fraction_min": 0.10,
    "ekman_rate_rel": 0.10,
    "dirichlet_final_rel": 0.10,
    "wind_direct_factor": 5.0,
    "wind_norm_slope": 0.05,
}


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


@dataclass
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    residuals: list


def regress_loglog(points) -> RegressionResult:
    """Ordinary least squares on (log x, log y).  Requires >= 3 finite,
    strictly positive points at >= 2 distinct x."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points for a regression, got {len(pts)}")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError(f"log-log regression requires finite data, got {pts}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log regression requires positive data")
    if len({x for x, _ in pts}) < 2:
        raise ValueError(f"log-log regression requires at least 2 distinct x, got {pts}")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = A @ coef
    res = ly - fit
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(res ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(slope=float(coef[0]), intercept=float(coef[1]),
                            r_squared=r2, residuals=[float(r) for r in res])


# ---------------------------------------------------------------------------
# experiment specification
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    kind: str
    epsilon: list
    nu: list | None = None  # None: nu = epsilon pointwise
    beta: list | None = None  # None: Params.beta pointwise
    mode: tuple = (1, 0, 1)
    k_h: tuple = (1, 0)
    mu: float = 0.0
    t_end: float = 0.5
    Nz: int = 256
    dt_factor: float = 10.0  # dt = epsilon / dt_factor
    save_every: int = 10
    out: str = "rotstrip_out"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        kinds = tuple(_EXPERIMENTS)
        if self.kind not in kinds:
            raise ValueError(f"unknown experiment kind {self.kind!r}; choose from {kinds}")
        for key in ("epsilon", "nu", "beta"):
            grid = getattr(self, key)
            if grid is None and key != "epsilon":
                continue  # the defaults below
            if not isinstance(grid, (list, tuple)):
                raise ValueError(f"{key}={grid!r} must be a list of finite numbers")
            setattr(self, key, [_finite(key, v) for v in grid])
        if not self.epsilon:
            raise ValueError("parameter grid is empty")
        self.nu = list(self.epsilon) if self.nu is None else self.nu
        if len(self.nu) != len(self.epsilon):
            raise ValueError("nu grid must match epsilon grid")
        self.beta = [Params.beta] * len(self.epsilon) if self.beta is None else self.beta
        if len(self.beta) == 1 and len(self.epsilon) > 1:
            self.beta = self.beta * len(self.epsilon)
        if len(self.beta) != len(self.epsilon):
            raise ValueError("beta grid must match epsilon grid")
        grid = self.grid()
        if len(set(grid)) != len(grid):
            raise ValueError(f"grid points (epsilon, nu, beta) repeat: {grid}")
        for eps, nu, beta in grid:
            Params(eps, nu, beta)  # every grid point's parameters, checked up front
        for key in ("mu", "t_end", "dt_factor"):  # stored as the floats they are checked as
            setattr(self, key, _finite(key, getattr(self, key)))
        if not self.t_end >= 0.0:
            raise ValueError(f"t_end={self.t_end:g} must be >= 0")
        self.mode = check_integers("mode", self.mode, 3)
        self.k_h = check_integers("k_h", self.k_h, 2)
        check_integer("Nz", self.Nz, 4 * MIN_WALL_NODES)
        # built once for the solves; not a field, so that asdict(spec) omits it
        self.gradings = [None] * len(grid)
        for i in _EXPERIMENTS[self.kind].solved(grid):
            eps, nu, _ = grid[i]
            try:
                self.gradings[i] = graded_nodes(self.Nz, Params(eps, nu).layer_scale)
            except ValueError as err:
                raise ValueError(f"grid point epsilon={eps:g}, nu={nu:g}: {err}") from None
        check_integer("save_every", self.save_every, 1)
        if not self.dt_factor >= 10.0:
            raise ValueError(f"dt_factor={self.dt_factor:g} must be at least 10: the direct "
                             "solver needs dt = epsilon/dt_factor <= epsilon/10")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(f"tolerances={self.tolerances!r} must be a mapping of finite "
                             "numbers >= 0")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerance key(s) {unknown}; "
                             f"choose from {sorted(DEFAULT_TOLERANCES)}")
        tol = dict(DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            tol[name] = _finite(f"tolerances[{name!r}]", value, 0.0)
        self.tolerances = tol

    def grid(self):
        return list(zip(self.epsilon, self.nu, self.beta))


def _check(name, value, tolerance, passed):
    return {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" if isinstance(v, (int, float)) else str(v)
                             for v in row) + "\n")


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


ATTRIBUTION_TOL = 1e-3  # compare's metric slack, relative to 1 + part norm + error


def compare(direct: dict, approx, times):
    """Sup-over-times L2 differences between a direct solve and an assembled
    approximation, with per-part attribution.

    direct: {k_h: ModeTrajectory}; approx exposes hat_profile(k_h, t, z) and
    a parts dict whose profiles sum to it.  Each part is evaluated once per
    column and time; a target with no parts is evaluated through its own
    hat_profile.  Returns a dict with the error curve, per-part norms, and
    an attribution-completeness flag: dropping one part must not change the
    error by more than that part's norm (triangle inequality); violations
    beyond the quadrature-vs-Parseval metric slack indicate an evaluation
    bug and are flagged.
    """
    times = list(times)
    some = next(iter(direct.values()))
    saved = np.asarray(some.times)
    parts = approx.parts
    curve = []
    part_norms = {n: [] for n in parts}
    flags = []
    for t in times:
        idx = int(np.argmin(np.abs(saved - t)))
        t_actual = float(saved[idx])
        err_sq = 0.0
        err_wo = {n: 0.0 for n in parts}
        for k_h, traj in sorted(direct.items()):
            u = traj.snapshots[idx][0]  # (Nz+1, 3)
            w = traj.weights
            profs = {n: p.hat_profile(k_h, t_actual, traj.z) for n, p in parts.items()}
            prof = (sum(profs.values(), np.zeros(u.T.shape, dtype=complex)) if profs
                    else approx.hat_profile(k_h, t_actual, traj.z))
            diff = u.T - prof
            err_sq += float(np.sum(w * np.sum(np.abs(diff) ** 2, axis=0)))
            for n, pn in profs.items():
                d2 = diff + pn  # dropping part n
                err_wo[n] += float(np.sum(w * np.sum(np.abs(d2) ** 2, axis=0)))
        err = 2.0 * math.pi * math.sqrt(err_sq)
        curve.append((t_actual, err))
        for n, p in parts.items():
            norm_n = p.l2_norm(t_actual)
            part_norms[n].append(norm_n)
            err_n = 2.0 * math.pi * math.sqrt(err_wo[n])
            if abs(err_n - err) > norm_n + ATTRIBUTION_TOL * (1.0 + norm_n + err):
                flags.append({"time": t_actual, "part": n,
                              "excess": abs(err_n - err) - norm_n})
    return {
        "times": [t for t, _ in curve],
        "errors": [e for _, e in curve],
        "sup_error": max(e for _, e in curve),
        "part_norms": part_norms,
        "attribution_flags": flags,
    }


# ---------------------------------------------------------------------------
# the experiments
# ---------------------------------------------------------------------------


def _exp_bl_scaling(spec: ExperimentSpec, outdir):
    tol = spec.tolerances
    rows = []
    for j, side in ((0, 0), (1, 1)):
        for kind, mu in (("classical", 0.0), ("quasi", 1.0)):
            xs, ys = [], []
            for i, (eps, nu, _) in enumerate(spec.grid()):
                p = Params(eps, nu)
                table = {(mu, spec.k_h): np.array([1.0, 0.0])}
                if side == 0:
                    sol = build_B(BoundaryTrace(0, table), empty_trace(1), p)
                else:
                    sol = build_B(empty_trace(0), BoundaryTrace(1, table), p)
                part = "classical" if kind == "classical" else "quasi_resonant"
                norm = sol.part_norm_h(part)
                x = eps * nu if kind == "classical" else eps * nu / (eps + math.sqrt(eps * nu))
                xs.append(x)
                ys.append(norm)
                rows.append((kind, j, eps, nu, x, norm))
            reg = regress_loglog(zip(xs, ys))
            target = (1 + 2 * j) / 4.0
            tolerance = tol["classical_slope"] if kind == "classical" else tol["quasi_slope"]
            yield _check(f"{kind}_slope_j{j}", reg.slope, f"{target}+-{tolerance}",
                         abs(reg.slope - target) <= tolerance)
    _write_csv(os.path.join(outdir, "bl_scaling.csv"),
               ["kind", "side", "epsilon", "nu", "x", "norm_h"], rows)


def _exp_resonant_growth(spec: ExperimentSpec, outdir):
    tol = spec.tolerances
    eps, nu, _ = spec.grid()[0]
    p = Params(eps, nu)
    table = {(1.0, (0, 0)): np.array([1.0, 1j])}
    sol = build_B(BoundaryTrace(0, table), empty_trace(1), p)
    (layer,) = sol.resonant
    nuts = np.geomspace(1e-4, 1e-2, 7)
    rows = [(nut, layer.l2_norm_h(nut / nu)) for nut in nuts]
    _write_csv(os.path.join(outdir, "resonant_growth.csv"), ["nu_t", "norm_h"], rows)
    reg = regress_loglog(rows)
    yield _check("resonant_growth_slope", reg.slope, f"0.25+-{tol['resonant_slope']}",
                 abs(reg.slope - 0.25) <= tol["resonant_slope"])
    frac = layer.interior_mass_fraction(1.0 / nu)
    yield _check("interior_mass_fraction_at_nut1", frac,
                 f">={tol['interior_fraction_min']}", frac >= tol["interior_fraction_min"])


def _safe_call(worker, job):
    try:
        return worker(job)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _map_points(worker, jobs, parallel: int):
    """Run per-grid-point jobs, optionally in parallel; results come back in
    grid order regardless of scheduling.  A failing point is recorded as
    {"error": ...} and the remaining points still run.

    Each job carries its grid point (eps, nu, beta) second.  A pool gets
    the points longest first, in order of increasing eps (at fixed Nz, t_end
    and dt_factor a point's step count scales as 1/eps), so that the slowest
    point starts at once instead of queueing behind the others."""
    if parallel == 1 or len(jobs) <= 1:
        return [_safe_call(worker, job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    # load scipy here, once: forked workers inherit it instead of each
    # importing it again
    solver_modules()
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][1][0])
    results = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=min(parallel, len(jobs))) as pool:
        futures = [(i, pool.submit(_safe_call, worker, jobs[i])) for i in order]
        for i, f in futures:
            results[i] = f.result()
    return results


def _solve(spec: ExperimentSpec, gamma, sigma, p: Params, grading):
    """solve_direct at the spec's end time, step, Nz and save interval."""
    return solve_direct(gamma, sigma, p, t_end=spec.t_end, dt=p.epsilon / spec.dt_factor,
                        Nz=spec.Nz, grading=grading, save_every=spec.save_every)


def _ekman_point(job):
    spec, (eps, nu, _), pointdir, grading = job
    p = Params(eps, nu)
    traj = _solve(spec, SpectralField({spec.mode: 1.0}), None, p, grading)[spec.mode[:2]]
    diagnostics_csv(traj, os.path.join(pointdir, "diagnostics.csv"))
    fit = fit_decay(traj, (0.2 * spec.t_end, spec.t_end), spec.mode)
    pred = damping_rate(spec.mode, p)
    return {"epsilon": eps, "nu": nu, "fitted": fit.rate.real,
            "predicted": pred.real,
            "rel_error": abs(fit.rate.real - pred.real) / pred.real}


def _exp_ekman_rate(spec: ExperimentSpec, outdir, ran):
    tol = spec.tolerances
    rows = []
    for i, r in ran.items():
        rows.append((r["epsilon"], r["nu"], r["fitted"], r["predicted"], r["rel_error"]))
        yield _check(f"ekman_rate_point{i}", r["rel_error"], f"<={tol['ekman_rate_rel']}",
                     r["rel_error"] <= tol["ekman_rate_rel"])
    _write_csv(os.path.join(outdir, "ekman_rate.csv"),
               ["epsilon", "nu", "fitted", "predicted", "rel_error"], rows)


def _dirichlet_point(job):
    spec, (eps, nu, _), pointdir, grading = job
    gamma = SpectralField({spec.mode: 1.0})
    p = Params(eps, nu)
    out = _solve(spec, gamma, None, p, grading)
    envelope = assemble_dirichlet_approx(gamma, p).parts["interior_envelope"]
    res = compare(out, ApproxSolution(p, {"interior_envelope": envelope}),
                  np.linspace(0.0, spec.t_end, 11))
    _write_csv(os.path.join(pointdir, "error_curve.csv"), ["t", "error"],
               list(zip(res["times"], res["errors"])))
    return {"epsilon": eps, "nu": nu, "sup_error": res["sup_error"],
            "times": res["times"], "errors": res["errors"]}


def _exp_dirichlet_convergence(spec: ExperimentSpec, outdir, ran):
    tol = spec.tolerances
    rows = [(r["epsilon"], r["nu"], t, e)
            for r in ran.values() for t, e in zip(r["times"], r["errors"])]
    _write_csv(os.path.join(outdir, "dirichlet_convergence.csv"),
               ["epsilon", "nu", "t", "error"], rows)
    sups = [r["sup_error"] for r in ran.values()]
    if not sups:
        return
    decreasing = (len(sups) == len(spec.epsilon)
                  and all(sups[i + 1] < sups[i] for i in range(len(sups) - 1)))
    yield _check("error_strictly_decreasing", sups, "decreasing", decreasing)
    # the error as a fraction of the datum's norm, 1 for the single unit mode
    yield _check("final_error_fraction", sups[-1], f"<{tol['dirichlet_final_rel']}",
                 sups[-1] < tol["dirichlet_final_rel"])


def _wind_point(job):
    spec, (eps, nu, beta), pointdir, grading = job
    p = Params(eps, nu, beta)
    sigma = BoundaryTrace(1, {(spec.mu, spec.k_h): np.array([1.0, 0.0])})
    approx = assemble_wind_approx(sigma, p)
    sup_app = max(approx.total_norm(t) for t in np.linspace(0.0, spec.t_end, 6))
    with open(os.path.join(pointdir, "part_norms.json"), "w") as f:
        json.dump(approx.summary(spec.t_end / 2), f, indent=2, default=str)
    sup_direct = None
    if grading is not None:  # the one point solved directly
        out = _solve(spec, SpectralField({}), sigma, p, grading)
        sup_direct = max(l2_norm(u, traj.weights)
                         for traj in out.values() for (u, _) in traj.snapshots)
    return {"epsilon": eps, "nu": nu, "beta": beta,
            "sup_approx": sup_app, "sup_direct": sup_direct}


def _exp_wind_convergence(spec: ExperimentSpec, outdir, ran):
    tol = spec.tolerances
    rows = [(r["epsilon"], r["nu"], r["beta"], r["sup_approx"]) for r in ran.values()]
    _write_csv(os.path.join(outdir, "wind_convergence.csv"),
               ["epsilon", "nu", "beta", "sup_norm"], rows)
    for r in ran.values():
        if r["sup_direct"] is not None and r["sup_approx"] > 0:
            factor = r["sup_direct"] / r["sup_approx"]
            yield _check("direct_vs_approx_factor", factor,
                         f"<{tol['wind_direct_factor']}",
                         factor < tol["wind_direct_factor"])
    if len(ran) >= 3:
        reg = regress_loglog([(r["epsilon"] * r["nu"], r["sup_approx"]) for r in ran.values()])
        yield _check("wind_norm_slope", reg.slope, f"0.75+-{tol['wind_norm_slope']}",
                     abs(reg.slope - 0.75) <= tol["wind_norm_slope"])


def _exp_destabilization(spec: ExperimentSpec, outdir):
    """Resonant k_h = 0 stress run toward nu*t = O(1): the response fills the
    column.  Two references: the half-space self-similar profile (valid while
    the layer is clear of the bottom, nu*t <~ 0.1) and the strip heat response
    with no-slip bottom, valid on the whole window."""
    eps, nu, beta = spec.grid()[0]
    p = Params(eps, nu, beta)
    sigma = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 1j])})
    bl = build_B(empty_trace(0), sigma.scaled(p.beta), p)
    (layer,) = bl.resonant
    strip = HeatColumn(layer.side, layer.nu, layer.epsilon, layer.entries)
    out = _solve(spec, SpectralField({}), sigma, p, np.linspace(0.0, 1.0, spec.Nz + 1))
    traj = out[(0, 0)]
    rows = []
    rel_self, rel_strip = [], []
    for i, t in enumerate(traj.times):
        if t == 0.0 or t < 0.05 * spec.t_end:
            continue
        u = traj.snapshots[i][0]
        nrm = strip.l2_norm_h(t)

        def rel_to(ref):
            err = l2_norm(u - ref.T, traj.weights)
            return err / nrm if nrm > 0 else math.inf

        r_self = rel_to(layer.value(t, traj.z))
        r_strip = rel_to(strip.value(t, traj.z))
        rows.append((t, nu * t, r_self, r_strip, nrm))
        if nu * t <= 0.1:
            rel_self.append(r_self)
        rel_strip.append(r_strip)
    _write_csv(os.path.join(outdir, "destabilization.csv"),
               ["t", "nu_t", "rel_err_selfsimilar", "rel_err_strip", "profile_norm"],
               rows)
    if rel_self:
        yield _check("selfsimilar_rel_error_early", max(rel_self), "<0.2",
                     max(rel_self) < 0.2)
    yield _check("strip_response_rel_error", max(rel_strip), "<0.2",
                 max(rel_strip) < 0.2)
    frac = layer.interior_mass_fraction(traj.times[-1])
    yield _check("interior_mass_fraction_final", frac,
                 f">={spec.tolerances['interior_fraction_min']}",
                 frac >= spec.tolerances["interior_fraction_min"])


class _Kind(NamedTuple):
    """One sweep kind.  experiment yields checks from (spec, outdir), or on a
    pooled kind, whose points run through _map_points as point(job), from
    (spec, outdir, {index: result of a point that ran}); a failed point i is
    the check f"{point_check}{i}".  solved(grid): the indices of the points
    solve_direct runs on with a graded grid."""
    experiment: Callable
    point: Callable | None = None
    point_check: str = ""
    single_point: bool = False
    solved: Callable = lambda grid: ()


#: the sweep kinds, in the order error messages list them
_EXPERIMENTS = {
    "bl_scaling": _Kind(_exp_bl_scaling),
    "resonant_growth": _Kind(_exp_resonant_growth, single_point=True),
    # wind_convergence solves its smallest-eps point directly, and only that
    "wind_convergence": _Kind(_exp_wind_convergence, _wind_point, "wind_point",
                              solved=lambda grid: [int(np.argmin([g[0] for g in grid]))]),
    "dirichlet_convergence": _Kind(_exp_dirichlet_convergence, _dirichlet_point,
                                   "dirichlet_point", solved=lambda grid: range(len(grid))),
    "ekman_rate": _Kind(_exp_ekman_rate, _ekman_point, "ekman_rate_point",
                        solved=lambda grid: range(len(grid))),
    "destabilization": _Kind(_exp_destabilization, single_point=True),
}


def _run_points(kind: _Kind, spec: ExperimentSpec, outdir, parallel):
    """A pooled kind's grid points: job i is (spec, point i, its point_NNN
    directory, its graded grid or None) through _map_points.  A failed
    point becomes its "point must run" check; the points that ran go to the
    kind's experiment."""
    jobs = []
    for i, (pt, grading) in enumerate(zip(spec.grid(), spec.gradings)):
        pointdir = os.path.join(outdir, f"point_{i:03d}")
        os.makedirs(pointdir, exist_ok=True)
        jobs.append((spec, pt, pointdir, grading))
    ran = {}
    for i, r in enumerate(_map_points(kind.point, jobs, parallel)):
        if "error" in r:
            yield _check(f"{kind.point_check}{i}", r["error"], "point must run", False)
        else:
            ran[i] = r
    yield from kind.experiment(spec, outdir, ran)


def run(spec: ExperimentSpec, parallel: int = 1) -> dict:
    """Execute one experiment spec; returns (and writes) the summary.

    Grid points run in independent output directories (in parallel when
    parallel > 1); point failures are recorded and the run continues.
    parallel > 1 on a kind that runs in the calling process, or a grid of
    more than one point on a single-point kind, is rejected: neither would
    be honoured."""
    kind = _EXPERIMENTS[spec.kind]
    if parallel < 1:
        raise ValueError(f"parallel={parallel} must be at least 1")
    if parallel != 1 and kind.point is None:
        raise ValueError(
            f"parallel={parallel}: {spec.kind} runs in the calling process; only "
            f"{', '.join(n for n, k in _EXPERIMENTS.items() if k.point)} run their grid "
            "points in a pool")
    if kind.single_point and len(spec.epsilon) != 1:
        raise ValueError(
            f"{spec.kind} runs one grid point, got {len(spec.epsilon)} "
            f"(epsilon={spec.epsilon})")
    outdir = spec.out
    os.makedirs(outdir, exist_ok=True)
    checks = []
    errors = []
    try:
        for check in (_run_points(kind, spec, outdir, parallel) if kind.point
                      else kind.experiment(spec, outdir)):
            checks.append(check)
    except Exception as exc:  # partial failures are recorded, not fatal
        errors.append(f"{type(exc).__name__}: {exc}")
    summary = {
        "kind": spec.kind,
        "spec": {k: v for k, v in asdict(spec).items()},
        "checks": checks,
        "errors": errors,
        "all_passed": bool(checks) and not errors and all(c["passed"] for c in checks),
    }
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, default=str)
    return summary


def write_damping_csv(modes, params: Params, path):
    rows = damping_table(modes, params)
    header = list(rows[0]) if rows else []
    _write_csv(path, header, [[r[h] for h in header] for r in rows])


def envelope_csv(gamma: SpectralField, params: Params, times, path):
    header = ["t"] + [f"re_c_{k[0]}_{k[1]}_{k[2]}" for k in gamma.modes()] \
        + [f"im_c_{k[0]}_{k[1]}_{k[2]}" for k in gamma.modes()]
    rows = []
    for t, c in zip(times, envelope_trajectory(gamma, params, times)):
        rows.append([float(t)] + [c[k].real for k in gamma.modes()]
                    + [c[k].imag for k in gamma.modes()])
    _write_csv(path, header, rows)
