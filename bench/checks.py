"""Output checks of the benchmark workloads.

Every check returns a list of failure messages (empty when it passes) and
is written here from the method's own properties, not from a stored copy of
earlier output: closed-form rates, exact symmetries, energy decay, scaling
slopes, exact traces.  Quadratures and regressions are the benchmark's own,
so a fault in the package's versions of them cannot hide a wrong result.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np


def spindown_limit_rate(mode, eps: float, nu: float) -> complex:
    """Closed-form spin-down rate of the filtered amplitude of mode k:
    |k_h|^2 + pi^2 nu k3^2 + sqrt(nu/eps) (R_k + i I_k), where (R_k, I_k) is
    the eps, nu -> 0 limit of the Ekman pumping coefficient at the mode's
    eigenvalue lambda_k = -pi k3 / sqrt(|k_h|^2 + pi^2 k3^2):

        R + i I = (1 - lam^2) / (2 sqrt 2) * [(1 + lam) / sqrt(1 - lam) (1 + i)
                                             + (1 - lam) / sqrt(1 + lam) (1 - i)],

    which gives the classical R = 1/sqrt(2), I = 0 for a steady column."""
    k1, k2, k3 = mode
    kh2 = k1 * k1 + k2 * k2
    lam = -math.pi * k3 / math.sqrt(kh2 + (math.pi * k3) ** 2)
    pref = (1.0 - lam * lam) / (2.0 * math.sqrt(2.0))
    minus = (1.0 + lam) / math.sqrt(1.0 - lam)
    plus = (1.0 - lam) / math.sqrt(1.0 + lam)
    pumping = pref * complex(minus + plus, minus - plus)
    return kh2 + math.pi ** 2 * nu * k3 * k3 + math.sqrt(nu / eps) * pumping


def trapezoid_weights(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    h = np.diff(z)
    w = np.zeros_like(z)
    w[:-1] += h / 2
    w[1:] += h / 2
    return w


def snapshot_energies(z, snapshots) -> np.ndarray:
    """0.5 ||u||^2 of each nodal snapshot (Nz+1, 3) of one column; the
    2 pi x 2 pi horizontal period contributes the 4 pi^2."""
    w = trapezoid_weights(z)
    return np.array([2.0 * math.pi ** 2 * float(np.sum(w * np.sum(np.abs(u) ** 2, axis=1)))
                     for u in snapshots])


def column_norm(z, u) -> float:
    return 2.0 * math.pi * math.sqrt(float(np.sum(
        trapezoid_weights(z) * np.sum(np.abs(u) ** 2, axis=1))))


def total_l2(out: dict, t: float) -> float:
    """L2 norm over all columns of a direct solve at the save nearest t."""
    total = 0.0
    for traj in out.values():
        i = int(np.argmin(np.abs(np.asarray(traj.times) - t)))
        total += column_norm(traj.z, traj.snapshots[i][0]) ** 2
    return math.sqrt(total)


def restricted_norm(approx, columns, t: float, params) -> float:
    """L2 norm of an approximation restricted to some columns, on a grid
    refined geometrically down to 1e-3 of the layer scale at both walls."""
    delta = 1e-3 * math.sqrt(params.epsilon * params.nu)
    wall = np.geomspace(delta, 0.5, 400)
    z = np.unique(np.concatenate([[0.0], wall, 1.0 - wall, [1.0]]))
    total = 0.0
    for k_h in columns:
        prof = approx.hat_profile(k_h, t, z)
        total += float(np.sum(trapezoid_weights(z) * np.sum(np.abs(prof) ** 2, axis=0)))
    return 2.0 * math.pi * math.sqrt(total)


# -- the checks --------------------------------------------------------------


def decreasing_below(values, bound: float, what: str):
    failures = []
    if not all(b < a for a, b in zip(values, values[1:])):
        failures.append(f"{what} not strictly decreasing: {values}")
    if not values[-1] < bound:
        failures.append(f"{what} {values[-1]:.4g} not below {bound:.4g}")
    return failures


def rate_near(value: float, target: float, rel: float, what: str):
    gap = abs(value - target) / abs(target)
    return [] if gap <= rel else [f"{what}: {value:.6g} vs closed form {target:.6g} "
                                  f"(gap {gap:.2%} > {rel:.0%})"]


def energy_non_increasing(energies, what: str, rtol: float = 1e-12):
    rise = np.diff(energies)
    worst = int(np.argmax(rise))
    if rise[worst] > rtol * energies[0]:
        return [f"energy rises by {rise[worst]:.3e} after save {worst} ({what})"]
    return []


def no_flags(flags, what: str):
    return [] if not flags else [f"{what}: {len(flags)} attribution flags, first {flags[0]}"]


def at_most(value: float, bound: float, what: str, strict: bool = False):
    ok = value < bound if strict else value <= bound
    return [] if ok else [f"{what} = {value:.4g} exceeds {bound:.4g}"]


def rotated_match(ref, other, R, rtol: float, what: str):
    """Each (n, 3) profile of `other` equals the matching `ref` profile with
    its horizontal components rotated by R, to rtol relative."""
    worst, scale = 0.0, 0.0
    for a, b in zip(ref, other):
        rotated = np.column_stack([a[:, :2] @ R.T, a[:, 2]])
        worst = max(worst, float(np.max(np.abs(rotated - b))))
        scale = max(scale, float(np.max(np.abs(b))))
    if len(ref) != len(other) or scale == 0.0:
        return [f"{what}: nothing to compare"]
    rel = worst / scale
    return [] if rel <= rtol else [f"rotation covariance {what}: {rel:.2e} > {rtol:.0e}"]


def slope_near(xs, ys, target: float, tol: float, what: str):
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return [] if abs(slope - target) <= tol else [
        f"{what}: log-log slope {slope:.4f} outside {target}+-{tol}"]


def decay_rates_valid(rates, params, det_tol: float, what: str):
    failures = []
    for r in rates:
        for lam in (r.lambda_minus, r.lambda_plus):
            if lam.real < 0.0:
                failures.append(f"Re lambda = {lam.real:.3e} < 0 at mu={r.mu}, "
                                f"k_h={r.k_h} ({what})")
        res = r.det_residual(params)
        if not res <= det_tol:
            failures.append(f"det residual {res:.2e} at mu={r.mu}, k_h={r.k_h} ({what})")
    return failures


def stopping_lift_exact(approx, div_tol: float, trace_rtol: float, what: str):
    """The stopping lift is divergence-free, and with it the approximation's
    vertical velocity vanishes on both walls, relative to the largest
    vertical wall trace the other parts leave for the lift to cancel."""
    failures = []
    z = np.linspace(0.0, 1.0, 33)
    for field, _, _ in approx.parts["stopping_lift"].entries:
        for (k1, k2), (p1, p2, p3) in field.items():
            div = 1j * k1 * p1(z) + 1j * k2 * p2(z) + p3.deriv()(z)
            if not float(np.max(np.abs(div))) <= div_tol:
                failures.append(f"stopping lift divergence {np.max(np.abs(div)):.2e} "
                                f"at k_h={(k1, k2)} ({what})")
    walls = np.array([0.0, 1.0])
    left, scale = 0.0, 0.0
    for k_h in approx.horizontal_modes():
        for t in (0.0, 0.1):
            left = max(left, float(np.max(np.abs(approx.hat_profile(k_h, t, walls)[2]))))
            for name, part in approx.parts.items():
                if name != "stopping_lift":
                    scale = max(scale, float(np.max(np.abs(part.hat_profile(k_h, t, walls)[2]))))
    if left > trace_rtol * scale:
        failures.append(f"vertical wall velocity {left:.2e} left after the stopping lift, "
                        f"traces up to {scale:.2e} ({what})")
    return failures


def finite_positive(values, what: str):
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    return [] if not bad else [f"{what}: non-finite or negative norms {bad}"]


# -- sweep output files ------------------------------------------------------


def csv_files(outdir) -> dict:
    """{path relative to outdir: path} of every CSV a sweep wrote."""
    found = {}
    for d, _, names in os.walk(outdir):
        for name in names:
            if name.endswith(".csv"):
                path = os.path.join(d, name)
                found[os.path.relpath(path, outdir)] = path
    return dict(sorted(found.items()))


def read_csv(path) -> list:
    with open(path, newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def same_bytes(reference: dict, contents: dict):
    if set(reference) != set(contents):
        return [f"sweep CSV set differs: {sorted(set(reference) ^ set(contents))}"]
    return [f"{name} differs from the first round's copy"
            for name in reference if reference[name] != contents[name]]
