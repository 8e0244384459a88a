"""Ekman pumping and the slow envelope of the filtered interior flow.

The bottom boundary layer generated by an interior eigenmode N_k feeds a
vertical suction of order sqrt(eps nu) back into the interior, which damps
the filtered amplitude c_k at rate sqrt(nu/eps) * A_k on top of horizontal
diffusion.  A_k is computed from the exact decay rates and kernel vectors at
frequency mu = -lambda_k; its eps, nu -> 0 limit is the closed-form pair
(R_k, I_k).

Normalisation note: all inner products here are taken in plain L^2 of
T^2 x [0,1] (the measure in which the eigenbasis is orthonormal, enforced by
the quadrature oracle in the test suite), so A_k carries the prefactor
2 pi |k_h| / (|k_h|^2 + pi^2 k3^2).  The classical two-dimensional spin-down
limit R(lambda=0) = 1/sqrt(2) comes out of this convention, and the direct
solver reproduces the predicted decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params
from .spectral import (
    SpectralField,
    basis_normal,
    eigenvalue,
    euclidean_norm,
    weighted_norm,
)
from .layers import decay_rates, transition_step


@dataclass
class EkmanCoefficient:
    """Dimensionless pumping coefficient of one mode: damping sqrt(nu/eps)*A."""

    A: complex
    k: tuple


def suction_coefficient(k, params: Params) -> complex:
    """Factor S_k mapping the filtered amplitude c_k to the vertical trace
    the bottom layer leaves at z = 0: delta3_hat = c_k * S_k.

    S_k = sum_sigma (n_sigma / lambda^sigma) * i k_h . w_sigma, with
    (n_-, n_+) = P^{-1} n_h(k) from the layer step at mu = -lambda_k.
    """
    k = tuple(int(c) for c in k)
    if k[0] == 0 and k[1] == 0:
        return 0j
    rates = decay_rates(-eigenvalue(k), (k[0], k[1]), params)
    (nm, npl), (wm, wp) = transition_step(basis_normal(k)[:2], rates, params)
    k1, k2 = k[0], k[1]
    out = (nm / rates.lambda_minus) * 1j * (k1 * wm[0] + k2 * wm[1])
    out += (npl / rates.lambda_plus) * 1j * (k1 * wp[0] + k2 * wp[1])
    return complex(out)


def ekman_coefficient(k, params: Params) -> EkmanCoefficient:
    """Exact pumping coefficient A_k at finite (eps, nu); zero when k_h = 0."""
    k = tuple(int(c) for c in k)
    kh = math.sqrt(k[0] ** 2 + k[1] ** 2)
    if kh == 0.0:
        return EkmanCoefficient(A=0j, k=k)
    D = weighted_norm(k) ** 2
    A = 2.0 * math.pi * kh / D * suction_coefficient(k, params)
    return EkmanCoefficient(A=complex(A), k=k)


def ekman_limit_coefficient(k) -> tuple:
    """Limit (R, I) of A_k as eps, nu -> 0, closed form in lambda_k.

    Defined only for |lambda_k| < 1 (k_h != 0): the resonant vertical modes
    carry no limit pumping and are rejected.
    """
    k = tuple(int(c) for c in k)
    lam = eigenvalue(k)
    if abs(abs(lam) - 1.0) < 1e-14 or abs(lam) >= 1.0:
        raise ValueError(f"limit pumping undefined at |lambda_k| = 1 (k={k})")
    pref = (1.0 - lam * lam) / (2.0 * math.sqrt(2.0))
    term_m = (1.0 + lam) / math.sqrt(1.0 - lam)
    term_p = (1.0 - lam) / math.sqrt(1.0 + lam)
    return pref * (term_m + term_p), pref * (term_m - term_p)


def damping_rate(k, params: Params) -> complex:
    """Full linear rate of c_k: |k_h|^2 + nu'*k3^2 + sqrt(nu/eps)*A_k."""
    k = tuple(int(c) for c in k)
    return _damping_from(k, ekman_coefficient(k, params).A, params)


def _damping_from(k, A: complex, params: Params) -> complex:
    kh2 = k[0] ** 2 + k[1] ** 2
    return kh2 + params.nu_prime * k[2] ** 2 + math.sqrt(params.nu / params.epsilon) * A


def evolve_c(gamma_hat: SpectralField, params: Params, t: float,
             include_vertical: bool = False, limit_coefficients: bool = False) -> SpectralField:
    """Closed-form filtered amplitudes c_k(t) = gamma_k exp(-rate_k t).

    The default rate |k_h|^2 + sqrt(nu/eps) A_k neglects the vertical
    diffusion nu' k3^2 (the envelope model drops it); include_vertical=True
    restores it.  limit_coefficients=True replaces A_k by its eps,nu -> 0
    limit R_k + i I_k.
    """
    if t < 0.0:
        raise ValueError("evolve_c expects t >= 0")
    rates = {k: envelope_rate(k, params, include_vertical, limit_coefficients)
             for k in gamma_hat.modes()}
    return gamma_hat.map(lambda k, c: c * np.exp(-rates[k] * t))


def envelope_rate(k, params: Params, include_vertical: bool = False,
                  limit_coefficients: bool = False) -> complex:
    kh2 = k[0] ** 2 + k[1] ** 2
    if limit_coefficients:
        if kh2 == 0:
            A = 0j
        else:
            R, I = ekman_limit_coefficient(k)
            A = R + 1j * I
    else:
        A = ekman_coefficient(k, params).A
    rate = kh2 + math.sqrt(params.nu / params.epsilon) * A
    if include_vertical:
        rate = rate + params.nu_prime * k[2] ** 2
    return rate


def envelope_solve(gamma: SpectralField, params: Params, times,
                   include_vertical: bool = False, limit_coefficients: bool = False):
    """Integrate the envelope ODE numerically and return the trajectory.

    The system is diagonal so this is purely a cross-check of evolve_c: the
    two code paths must agree to 1e-10.  Uses an adaptive Runge-Kutta on the
    real/imaginary split.
    """
    from scipy.integrate import solve_ivp

    times = np.asarray(times, dtype=float)
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")
    modes = gamma.modes()
    rates = np.array([envelope_rate(k, params, include_vertical, limit_coefficients)
                      for k in modes])
    y0 = np.array([gamma[k] for k in modes])

    def rhs(_, y):
        c = y[: len(modes)] + 1j * y[len(modes):]
        dc = -rates * c
        return np.concatenate([dc.real, dc.imag])

    t0 = 0.0
    sol = solve_ivp(rhs, (t0, float(times[-1])), np.concatenate([y0.real, y0.imag]),
                    t_eval=times, rtol=1e-12, atol=1e-14, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"envelope integration failed: {sol.message}")
    out = []
    for j in range(len(times)):
        c = sol.y[: len(modes), j] + 1j * sol.y[len(modes):, j]
        out.append(SpectralField(dict(zip(modes, c))))
    return out


def trace_bounds(gamma: SpectralField, s: float, C: float = 1.0) -> tuple:
    """Majorants for the boundary-trace norms fed by gamma's envelope:
    (C ||gamma||_{H^{s+1}}, C ||gamma||_{H^{s+2}})."""
    return C * gamma.sobolev_norm(s + 1.0), C * gamma.sobolev_norm(s + 2.0)


def trace_s_norm(values: dict, s: float) -> float:
    """The |k3|^s-weighted norm of a trace table {(mode k) -> coefficient}."""
    return math.sqrt(sum(abs(k[2]) ** (2 * s) * abs(v) ** 2 for k, v in values.items()))


def damping_table(modes, params: Params):
    """Rows (k, lambda_k, A_k, R_k, I_k) for the per-mode damping CSV; A_k is
    computed once per row and the damping rate formed from it."""
    rows = []
    for k in sorted(tuple(int(c) for c in m) for m in modes):
        lam = eigenvalue(k)
        A = ekman_coefficient(k, params).A
        damping = _damping_from(k, A, params)
        if k[0] == 0 and k[1] == 0:
            R = I = float("nan")
        else:
            R, I = ekman_limit_coefficient(k)
        rows.append({
            "k1": k[0], "k2": k[1], "k3": k[2],
            "lambda": lam,
            "A_real": A.real, "A_imag": A.imag,
            "R": R, "I": I,
            "damping_real": damping.real,
            "damping_imag": damping.imag,
            "euclidean_norm": euclidean_norm(k),
        })
    return rows
