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
    basis_normals,
    eigenvalue,
    eigenvalues,
    euclidean_norm,
)
from .layers import LayerBasis, layer_basis, rate_batch


@dataclass
class Pumping:
    """The Ekman pumping of n modes from one batched layer step.

    basis holds the bottom layer's rates and kernel vectors at mu = -lambda_k
    of the modes with k_h != 0 (modes[layered[i]] is its row i).  S (n,) is
    the suction factor mapping the filtered amplitude c_k to the vertical
    trace the bottom layer leaves at z = 0, delta3_hat = c_k * S_k:
    S_k = sum_sigma (n_sigma / lambda^sigma) * i k_h . w_sigma with
    (n_-, n_+) = P^{-1} n_h(k).  A (n,) is the pumping coefficient
    A_k = 2 pi |k_h| / (|k_h|^2 + pi^2 k3^2) * S_k.  Both are zero at k_h = 0.
    """

    modes: list
    layered: np.ndarray
    basis: LayerBasis
    S: np.ndarray
    A: np.ndarray
    params: Params

    def envelope_rates(self) -> np.ndarray:
        """|k_h|^2 + sqrt(nu/eps) A_k per mode, the rates of the envelope."""
        return _envelope_rates(self.modes, self.A, self.params, False)


def pumping(modes, params: Params) -> Pumping:
    """Ekman pumping of every mode at finite (eps, nu), all modes in one
    rate_batch, one layer_basis and one stacked solve."""
    modes = [tuple(int(c) for c in k) for k in modes]
    layered = np.array([i for i, k in enumerate(modes) if k[0] or k[1]], dtype=int)
    k = np.array([modes[i] for i in layered], dtype=int).reshape(-1, 3)
    basis = layer_basis(rate_batch(-eigenvalues(k), k[:, :2], params), params)
    S = np.zeros(len(modes), dtype=complex)
    A = np.zeros(len(modes), dtype=complex)
    if len(k):
        alpha = basis.solve(basis_normals(k)[:, :2])
        w = basis.w
        terms = alpha / basis.rates.lam * 1j * (k[:, :1] * w[:, :, 0] + k[:, 1:2] * w[:, :, 1])
        S[layered] = terms[:, 0] + terms[:, 1]
        kh2 = k[:, 0] ** 2 + k[:, 1] ** 2
        D = np.sqrt(kh2 + (math.pi * k[:, 2]) ** 2) ** 2
        A[layered] = 2.0 * math.pi * np.sqrt(kh2) / D * S[layered]
    return Pumping(modes, layered, basis, S, A, params)


def ekman_limit_coefficient(k) -> tuple:
    """Limit (R, I) of A_k as eps, nu -> 0, closed form in lambda_k.

    Defined only for |lambda_k| < 1 (k_h != 0): the resonant vertical modes
    carry no limit pumping and are rejected.
    """
    k = tuple(int(c) for c in k)
    lam = eigenvalue(k)
    if abs(abs(lam) - 1.0) < 1e-14 or abs(lam) >= 1.0:
        raise ValueError(f"limit pumping undefined at |lambda_k| = 1 (k={k})")
    R, I = _limit_pair(np.array([lam]))
    return float(R[0]), float(I[0])


def _limit_pair(lam) -> tuple:
    """(R, I) of ekman_limit_coefficient for an array of lambda in (-1, 1)."""
    pref = (1.0 - lam * lam) / (2.0 * math.sqrt(2.0))
    term_m = (1.0 + lam) / np.sqrt(1.0 - lam)
    term_p = (1.0 - lam) / np.sqrt(1.0 + lam)
    return pref * (term_m + term_p), pref * (term_m - term_p)


def damping_rate(k, params: Params) -> complex:
    """Full linear rate of c_k: |k_h|^2 + nu'*k3^2 + sqrt(nu/eps)*A_k."""
    return complex(_envelope_rates([k], pumping([k], params).A, params, True)[0])


def evolve_c(gamma_hat: SpectralField, params: Params, t: float,
             include_vertical: bool = False, limit_coefficients: bool = False) -> SpectralField:
    """Closed-form filtered amplitudes c_k(t) = gamma_k exp(-rate_k t).

    The default rate |k_h|^2 + sqrt(nu/eps) A_k neglects the vertical
    diffusion nu' k3^2 (the envelope model drops it); include_vertical=True
    restores it.  limit_coefficients=True replaces A_k by its eps,nu -> 0
    limit R_k + i I_k.
    """
    return envelope_trajectory(gamma_hat, params, [t], include_vertical, limit_coefficients)[0]


def envelope_trajectory(gamma_hat: SpectralField, params: Params, times,
                        include_vertical: bool = False,
                        limit_coefficients: bool = False) -> list:
    """evolve_c at each of `times`, with the rates computed once."""
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise ValueError("evolve_c expects t >= 0")
    modes = gamma_hat.modes()
    rates = dict(zip(modes, envelope_rates(modes, params, include_vertical, limit_coefficients)))
    return [gamma_hat.map(lambda k, c: c * np.exp(-rates[k] * t)) for t in times]


def envelope_rates(modes, params: Params, include_vertical: bool = False,
                   limit_coefficients: bool = False) -> np.ndarray:
    """Rates |k_h|^2 + sqrt(nu/eps) A_k of the envelope, per mode; A_k from
    one batched pumping call, or its limit with limit_coefficients."""
    modes = [tuple(int(c) for c in k) for k in modes]
    if limit_coefficients:
        A = np.array([0j if k[0] == 0 and k[1] == 0 else complex(*ekman_limit_coefficient(k))
                      for k in modes], dtype=complex)
    else:
        A = pumping(modes, params).A
    return _envelope_rates(modes, A, params, include_vertical)


def _envelope_rates(modes, A, params: Params, include_vertical: bool) -> np.ndarray:
    """|k_h|^2 (+ nu' k3^2 with include_vertical) + sqrt(nu/eps) A_k per mode."""
    k = np.array(modes, dtype=int).reshape(-1, 3)
    rate = k[:, 0] ** 2 + k[:, 1] ** 2
    if include_vertical:
        rate = rate + params.nu_prime * k[:, 2] ** 2
    return rate + math.sqrt(params.nu / params.epsilon) * A


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
    rates = envelope_rates(modes, params, include_vertical, limit_coefficients)
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
    """Rows (k, lambda_k, A_k, R_k, I_k) for the per-mode damping CSV; A_k of
    all modes comes from one pumping call and the damping rates from it."""
    modes = sorted(tuple(int(c) for c in m) for m in modes)
    A = pumping(modes, params).A
    damping = _envelope_rates(modes, A, params, True)
    lam = eigenvalues(modes)
    mean = np.array([k[0] == 0 and k[1] == 0 for k in modes], dtype=bool)
    R, I = _limit_pair(np.where(mean, 0.0, lam))
    R[mean] = I[mean] = np.nan
    rows = []
    for k, lam_k, a, d, r, i in zip(modes, lam.tolist(), A, damping, R.tolist(), I.tolist()):
        rows.append({
            "k1": k[0], "k2": k[1], "k3": k[2],
            "lambda": lam_k,
            "A_real": float(a.real), "A_imag": float(a.imag),
            "R": r, "I": i,
            "damping_real": float(d.real),
            "damping_imag": float(d.imag),
            "euclidean_norm": euclidean_norm(k),
        })
    return rows
