"""Independent references and field readers that only the tests use.

The two oracles solve the same problems as the package by other means: a
Duhamel integral by adaptive quadrature, and the envelope ODE by adaptive
Runge-Kutta.  The readers take H^2 norms and wall traces of a ZPolyField
from its coefficients, and filter_resonant removes the fast rotation from a
resonant column.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from rotstrip.correctors import _column_sq, _dz, _polyval
from rotstrip.envelope import pumping
from rotstrip.spectral import SpectralField


def duhamel_quad(s0, c, omega, kappa, t):
    """The Duhamel integral int_0^t s0 e^{-c u} e^{i omega u} e^{-kappa (t-u)} du,
    the zero-data solution at t of the mode ODE dt w + kappa w = s0 e^{(i omega - c) t},
    by adaptive quadrature of its real and imaginary parts."""
    def integrand(u, part):
        val = s0 * np.exp(-c * u) * np.exp(1j * omega * u) * np.exp(-kappa * (t - u))
        return val.real if part == 0 else val.imag
    lim = int(max(200, 40 * abs(omega) * t / (2.0 * math.pi)))  # 40 per cycle
    re, _ = quad(integrand, 0.0, t, args=(0,), limit=lim, epsabs=1e-13, epsrel=1e-12)
    im, _ = quad(integrand, 0.0, t, args=(1,), limit=lim, epsabs=1e-13, epsrel=1e-12)
    return re + 1j * im


def envelope_solve(gamma: SpectralField, params, times) -> list:
    """The envelope ODE dc_k/dt = -rate_k c_k from c_k(0) = gamma_k, integrated
    by DOP853 on the real/imaginary split, at each of the increasing times."""
    modes = gamma.modes()
    rates = pumping(modes, params).envelope_rates()
    y0 = np.array([gamma[k] for k in modes])

    def rhs(_, y):
        c = y[: len(modes)] + 1j * y[len(modes):]
        dc = -rates * c
        return np.concatenate([dc.real, dc.imag])

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), np.concatenate([y0.real, y0.imag]),
                    t_eval=times, rtol=1e-12, atol=1e-14, method="DOP853")
    assert sol.success, sol.message
    return [SpectralField(dict(zip(modes, sol.y[: len(modes), j] + 1j * sol.y[len(modes):, j])))
            for j in range(len(times))]


def h2_norm(field) -> float:
    """H^2(omega) norm of a ZPolyField: all derivatives up to second order,
    an x-derivative multiplying a column by i k."""
    keys, coef = field.coefficients()
    kh2 = np.array([k[0] ** 2 + k[1] ** 2 for k in keys], dtype=float)
    total = (1.0 + 2.0 * kh2 + kh2 ** 2) @ _column_sq(coef) \
        + 2.0 * (1.0 + kh2) @ _column_sq(coef, 1) + _column_sq(coef, 2).sum()
    return 2.0 * math.pi * math.sqrt(float(total))


def trace(field, wall: int) -> dict:
    """{k_h: the column's three components at z = wall} of a ZPolyField."""
    keys, coef = field.coefficients()
    return dict(zip(keys, _polyval(coef, float(wall))))


def dz_horizontal_trace(field, wall: int) -> dict:
    """{k_h: dz of the column's two horizontal components at z = wall}."""
    keys, coef = field.coefficients()
    return dict(zip(keys, _polyval(_dz(coef[:, :2]), float(wall))))


def filter_resonant(u, epsilon: float, t: float) -> np.ndarray:
    """Remove the fast rotation from a (t, z)-dependent horizontal column.

    v = 1/2 <(1,i,0)|u> (1,i,0) e^{-it/eps} + 1/2 <(1,-i,0)|u> (1,-i,0) e^{+it/eps},
    pointwise in z.  If u solves the rotating column equation, v solves the
    plain heat equation with conductivity nu.
    """
    u = np.asarray(u, dtype=complex)
    out = 0
    for m in (1.0, -1.0):
        pol = np.array([1.0, 1j * m, 0.0])
        coef = 0.5 * np.tensordot(np.conj(pol), u, axes=(0, 0))
        out = out + np.multiply.outer(pol, coef) * np.exp(-1j * m * t / epsilon)
    return out
