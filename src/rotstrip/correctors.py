"""Interior lifts, small-divisor correctors and approximate solutions.

The layer profiles of `layers` leave small traces on the walls and small
defects in the evolution equation; this module builds the correction
hierarchy that absorbs them: a divergence-free polynomial lift with exact
traces (the stopping lift), interior flux lifts for the Ekman suction,
mode-wise Duhamel correctors for fast-oscillating non-resonant sources, and
the full assembled approximations for the wind-forced and the initial-value
problems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .params import Params
from .spectral import (
    SpectralField,
    basis_normal,
    eigenvalue,
    euclidean_norm,
)
from .layers import (BoundaryTrace, LayerTable, _amplitude_l2, build_B, build_layers,
                     empty_trace, wall_layers)
from .envelope import pumping

_GAUSS_Z = np.polynomial.legendre.leggauss(24)


def _kh_tuple(k_h):
    return (int(k_h[0]), int(k_h[1]))


# ---------------------------------------------------------------------------
# polynomial-in-z mode fields (lifts)
# ---------------------------------------------------------------------------


class ZPolyField:
    """Vector field with finitely many horizontal modes and polynomial
    vertical profiles: u = sum_kh (p1(z), p2(z), p3(z)) e^{i k_h . x_h}."""

    def __init__(self, modes=None):
        # modes: {k_h: (P1, P2, P3)} with Pi numpy Polynomials
        self.modes = dict(modes) if modes else {}

    @classmethod
    def of(cls, keys, coef):
        """The field whose column keys[i] has the power-series coefficients
        coef[i], a (3, ndeg) array: one Polynomial per row."""
        return cls({k_h: tuple(Polynomial(row) for row in c) for k_h, c in zip(keys, coef)})

    def items(self):
        return ((k, self.modes[k]) for k in sorted(self.modes))

    def coefficients(self):
        """(sorted keys, their zero-padded (ncol, 3, ndeg) coefficient array)."""
        keys = sorted(self.modes)
        ndeg = max((len(p.coef) for k in keys for p in self.modes[k]), default=1)
        coef = np.zeros((len(keys), 3, ndeg), dtype=complex)
        for i, k in enumerate(keys):
            for c, p in enumerate(self.modes[k]):
                coef[i, c, :len(p.coef)] = p.coef
        return keys, coef

    def column_sq(self, order: int = 0) -> np.ndarray:
        """int_0^1 |dz^order w|^2 dz per column, in sorted key order (Gauss
        quadrature, exact for the degrees used here)."""
        xg, wg = _GAUSS_Z
        coef = np.polynomial.polynomial.polyder(self.coefficients()[1], order, axis=2)
        V = np.vander(0.5 * (xg + 1.0), coef.shape[2], increasing=True)
        return (np.abs(coef @ V.T) ** 2 @ (0.5 * wg)).sum(axis=1)

    def _kh2(self) -> np.ndarray:
        return np.array([k[0] ** 2 + k[1] ** 2 for k in sorted(self.modes)], dtype=float)

    def hat_profile(self, k_h, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.zeros((3,) + z.shape, dtype=complex)
        polys = self.modes.get(_kh_tuple(k_h))
        if polys is not None:
            for c in range(3):
                out[c] = polys[c](z)
        return out

    def l2_norm(self) -> float:
        return 2.0 * math.pi * math.sqrt(float(self.column_sq().sum()))

    def h2_norm(self) -> float:
        """H^2(omega) norm: all derivatives up to second order."""
        kh2 = self._kh2()
        # x-derivatives multiply by ik components
        total = (1.0 + 2.0 * kh2 + kh2 ** 2) @ self.column_sq() \
            + 2.0 * (1.0 + kh2) @ self.column_sq(1) + self.column_sq(2).sum()
        return 2.0 * math.pi * math.sqrt(float(total))

    def divergence_residual(self) -> float:
        worst = 0.0
        xg, _ = _GAUSS_Z
        z = 0.5 * (xg + 1.0)
        for k_h, polys in self.items():
            div = 1j * k_h[0] * polys[0] + 1j * k_h[1] * polys[1] + polys[2].deriv()
            worst = max(worst, float(np.max(np.abs(div(z)))))
        return worst

    def trace(self, wall: int) -> dict:
        return {k_h: np.array([p(float(wall)) for p in polys])
                for k_h, polys in self.items()}

    def dz_horizontal_trace(self, wall: int) -> dict:
        return {k_h: np.array([polys[0].deriv()(float(wall)), polys[1].deriv()(float(wall))])
                for k_h, polys in self.items()}


# ---------------------------------------------------------------------------
# stopping lift
# ---------------------------------------------------------------------------

_BUMP = np.array([0.0, 1.0, -2.0, 1.0])  # z(1-z)^2


def _trace_table(delta: dict, keys) -> np.ndarray:
    """(n, 3) array of (delta_h, delta_3) over keys, zero where delta has no entry."""
    out = np.zeros((len(keys), 3), dtype=complex)
    for i, k in enumerate(keys):
        if k in delta:
            out[i, :2], out[i, 2] = delta[k]
    return out


def stopping_lift(delta0: dict, delta1: dict) -> ZPolyField:
    """Divergence-free lift with exact traces:

        w|_{z=0} = delta0,  w3|_{z=1} = delta1_3,  dz w_h|_{z=1} = delta1_h.

    Inputs are mode tables {k_h: (delta_h 2-vector, delta_3 scalar)}.  The
    horizontal part is delta0_h + delta1_h z + grad_h(phi) z(1-z)^2 with phi
    solving the mode-wise elliptic balance
        (1/12) Lap_h phi = -div_h delta0_h - (1/2) div_h delta1_h - delta1_3 + delta0_3,
    and the vertical part integrates the divergence from delta0_3.  The
    k_h = 0 mode requires the compatibility integral delta1_3 - delta0_3 = 0
    (tolerance 1e-12 relative); phi's k_h = 0 gauge is zero.  All columns
    are formed at once as one (ncol, 3, 5) coefficient array.
    """
    keys = sorted(set(delta0) | set(delta1))
    d0, d1 = _trace_table(delta0, keys), _trace_table(delta1, keys)
    keys = [_kh_tuple(k) for k in keys]
    k = np.array(keys, dtype=float).reshape(-1, 2)
    kh2 = k[:, 0] ** 2 + k[:, 1] ** 2
    mean = kh2 == 0
    gap = d1[:, 2] - d0[:, 2]
    scale = max(float(np.max(np.abs(d0), initial=0.0)), float(np.max(np.abs(d1), initial=0.0)))
    if np.any(np.abs(gap[mean]) > 1e-12 * max(scale, 1e-300)):
        raise ValueError("stopping lift requires the mean of delta1_3 - delta0_3 to vanish "
                         f"(got {gap[mean][0]})")
    ikd0 = 1j * (k[:, 0] * d0[:, 0] + k[:, 1] * d0[:, 1])
    ikd1 = 1j * (k[:, 0] * d1[:, 0] + k[:, 1] * d1[:, 1])
    phi = np.where(mean, 0j, 12.0 * (ikd0 + 0.5 * ikd1 + d1[:, 2] - d0[:, 2])
                   / np.where(mean, 1.0, kh2))
    coef = np.zeros((len(keys), 3, 5), dtype=complex)
    coef[:, :2, 0] = d0[:, :2]
    coef[:, :2, 1] = d1[:, :2]
    coef[:, :2, :4] += (1j * k * phi[:, None])[:, :, None] * _BUMP
    # w3(z) = d03 - int_0^z div_h w_h
    div_wh = 1j * k[:, :1] * coef[:, 0, :4] + 1j * k[:, 1:] * coef[:, 1, :4]
    coef[:, 2, 0] = d0[:, 2]
    coef[:, 2, 1:] = -(div_wh / np.arange(1.0, 5.0))
    return ZPolyField.of(keys, coef)


# ---------------------------------------------------------------------------
# interior flux lifts
# ---------------------------------------------------------------------------


def _flux_lift(keys, d0, d1, root: float, mean_error: str) -> ZPolyField:
    """v3 = root [d1 z + d0 (1-z)], v_h = root grad_h Lap_h^{-1} (d0 - d1) on
    columns keys with vertical traces d0, d1 (arrays); a k_h = 0 column is
    dropped when its traces vanish and rejected otherwise."""
    keys = [_kh_tuple(k) for k in keys]
    k = np.array(keys, dtype=float).reshape(-1, 2)
    kh2 = k[:, 0] ** 2 + k[:, 1] ** 2
    mean = kh2 == 0
    if np.any(d0[mean] != 0) or np.any(d1[mean] != 0):
        raise ValueError(mean_error)
    k, kh2, d0, d1 = k[~mean], kh2[~mean], d0[~mean], d1[~mean]
    coef = np.zeros((len(k), 3, 2), dtype=complex)
    coef[:, :2, 0] = -1j * root * k * (d0 - d1)[:, None] / kh2[:, None]
    coef[:, 2, 0] = root * d0
    coef[:, 2, 1] = root * (d1 - d0)
    return ZPolyField.of([key for key, m in zip(keys, mean) if not m], coef)


def lift_interior_vint0(delta0_3: dict, delta1_3: dict, params: Params) -> ZPolyField:
    """Divergence-free interior field realising the Ekman suction traces:

        v3 = sqrt(eps nu) [delta1_3 z + delta0_3 (1-z)],
        v_h = sqrt(eps nu) grad_h Lap_h^{-1} [delta0_3 - delta1_3].

    Inputs are mode tables {k_h: scalar}; any nonzero k_h = 0 entry is
    rejected since Lap_h cannot be inverted on means.
    """
    keys = sorted(set(delta0_3) | set(delta1_3))
    d0, d1 = (np.array([complex(d.get(k, 0j)) for k in keys], dtype=complex)
              for d in (delta0_3, delta1_3))
    return _flux_lift(keys, d0, d1, params.layer_scale,
                      "interior flux lift cannot carry a mean vertical trace")


def lift_interior_vint1(trace: dict) -> ZPolyField:
    """Corrector restoring the zero-flux condition at the surface:
    v3 = -trace * z and v_h = grad_h Lap_h^{-1} trace.  A nonzero mean
    (k_h = 0 entry) is rejected; the lift is identically zero there."""
    keys = sorted(trace)
    tau = np.array([complex(trace[k]) for k in keys], dtype=complex)
    return _flux_lift(keys, np.zeros_like(tau), -tau, 1.0,
                      "surface flux corrector requires a mean-zero trace")


# ---------------------------------------------------------------------------
# closed-form scalar products against the eigenbasis
# ---------------------------------------------------------------------------


def column_forms(k_h, l3) -> tuple:
    """Closed forms on the modes l = (k_h, l3) of one column, for an integer
    array l3: the two projections driving the corrector sources

        F1 = <N_l | (i l1, i l2, |l_h|^2 z) e^{i l_h.x_h}>
        F2 = <N_l | (-i l2, i l1, 0) e^{i l_h.x_h}>,

    the vertical companion G = <N_l | (0,0,1) e^{i l_h.x_h}> and lambda_l, in
    plain L^2 of T^2 x [0,1] (quadrature-validated; the weighted norm
    D = sqrt(|l_h|^2 + pi^2 l3^2) plays the role of |l| here).  Quotients
    are taken in real arithmetic and multiplied by 1j last, as the one-mode
    formulas round them (numpy's complex-by-real division multiplies by the
    reciprocal instead).  F1 = G = 0 and F2 = -2 pi |l_h| at l3 = 0, where
    F2 alone is nonzero; lambda is not defined at l = 0.
    """
    l3 = np.asarray(l3, dtype=int)
    kh2 = int(k_h[0]) ** 2 + int(k_h[1]) ** 2
    kh = math.hypot(k_h[0], k_h[1])
    D = np.sqrt(kh2 + (math.pi * l3) ** 2)
    den = np.where(l3 == 0, 1.0, l3 * D)
    sign = np.where(l3 % 2 == 0, 1.0, -1.0)  # (-1)^l3
    F1 = 1j * np.where(l3 == 0, 0.0, 2.0 * kh ** 3 * sign / den)
    F2 = np.where(l3 == 0, -2.0 * math.pi * kh, 0.0) + 0j
    G = 1j * np.where(l3 == 0, 0.0, -2.0 * kh * (1.0 - sign) / den)
    lam = -l3 * math.pi / np.where(D == 0, 1.0, D)
    return F1, F2, G, lam


def scalar_product_forms(l) -> tuple:
    """(F1, F2) of column_forms at the one mode l."""
    F1, F2, _, _ = column_forms(l[:2], [l[2]])
    return complex(F1[0]), complex(F2[0])


def vertical_unit_product(l) -> complex:
    """<N_l | (0,0,1) e^{i l_h.x_h}> of column_forms at the one mode l."""
    return complex(column_forms(l[:2], [l[2]])[2][0])


# ---------------------------------------------------------------------------
# small-divisor correctors
# ---------------------------------------------------------------------------


@dataclass
class ExpSource:
    """Source coefficient s(t) = s0 * exp(-c t), Re(c) >= 0."""

    s0: complex
    c: complex = 0j

    def __post_init__(self):
        if complex(self.c).real < -1e-14:
            raise ValueError("exponential source must not grow")

    def __call__(self, t):
        return self.s0 * np.exp(-self.c * t)


@dataclass
class SourceTable:
    """Non-resonant oscillating sources: entries {(mu, l): ExpSource | callable}.

    Each (mu, l) drives the mode ODE
        dt w_l + (|l_h|^2 + pi^2 nu l3^2) w_l = s(mu, l, t) e^{i(mu+lambda_l) t/eps}
    and must satisfy mu != -lambda_l.
    """

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (mu, l), s in self.entries.items():
            l = tuple(int(c) for c in l)
            if abs(float(mu) + eigenvalue(l)) < 1e-12:
                raise ValueError(f"resonant source entry mu = -lambda_l at (mu={mu}, l={l})")
            clean[(float(mu), l)] = s
        self.entries = clean

    def items(self):
        return ((key, self.entries[key]) for key in sorted(self.entries))


def divisor_bounds(l, mu: float) -> float:
    """|lambda_l + mu|^{-1}, the small divisor of one source entry."""
    l = tuple(int(c) for c in l)
    d = abs(eigenvalue(l) + float(mu))
    if d == 0.0:
        raise ValueError(f"resonant pair: mu = -lambda_l at l={l}")
    return 1.0 / d


def divisor_case_bound(l, mu: float) -> float:
    """Structural majorant of |lambda_l + mu|^{-1} for the frequency classes
    arising in the constructions: 1/(|mu|-1) outside the eigenvalue band;
    |l|/|l3| at mu = 0; |l|^2/|l_h|^2 at |mu| = 1.  Frequencies strictly
    inside (-1, 1) other than 0 admit no l-uniform bound; when they are
    eigenvalue frequencies mu = -lambda_k use eigenvalue_divisor_bound."""
    l = tuple(int(c) for c in l)
    mu = float(mu)
    lE = euclidean_norm(l)
    if abs(mu) < 1e-12:
        return lE / max(abs(l[2]), 1)
    if abs(abs(mu) - 1.0) < 1e-12:
        kh2 = l[0] ** 2 + l[1] ** 2
        if kh2 == 0:
            raise ValueError("resonant class requires l_h != 0")
        return lE ** 2 / kh2
    if abs(mu) > 1.0:
        return 1.0 / (abs(mu) - 1.0)
    raise ValueError(
        f"no l-uniform divisor bound for generic mu = {mu} inside (-1, 1)")


def eigenvalue_divisor_bound(l, k) -> float:
    """Majorant of |lambda_l - lambda_k|^{-1} for distinct columns of the same
    horizontal mode: |k|^3 / |l_h|^2 (lambda is monotone in the vertical
    index, so the gap is smallest at neighbouring k3)."""
    l = tuple(int(c) for c in l)
    k = tuple(int(c) for c in k)
    kh2 = l[0] ** 2 + l[1] ** 2
    if kh2 == 0:
        raise ValueError("bound requires l_h != 0")
    return euclidean_norm(k) ** 3 / kh2


def mode_decay_constant(l, params: Params) -> float:
    """kappa_l = |l_h|^2 + pi^2 nu l3^2."""
    return l[0] ** 2 + l[1] ** 2 + params.nu_prime * l[2] ** 2


def small_divisor_corrector(source: SourceTable, K: int, params: Params, t: float,
                            variant: str = "special", method: str = "closed") -> SpectralField:
    """Envelope coefficients w_l(t) of the corrector driven by `source`,
    truncated to |l| <= K (Euclidean).

    variant 'special' uses the decay-preserving particular solution
        w_l = sum_mu s0 exp(i(lambda_l+mu)t/eps - c t) / (i(lambda_l+mu)/eps - c + kappa_l),
    variant 'zero_ic' the Duhamel solution with w_l(0) = 0.  method
    'quadrature' evaluates the Duhamel integral numerically instead (the
    independent cross-check; only valid with variant 'zero_ic' or for
    reproducing the special solution's inhomogeneous part).

    The physical corrector field is sum_l w_l(t) e^{-i lambda_l t/eps} N_l.
    """
    if variant not in ("special", "zero_ic"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = params.epsilon
    out = {}
    for (mu, l), s in source.items():
        if euclidean_norm(l) > K:
            continue
        lam_l = eigenvalue(l)
        omega = (lam_l + mu) / eps
        kappa = mode_decay_constant(l, params)
        if method == "closed":
            if not isinstance(s, ExpSource):
                raise ValueError("closed form requires exponential sources")
            delta = 1j * omega - s.c + kappa
            w = s.s0 * np.exp((1j * omega - s.c) * t) / delta
            if variant == "zero_ic":
                w = w - s.s0 * np.exp(-kappa * t) / delta
        elif method == "quadrature":
            from scipy.integrate import quad

            fn = s if callable(s) else (lambda u: s.s0 * np.exp(-s.c * u))
            def integrand(u, part):
                val = fn(u) * np.exp(1j * omega * u) * np.exp(-kappa * (t - u))
                return val.real if part == 0 else val.imag
            cycles = abs(omega) * t / (2.0 * math.pi)
            lim = int(max(200, 40 * cycles))
            re, _ = quad(integrand, 0.0, t, args=(0,), limit=lim, epsabs=1e-13, epsrel=1e-12)
            im, _ = quad(integrand, 0.0, t, args=(1,), limit=lim, epsabs=1e-13, epsrel=1e-12)
            w = re + 1j * im
            if variant == "special" and isinstance(s, ExpSource):
                # add the homogeneous piece that turns zero-IC Duhamel into
                # the decay-preserving particular solution
                delta = 1j * omega - s.c + kappa
                w = w + s.s0 * np.exp(-kappa * t) / delta
        else:
            raise ValueError(f"unknown method {method!r}")
        out[l] = out.get(l, 0j) + w
    return SpectralField(out)


def truncation_choice(params: Params, regime: str, s0: float = 2.0) -> int:
    """Truncation K balancing the corrector size against the projection tail.

    wind_small_nu (nu <= eps): K = (eps nu)^{-1/(2(s0+2))}
    wind_large_nu (nu >= eps): K = (nu sqrt(eps))^{-1/(s0+3)}
    dirichlet:                 K = eps^{-1/2}
    """
    eps, nu = params.epsilon, params.nu
    if regime == "wind_small_nu":
        K = (eps * nu) ** (-1.0 / (2.0 * (s0 + 2.0)))
    elif regime == "wind_large_nu":
        K = (nu * math.sqrt(eps)) ** (-1.0 / (s0 + 3.0))
    elif regime == "dirichlet":
        K = eps ** -0.5
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return int(math.ceil(K - 1e-12))


def scaling_check(params: Params, C: float = 1.0, alpha0: float = 0.55):
    """Check the stress amplitude against beta <= C nu^{-alpha0} eps^{1/4}
    (alpha0 < 7/12) and report the three downstream smallness conditions."""
    if not (0.0 < alpha0 < 7.0 / 12.0):
        raise ValueError("alpha0 must lie in (0, 7/12)")
    eps, nu, beta = params.epsilon, params.nu, params.beta
    ok = beta <= C * nu ** (-alpha0) * eps ** 0.25
    diagnostics = {
        "bound": C * nu ** (-alpha0) * eps ** 0.25,
        "beta": beta,
        # derived smallness quantities; each must vanish as eps, nu -> 0
        "cond_surface_layer": beta * nu ** 0.75,
        "cond_frozen_coefficient": beta * nu ** 0.75 * eps ** -0.25,
        "cond_truncation_small_nu": beta * nu ** (1.0 - 5.0 / 7.0) if nu <= eps else 0.0,
        "cond_truncation_large_nu": beta * nu ** (1.0 - 5.0 / 9.0) if nu >= eps else 0.0,
    }
    return ok, diagnostics


# ---------------------------------------------------------------------------
# assembled approximate solutions
# ---------------------------------------------------------------------------


class _Part:
    """A part of an approximation.  profiles(t, z, columns, out) evaluates the
    listed columns k_h together and adds them into out, an array of shape
    (len(columns), 3) + z.shape (zeros when not given), which it returns; a
    column the part does not hold adds nothing.  hat_profile is its
    one-column view."""

    def hat_profile(self, k_h, t, z):
        return self.profiles(t, z, [k_h])[0]


def _profiles_out(columns, z, out) -> np.ndarray:
    return np.zeros((len(columns), 3) + z.shape, dtype=complex) if out is None else out


class OscillatingPoly(_Part):
    """Sum of polynomial lift fields with phases e^{i mu t/eps} e^{-rate t}.

    A column is evaluated from one coefficient array: the entries' phased
    power-series coefficients (Polynomials on the default domain and window)
    are summed and evaluated once through a Vandermonde matrix."""

    def __init__(self, params: Params):
        self.params = params
        self.entries = []  # (ZPolyField, mu, rate)

    def add(self, field_, mu, rate=0j):
        if field_.modes:
            self.entries.append((field_, float(mu), complex(rate)))

    def profiles(self, t, z, columns, out=None):
        z = np.asarray(z, dtype=float)
        out = _profiles_out(columns, z, out)
        for i, k_h in enumerate(columns):
            k_h = _kh_tuple(k_h)
            terms = []
            for f, mu, rate in self.entries:
                polys = f.modes.get(k_h)
                if polys is not None:
                    phase = np.exp(1j * mu * t / self.params.epsilon - rate * t)
                    terms.extend((c, phase * p.coef) for c, p in enumerate(polys))
            if not terms:
                continue
            combined = np.zeros((3, max(len(coef) for _, coef in terms)), dtype=complex)
            for c, coef in terms:
                combined[c, :len(coef)] += coef
            values = combined @ np.vander(z.ravel(), combined.shape[1], increasing=True).T
            out[i] += values.reshape((3,) + z.shape)
        return out

    def horizontal_modes(self):
        ks = set()
        for f, _, _ in self.entries:
            ks.update(f.modes)
        return sorted(ks)

    def l2_norm(self, t: float) -> float:
        xg, wg = _GAUSS_Z
        z = 0.5 * (xg + 1.0)
        total = 0.0
        for k_h in self.horizontal_modes():
            values = self.hat_profile(k_h, t, z)
            total += float(np.sum(0.5 * wg * np.abs(values) ** 2))
        return 2.0 * math.pi * math.sqrt(total)


def _trig_block(j, z):
    """cos(pi j z) and sin(pi j z) for the integers j and heights z, each
    of shape (len(j), len(z))."""
    arg = np.multiply.outer(math.pi * j, z)
    return np.cos(arg), np.sin(arg)


class SpectralPart(_Part):
    """Interior eigenmode sum: sum_l c_l(t) e^{-i lambda_l t / eps} N_l, each
    coefficient c_l(t) a sum of amplitude rows s0 e^{i phi t/eps - rate t}.

    The rows are kept grouped by column k_h, each with the index of its mode,
    and the column's modes with |l3|, lambda_l and n(l) folded onto |l3|
    (cos is even and sin odd, so the u3 row takes sign(l3)).  A column's
    coefficients take one exp over its rows, summed into the modes in row
    order.  profiles sums the listed columns' folded amplitudes per |l3| and
    evaluates them in one pass over j = |l3| in blocks of CHUNK: one
    cos/sin(pi j z) block shared by every column and one real matrix
    product per block, so the trig arrays stay CHUNK x len(z) whatever the
    number of modes and columns.
    """

    CHUNK = 64

    def __init__(self, params: Params):
        self.params = params
        self._columns = {}  # k_h -> ({mode: index}, [(index, s0, phi, rate)]), in order added
        self._arrays = {}  # k_h -> column arrays; dropped when a row joins

    def add(self, mode, s0, phi=0.0, rate=0j):
        mode = tuple(int(c) for c in mode)
        index, rows = self._columns.setdefault(mode[:2], ({}, []))
        rows.append((index.setdefault(mode, len(index)), complex(s0), float(phi), complex(rate)))
        self._arrays.pop(mode[:2], None)

    def modes(self):
        return sorted(m for index, _ in self._columns.values() for m in index)

    def _column(self, k_h):
        """({mode: index}, |l3|, lambda_l, n(l) with its u3 entry times
        sign(l3), and the rows' mode index, s0, phi and rate as arrays) of
        column k_h, or None."""
        arrays = self._arrays.get(k_h)
        if arrays is None and k_h in self._columns:
            index, rows = self._columns[k_h]
            row_mode, s0, phi, rate = (np.array(v) for v in zip(*rows))
            l3 = np.array([m[2] for m in index])
            folded = np.array([basis_normal(m) for m in index])
            folded[:, 2] *= np.sign(l3)
            arrays = (index, np.abs(l3), np.array([eigenvalue(m) for m in index]), folded,
                      row_mode, s0, phi, rate)
            self._arrays[k_h] = arrays
        return arrays

    def _coefficients(self, arrays, t) -> np.ndarray:
        index, _, _, _, row_mode, s0, phi, rate = arrays
        coef = np.zeros(len(index), dtype=complex)
        # phi t / eps in real arithmetic, rounded as the one-row formula rounds it
        np.add.at(coef, row_mode, s0 * np.exp(1j * (phi * t / self.params.epsilon) - rate * t))
        return coef

    def coefficient(self, mode, t):
        mode = tuple(int(c) for c in mode)
        arrays = self._column(mode[:2])
        if arrays is None or mode not in arrays[0]:
            return 0
        return self._coefficients(arrays, t)[arrays[0][mode]]

    def profiles(self, t, z, columns, out=None):
        z = np.asarray(z, dtype=float)
        out = _profiles_out(columns, z, out)
        held = []  # (row of out, column arrays)
        for i, k_h in enumerate(columns):
            arrays = self._column(_kh_tuple(k_h))
            if arrays is not None:
                held.append((i, arrays))
        if not held:
            return out
        n = 1 + max(int(a[1].max()) for _, a in held)
        amp = np.zeros((len(held), n, 3), dtype=complex)
        for c, (_, arrays) in enumerate(held):
            _, j, lam, folded = arrays[:4]
            coef = self._coefficients(arrays, t) * np.exp(-1j * lam * t / self.params.epsilon)
            np.add.at(amp[c], j, coef[:, None] * folded)
        # rows (Re u1, Im u1, Re u2, Im u2) and (Re u3, Im u3) of every column
        amp = amp.view(float).transpose(0, 2, 1)
        zf = z.ravel()
        even, odd = amp[:, :4].reshape(-1, n), amp[:, 4:].reshape(-1, n)
        acc_even, acc_odd = np.zeros((len(even), zf.size)), np.zeros((len(odd), zf.size))
        for s in range(0, n, self.CHUNK):
            cos, sin = _trig_block(np.arange(s, min(s + self.CHUNK, n)), zf)
            acc_even += even[:, s:s + self.CHUNK] @ cos
            acc_odd += odd[:, s:s + self.CHUNK] @ sin
        acc_even = acc_even.reshape((-1, 2, 2) + z.shape)
        acc_odd = acc_odd.reshape((-1, 2) + z.shape)
        for c, (i, _) in enumerate(held):
            col = out[i]
            col.real[:2] += acc_even[c, :, 0]
            col.imag[:2] += acc_even[c, :, 1]
            col.real[2] += acc_odd[c, 0]
            col.imag[2] += acc_odd[c, 1]
        return out

    def horizontal_modes(self):
        return sorted(self._columns)

    def l2_norm(self, t: float) -> float:
        return math.sqrt(sum(float(np.sum(np.abs(self._coefficients(self._column(k_h), t)) ** 2))
                             for k_h in self._columns))


class ModulatedBL(_Part):
    """Wall layers with slow exponential amplitude modulation: the rows of a
    layer table, row i times e^{-rates[i] t}, plus resonant layers (layer,
    rate) on k_h = 0.  The rows of each column are indexed once, at
    construction."""

    def __init__(self, params: Params, table: LayerTable, rates=0j, resonant=()):
        self.params = params
        self.table = table
        self.rates = np.broadcast_to(np.asarray(rates, dtype=complex), (len(table),))
        self.resonant = [(layer, complex(rate)) for layer, rate in resonant]
        columns = {}
        for i, k_h in enumerate(table.columns()):
            columns.setdefault(k_h, []).append(i)
        self._columns = {k_h: np.array(rows) for k_h, rows in columns.items()}

    def _weights(self, t) -> np.ndarray:
        """e^{i mu t/eps} e^{-rate t} of every row."""
        return self.table.phases(t, self.params.epsilon) * np.exp(-self.rates * t)

    def profiles(self, t, z, columns, out=None):
        """Each listed column's rows from one exp(-q zeta) block."""
        z = np.asarray(z, dtype=float)
        out = _profiles_out(columns, z, out)
        weights = self._weights(t)
        for i, k_h in enumerate(columns):
            k_h = _kh_tuple(k_h)
            rows = self._columns.get(k_h)
            if rows is not None:
                out[i] += self.table.profile(rows, weights[rows], z)
            if k_h == (0, 0):
                for layer, rate in self.resonant:
                    out[i] += layer.value(t, z) * np.exp(-rate * t)
        return out

    def horizontal_modes(self):
        ks = set(self._columns)
        if self.resonant:
            ks.add((0, 0))
        return sorted(ks)

    def l2_norm(self, t: float) -> float:
        """Exact L2 norm at time t.  On each column the kept rates of every
        row, times their row's weight, enter one closed-form Gram sum, so
        cross terms between rows count; this needs the column's layers on one
        wall.  The resonant k_h = 0 layers are added in quadrature: the
        classical remainder sharing their column carries the orthogonal
        circular polarisation."""
        tab = self.table
        weights = self._weights(t)
        total = 0.0
        for k_h, rows in self._columns.items():
            if len(set(tab.side[rows].tolist())) > 1:
                raise ValueError(f"column {k_h} holds layers of both walls; "
                                 "a modulated layer lives on one wall")
            keep = tab.keep[rows]
            amps = (tab.amps[rows] * weights[rows, None, None])[keep]
            total += float(_amplitude_l2(amps, tab.q[rows][keep])) ** 2
        for layer, rate in self.resonant:
            total += abs(np.exp(-rate * t)) ** 2 * layer.l2_norm_h(t) ** 2
        return math.sqrt(total)

    def frozen_dt_bound(self) -> float:
        """Majorant of the equation defect from slowly modulating layers built
        for frozen amplitudes: sum over the traces the rows came from (their
        pair) of the root-sum-square over the trace's rows of |rate| times
        the row's norm, that is |rate| times the trace's layer norm."""
        norm_h, norm_3 = self.table.norms()
        sq = np.abs(self.rates) ** 2 * (norm_h ** 2 + norm_3 ** 2)
        return float(np.sum(np.sqrt(np.bincount(self.table.pair, weights=sq))))

    def horizontal_wall_trace_norm(self, wall: int) -> float:
        return math.sqrt(float(np.sum(np.abs(self.table.wall_traces(wall)[0]) ** 2)))

    def dz_horizontal_trace_norm(self, wall: int) -> float:
        return math.sqrt(float(np.sum(np.abs(self.table.wall_traces(wall)[2]) ** 2)))


class HeatColumn(_Part):
    """Resonant k_h = 0 response of the strip to one constant filtered wall
    datum g: the filtered column solves the heat equation with conductivity
    nu.  Side 0: value g at the bottom, stress-free top; side 1: stress g at
    the top, no-slip bottom.  With w_m = (m+1/2) pi,

        side 0:  v(t, z) = g [1 - sum_m 2/w_m e^{-nu w_m^2 t} sin(w_m z)],
        side 1:  v(t, z) = g [z - sum_m 2(-1)^m/w_m^2 e^{-nu w_m^2 t} sin(w_m z)],

    exact at both walls at every t (sin(0) = cos(w_m) = 0).  Side 0 stays
    bounded by |g| uniformly in time; side 1 grows from 0 toward the linear
    shear g z on the 1/nu time scale, the destabilization of the whole
    column.  For nu t << 1 each matches its wall's half-space self-similar
    profile up to exponentially small terms.
    """

    M_MODES = 400

    def __init__(self, params: Params, side: int, entries=None):
        if side not in (0, 1):
            raise ValueError("side must be 0 (bottom value) or 1 (top stress)")
        self.params = params
        self.side = side
        self.entries = list(entries) if entries else []  # (m=+-1, amplitude g)
        m = np.arange(self.M_MODES)
        self._freqs = (m + 0.5) * math.pi
        self._coeffs = 2.0 / self._freqs if side == 0 else 2.0 * (-1.0) ** m / self._freqs ** 2

    @classmethod
    def from_resonant_layer(cls, layer, params: Params):
        return cls(params, layer.side, [(e.mu, e.amplitude) for e in layer.entries])

    def add(self, mu_sign: float, amplitude: complex):
        if amplitude != 0:
            self.entries.append((math.copysign(1.0, mu_sign), complex(amplitude)))

    def _shape(self, t, z):
        z = np.asarray(z, dtype=float)
        decay = np.exp(-self.params.nu * self._freqs ** 2 * t)
        theta = np.tensordot(self._coeffs * decay, np.sin(np.outer(self._freqs, z)), axes=(0, 0))
        return (1.0 if self.side == 0 else z) - theta

    def profiles(self, t, z, columns, out=None):
        z = np.asarray(z, dtype=float)
        out = _profiles_out(columns, z, out)
        mean = [i for i, k_h in enumerate(columns) if _kh_tuple(k_h) == (0, 0)]
        if not mean:
            return out
        shape = self._shape(t, z)
        col = np.zeros((3,) + z.shape, dtype=complex)
        for m, g in self.entries:
            pol = np.array([1.0, 1j * m, 0.0])
            phase = np.exp(1j * m * t / self.params.epsilon)
            col += np.multiply.outer(g * phase * pol, shape)
        for i in mean:
            out[i] += col
        return out

    def horizontal_modes(self):
        return [(0, 0)] if self.entries else []

    def l2_norm(self, t: float) -> float:
        xg, wg = _GAUSS_Z
        z = 0.5 * (xg + 1.0)
        shape_sq = float(np.sum(0.5 * wg * self._shape(t, z) ** 2))
        total = sum(2.0 * abs(g) ** 2 * shape_sq for _, g in self.entries)
        return 2.0 * math.pi * math.sqrt(total)


@dataclass
class ApproxSolution:
    """Named parts of an assembled approximation plus its bookkeeping.

    parts: {name: part object} where each part exposes profiles(t, z,
    columns), hat_profile(k_h, t, z), l2_norm(t) and horizontal_modes().
    residuals: {name: magnitude} of recorded equation/boundary defects.  The
    sum satisfies the intended boundary conditions up to the recorded
    residual traces and is divergence-free up to the recorded lift residuals.
    """

    params: Params
    parts: dict
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def horizontal_modes(self):
        ks = set()
        for p in self.parts.values():
            ks.update(p.horizontal_modes())
        return sorted(ks)

    def _selected(self, include) -> list:
        """The parts named in `include` (all parts when None), in part order;
        a name that is not a part is rejected."""
        if include is None:
            return list(self.parts.values())
        unknown = [name for name in include if name not in self.parts]
        if unknown:
            raise ValueError(f"no part named {unknown[0]!r}; the parts are {list(self.parts)}")
        return [p for name, p in self.parts.items() if name in include]

    def hat_profile(self, k_h, t, z, include=None):
        z = np.asarray(z, dtype=float)
        out = np.zeros((3,) + z.shape, dtype=complex)
        for p in self._selected(include):
            out += p.hat_profile(k_h, t, z)
        return out

    def part_norms(self, t: float) -> dict:
        return {name: p.l2_norm(t) for name, p in self.parts.items()}

    def total_norm(self, t: float, nz: int = 800, include=None) -> float:
        """L2 norm of the sum of the parts named in `include` (all parts when
        None) on a wall-refined grid of nz points; each part adds all its
        columns into one array in one profiles call."""
        parts = self._selected(include)
        z = _norm_grid(self.params, nz)
        columns = sorted({k for p in parts for k in p.horizontal_modes()})
        prof = np.zeros((len(columns), 3, len(z)), dtype=complex)
        for p in parts:
            p.profiles(t, z, columns, prof)
        total = sum(np.trapezoid(np.sum(np.abs(col) ** 2, axis=0), z) for col in prof)
        return 2.0 * math.pi * math.sqrt(total)

    def summary(self, t: float) -> dict:
        return {
            "time": t,
            "part_norms": self.part_norms(t),
            "residuals": dict(self.residuals),
            "total_norm": self.total_norm(t),
        }


def _norm_grid(params: Params, nz: int) -> np.ndarray:
    """z grid clustered at both walls down to below the layer scale: nz must
    be an integer >= 6, so that each wall gets at least two geometric points."""
    if isinstance(nz, bool) or not isinstance(nz, (int, np.integer)) or nz < 6:
        raise ValueError(f"nz must be an integer >= 6, got {nz!r}")
    delta = max(params.layer_scale * 1e-3, 1e-14)
    m = nz // 3
    lower = np.geomspace(delta, 0.45, m)
    core = np.linspace(0.45, 0.55, nz - 2 * m)
    return np.unique(np.concatenate([[0.0], lower, core, 1.0 - lower[::-1], [1.0]]))


# -- stages shared by the assemblies -----------------------------------------


def _bottom_layers(tables, rates, params: Params) -> ModulatedBL:
    """The layer operator on bottom Dirichlet traces {(mu, k_h): 2-vector},
    all tables in one batched layer step, the rows of tables[i] modulated at
    rates[i].  Resonant content (|mu| = 1, k_h = 0) is rejected."""
    table, resonant = build_layers([(BoundaryTrace(0, t), empty_trace(1)) for t in tables], params)
    if any(resonant):
        raise ValueError("a secondary-layer trace has resonant content (|mu| = 1, k_h = 0)")
    return ModulatedBL(params, table, np.array(rates, dtype=complex)[table.pair])


def _truncate(k_h, K: int, source):
    """Source values over the column's modes l = (k_h, l3), |l3| <= 4 max(K, 1),
    from one call source(l3) on that l3 array: the kept (l, s) pairs with
    |l| <= K, in l3 order, and sum |s|^2 over the dropped tail, accumulated in
    l3 order.  Zero sources are skipped."""
    n = 4 * max(K, 1)
    l3 = np.arange(-n, n + 1)
    s = source(l3)
    nonzero = s != 0
    tail = nonzero & (k_h[0] ** 2 + k_h[1] ** 2 + l3 ** 2 > K ** 2)
    keep = nonzero & ~tail
    kept = [((k_h[0], k_h[1], j), v) for j, v in zip(l3[keep].tolist(), s[keep])]
    tail_sq = float(np.cumsum(np.abs(s[tail]) ** 2)[-1]) if tail.any() else 0.0
    return kept, tail_sq


def _complex_product(a, x):
    """a x for a complex scalar a and array x, rounded as a scalar complex
    product rounds it: numpy's complex multiply on arrays may fuse its
    multiply-adds and then differs in the last bit."""
    a = complex(a)
    return (a.real * x.real - a.imag * x.imag) + 1j * (a.real * x.imag + a.imag * x.real)


def _vertical_wall_traces(layer: ModulatedBL, walls) -> list:
    """[(mu, rate, k_h, wall, vertical value)] of every row of the layer."""
    tab = layer.table
    values = {wall: tab.wall_traces(wall)[1] for wall in walls}
    return [(float(tab.mu[i]), complex(layer.rates[i]), k_h, wall, values[wall][i])
            for i, k_h in enumerate(tab.columns()) for wall in walls]


def _stopping_lifts(params: Params, rows) -> OscillatingPoly:
    """Stopping lifts cancelling the vertical wall values of `rows`
    (mu, rate, k_h, wall, value): one lift per (mu, rate) family, in order
    of mu and Re(rate)."""
    families = {}
    for mu, rate, k_h, wall, value in rows:
        if value == 0:
            continue
        sides = families.setdefault((mu, complex(rate)), ({}, {}))
        sides[wall][k_h] = sides[wall].get(k_h, 0j) - value
    lift = OscillatingPoly(params)
    zero2 = np.zeros(2, dtype=complex)
    for (mu, rate), sides in sorted(families.items(), key=lambda kv: (kv[0][0], kv[0][1].real)):
        d0, d1 = ({k: (zero2, v) for k, v in side.items()} for side in sides)
        lift.add(stopping_lift(d0, d1), mu, rate)
    return lift


def _lift_equation_bound(lift: OscillatingPoly, params: Params) -> float:
    """(1/eps)||w|| + ||Lap_h w|| + nu ||dzz w|| + |rate| ||w|| over entries."""
    total = 0.0
    for f, mu, rate in lift.entries:
        col_sq = f.column_sq()
        norm = 2.0 * math.pi * math.sqrt(float(col_sq.sum()))
        lap = float(f._kh2() ** 2 @ col_sq)
        dzz = float(f.column_sq(2).sum())
        total += norm / params.epsilon + 2.0 * math.pi * math.sqrt(lap) \
            + params.nu * 2.0 * math.pi * math.sqrt(dzz) + abs(rate) * norm
    return total


# -- wind-driven assembly ----------------------------------------------------


def assemble_wind_approx(sigma: BoundaryTrace, params: Params) -> ApproxSolution:
    """Approximate solution of the wind-forced problem (zero initial data).

    Parts: the surface layer B(0, beta sigma); the flux corrector v_int
    restoring zero flux at z = 1 under the quasi-resonant layer; the
    truncated oscillating interior corrector absorbing the flux corrector's
    fast defect; the secondary bottom layer cancelling the horizontal traces
    those correctors leave at z = 0; and the final divergence-free stopping
    lift for the remaining (compatible) vertical traces.  The stress
    amplitude is checked against the smallness scaling (meta["scaling"]).
    """
    if sigma.side != 1:
        raise ValueError("wind stress acts on the surface (side 1)")
    eps, nu = params.epsilon, params.nu
    ok, diag = scaling_check(params)
    if not ok:
        warnings.warn("stress amplitude violates the smallness scaling; "
                      "assembly proceeds but convergence is not guaranteed",
                      stacklevel=2)
    K = truncation_choice(params, "wind_small_nu" if nu <= eps else "wind_large_nu")
    meta = {"scaling_ok": ok, "scaling": diag, "K": K}

    layer = build_B(empty_trace(0), sigma.scaled(params.beta), params)
    surface = ModulatedBL(params, layer.table, 0j, [(r, 0j) for r in layer.resonant])

    # flux corrector for the quasi-resonant vertical trace at z = 1
    tab = layer.table
    top = tab.wall_traces(1)[1]
    flux = dict(sorted(((float(tab.mu[i]), _kh_tuple(tab.k_h[i])), top[i])
                       for i in np.flatnonzero(tab.quasi & (top != 0))))
    v_int = OscillatingPoly(params)
    for (mu, k_h), tau in flux.items():
        v_int.add(lift_interior_vint1({k_h: tau}), mu)

    # oscillating interior corrector for v_int's fast defect, from zero
    # initial data; its bottom trace is steady per (mu, k_h), where it joins
    # v_int's own, plus one piece per mode decaying at the mode's rate
    osc = SpectralPart(params)
    tail_sq = 0.0
    steady = {}
    decaying = []  # (trace table, rate)
    for (mu, k_h), tau in flux.items():
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        q = -tau * (1.0 + 1j * mu / (eps * kh2))
        r = -tau / (eps * kh2)

        def source(l3):
            F1, F2, _, _ = column_forms(k_h, l3)
            return -(q * F1 + r * F2)

        kept, tail = _truncate(k_h, K, source)
        tail_sq += tail
        steady[(mu, k_h)] = 1j * np.array(k_h) * tau / kh2  # minus v_int's value
        for l, s in kept:
            lam_l = eigenvalue(l)
            kappa = mode_decay_constant(l, params)
            w = s / (1j * (lam_l + mu) / eps + kappa)
            # zero-initial-data Duhamel: w (e^{i(lam+mu)t/eps} - e^{-kappa t})
            osc.add(l, w, mu + lam_l)
            osc.add(l, -w, rate=kappa)
            trace = w * basis_normal(l)[:2]
            steady[(mu, k_h)] -= trace
            decaying.append(({(-lam_l, k_h): trace}, kappa))

    # secondary bottom layer: cancel horizontal traces of v_int and osc at z=0
    tables = ([(steady, 0j)] if steady else []) + decaying
    secondary = _bottom_layers([t for t, _ in tables], [r for _, r in tables], params)

    # stopping lift for the remaining vertical traces; v_int carries the
    # quasi-resonant flux at z = 1
    rows = [r for r in _vertical_wall_traces(surface, (0, 1))
            if r[3] == 0 or (r[0], r[2]) not in flux]
    lift = _stopping_lifts(params, rows + _vertical_wall_traces(secondary, (0, 1)))

    parts = {
        "surface_layer": surface,
        "flux_corrector": v_int,
        "oscillating_corrector": osc,
        "secondary_layer": secondary,
        "stopping_lift": lift,
    }
    residuals = {
        "truncated_source_norm": math.sqrt(tail_sq),
        "truncated_response_norm": eps * math.sqrt(tail_sq),
        "frozen_coefficient_dt": secondary.frozen_dt_bound(),
        "stopping_lift_equation": _lift_equation_bound(lift, params),
        "bottom_horizontal_trace": surface.horizontal_wall_trace_norm(0),
        "secondary_top_traces": (secondary.horizontal_wall_trace_norm(1)
                                 + secondary.dz_horizontal_trace_norm(1)),
    }
    sol = ApproxSolution(params=params, parts=parts, residuals=residuals, meta=meta)
    residuals["initial_mismatch"] = sol.total_norm(0.0)
    return sol


# -- Dirichlet (initial value) assembly --------------------------------------


def assemble_dirichlet_approx(gamma: SpectralField, params: Params,
                              corrector_variant: str = "special") -> ApproxSolution:
    """Approximate solution of the initial-value problem with homogeneous
    boundary conditions, built around the damped envelope.

    Parts: the filtered interior (envelope amplitudes with Ekman damping,
    un-filtered by the rotation phases); the bottom layer cancelling the
    interior's horizontal wall trace; the resonant column response of the
    k_h = 0 modes; the interior flux lift absorbing the layer's Ekman
    suction; the oscillating corrector for the flux lift's fast defect; the
    secondary bottom layer for the remaining horizontal trace; and the final
    stopping lift.  Also records the initial-data mismatch delta_gamma.

    corrector_variant 'special' (default) uses the decay-preserving
    particular solution for the oscillating corrector, accepting a nonzero
    corrector at t = 0; 'zero_ic' starts the corrector from zero instead
    (plain Duhamel), trading the initial mismatch for extra slowly-decaying
    trace families.
    """
    if corrector_variant not in ("special", "zero_ic"):
        raise ValueError(f"unknown corrector_variant {corrector_variant!r}")
    eps = params.epsilon
    K = truncation_choice(params, "dirichlet")
    meta = {"K": K, "corrector_variant": corrector_variant}

    # the pumping's layer step at mu = -lambda_k gives the envelope rates and,
    # with the trace -gamma_k n_h(k), the bottom layer
    modes = gamma.modes()
    pump = pumping(modes, params)
    rates = {k: complex(r) for k, r in zip(modes, pump.envelope_rates())}
    interior = SpectralPart(params)
    for k in modes:
        interior.add(k, gamma[k], rate=rates[k])

    # bottom layer from the interior's horizontal trace at z = 0; the fully
    # resonant k_h = 0 trace drives the strip heat column instead
    resonant_col = HeatColumn(params, 0)
    for k in modes:
        if k[:2] == (0, 0):
            m = math.copysign(1.0, -eigenvalue(k))
            trace = -gamma[k] * basis_normal(k)[:2]
            resonant_col.add(m, 0.5 * complex(np.vdot(np.array([1.0, 1j * m]), trace)))
    # the Ekman suction gamma_k S_k (delta3_hat amplitude) is what the layer
    # leaves at z = 0, read off its vertical trace there
    layered = [modes[i] for i in pump.layered]
    table = wall_layers(0, pump.basis, [-gamma[k] * basis_normal(k)[:2] for k in layered], params)
    bottom = ModulatedBL(params, table,
                         np.array([rates[k] for k in layered], dtype=complex)[table.pair])
    wall_value = np.zeros(len(layered), dtype=complex)
    wall_value[table.pair] = table.wall_traces(0)[1]
    suction = {k: -v / params.layer_scale for k, v in zip(layered, wall_value.tolist())}

    # interior flux lift v_int0 for the Ekman suction (delta1_3 = 0)
    v_int0 = OscillatingPoly(params)
    for k in sorted(suction):
        v_int0.add(lift_interior_vint0({k[:2]: suction[k]}, {}, params), -eigenvalue(k), rates[k])

    # oscillating interior corrector for v_int0's off-diagonal fast defect;
    # rows collect the horizontal bottom traces per (mu, k_h, rate)
    osc = SpectralPart(params)
    tail_sq = 0.0
    rows = {}

    def add_row(mu, k_h, rate, vec):
        key = (mu, k_h, complex(rate))
        rows[key] = rows.get(key, 0) + vec

    for k in sorted(suction):
        k_h = k[:2]
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        mu = -eigenvalue(k)
        a_k = rates[k]
        c0 = -1j * params.layer_scale * suction[k] / kh2
        add_row(mu, k_h, a_k, -c0 * np.array(k_h))  # minus v_int0's own wall value

        def source(l3):
            F1, F2, G, lam = column_forms(k_h, l3)
            s = _complex_product(-c0, (1j * (a_k - kh2) + mu / eps) * (F1 - kh2 * G)
                                 - 1j * (F2.real / eps))
            # the diagonal term is already in the envelope equation
            return np.where((l3 == k[2]) | (np.abs(mu + lam) < 1e-12), 0j, s)

        kept, tail = _truncate(k_h, K, source)
        tail_sq += tail
        for l, s in kept:
            lam_l = eigenvalue(l)
            kappa = mode_decay_constant(l, params)
            w = s / (1j * (lam_l + mu) / eps - a_k + kappa)
            # decay-preserving special solution (keeps the envelope's decay)
            osc.add(l, w, mu + lam_l, a_k)
            trace = w * basis_normal(l)[:2]
            add_row(mu, k_h, a_k, -trace)
            if corrector_variant == "zero_ic":
                # subtract the homogeneous transient so the corrector starts
                # from zero; its trace decays at the mode's own rate
                osc.add(l, -w, rate=kappa)
                add_row(-lam_l, k_h, kappa, trace)

    # secondary bottom layer for those traces, one layer per rate
    by_rate = {}
    for (mu, k_h, rate), vec in sorted(rows.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        by_rate.setdefault(rate, {})[(mu, k_h)] = vec
    by_rate = sorted(by_rate.items(), key=lambda kv: (kv[0].real, kv[0].imag))
    secondary = _bottom_layers([t for _, t in by_rate], [r for r, _ in by_rate], params)

    # stopping lift for the opposite-wall vertical traces of both layers and
    # the secondary layer's own; v_int0 cancels the bottom layer's suction
    lift = _stopping_lifts(params, _vertical_wall_traces(bottom, (1,))
                           + _vertical_wall_traces(secondary, (1,))
                           + _vertical_wall_traces(secondary, (0,)))

    parts = {
        "interior_envelope": interior,
        "bottom_layer": bottom,
        "resonant_column": resonant_col,
        "flux_lift": v_int0,
        "oscillating_corrector": osc,
        "secondary_layer": secondary,
        "stopping_lift": lift,
    }
    residuals = {
        "truncated_source_norm": math.sqrt(tail_sq),
        "truncated_response_norm": eps * math.sqrt(tail_sq),
        "eta0_vertical": 0.0,  # exact: no top trace data was used
        "eta1_stress_trace": math.hypot(bottom.dz_horizontal_trace_norm(1),
                                        secondary.dz_horizontal_trace_norm(1)),
        "stopping_lift_equation": _lift_equation_bound(lift, params),
        "frozen_coefficient_dt": bottom.frozen_dt_bound() + secondary.frozen_dt_bound(),
    }
    sol = ApproxSolution(params=params, parts=parts, residuals=residuals, meta=meta)
    residuals["initial_mismatch"] = sol.total_norm(
        0.0, 600, include=[name for name in parts if name != "interior_envelope"])
    return sol
