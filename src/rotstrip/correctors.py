"""Interior lifts, small-divisor correctors and approximate solutions.

The layer profiles of `layers` leave small traces on the walls and small
defects in the evolution equation; this module builds the correction
hierarchy that absorbs them and assembles the full approximations of the
wind-forced and the initial-value problems.  Three private kernels build the
hierarchy, and both assemblies call them: `_lift_coef`, the divergence-free
polynomial lift with exact traces (the stopping lift); `_flux_lift`, the
interior flux lift for the surface flux and the Ekman suction; and
`_duhamel`, the mode-wise Duhamel amplitudes of the correctors of
fast-oscillating non-resonant sources.
"""

from __future__ import annotations

import bisect
import math
import warnings
from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .params import Params, _finite
from .spectral import (
    SpectralField,
    basis_normal,
    basis_normals,
    eigenvalue,
    eigenvalues,
)
from .layers import (BoundaryTrace, HeatColumn, ModulatedBL, _column_index, _kh_tuple, _Part,
                     _slices, build_B, build_layers, empty_trace, wall_layers)
from .envelope import pumping

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)
_GAUSS_Z = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W  # nodes and weights on [0, 1]
_NORM_GAUSS_X, _NORM_GAUSS_W = np.polynomial.legendre.leggauss(10)  # _norm_rule's panel rule


def _powers(z, ndeg: int) -> np.ndarray:
    """The power rows z^0 .. z^(ndeg-1) of the heights z (1-D), (ndeg,
    len(z)), each row the one before times z (np.vander's products, formed
    along the long axis)."""
    V = np.empty((ndeg, len(z)))
    V[:1] = 1.0
    for i in range(1, ndeg):
        np.multiply(V[i - 1], z, out=V[i])
    return V


def _polyval(coef, z) -> np.ndarray:
    """The power series coef (..., ndeg) on the heights z, of shape (...) +
    z.shape, through one build of the power rows and one 2-D matrix product."""
    z = np.asarray(z, dtype=float)
    ndeg = coef.shape[-1]
    values = coef.reshape(-1, ndeg) @ _powers(z.ravel(), ndeg)
    return values.reshape(coef.shape[:-1] + z.shape)


def _column_sq(coef, order: int = 0) -> np.ndarray:
    """int_0^1 |dz^order w|^2 dz of each column w (3, ndeg) of coef (n, 3,
    ndeg), by Gauss quadrature, exact for the degrees used here."""
    z, w = _GAUSS_Z
    coef = np.polynomial.polynomial.polyder(coef, order, axis=2)
    return (np.abs(_polyval(coef, z)) ** 2 @ w).sum(axis=1)


def _dz(coef) -> np.ndarray:
    """The power series coef (..., ndeg) differentiated once."""
    return coef[..., 1:] * np.arange(1, coef.shape[-1])


# ---------------------------------------------------------------------------
# polynomial-in-z mode fields (lifts)
# ---------------------------------------------------------------------------


class _Columns(MutableMapping):
    """The live {k_h: (P1, P2, P3)} view of a ZPolyField's coefficient
    table: reading a column builds its three Polynomials; writing one or
    deleting one replaces the field's rows, adding a column or raising the
    degree as needed."""

    def __init__(self, field_):
        self._field = field_

    def __getitem__(self, k_h):
        f = self._field
        return tuple(Polynomial(row) for row in f._coef[f._row(k_h)])

    def __setitem__(self, k_h, polys):
        rows = [p.coef for p in polys]
        if len(rows) != 3:
            raise ValueError(f"column {k_h} needs three profiles, got {len(rows)}")
        self._field._put({**self._field._rows(), _kh_tuple(k_h): rows})

    def __delitem__(self, k_h):
        rows = self._field._rows()
        del rows[_kh_tuple(k_h)]
        self._field._put(rows)

    def __iter__(self):
        return iter(list(self._field._keys))

    def __len__(self):
        return len(self._field._keys)


class ZPolyField:
    """Vector field with finitely many horizontal modes and polynomial
    vertical profiles: u = sum_kh (p1(z), p2(z), p3(z)) e^{i k_h . x_h}.

    The field holds its distinct columns k_h sorted and one (ncol, 3, ndeg)
    array of their power-series coefficients: ZPolyField(keys, coef) gives
    column keys[i] (distinct) the coefficients coef[i], stored as given when
    keys are sorted.  modes is a live {k_h: (P1, P2, P3)} Polynomial view of
    that array; a write through it replaces rows and counts up version, and
    every evaluation reads the array when called."""

    def __init__(self, keys, coef):
        keys = [_kh_tuple(k) for k in keys]
        coef = np.asarray(coef, dtype=complex)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if order != list(range(len(keys))):
            keys, coef = [keys[i] for i in order], coef[order]
        self._keys, self._coef = keys, coef
        self.version = 0  # writes through modes

    @property
    def modes(self) -> _Columns:
        return _Columns(self)

    def _rows(self) -> dict:
        return dict(zip(self._keys, self._coef))

    def _put(self, rows: dict):
        """Store the columns {k_h: three coefficient sequences}, zero-padded
        to the longest, as a write."""
        keys = sorted(rows)
        coef = np.zeros((len(keys), 3, max((len(r) for k in keys for r in rows[k]), default=1)),
                        dtype=complex)
        for i, k_h in enumerate(keys):
            for c, r in enumerate(rows[k_h]):
                coef[i, c, :len(r)] = r
        self._keys, self._coef = keys, coef
        self.version += 1

    def _row(self, k_h) -> int:
        """The row of column k_h; KeyError if the field has none."""
        k_h = _kh_tuple(k_h)
        i = bisect.bisect_left(self._keys, k_h)
        if self._keys[i:i + 1] != [k_h]:
            raise KeyError(k_h)
        return i

    def items(self):
        return ((k, self.modes[k]) for k in list(self._keys))

    def coefficients(self):
        """(the sorted columns, their (ncol, 3, ndeg) coefficient array), the
        stored array itself."""
        return list(self._keys), self._coef

    def hat_profile(self, k_h, z) -> np.ndarray:
        try:
            coef = self._coef[self._row(k_h)]
        except KeyError:
            coef = np.zeros((3, 1), dtype=complex)
        return _polyval(coef, z)

    def l2_norm(self) -> float:
        return 2.0 * math.pi * math.sqrt(float(_column_sq(self._coef).sum()))

    def divergence_residual(self) -> float:
        keys, coef = self.coefficients()
        k = np.array(keys, dtype=float).reshape(-1, 2)
        div = 1j * k[:, :1] * coef[:, 0] + 1j * k[:, 1:] * coef[:, 1]
        div[:, :-1] += _dz(coef[:, 2])
        return float(np.max(np.abs(_polyval(div, _GAUSS_Z[0])), initial=0.0))


# ---------------------------------------------------------------------------
# stopping lift
# ---------------------------------------------------------------------------

_BUMP = np.array([0.0, 1.0, -2.0, 1.0])  # z(1-z)^2


def _lift_coef(keys, d0, d1, scale) -> np.ndarray:
    """The (n, 3, 5) coefficients of the stopping lift on the columns keys
    with traces d0, d1 ((n, 3) arrays of (delta_h, delta_3)): the
    divergence-free w with w|_{z=0} = delta0, w3|_{z=1} = delta1_3 and
    dz w_h|_{z=1} = delta1_h.  Its horizontal part is delta0_h + delta1_h z +
    grad_h(phi) z(1-z)^2, phi solving the mode-wise elliptic balance
        (1/12) Lap_h phi = -div_h delta0_h - (1/2) div_h delta1_h - delta1_3 + delta0_3
    (zero gauge at k_h = 0), and its vertical part integrates the divergence
    from delta0_3.  A k_h = 0 column must meet the compatibility integral
    delta1_3 = delta0_3 to 1e-12 of its row's scale (n,)."""
    k = np.array(keys, dtype=float).reshape(-1, 2)
    kh2 = k[:, 0] ** 2 + k[:, 1] ** 2
    mean = kh2 == 0
    gap = d1[:, 2] - d0[:, 2]
    bad = np.abs(gap) > 1e-12 * np.maximum(scale, 1e-300)
    if np.any(mean & bad):
        raise ValueError("stopping lift requires the mean of delta1_3 - delta0_3 to vanish "
                         f"(got {gap[mean & bad][0]})")
    ikd0 = 1j * (k[:, 0] * d0[:, 0] + k[:, 1] * d0[:, 1])
    ikd1 = 1j * (k[:, 0] * d1[:, 0] + k[:, 1] * d1[:, 1])
    phi = np.where(mean, 0j, 12.0 * (ikd0 + 0.5 * ikd1 + d1[:, 2] - d0[:, 2])
                   / np.where(mean, 1.0, kh2))
    coef = np.zeros((len(k), 3, 5), dtype=complex)
    coef[:, :2, 0] = d0[:, :2]
    coef[:, :2, 1] = d1[:, :2]
    coef[:, :2, :4] += (1j * k * phi[:, None])[:, :, None] * _BUMP
    # w3(z) = d03 - int_0^z div_h w_h
    div_wh = 1j * k[:, :1] * coef[:, 0, :4] + 1j * k[:, 1:] * coef[:, 1, :4]
    coef[:, 2, 0] = d0[:, 2]
    coef[:, 2, 1:] = -(div_wh / np.arange(1.0, 5.0))
    return coef


# ---------------------------------------------------------------------------
# interior flux lifts
# ---------------------------------------------------------------------------


def _flux_lift(keys, d0, d1) -> ZPolyField:
    """v3 = d1 z + d0 (1-z), v_h = grad_h Lap_h^{-1} (d0 - d1) on the columns
    keys, all k_h != 0, with vertical traces d0, d1 (arrays)."""
    k = np.array(keys, dtype=float).reshape(-1, 2)
    kh2 = k[:, 0] ** 2 + k[:, 1] ** 2
    coef = np.zeros((len(k), 3, 2), dtype=complex)
    coef[:, :2, 0] = -1j * k * (d0 - d1)[:, None] / kh2[:, None]
    coef[:, 2, 0] = d0
    coef[:, 2, 1] = d1 - d0
    return ZPolyField(keys, coef)


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


# ---------------------------------------------------------------------------
# small-divisor correctors
# ---------------------------------------------------------------------------


def mode_decay_constant(l, params: Params):
    """kappa_l = |l_h|^2 + pi^2 nu l3^2 of a mode l, or of each row of an
    (n, 3) integer array of modes."""
    l = np.asarray(l)
    return l[..., 0] ** 2 + l[..., 1] ** 2 + params.nu_prime * l[..., 2] ** 2


def _duhamel(l, s, mu: float, rate, params: Params):
    """(lambda_l, kappa_l, w) of the modes l (n, 3): w e^{i(lambda_l + mu)t/eps - rate t}
    solves the mode ODE dt w_l + kappa_l w_l = s e^{i(lambda_l + mu)t/eps - rate t},
    w = s / (kappa_l - rate + i(lambda_l + mu)/eps), for mu != -lambda_l.
    This is the decay-preserving special solution; the one from zero data
    subtracts w e^{-kappa_l t}."""
    lam = eigenvalues(l)
    kappa = mode_decay_constant(l, params)
    w = s / ((kappa - rate.real) + 1j * ((lam + mu) / params.epsilon - rate.imag))
    return lam, kappa, w


#: the regularity s0 of the stress that the wind truncations assume
TRUNCATION_S0 = 2.0
#: the stress smallness scaling beta <= SCALING_C nu^{-SCALING_ALPHA0} eps^{1/4}
SCALING_C, SCALING_ALPHA0 = 1.0, 0.55


def truncation_choice(params: Params, regime: str) -> int:
    """Truncation K balancing the corrector size against the projection tail,
    s0 = TRUNCATION_S0:

    wind_small_nu (nu <= eps): K = (eps nu)^{-1/(2(s0+2))}
    wind_large_nu (nu >= eps): K = (nu sqrt(eps))^{-1/(s0+3)}
    dirichlet:                 K = eps^{-1/2}
    """
    eps, nu, s0 = params.epsilon, params.nu, TRUNCATION_S0
    if regime == "wind_small_nu":
        K = (eps * nu) ** (-1.0 / (2.0 * (s0 + 2.0)))
    elif regime == "wind_large_nu":
        K = (nu * math.sqrt(eps)) ** (-1.0 / (s0 + 3.0))
    elif regime == "dirichlet":
        K = eps ** -0.5
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return int(math.ceil(K - 1e-12))


def scaling_check(params: Params):
    """Check the stress amplitude against beta <= C nu^{-alpha0} eps^{1/4}
    (C = SCALING_C, alpha0 = SCALING_ALPHA0 < 7/12) and report the three
    downstream smallness conditions."""
    eps, nu, beta = params.epsilon, params.nu, params.beta
    bound = SCALING_C * nu ** (-SCALING_ALPHA0) * eps ** 0.25
    ok = beta <= bound
    diagnostics = {
        "bound": bound,
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


class OscillatingPoly(_Part):
    """Sum of polynomial lift fields with phases e^{i mu t/eps} e^{-rate t}.

    On first evaluation the entries' columns join into one table of rows
    (column, entry, (3, ndeg) coefficients), stably sorted by column, so
    that a column's rows are one slice in entry order; it joins again when
    an entry was added or an entry's field written through its modes.  A
    call takes one exp over the listed columns' rows, sums each column's
    phased rows into one (len(columns), 3, ndeg) array and evaluates it
    through one Vandermonde matrix."""

    def __init__(self, params: Params):
        self.params = params
        self.entries = []  # (ZPolyField, mu, rate)
        self._stamp = None

    def add(self, field_, mu, rate=0j):
        if field_.modes:
            self.entries.append((field_, float(mu), complex(rate)))

    def _table(self) -> np.ndarray:
        """The joined coefficient rows, joining them again first if entries
        were added or their fields written since."""
        stamp = [f.version for f, _, _ in self.entries]
        if stamp != self._stamp:
            tables = [f.coefficients() for f, _, _ in self.entries]
            count = [len(keys) for keys, _ in tables]
            coef = np.zeros((sum(count), 3, max((c.shape[2] for _, c in tables), default=1)),
                            dtype=complex)
            for (_, c), a in zip(tables, np.cumsum([0] + count).tolist()):
                coef[a:a + len(c), :, :c.shape[2]] = c
            k_h = np.array([k for keys, _ in tables for k in keys], dtype=int).reshape(-1, 2)
            _, column = np.unique(k_h, axis=0, return_inverse=True)
            order = np.argsort(column.ravel(), kind="stable")
            self._coef, self._k_h = coef[order], k_h[order]
            self._entry = np.repeat(np.arange(len(tables)), count)[order]
            self._mu = np.array([mu for _, mu, _ in self.entries], dtype=float)[self._entry]
            self._rate = np.array([r for _, _, r in self.entries], dtype=complex)[self._entry]
            self._index = _column_index(self._k_h)
            self._stamp = stamp
        return self._coef

    def _add(self, t, z, columns, out):
        self._table()
        held = _slices(self._index, columns)
        if not held:
            return
        rows = np.concatenate([np.arange(a, b) for _, a, b in held])
        first = np.cumsum([0] + [b - a for _, a, b in held[:-1]])
        phase = np.exp(1j * self._mu[rows] * t / self.params.epsilon - self._rate[rows] * t)
        coef = np.add.reduceat(self._coef[rows] * phase[:, None, None], first, axis=0)
        for (i, _, _), v in zip(held, _polyval(coef, z)):
            out[i] += v

    def horizontal_modes(self):
        self._table()
        return list(self._index[0])

    def l2_norm(self, t: float) -> float:
        values = self.profiles(t, _GAUSS_Z[0], self.horizontal_modes())
        return 2.0 * math.pi * math.sqrt(float(np.sum(np.abs(values) ** 2 @ _GAUSS_Z[1])))


def _trig_block(j, z):
    """cos(pi j z) and sin(pi j z) for the integers j and heights z, each
    of shape (len(j), len(z))."""
    arg = np.multiply.outer(math.pi * j, z)
    return np.cos(arg), np.sin(arg)


class SpectralPart(_Part):
    """Interior eigenmode sum: sum_l c_l(t) e^{-i lambda_l t / eps} N_l, each
    coefficient c_l(t) a sum of amplitude rows s0 e^{i phi t/eps - rate t}.

    On first evaluation the rows join into one table: the modes sorted, so
    that a column's modes are one slice, each with lambda_l and n(l) folded
    onto |l3| (cos is even and sin odd, so the u3 row takes sign(l3)), and
    the rows stably sorted by mode, so that a mode's rows are one slice in
    the order they were added.  A call takes one exp over the rows of each
    column it lists, summed into their modes in row order, and evaluates the
    columns' folded amplitudes in one pass over j = |l3| in blocks of CHUNK:
    one cos/sin(pi j z) block shared by every column and one real matrix
    product per block, so the trig arrays stay CHUNK x len(z) whatever the
    number of modes and columns.
    """

    CHUNK = 64

    def __init__(self, params: Params):
        self.params = params
        self._chunks = []  # (modes, s0, phi, rate) arrays, in order added
        self.add_rows(np.zeros((0, 3)), 0j)

    def add_rows(self, modes, s0, phi=0.0, rate=0j):
        """Add the rows s0[i] e^{i phi[i] t/eps - rate[i] t} to the
        coefficients of modes[i], an (n, 3) integer array; s0, phi and rate
        broadcast to n."""
        modes = np.asarray(modes, dtype=int).reshape(-1, 3)
        self._chunks.append((modes,) + tuple(
            np.broadcast_to(np.asarray(v, dtype=d), len(modes))
            for v, d in ((s0, complex), (phi, float), (rate, complex))))
        self._modes = None  # the joined table is formed again when evaluated

    def _table(self) -> np.ndarray:
        """The sorted modes (m, 3), joining the rows into the table first if
        rows were added since."""
        if self._modes is None:
            modes, s0, phi, rate = (np.concatenate(v) for v in zip(*self._chunks))
            self._modes, row_mode = np.unique(modes, axis=0, return_inverse=True)
            order = np.argsort(row_mode, kind="stable")
            self._row_mode = row_mode[order]
            self._s0, self._phi, self._rate = s0[order], phi[order], rate[order]
            self._start = np.searchsorted(self._row_mode, np.arange(len(self._modes) + 1)).tolist()
            self._index, self._j = _column_index(self._modes[:, :2]), np.abs(self._modes[:, 2])
            self._lam = eigenvalues(self._modes)
            self._folded = basis_normals(self._modes)
            self._folded[:, 2] *= np.sign(self._modes[:, 2])
        return self._modes

    def _coefficients(self, t, a, b) -> np.ndarray:
        """c_l(t) of the table's modes a .. b - 1, from the slice of their rows."""
        r0, r1 = self._start[a], self._start[b]
        s0, phi, rate = self._s0[r0:r1], self._phi[r0:r1], self._rate[r0:r1]
        coef = np.zeros(b - a, dtype=complex)
        # phi t / eps in real arithmetic, rounded as the one-row formula rounds it
        np.add.at(coef, self._row_mode[r0:r1] - a,
                  s0 * np.exp(1j * (phi * t / self.params.epsilon) - rate * t))
        return coef

    def modes(self):
        return [tuple(m) for m in self._table().tolist()]

    def coefficient(self, mode, t):
        hit = np.flatnonzero((self._table() == np.asarray(mode, dtype=int)).all(axis=1))
        return self._coefficients(t, hit[0], hit[0] + 1)[0] if len(hit) else 0

    def _add(self, t, z, columns, out):
        self._table()
        held = _slices(self._index, columns)
        if not held:
            return
        n = 1 + max(int(max(self._j[a], self._j[b - 1])) for _, a, b in held)  # l3 ascends
        amp = np.zeros((len(held), n, 3), dtype=complex)
        for c, (_, a, b) in enumerate(held):
            coef = self._coefficients(t, a, b) * np.exp(-1j * self._lam[a:b] * t
                                                         / self.params.epsilon)
            np.add.at(amp[c], self._j[a:b], coef[:, None] * self._folded[a:b])
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
        for c, (i, _, _) in enumerate(held):
            col = out[i]
            col.real[:2] += acc_even[c, :, 0]
            col.imag[:2] += acc_even[c, :, 1]
            col.real[2] += acc_odd[c, 0]
            col.imag[2] += acc_odd[c, 1]

    def horizontal_modes(self):
        self._table()
        return list(self._index[0])

    def l2_norm(self, t: float) -> float:
        coef = self._coefficients(t, 0, len(self._table()))
        return math.sqrt(float(np.sum(np.abs(coef) ** 2)))


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
        return sorted({k_h for p in self.parts.values() for k_h in p.horizontal_modes()})

    def hat_profile(self, k_h, t, z):
        z = np.asarray(z, dtype=float)
        return sum((p.hat_profile(k_h, t, z) for p in self.parts.values()),
                   np.zeros((3,) + z.shape, dtype=complex))

    def part_norms(self, t: float) -> dict:
        t = _finite("t", t, 0.0)
        return {name: p.l2_norm(t) for name, p in self.parts.items()}

    def total_norm(self, t: float) -> float:
        """L2 norm of the sum of the parts by the Gauss rule of _norm_rule;
        each part adds all its columns into one array in one profiles call."""
        t = _finite("t", t, 0.0)
        parts = self.parts.values()
        z, w = _norm_rule(self.params)
        columns = sorted({k for p in parts for k in p.horizontal_modes()})
        prof = np.zeros((len(columns), 3, len(z)), dtype=complex)
        for p in parts:
            p.profiles(t, z, columns, prof)
        sq = np.abs(prof)
        np.square(sq, out=sq)  # in place: one real array beside prof
        return 2.0 * math.pi * math.sqrt(float(sq.sum(axis=(0, 1)) @ w))

    def summary(self, t: float) -> dict:
        return {
            "time": _finite("t", t, 0.0),
            "part_norms": self.part_norms(t),
            "residuals": dict(self.residuals),
            "total_norm": self.total_norm(t),
        }


def _norm_rule(params: Params):
    """Nodes and weights of a composite 10-point Gauss rule on [0, 1]: on
    [0, 1/2], with d = layer_scale / 100, one panel [0, d], 13 geometric
    panels from d to 1/4 and 4 uniform ones to 1/2; [1/2, 1] mirrors it.
    360 nodes, within 4.8e-6 relative of a converged rule on the benchmark's
    asymptotic_grid inputs at eps 1e-2 to 1e-5, nu/eps 0.1 to 10, t <= 1."""
    x, w = _NORM_GAUSS_X, _NORM_GAUSS_W
    edges = np.concatenate([[0.0], np.geomspace(params.layer_scale / 100, 0.25, 14),
                            np.linspace(0.25, 0.5, 5)[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    z, w = (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()
    return np.concatenate([z, 1.0 - z[::-1]]), np.concatenate([w, w[::-1]])


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
    from one call source(l3) on that l3 array: the kept modes l (n, 3) with
    |l| <= K and their values s (n,), in l3 order, and sum |s|^2 over the
    dropped tail, accumulated in l3 order.  Zero sources are skipped."""
    n = 4 * max(K, 1)
    l3 = np.arange(-n, n + 1)
    s = source(l3)
    nonzero = s != 0
    tail = nonzero & (k_h[0] ** 2 + k_h[1] ** 2 + l3 ** 2 > K ** 2)
    keep = nonzero & ~tail
    kept = np.column_stack([np.broadcast_to(k_h, (int(keep.sum()), 2)), l3[keep]])
    tail_sq = float(np.cumsum(np.abs(s[tail]) ** 2)[-1]) if tail.any() else 0.0
    return kept, s[keep], tail_sq


def _running_sum(first, rows) -> np.ndarray:
    """first plus the rows (n, ...) one at a time, in row order, as a loop
    of in-place additions rounds it."""
    return np.cumsum(np.concatenate([[first], rows]), axis=0)[-1]


def _pairs(a, b) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: two rows per mode, in the order they join."""
    return np.column_stack(np.broadcast_arrays(a, b)).ravel()


def _vertical_wall_traces(layer: ModulatedBL, walls) -> list:
    """[(mu, rate, k_h, wall, vertical value)] of every row of the layer."""
    tab = layer.table
    values = {wall: tab.wall_traces(wall)[1] for wall in walls}
    return [(float(tab.mu[i]), complex(layer.rates[i]), k_h, wall, values[wall][i])
            for i, k_h in enumerate(tab.columns()) for wall in walls]


def _stopping_lifts(params: Params, rows) -> OscillatingPoly:
    """Stopping lifts cancelling the vertical wall values of `rows`
    (mu, rate, k_h, wall, value): one lift per (mu, rate) family, in order
    of mu and Re(rate), all families' coefficients formed in one pass."""
    families = {}
    for mu, rate, k_h, wall, value in rows:
        if value == 0:
            continue
        sides = families.setdefault((mu, complex(rate)), ({}, {}))
        sides[wall][k_h] = sides[wall].get(k_h, 0j) - value
    families = sorted(families.items(), key=lambda kv: (kv[0][0], kv[0][1].real))
    lift = OscillatingPoly(params)
    if not families:
        return lift
    keys, count, d = [], [], [[], []]
    for _, sides in families:
        ks = sorted(set(sides[0]) | set(sides[1]))
        keys += [_kh_tuple(k) for k in ks]
        count.append(len(ks))
        for wall in (0, 1):
            d[wall] += [sides[wall].get(k, 0j) for k in ks]
    d0, d1 = np.zeros((2, len(keys), 3), dtype=complex)
    d0[:, 2], d1[:, 2] = d
    # each family's scale for the k_h = 0 compatibility check
    first = np.cumsum(count) - count
    scale = np.maximum.reduceat(np.maximum(np.abs(d0), np.abs(d1)).max(axis=1), first)
    coef = _lift_coef(keys, d0, d1, np.repeat(scale, count))
    for ((mu, rate), _), a, n in zip(families, first.tolist(), count):
        lift.add(ZPolyField(keys[a:a + n], coef[a:a + n]), mu, rate)
    return lift


def _flux_correctors(rows, K: int, params: Params, zero_ic: bool):
    """The flux stage: cancel each row's vertical wall value (mu, rate, k_h,
    wall, value), k_h != 0, by a flux lift phased e^{i mu t/eps - rate t},
    with vertical values d0, d1 at z = 0, 1 (-value at the row's wall, 0 at
    the other), and the eigenmode corrector of the lift's fast defect, |l| <=
    K: from zero with zero_ic, else the decay-preserving special solution.
    Modes with mu + lambda_l = 0 are resonant, the envelope's, and skipped.
    Returns (lift, corrector, {(mu, k_h, rate): negated horizontal value at
    z = 0}, transients, tail_sq); with zero_ic, transients holds one
    (-lambda_l, k_h, kappa_l, negated value) per mode started from zero."""
    eps = params.epsilon
    lift, osc = OscillatingPoly(params), SpectralPart(params)
    traces, transients, tail_sq = {}, [], 0.0
    for mu, rate, k_h, wall, value in rows:
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        if kh2 == 0:
            raise ValueError("interior flux lift cannot carry a mean vertical trace")
        d0, d1 = (-complex(value), 0j) if wall == 0 else (0j, -complex(value))
        lift.add(_flux_lift([k_h], np.array([d0]), np.array([d1])), mu, rate)

        def source(l3):
            F1, F2, G, lam = column_forms(k_h, l3)
            # [a (d0 (F1 - |k_h|^2 G) - d1 F1) + (d0 - d1) F2/eps] / |k_h|^2; F1
            # and G are imaginary and F2 real, so each product has one term
            # per part and rounds as the one-mode formula does, fused or not
            a = kh2 - rate + 1j * mu / eps
            s = a * d0 / kh2 * (F1 - kh2 * G) - a * d1 / kh2 * F1 + (d0 - d1) / (eps * kh2) * F2
            return np.where(np.abs(mu + lam) < 1e-12, 0j, s)

        l, s, tail = _truncate(k_h, K, source)
        tail_sq += tail
        lam, kappa, w = _duhamel(l, s, mu, rate, params)
        trace = w[:, None] * basis_normals(l)[:, :2]
        key = (mu, k_h, rate)
        traces[key] = _running_sum(traces.get(key, 0) + 1j * np.array(k_h) * (d0 - d1) / kh2,
                                   -trace)
        if zero_ic:
            # minus the homogeneous transient, which decays at the mode's own rate
            osc.add_rows(np.repeat(l, 2, axis=0), _pairs(w, -w), _pairs(mu + lam, 0.0),
                         _pairs(rate, kappa))
            transients += zip((-lam).tolist(), [k_h] * len(l), kappa.tolist(), trace)
        else:
            osc.add_rows(l, w, mu + lam, rate)
    return lift, osc, traces, transients, tail_sq


def _lift_equation_bound(lift: OscillatingPoly, params: Params) -> float:
    """(1/eps)||w|| + ||Lap_h w|| + nu ||dzz w|| + |rate| ||w|| over entries,
    the column integrals of all entries' rows taken at once and summed per
    entry."""
    coef = lift._table()
    sq, dzz_sq = _column_sq(coef), _column_sq(coef, 2)
    n = len(lift.entries)
    kh2 = (lift._k_h ** 2).sum(axis=1).astype(float)
    col_sq, lap, dzz = (np.bincount(lift._entry, v, minlength=n)
                        for v in (sq, kh2 ** 2 * sq, dzz_sq))
    norm = 2.0 * math.pi * np.sqrt(col_sq)
    rate = np.abs(np.array([r for _, _, r in lift.entries], dtype=complex))
    return float(np.sum(norm / params.epsilon + 2.0 * math.pi * np.sqrt(lap)
                        + params.nu * 2.0 * math.pi * np.sqrt(dzz) + rate * norm))


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

    surface = build_B(empty_trace(0), sigma.scaled(params.beta), params)

    # flux corrector for the quasi-resonant vertical values at z = 1, and
    # the oscillating corrector of its fast defect, from zero initial data
    top = _vertical_wall_traces(surface, (1,))
    quasi = [q and row[4] != 0 for q, row in zip(surface.table.quasi, top)]
    v_int, osc, traces, transients, tail_sq = _flux_correctors(
        [row for row, q in zip(top, quasi) if q], K, params, zero_ic=True)

    # secondary bottom layer cancelling the horizontal traces of v_int and osc
    # at z = 0: one steady table, plus one per mode decaying at its own rate
    steady = {(mu, k_h): vec for (mu, k_h, _), vec in traces.items()}
    tables = ([(steady, 0j)] if steady else []) + [
        ({(mu, k_h): vec}, kappa) for mu, k_h, kappa, vec in transients]
    secondary = _bottom_layers([t for t, _ in tables], [r for _, r in tables], params)

    # stopping lift for the remaining vertical traces
    rows = [row for row, q in zip(top, quasi) if not q]
    lift = _stopping_lifts(params, _vertical_wall_traces(surface, (0,)) + rows
                           + _vertical_wall_traces(secondary, (0, 1)))

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
        "bottom_horizontal_trace": surface.wall_trace_norms(0)[0],
        "secondary_top_traces": sum(secondary.wall_trace_norms(1)),
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
    interior.add_rows(modes, [gamma[k] for k in modes], rate=[rates[k] for k in modes])

    # bottom layer from the interior's horizontal trace at z = 0; the fully
    # resonant k_h = 0 trace drives the strip heat column instead
    column = HeatColumn(0, params.nu, eps)
    for k in modes:
        if k[:2] == (0, 0):
            column.project(-eigenvalue(k), -gamma[k] * basis_normal(k)[:2])
    resonant_col = ModulatedBL(params, build_layers([], params)[0], 0j,
                               [column] if column.entries else [])
    layered = [modes[i] for i in pump.layered]
    amplitude = np.array([gamma[k] for k in layered], dtype=complex)
    table = wall_layers(0, pump.basis, -amplitude[:, None] * basis_normals(layered)[:, :2], params)
    bottom = ModulatedBL(params, table,
                         np.array([rates[k] for k in layered], dtype=complex)[table.pair])

    # interior flux lift for the layer's Ekman suction at z = 0, and the
    # oscillating corrector of its off-diagonal fast defect
    v_int0, osc, rows, transients, tail_sq = _flux_correctors(
        _vertical_wall_traces(bottom, (0,)), K, params, corrector_variant == "zero_ic")
    for mu, k_h, kappa, vec in transients:
        key = (mu, k_h, complex(kappa))
        rows[key] = rows.get(key, 0) + vec

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
        "eta1_stress_trace": math.hypot(bottom.wall_trace_norms(1)[1],
                                        secondary.wall_trace_norms(1)[1]),
        "stopping_lift_equation": _lift_equation_bound(lift, params),
        "frozen_coefficient_dt": bottom.frozen_dt_bound() + secondary.frozen_dt_bound(),
    }
    sol = ApproxSolution(params=params, parts=parts, residuals=residuals, meta=meta)
    residuals["initial_mismatch"] = ApproxSolution(params, {
        name: part for name, part in parts.items() if name != "interior_envelope"
    }).total_norm(0.0)
    return sol
