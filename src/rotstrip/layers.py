"""Boundary layer operator for the rotating strip under oscillating traces.

Each horizontal Fourier mode k_h and fast frequency mu of a prescribed
boundary trace excites wall-attached profiles of the form
w * exp(i k_h.x_h) exp(i mu t/eps) exp(-lambda z / sqrt(eps nu)).  The
admissible decay rates lambda are roots of a cubic in s = lambda^2 and the
pair continuing the classical Ekman exponents carries the trace.  Frequencies
|mu| = 1 are special: for k_h != 0 one rate collapses to
O((eps + sqrt(eps nu))^{1/2}) (a much thicker layer), and for k_h = 0 a rate
vanishes entirely and the response diffuses as a self-similar heat profile of
width sqrt(nu t).
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import Params
from .traces import BoundaryTrace, empty_trace  # re-exported: callers import them from here

RESONANT_TOL = 1e-12


class AmbiguousSelectionWarning(UserWarning):
    """Both near-zero cubic roots were comparable candidates for the slow
    quasi-resonant rate; a deterministic tie-break was applied and recorded."""

#: below this ratio of distances-to-pole the two |mu|=1 candidate roots are
#: considered cleanly separated; above it the selection is recorded as
#: ambiguous together with both candidates.
AMBIGUITY_RATIO = 1.0 / 3.0


def _kh_tuple(k_h):
    return (int(k_h[0]), int(k_h[1]))


# ---------------------------------------------------------------------------
# the wall symbol
# ---------------------------------------------------------------------------
#
# Every function below works on n entries (mu, k_h) at once, one array row
# per entry.


def _square(z):
    """z * z for a complex array, rounded as Python's complex product rounds
    it.  numpy's array product may use a fused multiply-add, which moves the
    cubic's crowded |mu| = 1 roots by up to ~1e-15 relative."""
    out = np.empty(z.shape, dtype=complex)
    out.real = z.real * z.real - z.imag * z.imag
    out.imag = z.real * z.imag + z.imag * z.real
    return out


def _entries(mu, k_h):
    """(mu (n,) float, k_h (n, 2) int) as arrays."""
    return (np.asarray(mu, dtype=float).reshape(-1),
            np.asarray(k_h, dtype=int).reshape(-1, 2))


def _symbol(lam, mu, k_h, params: Params):
    """A_lambda of n entries, (n, 2, 2), and the mask of the entries at its
    pole lambda^2 = eps*nu*|k_h|^2 (their off-diagonal coupling is left out)."""
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    mu, k_h = _entries(mu, k_h)
    k1, k2 = k_h[:, 0], k_h[:, 1]
    kh2 = k1 * k1 + k2 * k2
    en = params.eps_nu
    lam2 = _square(lam)
    denom = lam2 - en * kh2
    pole = (kh2 > 0) & (np.abs(denom) < 1e-14 * np.maximum(
        np.maximum(np.abs(lam2), en * kh2), 1e-300))
    off = np.zeros(len(lam), dtype=complex)
    np.divide(en, denom, out=off, where=(kh2 > 0) & ~pole)
    diag = 1j * mu - lam2 + params.epsilon * kh2
    A = np.empty((len(lam), 2, 2), dtype=complex)
    A[:, 0, 0] = diag + off * k1 * k2
    A[:, 0, 1] = -1.0 - off * k1 * k1
    A[:, 1, 0] = 1.0 + off * k2 * k2
    A[:, 1, 1] = diag - off * k1 * k2
    return A, pole


def _checked_symbol(lam, mu, k_h, params: Params) -> np.ndarray:
    """A_lambda of n entries; an entry at the pole raises ZeroDivisionError."""
    A, pole = _symbol(lam, mu, k_h, params)
    if pole.any():
        i = int(np.argmax(pole))
        lam2 = complex(np.asarray(lam, dtype=complex).reshape(-1)[i]) ** 2
        kh2 = int(np.sum(np.asarray(k_h).reshape(-1, 2)[i] ** 2))
        raise ZeroDivisionError(
            f"A_lambda evaluated at its pole lambda^2 = eps*nu*|k_h|^2 "
            f"(lambda^2={lam2}, eps*nu*|k_h|^2={params.eps_nu * kh2})"
        )
    return A


def _det_residual(A: np.ndarray) -> np.ndarray:
    """|det A| / max(1, max|A|^2) per 2x2 matrix of the stack."""
    return np.abs(np.linalg.det(A)) / np.maximum(1.0, np.abs(A).max(axis=(1, 2)) ** 2)


def _cubic(mu, kh2, params: Params) -> np.ndarray:
    """Coefficients (n, 4), descending, of the pole-cleared cubic in s = lambda^2:

        (s - eps*nu*|k_h|^2) * [(i mu - s + eps*|k_h|^2)^2 + 1] + eps*nu*|k_h|^2 = 0.
    """
    a = params.epsilon * kh2
    b = params.eps_nu * kh2
    A = a + 1j * mu
    AA1 = _square(A) + 1.0
    p = np.empty((len(A), 4), dtype=complex)
    p[:, 0] = 1.0
    p[:, 1] = -(2.0 * A + b)
    p[:, 2] = AA1 + 2.0 * b * A
    p[:, 3] = -b * AA1 + b
    return p


def _cubic_roots(mu, kh2, params: Params) -> np.ndarray:
    """Roots (n, 3) of the cubics: one eigvals call on the stacked 3x3
    companion matrices, the matrices np.roots builds."""
    p = _cubic(mu, kh2, params)
    C = np.zeros((len(p), 3, 3), dtype=complex)
    C[:, 0, :] = -p[:, 1:] / p[:, :1]
    C[:, 1, 0] = C[:, 2, 1] = 1.0
    return np.linalg.eigvals(C)


@dataclass
class DecayRates:
    """The two physical decay rates for one (mu, k_h), plus diagnostics.

    lambda_minus continues sqrt(i(mu+1)), lambda_plus continues sqrt(i(mu-1)).
    Both have nonnegative real part; degenerate_zero marks the resonant case
    k_h = 0, |mu| = 1 where one rate is exactly zero.  third_root_s is the
    remaining cubic root (near the pole of the symbol); it is never used in
    the layer construction and is exposed for diagnostics only.  When the
    |mu| = 1, k_h != 0 selection had two comparable candidates, ambiguous is
    set and both candidate s-values are reported in plus_candidates.
    """

    mu: float
    k_h: tuple
    lambda_minus: complex
    lambda_plus: complex
    s_minus: complex
    s_plus: complex
    third_root_s: complex
    degenerate_zero: bool = False
    ambiguous: bool = False
    plus_candidates: tuple = ()

    def det_residual(self, params: Params) -> float:
        """Max relative |det A_lambda| over the two returned rates."""
        A = _checked_symbol([self.lambda_minus, self.lambda_plus], [self.mu] * 2,
                            [self.k_h] * 2, params)
        return float(_det_residual(A).max())


@dataclass
class RateBatch:
    """The decay rates of n entries (mu, k_h), one row per entry: row i holds
    what DecayRates holds for entry i.  s is (n, 3): s_minus, s_plus and the
    third root; lam is (n, 2): lambda_minus, lambda_plus; candidates (n, 2)
    holds the two |mu| = 1 candidates of the ambiguous rows."""

    mu: np.ndarray
    k_h: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    degenerate: np.ndarray
    ambiguous: np.ndarray
    candidates: np.ndarray

    def __len__(self) -> int:
        return len(self.mu)

    def row(self, i: int) -> DecayRates:
        s_minus, s_plus, third = (complex(v) for v in self.s[i])
        return DecayRates(
            mu=float(self.mu[i]),
            k_h=_kh_tuple(self.k_h[i]),
            lambda_minus=complex(self.lam[i, 0]),
            lambda_plus=complex(self.lam[i, 1]),
            s_minus=s_minus,
            s_plus=s_plus,
            third_root_s=third,
            degenerate_zero=bool(self.degenerate[i]),
            ambiguous=bool(self.ambiguous[i]),
            plus_candidates=(tuple(complex(c) for c in self.candidates[i])
                             if self.ambiguous[i] else ()),
        )


# the other two root indices, in order, once one of three is taken
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])


def _null_vectors(A: np.ndarray) -> np.ndarray:
    """Null vectors (n, 2) of (numerically) singular 2x2 matrices: the
    longer of (A01, -A00) and (A11, -A10)."""
    W = A[:, :, ::-1] * np.array([1.0, -1.0])
    norms = np.linalg.norm(W, axis=2)
    return W[np.arange(len(W)), (norms[:, 0] < norms[:, 1]).astype(int)]


def _tie_break(cand, mu, k_h, params: Params) -> np.ndarray:
    """Per row of ambiguous |mu| = 1 candidates (m, 2): the index of the
    physical one.  Kernel-vector alignment with the resonant circular
    polarisation, |<(1, i mu), w>| / (sqrt(2) |w|), decides when the two
    alignments differ by more than 1e-3 (a candidate at the pole counts -1);
    otherwise the larger Re(lambda)."""
    lam = np.sqrt(cand)  # the principal branch: Re(lambda) >= 0
    A, pole = _symbol(lam.reshape(-1), np.repeat(mu, 2), np.repeat(k_h, 2, axis=0), params)
    w = _null_vectors(A)
    sign = np.repeat(np.copysign(1.0, mu), 2)
    align = np.abs(w[:, 0] - 1j * sign * w[:, 1]) / (math.sqrt(2.0) * np.linalg.norm(w, axis=1))
    align = np.where(pole, -1.0, align).reshape(-1, 2)
    by_align = np.abs(align[:, 0] - align[:, 1]) > 1e-3
    return np.where(by_align, np.argmax(align, axis=1), np.argmax(lam.real, axis=1))


def rate_batch(mu, k_h, params: Params, prev: RateBatch | None = None) -> RateBatch:
    """Solve the pole-cleared cubics of n entries and select their two
    physical rates, all rows at once.

    k_h = 0 rows take the closed form s = i(mu +- 1).  Otherwise the rates are
    the roots nearest to the leading-order targets i(mu +- 1) + eps|k_h|^2, or
    to the rates of `prev` (a batch of the same entries at a neighbouring
    parameter point, for continuity tracking along sweeps).  At |mu| = 1,
    k_h != 0 (without prev) one root is the clean O(1) rate and two crowd
    s = 0: the one farther from the pole s = eps nu |k_h|^2 continuing the
    symbol's pole is the physical slow rate.  When the two are not cleanly
    separated from the pole (distance ratio at least AMBIGUITY_RATIO), the
    tie is broken by kernel-vector alignment with the resonant polarisation,
    then by the larger real part of lambda, and the row is reported (never
    silently) as ambiguous, with both candidates.
    """
    mu, k_h = _entries(mu, k_h)
    n = len(mu)
    kh2 = k_h[:, 0] ** 2 + k_h[:, 1] ** 2
    a = params.epsilon * kh2
    s = np.zeros((n, 3), dtype=complex)
    s[:, 0] = 1j * (mu + 1.0) + a  # the leading-order targets; the rates at k_h = 0
    s[:, 1] = 1j * (mu - 1.0) + a
    degenerate = (kh2 == 0) & (np.abs(s[:, :2]).min(axis=1) < RESONANT_TOL)
    ambiguous = np.zeros(n, dtype=bool)
    candidates = np.zeros((n, 2), dtype=complex)

    h = np.flatnonzero(kh2)
    if len(h):
        m, kh2_h = mu[h], kh2[h]
        roots = _cubic_roots(m, kh2_h, params)
        t_minus, t_plus = s[h, 0], s[h, 1]
        if prev is not None:
            t_minus, t_plus = prev.s[h, 0], prev.s[h, 1]
        rows = np.arange(len(h))
        i_minus = np.abs(roots - t_minus[:, None]).argmin(axis=1)
        d = np.abs(roots - t_plus[:, None])
        d[rows, i_minus] = np.inf  # the nearest root not already taken
        i_plus = d.argmin(axis=1)
        i_third = 3 - i_minus - i_plus

        res = np.flatnonzero(np.abs(np.abs(m) - 1.0) < RESONANT_TOL)
        if prev is None and len(res):
            # one clean O(1) rate and a degenerate pair near s = 0
            up = m[res] > 0
            clean_target = np.where(up, t_minus[res], t_plus[res])
            i_clean = np.abs(roots[res] - clean_target[:, None]).argmin(axis=1)
            pair = _OTHERS[i_clean]
            cand = roots[res[:, None], pair]
            d_pole = np.abs(cand - params.eps_nu * kh2_h[res, None])
            tied = ~(d_pole.min(axis=1) / np.maximum(d_pole.max(axis=1), 1e-300)
                     < AMBIGUITY_RATIO)
            order = d_pole.argmax(axis=1)  # farther from the pole = physical
            if tied.any():
                order[tied] = _tie_break(cand[tied], m[res[tied]], k_h[h[res[tied]]], params)
            q = np.arange(len(res))
            slow, companion = pair[q, order], pair[q, 1 - order]
            i_minus[res] = np.where(up, i_clean, slow)
            i_plus[res] = np.where(up, slow, i_clean)
            i_third[res] = companion
            ambiguous[h[res]] = tied
            candidates[h[res[tied]], 0] = cand[q, order][tied]
            candidates[h[res[tied]], 1] = cand[q, 1 - order][tied]
        s[h, 0] = roots[rows, i_minus]
        s[h, 1] = roots[rows, i_plus]
        s[h, 2] = roots[rows, i_third]

    return RateBatch(mu=mu, k_h=k_h, s=s, lam=np.sqrt(s[:, :2]),
                     degenerate=degenerate, ambiguous=ambiguous, candidates=candidates)


def decay_rates(mu: float, k_h, params: Params) -> DecayRates:
    """The decay rates of one entry: row 0 of a one-row rate_batch (see
    there for the selection rule)."""
    return rate_batch([mu], [_kh_tuple(k_h)], params).row(0)


# ---------------------------------------------------------------------------
# kernel vectors and transition coefficients
# ---------------------------------------------------------------------------


def kernel_vectors(lam, mu, k_h, params: Params):
    """Kernel vectors of A_lambda for n entries: (w (n, 2), first (n,)),
    each w normalised to first component one where |w_0| > 1e-8 |w| (first),
    else to second component one.  An entry at the pole raises
    ZeroDivisionError, one off the det A_lambda = 0 variety ValueError."""
    A = _checked_symbol(lam, mu, k_h, params)
    residual = _det_residual(A)
    if np.any(residual > 1e-8):
        i = int(np.argmax(residual > 1e-8))
        raise ValueError(
            f"lambda={np.asarray(lam).reshape(-1)[i]} is not on the det A_lambda = 0 variety "
            f"(relative residual {residual[i]:.3e} > 1e-8)"
        )
    w = _null_vectors(A)
    first = np.abs(w[:, 0]) > 1e-8 * np.linalg.norm(w, axis=1)
    return w / np.where(first, w[:, 0], w[:, 1])[:, None], first


@dataclass
class LayerBasis:
    """The kernel vectors of both rates of n entries: w (n, 2, 2) with
    w[i, 0] = w_minus and w[i, 1] = w_plus, so P_i = [w_minus | w_plus] = w[i].T."""

    rates: RateBatch
    w: np.ndarray

    def solve(self, delta) -> np.ndarray:
        """The amplitudes alpha = P^{-1} delta (n, 2) of trace rows delta (n, 2),
        one stacked solve; a nearly singular P (|det P| < 1e-6) raises."""
        P = np.swapaxes(self.w, 1, 2)
        det = P[:, 0, 0] * P[:, 1, 1] - P[:, 0, 1] * P[:, 1, 0]
        if np.any(np.abs(det) < 1e-6):
            raise ValueError(
                f"transition matrix nearly singular (|det|={np.abs(det).min():.3e} < 1e-6); "
                "kernel vectors failed to span C^2"
            )
        delta = np.asarray(delta, dtype=complex).reshape(-1, 2)
        return np.linalg.solve(P, delta[:, :, None])[:, :, 0]


def layer_basis(rates: RateBatch, params: Params) -> LayerBasis:
    """The layer step's kernel vectors: one kernel_vectors call on the 2n
    rates of the batch."""
    w, _ = kernel_vectors(rates.lam.reshape(-1), np.repeat(rates.mu, 2),
                          np.repeat(rates.k_h, 2, axis=0), params)
    return LayerBasis(rates, w.reshape(-1, 2, 2))


# ---------------------------------------------------------------------------
# the layer table: exponential wall profiles
# ---------------------------------------------------------------------------


@dataclass
class LayerTable:
    """The wall layers of n trace entries (side, mu, k_h), one row each.

    Row i is the coefficient of e^{i k_h.x_h} e^{i mu t/eps}:
    sum_j amps[i, j] exp(-q[i, j] zeta) over its two rates j (lambda_minus,
    lambda_plus), amps (n, 2, 3) the (u1, u2, u3) amplitudes, zero where
    keep (n, 2) is False, q = lambda/sqrt(eps nu) (n, 2) and zeta the
    distance to the row's wall.  Side 0 rows decay from the bottom and
    realise the Dirichlet trace v_h(z=0) exactly; side 1 rows decay from the
    top and realise the stress trace dz v_h(z=1) exactly; the vertical
    component is fixed by incompressibility.  quasi marks the quasi-resonant
    rows (|mu| = 1, k_h != 0), alpha (n, 2) holds the trace amplitudes
    P^{-1} delta and pair the index of the trace (pair) each row came from.
    """

    side: np.ndarray
    mu: np.ndarray
    k_h: np.ndarray
    quasi: np.ndarray
    q: np.ndarray
    amps: np.ndarray
    keep: np.ndarray
    alpha: np.ndarray
    pair: np.ndarray

    def __len__(self) -> int:
        return len(self.side)

    def columns(self) -> list:
        return [_kh_tuple(k) for k in self.k_h]

    def profiles(self, rows, weights, column, z, out) -> np.ndarray:
        """Add weights[i] times the profile of row rows[i] on the heights z
        into out[column[i]], out of shape (ncol, 3) + z.shape, and return
        out; column must be nondecreasing.

        exp(-q zeta) is evaluated in one block, once per distinct decay
        rate, not once per row: the call's kept rates are matched by their
        exact (wall, q) values (the columns of a |k_h|^2 shell share theirs),
        and each distinct rate is evaluated over the union of the height
        windows of the columns that use it.  A column's window [lo, hi) is,
        on a 1-D ascending z, the heights where one of its rates still
        exceeds e^-LAYER_CUT (see _height_windows), else the whole grid.
        Each column gathers its rows on its own window from the block and
        sums them in one matrix product, so its values do not depend on
        which columns share the call."""
        z = np.asarray(z, dtype=float)
        r, j = self.keep[rows].nonzero()
        if not r.size:
            return out
        at = rows[r]
        q, side = self.q[at, j], self.side[at]
        amps = self.amps[at, j] * weights[r, None]
        count = np.bincount(column[r])
        held = count.nonzero()[0]
        start = (count.cumsum() - count)[held]
        lo, hi = _height_windows(q, side, z)
        lo, hi = np.minimum.reduceat(lo, start), np.maximum.reduceat(hi, start)
        # the distinct (wall, q), matched by the exact bits of q (each row
        # one 24-byte key): row m has rate[m], first[u] is the first of rate u
        key = np.column_stack([side, q.view(np.int64).reshape(-1, 2)]).view("V24").ravel()
        _, first, rate = np.unique(key, return_index=True, return_inverse=True)
        lo_u, hi_u = np.full(len(first), z.size), np.zeros(len(first), dtype=int)
        np.minimum.at(lo_u, rate, np.repeat(lo, count[held]))
        np.maximum.at(hi_u, rate, np.repeat(hi, count[held]))
        exp, offset = _exp_block(q[first], side[first], z.ravel(), lo_u, hi_u)
        bounds = start.tolist() + [len(rate)]
        for c, a, b, l, h in zip(held.tolist(), bounds[:-1], bounds[1:], lo.tolist(), hi.tolist()):
            w = h - l
            if not w:
                continue  # every rate of the column is below the cut on z
            pos = (offset[rate[a:b]] + l).tolist()
            if pos == list(range(pos[0], pos[0] + w * len(pos), w)):
                rows_c = exp[pos[0]:pos[0] + w * len(pos)].reshape(len(pos), w)
            else:
                rows_c = exp[np.add.outer(pos, np.arange(w))]
            value = amps[a:b].T @ rows_c
            if z.ndim == 1:
                out[c][:, l:h] += value
            else:
                out[c] += value.reshape((3,) + z.shape)
        return out

    def wall_traces(self, wall):
        """(horizontal (n, 2), vertical (n,), dz horizontal (n, 2)) of every
        row at z = wall: 0 or 1, or one wall per row."""
        zeta = np.where(self.side == 0, wall, 1.0 - np.asarray(wall, dtype=float))
        decay = np.exp(-self.q * zeta[:, None])
        dz = np.where(self.side == 0, -1.0, 1.0)[:, None] * self.q * decay
        value = np.einsum("nj,njc->nc", decay, self.amps)
        return value[:, :2], value[:, 2], np.einsum("nj,njc->nc", dz, self.amps[:, :, :2])

    def norms(self):
        """The L2(omega) norms (n,) of every row's horizontal and vertical
        components."""
        return (_amplitude_l2(self.amps[:, :, :2], self.q),
                _amplitude_l2(self.amps[:, :, 2:], self.q))


#: exp(-q zeta) is dropped where Re(q) zeta > LAYER_CUT: below e^-40 ~ 4e-18
#: of the rate's amplitude
LAYER_CUT = 40.0


def _height_windows(q, side, z):
    """Index windows [lo, hi) (each (n,)) of the heights z on which
    Re(q_m) zeta <= LAYER_CUT, zeta the distance to the wall side_m: a
    prefix of the heights for a bottom rate, a suffix for a top rate.  The
    whole grid unless z is 1-D and ascending."""
    if z.ndim != 1 or (z[1:] < z[:-1]).any():
        return np.zeros(len(q), dtype=int), np.full(len(q), z.size)
    reach = LAYER_CUT / q.real
    top = side == 1
    return z.searchsorted(1.0 - reach) * top, np.where(top, z.size, z.searchsorted(reach, "right"))


def _exp_block(q, side, z, lo, hi):
    """exp(-q[u] zeta) of n rates in one block, rate u on the heights
    z[lo[u]:hi[u]] and zeta the distance to its wall side[u]: (block,
    offset), block[offset[u] + k] the value of rate u at height k.  The
    rates go in the order of (wall, lo, hi), so a run of rates on one wall
    and window takes one product."""
    order = np.lexsort((hi, lo, side))
    width = (hi - lo)[order]
    start = width.cumsum() - width
    offset = np.empty(len(q), dtype=int)
    offset[order] = start - lo[order]
    block = np.empty(int(width.sum()), dtype=complex)
    key = zip(side[order].tolist(), lo[order].tolist(), hi[order].tolist())
    at = 0
    for (s, l, h), run in itertools.groupby(key):
        m = order[at:at + len(list(run))]
        zeta = z[l:h] if s == 0 else 1.0 - z[l:h]
        a = start[at]
        np.multiply(-q[m, None], zeta, out=block[a:a + len(m) * (h - l)].reshape(len(m), h - l))
        at += len(m)
    return np.exp(block, out=block), offset


def _layer_table(side, mu, k_h, lam, w, alpha, keep, pair, params: Params) -> LayerTable:
    """The table of the rows with a kept rate, from n entries (side, mu,
    k_h), their rates lam (n, 2), kernel vectors w (n, 2, 2) (w[i, j] that
    of rate j) and trace amplitudes alpha (n, 2), zeroed where keep is False."""
    side, pair = np.asarray(side, dtype=int), np.asarray(pair, dtype=int)
    mu, k_h = _entries(mu, k_h)
    scale = params.layer_scale
    alpha = np.where(keep, alpha, 0j)
    ratio = np.divide(scale, lam, out=np.zeros(lam.shape, dtype=complex), where=keep)
    ratio_sq = np.divide(scale ** 2, lam ** 2, out=np.zeros(lam.shape, dtype=complex), where=keep)
    k1, k2 = k_h[:, :1], k_h[:, 1:]
    ikw = 1j * (k1 * w[:, :, 0] + k2 * w[:, :, 1])
    bottom = (side == 0)[:, None]
    amps = np.empty(lam.shape + (3,), dtype=complex)
    amps[:, :, :2] = np.where(bottom, alpha, alpha * ratio)[:, :, None] * w
    amps[:, :, 2] = np.where(bottom, alpha * ratio * ikw, -alpha * ratio_sq * ikw)
    quasi = (np.abs(np.abs(mu) - 1.0) < RESONANT_TOL) & k_h.any(axis=1)
    rows = keep.any(axis=1)
    return LayerTable(side=side[rows], mu=mu[rows], k_h=k_h[rows],
                      quasi=quasi[rows], q=(lam / scale)[rows], amps=amps[rows],
                      keep=keep[rows], alpha=alpha[rows], pair=pair[rows])


def _amplitude_l2(amps, q):
    """L2(omega) norm of sum_m amps[m] exp(-q_m zeta) e^{i k_h x}, closed form:
    the Gram sum over pairs of components of <amps[n], amps[m]> times
    int_0^1 exp(-(q_m + conj q_n) zeta) d zeta.  amps is (..., ncomp,
    ncomponents) and q (..., ncomp): one norm per leading index."""
    Q = q[..., :, None] + np.conj(q[..., None, :])
    flat = np.abs(Q) < 1e-14
    integral = np.where(flat, 1.0, (1.0 - np.exp(-Q)) / np.where(flat, 1.0, Q))
    gram = amps @ np.conj(np.swapaxes(amps, -1, -2))
    total = np.sum(gram * integral, axis=(-2, -1)).real
    return np.sqrt(np.maximum(total, 0.0)) * 2.0 * math.pi


# ---------------------------------------------------------------------------
# resonant self-similar profiles
# ---------------------------------------------------------------------------


#: erfc elementwise from the standard library: the module then imports without
#: scipy, and the resonant profiles evaluate it on a few thousand values per
#: call, where the per-value call costs well under a millisecond
erfc = np.vectorize(math.erfc, otypes=[float])


def _ierfc(x):
    """Integral of erfc from x to infinity: exp(-x^2)/sqrt(pi) - x*erfc(x)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-np.minimum(x * x, 700.0)) / math.sqrt(math.pi) - x * erfc(x)


def resonant_profile(side: int, delta_res, nu: float, t: float, z):
    """Self-similar heat response to a resonant trace of amplitude delta_res.

    Bottom (side 0): v(t,z) = delta * erfc(z / (2 sqrt(nu t))), which equals
    (delta/sqrt(pi)) * int_{z/sqrt(nu t)}^inf exp(-Y^2/4) dY and matches the
    Dirichlet value delta at the wall for every t > 0.
    Top (side 1): v(t,z) = 2 delta sqrt(nu t) ierfc((1-z)/(2 sqrt(nu t))),
    whose z-derivative at z=1 is exactly delta (stress trace).
    t = 0 returns the sharp-interface limit.
    """
    z = np.asarray(z, dtype=float)
    delta = np.asarray(delta_res)
    if t < 0.0:
        raise ValueError("resonant profile defined for t >= 0")
    zeta = z if side == 0 else 1.0 - z
    width = 2.0 * math.sqrt(nu * t)
    if t == 0.0:
        base = np.where(zeta <= 0.0, 1.0, 0.0) if side == 0 else np.zeros_like(zeta)
    elif side == 0:
        base = erfc(zeta / width)
    else:
        base = width * _ierfc(zeta / width)
    return np.multiply.outer(delta, base) if delta.ndim else delta * base


#: the resonant layers' interior mass lies beyond this distance from their wall
INTERIOR_SPLIT = 0.5


@dataclass
class ResonantLayer:
    """Resonant (|mu| = 1, k_h = 0) part of a wall response: a growing layer
    of width sqrt(nu t), never stationary, with zero vertical component.
    entries are (mu, amplitude) pairs, mu = +1 or -1 and amplitude the
    coefficient on the circular polarisation (1, i mu, 0); every entry has
    the one real shape of the layer, here the half-space self-similar profile."""

    side: int
    nu: float
    epsilon: float
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if self.side not in (0, 1):
            raise ValueError("side must be 0 (bottom value) or 1 (top stress)")
        self.entries = list(self.entries)

    def project(self, mu: float, delta) -> np.ndarray:
        """Add the amplitude a = <(1, i m), delta>/2 of the trace delta
        (2-vector) on the circular polarisation of m = sign(mu) as the entry
        (m, a), unless a is zero, and return the remainder delta - a (1, i m)."""
        m = math.copysign(1.0, mu)
        pol = np.array([1.0, 1j * m])
        amp = 0.5 * complex(np.vdot(pol, delta))
        if amp != 0:
            self.entries.append((m, amp))
        return delta - amp * pol

    def _shape(self, t: float, z) -> np.ndarray:
        return resonant_profile(self.side, 1.0, self.nu, t, z)

    def _shape_sq(self, t: float) -> float:
        """int_0^1 shape^2 dz = w^(1 + 2 side) [F(1/w) - F(0)] with w = 2 sqrt(nu t)."""
        if t <= 0.0:
            return 0.0
        w = 2.0 * math.sqrt(self.nu * t)
        return w ** (1 + 2 * self.side) * (self._primitive(1.0 / w) - self._primitive(0.0))

    def _primitive(self, u: float) -> float:
        """F(u), an antiderivative of erfc(u)^2 (side 0) or ierfc(u)^2 (side 1)."""
        e, g, r, s = math.erfc(u), math.exp(-u * u), math.sqrt(math.pi), math.sqrt(2.0)
        if self.side == 0:
            return u * e * e - 2.0 * g * e / r + s * math.erfc(s * u) / r
        return (u ** 3 * e * e + (1.0 - 2.0 * u * u) * g * e / r + u * g * g / math.pi
                - s * math.erfc(s * u) / r) / 3.0

    def value(self, t: float, z) -> np.ndarray:
        """The sum over entries of the phased polarisation times the shape."""
        shape = self._shape(t, z)
        out = np.zeros((3,) + shape.shape, dtype=complex)
        for mu, amplitude in self.entries:
            pol = np.array([1.0, 1j * mu, 0.0])
            out += np.multiply.outer(amplitude * np.exp(1j * mu * t / self.epsilon) * pol, shape)
        return out

    def l2_norm_h(self, t: float) -> float:
        """Exact: circular polarisations at distinct mu are pointwise orthogonal."""
        s = self._shape_sq(t)
        total = sum(2.0 * abs(amplitude) ** 2 * s for _, amplitude in self.entries)
        return 2.0 * math.pi * math.sqrt(total)

    def interior_mass_fraction(self, t: float) -> float:
        """Fraction of squared L2 mass beyond INTERIOR_SPLIT from the owning wall."""
        z = np.linspace(0.0, 1.0, 4001)
        dens = np.sum(np.abs(self.value(t, z)) ** 2, axis=0)
        zeta = z if self.side == 0 else 1.0 - z
        total = np.trapezoid(dens, z)
        inner = np.trapezoid(np.where(zeta >= INTERIOR_SPLIT, dens, 0.0), z)
        return float(inner / total) if total else 0.0


#: HeatColumn adds the erfc image of its profile below this nu t, sums its sine series from it up
_IMAGE_NU_T = 0.01


class HeatColumn(ResonantLayer):
    """The resonant layer of the strip rather than the half-space: for one
    constant filtered wall datum g the filtered k_h = 0 column solves the
    heat equation with conductivity nu.  Side 0: value g at the bottom,
    stress-free top; side 1: stress g at the top, no-slip bottom.  With
    w_m = (m+1/2) pi,

        side 0:  v(t, z) = g [1 - sum_m 2/w_m e^{-nu w_m^2 t} sin(w_m z)],
        side 1:  v(t, z) = g [z - sum_m 2(-1)^m/w_m^2 e^{-nu w_m^2 t} sin(w_m z)],

    exact at both walls at every t (sin(0) = cos(w_m) = 0).  Side 0 stays
    bounded by |g| uniformly in time; side 1 grows from 0 toward the linear
    shear g z on the 1/nu time scale, the destabilization of the whole
    column.  With p the half-space profile of ResonantLayer, the same
    solution is the image sum (Carslaw & Jaeger, Conduction of Heat in Solids, ch. 3)

        side 0:  v(t, z) = g sum_n (-1)^n [p(2n + z) + p(2n + 2 - z)],
        side 1:  v(t, z) = g sum_n (-1)^n [p(z - 2n) - p(-z - 2n)].

    Below nu t = _IMAGE_NU_T the pair n = 0 (w = 2 sqrt(nu t) <= 0.2 puts n >= 1
    below erfc(10) of the sup) and the half-space norm (its image adds < 1e-22
    relative); from there up the series of _series and its Parseval norm.
    """

    def _shape(self, t, z):
        z = np.asarray(z, dtype=float)
        if self.nu * t < _IMAGE_NU_T:
            far = 2.0 - z if self.side == 0 else -z
            return super()._shape(t, z) + (1 - 2 * self.side) * super()._shape(t, far)
        w, c, signs = self._series(t)
        return (1.0 if self.side == 0 else z) - np.sin(np.multiply.outer(z, w)) @ (signs * c)

    def _shape_sq(self, t):
        if self.nu * t < _IMAGE_NU_T:
            return super()._shape_sq(t)
        w, c, _ = self._series(t)
        return 1.0 / (1 + 2 * self.side) + float(np.sum(c * (0.5 * c - 2.0 / w ** (1 + self.side))))

    def _series(self, t):
        """w_m, the coefficients up to sign, 2 e^{-nu w_m^2 t} / w_m^(1 + side), and
        their signs, m < 25 (from nu t = _IMAGE_NU_T up, nu w_25^2 t > 64)."""
        m = np.arange(25)
        w = (m + 0.5) * math.pi
        c = 2.0 * np.exp(-self.nu * w ** 2 * t) / w ** (1 + self.side)
        return w, c, (-1.0) ** (self.side * m)


# ---------------------------------------------------------------------------
# the layer operator
# ---------------------------------------------------------------------------


class _Part:
    """A part of an approximation.  profiles(t, z, columns, out) evaluates the
    listed columns k_h together and adds them into out, an array of shape
    (len(columns), 3) + z.shape (zeros when not given), which it returns; a
    column the part does not hold adds nothing.  Each part adds its columns
    in _add(t, z, columns, out), z an array; hat_profile is the one-column
    view."""

    def profiles(self, t, z, columns, out=None):
        z = np.asarray(z, dtype=float)
        if out is None:
            out = np.zeros((len(columns), 3) + z.shape, dtype=complex)
        self._add(t, z, columns, out)
        return out

    def hat_profile(self, k_h, t, z):
        return self.profiles(t, z, [k_h])[0]


def _column_index(k_h):
    """The index of a table whose rows k_h (n, 2) are sorted by column: the
    distinct columns, a sorted list of tuples, and their first rows, then n."""
    new = np.ones(len(k_h), dtype=bool)
    new[1:] = np.any(k_h[1:] != k_h[:-1], axis=1)
    first = np.flatnonzero(new).tolist()
    return [tuple(k) for k in k_h[first].tolist()], first + [len(k_h)]


def _slices(index, columns) -> list:
    """(i, a, b) for each listed column columns[i] that a sorted table holds,
    found by bisection in its index (columns, starts): its rows a .. b - 1."""
    keys, starts = index
    out = []
    for i, k_h in enumerate(columns):
        k_h = _kh_tuple(k_h)
        j = bisect.bisect_left(keys, k_h)
        if j < len(keys) and keys[j] == k_h:
            out.append((i, starts[j], starts[j + 1]))
    return out


class ModulatedBL(_Part):
    """Wall layers with slow exponential amplitude modulation: the rows of a
    layer table, row i times e^{-rates[i] t}, plus resonant layers on k_h =
    0.  The layer operator's output is one at rates 0: the table of classical
    Ekman and quasi-resonant thick-layer profiles (|mu| = 1, k_h != 0;
    table.quasi) and the resonant self-similar parts (|mu| = 1, k_h = 0), one
    ResonantLayer per wall with resonant content.  The table's rows are put
    once, at construction, in a stable order of their columns, so that a
    column's rows are one slice."""

    def __init__(self, params: Params, table: LayerTable, rates=0j, resonant=()):
        self.params = params
        self.table = table
        self.rates = np.broadcast_to(np.asarray(rates, dtype=complex), (len(table),))
        self.resonant = list(resonant)
        self._order = np.lexsort(table.k_h.T[::-1])  # by k1, then k2; stable
        self._index = _column_index(table.k_h[self._order])

    def _weights(self, t, rows) -> np.ndarray:
        """e^{i mu t/eps} e^{-rate t} of the rows, mu t/eps in real
        arithmetic as the scalar formula rounds it."""
        return (np.exp(1j * (self.table.mu[rows] * t / self.params.epsilon))
                * np.exp(-self.rates[rows] * t))

    def _add(self, t, z, columns, out):
        """The rows of all listed columns from one exp(-q zeta) block."""
        held = [(i, self._order[a:b]) for i, a, b in _slices(self._index, columns)]
        if held:
            rows = np.concatenate([r for _, r in held])
            column = np.concatenate([np.full(len(r), i) for i, r in held])
            self.table.profiles(rows, self._weights(t, rows), column, z, out)
        for i in [i for i, k_h in enumerate(columns) if _kh_tuple(k_h) == (0, 0)]:
            for layer in self.resonant:
                out[i] += layer.value(t, z)

    def horizontal_modes(self):
        return sorted(set(self.table.columns()) | ({(0, 0)} if self.resonant else set()))

    def l2_norm(self, t: float) -> float:
        """Exact L2 norm at time t.  On each column the kept rates of every
        row, times their row's weight, enter one closed-form Gram sum, so
        cross terms between rows count; this needs the column's layers on one
        wall.  The columns go through one padded Gram sum, each padded with
        zero amplitudes to the most kept rates of a column.  The resonant k_h = 0
        layers are added in quadrature: the classical remainder sharing their
        column carries the orthogonal circular polarisation."""
        tab, order = self.table, self._order
        first = self._index[1][:-1]
        total = 0.0
        if len(order):
            side = tab.side[order]
            mixed = np.flatnonzero(np.minimum.reduceat(side, first)
                                   != np.maximum.reduceat(side, first))
            if len(mixed):
                raise ValueError(f"column {self._index[0][mixed[0]]} holds layers of both "
                                 "walls; a modulated layer lives on one wall")
            r, j = tab.keep[order].nonzero()
            column = np.searchsorted(first, r, side="right") - 1
            count = np.bincount(column)
            slot = np.arange(len(r)) - (count.cumsum() - count)[column]
            amps = np.zeros((len(first), count.max(), 3), dtype=complex)
            q = np.ones(amps.shape[:2], dtype=complex)
            amps[column, slot] = tab.amps[order[r], j] * self._weights(t, order[r])[:, None]
            q[column, slot] = tab.q[order[r], j]
            total += float(np.sum(_amplitude_l2(amps, q) ** 2))
        for layer in self.resonant:
            total += layer.l2_norm_h(t) ** 2
        return math.sqrt(total)

    def part_norm_h(self, part: str, t: float = 0.0) -> float:
        """L2(omega) norm of the horizontal components of one part at time
        t: 'classical', 'quasi_resonant' or 'resonant', each row's norm
        times |e^{-rate t}|.  Exact for single-(mu,k_h) parts; for several
        frequencies on one k_h this is the root-sum-square over rows (cross
        terms time-average to zero)."""
        if part == "resonant":
            return math.sqrt(sum(r.l2_norm_h(t) ** 2 for r in self.resonant))
        if part not in ("classical", "quasi_resonant"):
            raise ValueError(f"no layer part named {part!r}; the parts are "
                             "'classical', 'quasi_resonant' and 'resonant'")
        norms = self.table.norms()[0] * np.abs(np.exp(-self.rates * t))
        chosen = norms[self.table.quasi == (part == "quasi_resonant")]
        return math.sqrt(sum((chosen ** 2).tolist()))

    def frozen_dt_bound(self) -> float:
        """Majorant of the equation defect from slowly modulating layers built
        for frozen amplitudes: sum over the traces the rows came from (their
        pair) of the root-sum-square over the trace's rows of |rate| times
        the row's norm, that is |rate| times the trace's layer norm."""
        norm_h, norm_3 = self.table.norms()
        sq = np.abs(self.rates) ** 2 * (norm_h ** 2 + norm_3 ** 2)
        return float(np.sum(np.sqrt(np.bincount(self.table.pair, weights=sq))))

    def wall_trace_norms(self, wall: int) -> tuple:
        """The norms over rows of the horizontal values and of their
        z-derivatives at z = wall."""
        h, _, dzh = self.table.wall_traces(wall)
        return math.sqrt(float(np.sum(np.abs(h) ** 2))), math.sqrt(float(np.sum(np.abs(dzh) ** 2)))


def build_B(delta0: BoundaryTrace, delta1: BoundaryTrace, params: Params) -> ModulatedBL:
    """The layer operator: route every trace entry to its profile family.

    |mu| != 1                -> classical Ekman profiles (thickness sqrt(eps nu))
    |mu| = 1, k_h != 0       -> quasi-resonant profiles (one anomalously slow rate)
    |mu| = 1, k_h = 0        -> resonant part extracted by circular projection,
                                self-similar heat profile; the orthogonal
                                remainder only excites the O(1) rate and joins
                                the classical family.
    Linear in (delta0, delta1) by construction.  All entries of both traces
    go through one batched layer step; the result is the unmodulated wall-layer part.
    """
    table, (resonant,) = build_layers([(delta0, delta1)], params)
    return ModulatedBL(params, table, 0j, resonant)


def build_layers(traces, params: Params):
    """The layer operator on several (bottom trace, top trace) pairs, the
    entries of all pairs solved in one rate_batch and one layer_basis:
    (table, resonant), one LayerTable whose rows carry the index of their
    pair in `pair`, and per pair the list of its ResonantLayers."""
    rows, resonant = [], []  # rows: (pair, side, mu, k_h, delta)
    for pair, (delta0, delta1) in enumerate(traces):
        if delta0.side != 0 or delta1.side != 1:
            raise ValueError("build_B expects (bottom trace, top trace)")
        resonant.append([])
        for trace in (delta0, delta1):
            res_layer = ResonantLayer(side=trace.side, nu=params.nu, epsilon=params.epsilon)
            for (mu, k_h), delta_hat in trace.entries():
                if not np.any(delta_hat):
                    continue
                if k_h == (0, 0) and abs(abs(mu) - 1.0) < RESONANT_TOL:
                    delta_hat = res_layer.project(mu, delta_hat)
                rows.append((pair, trace.side, mu, k_h, delta_hat))
            if res_layer.entries:
                resonant[pair].append(res_layer)
    pairs, sides, mu, k_h, delta = zip(*rows) if rows else ((), (), (), (), ())
    basis = layer_basis(rate_batch(mu, k_h, params), params)
    return _table(sides, pairs, basis, np.reshape(delta, (-1, 2)), params), resonant


def wall_layers(side: int, basis: LayerBasis, delta, params: Params) -> LayerTable:
    """The layer operator on n one-entry traces of one wall whose rates and
    kernel vectors are already solved: row i of `basis` carries the trace
    delta[i] (2-vector) on wall `side`, and its table row has pair i.  A row
    with resonant content (k_h = 0, |mu| = 1) raises: that part needs
    build_B."""
    n = len(basis.rates)
    return _table(np.full(n, side), np.arange(n), basis, np.reshape(delta, (-1, 2)), params)


def _table(sides, pairs, basis: LayerBasis, delta, params: Params) -> LayerTable:
    """The table of a solved basis carrying the traces delta (n, 2):
    alpha = P^{-1} delta in one stacked solve, and every rate that decays
    and has an amplitude kept.  Warns once per ambiguous row."""
    rates = basis.rates
    for i in np.flatnonzero(rates.ambiguous):
        warnings.warn(
            f"decay-rate selection ambiguous at (mu={rates.mu[i]}, k_h={_kh_tuple(rates.k_h[i])}); "
            f"candidates {rates.row(i).plus_candidates}",
            AmbiguousSelectionWarning, stacklevel=3,
        )
    alpha = basis.solve(delta)
    lam = rates.lam
    flat = lam.real < RESONANT_TOL
    stray = flat & (np.abs(alpha) > 1e-10 * np.maximum(1.0, np.abs(delta).max(axis=1))[:, None])
    if stray.any():
        i = int(np.argmax(stray.any(axis=1)))
        raise ValueError(
            f"non-decaying component with nonzero amplitude at (mu={rates.mu[i]}, "
            f"k_h={_kh_tuple(rates.k_h[i])}); "
            "resonant content must be removed before profile construction"
        )
    return _layer_table(sides, rates.mu, rates.k_h, lam, basis.w, alpha, ~flat & (alpha != 0),
                        pairs, params)


# ---------------------------------------------------------------------------
# residual traces at the opposite wall
# ---------------------------------------------------------------------------


@dataclass
class TraceResiduals:
    """What each layer part leaves on the wall it was not built for."""

    classical_bottom_at_top: list
    classical_top_at_bottom: list
    quasi_bottom_at_top: list
    quasi_top_at_bottom: list
    resonant_traces: list

    def max_magnitude(self, name: str) -> float:
        rows = getattr(self, name)
        return max((r["magnitude"] for r in rows), default=0.0)


def trace_residuals(sol: ModulatedBL, params: Params, t: float = 0.0) -> TraceResiduals:
    tab = sol.table
    walls = 1 - tab.side
    h, v, dzh = tab.wall_traces(walls)
    buckets = {(quasi, side): [] for quasi in (False, True) for side in (0, 1)}
    for i in range(len(tab)):
        buckets[(bool(tab.quasi[i]), int(tab.side[i]))].append({
            "mu": float(tab.mu[i]), "k_h": _kh_tuple(tab.k_h[i]), "wall": int(walls[i]),
            "horizontal": h[i], "vertical": v[i], "dz_horizontal": dzh[i],
            "magnitude": float(max(np.max(np.abs(h[i])), abs(v[i]))),
        })
    res_rows = []
    for r in sol.resonant:
        tr = r.value(t, np.array([1.0 - r.side]))[:, 0]  # at the opposite wall
        res_rows.append({
            "side": r.side, "wall": 1 - r.side, "value": tr,
            "magnitude": float(np.max(np.abs(tr))),
        })
    return TraceResiduals(
        classical_bottom_at_top=buckets[(False, 0)],
        classical_top_at_bottom=buckets[(False, 1)],
        quasi_bottom_at_top=buckets[(True, 0)],
        quasi_top_at_bottom=buckets[(True, 1)],
        resonant_traces=res_rows,
    )
