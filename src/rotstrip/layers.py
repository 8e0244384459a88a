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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .params import Params

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


def is_resonant_frequency(mu: float) -> bool:
    return abs(abs(mu) - 1.0) < RESONANT_TOL


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------


def a_lambda_matrix(lam: complex, mu: float, k_h, params: Params) -> np.ndarray:
    """The 2x2 symbol whose kernel carries the layer polarisation.

    Singular (pole) at lambda^2 = eps*nu*|k_h|^2; that value is rejected
    explicitly rather than returned as garbage.
    """
    k1, k2 = _kh_tuple(k_h)
    kh2 = k1 * k1 + k2 * k2
    en = params.eps_nu
    lam2 = lam * lam
    denom = lam2 - en * kh2
    if kh2 > 0 and abs(denom) < 1e-14 * max(abs(lam2), en * kh2, 1e-300):
        raise ZeroDivisionError(
            f"a_lambda_matrix evaluated at its pole lambda^2 = eps*nu*|k_h|^2 "
            f"(lambda^2={lam2}, eps*nu*|k_h|^2={en * kh2})"
        )
    diag = 1j * mu - lam2 + params.epsilon * kh2
    if kh2 > 0:
        off = en / denom
        return np.array(
            [
                [diag + off * k1 * k2, -1.0 - off * k1 * k1],
                [1.0 + off * k2 * k2, diag - off * k1 * k2],
            ]
        )
    return np.array([[diag, -1.0], [1.0, diag]])


def decay_cubic_coefficients(mu: float, k_h, params: Params) -> np.ndarray:
    """Coefficients (descending) of the pole-cleared cubic in s = lambda^2:

        (s - eps*nu*|k_h|^2) * [(i mu - s + eps*|k_h|^2)^2 + 1] + eps*nu*|k_h|^2 = 0.
    """
    kh2 = float(horizontal_sq(k_h))
    a = params.epsilon * kh2
    b = params.eps_nu * kh2
    A = a + 1j * mu
    return np.array(
        [1.0, -(2.0 * A + b), A * A + 1.0 + 2.0 * b * A, -b * (A * A + 1.0) + b],
        dtype=complex,
    )


def horizontal_sq(k_h) -> int:
    k1, k2 = _kh_tuple(k_h)
    return k1 * k1 + k2 * k2


def _sqrt_nonneg_real(s: complex) -> complex:
    lam = np.sqrt(complex(s))
    if lam.real < 0.0:
        lam = -lam
    return lam


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
        res = 0.0
        for lam in (self.lambda_minus, self.lambda_plus):
            A = a_lambda_matrix(lam, self.mu, self.k_h, params)
            scale = max(1.0, float(np.abs(A).max()) ** 2)
            res = max(res, abs(np.linalg.det(A)) / scale)
        return res


def _kernel_alignment(s: complex, mu: float, k_h, params: Params) -> float:
    """|<(1, i mu), w(s)>| / (sqrt(2) |w|): closeness of the kernel vector to
    the resonant circular polarisation.  Used only to tie-break the |mu| = 1
    root selection."""
    try:
        A = a_lambda_matrix(_sqrt_nonneg_real(s), mu, k_h, params)
    except ZeroDivisionError:
        return -1.0
    w = _null_vector(A)
    target = np.array([1.0, 1j * math.copysign(1.0, mu)])
    return abs(np.vdot(target, w)) / (math.sqrt(2.0) * np.linalg.norm(w))


def _pick_physical_near_zero(cand, mu, k_h, b, params):
    """Among the two roots crowding s = 0 at |mu| = 1, identify the physical
    slow rate.  The companion root continues the pole of the symbol at s = b;
    when the two are not cleanly separated from the pole, tie-break by
    kernel-vector alignment with the resonant polarisation, then by the
    larger Re(lambda).  Returns (physical, companion, ambiguous)."""
    d_pole = [abs(s - b) for s in cand]
    ratio = min(d_pole) / max(max(d_pole), 1e-300)
    if ratio < AMBIGUITY_RATIO:
        order = int(np.argmax(d_pole))  # farther from the pole = physical
        return cand[order], cand[1 - order], False
    align = [_kernel_alignment(s, mu, k_h, params) for s in cand]
    if abs(align[0] - align[1]) > 1e-3:
        order = int(np.argmax(align))
    else:
        order = int(np.argmax([_sqrt_nonneg_real(s).real for s in cand]))
    return cand[order], cand[1 - order], True


def decay_rates(mu: float, k_h, params: Params, prev: DecayRates | None = None) -> DecayRates:
    """Solve the pole-cleared cubic and select the two physical rates.

    Selection is by closeness to the leading-order targets i(mu +- 1) (shifted
    by eps|k_h|^2), after excluding the root that continues the pole of the
    symbol.  For |mu| = 1, k_h != 0 the excluded root and the anomalously slow
    physical rate can be comparable; the tie is then broken by kernel-vector
    alignment with the resonant polarisation, then by the larger real part of
    lambda, and the outcome is reported (never silently) via `ambiguous`.
    Passing the result of a neighbouring parameter point as `prev` switches to
    continuity tracking along sweeps.
    """
    k_h = _kh_tuple(k_h)
    kh2 = horizontal_sq(k_h)
    mu = float(mu)

    if kh2 == 0:
        s_minus = 1j * (mu + 1.0)
        s_plus = 1j * (mu - 1.0)
        degenerate = abs(s_minus) < RESONANT_TOL or abs(s_plus) < RESONANT_TOL
        return DecayRates(
            mu=mu,
            k_h=k_h,
            lambda_minus=_sqrt_nonneg_real(s_minus),
            lambda_plus=_sqrt_nonneg_real(s_plus),
            s_minus=s_minus,
            s_plus=s_plus,
            third_root_s=0j,
            degenerate_zero=degenerate,
        )

    roots = list(np.roots(decay_cubic_coefficients(mu, k_h, params)))
    a = params.epsilon * kh2
    b = params.eps_nu * kh2
    t_minus = 1j * (mu + 1.0) + a
    t_plus = 1j * (mu - 1.0) + a
    ambiguous, candidates = False, ()

    if prev is not None:
        i_minus = int(np.argmin([abs(s - prev.s_minus) for s in roots]))
        s_minus = roots.pop(i_minus)
        i_plus = int(np.argmin([abs(s - prev.s_plus) for s in roots]))
        s_plus = roots.pop(i_plus)
        s_third = roots[0]
    elif not is_resonant_frequency(mu):
        i_minus = int(np.argmin([abs(s - t_minus) for s in roots]))
        s_minus = roots.pop(i_minus)
        i_plus = int(np.argmin([abs(s - t_plus) for s in roots]))
        s_plus = roots.pop(i_plus)
        s_third = roots[0]
    else:
        # one clean O(1) rate and a degenerate pair near s = 0
        clean_target = t_minus if mu > 0 else t_plus
        i_clean = int(np.argmin([abs(s - clean_target) for s in roots]))
        s_clean = roots.pop(i_clean)
        s_slow, s_third, ambiguous = _pick_physical_near_zero(roots, mu, k_h, b, params)
        if ambiguous:
            candidates = (s_slow, s_third)
        if mu > 0:
            s_minus, s_plus = s_clean, s_slow
        else:
            s_minus, s_plus = s_slow, s_clean

    return DecayRates(
        mu=mu,
        k_h=k_h,
        lambda_minus=_sqrt_nonneg_real(s_minus),
        lambda_plus=_sqrt_nonneg_real(s_plus),
        s_minus=s_minus,
        s_plus=s_plus,
        third_root_s=s_third,
        degenerate_zero=False,
        ambiguous=ambiguous,
        plus_candidates=candidates,
    )


# ---------------------------------------------------------------------------
# kernel vectors and transition coefficients
# ---------------------------------------------------------------------------


def _null_vector(A: np.ndarray) -> np.ndarray:
    """Null vector of a (numerically) singular 2x2 matrix."""
    w1 = np.array([A[0, 1], -A[0, 0]])
    w2 = np.array([A[1, 1], -A[1, 0]])
    return w1 if np.linalg.norm(w1) >= np.linalg.norm(w2) else w2


@dataclass
class KernelVector:
    """Null vector of A_lambda, normalised to first component one when
    possible (normalization == 'first'); falls back to the second component,
    flagged, if the first vanishes."""

    w: np.ndarray
    normalization: str = "first"

    def __iter__(self):
        return iter(self.w)


def kernel_vector(lam: complex, mu: float, k_h, params: Params) -> KernelVector:
    A = a_lambda_matrix(lam, mu, k_h, params)
    scale = max(1.0, float(np.abs(A).max()) ** 2)
    residual = abs(np.linalg.det(A)) / scale
    if residual > 1e-8:
        raise ValueError(
            f"lambda={lam} is not on the det A_lambda = 0 variety "
            f"(relative residual {residual:.3e} > 1e-8)"
        )
    w = _null_vector(A)
    if abs(w[0]) > 1e-8 * np.linalg.norm(w):
        return KernelVector(w / w[0], "first")
    return KernelVector(w / w[1], "second")


def transition_matrix(rates: DecayRates, params: Params):
    """(P, w_minus, w_plus) with P = [w_minus | w_plus]."""
    wm = kernel_vector(rates.lambda_minus, rates.mu, rates.k_h, params).w
    wp = kernel_vector(rates.lambda_plus, rates.mu, rates.k_h, params).w
    return np.column_stack([wm, wp]), wm, wp


def transition_step(delta_hat, rates: DecayRates, params: Params):
    """The one per-entry layer step: (alpha, (w_minus, w_plus)), the kernel
    vectors of the two rates and the amplitudes alpha = P^{-1} delta_hat on
    P = [w_minus | w_plus]."""
    P, wm, wp = transition_matrix(rates, params)
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    if abs(det) < 1e-6:
        raise ValueError(
            f"transition matrix nearly singular (|det|={abs(det):.3e} < 1e-6); "
            "kernel vectors failed to span C^2"
        )
    return np.linalg.solve(P, np.asarray(delta_hat, dtype=complex)), (wm, wp)


def transition_coeffs(delta_hat, mu: float, k_h, params: Params,
                      rates: DecayRates | None = None):
    """Decompose a trace coefficient on the kernel-vector basis:
    (alpha_minus, alpha_plus) = P^{-1} delta_hat."""
    if rates is None:
        rates = decay_rates(mu, k_h, params)
    alpha, _ = transition_step(delta_hat, rates, params)
    return alpha[0], alpha[1]


# ---------------------------------------------------------------------------
# exponential mode profiles
# ---------------------------------------------------------------------------


@dataclass
class LayerComponent:
    """One (sigma, lambda) piece of a wall profile, amplitude included."""

    sigma: int  # -1 or +1
    lam: complex
    w: np.ndarray  # kernel vector, shape (2,)
    alpha: complex


@dataclass
class ModeProfileGroup:
    """All exponential components attached to one (side, mu, k_h) trace entry.

    side 0 profiles decay in z from the bottom and realise the Dirichlet
    trace v_h(z=0) exactly; side 1 profiles decay in 1-z and realise the
    stress trace dz v_h(z=1) exactly.  The vertical component is fixed by
    incompressibility.  The amplitude table is fixed at construction: the
    profile is sum_m amps[m] exp(-q[m] zeta), amps (ncomp, 3) the amplitudes
    of (u1, u2, u3), q = lambda/sqrt(eps nu) and zeta the distance to the
    owning wall.
    """

    side: int
    mu: float
    k_h: tuple
    components: list
    params: Params
    kind: str = "classical"
    amps: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        scale = self.params.layer_scale
        lam = np.array([c.lam for c in self.components], dtype=complex)
        w = np.array([c.w for c in self.components], dtype=complex)
        alpha = np.array([c.alpha for c in self.components], dtype=complex)
        ikw = 1j * (self.k_h[0] * w[:, 0] + self.k_h[1] * w[:, 1])
        if self.side == 0:
            horizontal = alpha[:, None] * w
            vertical = alpha * (scale / lam) * ikw
        else:
            horizontal = (alpha * (scale / lam))[:, None] * w
            vertical = -alpha * (scale ** 2 / lam ** 2) * ikw
        self.q = lam / scale
        self.amps = np.column_stack([horizontal, vertical])

    def _zeta(self, z):
        z = np.asarray(z, dtype=float)
        return z if self.side == 0 else 1.0 - z

    # -- evaluation ----------------------------------------------------------

    def phase(self, t: float) -> complex:
        return np.exp(1j * self.mu * t / self.params.epsilon)

    def hat_profile(self, z) -> np.ndarray:
        """Hat coefficient of e^{i k_h.x_h}, shape (3,) + shape(z), no phase.

        One exponential per component serves all three velocity components:
        the (3, ncomp) amplitude table times exp(-outer(q, zeta))."""
        return np.tensordot(self.amps.T, np.exp(-np.multiply.outer(self.q, self._zeta(z))),
                            axes=1)

    def evaluate(self, t: float, x) -> np.ndarray:
        x1, x2, z = (np.asarray(c) for c in x)
        ph = np.exp(1j * (self.k_h[0] * x1 + self.k_h[1] * x2)) * self.phase(t)
        return self.hat_profile(z) * ph

    # -- traces ---------------------------------------------------------------

    def _wall_decay(self, wall: int) -> np.ndarray:
        """exp(-q zeta) at z = wall (0 or 1), one value per component."""
        return np.exp(-self.q * float(self._zeta(float(wall))))

    def horizontal_trace(self, wall: int) -> np.ndarray:
        """Hat value of the horizontal part at z = wall (0 or 1)."""
        return self._wall_decay(wall) @ self.amps[:, :2]

    def vertical_trace(self, wall: int) -> complex:
        return self._wall_decay(wall) @ self.amps[:, 2]

    def dz_horizontal_trace(self, wall: int) -> np.ndarray:
        dzeta_dz = 1.0 if self.side == 0 else -1.0
        return (-dzeta_dz * self.q * self._wall_decay(wall)) @ self.amps[:, :2]

    # -- norms ----------------------------------------------------------------

    def l2_norm_h(self) -> float:
        return _amplitude_l2(self.amps[:, :2], self.q)

    def l2_norm_3(self) -> float:
        return _amplitude_l2(self.amps[:, 2:], self.q)


def profile_W(side: int, lam: complex, w, mu: float, k_h, params: Params,
              alpha: complex = 1.0) -> ModeProfileGroup:
    """Single wall profile W^j_lambda as an evaluable group.

    side 0 realises the horizontal Dirichlet trace alpha * w at z = 0; side 1
    the horizontal stress trace alpha * w at z = 1; the sqrt(eps nu)/lambda
    and eps nu/lambda^2 prefactors and the divergence-closing third component
    are built in.  Requires Re(lambda) > 0.
    """
    if complex(lam).real <= 0.0:
        raise ValueError(f"wall profile requires Re(lambda) > 0, got {lam}")
    comp = LayerComponent(sigma=0, lam=complex(lam),
                          w=np.asarray(w, dtype=complex), alpha=complex(alpha))
    return ModeProfileGroup(side=side, mu=float(mu), k_h=_kh_tuple(k_h),
                            components=[comp], params=params)


def _amplitude_l2(amps, q) -> float:
    """L2(omega) norm of sum_m amps[m] exp(-q_m zeta) e^{i k_h x}, closed form:
    the Gram sum over pairs of components of <amps[n], amps[m]> times
    int_0^1 exp(-(q_m + conj q_n) zeta) d zeta.  amps is (ncomp, ncomponents)."""
    Q = np.add.outer(q, np.conj(q))
    flat = np.abs(Q) < 1e-14
    integral = np.where(flat, 1.0, (1.0 - np.exp(-Q)) / np.where(flat, 1.0, Q))
    total = np.sum((amps @ amps.conj().T) * integral).real
    return math.sqrt(max(total, 0.0)) * 2.0 * math.pi


# ---------------------------------------------------------------------------
# resonant self-similar profiles
# ---------------------------------------------------------------------------


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
    if t == 0.0:
        if side == 0:
            base = np.where(zeta <= 0.0, 1.0, 0.0)
        else:
            base = np.zeros_like(zeta)
        return np.multiply.outer(delta, base) if delta.ndim else delta * base
    width = 2.0 * math.sqrt(nu * t)
    if side == 0:
        base = erfc(zeta / width)
    else:
        base = 2.0 * math.sqrt(nu * t) * _ierfc(zeta / width)
    return np.multiply.outer(delta, base) if delta.ndim else delta * base


_ERFC_SQ_NODES = np.polynomial.legendre.leggauss(200)


def _profile_sq_integral(side: int, nu: float, t: float) -> float:
    """int_0^1 base(t, zeta)^2 d zeta for the resonant profile shapes."""
    if t <= 0.0:
        return 0.0
    w = math.sqrt(nu * t)
    X = min(1.0 / (2.0 * w), 10.0)
    xg, wg = _ERFC_SQ_NODES
    u = 0.5 * X * (xg + 1.0)
    du = 0.5 * X * wg
    if side == 0:
        vals = erfc(u) ** 2
        return 2.0 * w * float(np.sum(vals * du))
    # side 1: profile is 2 sqrt(nu t) ierfc((1-z)/(2 sqrt(nu t)))
    vals = _ierfc(u) ** 2
    return 4.0 * nu * t * 2.0 * w * float(np.sum(vals * du))


@dataclass
class ResonantEntry:
    mu: float  # +1 or -1
    amplitude: complex  # scalar coefficient on the circular polarisation
    polarization: np.ndarray  # (1, i mu, 0)


@dataclass
class ResonantLayer:
    """Resonant (|mu| = 1, k_h = 0) part of a wall response: a growing layer
    of width sqrt(nu t), never stationary, with zero vertical component."""

    side: int
    nu: float
    epsilon: float
    entries: list = field(default_factory=list)

    def value(self, t: float, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.zeros((3,) + z.shape, dtype=complex)
        for e in self.entries:
            base = resonant_profile(self.side, 1.0 + 0j, self.nu, t, z)
            phase = np.exp(1j * e.mu * t / self.epsilon)
            out += np.multiply.outer(e.amplitude * phase * e.polarization, base)
        return out

    def hat_profile(self, k_h, t, z):
        """Coefficient of e^{i k_h.x_h}; the resonant part lives on k_h = 0."""
        if _kh_tuple(k_h) != (0, 0):
            return np.zeros((3,) + np.asarray(z).shape, dtype=complex)
        return self.value(t, z)

    def l2_norm_h(self, t: float) -> float:
        """Exact: circular polarisations at distinct mu are pointwise orthogonal."""
        s = _profile_sq_integral(self.side, self.nu, t)
        total = sum(2.0 * abs(e.amplitude) ** 2 * s for e in self.entries)
        return 2.0 * math.pi * math.sqrt(total)

    def opposite_wall_trace(self, t: float) -> np.ndarray:
        zi = np.array([1.0 if self.side == 0 else 0.0])
        return self.value(t, zi)[:, 0]

    def interior_mass_fraction(self, t: float, split: float = 0.5) -> float:
        """Fraction of squared L2 mass beyond `split` from the owning wall."""
        z = np.linspace(0.0, 1.0, 4001)
        v = self.value(t, z)
        dens = np.sum(np.abs(v) ** 2, axis=0)
        zeta = z if self.side == 0 else 1.0 - z
        total = np.trapezoid(dens, z)
        if total == 0.0:
            return 0.0
        inner = np.trapezoid(np.where(zeta >= split, dens, 0.0), z)
        return float(inner / total)


# ---------------------------------------------------------------------------
# boundary traces and the layer operator
# ---------------------------------------------------------------------------


@dataclass
class BoundaryTrace:
    """Finite table of trace coefficients: (mu, k_h) -> C^2.

    side 0 prescribes the horizontal Dirichlet value at z = 0, side 1 the
    horizontal stress dz v_h at z = 1.
    """

    side: int
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in (0, 1):
            raise ValueError("side must be 0 (bottom) or 1 (top)")
        clean = {}
        for (mu, k_h), v in self.table.items():
            clean[(float(mu), _kh_tuple(k_h))] = np.asarray(v, dtype=complex).reshape(2)
        self.table = clean

    def entries(self):
        return ((key, self.table[key]) for key in sorted(self.table))

    def norm(self) -> float:
        """sqrt(sum |delta_hat|^2). The squared sum (no root) is sometimes
        used as a 'norm' in the continuity estimates; scaling regressions are
        insensitive to the choice and we expose the square-rooted quantity."""
        return math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for _, v in self.entries()))

    def scaled(self, factor: complex) -> "BoundaryTrace":
        return BoundaryTrace(self.side, {k: factor * v for k, v in self.table.items()})


def empty_trace(side: int) -> BoundaryTrace:
    return BoundaryTrace(side, {})


@dataclass
class BoundaryLayerSolution:
    """Output of the layer operator: classical Ekman profiles, quasi-resonant
    thick-layer profiles (|mu| = 1, k_h != 0) and resonant self-similar parts
    (|mu| = 1, k_h = 0), all evaluable at (t, x)."""

    classical: list
    quasi_resonant: list
    resonant: list
    params: Params

    def groups(self):
        return list(self.classical) + list(self.quasi_resonant)

    def evaluate(self, t: float, x) -> np.ndarray:
        x1 = np.asarray(x[0])
        out = np.zeros((3,) + np.broadcast(x1, np.asarray(x[2])).shape, dtype=complex)
        for g in self.groups():
            out += g.evaluate(t, x)
        for r in self.resonant:
            out += r.value(t, np.asarray(x[2], dtype=float))
        return out

    def hat_profile(self, k_h, t: float, z) -> np.ndarray:
        """Coefficient of e^{i k_h.x_h} at time t on the z samples."""
        k_h = _kh_tuple(k_h)
        z = np.asarray(z, dtype=float)
        out = np.zeros((3,) + z.shape, dtype=complex)
        for g in self.groups():
            if g.k_h == k_h:
                out += g.hat_profile(z) * g.phase(t)
        if k_h == (0, 0):
            for r in self.resonant:
                out += r.value(t, z)
        return out

    def horizontal_modes(self):
        ks = {g.k_h for g in self.groups()}
        if self.resonant:
            ks.add((0, 0))
        return sorted(ks)

    def part_norm_h(self, part: str, t: float = 0.0) -> float:
        """L2(omega) norm of the horizontal components of one part.

        Exact for single-(mu,k_h) parts; for several frequencies on one k_h
        this is the root-sum-square over groups (cross terms time-average to
        zero)."""
        if part == "resonant":
            return math.sqrt(sum(r.l2_norm_h(t) ** 2 for r in self.resonant))
        groups = self.classical if part == "classical" else self.quasi_resonant
        return math.sqrt(sum(g.l2_norm_h() ** 2 for g in groups))


def build_B(delta0: BoundaryTrace, delta1: BoundaryTrace, params: Params) -> BoundaryLayerSolution:
    """The layer operator: route every trace entry to its profile family.

    |mu| != 1                -> classical Ekman profiles (thickness sqrt(eps nu))
    |mu| = 1, k_h != 0       -> quasi-resonant profiles (one anomalously slow rate)
    |mu| = 1, k_h = 0        -> resonant part extracted by circular projection,
                                self-similar heat profile; the orthogonal
                                remainder only excites the O(1) rate and joins
                                the classical family.
    Linear in (delta0, delta1) by construction.
    """
    if delta0.side != 0 or delta1.side != 1:
        raise ValueError("build_B expects (bottom trace, top trace)")
    classical, quasi, resonant = [], [], []
    for trace in (delta0, delta1):
        res_layer = ResonantLayer(side=trace.side, nu=params.nu, epsilon=params.epsilon)
        for (mu, k_h), delta_hat in trace.entries():
            if not np.any(delta_hat):
                continue
            if k_h == (0, 0) and is_resonant_frequency(mu):
                pol = np.array([1.0, 1j * math.copysign(1.0, mu)])
                amp = 0.5 * complex(np.vdot(pol, delta_hat))
                if amp != 0:
                    res_layer.entries.append(
                        ResonantEntry(mu=math.copysign(1.0, mu), amplitude=amp,
                                      polarization=np.array([1.0, 1j * math.copysign(1.0, mu), 0.0]))
                    )
                remainder = delta_hat - amp * pol
                group = _build_group(trace.side, mu, k_h, remainder, params, "classical")
                if group is not None:
                    classical.append(group)
            else:
                kind = "quasi_resonant" if is_resonant_frequency(mu) else "classical"
                group = _build_group(trace.side, mu, k_h, delta_hat, params, kind)
                if group is not None:
                    (quasi if kind == "quasi_resonant" else classical).append(group)
        if res_layer.entries:
            resonant.append(res_layer)
    return BoundaryLayerSolution(classical, quasi, resonant, params)


def _build_group(side, mu, k_h, delta_hat, params, kind) -> ModeProfileGroup | None:
    rates = decay_rates(mu, k_h, params)
    if rates.ambiguous:
        warnings.warn(
            f"decay-rate selection ambiguous at (mu={mu}, k_h={k_h}); "
            f"candidates {rates.plus_candidates}",
            AmbiguousSelectionWarning, stacklevel=2,
        )
    alpha, ws = transition_step(delta_hat, rates, params)
    comps = []
    for sigma, lam, a, w in zip((-1, 1), (rates.lambda_minus, rates.lambda_plus), alpha, ws):
        if lam.real < RESONANT_TOL:
            if abs(a) > 1e-10 * max(1.0, float(np.max(np.abs(delta_hat)))):
                raise ValueError(
                    f"non-decaying component with nonzero amplitude at (mu={mu}, k_h={k_h}); "
                    "resonant content must be removed before profile construction"
                )
            continue
        if a == 0:
            continue
        comps.append(LayerComponent(sigma=sigma, lam=lam, w=w, alpha=a))
    if not comps:
        return None
    return ModeProfileGroup(side=side, mu=float(mu), k_h=_kh_tuple(k_h),
                            components=comps, params=params, kind=kind)


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


def trace_residuals(sol: BoundaryLayerSolution, params: Params, t: float = 0.0) -> TraceResiduals:
    buckets = {
        ("classical", 0): [],
        ("classical", 1): [],
        ("quasi_resonant", 0): [],
        ("quasi_resonant", 1): [],
    }
    for g in sol.groups():
        wall = 1 - g.side
        h = g.horizontal_trace(wall)
        v = g.vertical_trace(wall)
        dzh = g.dz_horizontal_trace(wall)
        buckets[(g.kind, g.side)].append({
            "mu": g.mu, "k_h": g.k_h, "wall": wall,
            "horizontal": h, "vertical": v, "dz_horizontal": dzh,
            "magnitude": float(max(np.max(np.abs(h)), abs(v))),
        })
    res_rows = []
    for r in sol.resonant:
        tr = r.opposite_wall_trace(t)
        res_rows.append({
            "side": r.side, "wall": 1 - r.side, "value": tr,
            "magnitude": float(np.max(np.abs(tr))),
        })
    return TraceResiduals(
        classical_bottom_at_top=buckets[("classical", 0)],
        classical_top_at_bottom=buckets[("classical", 1)],
        quasi_bottom_at_top=buckets[("quasi_resonant", 0)],
        quasi_top_at_bottom=buckets[("quasi_resonant", 1)],
        resonant_traces=res_rows,
    )


# ---------------------------------------------------------------------------
# filtering of the resonant column
# ---------------------------------------------------------------------------


def filter_resonant(u, epsilon: float, t: float) -> np.ndarray:
    """Remove the fast rotation from a (t, z)-dependent horizontal column.

    v = 1/2 <(1,i,0)|u> (1,i,0) e^{-it/eps} + 1/2 <(1,-i,0)|u> (1,-i,0) e^{+it/eps},
    pointwise in z.  If u solves the rotating column equation, v solves the
    plain heat equation with conductivity nu.
    """
    u = np.asarray(u, dtype=complex)
    plus = np.array([1.0, 1j, 0.0])
    minus = np.array([1.0, -1j, 0.0])
    cp = 0.5 * np.tensordot(np.conj(plus), u, axes=(0, 0))
    cm = 0.5 * np.tensordot(np.conj(minus), u, axes=(0, 0))
    out = np.multiply.outer(plus, cp) * np.exp(-1j * t / epsilon)
    out += np.multiply.outer(minus, cm) * np.exp(1j * t / epsilon)
    return out
