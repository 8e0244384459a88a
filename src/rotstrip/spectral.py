"""Coriolis eigenbasis of the strip, projections and the rotation group.

The domain is the periodic strip T^2 x [0,1] with T^2 = [0, 2pi)^2.  The
divergence-free, zero-flux subspace V0 of L^2 carries an orthonormal basis
N_k, k in Z^3 minus the origin, diagonalising the projected Coriolis operator
L u = P(e3 ^ u) with purely imaginary eigenvalues i*lambda_k.  Everything
downstream (boundary layers, envelope dynamics, correctors) is expressed in
this basis, so the quadrature oracle here is the ground truth for every
normalisation choice in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .params import check_integers

Mode = tuple  # (k1, k2, k3) integers, not all zero


def _check_mode(k) -> Mode:
    """k as a tuple of three python ints; a non-integer component (a bool is
    not one) or (0, 0, 0) is rejected, not truncated."""
    try:
        k = check_integers("mode", k, 3)
    except ValueError:
        raise ValueError(f"mode index {k!r} must have three components, each an integer") from None
    if k == (0, 0, 0):
        raise ValueError("mode index (0,0,0) is not part of the eigenbasis")
    return k


def horizontal_norm2(k) -> int:
    return int(k[0]) ** 2 + int(k[1]) ** 2


def weighted_norm(k) -> float:
    """sqrt(|k_h|^2 + (pi k3)^2), the norm appearing in the eigenvalue formula.
    The square is a product, rounded as numpy squares an array (a float's
    ** 2 is libm pow, which differs in the last bit at k3 = 2207, for one)."""
    x = math.pi * k[2]
    return math.sqrt(horizontal_norm2(k) + x * x)


def euclidean_norm(k) -> float:
    return math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)


def eigenvalue(k) -> float:
    """Eigenvalue lambda_k = -pi k3 / sqrt(|k_h|^2 + (pi k3)^2) of L on N_k."""
    k = _check_mode(k)
    return -k[2] * math.pi / weighted_norm(k)


def _mode_rows(k) -> np.ndarray:
    """Mode indices as an (n, 3) integer array; (0, 0, 0) is rejected."""
    k = np.asarray(k, dtype=int).reshape(-1, 3)
    if not k.any(axis=1).all():
        raise ValueError("mode index (0,0,0) is not part of the eigenbasis")
    return k


def _weighted_norms(k) -> np.ndarray:
    """weighted_norm of each row of an (n, 3) integer array."""
    return np.sqrt((k[:, 0] ** 2 + k[:, 1] ** 2) + (math.pi * k[:, 2]) ** 2)


def eigenvalues(k) -> np.ndarray:
    """eigenvalue of each row of an (n, 3) integer array of modes."""
    k = _mode_rows(k)
    return -k[:, 2] * math.pi / _weighted_norms(k)


def basis_normals(k) -> np.ndarray:
    """basis_normal of each row of an (n, 3) integer array of modes, (n, 3).

    The real and imaginary parts are formed apart, as the one-mode complex
    arithmetic rounds them (a quotient by a real divides each part by it).
    """
    k = _mode_rows(k)
    k1, k2, k3 = k.T
    kh = np.sqrt(k1 ** 2 + k2 ** 2)
    W = _weighted_norms(k)
    lam = -k3 * math.pi / W
    mean = kh == 0
    d = 2.0 * math.pi * np.where(mean, 1.0, kh)
    n = np.empty((len(k), 3), dtype=complex)
    n.real[:, 0], n.imag[:, 0] = k1 * lam / d, k2 / d
    n.real[:, 1], n.imag[:, 1] = k2 * lam / d, -k1 / d
    n.real[:, 2], n.imag[:, 2] = 0.0, kh / (2.0 * math.pi * W)
    if mean.any():  # k_h = 0: the circular polarisation of sign(k3)
        n[mean, 0] = np.copysign(1.0, k3[mean]) / (2.0 * math.pi)
        n[mean, 1] = 1j / (2.0 * math.pi)
    return n


def basis_normal(k) -> np.ndarray:
    """Polarisation vector n(k) of the eigenmode N_k: the one-mode view of
    basis_normals.

    The 1/(2pi) factors make N_k unit-norm in L^2(T^2 x [0,1]) with the
    plain Lebesgue measure (checked by quadrature in the test suite).
    """
    return basis_normals([_check_mode(k)])[0]


def basis_profile(k, z):
    """Vertical profile of N_k: hat coefficient of e^{i k_h . x_h}.

    Returns an array of shape (3,) + shape(z) with components
    (n1 cos(pi k3 z), n2 cos(pi k3 z), n3 sin(pi k3 z)).
    """
    k = _check_mode(k)
    z = np.asarray(z, dtype=float)
    n = basis_normal(k)
    c = np.cos(math.pi * k[2] * z)
    s = np.sin(math.pi * k[2] * z)
    return np.stack([n[0] * c, n[1] * c, n[2] * s])


def basis_vector(k, x):
    """Evaluate N_k at a point (or broadcastable arrays) x = (x1, x2, z)."""
    k = _check_mode(k)
    x1, x2, z = (np.asarray(c, dtype=float) for c in x)
    phase = np.exp(1j * (k[0] * x1 + k[1] * x2))
    return basis_profile(k, z) * phase


# ---------------------------------------------------------------------------
# quadrature on the strip
# ---------------------------------------------------------------------------


@dataclass
class StripQuadrature:
    """Tensor quadrature: trapezoid in x_h (exact for trig polynomials),
    Gauss-Legendre in z."""

    nx: int = 16
    ny: int = 16
    nz: int = 48

    x1: np.ndarray = field(init=False, repr=False)
    x2: np.ndarray = field(init=False, repr=False)
    z: np.ndarray = field(init=False, repr=False)
    wz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x1 = np.linspace(0.0, 2.0 * math.pi, self.nx, endpoint=False)
        self.x2 = np.linspace(0.0, 2.0 * math.pi, self.ny, endpoint=False)
        zg, wg = np.polynomial.legendre.leggauss(self.nz)
        self.z = 0.5 * (zg + 1.0)
        self.wz = 0.5 * wg

    def mesh(self):
        """Meshgrid (X1, X2, Z) with indexing 'ij'."""
        return np.meshgrid(self.x1, self.x2, self.z, indexing="ij")

    def sample(self, k) -> np.ndarray:
        """Samples of N_k on the grid, shape (3, nx, ny, nz)."""
        X1, X2, Z = self.mesh()
        return basis_vector(k, (X1, X2, Z))

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate scalar samples over T^2 x [0,1] (plain measure)."""
        hx = 2.0 * math.pi / self.nx
        hy = 2.0 * math.pi / self.ny
        return complex(hx * hy * np.sum(values * self.wz))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L^2 inner product <f, g> = int conj(f).g, fields shape (3,nx,ny,nz)."""
        return self.integrate(np.sum(np.conj(f) * g, axis=0))

    def resolves(self, modes) -> bool:
        kmax1 = max(abs(k[0]) for k in modes)
        kmax2 = max(abs(k[1]) for k in modes)
        kmax3 = max(abs(k[2]) for k in modes)
        return (
            self.nx >= max(4 * kmax1, 4)
            and self.ny >= max(4 * kmax2, 4)
            and self.nz >= 2 * kmax3 + 8
        )


def project_V0(field: np.ndarray, modes, quad: StripQuadrature) -> "SpectralField":
    """Project grid samples of a vector field onto span{N_k : k in modes}.

    c_k = <N_k, field> by quadrature.  Rejects grids too coarse to integrate
    the requested modes (at least 4 points per horizontal oscillation).
    """
    modes = [_check_mode(k) for k in modes]
    if not quad.resolves(modes):
        raise ValueError(
            "quadrature grid under-resolved for requested modes: need at least "
            "4 points per oscillation in x_h and 2*k3+8 Gauss nodes in z"
        )
    coeffs = {}
    for k in sorted(modes):
        coeffs[k] = quad.inner(quad.sample(k), field)
    return SpectralField(coeffs)


# ---------------------------------------------------------------------------
# spectral fields
# ---------------------------------------------------------------------------


class SpectralField:
    """Finite element of V0, u = sum_k c_k N_k, stored as {mode: coefficient}.

    Iteration order is lexicographic in (k1,k2,k3) so that sums are
    reproducible bit-for-bit.
    """

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                k = _check_mode(k)
                self.coeffs[k] = complex(c)
                if not cmath.isfinite(self.coeffs[k]):
                    raise ValueError(f"coefficient of mode {k} must be finite, got {c!r}")

    def items(self):
        return ((k, self.coeffs[k]) for k in sorted(self.coeffs))

    def modes(self):
        return sorted(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs.get(_check_mode(k), 0j)

    def __len__(self):
        return len(self.coeffs)

    def norm(self) -> float:
        """L^2 norm via Parseval over the orthonormal basis."""
        return math.sqrt(sum(abs(c) ** 2 for _, c in self.items()))

    def map(self, fn) -> "SpectralField":
        """New field with c_k -> fn(k, c_k)."""
        return SpectralField({k: fn(k, c) for k, c in self.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.items():
            out[k] = out.get(k, 0j) + c
        return SpectralField(out)

    def __sub__(self, other):
        return self + other * (-1.0)

    def __mul__(self, scalar):
        return SpectralField({k: c * scalar for k, c in self.items()})

    __rmul__ = __mul__

    def evaluate(self, x):
        """Evaluate the field at points x = (x1, x2, z)."""
        x1 = np.asarray(x[0], dtype=float)
        out = np.zeros((3,) + np.broadcast(x1, np.asarray(x[2])).shape, dtype=complex)
        for k, c in self.items():
            out += c * basis_vector(k, x)
        return out

    def profile(self, k_h, z):
        """Hat coefficient of e^{i k_h . x_h}: sum over k3 of c_k * profile."""
        z = np.asarray(z, dtype=float)
        out = np.zeros((3,) + z.shape, dtype=complex)
        k_h = (int(k_h[0]), int(k_h[1]))
        for k, c in self.items():
            if (k[0], k[1]) == k_h:
                out += c * basis_profile(k, z)
        return out

    def horizontal_modes(self):
        return sorted({(k[0], k[1]) for k in self.coeffs})

    def sobolev_norm(self, s: float) -> float:
        """H^s norm with weight (1 + |k|^2)^s, |k| Euclidean."""
        return math.sqrt(
            sum(
                (1.0 + euclidean_norm(k) ** 2) ** s * abs(c) ** 2
                for k, c in self.items()
            )
        )


def coriolis_apply(u: SpectralField) -> SpectralField:
    """L u: multiply each coefficient by i*lambda_k."""
    return u.map(lambda k, c: 1j * eigenvalue(k) * c)


def semigroup(tau: float, u: SpectralField) -> SpectralField:
    """Rotation group exp(-tau L): c_k -> exp(-i lambda_k tau) c_k.

    This is the propagator that turns filtered envelope coefficients back
    into the oscillating solution, u(t) ~ exp(-(t/eps) L) u_L(t).
    """
    return u.map(lambda k, c: np.exp(-1j * eigenvalue(k) * tau) * c)
