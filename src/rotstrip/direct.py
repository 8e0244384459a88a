"""Direct reference solver for the rotating strip, mode by horizontal mode.

The linear system decouples exactly over horizontal Fourier modes, so each
k_h owns an independent z-resolved velocity-pressure differential-algebraic
system M x' + L x + C x = g.  Discretisation: graded second-order finite
differences in z (tanh stretching toward both walls, enforced to put at
least eight nodes inside the Ekman scale), pressure on a staggered cell
grid.  M is the identity on the momentum rows.  L holds Coriolis (e3 ^ u)
and the viscous rows W^{-1} Q, where Q = kh2 W + nu Dz^H H Dz is the
dissipation form and W the node weights of the diagnostics, so the momentum
rows take out exactly the dissipation that the diagnostics report.  The top
u_h node is a half-cell momentum row,
w_N u_N' = -(Q u)_N + nu g - w_N (e3 ^ u)_N - w_N (G p)_N (the
summation-by-parts closure): the stress enters g as nu g / w_N on its two
rows, and under a stress the energy balance closes to rounding.  C holds
the rows taken fully implicitly: the divergence, the wall rows and the
pressure gradient G, chosen adjoint to the divergence (pressure then does
no work discretely).

The CN (trapezoidal) step
(M/dt + L/2 + C) x_{n+1} = (M/dt - L/2) x_n + g_{n+1/2} is made as one
midpoint solve, m = A^{-1} (M x_n / dt + g_{n+1/2} / 2) with
A = M/dt + L/2 + C.  Once x_n meets the wall and divergence rows, m's
velocity is the midpoint (u_n + u_{n+1})/2 and its pressure p_{n+1}/2, so
u_{n+1} = 2 m_u - u_n and p_{n+1} = 2 m_p.  The right-hand side is x_n
scaled elementwise, so a step makes no sparse product but Q m, for the
dissipation m^H Q m.  CN (R(inf) = -1) damps nothing, so any decay measured
after the start is physical; but a datum that violates the walls (the
eigenmodes N_k violate no-slip) would keep an undamped mismatch that costs
CN its second order.  The first step is therefore a start rule:
- with diffusion, two implicit-Euler half steps (Rannacher's damped start),
  each with the stress at its end.  A is half the implicit-Euler matrix at
  dt/2 up to the scale of the pressure, so a half step is the same solve
  with x <- m.  Its numerical dissipation and the datum's dropped wall
  values are the diagnostics' start_energy_loss;
- without diffusion, CN's own first step, which projects the datum onto the
  wall and divergence rows and damps nothing:
  x_1 = 2 m - x_0 + A^{-1} c_0, c_0 the datum's (row-scaled) wall-row and
  divergence-row residual, folded into the one solve.  Its start loss is
  0; a datum's residual on those rows shows in step 1's energy balance.

A is factorised once per |k_h|^2 shell with a banded LU (LAPACK
zgbtrf/zgbtrs) of the monolithic saddle system.  Coriolis, the Laplacian
and the divergence commute with horizontal rotations, so with u_h written
in the frame (k_h/|k_h|, k_h^perp/|k_h|) a column's system depends on k_h
only through |k_h|: the columns of a shell share the system assembled at
k_h = (|k_h|, 0), and step together as the columns of one block (one
zgbtrs call per step).  The unknowns are interleaved node by node,
[u1_i, u2_i, u3_i, p_i] with p_i on the cell [z_i, z_{i+1}]: every stencil
(second differences, the two-node divergence of a cell, the adjoint
gradient) then couples unknowns at most one node apart, so the band has
the same width (kl = ku = 4; 2 and 2 on the reduced k_h = 0 column) at
every Nz.  zgbtrf stores U with kl + ku superdiagonals to leave room for
the pivoting fill; only the rows from the highest filled one down are kept
and passed to zgbtrs (the fill reaches superdiagonal 7 of the 8 on most
shells), and every solve is the same as on the full factor.  With the
pressure block after the velocities, the divergence rows would reach O(Nz)
columns back.  Splitting the pressure would be fatal here: the 1/eps
Coriolis-pressure balance amplifies any projection error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .params import Params, _finite, check_integer
from .spectral import SpectralField, basis_profile
from .traces import BoundaryTrace


class SolverModules(NamedTuple):
    """The scipy pieces the solver uses: scipy.sparse for the assembly and
    LAPACK's banded LU pair for the factorisation and the steps."""

    sparse: Any
    zgbtrf: Any
    zgbtrs: Any


@functools.cache
def solver_modules() -> SolverModules:
    """Import the solver's scipy modules on the first call.

    scipy is the slowest import of the package, and only the direct solver
    needs it, so `import rotstrip` and the asymptotic half run without it.
    The first _ModeSystem pays for the import; a parent that forks workers
    calls this first, so that they inherit the modules."""
    import scipy.sparse
    from scipy.linalg.lapack import zgbtrf, zgbtrs

    return SolverModules(scipy.sparse, zgbtrf, zgbtrs)


# ---------------------------------------------------------------------------
# graded grid
# ---------------------------------------------------------------------------


#: graded_nodes' nodes within delta of a wall, largest tanh strength and core spacing
MIN_WALL_NODES, MAX_STRENGTH, MAX_CENTER_SPACING = 8, 30.0, 0.05


def graded_nodes(Nz: int, delta: float) -> np.ndarray:
    """Nodes in [0,1], tanh-clustered so >= MIN_WALL_NODES lie within delta
    of each wall without starving the interior; the end nodes are 0 and 1
    exactly.  Rejects hopeless (Nz, delta) pairs with the computed
    requirement instead of silently under-resolving."""
    m = MIN_WALL_NODES
    if Nz < 4 * m:
        raise ValueError(f"Nz={Nz} too small: need at least {4 * m} nodes")
    xi = np.linspace(0.0, 1.0, Nz + 1)
    probe = xi[m:m + 1]  # the bisection only compares node m: map that node alone

    def nodes(s, x=xi):
        return 0.5 * (1.0 + np.tanh(s * (2.0 * x - 1.0)) / math.tanh(s))

    if delta >= m / Nz:
        return xi  # uniform grid already resolves the layer
    lo, hi = 1e-3, MAX_STRENGTH
    if nodes(hi, probe)[0] > delta:
        raise ValueError(
            f"cannot place {m} nodes within delta={delta:.3e} of the wall "
            f"with Nz={Nz}: increase Nz (roughly Nz >= {int(m / delta ** 0.5)})"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if nodes(mid, probe)[0] > delta:
            lo = mid
        else:
            hi = mid
    out = nodes(hi)
    out[0], out[-1] = 0.0, 1.0  # the map may miss the walls by about 1e-16
    spacing = float(np.max(np.diff(out)))
    if spacing > MAX_CENTER_SPACING:
        # clustering this strong leaves the core under-resolved
        need = int(math.ceil(Nz * spacing / MAX_CENTER_SPACING))
        raise ValueError(
            f"grading for delta={delta:.3e} leaves a core spacing of {spacing:.3e} "
            f"(> {MAX_CENTER_SPACING}); increase Nz to roughly {need}"
        )
    return out


def node_weights(z: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights on the (nonuniform) nodes."""
    w = np.zeros_like(z)
    h = np.diff(z)
    w[0] = h[0] / 2
    w[-1] = h[-1] / 2
    w[1:-1] = (h[:-1] + h[1:]) / 2
    return w


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class ModeTrajectory:
    """Time history of one horizontal mode on its z grid."""

    k_h: tuple
    z: np.ndarray
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (u: (Nz+1, 3), p: (Nz,))
    diagnostics: list = field(default_factory=list)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = node_weights(self.z)

    def l2_norm(self, index: int) -> float:
        u, _ = self.snapshots[index]
        return l2_norm(u, self.weights)

    def mode_coefficient(self, k) -> np.ndarray:
        """<N_k, u(t)> over saved snapshots (k must share this k_h)."""
        k = tuple(int(c) for c in k)
        if (k[0], k[1]) != tuple(self.k_h):
            raise ValueError(f"mode {k} does not belong to column k_h={self.k_h}")
        prof = basis_profile(k, self.z)  # (3, Nz+1)
        w = self.weights
        out = np.empty(len(self.snapshots), dtype=complex)
        for i, (u, _) in enumerate(self.snapshots):
            out[i] = 4.0 * math.pi ** 2 * np.sum(w * np.sum(np.conj(prof) * u.T, axis=0))
        return out


def l2_norm(u: np.ndarray, weights: np.ndarray) -> float:
    """L2(omega) norm of one mode's nodal profile (Parseval in x_h)."""
    return 2.0 * math.pi * math.sqrt(float(np.sum(weights * np.sum(np.abs(u) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# per-mode system assembly
# ---------------------------------------------------------------------------


class _ModeSystem:
    """The DAE of one real k_h != 0 (full) or k_h = 0 (reduced) column, with
    its midpoint solve.

    Unknowns are interleaved node by node: [u1_i, u2_i, u3_i, p_i] with p_i
    on the cell [z_i, z_{i+1}] (the top node has no cell), and [u1_i, u2_i]
    on the reduced column.  The saddle matrix is then banded with a width
    independent of Nz and is factorised once with LAPACK zgbtrf.  States
    are (n, ncol) blocks, one column per horizontal mode stepped with this
    system; every diagnostic returns one value per column."""

    def __init__(self, k_h, params: Params, z: np.ndarray, dt: float,
                 diffusion: bool = True):
        self.k_h = (float(k_h[0]), float(k_h[1]))
        self.kh2 = self.k_h[0] * self.k_h[0] + self.k_h[1] * self.k_h[1]
        self.params = params
        self.z = z
        self.dt = dt
        self.diffusion = diffusion
        self.Nz = len(z) - 1
        self.wn = node_weights(z)
        self.reduced = self.kh2 == 0.0
        self.ncomp = 2 if self.reduced else 3
        self.stride = 2 if self.reduced else 4
        self.n = self.stride * (self.Nz + 1) - (self.stride - self.ncomp)
        # (Nz+1, ncomp) positions of the velocity entries
        self.u_index = self._iu(np.arange(self.Nz + 1)[:, None], np.arange(self.ncomp))
        self._lib = solver_modules()
        self._assemble()

    def _iu(self, i, c):
        return self.stride * i + c

    def _assemble(self):
        """Form the column's DAE M x' + L x + C x = g as COO triplets and
        factorise A = M/dt + L/2 + C.  M is the identity on the momentum
        rows; L holds Coriolis and the viscous rows W^{-1} Q; C holds the
        fully implicit rows: the pressure gradient, the divergence and the
        wall rows."""
        k1, k2 = self.k_h
        Nz, n, dt, iu, stride = self.Nz, self.n, self.dt, self._iu, self.stride
        sp = self._lib.sparse
        h = np.diff(self.z)
        u = self.u_index
        w_full = np.zeros(n)
        w_full[u] = self.wn[:, None]

        def coo(*parts):
            """The (rows, cols, vals) of the parts' entries, joined."""
            return [np.concatenate([np.ravel(a) for a in arrays])
                    for arrays in zip(*(np.broadcast_arrays(*p) for p in parts))]

        def csr(*terms):
            """The n x n sum of f T over the (T, f) terms, f a scalar or one
            factor per entry of the triplet T."""
            r, c, v = zip(*((T[0], T[1], f * T[2]) for T, f in terms))
            return sp.csr_matrix((np.concatenate(v).astype(complex),
                                  (np.concatenate(r), np.concatenate(c))), shape=(n, n))

        # the dissipation form of the diagnostics, Q = kh2 W + nu Dz^H H Dz
        # (zero without viscosity): per component, kh2 w_i + nu/h_{i-1} +
        # nu/h_i on the diagonal and -nu/h_i next to it
        inv = self.params.nu / h
        diag = self.kh2 * self.wn
        diag[:-1] += inv
        diag[1:] += inv
        Q = coo((u, u, diag[:, None]), (u[:-1], u[1:], -inv[:, None]),
                (u[1:], u[:-1], -inv[:, None]))
        if not self.diffusion:
            Q = [a[:0] for a in Q]

        # every velocity row holds a momentum equation but the wall rows:
        # u3 = 0 at both walls and, with viscosity, no-slip on u_h at the
        # bottom; the top u_h rows are half-cell momentum rows, which take
        # the stress on their right-hand side
        top = iu(Nz, np.arange(2))
        self.stress_rows = slice(top[0], top[0] + 2)
        is_momentum = np.zeros(n, dtype=bool)
        is_momentum[u] = True
        walls = [] if self.reduced else [iu(0, 2), iu(Nz, 2)]
        if self.diffusion:
            walls += [iu(0, 0), iu(0, 1)]
        self.walls = np.array(walls, dtype=int)
        is_momentum[self.walls] = False
        mom = np.flatnonzero(is_momentum)
        M = coo((mom, mom, 1.0))

        # Coriolis e3 ^ u = (-u2, u1, 0) and the viscous rows W^{-1} Q
        eps = self.params.epsilon
        r0, r1 = mom[mom % stride == 0], mom[mom % stride == 1]
        keep = is_momentum[Q[0]]
        rows = Q[0][keep]
        L = coo((r0, r0 + 1, -1.0 / eps), (r1, r1 - 1, 1.0 / eps),
                (rows, Q[1][keep], Q[2][keep] / w_full[rows]))

        C = [(self.walls, self.walls, 1.0)]
        self.D = None
        if not self.reduced:
            # divergence D: cells x unknowns, the average of u_h and the
            # difference of u3 over each cell
            j = np.arange(Nz)
            d_cells = np.tile(j, 6)
            d_cols = np.concatenate([iu(j, 0), iu(j + 1, 0), iu(j, 1), iu(j + 1, 1),
                                     iu(j, 2), iu(j + 1, 2)])
            d_vals = np.concatenate([np.full(2 * Nz, 0.5j * k1), np.full(2 * Nz, 0.5j * k2),
                                     -1.0 / h, 1.0 / h])
            self.D = sp.csr_matrix((d_vals, (d_cells, d_cols)), shape=(Nz, n))
            # pressure gradient adjoint to the divergence:
            # G = -W_n^{-1} D^H W_c, so the pressure does no work discretely;
            # it enters the momentum rows only
            keep = is_momentum[d_cols]
            g_vals = -np.conj(d_vals) * h[d_cells] / w_full[d_cols]
            C += [(d_cols[keep], iu(d_cells[keep], 3), g_vals[keep]),
                  (iu(d_cells, 3), d_cols, d_vals)]
        C = coo(*C)

        # scale each row by a power of two (exact) to bring its largest entry
        # into [0.5, 1): momentum rows carry 1/dt, divergence rows 1/h, and
        # partial pivoting within the band needs comparable rows, else the
        # pressure loses about four digits at small dt
        A = csr((M, 1.0 / dt), (L, 0.5), (C, 1.0))
        scale = np.ldexp(1.0, -np.frexp(abs(A).max(axis=1).toarray().ravel())[1])
        A = A.tocoo()
        kl = self.kl = int(np.max(A.row - A.col))
        ku = self.ku = int(np.max(A.col - A.row))
        ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
        ab[kl + ku + A.row - A.col, A.col] = A.data * scale[A.row]
        lu, self.piv, info = self._lib.zgbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:  # singular saddle system: should not occur for nu > 0
            detail = ("Factor is exactly singular" if info > 0
                      else f"illegal value in argument {-info} of zgbtrf")
            raise RuntimeError(
                f"saddle system factorisation failed for k_h={self.k_h} "
                f"(Nz={self.Nz}, dt={self.dt}, eps={self.params.epsilon}, "
                f"nu={self.params.nu}, diffusion={self.diffusion}): {detail}")
        # zgbtrf stores U with kl + ku superdiagonals (row kl + ku - d holds
        # superdiagonal d) to leave room for the pivoting fill, which may
        # stop short of that.  zgbtrs reads kl + ku_s superdiagonals above
        # the diagonal and the kl multipliers of L below it, so keep the
        # rows from the highest filled superdiagonal (or the kl-th,
        # whichever is higher) down.  The rows dropped are exact zeros:
        # every solve equals the one on the full factor.
        filled = np.flatnonzero(np.any(lu[:kl + ku] != 0, axis=1))
        fill = kl + ku - int(filled[0]) if len(filled) else 0
        self.ku_s = max(0, fill - kl)
        self.lu = np.asfortranarray(lu[ku - self.ku_s:])

        # the midpoint solve's right-hand side M x / dt + g / 2, row-scaled:
        # x scaled elementwise, plus nu g / (2 w_N) on the stress rows
        self.row_scale = scale[:, None]
        self.rhs_scale = (scale * is_momentum / dt)[:, None]
        self.stress_scale = (0.5 * self.params.nu / self.wn[-1]) * self.row_scale[self.stress_rows]
        # 1 on the velocity entries, 0 on the pressures
        self.is_velocity = np.zeros((n, 1))
        self.is_velocity[u] = 1.0
        # energy = x^H diag(energy_weights) x and the dissipation m^H Q m
        # (4 pi^2 from Parseval in x_h), zero on p
        self.energy_weights = 2.0 * math.pi ** 2 * w_full[:, None]
        self.Q = csr((Q, 4.0 * math.pi ** 2))

    def state(self, u: np.ndarray) -> np.ndarray:
        """Block of the velocities u (ncol, Nz+1, 3) with zero pressure."""
        x = np.zeros((self.n, len(u)), dtype=complex, order="F")
        x.T[:, self.u_index] = u[:, :, : self.ncomp]
        return x

    def velocity(self, x: np.ndarray) -> np.ndarray:
        """(ncol, Nz+1, 3) velocities of a block."""
        u = np.take(x.T, self.u_index, axis=1)
        if self.reduced:
            u = np.concatenate([u, np.zeros_like(u[:, :, :1])], axis=2)
        return u

    def pressure(self, x: np.ndarray) -> np.ndarray:
        """(ncol, Nz) cell pressures of a block."""
        if self.reduced:
            return np.zeros((x.shape[1], self.Nz), dtype=complex)
        return x.T[:, 3::4].copy()

    def midpoint(self, x: np.ndarray, g: np.ndarray | None,
                 c: np.ndarray | None = None) -> np.ndarray:
        """The one solve, m = A^{-1} (M x / dt + g / 2 + c / 2), of the block
        x under the stress g (2, ncol), or none; c is a row-scaled extra
        right-hand side (the datum's residual of CN's start)."""
        b = self.rhs_scale * x
        if g is not None:
            b[self.stress_rows] += self.stress_scale * g
        if c is not None:
            b += 0.5 * c
        m, _ = self._lib.zgbtrs(self.lu, self.kl, self.ku_s, b, self.piv, overwrite_b=1)
        return m

    def step(self, x: np.ndarray, g: np.ndarray | None,
             c: np.ndarray | None = None) -> tuple:
        """The CN step from x under the midpoint stress g (c as in
        midpoint): the new block, the step's dissipation and the stress's
        work."""
        m = self.midpoint(x, g, c)
        diss, work = self.dissipation(m), self.work(m, g)
        m *= 2.0  # u_{n+1} = 2 m_u - u_n, p_{n+1} = 2 m_p
        m -= self.is_velocity * x
        return m, diss, work

    def start(self, x: np.ndarray, stress) -> tuple:
        """The first step from the datum x, stress(t) giving the stress
        (2, ncol) at t, or None: the new block, the step's dissipation and
        work, and the energy the start took out beyond them (the module's
        start rule)."""
        if not self.diffusion:  # then there is no stress and no dissipation
            return *self.step(x, None, self.residual(x)), np.zeros(x.shape[1])
        # two implicit-Euler half steps; a half step's solution has the
        # velocity of m and the pressure 2 m_p
        diss = work = loss = 0.0
        for t in (0.5 * self.dt, self.dt):
            g = stress(t)
            m = self.midpoint(x, g)
            diss = diss + 0.5 * self.dissipation(m)
            work = work + 0.5 * self.work(m, g)
            loss = loss + self.energy(m - x)
            x = m
        return (2.0 - self.is_velocity) * x, diss, work, loss

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The row-scaled residual of the block x on the wall and divergence
        rows (C x for a block with zero pressure)."""
        c = np.zeros_like(x)
        c[self.walls] = x[self.walls]
        if self.D is not None:
            c[3::4] = self.D @ x
        return self.row_scale * c

    # The diagnostics reduce over axis 0 with np.vecdot, which conjugates its
    # first argument: on a one-column block it costs what np.vdot does.

    def energy(self, x: np.ndarray) -> np.ndarray:
        """Kinetic energy of the block x."""
        return np.vecdot(x, self.energy_weights * x, axis=0).real

    def dissipation(self, m: np.ndarray) -> np.ndarray:
        """Viscous dissipation m^H Q m of the block m."""
        return np.vecdot(m, self.Q @ m, axis=0).real

    def work(self, m: np.ndarray, g: np.ndarray | None) -> np.ndarray:
        """Rate of work of the surface stress g on the block m."""
        if g is None:
            return np.zeros(m.shape[1])
        return (4.0 * math.pi ** 2 * self.params.nu) * np.vecdot(
            m[self.stress_rows], g, axis=0).real

    def divergence(self, x: np.ndarray) -> np.ndarray:
        """max |div u| over the cells, per column."""
        if self.reduced:
            return np.zeros(x.shape[1])
        return np.max(np.abs(self.D @ x), axis=0)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def solve_direct(gamma: SpectralField, sigma, params: Params, t_end: float,
                 dt: float | None = None, Nz: int = 256, grading: np.ndarray | None = None,
                 save_every: int = 10, diffusion: bool = True) -> dict:
    """Integrate the full linear system; returns {k_h: ModeTrajectory}.

    gamma supplies the initial data (finite eigenmode sum), sigma the surface
    stress table (side-1 BoundaryTrace or None; it needs diffusion, which
    carries the stress condition).  Resolution preconditions are enforced up
    front: 0 < dt <= eps/10, and the grid built when grading is None has
    MIN_WALL_NODES nodes inside sqrt(eps nu) of each wall.  A given grading
    is used as it is, without that rule: it must be Nz + 1 finite nodes in
    one dimension, strictly increasing from exactly 0 to exactly 1.  A
    t_end >= 0 that is not a whole number of steps is reached exactly by
    shortening dt to t_end / ceil(t_end / dt).
    Every save_every-th step is saved, and the last one; save_every must be
    a positive integer: 0 would divide by zero, and a negative or fractional
    interval would save only the last step, silently.  An input with no
    column (no mode in gamma, no entry in sigma) raises.
    """
    check_integer("save_every", save_every, 1)
    if dt is None:
        dt = params.epsilon / 10.0
    if not dt > 0.0:
        raise ValueError(f"dt={dt} must be positive")
    if dt > params.epsilon / 10.0 + 1e-15:
        raise ValueError(
            f"dt={dt} too coarse for the rotation period: need dt <= eps/10 = "
            f"{params.epsilon / 10.0:.3e}")
    t_end = _finite("t_end", t_end, 0.0)
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * dt:
        nsteps = int(math.ceil(t_end / dt))
        dt = t_end / nsteps
    if grading is None:
        z = graded_nodes(Nz, params.layer_scale if diffusion else 1.0)
    else:
        z = np.asarray(grading, dtype=float)
        if z.shape != (Nz + 1,):
            raise ValueError(f"grading has shape {z.shape}: need Nz + 1 = {Nz + 1} nodes "
                             "in one dimension")
        if not np.all(np.isfinite(z)):
            raise ValueError("grading has a node that is not a finite number")
        if not np.all(np.diff(z) > 0.0):
            raise ValueError("grading must be strictly increasing")
        if z[0] != 0.0 or z[-1] != 1.0:
            raise ValueError(f"grading runs from {float(z[0])!r} to {float(z[-1])!r}: it "
                             "must run from exactly 0 to exactly 1, the walls")

    stress_table = {}
    if sigma is not None:
        if not isinstance(sigma, BoundaryTrace):
            raise ValueError(f"sigma must be a BoundaryTrace or None, not {type(sigma).__name__}")
        if sigma.side != 1:
            raise ValueError("stress acts on the surface (side 1)")
        for (mu, k_h), v in sigma.entries():
            stress_table.setdefault(tuple(k_h), []).append((float(mu), np.asarray(v, dtype=complex)))
    if stress_table and not diffusion:
        raise ValueError(
            f"surface stress on {len(stress_table)} column(s) needs diffusion=True: "
            "without viscosity there is no stress condition to carry it")

    columns = sorted(set(gamma.horizontal_modes()) | set(stress_table))
    if not columns:
        raise ValueError("no column to solve: gamma and sigma are both empty")
    out = {k_h: ModeTrajectory(k_h=k_h, z=z) for k_h in columns}
    shells = {}
    for k_h in columns:
        shells.setdefault(k_h[0] * k_h[0] + k_h[1] * k_h[1], []).append(k_h)
    for kh2, cols in shells.items():
        _solve_shell(kh2, cols, [out[k] for k in cols], gamma, stress_table,
                     params, z, dt, nsteps, save_every, diffusion)
    return out


def _solve_shell(kh2, cols, trajs, gamma, stress_table, params, z, dt, nsteps,
                 save_every, diffusion):
    """Step the columns of one |k_h|^2 shell as one block in the frame
    (k_h/|k_h|, k_h^perp/|k_h|), in which they share one system."""
    r = math.sqrt(kh2)
    sys_ = _ModeSystem((r, 0.0), params, z, dt, diffusion=diffusion)
    ncol = len(cols)
    # R[j] takes column j's frame coordinates to its physical ones
    R = np.zeros((ncol, 3, 3))
    R[:, 2, 2] = 1.0
    R[:, :2, :2] = (np.array([[[k[0], -k[1]], [k[1], k[0]]] for k in cols]) / r if r
                    else np.eye(2))

    def on_floats(A):
        """A (ncol, 3, 3) acting alike on the real and imaginary parts: for
        a stack u (ncol, Nz+1, 3), u @ A is (u.view(float) @ on_floats(A))
        .view(complex), a real product; a complex matmul with so small a
        factor costs several times more."""
        M = np.zeros((ncol, 3, 2, 3, 2))
        M[:, :, 0, :, 0] = M[:, :, 1, :, 1] = A
        return M.reshape(ncol, 6, 6)

    # a stack turns row by row: u @ R to the frame, u @ R^T back
    to_frame, to_physical = on_floats(R), on_floats(R.transpose(0, 2, 1))
    u0 = np.ascontiguousarray([gamma.profile(k, z).T for k in cols], dtype=complex)
    x = sys_.state((u0.view(float) @ to_frame).view(complex))

    # the stress in the frame, summed per frequency: stress(t) = phases @ amps
    entries = [(mu, j, v) for j, k in enumerate(cols) for mu, v in stress_table.get(k, [])]
    mus = np.array(sorted({mu for mu, _, _ in entries}))
    amps = None
    if entries:
        amps = np.zeros((len(mus), 2, ncol), dtype=complex)
        for mu, j, v in entries:
            amps[np.searchsorted(mus, mu), :, j] += params.beta * (R[j, :2, :2].T @ v)
        amps = amps.reshape(len(mus), 2 * ncol)

    def stress(t):
        """The stress (2, ncol) in the frame at time t, or None."""
        if amps is None:
            return None
        return (np.exp(1j * mus * t / params.epsilon) @ amps).reshape(2, ncol)

    def record(t, x, energy, energy_before, diss, work, lost):
        """Save the block x at time t; energy_before is the energy one step
        earlier, diss and work are the step's, lost the energy its start
        took out beyond them (zero but on the first step)."""
        u = (sys_.velocity(x).view(float) @ to_physical).view(complex)
        p = sys_.pressure(x)
        # the scale is the physical velocity's: |u_h| components are not
        # invariant under the rotation
        scales = np.abs(u.reshape(ncol, -1)).max(axis=1)
        columns = zip(trajs, u, p, sys_.divergence(x).tolist(), scales.tolist(),
                      *(a.tolist() for a in (energy, energy_before, E0, diss, work, lost,
                                             net, loss)))
        for traj, u_j, p_j, div, scale, e, e_before, e0, d, w, lo, nt, ls in columns:
            traj.times.append(t)
            traj.snapshots.append((u_j, p_j))
            # the cumulative residual, the sum over the steps of
            # (E_n - E_{n-1}) + dt (diss_n - work_n) and the start loss,
            # telescopes
            traj.diagnostics.append({
                "t": t,
                "energy": e,
                "divergence_residual": div / max(1.0, scale),
                "energy_balance_residual": (e - e_before + lo) / dt + d - w,
                "dissipation": d,
                "start_energy_loss": ls,
                "cumulative_energy_residual": e - e0 + ls + dt * nt,
            })

    E0 = sys_.energy(x)
    zero = np.zeros(ncol)
    net = np.zeros(ncol)  # sum over the steps of dissipation minus work
    loss = zero  # the start's energy loss
    record(0.0, x, E0, E0, zero, zero, zero)
    for nstep in range(1, nsteps + 1):
        if nstep == 1:
            x_new, diss, work, loss = sys_.start(x, stress)
        else:
            x_new, diss, work = sys_.step(x, stress((nstep - 0.5) * dt))
        net += diss - work
        # the energy itself is needed only at the saves
        if nstep % save_every == 0 or nstep == nsteps:
            record(nstep * dt, x_new, sys_.energy(x_new), sys_.energy(x), diss, work,
                   loss if nstep == 1 else zero)
        x = x_new


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


@dataclass
class DecayFit:
    rate: complex
    residual: float
    flagged: bool
    reasons: tuple
    npoints: int


#: fit_decay flags a window whose log-amplitude misses its fitted line by more
FIT_RESIDUAL_TOL = 0.1


def fit_decay(traj: ModeTrajectory, window: tuple, mode) -> DecayFit:
    """Least-squares exponential fit of the projected mode amplitude.

    Fits log c(t) = log c0 - rate * t over the window (complex rate: decay +
    oscillation).  Windows with poor exponential fit, or shorter than one
    slow e-fold of the fitted decay, are flagged rather than trusted."""
    t = np.asarray(traj.times)
    c = traj.mode_coefficient(mode)
    t0, t1 = window
    m = (t >= t0) & (t <= t1)
    if np.count_nonzero(m) < 3:
        raise ValueError("window contains fewer than 3 samples")
    tm = t[m]
    cm = c[m]
    if np.any(np.abs(cm) <= 0.0):
        raise ValueError("amplitude vanished inside the window")
    logc = np.log(np.abs(cm)) + 1j * np.unwrap(np.angle(cm))
    A = np.column_stack([np.ones_like(tm), tm])
    coef, *_ = np.linalg.lstsq(A, logc, rcond=None)
    rate = -coef[1]
    fitres = float(np.max(np.abs(A @ coef - logc)))
    reasons = []
    if fitres > FIT_RESIDUAL_TOL:
        reasons.append("non-exponential window")
    if rate.real > 0 and (t1 - t0) * rate.real < 1.0:
        reasons.append("window shorter than one slow e-fold")
    return DecayFit(rate=complex(rate), residual=fitres, flagged=bool(reasons),
                    reasons=tuple(reasons), npoints=int(np.count_nonzero(m)))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def snapshot_csv(traj: ModeTrajectory, path):
    """Line-oriented dump: t, z, Re/Im of u1, u2, u3, p (cell-interpolated)."""
    with open(path, "w") as f:
        f.write("t,z,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,re_p,im_p\n")
        zc = 0.5 * (traj.z[:-1] + traj.z[1:])
        for t, (u, p) in zip(traj.times, traj.snapshots):
            pn = np.interp(traj.z, zc, p.real) + 1j * np.interp(traj.z, zc, p.imag) \
                if len(p) else np.zeros_like(traj.z, dtype=complex)
            for i, zz in enumerate(traj.z):
                f.write(f"{t:.12g},{zz:.12g},"
                        f"{u[i, 0].real:.12g},{u[i, 0].imag:.12g},"
                        f"{u[i, 1].real:.12g},{u[i, 1].imag:.12g},"
                        f"{u[i, 2].real:.12g},{u[i, 2].imag:.12g},"
                        f"{pn[i].real:.12g},{pn[i].imag:.12g}\n")


def diagnostics_csv(traj: ModeTrajectory, path):
    keys = sorted({k for row in traj.diagnostics for k in row})
    with open(path, "w") as f:
        f.write(",".join(keys) + "\n")
        for row in traj.diagnostics:
            f.write(",".join(f"{row.get(k, 0.0):.12g}" for k in keys) + "\n")
