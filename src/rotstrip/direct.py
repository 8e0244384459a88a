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
scaled elementwise and the dissipation m^H Q m is |R m|^2, R^H R = Q with R
two bands (on the velocities and on their differences one node up), so a
step makes no matrix product beside the solve.  CN (R(inf) = -1) damps
nothing, so any decay measured after the start is physical; but a datum
that violates the walls (the eigenmodes N_k violate no-slip) would keep an
undamped mismatch that costs CN its second order.  The first step is therefore a start rule:
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
zgbtrf/zgbtrs) of the monolithic saddle system, its band filled straight
from the row-scaled triplets of M/dt, L/2 and C.  Coriolis, the Laplacian
and the divergence commute with horizontal rotations, so with u_h written
in the frame (k_h/|k_h|, k_h^perp/|k_h|) a column's system depends on k_h
only through |k_h|: the columns of a shell share the system assembled at
k_h = (|k_h|, 0), and _turn takes the data and stresses into each column's
frame and the saved velocities back.  The unknowns are interleaved node by
node, [u1_i, u2_i, u3_i, p_i] with p_i on the cell [z_i, z_{i+1}]: every
stencil (second differences, the two-node divergence of a cell, the
adjoint gradient) then couples unknowns at most one node apart, so the
band has the same width (kl = ku = 4; 2 and 2 on the reduced k_h = 0
column) at every Nz.  zgbtrs gets only the rows of zgbtrf's band factor
that the pivoting fill reaches (7 of the 8 superdiagonals on most shells),
and every solve equals the one on the full factor.  With the pressure block
after the velocities, the divergence rows would reach O(Nz) columns back.
Splitting the pressure would be fatal here: the 1/eps Coriolis-pressure
balance amplifies any projection error.

A shell's system is linear, so each column's trajectory is a combination
of the shell's responses to a basis of its inputs: each column with a
nonzero datum, and one unit stress e^{i mu t/eps} per (frequency mu, u_h
component).  A shell steps one block X, one zgbtrs call per step, whose
column j is X @ coef[:, j]: the basis when it is smaller,
(#datum columns) + 2 (#frequencies) < ncol, with coef the (nb, ncol)
matrix of datum indicators and frame-rotated stress amplitudes (exact
linear algebra, with no rank decision); else the columns themselves, with
coef the identity.  Every diagnostic of X is an nb x nb Gram form: its
energy, the start's loss, and a step's dissipation and work of the
midpoints, which the shell sums into one running Gram N.  Column j's
Re(coef_j^H N coef_j) is linear in N, so the Grams, as the columns, are
expanded with coef only at the saves, all of a save's in one product.  The
block's stress at a step is its row of one table of phases e^{i mu t/eps}
(at the start's dt/2 and dt, then at each midpoint) times its amplitudes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .params import Params, _finite, check_integer
from .spectral import SpectralField, basis_profile
from .traces import BoundaryTrace


class SolverModules(NamedTuple):
    """LAPACK's banded LU pair, for the factorisation and the steps: the
    only scipy the solver uses."""

    zgbtrf: Any
    zgbtrs: Any


@functools.cache
def solver_modules() -> SolverModules:
    """Import LAPACK's zgbtrf and zgbtrs from scipy on the first call.

    scipy is the slowest import of the package, and only the direct solver
    needs it, so `import rotstrip` and the asymptotic half run without it.
    The first _ModeSystem pays for the import; a parent that forks workers
    calls this first, so that they inherit the modules."""
    from scipy.linalg.lapack import zgbtrf, zgbtrs

    return SolverModules(zgbtrf, zgbtrs)


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
        # one dot product per snapshot: stacking them would copy them all
        weighted = (self.weights * basis_profile(k, self.z)).T.copy()
        return (4.0 * math.pi ** 2) * np.array([np.vdot(weighted, u) for u, _ in self.snapshots])


def l2_norm(u: np.ndarray, weights: np.ndarray) -> float:
    """L2(omega) norm of one mode's nodal profile (Parseval in x_h)."""
    return 2.0 * math.pi * math.sqrt(float(np.sum(weights * np.sum(np.abs(u) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# per-mode system assembly
# ---------------------------------------------------------------------------


def _band(rows, cols, vals, n):
    """LAPACK's band of the n x n matrix with the complex entries vals at
    (rows, cols), summed in their order where they meet, each row scaled by
    the power of two (exact) that brings its largest entry into [0.5, 1):
    (ab, kl, ku, scale), with kl rows above the matrix's kl + ku + 1 for
    zgbtrf's fill.  Explicit zeros count in kl and ku."""
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    at = (kl + ku + rows - cols, cols)
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)
    np.add.at(ab, at, vals)
    largest = np.zeros(n)
    np.maximum.at(largest, rows, np.abs(ab[at]))
    scale = np.ldexp(1.0, -np.frexp(largest)[1])
    ab[at] *= scale[rows]
    return ab, kl, ku, scale


class _ModeSystem:
    """The DAE of one real k_h != 0 (full) or k_h = 0 (reduced) column, with
    its midpoint solve.

    Unknowns are interleaved node by node: [u1_i, u2_i, u3_i, p_i] with p_i
    on the cell [z_i, z_{i+1}] (the top node has no cell), and [u1_i, u2_i]
    on the reduced column.  The saddle matrix is then banded with a width
    independent of Nz and is factorised once with LAPACK zgbtrf.  States
    are (n, nb) blocks, the columns of the horizontal modes stepped with
    this system or a basis of their inputs; every diagnostic returns the
    block's nb x nb Gram form, which columns expands into the modes'
    values."""

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
        h = np.diff(self.z)
        u = self.u_index
        w_full = np.zeros(n)
        w_full[u] = self.wn[:, None]

        def coo(*parts):
            """The (rows, cols, vals) of the parts' entries, joined."""
            return [np.concatenate([np.ravel(a) for a in arrays])
                    for arrays in zip(*(np.broadcast_arrays(*p) for p in parts))]

        # the dissipation form of the viscous rows, Q = kh2 W + nu Dz^H H Dz
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
        if not self.reduced:
            # divergence D: cells x unknowns, the average of u_h and the
            # difference of u3 over each cell.  Six stencil bands, in
            # ascending column order: u1, u2, u3 at node j, then at j + 1
            # (offsets from u1_j), with their coefficients on the cells
            self.div_offsets = (0, 1, 2, stride, stride + 1, stride + 2)
            ah1, ah2 = np.full(Nz, 0.5j * k1), np.full(Nz, 0.5j * k2)
            self.div_coef = np.stack([ah1, ah2, -1.0 / h, ah1, ah2, 1.0 / h])
            j = np.arange(Nz)
            d_cells = np.tile(j, 6)
            d_cols = np.concatenate([iu(j, 0) + o for o in self.div_offsets])
            d_vals = self.div_coef.ravel()
            # pressure gradient adjoint to the divergence:
            # G = -W_n^{-1} D^H W_c, so the pressure does no work discretely;
            # it enters the momentum rows only
            keep = is_momentum[d_cols]
            g_vals = -np.conj(d_vals) * h[d_cells] / w_full[d_cols]
            C += [(d_cols[keep], iu(d_cells[keep], 3), g_vals[keep]),
                  (iu(d_cells, 3), d_cols, d_vals)]
        C = coo(*C)

        # A's band from the scaled triplets.  Each row is scaled by a power
        # of two: momentum rows carry 1/dt, divergence rows 1/h, and partial
        # pivoting within the band needs comparable rows, else the pressure
        # loses about four digits at small dt.  Only a momentum row's
        # diagonal takes two entries (M's and Q's), and a sum of two does
        # not depend on their order
        r, c, v = (np.concatenate(a) for a in zip(
            *((T[0], T[1], f * T[2]) for T, f in ((M, 1.0 / dt), (L, 0.5), (C, 1.0)))))
        ab, kl, ku, scale = _band(r, c, v.astype(complex), n)
        self.kl, self.ku = kl, ku
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
        # x scaled elementwise (by complex factors, twice as fast on a
        # complex block as real ones), plus nu g / (2 w_N) on the stress rows
        self.row_scale = scale[:, None]
        self.rhs_scale = (scale * is_momentum / dt)[:, None].astype(complex)
        self.stress_scale = (0.5 * self.params.nu / self.wn[-1]) * self.row_scale[self.stress_rows]
        self.is_velocity = np.zeros((n, 1), dtype=complex)  # 1 on the velocities, 0 on p
        self.is_velocity[u] = 1.0
        # energy x^H diag(energy_weights) x and dissipation |R m|^2 (4 pi^2
        # from Parseval), R 2 pi sqrt(kh2 w_i) on each velocity (root) and
        # 2 pi sqrt(nu/h_i) on its difference one node up (root_up); 0 on p
        self.energy_weights = 2.0 * math.pi ** 2 * w_full[:, None]
        self.root, self.root_up = np.zeros((n, 1), complex), np.zeros((n - stride, 1), complex)
        self.root[u, 0] = 2.0 * math.pi * np.sqrt(self.kh2 * self.wn)[:, None]
        self.root_up[u[:-1], 0] = 2.0 * math.pi * np.sqrt(inv)[:, None]

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

    def step(self, x: np.ndarray, g: np.ndarray | None, c: np.ndarray | None = None) -> tuple:
        """The CN step from x under the midpoint stress g (c as in
        midpoint): the new block, the step's dissipation and the stress's
        work, as forms."""
        m = self.midpoint(x, g, c)
        diss, work = self.dissipation(m), self.work(m, g)
        m *= 2.0  # u_{n+1} = 2 m_u - u_n, p_{n+1} = 2 m_p
        m -= self.is_velocity * x
        return m, diss, work

    def start(self, x: np.ndarray, g_half, g_end) -> tuple:
        """The first step from the datum x under the stresses (2, nb) at
        dt/2 and at dt, or None: the new block, and the step's dissipation,
        work and the energy the start took out beyond them (the module's
        start rule), as forms."""
        if not self.diffusion:  # then there is no stress and no dissipation
            return (*self.step(x, None, self.residual(x)), 0.0)
        # two implicit-Euler half steps, each with the stress at its end; a
        # half step's solution has the velocity of m and the pressure 2 m_p
        diss = work = loss = 0.0
        for g in (g_half, g_end):
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
        if not self.reduced:
            c[3::4] = self._divergence(x)
        return self.row_scale * c

    def _divergence(self, x: np.ndarray) -> np.ndarray:
        """D x, the (Nz, nb) divergence of the block x over the cells,
        summed over the stencil bands in their column order (on the
        transposes, contiguous on the Fortran-ordered blocks)."""
        d = np.zeros((x.shape[1], self.Nz), dtype=complex)
        for o, a in zip(self.div_offsets, self.div_coef):
            d += a * x.T[:, o:o + self.stride * self.Nz:self.stride]
        return d.T

    # A form is the block's nb x nb Gram a^H b, which the shell sums over the
    # steps and expands into the columns block @ coef only at the saves
    # (columns).  The Gram reduces the rows with np.vecdot, which conjugates
    # its first argument: up to nb = 4 it costs less than a.conj().T @ b,
    # and reducing the last axis of the transposes (contiguous on the
    # Fortran-ordered blocks) less than axis=0.  The dissipation is |R m|^2
    # on Q's square-root bands.

    @staticmethod
    def _form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The Gram a^H b of the blocks a and b."""
        return np.vecdot(a.T[:, None], b.T)

    @staticmethod
    def columns(forms: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """The values Re(coef_j^H form coef_j) of the columns block @ coef,
        for each Gram form of the stack forms (..., nb, nb): (..., ncol)."""
        return np.vecdot(coef, forms @ coef, axis=-2).real

    def energy(self, x: np.ndarray) -> np.ndarray:
        """Kinetic energy of the block x."""
        return self._form(x, self.energy_weights * x)

    def dissipation(self, m: np.ndarray):
        """Viscous dissipation |R m|^2 = m^H Q m of the block m, 0.0 inviscid."""
        if not self.diffusion:
            return 0.0
        a, d = self.root * m, m[self.stride:] - m[:-self.stride]
        d *= self.root_up
        return self._form(a, a) + self._form(d, d)

    def work(self, m: np.ndarray, g: np.ndarray | None):
        """Rate of work of the surface stress g on the block m, 0.0 under none."""
        if g is None:
            return 0.0
        return (4.0 * math.pi ** 2 * self.params.nu) * self._form(m[self.stress_rows], g)

    def divergence(self, x: np.ndarray) -> np.ndarray:
        """max |div u| over the cells, per column."""
        if self.reduced:
            return np.zeros(x.shape[1])
        return np.max(np.abs(self._divergence(x)), axis=0)


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
    interval would save only the last step, silently.  Nz must be an
    integer (a bool is not one).  An input with no column (no mode in gamma,
    no entry in sigma) raises.
    """
    check_integer("Nz", Nz, 1)
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


def _turn(u: np.ndarray, c, s) -> np.ndarray:
    """u (..., >= 2) with its first two components turned by the angle of
    cosine c and sine s, broadcast against u[..., 0]: from a column's frame
    to physical coordinates at c = k1/|k_h|, s = k2/|k_h| (1, 0 at k_h = 0)."""
    out = u.copy()
    out[..., 0] = c * u[..., 0] - s * u[..., 1]
    out[..., 1] = s * u[..., 0] + c * u[..., 1]
    return out


def _solve_shell(kh2, cols, trajs, gamma, stress_table, params, z, dt, nsteps,
                 save_every, diffusion):
    """Step one |k_h|^2 shell in the frame (k_h/|k_h|, k_h^perp/|k_h|), in
    which its columns share one system: as the block of its columns, or of
    a basis of its inputs when that is smaller (the module's shell rule);
    _turn takes data and stresses to the frame and the saves back."""
    r = math.sqrt(kh2)
    sys_ = _ModeSystem((r, 0.0), params, z, dt, diffusion=diffusion)
    ncol = len(cols)
    # the cosine and sine (ncol, 1) of each column's angle, to broadcast over its nodes
    c, s = (np.array(cols, dtype=float).T / r if r else np.eye(2, 1))[:, :, None]
    u0 = np.array([gamma.profile(k, z).T for k in cols], dtype=complex)
    x = sys_.state(_turn(u0, c, -s))

    # the stress in the frame, per frequency: amps[f, :, j] is column j's at mus[f]
    entries = [(mu, j, v) for j, k in enumerate(cols) for mu, v in stress_table.get(k, [])]
    mus = np.array(sorted({mu for mu, _, _ in entries}))
    amps = np.zeros((len(mus), 2, ncol), dtype=complex)
    for mu, j, v in entries:
        amps[np.searchsorted(mus, mu), :, j] += params.beta * _turn(v, c[j, 0], -s[j, 0])

    # the basis: each column with a datum, then one unit stress per
    # (frequency, u_h component); column j is then X @ coef[:, j].  Stepped
    # only when it is smaller than the shell, else the columns are the basis
    datum = np.flatnonzero(np.any(u0.reshape(ncol, -1), axis=1))
    nd = len(datum)
    nb = nd + 2 * len(mus)
    coef = np.eye(ncol)
    if nb < ncol:
        coef = np.zeros((nb, ncol), dtype=complex)
        coef[np.arange(nd), datum] = 1.0
        coef[nd:] = amps.reshape(2 * len(mus), ncol)
        basis = np.zeros((sys_.n, nb), dtype=complex, order="F")
        basis[:, :nd] = x[:, datum]
        x = basis
        amps = np.eye(2 * len(mus), nb, nd)  # the unit stresses
    width = x.shape[1]  # the columns stepped

    # the stresses (2, width) in step order, the start's half steps at dt/2
    # and dt, then each midpoint (n - 1/2) dt: a row of phases times amps
    t = np.r_[0.5, 1.0, np.arange(2, nsteps + 1) - 0.5] * dt
    phases = np.exp(1j * mus * t[:, None] / params.epsilon)
    amps = amps.reshape(len(mus), 2 * width)
    g = ((row @ amps).reshape(2, width) for row in phases) if entries else itertools.repeat(None)

    def record(t, x, *forms):
        """Save the block x at time t, with the forms of its energy and of
        the energy one step earlier, of the step's dissipation and work and
        of the energy its start took out beyond them (0.0 but on the first
        step)."""
        x = x @ coef
        u = _turn(sys_.velocity(x), c, s)
        p = sys_.pressure(x)
        # the scale is the physical velocity's: |u_h| components are not
        # invariant under the rotation
        scales = np.abs(u.reshape(ncol, -1)).max(axis=1)
        stack = np.empty((8, *E0.shape), dtype=complex)  # a 0.0 form fills a zero Gram
        for i, f in enumerate((*forms, E0, net, loss)):
            stack[i] = f
        columns = zip(trajs, u, p, sys_.divergence(x).tolist(), scales.tolist(),
                      sys_.columns(stack, coef).T.tolist())
        for traj, u_j, p_j, div, scale, (e, e_before, d, w, lo, e0, nt, ls) in columns:
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
    net = loss = 0.0  # the forms of dissipation minus work summed, of the start's loss
    record(0.0, x, E0, E0, 0.0, 0.0, 0.0)
    for nstep in range(1, nsteps + 1):
        if nstep == 1:
            x_new, diss, work, loss = sys_.start(x, next(g), next(g))
        else:
            x_new, diss, work = sys_.step(x, next(g))
        net += diss - work
        # the columns, their energy and forms are needed only at the saves
        if nstep % save_every == 0 or nstep == nsteps:
            record(nstep * dt, x_new, sys_.energy(x_new), sys_.energy(x), diss, work,
                   loss if nstep == 1 else 0.0)
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
            pn = np.interp(traj.z, zc, p.real) + 1j * np.interp(traj.z, zc, p.imag)
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
