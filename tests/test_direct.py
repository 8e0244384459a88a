"""Direct solver: scheme fidelity, constraints, decay fitting, dumps."""

import ast
import math
import os
import re

import numpy as np
import pytest

import rotstrip.direct as direct
from rotstrip.params import Params
from rotstrip.spectral import SpectralField, basis_profile, semigroup
from rotstrip.layers import BoundaryTrace, filter_resonant
from rotstrip.direct import (
    DecayFit,
    _ModeSystem,
    ModeTrajectory,
    diagnostics_csv,
    fit_decay,
    graded_nodes,
    l2_norm,
    node_weights,
    snapshot_csv,
    solve_direct,
)


def l2_difference(u: np.ndarray, analytic: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mismatch between a nodal state (Nz+1, 3) and analytic samples
    of the same shape (or (3, Nz+1))."""
    a = np.asarray(analytic)
    if a.shape != u.shape:
        a = a.T
    return l2_norm(u - a, weights)


def semigroup_samples(gamma: SpectralField, params: Params, t: float, k_h,
                      z: np.ndarray) -> np.ndarray:
    """Nodal samples of exp(-(t/eps) L) gamma on column k_h: the
    penalisation-only reference trajectory."""
    rotated = semigroup(t / params.epsilon, gamma)
    return rotated.profile(k_h, z)


def test_oracle_imports_no_asymptotic_module():
    """The direct solver checks the asymptotic half, so it shares none of its
    code: its source imports nothing from layers, envelope, correctors or
    harness.  What it shares is params, spectral (the eigenbasis of the
    initial data) and traces.  Read with ast: importing rotstrip.direct runs
    the package __init__, which imports every module."""
    with open(os.path.join(os.path.dirname(direct.__file__), "direct.py")) as f:
        tree = ast.parse(f.read())
    imported = set()  # the package modules named by the imports
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "rotstrip":
                continue
            path = module[1:] if node.level == 0 else module
            imported.update(path[:1] if path and path[0] else
                            [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("rotstrip."))
    assert {"params", "spectral", "traces"} <= imported
    assert not imported & {"layers", "envelope", "correctors", "harness"}


class TestGrid:
    def test_uniform_when_layer_resolved(self):
        z = graded_nodes(64, 0.5)
        assert np.allclose(np.diff(z), 1.0 / 64)

    def test_wall_clustering(self):
        delta = 1e-4
        z = graded_nodes(256, delta)
        assert z[8] <= delta
        assert (1.0 - z[-9]) <= delta
        assert np.all(np.diff(z) > 0)

    def test_impossible_resolution_rejected(self):
        with pytest.raises(ValueError, match="increase Nz"):
            graded_nodes(40, 1e-12)
        with pytest.raises(ValueError, match="too small"):
            graded_nodes(16, 1e-3)

    def test_bisection_on_one_node_matches_full_grid(self):
        def full_grid_reference(Nz, delta, m=8, max_strength=30.0):
            """The bisection evaluating the tanh map on the whole grid each step."""
            xi = np.linspace(0.0, 1.0, Nz + 1)

            def nodes(s):
                return 0.5 * (1.0 + np.tanh(s * (2.0 * xi - 1.0)) / math.tanh(s))

            if delta >= m / Nz:
                return xi
            lo, hi = 1e-3, max_strength
            if nodes(hi)[m] > delta:
                return None
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if nodes(mid)[m] > delta:
                    lo = mid
                else:
                    hi = mid
            out = nodes(hi)
            out[0], out[-1] = 0.0, 1.0  # graded_nodes pins the end nodes to the walls
            return out

        checked = 0
        for Nz in (32, 48, 100, 128, 256, 512, 1024):
            for delta in np.geomspace(1e-5, 0.5, 40):
                ref = full_grid_reference(Nz, float(delta))
                if ref is None:
                    with pytest.raises(ValueError, match="increase Nz"):
                        graded_nodes(Nz, float(delta))
                    continue
                if np.max(np.diff(ref)) > 0.05:
                    with pytest.raises(ValueError, match="core spacing"):
                        graded_nodes(Nz, float(delta))
                    continue
                assert np.array_equal(graded_nodes(Nz, float(delta)), ref)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("Nz, delta", [(64, 0.01), (96, 0.03), (256, 0.01), (256, 0.03),
                                           (512, 0.01), (192, 1e-3)])
    def test_end_nodes_are_the_walls(self, Nz, delta):
        # on these grids the tanh map rounds z[0] to -1.1e-16 or 5.6e-17
        z = graded_nodes(Nz, delta)
        assert z[0] == 0.0 and z[-1] == 1.0
        assert np.all(np.diff(z) > 0)

    @pytest.mark.parametrize("grading, Nz, message", [
        # a reversed grid used to run to a final energy of -0.47
        (np.linspace(1.0, 0.0, 65), 64, "grading must be strictly increasing"),
        # a grid of [0, 0.5] used to solve that strip without complaint
        (np.linspace(0.0, 0.5, 65), 64, "grading runs from 0.0 to 0.5"),
        # a NaN node used to fail in the LU as "exactly singular"
        (np.where(np.arange(65) == 10, np.nan, np.linspace(0.0, 1.0, 65)), 64,
         "grading has a node that is not a finite number"),
        # Nz used to be ignored when a grid was given
        (np.linspace(0.0, 1.0, 65), 128, "grading has shape (65,): need Nz + 1 = 129"),
        (np.linspace(0.0, 1.0, 65)[None], 64, "grading has shape (1, 65)"),
    ])
    def test_given_grading_checked(self, grading, Nz, message):
        p = Params(1e-2, 1e-2)
        gamma = SpectralField({(1, 0, 1): 1.0})
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_direct(gamma, None, p, t_end=0.01, Nz=Nz, grading=grading)
        # the same grid, consistent, runs
        solve_direct(gamma, None, p, t_end=0.01, Nz=64, grading=np.linspace(0.0, 1.0, 65))

    def test_weights_sum_to_one(self):
        z = graded_nodes(128, 1e-3)
        assert np.sum(node_weights(z)) == pytest.approx(1.0, abs=1e-14)


class TestNorms:
    def test_basis_mode_norm_converges(self):
        # on a graded grid the trapezoid error is genuinely O(Nz^-2)
        k = (1, 0, 1)
        errs = []
        for Nz in (128, 256, 512):
            z = graded_nodes(Nz, 1e-3)
            u = basis_profile(k, z).T
            errs.append(abs(l2_norm(u, node_weights(z)) - 1.0))
        assert errs[-1] < 2e-5
        assert errs[0] / errs[-1] > 8.0  # second-order convergence

    def test_difference_with_itself_is_zero(self):
        z = np.linspace(0, 1, 33)
        u = basis_profile((1, 0, 1), z).T
        assert l2_difference(u, u, node_weights(z)) == 0.0

    def test_scalar_homogeneity(self):
        z = np.linspace(0, 1, 33)
        u = basis_profile((1, 0, 1), z).T
        w = node_weights(z)
        assert l2_norm(3.0 * u, w) == pytest.approx(3.0 * l2_norm(u, w), rel=1e-14)


class TestSolveDirect:
    def test_zero_data_zero_trajectory(self):
        p = Params(1e-2, 1e-2)
        out = solve_direct(SpectralField({(1, 0, 1): 0.0}), None, p,
                           t_end=5 * p.epsilon, Nz=96, save_every=5)
        traj = out[(1, 0)]
        assert all(traj.l2_norm(i) == 0.0 for i in range(len(traj.times)))

    def test_rejects_coarse_dt(self):
        p = Params(1e-3, 1e-3)
        with pytest.raises(ValueError, match="dt"):
            solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p,
                         t_end=0.1, dt=p.epsilon, Nz=64)

    def test_rejects_negative_t_end(self):
        p = Params(1e-2, 1e-2)
        with pytest.raises(ValueError, match=r"t_end=-0\.05"):
            solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p, t_end=-0.05, Nz=64)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_rejects_nonpositive_dt(self, dt):
        p = Params(1e-2, 1e-2)
        with pytest.raises(ValueError, match=f"dt={dt}"):
            solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p, t_end=0.05, dt=dt, Nz=64)

    @pytest.mark.parametrize("save_every", [0, -5, 2.5, True])
    def test_rejects_save_every_not_a_positive_integer(self, save_every):
        # 0 used to divide by zero; -5, 2.5 and True ran, saving only the end
        p = Params(1e-2, 1e-2)
        with pytest.raises(ValueError, match=f"save_every={save_every!r}"):
            solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p, t_end=0.01, Nz=64,
                         save_every=save_every)

    def test_rejects_sigma_that_is_not_a_boundary_trace(self):
        # a {(mu, k_h): vector} dict was once taken as a stress table
        p = Params(1e-2, 1e-2, beta=1.0)
        with pytest.raises(ValueError, match="BoundaryTrace or None, not dict"):
            solve_direct(SpectralField({}), {(0.0, (1, 0)): np.array([1.0, 0.0])}, p,
                         t_end=0.01, Nz=64)

    def test_rejects_stress_without_diffusion(self):
        # the stress condition is a viscous one: dropping it would return a
        # zero trajectory for a forced column
        p = Params(1e-2, 1e-2, beta=1.0)
        sigma = BoundaryTrace(1, {(0.0, (1, 0)): np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match="diffusion"):
            solve_direct(SpectralField({}), sigma, p, t_end=0.05, Nz=64, diffusion=False)

    def test_t_end_off_the_step_grid_is_reached(self):
        # 0.01 / 1.02e-4 = 98.04 steps: take 99 shorter steps, end at t_end
        p = Params(1e-2, 1e-2)
        g = SpectralField({(1, 0, 1): 1.0})
        out = solve_direct(g, None, p, t_end=0.01, dt=1.02e-4, Nz=96, save_every=1)
        times = np.array(out[(1, 0)].times)
        assert len(times) == 1 + 99
        assert times[-1] == pytest.approx(0.01, rel=1e-12)
        assert np.allclose(np.diff(times), 0.01 / 99, rtol=1e-12, atol=0.0)

    def test_t_end_on_the_step_grid_keeps_dt(self):
        p = Params(1e-2, 1e-2)
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p, t_end=0.05,
                           dt=1e-3, Nz=96, save_every=1)
        assert out[(1, 0)].times == [n * 1e-3 for n in range(51)]

    def test_energy_nonincreasing_without_stress(self):
        p = Params(1e-2, 1e-2)
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p,
                           t_end=0.2, Nz=128, save_every=10)
        energies = [d["energy"] for d in out[(1, 0)].diagnostics]
        assert all(energies[i + 1] <= energies[i] * (1 + 1e-12) for i in range(len(energies) - 1))

    def test_divergence_residual_after_steps(self):
        p = Params(1e-2, 1e-2)
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p,
                           t_end=0.05, Nz=128, save_every=10)
        resid = [d["divergence_residual"] for d in out[(1, 0)].diagnostics[1:]]
        assert max(resid) < 1e-10

    def test_cumulative_energy_balance(self):
        p = Params(1e-2, 1e-2)
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p,
                           t_end=0.3, Nz=192, save_every=30)
        d = out[(1, 0)].diagnostics
        assert abs(d[-1]["cumulative_energy_residual"]) < 1e-2 * d[0]["energy"]

    def test_oscillation_norm_preserved_penalization_only(self):
        p = Params(1e-2, 1e-2)
        g = SpectralField({(1, 0, 1): 1.0})
        out = solve_direct(g, None, p, t_end=10 * p.epsilon, dt=p.epsilon / 50,
                           Nz=128, save_every=25, diffusion=False)
        traj = out[(1, 0)]
        n0 = traj.l2_norm(0)
        drift = max(abs(traj.l2_norm(i) - n0) for i in range(len(traj.times)))
        assert drift < 1e-6 * n0

    def test_penalization_only_matches_rotation_group(self):
        # validates the Coriolis + pressure discretisation against the
        # eigenbasis oracle over ten rotation periods
        p = Params(1e-2, 1e-2)
        g = SpectralField({(1, 0, 1): 1.0, (1, 0, -2): 0.5j})
        out = solve_direct(g, None, p, t_end=10 * p.epsilon, dt=p.epsilon / 1600,
                           Nz=1024, save_every=160, diffusion=False)
        traj = out[(1, 0)]
        errs = [l2_difference(traj.snapshots[i][0],
                              semigroup_samples(g, p, t, (1, 0), traj.z),
                              traj.weights)
                for i, t in enumerate(traj.times)]
        assert max(errs) < 1e-6

    def test_grid_convergence_at_acceptance_scale(self):
        # doubling Nz changes the final-time norm by well under 1%
        p = Params(3e-3, 3e-3)
        g = SpectralField({(1, 0, 1): 1.0})
        finals = []
        for Nz in (256, 512):
            out = solve_direct(g, None, p, t_end=0.3, Nz=Nz, save_every=100)
            traj = out[(1, 0)]
            finals.append(traj.l2_norm(len(traj.times) - 1))
        assert abs(finals[1] - finals[0]) < 0.01 * finals[1]

    def test_mixed_columns_integrate_independently(self):
        # initial data and stress on different k_h columns
        p = Params(1e-2, 1e-2, beta=1.0)
        g = SpectralField({(1, 0, 1): 1.0})
        sigma = BoundaryTrace(1, {(0.0, (2, 1)): np.array([1.0, 0.0])})
        out = solve_direct(g, sigma, p, t_end=0.05, Nz=96, save_every=10)
        assert set(out) == {(1, 0), (2, 1)}
        assert out[(1, 0)].l2_norm(0) == pytest.approx(1.0, abs=1e-3)
        assert out[(2, 1)].l2_norm(0) == 0.0
        assert out[(2, 1)].l2_norm(len(out[(2, 1)].times) - 1) > 0.0

    def test_resonant_column_filter_satisfies_heat_equation(self):
        # k_h = 0 stress at the rotation frequency: the filtered column obeys
        # dt v = nu dzz v up to grid tolerance
        # dt well below eps/10: the trapezoidal carrier-phase drift
        # ~ (dt/eps)^2/(12 eps) would otherwise leak into the filtered
        # time derivative
        p = Params(1e-2, 1e-2, beta=1.0)
        sigma = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 1j])})
        Nz = 160
        out = solve_direct(SpectralField({}), sigma, p, t_end=4.0, Nz=Nz,
                           dt=p.epsilon / 40, save_every=80,
                           grading=np.linspace(0.0, 1.0, Nz + 1))
        traj = out[(0, 0)]
        z = traj.z
        times = np.array(traj.times)
        vs = [filter_resonant(u.T, p.epsilon, t) for (u, _), t in
              zip(traj.snapshots, times)]
        i = len(times) // 2
        dt_s = times[i + 1] - times[i - 1]
        dv_dt = (vs[i + 1] - vs[i - 1]) / dt_s
        v = vs[i]
        interior = slice(10, -10)
        zc = z[interior]
        d2 = np.empty_like(v[:, interior])
        for c in range(3):
            d2[c] = np.gradient(np.gradient(v[c], z), z)[interior]
        resid = np.abs(dv_dt[:, interior] - p.nu * d2)
        scale = np.max(np.abs(p.nu * d2)) + 1e-30
        assert np.max(resid) / scale < 0.15


def _stress_at(stress, params, t):
    """The stress [g1, g2] at time t of the (mu, vector) entries of a column."""
    g = np.zeros(2, dtype=complex)
    for mu, v in stress:
        g += params.beta * v * np.exp(1j * mu * t / params.epsilon)
    return g


def _nodal_energy(u, w):
    return 0.5 * l2_norm(u, w) ** 2


def _nodal_dissipation(u, z, kh2, nu):
    """kh2 |u|^2 on the nodes plus nu |dz u|^2 on the cells, 4 pi^2 from
    Parseval."""
    w, hcell = node_weights(z), np.diff(z)
    dzu = np.diff(u, axis=0) / hcell[:, None]
    return 4.0 * math.pi ** 2 * (kh2 * float(np.sum(w * np.sum(np.abs(u) ** 2, axis=1)))
                                 + nu * float(np.sum(hcell * np.sum(np.abs(dzu) ** 2, axis=1))))


def _nodal_work(u, g, nu):
    """The stress's rate of work on the top node."""
    return 4.0 * math.pi ** 2 * nu * float(np.real(np.vdot(u[-1, :2], g)))


def _start_half_steps(traj, params, dt, stress):
    """The velocities after each of the start's two implicit-Euler half steps
    on the column of traj, from its own physical-frame system."""
    ref = _ModeSystem(traj.k_h, params, traj.z, dt)
    x = ref.state(traj.snapshots[0][0][None])
    out = []
    for t in (0.5 * dt, dt):
        x = ref.midpoint(x, _stress_at(stress, params, t)[:, None] if stress else None)
        out.append(ref.velocity(x)[0])
    return out


def _nodal_balance(traj, params, dt, stress, diffusion=True):
    """Per-step energy, dissipation and energy-balance residual from the
    nodal formulas on the saved velocity (every step saved): trapezoid
    energy, kh2 |u|^2 plus nu |dz u|^2 per cell on the midpoint state, and
    the stress work on its top node.  With diffusion the first step is the
    start's two half steps: its dissipation and work are their means, on
    the half steps' ends, and its residual counts the start's loss, the
    energies of the half steps' increments (returned last)."""
    z, w = traj.z, traj.weights
    kh2 = traj.k_h[0] ** 2 + traj.k_h[1] ** 2
    nu = params.nu if diffusion else 0.0
    us = [u for u, _ in traj.snapshots]
    energy = [_nodal_energy(u, w) for u in us]
    diss, resid, scale, loss = [0.0], [0.0], max(energy), 0.0
    for n in range(1, len(us)):
        lost = 0.0
        if n == 1 and diffusion:
            u_a, u_b = _start_half_steps(traj, params, dt, stress)
            np.testing.assert_allclose(u_b, us[1], rtol=0.0, atol=1e-12 * np.abs(u_b).max())
            d = 0.5 * (_nodal_dissipation(u_a, z, kh2, nu) + _nodal_dissipation(u_b, z, kh2, nu))
            work = 0.5 * (_nodal_work(u_a, _stress_at(stress, params, 0.5 * dt), nu)
                          + _nodal_work(u_b, _stress_at(stress, params, dt), nu))
            lost = loss = _nodal_energy(u_a - us[0], w) + _nodal_energy(u_b - u_a, w)
        else:
            u_mid = 0.5 * (us[n - 1] + us[n])
            d = _nodal_dissipation(u_mid, z, kh2, nu) if diffusion else 0.0
            work = _nodal_work(u_mid, _stress_at(stress, params, (n - 0.5) * dt), nu)
        diss.append(d)
        resid.append((energy[n] - energy[n - 1] + lost) / dt + d - work)
        scale = max(scale, abs(energy[n] - energy[n - 1]) / dt, abs(d), abs(work))
    # scale: the largest energy or balance term, against which the residual
    # (a difference of nearly equal terms) is measured
    return np.array(energy), np.array(diss), np.array(resid), scale, loss


class TestStepDiagnostics:
    """The quadratic-form diagnostics of the step loop against the nodal
    formulas, on a forced, an unforced, the reduced resonant and an inviscid
    column."""

    def _check(self, out, params, dt, stress_table, diffusion=True):
        for k_h, traj in out.items():
            energy, diss, resid, scale, loss = _nodal_balance(
                traj, params, dt, stress_table.get(k_h, []), diffusion=diffusion)
            d = traj.diagnostics
            assert len(d) == len(energy) > 20
            e_scale = 1e-10 * np.max(energy)
            np.testing.assert_allclose([r["energy"] for r in d], energy,
                                       rtol=1e-10, atol=e_scale)
            np.testing.assert_allclose([r["dissipation"] for r in d], diss,
                                       rtol=1e-10, atol=1e-10 * np.max(np.abs(diss)))
            np.testing.assert_allclose([r["energy_balance_residual"] for r in d], resid,
                                       rtol=0.0, atol=1e-10 * scale)
            assert d[0]["start_energy_loss"] == 0.0
            np.testing.assert_allclose([r["start_energy_loss"] for r in d[1:]], loss,
                                       rtol=1e-10, atol=e_scale)

    def test_forced_unforced_and_resonant_columns(self):
        p = Params(1e-2, 1e-2, beta=1.0)
        stress = {(1, 1): [(0.5, np.array([1.0, 0.5j]))],
                  (0, 0): [(1.0, np.array([1.0, 1j]))]}
        sigma = BoundaryTrace(1, {(mu, k_h): v for k_h, entries in stress.items()
                                  for mu, v in entries})
        g = SpectralField({(1, 0, 1): 1.0, (1, 1, 1): 0.5})
        dt = p.epsilon / 10
        out = solve_direct(g, sigma, p, t_end=40 * dt, dt=dt, Nz=96, save_every=1)
        assert set(out) == {(0, 0), (1, 0), (1, 1)}
        self._check(out, p, dt, stress)

    def test_cumulative_residual_is_the_running_sum(self):
        p = Params(1e-2, 1e-2, beta=1.0)
        stress = {(1, 1): [(0.5, np.array([1.0, 0.5j]))]}
        sigma = BoundaryTrace(1, {(0.5, (1, 1)): stress[(1, 1)][0][1]})
        dt = p.epsilon / 10
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), sigma, p, t_end=40 * dt, dt=dt,
                           Nz=96, save_every=1)
        for k_h, traj in out.items():
            _, _, resid, scale, _ = _nodal_balance(traj, p, dt, stress.get(k_h, []))
            cum = [r["cumulative_energy_residual"] for r in traj.diagnostics]
            np.testing.assert_allclose(cum, np.cumsum(resid) * dt, rtol=0.0,
                                       atol=1e-10 * scale * dt * len(cum))

    def test_long_forced_run_without_an_alternating_component(self):
        # a datum that violates no-slip, under a stress that is nonzero at
        # t = 0: the damped start takes the mismatch out, and the half-cell
        # top row holds the stress as a momentum equation, so no component
        # alternates from step to step.  The midpoint dissipation m^H Q m
        # must match the nodal midpoint formula over thousands of steps.
        p = Params(1e-2, 1e-2, beta=1.0)
        stress = {(1, 1): [(0.5, np.array([1.0, 0.5j]))],
                  (0, 0): [(1.0, np.array([1.0, 1j]))]}
        sigma = BoundaryTrace(1, {(mu, k_h): v for k_h, entries in stress.items()
                                  for mu, v in entries})
        dt = p.epsilon / 10
        nsteps = 2000
        out = solve_direct(SpectralField({(1, 0, 1): 1.0}), sigma, p, t_end=nsteps * dt,
                           dt=dt, Nz=96, save_every=1)
        self._check(out, p, dt, stress)
        for k_h in stress:
            traj = out[k_h]
            assert len(traj.times) == nsteps + 1
            # no alternating component at the end: the periodic response at
            # mu/eps has second differences of (mu dt/eps)^2 times its size
            # (measured 1.00 times), an alternating component adds four
            # times its own (the former algebraic stress row, started
            # without damping, read 84 and 2.5 times on (1, 1) and (0, 0))
            top = np.array([u[-1, :2] for u, _ in traj.snapshots[-100:]])
            second = np.abs(top[2:] - 2 * top[1:-1] + top[:-2]).max()
            omega_dt = stress[k_h][0][0] * dt / p.epsilon
            assert second < 1.5 * omega_dt ** 2 * np.abs(top).max(), k_h

    def test_inviscid_column(self):
        p = Params(1e-2, 1e-2)
        dt = p.epsilon / 50
        out = solve_direct(SpectralField({(1, 0, 1): 1.0, (1, 0, -2): 0.5j}), None, p,
                           t_end=40 * dt, dt=dt, Nz=96, save_every=1, diffusion=False)
        self._check(out, p, dt, {}, diffusion=False)


def test_cn_is_second_order_in_time_on_forced_columns():
    # a forced column from zero data at dt = eps/10, /20, /40 against
    # dt = eps/640, compared at the saves every eps: the sup-over-time error
    # falls four times per halving of dt (measured 4.00, 4.01 on each)
    p = Params(3e-2, 3e-2, beta=1.0)
    sigma = BoundaryTrace(1, {(0.5, (1, 1)): np.array([1.0, 0.5j]),
                              (1.0, (0, 0)): np.array([1.0, 1j])})

    def run(steps_per_eps):
        return solve_direct(SpectralField({}), sigma, p, t_end=0.6,
                            dt=p.epsilon / steps_per_eps, Nz=96, save_every=steps_per_eps)

    ref = run(640)
    errors = {k_h: [] for k_h in ref}
    for steps_per_eps in (10, 20, 40):
        out = run(steps_per_eps)
        for k_h, traj in out.items():
            assert np.allclose(traj.times, ref[k_h].times)
            errors[k_h].append(max(
                l2_norm(u - u_ref, traj.weights)
                for (u, _), (u_ref, _) in zip(traj.snapshots, ref[k_h].snapshots)))
    for k_h, e in errors.items():
        ratios = [e[0] / e[1], e[1] / e[2]]
        assert all(3.5 <= r <= 4.5 for r in ratios), (k_h, ratios)


def _momentum_defect(k_h, params, z, u_old, u_new, u_mid, p, dt_step, g, diffusion=True):
    """The momentum rows' step equation from nodal formulas,
    (u_new - u_old)/dt_step + W^{-1} Q u_mid + (e3 ^ u_mid)/eps + G p
    - nu g / w_N (on the top u_h), relative to its largest term, on the rows
    that hold it: all but u3 at both walls and, with diffusion, u_h at the
    bottom.  Also u_new's largest residual on those wall rows and on the
    divergence of the cells, relative to its largest entry."""
    k1, k2 = k_h
    w, h = node_weights(z), np.diff(z)
    nu = params.nu if diffusion else 0.0
    viscous = (k1 * k1 + k2 * k2) * w[:, None] * u_mid if diffusion else 0.0 * u_mid
    flux = nu * np.diff(u_mid, axis=0) / h[:, None]
    viscous[:-1] -= flux
    viscous[1:] += flux
    coriolis = np.stack([-u_mid[:, 1], u_mid[:, 0], 0.0 * u_mid[:, 2]], axis=1) / params.epsilon
    # G = -W^{-1} D^H W_c, D the average of u_h and the difference of u3
    # over each cell
    hp_sum, p_diff = np.zeros(len(z), complex), np.zeros(len(z), complex)
    hp_sum[:-1] += h * p
    hp_sum[1:] += h * p
    p_diff[:-1] += p
    p_diff[1:] -= p
    gradient = np.stack([0.5j * k1 * hp_sum, 0.5j * k2 * hp_sum, p_diff], axis=1) / w[:, None]
    force = np.zeros_like(u_mid)
    force[-1, :2] = -nu * g / w[-1]
    terms = [(u_new - u_old) / dt_step, viscous / w[:, None], coriolis, gradient, force]
    rows = np.ones(u_mid.shape, dtype=bool)
    rows[[0, -1], 2] = False
    if diffusion:
        rows[0, :2] = False
    defect = np.abs(sum(terms)[rows]).max() / max(np.abs(t[rows]).max() for t in terms)
    div = (0.5j * k1 * (u_new[:-1, 0] + u_new[1:, 0]) + 0.5j * k2 * (u_new[:-1, 1] + u_new[1:, 1])
           + np.diff(u_new[:, 2]) / h)
    constraints = max(np.abs(div).max(), np.abs(u_new[~rows]).max()) / np.abs(u_new).max()
    return defect, constraints


class TestStartRule:
    """The first step: with diffusion two implicit-Euler half steps (the
    damped start), without it CN's own step, checked against the nodal step
    equations."""

    def _system(self, k_h, params, dt, datum, diffusion=True):
        z = graded_nodes(96, params.layer_scale if diffusion else 1.0)
        sys_ = _ModeSystem(k_h, params, z, dt, diffusion=diffusion)
        return sys_, z, sys_.state(SpectralField(datum).profile(k_h, z).T[None])

    @pytest.mark.parametrize("k_h, datum", [((1, 1), {(1, 1, 1): 1.0}),
                                            ((0, 0), {(0, 0, 1): 0.8})])
    def test_damped_start_with_diffusion(self, k_h, datum):
        p = Params(1e-2, 1e-2, beta=1.0)
        dt = p.epsilon / 10
        sys_, z, x0 = self._system(k_h, p, dt, datum)
        v = np.array([1.0, 0.5j])

        def stress(t):
            return (p.beta * v * np.exp(1j * t / p.epsilon))[:, None]

        x1, diss, work, loss = sys_.start(x0, stress)
        m_a = sys_.midpoint(x0, stress(0.5 * dt))
        m_b = sys_.midpoint(m_a, stress(dt))
        u0, u_a, u_b = (sys_.velocity(x)[0] for x in (x0, m_a, m_b))
        assert np.array_equal(sys_.velocity(x1)[0], u_b)
        assert np.array_equal(sys_.pressure(x1), 2.0 * sys_.pressure(m_b))
        # each half step is implicit Euler over dt/2, with the stress and
        # the pressure (twice the midpoint solve's) at its end
        for u_old, u_new, m, t in ((u0, u_a, m_a, 0.5 * dt), (u_a, u_b, m_b, dt)):
            defect, constraints = _momentum_defect(
                k_h, p, z, u_old, u_new, u_new, 2.0 * sys_.pressure(m)[0], 0.5 * dt,
                stress(t)[:, 0])
            assert defect < 1e-12 and constraints < 1e-12, (defect, constraints)
        # it is not CN's step: the datum violates no-slip
        defect, _ = _momentum_defect(k_h, p, z, u0, u_b, 0.5 * (u0 + u_b),
                                     sys_.pressure(x1)[0], dt, stress(0.5 * dt)[:, 0])
        assert defect > 1e-3
        w = node_weights(z)
        nu = p.nu
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        assert diss[0] == pytest.approx(0.5 * (_nodal_dissipation(u_a, z, kh2, nu)
                                               + _nodal_dissipation(u_b, z, kh2, nu)), rel=1e-10)
        assert work[0] == pytest.approx(0.5 * (_nodal_work(u_a, stress(0.5 * dt)[:, 0], nu)
                                               + _nodal_work(u_b, stress(dt)[:, 0], nu)), rel=1e-10)
        # the loss: the half steps' numerical damping and the datum's
        # dropped wall values
        assert loss[0] == pytest.approx(_nodal_energy(u_a - u0, w) + _nodal_energy(u_b - u_a, w),
                                        rel=1e-12)
        assert loss[0] > 2.0 * math.pi ** 2 * w[0] * np.sum(np.abs(u0[0, :2]) ** 2) > 0.0

    def test_cn_start_without_diffusion(self):
        p = Params(1e-2, 1e-2)
        dt = p.epsilon / 50
        sys_, z, x0 = self._system((1, 0), p, dt, {(1, 0, 1): 1.0, (1, 0, -2): 0.5j},
                                   diffusion=False)
        x1, diss, work, loss = sys_.start(x0, lambda t: None)
        assert not np.any(diss) and not np.any(work) and not np.any(loss)
        u0, u1 = sys_.velocity(x0)[0], sys_.velocity(x1)[0]
        # CN's step, (u1 - u0)/dt from the midpoint and the new pressure,
        # from a datum that misses the divergence rows
        assert np.abs(sys_.residual(x0)).max() > 1e-8
        defect, constraints = _momentum_defect((1, 0), p, z, u0, u1, 0.5 * (u0 + u1),
                                               sys_.pressure(x1)[0], dt, 0.0, diffusion=False)
        assert defect < 1e-12 and constraints < 1e-12, (defect, constraints)
        # on a state that meets the rows, the start is the plain step
        x2, _, _ = sys_.step(x1, None)
        x2_start = sys_.start(x1, lambda t: None)[0]
        assert _sup_rel(sys_.velocity(x2_start), sys_.velocity(x2)) < 1e-12
        assert _sup_rel(sys_.pressure(x2_start), sys_.pressure(x2)) < 1e-10

    def test_spin_down_from_an_eigenmode_is_second_order_in_time(self):
        # criterion 6's datum violates no-slip: plain CN from it converged
        # at ratios 2.70 and 2.11 here, the damped start at 4.00 and 4.01
        p = Params(3e-2, 3e-2)
        g = SpectralField({(1, 0, 1): 1.0})

        def run(steps_per_eps):
            return solve_direct(g, None, p, t_end=0.6, dt=p.epsilon / steps_per_eps, Nz=96,
                                save_every=steps_per_eps)[(1, 0)]

        ref = run(640)
        errors = []
        for steps_per_eps in (10, 20, 40):
            traj = run(steps_per_eps)
            errors.append(max(l2_norm(u - u_ref, traj.weights) for (u, _), (u_ref, _)
                              in zip(traj.snapshots, ref.snapshots)))
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios
        # with the start's loss the energy ledger closes from that datum
        d = ref.diagnostics
        assert d[-1]["start_energy_loss"] > 1e-3 * d[0]["energy"]
        assert abs(d[-1]["cumulative_energy_residual"]) < 1e-12 * d[0]["energy"]


def test_half_cell_row_is_second_order_in_space():
    # k_h = 0 under [1, 0.5i] at mu = 1 on uniform grids, against Nz = 8192
    # (nested nodes) over t in [0.1, 0.2]: the error falls four times per
    # halving of h (measured 4.06-4.20; the one-sided stress row gave
    # 3.00-3.35)
    p = Params(1e-2, 1e-2, beta=1.0)
    sigma = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 0.5j])})

    def run(Nz):
        return solve_direct(SpectralField({}), sigma, p, t_end=0.2, dt=p.epsilon / 20, Nz=Nz,
                            save_every=20, grading=np.linspace(0.0, 1.0, Nz + 1))[(0, 0)]

    ref = run(8192)
    errors = []
    for Nz in (128, 256, 512, 1024, 2048):
        traj = run(Nz)
        pairs = zip(traj.times, traj.snapshots, ref.snapshots)
        errors.append(max(l2_norm(u - u_ref[::8192 // Nz], traj.weights)
                          for t, (u, _), (u_ref, _) in pairs if t >= 0.1 - 1e-12))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def _shell_stress(seed=1, kmax=2):
    """{(mu, k_h): stress}: in each |k_h|^2 shell one seeded vector, turned
    into every column (the wind_shells inputs)."""
    shell_mu = {0: 1.0, 1: 1.0, 2: 0.0, 4: 0.5, 5: 0.0, 8: 0.5}
    rng = np.random.default_rng(seed)
    shells = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            shells.setdefault(k1 * k1 + k2 * k2, []).append((k1, k2))
    table = {}
    for r2, cols in sorted(shells.items()):
        cols = sorted(cols, key=lambda k: (-k[0], -k[1]))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v *= rng.uniform(0.5, 1.5) / np.linalg.norm(v)
        for k in cols:
            table[(shell_mu[r2], k)] = _rotation(k, cols[0]) @ v
    return table


class TestEnergyBalanceUnderStress:
    """With the half-cell top row the per-step energy balance closes to
    rounding under a stress (the algebraic stress row left a truncation
    term of up to 9% of the dissipation), and the divergence stays at
    rounding."""

    def _check(self, out, dt):
        for k_h, traj in out.items():
            d = traj.diagnostics
            assert len(d) == round(0.3 / dt) + 1
            for row in d[1:]:
                assert abs(row["energy_balance_residual"]) <= 1e-12 * row["dissipation"], (k_h, row)
            assert abs(d[-1]["cumulative_energy_residual"]) <= 1e-12 * max(r["energy"] for r in d)
            assert max(r["divergence_residual"] for r in d) < 1e-13, k_h

    def test_wind_shells_inputs(self):
        p = Params(1e-2, 1e-2, beta=1.0)
        dt = p.epsilon / 10
        out = solve_direct(SpectralField({}), BoundaryTrace(1, _shell_stress()), p, t_end=0.3,
                           dt=dt, Nz=256, save_every=1)
        assert len(out) == 25
        self._check(out, dt)

    @pytest.mark.parametrize("k_h, mu", [((1, 0), 0.5), ((0, 0), 1.0), ((2, 1), 0.0)])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_forced_columns(self, k_h, mu, uniform):
        p = Params(1e-2, 1e-2, beta=1.0)
        dt = p.epsilon / 10
        sigma = BoundaryTrace(1, {(mu, k_h): np.array([1.0, 0.5j])})
        grading = np.linspace(0.0, 1.0, 257) if uniform else None
        out = solve_direct(SpectralField({}), sigma, p, t_end=0.3, dt=dt, Nz=256,
                           save_every=1, grading=grading)
        self._check(out, dt)


def _rotation(k, ref):
    theta = math.atan2(k[1], k[0]) - math.atan2(ref[1], ref[0])
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _sup_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestShellBatching:
    """solve_direct steps all columns of a |k_h|^2 shell as one block, with
    u_h written in the frame (k_h/|k_h|, k_h^perp/|k_h|)."""

    def test_columns_match_physical_frame_systems(self):
        # one shell (|k_h|^2 = 5): stress at two frequencies on one column,
        # one more on another, initial data on the third
        p = Params(1e-2, 1e-2, beta=1.0)
        dt, nsteps, Nz = p.epsilon / 10, 30, 96
        stress = {(1, 2): [(0.0, np.array([1.0, 0.5j])), (0.5, np.array([-0.3, 0.8]))],
                  (2, 1): [(0.5, np.array([0.2j, 1.0]))]}
        sigma = BoundaryTrace(1, {(mu, k): v for k, e in stress.items() for mu, v in e})
        gamma = SpectralField({(-2, 1, 1): 1.0, (-2, 1, -2): 0.3j})
        out = solve_direct(gamma, sigma, p, t_end=nsteps * dt, dt=dt, Nz=Nz, save_every=1)
        assert set(out) == {(1, 2), (2, 1), (-2, 1)}
        for k_h, traj in out.items():
            ref = _ModeSystem(k_h, p, traj.z, dt)
            x = ref.state(gamma.profile(k_h, traj.z).T[None])

            def g(t):
                if k_h not in stress:
                    return None
                return _stress_at(stress[k_h], p, t)[:, None]

            for n, (u, pr) in enumerate(traj.snapshots):
                if n == 1:
                    x = ref.start(x, g)[0]
                elif n > 1:
                    x = ref.step(x, g((n - 0.5) * dt))[0]
                if n == 0 and k_h in stress:  # zero initial data
                    assert not np.any(u) and not np.any(pr)
                    continue
                u_ref = ref.velocity(x)[0]
                assert _sup_rel(u, u_ref) < 1e-12, (k_h, n)
                if n > 0:
                    assert _sup_rel(pr, ref.pressure(x)[0]) < 1e-10, (k_h, n)
                assert traj.diagnostics[n]["energy"] == pytest.approx(
                    ref.energy(x)[0], rel=1e-12)

    def test_one_factorisation_per_shell(self, monkeypatch):
        calls = []
        lib = direct.solver_modules()

        def counting_zgbtrf(*args, **kwargs):
            calls.append(args[0].shape)
            return lib.zgbtrf(*args, **kwargs)

        # every _ModeSystem looks its LAPACK routines up here
        monkeypatch.setattr(direct, "solver_modules",
                            lambda: lib._replace(zgbtrf=counting_zgbtrf))
        p = Params(1e-2, 1e-2, beta=1.0)
        columns = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
        sigma = BoundaryTrace(1, {(0.0, k): np.array([1.0, 0.5j]) for k in columns})
        out = solve_direct(SpectralField({}), sigma, p, t_end=p.epsilon / 10, Nz=64)
        assert len(out) == 25
        assert len(calls) == 6  # |k_h|^2 in {0, 1, 2, 4, 5, 8}

    def test_rotated_columns_agree(self):
        # a stress turned with k_h drives a turned trajectory
        p = Params(1e-2, 1e-2, beta=1.0)
        dt = p.epsilon / 10
        v = np.array([0.7 - 0.2j, 0.4j])
        for shell in ([(2, 1), (1, 2), (-1, 2), (-2, -1), (1, -2)],
                      [(1, 0), (0, 1), (-1, 0), (0, -1)]):
            ref = shell[0]
            sigma = BoundaryTrace(1, {(0.5, k): _rotation(k, ref) @ v for k in shell})
            out = solve_direct(SpectralField({}), sigma, p, t_end=20 * dt, dt=dt, Nz=96,
                               save_every=4)
            for k in shell[1:]:
                R = _rotation(k, ref)
                for n, ((u_ref, p_ref), (u, pr)) in enumerate(
                        zip(out[ref].snapshots, out[k].snapshots)):
                    if n == 0:
                        continue  # zero initial data
                    turned = u_ref.copy()
                    turned[:, :2] = u_ref[:, :2] @ R.T
                    assert _sup_rel(u, turned) < 1e-12, (k, n)
                    assert _sup_rel(pr, p_ref) < 1e-12, (k, n)
                    assert out[k].diagnostics[n]["energy"] == pytest.approx(
                        out[ref].diagnostics[n]["energy"], rel=1e-12)


class TestTrimmedBand:
    """_ModeSystem keeps only the rows of zgbtrf's band factor from the
    highest superdiagonal that the pivoting fill reaches, and solves with
    that band: the solves must equal those on the full factor bit for bit."""

    SHELLS = (0, 1, 2, 4, 5, 8)  # |k_h|^2 of the columns |k1|, |k2| <= 2

    # U's fill reaches superdiagonal 7 of the kl + ku = 8 stored, and all 8
    # at eps = 1e-3, Nz = 256, dt = eps/10, where the trim keeps the whole
    # band (the reduced column: 2 to 4 of 4)
    @pytest.mark.parametrize("Nz, eps", [(64, 1e-2), (256, 1e-2), (256, 1e-3)])
    @pytest.mark.parametrize("dt_factor", [10, 50])
    def test_trimmed_solve_equals_full_factor_solve(self, monkeypatch, Nz, eps, dt_factor):
        lib = direct.solver_modules()
        factors = []  # a copy of each full band factor, in build order

        def capturing_zgbtrf(*args, **kwargs):
            out = lib.zgbtrf(*args, **kwargs)
            factors.append(out[0].copy(order="F"))
            return out

        monkeypatch.setattr(direct, "solver_modules",
                            lambda: lib._replace(zgbtrf=capturing_zgbtrf))
        p = Params(eps, eps)
        z = graded_nodes(Nz, p.layer_scale)
        rng = np.random.default_rng(Nz + dt_factor)
        for kh2 in self.SHELLS:
            sys_ = _ModeSystem((math.sqrt(kh2), 0.0), p, z, p.epsilon / dt_factor)
            full = factors[-1]
            kl, ku, ku_s = sys_.kl, sys_.ku, sys_.ku_s
            assert full.shape == (2 * kl + ku + 1, sys_.n)
            assert sys_.lu.shape == (2 * kl + ku_s + 1, sys_.n)
            assert sys_.lu.flags.f_contiguous
            # row kl + ku - d of the band holds superdiagonal d of U
            filled = [kl + ku - r for r in range(kl + ku) if np.any(full[r])]
            assert ku_s == max(0, max(filled) - kl) <= ku
            # what is dropped is exactly zero, what is kept is the factor
            assert not np.any(full[:ku - ku_s])
            assert np.array_equal(sys_.lu, full[ku - ku_s:])
            for nrhs in (1, 4):
                b = (rng.standard_normal((sys_.n, nrhs))
                     + 1j * rng.standard_normal((sys_.n, nrhs)))
                x_full, info = lib.zgbtrs(full, kl, ku, np.asfortranarray(b), sys_.piv)
                assert info == 0
                x_trim, info = lib.zgbtrs(sys_.lu, kl, ku_s, np.asfortranarray(b), sys_.piv)
                assert info == 0
                assert np.array_equal(x_trim, x_full), (kh2, nrhs)
                # the step's own solve, with a stress on the stress rows
                g = rng.standard_normal((2, nrhs)) + 0j
                b_step = sys_.rhs_scale * b
                b_step[sys_.stress_rows] += sys_.stress_scale * g
                x_ref, _ = lib.zgbtrs(full, kl, ku, np.asfortranarray(b_step), sys_.piv)
                assert np.array_equal(sys_.midpoint(np.asfortranarray(b), g), x_ref), (kh2, nrhs)

    def test_one_trimmed_solve_per_step_per_shell(self, monkeypatch):
        lib = direct.solver_modules()
        calls = []

        def counting_zgbtrs(ab, kl, ku, b, *args, **kwargs):
            calls.append((ab.shape[0], kl, ku, b.shape[1]))
            return lib.zgbtrs(ab, kl, ku, b, *args, **kwargs)

        monkeypatch.setattr(direct, "solver_modules",
                            lambda: lib._replace(zgbtrs=counting_zgbtrs))
        p = Params(1e-2, 1e-2, beta=1.0)
        columns = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
        sigma = BoundaryTrace(1, {(0.0, k): np.array([1.0, 0.5j]) for k in columns})
        nsteps = 7
        out = solve_direct(SpectralField({}), sigma, p, t_end=nsteps * p.epsilon / 10,
                           Nz=64, save_every=3)
        assert len(out) == 25
        # columns per shell: |k_h|^2 = 0, 1, 2, 4, 5, 8; the start's two
        # half steps are two solves
        assert sorted(c[3] for c in calls) == sorted(
            ncol for ncol in (1, 4, 4, 4, 8, 4) for _ in range(nsteps + 1))
        for rows, kl, ku, _ in calls:
            assert rows == 2 * kl + ku + 1  # the band passed is the trimmed one
        # the reduced (k_h = 0) and the full system
        systems = [_ModeSystem((r, 0.0), p, out[(1, 0)].z, p.epsilon / 10) for r in (0.0, 1.0)]
        assert {ku for _, _, ku, _ in calls} == {s.ku_s for s in systems}
        assert all(s.ku_s < s.ku for s in systems)


def test_band_width_independent_of_nz():
    # interleaving keeps the saddle matrix banded; a layout that coupled
    # node i to an O(Nz)-distant unknown would widen the band with Nz.  Every
    # stencil reaches one node: with the half-cell top row no row reaches
    # two nodes down, as the one-sided stress row did (kl 8 and 4)
    p = Params(1e-2, 1e-2)
    for k_h, band in (((1, 0), 4), ((0, 0), 2)):
        for Nz in (128, 512):
            s = _ModeSystem(k_h, p, graded_nodes(Nz, p.layer_scale), p.epsilon / 10)
            assert (s.kl, s.ku) == (band, band), (k_h, Nz)


class TestFitDecay:
    def _synthetic(self, rate, times, k=(1, 0, 1)):
        z = np.linspace(0, 1, 65)
        traj = ModeTrajectory(k_h=(1, 0), z=z)
        prof = basis_profile(k, z).T
        for t in times:
            traj.times.append(t)
            traj.snapshots.append((np.exp(-rate * t) * prof, np.zeros(64)))
            traj.diagnostics.append({"t": t})
        return traj

    def test_exact_exponential_recovered(self):
        rate = 1.7 - 0.3j
        traj = self._synthetic(rate, np.linspace(0, 2, 41))
        fit = fit_decay(traj, (0.0, 2.0), (1, 0, 1))
        assert abs(fit.rate - rate) < 1e-8
        assert not fit.flagged

    def test_short_window_flagged(self):
        traj = self._synthetic(1.0, np.linspace(0, 0.3, 21))
        fit = fit_decay(traj, (0.0, 0.3), (1, 0, 1))
        assert fit.flagged
        assert "window shorter than one slow e-fold" in fit.reasons

    def test_non_exponential_flagged(self):
        z = np.linspace(0, 1, 65)
        traj = ModeTrajectory(k_h=(1, 0), z=z)
        prof = basis_profile((1, 0, 1), z).T
        for t in np.linspace(0.1, 3.0, 31):
            traj.times.append(t)
            traj.snapshots.append(((1.0 / (1.0 + 3 * t)) * prof, np.zeros(64)))
        fit = fit_decay(traj, (0.1, 3.0), (1, 0, 1))
        assert "non-exponential window" in fit.reasons

    def test_too_few_points_rejected(self):
        traj = self._synthetic(1.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="fewer than 3"):
            fit_decay(traj, (0.0, 1.0), (1, 0, 1))


def test_csv_dumps(tmp_path):
    p = Params(1e-2, 1e-2)
    out = solve_direct(SpectralField({(1, 0, 1): 1.0}), None, p,
                       t_end=0.02, Nz=96, save_every=10)
    traj = out[(1, 0)]
    snap = tmp_path / "snap.csv"
    diag = tmp_path / "diag.csv"
    snapshot_csv(traj, snap)
    diagnostics_csv(traj, diag)
    lines = snap.read_text().splitlines()
    assert lines[0].startswith("t,z,re_u1")
    assert len(lines) == 1 + len(traj.times) * len(traj.z)
    dlines = diag.read_text().splitlines()
    assert "energy" in dlines[0]
    assert len(dlines) == 1 + len(traj.diagnostics)
