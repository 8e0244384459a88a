"""Lifts, small-divisor correctors and assembled approximations."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotstrip.params import Params
from numpy.polynomial import Polynomial

from rotstrip.spectral import (
    SpectralField,
    StripQuadrature,
    basis_normal,
    basis_profile,
    eigenvalue,
    eigenvalues,
    euclidean_norm,
)
from rotstrip.layers import (BoundaryTrace, LayerTable, ModulatedBL, build_B, build_layers,
                             empty_trace)
from rotstrip import correctors
from rotstrip.correctors import (
    ExpSource,
    OscillatingPoly,
    SourceTable,
    SpectralPart,
    ZPolyField,
    _lift_equation_bound,
    assemble_dirichlet_approx,
    assemble_wind_approx,
    column_forms,
    divisor_bounds,
    divisor_case_bound,
    lift_interior_vint0,
    lift_interior_vint1,
    scaling_check,
    small_divisor_corrector,
    stopping_lift,
    truncation_choice,
)
from norm_grid import norm_grid


def loglog_slope(x, y):
    return np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0]


ZERO2 = np.zeros(2, dtype=complex)


class TestStoppingLift:
    def test_zero_data_zero_lift(self):
        w = stopping_lift({}, {})
        assert not w.modes

    def test_constant_vertical_flux(self):
        c = 0.8 - 0.3j
        w = stopping_lift({(0, 0): (ZERO2, c)}, {(0, 0): (ZERO2, c)})
        z = np.linspace(0, 1, 7)
        prof = w.hat_profile((0, 0), z)
        assert np.allclose(prof[0], 0) and np.allclose(prof[1], 0)
        assert np.allclose(prof[2], c)

    def test_incompatible_mean_rejected(self):
        with pytest.raises(ValueError, match="mean"):
            stopping_lift({(0, 0): (ZERO2, 1.0)}, {(0, 0): (ZERO2, 0.0)})

    def test_single_mode_elliptic_solve(self):
        # delta0_3 = e^{i x1}: phi from the elliptic balance, divergence exact
        w = stopping_lift({(1, 0): (ZERO2, 1.0 + 0j)}, {})
        assert w.divergence_residual() < 1e-12
        tr = w.trace(0)[(1, 0)]
        assert tr[2] == pytest.approx(1.0, abs=1e-14)
        assert w.trace(1)[(1, 0)][2] == pytest.approx(0.0, abs=1e-13)

    def test_exact_traces_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d0, d1 = {}, {}
            for k_h in [(0, 0), (1, 0), (2, -1), (1, 3)]:
                c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
                v1 = complex(rng.standard_normal() + 1j * rng.standard_normal())
                if k_h == (0, 0):
                    v1 = v0  # compatibility
                d0[k_h] = (c0, v0)
                d1[k_h] = (c1, v1)
            w = stopping_lift(d0, d1)
            assert w.divergence_residual() < 1e-12
            for k_h in d0:
                tr0 = w.trace(0)[k_h]
                assert np.allclose(tr0[:2], d0[k_h][0], atol=1e-12)
                assert abs(tr0[2] - d0[k_h][1]) < 1e-12
                assert abs(w.trace(1)[k_h][2] - d1[k_h][1]) < 1e-12
                assert np.allclose(w.dz_horizontal_trace(1)[k_h], d1[k_h][0], atol=1e-12)

    def test_h2_bound_single_constant(self):
        # fit C once, then honor it over a fresh batch of random trace sets
        rng = np.random.default_rng(42)

        def random_data(rng):
            d0, d1 = {}, {}
            for k_h in [(0, 0), (1, 0), (0, 2), (2, 1), (3, -2)]:
                c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
                v1 = v0 if k_h == (0, 0) else complex(rng.standard_normal())
                d0[k_h] = (c0, v0)
                d1[k_h] = (c1, v1)
            return d0, d1

        def h3_data_norm(d):
            total = 0.0
            for k_h, (ch, c3) in d.items():
                wt = (1.0 + k_h[0] ** 2 + k_h[1] ** 2) ** 3
                total += wt * (np.sum(np.abs(ch) ** 2) + abs(c3) ** 2)
            return math.sqrt(total)

        ratios = []
        for _ in range(20):
            d0, d1 = random_data(rng)
            w = stopping_lift(d0, d1)
            ratios.append(w.h2_norm() / (h3_data_norm(d0) + h3_data_norm(d1)))
        C = 1.05 * max(ratios)
        for _ in range(100):
            d0, d1 = random_data(rng)
            w = stopping_lift(d0, d1)
            assert w.h2_norm() <= C * (h3_data_norm(d0) + h3_data_norm(d1))


class TestInteriorLifts:
    def test_vint0_zero(self):
        assert not lift_interior_vint0({}, {}, Params(1e-3, 1e-3)).modes

    def test_vint0_single_mode_sign(self):
        p = Params(1e-4, 1e-4)
        f = lift_interior_vint0({(1, 0): 1.0 + 0j}, {}, p)
        prof = f.hat_profile((1, 0), np.array([0.37]))
        root = p.layer_scale
        # v_h = -i sqrt(eps nu) e^{i x1} e_1, from Lap^{-1} = -1/|k_h|^2
        assert prof[0, 0] == pytest.approx(-1j * root, abs=1e-15)
        assert prof[1, 0] == 0
        assert f.divergence_residual() < 1e-12 * root

    def test_vint0_realises_suction_traces(self):
        p = Params(1e-4, 2e-3)
        f = lift_interior_vint0({(2, 1): 0.3 - 1j}, {(2, 1): 0.7j}, p)
        root = p.layer_scale
        assert f.trace(0)[(2, 1)][2] == pytest.approx(root * (0.3 - 1j), abs=1e-16)
        assert f.trace(1)[(2, 1)][2] == pytest.approx(root * 0.7j, abs=1e-16)
        assert f.divergence_residual() < 1e-12

    def test_vint0_norm_scaling(self):
        norms, scales = [], []
        for eps in [1e-2, 1e-4, 1e-6]:
            p = Params(eps, eps)
            f = lift_interior_vint0({(1, 0): 1.0 + 0j}, {}, p)
            norms.append(f.l2_norm())
            scales.append(p.layer_scale)
        assert loglog_slope(scales, norms) == pytest.approx(1.0, abs=1e-6)

    def test_vint0_rejects_mean(self):
        with pytest.raises(ValueError, match="mean"):
            lift_interior_vint0({(0, 0): 1.0}, {}, Params(1e-3, 1e-3))

    def test_vint1_zero_and_mean(self):
        assert not lift_interior_vint1({}).modes
        assert not lift_interior_vint1({(0, 0): 0.0}).modes
        with pytest.raises(ValueError, match="mean"):
            lift_interior_vint1({(0, 0): 1.0})

    def test_vint1_divergence_and_trace(self):
        f = lift_interior_vint1({(1, -2): 2.0 + 1j})
        assert f.divergence_residual() < 1e-12
        assert f.trace(1)[(1, -2)][2] == pytest.approx(-(2.0 + 1j), abs=1e-15)
        assert f.trace(0)[(1, -2)][2] == 0


class TestScalarProductForms:
    QUAD = StripQuadrature(nx=24, ny=24, nz=48)

    def _quadrature_forms(self, l):
        X1, X2, Z = self.QUAD.mesh()
        phase = np.exp(1j * (l[0] * X1 + l[1] * X2))
        kh2 = l[0] ** 2 + l[1] ** 2
        F1_field = np.stack([1j * l[0] * phase, 1j * l[1] * phase, kh2 * Z * phase])
        F2_field = np.stack([-1j * l[1] * phase, 1j * l[0] * phase, np.zeros_like(phase)])
        G_field = np.stack([np.zeros_like(phase), np.zeros_like(phase), phase])
        nl = self.QUAD.sample(l)
        return (self.QUAD.inner(nl, F1_field), self.QUAD.inner(nl, F2_field),
                self.QUAD.inner(nl, G_field))

    def test_flat_mode_value(self):
        (F1,), (F2,), _, _ = column_forms((2, -1), [0])
        assert F1 == 0
        assert F2 == pytest.approx(-2.0 * math.pi * math.sqrt(5.0), abs=1e-12)

    def test_oscillating_mode_second_form_vanishes(self):
        _, (F2,), _, _ = column_forms((1, 0), [3])
        assert F2 == 0

    def test_against_quadrature_oracle(self):
        for l in [(1, 0, 1), (1, 2, 3), (2, -1, 0), (1, 1, -2), (3, 0, 2)]:
            (F1,), (F2,), (G,), _ = column_forms(l[:2], [l[2]])
            qF1, qF2, qG = self._quadrature_forms(l)
            assert abs(F1 - qF1) < 1e-10
            assert abs(F2 - qF2) < 1e-10
            assert abs(G - qG) < 1e-10


class TestSmallDivisor:
    def test_zero_source(self):
        out = small_divisor_corrector(SourceTable({}), 5, Params(1e-3, 1e-3), 1.0)
        assert len(out) == 0

    def test_resonant_entry_rejected(self):
        l = (1, 0, 1)
        with pytest.raises(ValueError, match="resonant"):
            SourceTable({(-eigenvalue(l), l): ExpSource(1.0)})

    def test_near_resonant_entry_rejected(self):
        l = (1, 0, 1)
        with pytest.raises(ValueError, match="resonant"):
            SourceTable({(-eigenvalue(l) + 1e-13, l): ExpSource(1.0)})

    def test_closed_matches_quadrature(self):
        p = Params(1e-2, 1e-2)
        l = (1, 0, 1)
        src = SourceTable({(1.0, l): ExpSource(0.7 - 0.2j, 0.5 + 0.1j)})
        t = 0.8
        for variant in ("special", "zero_ic"):
            closed = small_divisor_corrector(src, 5, p, t, variant=variant)
            quad = small_divisor_corrector(src, 5, p, t, variant=variant, method="quadrature")
            assert abs(closed[l] - quad[l]) < 1e-10 * max(abs(closed[l]), 1e-12)

    def test_linear_in_epsilon(self):
        l = (1, 0, 2)
        t = 0.5
        norms, epss = [], []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            p = Params(eps, eps)
            src = SourceTable({(1.0, l): ExpSource(1.0, 0.3)})
            out = small_divisor_corrector(src, 5, p, t)
            norms.append(out.norm())
            epss.append(eps)
        assert loglog_slope(epss, norms) == pytest.approx(1.0, abs=0.05)

    def test_truncation_drops_high_modes(self):
        p = Params(1e-3, 1e-3)
        src = SourceTable({(2.0, (1, 0, 9)): ExpSource(1.0), (2.0, (1, 0, 1)): ExpSource(1.0)})
        out = small_divisor_corrector(src, 3, p, 0.1)
        assert (1, 0, 9) not in out.coeffs and (1, 0, 1) in out.coeffs


class TestDuhamelKernel:
    """One kernel, _duhamel, forms the Duhamel amplitudes of both assemblies
    and of the closed-form small-divisor corrector."""

    def counted(self, monkeypatch):
        calls = []  # rows per call
        duhamel = correctors._duhamel

        def counting(l, s, mu, rate, params):
            calls.append(len(np.reshape(l, (-1, 3))))
            return duhamel(l, s, mu, rate, params)

        monkeypatch.setattr(correctors, "_duhamel", counting)
        return calls

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_one_call_per_flux_entry_of_the_wind_assembly(self, monkeypatch):
        # two quasi-resonant entries carry a flux; the classical one does not
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j]),
                                  (-1.0, (0, 2)): np.array([0.3, -0.2j]),
                                  (0.5, (1, 1)): np.array([0.2, 0.1])})
        calls = self.counted(monkeypatch)
        sol = assemble_wind_approx(sigma, Params(1e-3, 1e-3, beta=1.0))
        assert len(calls) == 2
        assert sum(calls) == len(sol.parts["oscillating_corrector"].modes())

    @pytest.mark.parametrize("variant", ["special", "zero_ic"])
    def test_one_call_per_suction_mode_of_the_dirichlet_assembly(self, monkeypatch, variant):
        gamma = SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5 - 0.2j,
                               (0, 0, 1): 0.8})
        calls = self.counted(monkeypatch)
        sol = assemble_dirichlet_approx(gamma, Params(1e-4, 1e-4), corrector_variant=variant)
        assert len(calls) == 3  # the modes with k_h != 0
        assert sum(calls) == len(sol.parts["oscillating_corrector"].modes())

    def test_one_call_per_closed_form_entry(self, monkeypatch):
        src = SourceTable({(1.0, (1, 0, 1)): ExpSource(0.7 - 0.2j, 0.5 + 0.1j),
                           (2.0, (1, 0, 1)): ExpSource(1.0),
                           (0.5, (0, 2, -1)): ExpSource(0.3j, 0.2)})
        calls = self.counted(monkeypatch)
        for variant in ("special", "zero_ic"):
            calls.clear()
            small_divisor_corrector(src, 5, Params(1e-2, 1e-2), 0.8, variant=variant)
            assert calls == [1, 1, 1]


class TestDivisorBounds:
    def test_far_frequency_bounded(self):
        assert divisor_bounds((5, 2, -7), 2.0) <= 1.0

    def test_resonant_pair_value(self):
        assert divisor_bounds((1, 0, 1), 1.0) == pytest.approx(21.227147325697068, rel=1e-12)

    def test_case_bound_scan(self):
        worst = 0.0
        for l1 in range(0, 8):
            for l2 in range(0, 8):
                for l3 in range(-8, 9):
                    l = (l1, l2, l3)
                    if l == (0, 0, 0) or (l1 == 0 and l2 == 0):
                        continue
                    if euclidean_norm(l) > 50:
                        continue
                    for mu in (0.0, 1.0, -1.0, 2.0):
                        if abs(eigenvalue(l) + mu) < 1e-12:
                            continue
                        worst = max(worst, divisor_bounds(l, mu) / divisor_case_bound(l, mu))
        # bounded by a fixed O(1) constant (~2 pi^2 for the resonant class)
        assert worst < 25.0

    def test_generic_interior_frequency_has_no_uniform_bound(self):
        with pytest.raises(ValueError, match="uniform"):
            divisor_case_bound((1, 0, 1), 0.5)

    def test_eigenvalue_pair_bound_scan(self):
        from rotstrip.correctors import eigenvalue_divisor_bound

        worst = 0.0
        for l_h in [(1, 0), (2, 1), (3, -2)]:
            for l3 in range(-6, 7):
                for k3 in range(-6, 7):
                    if k3 == l3:
                        continue
                    l = (l_h[0], l_h[1], l3)
                    k = (l_h[0], l_h[1], k3)
                    if l == (0, 0, 0) or k == (0, 0, 0):
                        continue
                    val = 1.0 / abs(eigenvalue(l) - eigenvalue(k))
                    worst = max(worst, val / eigenvalue_divisor_bound(l, k))
        assert worst < 25.0


class TestTruncationChoice:
    def test_dirichlet_value(self):
        assert truncation_choice(Params(1e-4, 1e-4), "dirichlet") == 100

    def test_wind_small_nu_value(self):
        assert truncation_choice(Params(1e-4, 1e-4), "wind_small_nu") == 10

    def test_monotone_in_epsilon(self):
        for regime in ("wind_small_nu", "wind_large_nu", "dirichlet"):
            Ks = [truncation_choice(Params(eps, eps), regime) for eps in (1e-2, 1e-4, 1e-6)]
            assert Ks[0] <= Ks[1] <= Ks[2]


class TestScalingCheck:
    def test_order_one_stress_passes(self):
        ok, _ = scaling_check(Params(1e-4, 1e-5, beta=1.0))
        assert ok

    def test_moderate_growth_passes(self):
        nu = 1e-4
        eps = 1e-4
        beta = nu ** -0.5 * eps ** 0.25
        ok, _ = scaling_check(Params(eps, nu, beta=beta))
        assert ok

    def test_excessive_growth_fails(self):
        nu = 1e-6
        ok, diag = scaling_check(Params(1e-6, nu, beta=1.0 / nu))
        assert not ok
        assert diag["beta"] > diag["bound"]


class TestWindAssembly:
    def test_zero_stress(self):
        p = Params(1e-3, 1e-3, beta=1.0)
        sol = assemble_wind_approx(BoundaryTrace(1, {}), p)
        assert sol.total_norm(0.3) == 0.0

    def test_nonresonant_single_mode_structure(self):
        p = Params(1e-3, 1e-3, beta=1.0)
        sigma = BoundaryTrace(1, {(0.0, (1, 0)): np.array([1.0, 0.0])})
        sol = assemble_wind_approx(sigma, p)
        norms = sol.part_norms(0.2)
        assert norms["surface_layer"] > 0
        assert norms["flux_corrector"] == 0
        assert norms["oscillating_corrector"] == 0
        assert norms["secondary_layer"] == 0
        assert norms["stopping_lift"] > 0

    def test_nonresonant_norm_scaling(self):
        norms, ens = [], []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
            p = Params(eps, eps, beta=1.0)
            sigma = BoundaryTrace(1, {(0.0, (1, 0)): np.array([1.0, 0.0])})
            sol = assemble_wind_approx(sigma, p)
            norms.append(max(sol.total_norm(t) for t in (0.0, 0.1, 0.3)))
            ens.append(p.eps_nu)
        assert loglog_slope(ens, norms) == pytest.approx(0.75, abs=0.05)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_quasi_resonant_populates_all_parts(self):
        p = Params(1e-3, 1e-3, beta=1.0)
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j])})
        sol = assemble_wind_approx(sigma, p)
        norms = sol.part_norms(0.2)
        for name in ("surface_layer", "flux_corrector", "oscillating_corrector",
                      "secondary_layer", "stopping_lift"):
            assert norms[name] > 0, name
        # every corrector is subordinate to the layer it corrects
        assert norms["flux_corrector"] < norms["surface_layer"]

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_flux_corrector_scales_like_beta_nu(self):
        norms, nus = [], []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
            p = Params(eps, eps, beta=1.0)
            sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.0])})
            sol = assemble_wind_approx(sigma, p)
            norms.append(sol.parts["flux_corrector"].l2_norm(0.1))
            nus.append(eps)
        assert loglog_slope(nus, norms) == pytest.approx(1.0, abs=0.1)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_quasi_resonant_norm_vanishes_along_sweep(self):
        totals = []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
            p = Params(eps, eps, beta=1.0)
            sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j])})
            sol = assemble_wind_approx(sigma, p)
            totals.append(sol.total_norm(0.1))
        assert all(totals[i + 1] < totals[i] for i in range(len(totals) - 1))

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_large_nu_regime_assembles(self):
        # nu >> eps: the quasi-resonant rate selection is genuinely ambiguous
        # (recorded), the truncation switches branch, and the assembly still
        # meets the boundary conditions
        p = Params(1e-4, 1e-2, beta=1.0)
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.0])})
        sol = assemble_wind_approx(sigma, p)
        assert sol.meta["K"] == truncation_choice(p, "wind_large_nu")
        z_wall = np.array([0.0, 1.0])
        for k_h in sol.horizontal_modes():
            prof = sol.hat_profile(k_h, 0.11, z_wall)
            assert abs(prof[2, 0]) < 1e-9 and abs(prof[2, 1]) < 1e-9
            assert np.all(np.abs(prof[:2, 0]) < 1e-5)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_boundary_conditions_of_total(self):
        # horizontal Dirichlet at z=0 and vertical flux at both walls are met
        # to the recorded residual sizes
        p = Params(1e-3, 1e-3, beta=1.0)
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.0])})
        sol = assemble_wind_approx(sigma, p)
        t = 0.17
        z_wall = np.array([0.0, 1.0])
        for k_h in sol.horizontal_modes():
            prof = sol.hat_profile(k_h, t, z_wall)
            assert abs(prof[2, 0]) < 1e-10  # u3(z=0)
            assert abs(prof[2, 1]) < 1e-10  # u3(z=1)
            assert np.all(np.abs(prof[:2, 0]) < 1e-6)  # u_h(z=0) small


class TestStressColumnResponse:
    def _response(self, p):
        from rotstrip.layers import HeatColumn, build_B, empty_trace

        sigma = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 1j])})
        bl = build_B(empty_trace(0), sigma, p)
        (layer,) = bl.resonant
        return HeatColumn(layer.side, layer.nu, layer.epsilon, layer.entries), layer

    def test_exact_boundary_data(self):
        p = Params(1e-2, 1e-2)
        resp, _ = self._response(p)
        t = 7.3
        z = np.array([0.0, 1.0 - 1e-6, 1.0])
        prof = resp.value(t, z)
        assert np.allclose(prof[:, 0], 0.0, atol=1e-12)  # no-slip bottom
        dz = (prof[:2, 2] - prof[:2, 1]) / 1e-6  # top stress = filtered amplitude
        assert dz[0] == pytest.approx(np.exp(1j * t / p.epsilon), rel=1e-4)

    def test_matches_selfsimilar_early(self):
        p = Params(1e-2, 1e-2)
        resp, layer = self._response(p)
        t = 1e-3 / p.nu  # nu t = 1e-3: layer far from the bottom
        z = np.linspace(0.3, 1.0, 200)
        a = resp.value(t, z)
        b = layer.value(t, z)
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) < 1e-6 * scale

    def test_saturates_to_linear_shear(self):
        p = Params(1e-2, 1e-2)
        resp, _ = self._response(p)
        t = 100.0 / p.nu
        z = np.linspace(0, 1, 50)
        prof = resp.value(t, z)
        target = np.exp(1j * t / p.epsilon) * z
        assert np.allclose(prof[0], target, atol=1e-8)


class TestValueColumnResponse:
    def _response(self, p):
        from rotstrip.layers import HeatColumn

        trace = BoundaryTrace(0, {(1.0, (0, 0)): np.array([1.0, 1j])})
        (layer,) = build_B(trace, empty_trace(1), p).resonant
        return HeatColumn(layer.side, layer.nu, layer.epsilon, layer.entries), layer

    def test_exact_boundary_data(self):
        p = Params(1e-2, 1e-2)
        resp, _ = self._response(p)
        t = 7.3
        z = np.array([0.0, 1.0 - 1e-6, 1.0])
        prof = resp.value(t, z)
        # bottom value = filtered amplitude, exactly
        assert np.array_equal(prof[:, 0], np.exp(1j * t / p.epsilon) * np.array([1.0, 1j, 0.0]))
        dz = (prof[:2, 2] - prof[:2, 1]) / 1e-6  # stress-free top
        assert np.all(np.abs(dz) < 1e-5)

    def test_matches_selfsimilar_early(self):
        p = Params(1e-2, 1e-2)
        resp, layer = self._response(p)
        t = 1e-3 / p.nu  # nu t = 1e-3: layer far from the top
        z = np.linspace(0.0, 0.7, 200)
        a = resp.value(t, z)
        b = layer.value(t, z)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    def test_side_is_a_wall(self):
        from rotstrip.layers import HeatColumn

        with pytest.raises(ValueError, match="side"):
            HeatColumn(2, 1e-2, 1e-2)


def _series_reference(side, nu, t, z, terms=4000):
    """The strip column's sine series (Carslaw & Jaeger, Conduction of Heat
    in Solids, 3.3) over `terms` terms, summed in blocks of 500."""
    m = np.arange(terms)
    w = (m + 0.5) * math.pi
    decay = np.exp(-nu * w ** 2 * t)
    coeffs = 2.0 / w * decay if side == 0 else 2.0 * (-1.0) ** m / w ** 2 * decay
    theta = sum(np.sin(np.multiply.outer(z, w[i:i + 500])) @ coeffs[i:i + 500]
                for i in range(0, terms, 500))
    return (1.0 if side == 0 else z) - theta


def _quad_shape_sq(layer, t):
    """int_0^1 shape^2 by adaptive quadrature on panels refined geometrically
    toward the layer's wall.  Rounding of the profile keeps quad from its
    1e-13 goal on some panels; the warning that it says so is silenced."""
    from scipy.integrate import IntegrationWarning, quad

    width = 2.0 * math.sqrt(layer.nu * t)
    cuts = [k * width for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32) if k * width < 1.0]
    edges = sorted({0.0, 1.0, *(cuts if layer.side == 0 else [1.0 - c for c in cuts])})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return math.fsum(quad(lambda z: float(layer._shape(t, np.array([z]))[0]) ** 2, a, b,
                              epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(edges, edges[1:]))


class TestHeatColumnSeries:
    """The strip column against independent references: the half-space
    closed form of its wall (layers.resonant_profile) while the far wall does
    not matter, a 4000-term sine series where that converges, and adaptive
    quadrature of the profile for the closed-form norms of both resonant
    layer classes."""

    P = Params(1e-3, 1e-3)
    NU_T = (1e-8, 1e-6, 3e-5, 1e-4, 1e-3, 3e-3, 9.99e-3, 1e-2, 0.05, 0.3, 1.0)
    NORM_NU_T = (1e-8, 1e-6, 1e-4, 9.99e-3, 1e-2, 0.05, 0.3, 1.0)

    def test_matches_the_half_space_profile(self):
        from rotstrip.layers import HeatColumn, resonant_profile

        z = norm_grid(self.P, 800)
        for side in (0, 1):
            col = HeatColumn(side, self.P.nu, self.P.epsilon)
            for nu_t in [v for v in self.NU_T if v <= 3e-3]:
                t = nu_t / self.P.nu
                want = resonant_profile(side, 1.0, self.P.nu, t, z)
                got = col._shape(t, z)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (side, nu_t)

    def test_matches_a_4000_term_series(self):
        from rotstrip.layers import HeatColumn

        z = norm_grid(self.P, 800)
        for side in (0, 1):
            col = HeatColumn(side, self.P.nu, self.P.epsilon)
            for nu_t in [v for v in self.NU_T if v >= 3e-5]:
                t = nu_t / self.P.nu
                want = _series_reference(side, self.P.nu, t, z)
                got = col._shape(t, z)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (side, nu_t)

    def test_wall_conditions(self):
        """Side 0: value 1 at the bottom and no stress at the top; side 1: no
        slip at the bottom and unit stress at the top (second-order one-sided
        differences of step h)."""
        from rotstrip.layers import HeatColumn

        h = 1e-6
        top = np.array([1.0 - 2.0 * h, 1.0 - h, 1.0])
        for side in (0, 1):
            col = HeatColumn(side, self.P.nu, self.P.epsilon)
            for nu_t in (3e-5, 1e-4, 1e-3, 3e-3, 0.05, 0.1, 1.0):
                t = nu_t / self.P.nu
                assert col._shape(t, np.array([0.0]))[0] == (1.0 if side == 0 else 0.0)
                f = col._shape(t, top)
                stress = (f[0] - 4.0 * f[1] + 3.0 * f[2]) / (2.0 * h)
                assert stress == pytest.approx(float(side), abs=1e-6), (side, nu_t)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("cls", ["ResonantLayer", "HeatColumn"])
    def test_norm_matches_quadrature(self, cls, side):
        from rotstrip import layers

        layer = getattr(layers, cls)(side, self.P.nu, self.P.epsilon)
        for nu_t in self.NORM_NU_T:
            t = nu_t / self.P.nu
            assert layer._shape_sq(t) == pytest.approx(_quad_shape_sq(layer, t), rel=1e-12), nu_t

    @pytest.mark.parametrize("side", [0, 1])
    def test_continuous_across_the_switch(self, side):
        # the image sum just below nu t = 0.01, the sine series at it
        from rotstrip.layers import HeatColumn

        z = norm_grid(self.P, 800)
        col = HeatColumn(side, self.P.nu, self.P.epsilon)
        below, at = np.nextafter(0.01, 0.0) / self.P.nu, 0.01 / self.P.nu
        assert self.P.nu * below < 0.01 <= self.P.nu * at
        profile = col._shape(at, z)
        assert np.abs(col._shape(below, z) - profile).max() <= 1e-12 * np.abs(profile).max()
        assert col._shape_sq(below) == pytest.approx(col._shape_sq(at), rel=1e-12)

    def test_norm_is_zero_at_time_zero(self):
        from rotstrip.layers import HeatColumn

        for side in (0, 1):
            col = HeatColumn(side, self.P.nu, self.P.epsilon, [(1.0, 1.0)])
            assert col.l2_norm_h(0.0) == 0.0

    @pytest.mark.parametrize("side", [0, 1])
    def test_norm_is_the_half_space_norm_at_small_nu_t(self, side):
        # the strip and the half-space differ by image terms of order erfc(500)
        from rotstrip.layers import HeatColumn, ResonantLayer

        t = 1e-6 / self.P.nu
        entries = [(1.0, 1.0)]
        want = ResonantLayer(side, self.P.nu, self.P.epsilon, entries).l2_norm_h(t)
        got = HeatColumn(side, self.P.nu, self.P.epsilon, entries).l2_norm_h(t)
        assert got == pytest.approx(want, rel=1e-12)


class TestDirichletAssembly:
    def test_zero_data(self):
        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(SpectralField({}), p)
        assert sol.total_norm(0.1) == 0.0

    def test_one_layer_solve_per_layer_entry(self, monkeypatch):
        # rows solved through the rate batch: one shared by the pumping rate
        # and the bottom layer (whose vertical trace gives the suction), one
        # for the secondary layer
        from rotstrip import envelope, layers

        rows = []
        original = layers.rate_batch

        def counting(mu, *args, **kwargs):
            rows.append(len(np.asarray(mu).reshape(-1)))
            return original(mu, *args, **kwargs)

        for module in (layers, envelope):
            monkeypatch.setattr(module, "rate_batch", counting)
        assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), Params(1e-2, 1e-2))
        assert sum(rows) == 2

    def test_single_mode_layer_scaling(self):
        norms, ens = [], []
        for eps in [1e-2, 1e-3, 1e-4]:
            p = Params(eps, eps)
            sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
            norms.append(sol.parts["bottom_layer"].l2_norm(0.0))
            ens.append(p.eps_nu)
        assert loglog_slope(ens, norms) == pytest.approx(0.25, abs=0.05)

    def test_initial_mismatch_scaling(self):
        mism, ens = [], []
        for eps in [1e-2, 1e-3, 1e-4]:
            p = Params(eps, eps)
            sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
            mism.append(sol.residuals["initial_mismatch"])
            ens.append(p.eps_nu)
        assert loglog_slope(ens, mism) == pytest.approx(0.25, abs=0.1)

    def test_vertical_trace_residual_zero(self):
        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
        assert sol.residuals["eta0_vertical"] == 0.0

    def test_eta1_traces_exponentially_small(self):
        vals = []
        for eps in (4e-2, 1e-2):
            p = Params(eps, eps)
            sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
            vals.append(max(sol.residuals["eta1_stress_trace"], 1e-300))
        # exponential in 1/sqrt(eps nu): halving sqrt(eps nu) squares the ratio
        assert vals[1] < vals[0] ** 2

    def test_boundary_conditions_of_total(self):
        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0, (0, 0, 1): 0.5}), p)
        t = 0.21
        z_wall = np.array([0.0, 1.0])
        for k_h in sol.horizontal_modes():
            prof = sol.hat_profile(k_h, t, z_wall)
            assert abs(prof[2, 0]) < 1e-9
            assert abs(prof[2, 1]) < 1e-9
            assert np.all(np.abs(prof[:2, 0]) < 1e-6)

    def test_resonant_column_bounded_uniformly(self):
        p = Params(1e-3, 1e-3)
        g = SpectralField({(0, 0, 1): 1.0})
        sol = assemble_dirichlet_approx(g, p)
        col = sol.parts["resonant_column"]
        norms = [col.l2_norm(t) for t in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert max(norms) <= 2.0 * g.norm()

    def test_secondary_layer_part_norms_scale_rows_by_their_rate(self):
        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(
            SpectralField({(1, 0, 1): 1.0, (1, 0, 2): 0.5j, (0, 1, 2): 0.3}), p)
        part = sol.parts["secondary_layer"]
        assert np.all(part.rates.real > 0)
        norm_h, _ = part.table.norms()
        for t in (0.0, 0.1, 0.3):
            for name, quasi in (("classical", False), ("quasi_resonant", True)):
                want = math.sqrt(sum((norm_h[i] * abs(np.exp(-part.rates[i] * t))) ** 2
                                     for i in range(len(part.table))
                                     if part.table.quasi[i] == quasi))
                assert part.part_norm_h(name, t) == pytest.approx(want, rel=1e-14)
        assert 0.0 < part.part_norm_h("classical", 0.3) < part.part_norm_h("classical", 0.0)

    def test_zero_ic_variant_starts_corrector_from_zero(self):
        p = Params(1e-3, 1e-3)
        g = SpectralField({(1, 0, 1): 1.0, (1, 0, 2): 0.5})
        special = assemble_dirichlet_approx(g, p)
        zero_ic = assemble_dirichlet_approx(g, p, corrector_variant="zero_ic")
        assert special.parts["oscillating_corrector"].l2_norm(0.0) > 0
        assert zero_ic.parts["oscillating_corrector"].l2_norm(0.0) < 1e-14
        # both variants still meet the boundary conditions
        z_wall = np.array([0.0, 1.0])
        for sol in (special, zero_ic):
            for k_h in sol.horizontal_modes():
                prof = sol.hat_profile(k_h, 0.13, z_wall)
                assert abs(prof[2, 0]) < 1e-9 and abs(prof[2, 1]) < 1e-9
                assert np.all(np.abs(prof[:2, 0]) < 1e-6)
        with pytest.raises(ValueError, match="corrector_variant"):
            assemble_dirichlet_approx(g, p, corrector_variant="nope")

    def test_summary_serializes_to_json(self):
        import json

        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
        text = json.dumps(sol.summary(0.1), default=str)
        data = json.loads(text)
        assert "part_norms" in data and "residuals" in data
        assert data["part_norms"]["bottom_layer"] > 0

    def test_parts_vanish_along_sweep_except_envelope(self):
        p_names = ("bottom_layer", "flux_lift", "oscillating_corrector",
                   "secondary_layer", "stopping_lift")
        prev = {n: np.inf for n in p_names}
        for eps in [1e-2, 1e-3, 1e-4]:
            p = Params(eps, eps)
            sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0}), p)
            norms = sol.part_norms(0.1)
            for n in p_names:
                assert norms[n] < prev[n] + 1e-12
                prev[n] = norms[n]
            assert norms["interior_envelope"] > 0.5


# -- column-wise evaluation against the per-mode and per-entry formulas -------


def spectral_reference(part, k_h, t, z):
    """sum_l c_l(t) e^{-i lambda_l t/eps} basis_profile(l, z), one mode at a time."""
    out = np.zeros((3,) + z.shape, dtype=complex)
    for mode in part.modes():
        if mode[:2] == tuple(k_h):
            phase = np.exp(-1j * eigenvalue(mode) * t / part.params.epsilon)
            out += part.coefficient(mode, t) * phase * basis_profile(mode, z)
    return out


def poly_reference_l2(osc, t):
    """The Polynomial sum per column plus ref_poly_l2_sq."""
    total = 0.0
    for k_h in osc.horizontal_modes():
        combined = [Polynomial([0.0]) for _ in range(3)]
        for f, mu, rate in osc.entries:
            polys = f.modes.get(k_h)
            if polys is not None:
                phase = np.exp(1j * mu * t / osc.params.epsilon - rate * t)
                combined = [combined[c] + phase * polys[c] for c in range(3)]
        total += sum(ref_poly_l2_sq(p) for p in combined)
    return 2.0 * math.pi * math.sqrt(total)


def assert_column_close(got, ref, rel=1e-10):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert float(np.max(np.abs(got - ref))) <= rel * scale


class TestColumnEvaluation:
    def spectral_part(self, p, k_h, l3s, seed):
        rng = np.random.default_rng(seed)
        part = SpectralPart(p)
        for l3 in l3s:
            mode = (k_h[0], k_h[1], l3)
            s0 = complex(rng.standard_normal(), rng.standard_normal())
            part.add_rows([mode], s0, rate=rng.uniform(0.0, 3.0))
            if l3 % 3 == 0:
                part.add_rows([mode], 0.5 * s0, rng.uniform(-1.0, 1.0), 1.0)
        return part

    def test_spectral_column_matches_per_mode_sum(self):
        p = Params(1e-3, 1e-3)
        l3s = [l3 for l3 in range(-80, 81) if l3 != 0]
        assert len(l3s) > 2 * SpectralPart.CHUNK + 1  # several blocks and a partial tail
        part = self.spectral_part(p, (1, 0), l3s, seed=3)
        z = norm_grid(p, 800)
        for t in (0.0, 0.137, 0.5):
            assert_column_close(part.hat_profile((1, 0), t, z),
                                spectral_reference(part, (1, 0), t, z))
        assert not np.any(part.hat_profile((0, 1), 0.2, z))

    def test_spectral_column_added_after_evaluation(self):
        p = Params(1e-2, 1e-2)
        part = self.spectral_part(p, (1, 2), range(1, 5), seed=4)
        z = np.linspace(0.0, 1.0, 301)
        t = 0.31
        part.hat_profile((1, 2), t, z)
        # a new column, and new modes on the column evaluated already
        part.add_rows([(2, -1, 3)], 1.0 - 2j, rate=0.4)
        part.add_rows([(1, 2, -7)], 0.3j, rate=0.1)
        part.add_rows([(1, 2, 2)], 0.2)
        assert part.horizontal_modes() == [(1, 2), (2, -1)]
        for k_h in part.horizontal_modes():
            assert_column_close(part.hat_profile(k_h, t, z),
                                spectral_reference(part, k_h, t, z))

    def test_assembled_spectral_parts_match_per_mode_sum(self):
        p = Params(1e-4, 1e-4)
        sol = assemble_dirichlet_approx(
            SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5}), p)
        z = norm_grid(p, 800)
        for name in ("interior_envelope", "oscillating_corrector"):
            part = sol.parts[name]
            for k_h in part.horizontal_modes():
                assert_column_close(part.hat_profile(k_h, 0.3, z),
                                    spectral_reference(part, k_h, 0.3, z))

    def test_oscillating_poly_matches_polynomial_sum(self):
        p = Params(1e-3, 1e-3)
        osc = OscillatingPoly(p)
        # mixed degrees on one column: 2-, 4- and 5-term coefficient arrays
        osc.add(lift_interior_vint1({(1, 0): 0.3 - 0.2j, (0, 2): 1.0}), 0.4, 0.2)
        osc.add(stopping_lift({(1, 0): (np.array([1.0, 2j]), 0.5)},
                              {(1, 0): (np.array([0.1, 0.0]), -0.25j)}), -0.7, 1.5)
        osc.add(lift_interior_vint0({(1, 0): 0.2j}, {(1, 0): 0.1}, p), 0.0)
        z = np.linspace(0.0, 1.0, 201)
        for t in (0.0, 0.05, 0.3):
            assert osc.l2_norm(t) == pytest.approx(poly_reference_l2(osc, t), rel=1e-12)
            for k_h in osc.horizontal_modes():
                ref = sum(f.hat_profile(k_h, z) * np.exp(1j * mu * t / p.epsilon - rate * t)
                          for f, mu, rate in osc.entries)
                assert_column_close(osc.hat_profile(k_h, t, z), ref, rel=1e-13)

    def test_modulated_layers_match_sum_over_entries(self):
        p = Params(1e-3, 1e-3)
        sol = assemble_dirichlet_approx(
            SpectralField({(1, 0, 1): 1.0, (1, 0, 2): 0.5j, (0, 1, 2): 0.3}), p)
        z = norm_grid(p, 400)
        for name in ("bottom_layer", "secondary_layer"):
            part = sol.parts[name]
            assert isinstance(part, ModulatedBL)
            # several rows share a column
            assert len(part.table) > len(part.horizontal_modes())
            for k_h in part.horizontal_modes() + [(3, 3)]:
                ref = ref_modulated_column(part, k_h, 0.2, z)
                assert_column_close(part.hat_profile(k_h, 0.2, z), ref, rel=1e-14)
        layer = build_B(BoundaryTrace(0, {(0.3, (1, 1)): [1.0, 0.5j]}), empty_trace(1), p)
        part = ModulatedBL(p, layer.table, 0.7)
        assert part.horizontal_modes() == [(1, 1)]
        assert_column_close(part.hat_profile((1, 1), 0.2, z),
                            ModulatedBL(p, layer.table).hat_profile((1, 1), 0.2, z)
                            * np.exp(-0.7 * 0.2), rel=1e-15)

    def test_modulated_layer_norm_needs_one_wall(self):
        p = Params(1e-2, 1e-2)
        table = {(0.3, (1, 1)): np.array([1.0, 0.5j])}
        both = build_B(BoundaryTrace(0, table), BoundaryTrace(1, table), p).table
        assert both.side.tolist() == [0, 1]
        with pytest.raises(ValueError, match=r"column \(1, 1\) holds layers of both walls"):
            ModulatedBL(p, both, [0.0, 0.5]).l2_norm(0.1)
        # among other columns, the mixed one is named
        other = build_B(BoundaryTrace(0, {(0.0, (-1, 0)): np.array([1.0, 0.2j]),
                                          (0.5, (2, 2)): np.array([0.3, 1.0])}), empty_trace(1), p)
        joined = LayerTable(*(np.concatenate([getattr(other.table, f.name), getattr(both, f.name)])
                              for f in dataclasses.fields(LayerTable)))
        with pytest.raises(ValueError, match=r"column \(1, 1\) holds"):
            ModulatedBL(p, joined).l2_norm(0.1)


def ref_modulated_column(part, k_h, t, z):
    """Column k_h of a ModulatedBL, one kept rate of one row at a time."""
    tab, eps = part.table, part.params.epsilon
    out = np.zeros((3,) + np.shape(z), dtype=complex)
    for i in range(len(tab)):
        if tuple(int(k) for k in tab.k_h[i]) != tuple(k_h):
            continue
        zeta = z if tab.side[i] == 0 else 1.0 - z
        weight = np.exp(1j * (float(tab.mu[i]) * t / eps)) * np.exp(-part.rates[i] * t)
        for j in (0, 1):
            if tab.keep[i, j]:
                out += np.multiply.outer(weight * tab.amps[i, j], np.exp(-tab.q[i, j] * zeta))
    if tuple(k_h) == (0, 0):
        for layer in part.resonant:
            out += layer.value(t, z)
    return out


def ref_modulated_l2(part, t):
    """l2_norm of a ModulatedBL from the closed-form Gram sum over pairs of
    kept rates of each column, one pair at a time."""
    tab, eps = part.table, part.params.epsilon
    total = 0.0
    for k_h in part.horizontal_modes():
        comps = []
        for i in range(len(tab)):
            if tuple(int(k) for k in tab.k_h[i]) == k_h:
                weight = np.exp(1j * (float(tab.mu[i]) * t / eps)) * np.exp(-part.rates[i] * t)
                comps += [(weight * tab.amps[i, j], tab.q[i, j]) for j in (0, 1) if tab.keep[i, j]]
        for a, qa in comps:
            for b, qb in comps:
                Q = qa + np.conj(qb)
                integral = 1.0 if abs(Q) < 1e-14 else (1.0 - np.exp(-Q)) / Q
                total += (np.vdot(b, a) * integral).real
    total *= (2.0 * math.pi) ** 2
    for layer in part.resonant:
        total += layer.l2_norm_h(t) ** 2
    return math.sqrt(total)


def ref_layer_profiles(part, t, z, columns):
    """ModulatedBL.profiles of a part with no resonant layers, one row at a
    time: each column's kept rates, in table order, evaluated one by one on
    the column's window (the union of its rates' windows) and summed in one
    product, as the per-column blocks before the distinct-rate blocks did."""
    from rotstrip import layers

    tab = part.table
    z = np.asarray(z, dtype=float)
    zf = z.ravel()
    out = np.zeros((len(columns), 3) + z.shape, dtype=complex)
    for c, k_h in enumerate(columns):
        rows = np.flatnonzero((tab.k_h == k_h).all(axis=1))
        kept = [(i, j, w) for i, w in zip(rows, part._weights(t, rows))
                for j in (0, 1) if tab.keep[i, j]]
        if not kept:
            continue
        q = np.array([tab.q[i, j] for i, j, _ in kept])
        side = np.array([tab.side[i] for i, _, _ in kept])
        lo, hi = layers._height_windows(q, side, z)
        l, h = int(lo.min()), int(hi.max())
        decay = np.array([np.exp(-q_m * (zf if s == 0 else 1.0 - zf)[l:h])
                          for q_m, s in zip(q, side)])
        value = np.array([tab.amps[i, j] * w for i, j, w in kept]).T @ decay
        if z.ndim == 1:
            out[c][:, l:h] += value
        else:
            out[c] += value.reshape((3,) + z.shape)
    return out


class TestModulatedProfiles:
    P = Params(1e-3, 2e-3)

    def part(self, seed=3, wide=75):
        """A bottom layer on mixed columns: classical, quasi-resonant and
        k_h = 0 rows from several traces with their own rates, unmodulated
        resonant layers on k_h = 0, and `wide` one-entry traces on column
        (2, -1)."""
        rng = np.random.default_rng(seed)

        def vec():
            return rng.standard_normal(2) + 1j * rng.standard_normal(2)

        tables = [{(0.0, (1, 0)): vec(), (1.0, (1, 0)): vec(), (0.5, (0, 1)): vec()},
                  {(0.3, (1, 0)): vec(), (-1.0, (0, 1)): vec(), (2.0, (0, 0)): vec()},
                  {(1.0, (0, 0)): vec(), (-0.4, (1, 1)): vec()}]
        tables += [{(mu, (2, -1)): vec()} for mu in np.linspace(-3.0, 3.0, wide)]
        table, resonant = build_layers([(BoundaryTrace(0, t), empty_trace(1)) for t in tables],
                                       self.P)
        rates = rng.uniform(0.0, 2.0, len(tables)) + 1j * rng.uniform(-1.0, 1.0, len(tables))
        layers = [layer for pair in resonant for layer in pair]
        assert layers
        return ModulatedBL(self.P, table, rates[table.pair], layers)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_columns_match_the_per_component_loop(self):
        part = self.part()
        assert part.table.quasi.any() and not part.table.quasi.all()
        assert np.sum((part.table.k_h == (2, -1)).all(axis=1)) >= 70
        columns = [(0, 1), (3, 3), (2, -1), (0, 0), (1, 0), (1, 1)]  # (3, 3) is not held
        for z in (norm_grid(self.P, 800), np.linspace(0.0, 1.0, 120).reshape(8, 15)):
            for t in (0.0, 0.137):
                got = part.profiles(t, z, columns)
                assert got.shape == (len(columns), 3) + z.shape
                assert not np.any(got[1])
                for k_h, col in zip(columns, got):
                    ref = ref_modulated_column(part, k_h, t, z)
                    assert_column_close(col, ref, rel=1e-14)
                    assert_column_close(part.hat_profile(k_h, t, z), ref, rel=1e-14)
                base = np.full(got.shape, 1.0 - 2.0j)
                assert part.profiles(t, z, columns, base) is base
                assert_column_close(base, got + (1.0 - 2.0j), rel=1e-15)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_walls_on_different_columns(self):
        p = self.P
        sol = build_B(BoundaryTrace(0, {(0.0, (1, 0)): np.array([1.0, 0.5j]),
                                        (1.0, (1, 0)): np.array([0.2, 1.0])}),
                      BoundaryTrace(1, {(0.5, (0, 1)): np.array([1.0, -1.0]),
                                        (-1.0, (0, 1)): np.array([0.3j, 1.0])}), p)
        part = ModulatedBL(p, sol.table, [0.1, 0.2, 0.3 + 1j, 0.4])
        z = np.linspace(0.0, 1.0, 301)
        for t in (0.0, 0.2):
            for k_h in ((1, 0), (0, 1)):
                assert_column_close(part.hat_profile(k_h, t, z),
                                    ref_modulated_column(part, k_h, t, z), rel=1e-14)
            assert part.l2_norm(t) == pytest.approx(ref_modulated_l2(part, t), rel=1e-13)
        # the top layer is the one near z = 1
        top = np.abs(part.hat_profile((0, 1), 0.0, z))
        assert top[:, -1].max() > 1e6 * top[:, 0].max()

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_norms_match_the_pairwise_references(self):
        part = self.part(wide=5)
        for t in (0.0, 0.3):
            assert part.l2_norm(t) == pytest.approx(ref_modulated_l2(part, t), rel=1e-13)
        # frozen bound: |rate| times the root-sum-square norm of each trace's rows
        tab = part.table
        norm_h, norm_3 = tab.norms()
        want = 0.0
        for pair in sorted(set(tab.pair.tolist())):
            rows = np.flatnonzero(tab.pair == pair)
            assert len(set(part.rates[rows].tolist())) == 1
            want += abs(part.rates[rows[0]]) * math.sqrt(
                sum(norm_h[i] ** 2 + norm_3[i] ** 2 for i in rows))
        assert part.frozen_dt_bound() == pytest.approx(want, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_distinct_rate_blocks_equal_the_per_row_evaluation(self):
        """Bit for bit: rows on both walls of one column, quasi-resonant rows
        and a shell whose columns share rates."""
        rng = np.random.default_rng(11)

        def vec():
            return rng.standard_normal(2) + 1j * rng.standard_normal(2)

        turn = np.array([[0.0, -1.0], [1.0, 0.0]])  # a quarter turn of k_h
        bottom, top = {}, {}
        for mu in (0.0, 1.0, 0.4):
            v, w = vec(), vec()
            for k, m in zip(((1, 0), (0, 1), (-1, 0), (0, -1)),
                            (np.eye(2), turn, -np.eye(2), -turn)):
                bottom[(mu, k)] = m @ v
                top[(-mu, k)] = m @ w
        bottom[(0.3, (1, 1))], top[(2.0, (1, 1))] = vec(), vec()
        # a shell whose columns share some rates: (2, 1) adds a thick
        # quasi-resonant layer, so (1, 2) gathers its rows from a wider block
        top[(-1.0, (2, 1))], top[(0.0, (2, 1))], top[(0.0, (1, 2))] = vec(), vec(), vec()
        sol = build_B(BoundaryTrace(0, bottom), BoundaryTrace(1, top), self.P)
        tab = sol.table
        assert tab.quasi.any() and not tab.quasi.all() and not sol.resonant
        part = ModulatedBL(self.P, tab, rng.uniform(0.0, 2.0, len(tab)) + 0.5j)
        columns = sorted(set(tab.columns())) + [(3, 3)]  # (3, 3) is not held
        assert {tuple(tab.side[(tab.k_h == (1, 0)).all(axis=1)].tolist())} == {(0, 0, 0, 1, 1, 1)}
        for z in (norm_grid(self.P, 800), np.linspace(0.0, 1.0, 120).reshape(8, 15)):
            for t in (0.0, 0.137):
                assert np.array_equal(part.profiles(t, z, columns),
                                      ref_layer_profiles(part, t, z, columns))

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_norm_is_the_per_column_gram_sum(self):
        from rotstrip import layers

        part = self.part()
        tab = part.table
        for t in (0.0, 0.3):
            total = 0.0
            for k_h in sorted(set(tab.columns())):
                rows = np.flatnonzero((tab.k_h == k_h).all(axis=1))
                keep = tab.keep[rows]
                amps = (tab.amps[rows] * part._weights(t, rows)[:, None, None])[keep]
                total += float(layers._amplitude_l2(amps, tab.q[rows][keep])) ** 2
            total += sum(layer.l2_norm_h(t) ** 2 for layer in part.resonant)
            assert part.l2_norm(t) == pytest.approx(math.sqrt(total), rel=1e-15)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_exp_blocks_span_columns(self, monkeypatch):
        """Each profiles call evaluates exp(-q zeta) in one block spanning
        its columns, each distinct (wall, rate) once, and skips the heights
        past the cut."""
        from rotstrip import layers

        p = Params(1e-4, 1e-4, beta=1.0)
        # two |k_h|^2 shells, the stress rotated with the column, so that
        # columns share their rates
        sols = [assemble_wind_approx(BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j]),
                                                       (1.0, (0, 1)): np.array([-0.5j, 1.0]),
                                                       (0.0, (0, 2)): np.array([0.2, 0.1]),
                                                       (0.0, (-2, 0)): np.array([-0.2, -0.1]),
                                                       (1.0, (0, 0)): np.array([1.0, 0.0])}), p),
                assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0, (0, 1, 2): 0.5j,
                                                         (0, 0, 1): 0.3}), p)]
        evaluated = []
        exp_block = layers._exp_block

        def counted_exp(q, side, z, lo, hi):
            evaluated.append((list(zip(side.tolist(), q.tolist())), int(np.sum(hi - lo))))
            return exp_block(q, side, z, lo, hi)

        def distinct(part):
            tab = part.table
            r, j = tab.keep.nonzero()
            return set(zip(tab.side[r].tolist(), tab.q[r, j].tolist()))

        monkeypatch.setattr(layers, "_exp_block", counted_exp)
        shared = 0
        for sol in sols:
            parts = [part for part in sol.parts.values()
                     if isinstance(part, ModulatedBL) and len(part.table)]
            evaluated.clear()
            sol.total_norm(0.1)
            assert len(evaluated) == len(parts)  # one block per profiles call
            for part, (rates, size) in zip(parts, evaluated):
                # every distinct rate of the part once, on fewer heights than
                # the grid's wherever a rate falls below the cut
                assert len(rates) == len(set(rates)) and set(rates) == distinct(part)
                assert size < 800 * len(rates)
                shared += int(part.table.keep.sum()) - len(rates)
            # a profiles call over some columns: one block for all of them
            part = parts[0]
            columns = part.horizontal_modes()[:2] + [(5, 5)]
            evaluated.clear()
            part.profiles(0.1, np.linspace(0.0, 1.0, 7), columns)
            assert len(evaluated) == 1
        assert shared > 0  # fewer evaluations than kept rates

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_skipped_heights_are_below_the_cut(self):
        """Against the full block, which an unsorted grid gets: each dropped
        exp(-q zeta) is below e^-40 ~ 4.2e-18, so a column moves by at most
        that times its summed amplitudes."""
        part = self.part()
        z = norm_grid(self.P, 800)
        columns = part.horizontal_modes()
        got = part.profiles(0.137, z, columns)
        shuffled = np.random.default_rng(0).permutation(len(z))
        full = part.profiles(0.137, z[shuffled], columns)
        tab = part.table
        for c, k_h in enumerate(columns):
            rows = np.flatnonzero((tab.k_h == k_h).all(axis=1))
            amp = np.sum(np.abs(tab.amps[rows] * part._weights(0.137, rows)[:, None, None]))
            assert np.abs(got[c][:, shuffled] - full[c]).max() <= (
                4.3e-18 * amp + 1e-15 * np.abs(full[c]).max())


# -- lifts as coefficient arrays against the Polynomial algebra ---------------
# The reference functions below build the lifts with numpy Polynomial
# arithmetic, one column and component at a time, as the module did before
# its lifts became closed-form coefficient arrays.


def ref_poly_l2_sq(p):
    """int_0^1 |p(z)|^2 dz, exact for the degrees used here."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    z = 0.5 * (xg + 1.0)
    return float(np.sum(0.5 * wg * np.abs(p(z)) ** 2))


def ref_stopping_lift(delta0, delta1):
    keys = sorted(set(delta0) | set(delta1))
    zero2 = np.zeros(2, dtype=complex)
    modes = {}
    for k_h in keys:
        d0h, d03 = delta0.get(k_h, (zero2, 0j))
        d1h, d13 = delta1.get(k_h, (zero2, 0j))
        d0h = np.asarray(d0h, dtype=complex)
        d1h = np.asarray(d1h, dtype=complex)
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        ikd0 = 1j * (k_h[0] * d0h[0] + k_h[1] * d0h[1])
        ikd1 = 1j * (k_h[0] * d1h[0] + k_h[1] * d1h[1])
        phi = 0j if kh2 == 0 else 12.0 * (ikd0 + 0.5 * ikd1 + d13 - d03) / kh2
        bump = Polynomial([0.0, 1.0, -2.0, 1.0])
        p1 = Polynomial([d0h[0], d1h[0]]) + (1j * k_h[0] * phi) * bump
        p2 = Polynomial([d0h[1], d1h[1]]) + (1j * k_h[1] * phi) * bump
        div_wh = 1j * k_h[0] * p1 + 1j * k_h[1] * p2
        p3 = Polynomial([complex(d03)]) - div_wh.integ(lbnd=0.0)
        modes[k_h] = (p1, p2, p3)
    return modes


def ref_vint0(delta0_3, delta1_3, params):
    root = params.layer_scale
    modes = {}
    for k_h in sorted(set(delta0_3) | set(delta1_3)):
        d0 = complex(delta0_3.get(k_h, 0j))
        d1 = complex(delta1_3.get(k_h, 0j))
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        if kh2 == 0:
            continue
        vh = -1j * root * np.array(k_h) * (d0 - d1) / kh2
        p3 = Polynomial([root * d0, root * (d1 - d0)])
        modes[k_h] = (Polynomial([vh[0]]), Polynomial([vh[1]]), p3)
    return modes


def ref_vint1(trace):
    modes = {}
    for k_h in sorted(trace):
        tau = complex(trace[k_h])
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        if kh2 == 0:
            continue
        vh = -1j * np.array(k_h) * tau / kh2
        modes[k_h] = (Polynomial([vh[0]]), Polynomial([vh[1]]), Polynomial([0.0, -tau]))
    return modes


def ref_h2_norm(modes):
    total = 0.0
    for k_h, polys in modes.items():
        kh2 = k_h[0] ** 2 + k_h[1] ** 2
        for p in polys:
            total += (1.0 + 2.0 * kh2 + kh2 ** 2) * ref_poly_l2_sq(p)
            total += (1.0 + kh2) * 2.0 * ref_poly_l2_sq(p.deriv()) + ref_poly_l2_sq(p.deriv(2))
    return 2.0 * math.pi * math.sqrt(total)


def ref_lift_equation_bound(entries, params):
    """(1/eps)||w|| + ||Lap_h w|| + nu ||dzz w|| + |rate| ||w|| over (modes, rate)."""
    total = 0.0
    for modes, rate in entries:
        sq = {k_h: sum(ref_poly_l2_sq(p) for p in polys) for k_h, polys in modes.items()}
        norm = 2.0 * math.pi * math.sqrt(sum(sq.values()))
        lap = sum((k[0] ** 2 + k[1] ** 2) ** 2 * v for k, v in sq.items())
        dzz = sum(ref_poly_l2_sq(p.deriv(2)) for polys in modes.values() for p in polys)
        total += norm / params.epsilon + 2.0 * math.pi * math.sqrt(lap) \
            + params.nu * 2.0 * math.pi * math.sqrt(dzz) + abs(rate) * norm
    return total


def padded(polys, ndeg=6):
    out = np.zeros((3, ndeg), dtype=complex)
    for c, p in enumerate(polys):
        out[c, :len(p.coef)] = p.coef
    return out


def random_lift_tables(rng, vertical_only):
    """Stopping-lift data whose delta0 and delta1 hold different columns, with a
    compatible k_h = 0 column; vertical-only data has zero horizontal parts."""
    def value(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    d0, d1 = {}, {}
    for table, keys in ((d0, [(1, 0), (2, -1), (0, 3)]), (d1, [(1, 0), (-1, 2), (3, 1)])):
        for k_h in keys:
            table[k_h] = (np.zeros(2) if vertical_only else value(2), complex(value(())))
    mean = complex(value(()))
    d0[(0, 0)] = (np.zeros(2) if vertical_only else value(2), mean)
    d1[(0, 0)] = (np.zeros(2) if vertical_only else value(2), mean)
    return d0, d1


class TestLiftArrays:
    P = Params(1e-3, 2e-3)

    def random_lifts(self, rng):
        """[(ZPolyField, reference modes)] of one draw of every lift."""
        lifts = []
        for vertical_only in (False, True):
            d0, d1 = random_lift_tables(rng, vertical_only)
            lifts.append((stopping_lift(d0, d1), ref_stopping_lift(d0, d1)))
        s0 = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in [(1, 0), (2, 2)]}
        s1 = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in [(2, 2), (0, -1)]}
        s0[(0, 0)] = 0j
        lifts.append((lift_interior_vint0(s0, s1, self.P), ref_vint0(s0, s1, self.P)))
        tau = {**s1, (0, 0): 0.0, (3, -1): 0.5 - 2j}
        lifts.append((lift_interior_vint1(tau), ref_vint1(tau)))
        return lifts

    def test_coefficients_match_polynomial_algebra(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            for field_, ref in self.random_lifts(rng):
                assert sorted(field_.modes) == sorted(ref)
                for k_h, polys in ref.items():
                    want = padded(polys)
                    got = padded(field_.modes[k_h])
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_norms_match_polynomial_algebra(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            lifts = self.random_lifts(rng)
            osc = OscillatingPoly(self.P)
            entries = []
            for i, (field_, ref) in enumerate(lifts):
                l2 = 2.0 * math.pi * math.sqrt(sum(ref_poly_l2_sq(p) for polys in ref.values()
                                                   for p in polys))
                assert field_.l2_norm() == pytest.approx(l2, rel=1e-13)
                assert field_.h2_norm() == pytest.approx(ref_h2_norm(ref), rel=1e-13)
                rate = 0.3 * i + 0.1j
                osc.add(field_, 0.5 * i, rate)
                entries.append((ref, rate))
            assert _lift_equation_bound(osc, self.P) == pytest.approx(
                ref_lift_equation_bound(entries, self.P), rel=1e-13)

    def test_no_polynomial_until_modes_is_read(self, monkeypatch):
        calls = {"init": 0, "arithmetic": 0}

        class Counting(Polynomial):
            def __init__(self, *args, **kwargs):
                calls["init"] += 1
                super().__init__(*args, **kwargs)

        def counted(name):
            def method(self, *args, **kwargs):
                calls["arithmetic"] += 1
                return getattr(Polynomial, name)(self, *args, **kwargs)
            return method

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__neg__", "__pow__", "integ", "deriv"):
            setattr(Counting, name, counted(name))
        monkeypatch.setattr(correctors, "Polynomial", Counting)
        d0, d1 = random_lift_tables(np.random.default_rng(13), vertical_only=False)
        w = stopping_lift(d0, d1)
        p = Params(1e-3, 1e-3, beta=1.0)
        sigma = BoundaryTrace(1, {(0.5, (1, 0)): np.array([1.0, 0.5j]),
                                  (0.0, (0, 2)): np.array([0.2, 0.1])})
        sols = [assemble_wind_approx(sigma, p),
                assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j}), p)]
        z = np.linspace(0.0, 1.0, 17)
        for sol in sols:
            assert sol.parts["stopping_lift"].entries
            sol.total_norm(0.1)
            sol.part_norms(0.1)
            sol.parts["stopping_lift"].profiles(0.1, z, sol.horizontal_modes())
        assert calls == {"init": 0, "arithmetic": 0}
        # reading modes builds three Polynomials per column read
        ncol = len(set(d0) | set(d1))
        assert len(w.modes) == ncol
        assert all(isinstance(p, Counting) for _, polys in w.items() for p in polys)
        assert calls == {"init": 3 * ncol, "arithmetic": 0}

    def test_of_round_trips_through_coefficients(self):
        coef = np.arange(12.0).reshape(2, 3, 2) + 1j
        f = ZPolyField([(1, 0), (0, 2)], coef)
        keys, back = f.coefficients()
        assert keys == [(0, 2), (1, 0)]
        assert np.array_equal(back, coef[::-1])


# -- the lift table under random fields, columns and edits --------------------

_POOL = [(0, 0), (1, 0), (-1, 2), (2, 1), (0, -3)]  # columns an entry may hold
_ABSENT = [(5, 5), (-4, 1)]
_GAUSS_NODES = 0.5 * (np.polynomial.legendre.leggauss(24)[0] + 1.0)


@st.composite
def lift_entries(draw):
    """[(ref modes {k_h: (P1, P2, P3)}, mu, rate)]: one to four entries on
    columns of _POOL, so that entries share columns, each column with its
    own degree 1 .. 5."""
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        keys = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=len(_POOL),
                             unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        modes = {}
        for k_h in keys:
            ndeg = draw(st.integers(1, 5))
            coef = rng.standard_normal((3, ndeg)) + 1j * rng.standard_normal((3, ndeg))
            modes[k_h] = tuple(Polynomial(row) for row in coef)
        mu = draw(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0))
        rate = complex(draw(st.floats(0.0, 3.0)), draw(st.floats(-1.0, 1.0)))
        entries.append((modes, mu, rate))
    return entries


def field_of(modes):
    """A ZPolyField holding the Polynomial columns modes, through coef arrays."""
    keys = list(modes)
    ndeg = max((len(p.coef) for polys in modes.values() for p in polys), default=1)
    coef = np.array([padded(modes[k], ndeg) for k in keys]).reshape(-1, 3, ndeg)
    return ZPolyField(keys, coef)


def ref_profiles(entries, t, z, columns, eps):
    """(sum over entries of phase * P(z) per listed column, the sum of the
    terms' magnitudes) with numpy Polynomials."""
    ref = np.zeros((len(columns), 3, len(z)), dtype=complex)
    scale = np.zeros(len(columns))
    for modes, mu, rate in entries:
        phase = np.exp(1j * mu * t / eps - rate * t)
        for i, k_h in enumerate(columns):
            if k_h in modes:
                term = phase * np.array([p(z) for p in modes[k_h]])
                ref[i] += term
                scale[i] += float(np.max(np.abs(term)))
    return ref, scale


def assert_lift_matches(osc, entries, t, columns):
    z = np.linspace(0.0, 1.0, 29)
    got = osc.profiles(t, z, columns)
    ref, scale = ref_profiles(entries, t, z, columns, osc.params.epsilon)
    for g, r, sc in zip(got, ref, scale):
        assert float(np.max(np.abs(g - r))) <= 1e-13 * sc
    assert osc.horizontal_modes() == sorted({k for modes, _, _ in entries for k in modes})


_COLUMNS = st.lists(st.sampled_from(_POOL + _ABSENT), min_size=1, max_size=8)


class TestLiftTable:
    P = Params(1e-2, 1e-2)

    def oscillating(self, entries):
        osc = OscillatingPoly(self.P)
        for modes, mu, rate in entries:
            osc.add(field_of(modes), mu, rate)
        return osc

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(entries=lift_entries(), columns=_COLUMNS, t=st.floats(0.0, 0.5))
    def test_profiles_match_polynomial_sum(self, entries, columns, t):
        osc = self.oscillating(entries)
        assert_lift_matches(osc, entries, t, columns)
        total = 0.0
        for k_h in osc.horizontal_modes():
            combined = [Polynomial([0j]) for _ in range(3)]
            for modes, mu, rate in entries:
                if k_h in modes:
                    phase = np.exp(1j * mu * t / self.P.epsilon - rate * t)
                    combined = [c + phase * p for c, p in zip(combined, modes[k_h])]
            total += sum(ref_poly_l2_sq(p) for p in combined)
        assert osc.l2_norm(t) == pytest.approx(2.0 * math.pi * math.sqrt(total), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(entries=lift_entries(), columns=_COLUMNS, t=st.floats(0.0, 0.5),
           edit=st.sampled_from(["set", "new column", "higher degree", "delete"]),
           which=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_edits_through_modes_are_read(self, entries, columns, t, edit, which, seed):
        osc = self.oscillating(entries)
        osc.profiles(t, np.linspace(0.0, 1.0, 5), columns)  # join the table first
        modes, _, _ = entries[which % len(entries)]
        f = osc.entries[which % len(entries)][0]
        rng = np.random.default_rng(seed)
        k_h = sorted(modes)[seed % len(modes)]
        ndeg = {"set": 2, "new column": 3, "higher degree": 7, "delete": 0}[edit]
        if edit == "new column":
            k_h = next(k for k in _POOL + _ABSENT if k not in modes)
        if edit == "delete":
            del f.modes[k_h]
            del modes[k_h]
        else:
            coef = rng.standard_normal((3, ndeg)) + 1j * rng.standard_normal((3, ndeg))
            modes[k_h] = tuple(Polynomial(row) for row in coef)
            f.modes[k_h] = modes[k_h]
        assert_lift_matches(osc, entries, t, columns + [k_h])
        keys, coef = f.coefficients()
        assert keys == sorted(modes)
        for key, c in zip(keys, coef):
            assert np.array_equal(c, padded(modes[key], coef.shape[2]))
        for wall in (0, 1):
            trace = f.trace(wall)
            assert sorted(trace) == sorted(modes)
            for key, polys in modes.items():
                want = np.array([p(float(wall)) for p in polys])
                assert np.allclose(trace[key], want, rtol=1e-13, atol=1e-13)
        div = max((float(np.max(np.abs(1j * k[0] * polys[0](_GAUSS_NODES)
                                       + 1j * k[1] * polys[1](_GAUSS_NODES)
                                       + polys[2].deriv()(_GAUSS_NODES))))
                   for k, polys in modes.items()), default=0.0)
        assert f.divergence_residual() == pytest.approx(div, rel=1e-12, abs=1e-14)
        l2 = 2.0 * math.pi * math.sqrt(sum(ref_poly_l2_sq(p) for polys in modes.values()
                                           for p in polys))
        assert f.l2_norm() == pytest.approx(l2, rel=1e-12)
        assert _lift_equation_bound(osc, self.P) == pytest.approx(
            ref_lift_equation_bound([(m, r) for m, _, r in entries], self.P), rel=1e-12)


class TestSpectralPartRows:
    P = Params(1e-3, 1e-3)
    ROWS = [((1, 0, 2), 0.5 - 1j, 0.0, 0j), ((1, 0, -3), 2.0, 0.1, 0.0),
            ((1, 0, 2), 0.2j, 0.7, 0.3), ((0, 2, 1), 0.3, 0.0, 0.5),
            ((1, 0, 2), -1.0, -0.4, 1.5 + 0.2j), ((1, 0, -3), 0.1 + 0.1j, 0.0, 2.0)]

    def part(self):
        part = SpectralPart(self.P)
        for mode, s0, phi, rate in self.ROWS:
            part.add_rows([mode], s0, phi, rate)
        return part

    def test_coefficient_is_the_sum_of_rows(self):
        part = self.part()
        assert part.modes() == [(0, 2, 1), (1, 0, -3), (1, 0, 2)]
        for t in (0.0, 0.13, 0.7):
            for mode in part.modes():
                want = sum(s0 * np.exp(1j * phi * t / self.P.epsilon - rate * t)
                           for m, s0, phi, rate in self.ROWS if m == mode)
                assert part.coefficient(mode, t) == want

    def test_array_rows_equal_rows_added_one_at_a_time(self):
        one = self.part()
        rows = SpectralPart(self.P)
        modes, s0, phi, rate = (list(v) for v in zip(*self.ROWS))
        rows.add_rows(modes[:2], s0[:2], phi[:2], rate[:2])
        rows.add_rows(modes[2:], s0[2:], phi[2:], rate[2:])
        z = np.linspace(0.0, 1.0, 9)
        assert rows.modes() == one.modes()
        for t in (0.0, 0.13):
            assert rows.l2_norm(t) == one.l2_norm(t)
            assert np.array_equal(rows.profiles(t, z, [(1, 0), (0, 2)]),
                                  one.profiles(t, z, [(1, 0), (0, 2)]))

    def test_missing_mode_and_column_give_zero(self):
        part = self.part()
        assert part.coefficient((1, 0, 5), 0.2) == 0
        assert part.coefficient((2, 2, 1), 0.2) == 0

    def test_l2_norm_is_the_coefficient_norm(self):
        part = self.part()
        for t in (0.0, 0.13, 0.7):
            want = math.sqrt(sum(abs(part.coefficient(m, t)) ** 2 for m in part.modes()))
            assert part.l2_norm(t) == pytest.approx(want, rel=1e-14)


# -- eigenmode sums over whole columns against the one-mode formulas ----------
# The reference functions below are the scalar closed forms, the per-column
# CHUNK evaluation of an eigenmode sum and the one-mode truncation loop as the
# module had them before they were formed over whole l3 ranges and columns.


def ref_scalar_product_forms(l):
    l1, l2, l3 = l
    kh = math.hypot(l1, l2)
    D = math.sqrt(l1 ** 2 + l2 ** 2 + (math.pi * l3) ** 2)
    if l3 != 0:
        return 2j * kh ** 3 * (-1.0) ** l3 / (l3 * D), 0j
    return 0j, -2.0 * math.pi * kh + 0j


def ref_vertical_unit_product(l):
    l1, l2, l3 = l
    if l3 == 0:
        return 0j
    kh = math.hypot(l1, l2)
    D = math.sqrt(l1 ** 2 + l2 ** 2 + (math.pi * l3) ** 2)
    return -2j * kh * (1.0 - (-1.0) ** l3) / (l3 * D)


def ref_chunked_column(part, k_h, t, z):
    """One column's modes in blocks of CHUNK, one cos/sin block each."""
    z = np.asarray(z, dtype=float)
    modes = [m for m in part.modes() if m[:2] == tuple(k_h)]
    if not modes:
        return np.zeros((3,) + z.shape, dtype=complex)
    wave = np.array([math.pi * m[2] for m in modes])
    lam = np.array([eigenvalue(m) for m in modes])
    normals = np.array([basis_normal(m) for m in modes])
    coef = np.array([part.coefficient(m, t) for m in modes])
    coef = coef * np.exp(-1j * lam * t / part.params.epsilon)
    amp = (coef[:, None] * normals).view(float)
    zf = z.ravel()
    acc = np.zeros((6, zf.size))
    for s in range(0, len(wave), part.CHUNK):
        arg = np.multiply.outer(wave[s:s + part.CHUNK], zf)
        block = amp[s:s + part.CHUNK]
        acc[:4] += block[:, :4].T @ np.cos(arg)
        acc[4:] += block[:, 4:].T @ np.sin(arg)
    return (acc[0::2] + 1j * acc[1::2]).reshape((3,) + z.shape)


def ref_truncate(k_h, K, source):
    kept, tail_sq = [], 0.0
    n = 4 * max(K, 1)
    for l3 in range(-n, n + 1):
        l = (k_h[0], k_h[1], l3)
        s = source(l)
        if s == 0:
            continue
        if euclidean_norm(l) > K:
            tail_sq += abs(s) ** 2
        else:
            kept.append((l, s))
    return kept, tail_sq


def ref_flux_source(mu, rate, kh2, d0, d1, eps):
    """The flux stage's source on one mode: zero where mu + lambda_l
    vanishes, else [(|k_h|^2 - rate + i mu/eps)(d0 (F1 - |k_h|^2 G) - d1 F1)
    + (d0 - d1) F2/eps] / |k_h|^2."""
    def source(l):
        if abs(mu + eigenvalue(l)) < 1e-12:
            return 0j
        F1, F2 = ref_scalar_product_forms(l)
        G = ref_vertical_unit_product(l)
        a = kh2 - rate + 1j * mu / eps
        return a * d0 / kh2 * (F1 - kh2 * G) - a * d1 / kh2 * F1 + (d0 - d1) / (eps * kh2) * F2
    return source


class TestColumnForms:
    L3 = np.arange(-1300, 1301)
    COLUMNS = [(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2), (5, 7)]

    def test_match_the_one_mode_formulas_bit_for_bit(self):
        for k_h in self.COLUMNS:
            F1, F2, G, lam = column_forms(k_h, self.L3)
            for i, l3 in enumerate(self.L3.tolist()):
                l = (k_h[0], k_h[1], l3)
                f1, f2 = ref_scalar_product_forms(l)
                assert (F1[i], F2[i]) == (f1, f2), l
                assert G[i] == ref_vertical_unit_product(l), l
                assert lam[i] == eigenvalue(l), l

    def test_one_mode_views_are_rows(self):
        for k_h in self.COLUMNS[:3]:
            F1, F2, G, _ = column_forms(k_h, self.L3[::97])
            for i, l3 in enumerate(self.L3[::97].tolist()):
                (f1,), (f2,), (g,), _ = column_forms(k_h, [l3])
                assert (f1, f2, g) == (F1[i], F2[i], G[i])
        # the mean column, where l = 0 is not a mode
        F1, F2, G, _ = column_forms((0, 0), [-2, 0, 3])
        assert not np.any(F1) and not np.any(F2) and not np.any(G)
        (f1,), (f2,), _, _ = column_forms((0, 0), [0])
        assert (f1, f2) == (0j, 0j)


class TestNormGrid:
    def test_bad_sizes_rejected(self):
        p = Params(1e-2, 1e-2)
        for nz in (0, 2, 5, -800, 800.0, "800", True):
            with pytest.raises(ValueError, match="nz"):
                norm_grid(p, nz)
        z = norm_grid(p, 6)  # the walls, and two geometric points at each
        assert len(z) == 6 and z[1] < 1e-3 < 1.0 - 1e-3 < z[-2]
        assert np.array_equal(norm_grid(p, np.int64(800)), norm_grid(p, 800))


def finer_rule(params, nodes=20, panels=100):
    """A composite Gauss rule finer than total_norm's: `nodes` points on
    each of one panel [0, d], d = layer_scale / 1e4, and `panels` - 1
    geometric panels from d to 1/2; [1/2, 1] is the mirror image.  On the
    inputs below it is within 8e-11 relative of 30 nodes on 200 panels."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate([[0.0], np.geomspace(params.layer_scale * 1e-4, 0.5, panels)])
    half = 0.5 * np.diff(edges)[:, None]
    z = (edges[:-1, None] + half * (1.0 + x)).ravel()
    w = (half * w).ravel()
    return np.concatenate([z, 1.0 - z[::-1]]), np.concatenate([w, w[::-1]])


class TestNormRule:
    """total_norm's composite Gauss rule, correctors._norm_rule."""

    def test_nodes_and_weights(self):
        for p in (Params(1.0, 1.0), Params(1e-2, 1e-3), Params(1e-5, 1e-6)):
            z, w = correctors._norm_rule(p)
            assert len(z) == len(w) == 360
            assert 0.0 < z[0] and z[-1] < 1.0 and np.all(np.diff(z) > 0) and np.all(w > 0)
            assert np.array_equal(z[180:], 1.0 - z[179::-1])
            assert np.array_equal(w, w[::-1])
            assert z[9] < p.layer_scale / 100 < z[10]  # the first panel is [0, d]
            for k in (0, 1, 7, 19):  # exact on every panel up to degree 19
                assert w @ z ** k == pytest.approx(1.0 / (k + 1), rel=1e-13), k

    def test_bad_times_rejected(self):
        sol = assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0, (0, 0, 1): 0.5}),
                                        Params(1e-2, 1e-2))
        for t in (math.nan, math.inf, -math.inf, -1.0, "abc", None, [0.1]):
            for entry in (sol.total_norm, sol.part_norms, sol.summary):
                with pytest.raises(ValueError, match="t="):
                    entry(t)
        summary = sol.summary(np.float64(0.1))
        assert summary["time"] == 0.1 and type(summary["time"]) is float
        assert summary["total_norm"] == sol.total_norm(0.1)
        assert summary["part_norms"] == sol.part_norms(0.1)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_total_norm_against_a_finer_rule(self):
        """Both assemblies at eps from 1e-2 to 1e-5, nu/eps in {0.1, 1, 10}
        and t from 0 to 1, within 1e-5 relative of the finer rule.  The wind
        stress has a resonant column (k_h = 0, mu = 1) and a quasi-resonant
        one; the datum has a k_h = 0 mode."""
        sigma = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 0.5j]),
                                  (1.0, (1, 0)): np.array([1.0, 0.5j]),
                                  (0.5, (1, 1)): np.array([0.3, -0.8j]),
                                  (0.0, (0, 1)): np.array([0.6, 0.2])})
        gamma = SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5 - 0.2j,
                               (0, 0, 1): 0.8})
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            for ratio in (0.1, 1.0, 10.0):
                p = Params(eps, ratio * eps, beta=1.0)
                z, w = finer_rule(p)
                wind, dirichlet = assemble_wind_approx(sigma, p), assemble_dirichlet_approx(gamma, p)
                assert wind.parts["surface_layer"].resonant
                assert dirichlet.parts["resonant_column"].horizontal_modes() == [(0, 0)]
                for sol in (wind, dirichlet):
                    columns = sol.horizontal_modes()
                    for t in (0.0, 0.01, 0.1, 0.3, 1.0):
                        prof = np.zeros((len(columns), 3, len(z)), dtype=complex)
                        for part in sol.parts.values():
                            part.profiles(t, z, columns, prof)
                        sq = np.sum(np.abs(prof) ** 2, axis=(0, 1))
                        want = 2.0 * math.pi * math.sqrt(float(sq @ w))
                        assert sol.total_norm(t) == pytest.approx(want, rel=1e-5), (eps, ratio, t)


class TestBatchedProfiles:
    P = Params(1e-3, 1e-3)

    def part(self):
        rng = np.random.default_rng(11)
        part = SpectralPart(self.P)
        l3s = {(1, 0): range(-70, 71),  # more than CHUNK modes, l3 = 0 included
               (2, 1): (-4, -3, 0, 5),  # odd and even negative l3
               (0, 1): (-1,)}  # one mode
        for k_h, column in l3s.items():
            for l3 in column:
                s0 = complex(rng.standard_normal(), rng.standard_normal())
                part.add_rows([(k_h[0], k_h[1], l3)], s0, rng.uniform(-1.0, 1.0),
                              rng.uniform(0.0, 2.0))
        assert 141 > SpectralPart.CHUNK
        return part

    def test_columns_match_the_chunked_reference(self):
        part = self.part()
        columns = [(2, 1), (3, 3), (1, 0), (0, 1)]  # (3, 3) is not held
        for z in (norm_grid(self.P, 800), np.linspace(0.0, 1.0, 120).reshape(8, 15)):
            for t in (0.0, 0.137):
                got = part.profiles(t, z, columns)
                assert got.shape == (4, 3) + z.shape
                assert not np.any(got[1])
                for k_h, row in zip(columns, got):
                    if k_h == (3, 3):
                        continue
                    ref = ref_chunked_column(part, k_h, t, z)
                    assert_column_close(row, ref, rel=1e-14)
                    assert_column_close(part.hat_profile(k_h, t, z), ref, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_every_part_adds_into_out(self):
        p = Params(1e-4, 1e-4, beta=1.0)
        sols = [assemble_wind_approx(BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j]),
                                                       (0.0, (0, 2)): np.array([0.2, 0.1])}), p),
                assemble_dirichlet_approx(SpectralField({(1, 0, 1): 1.0, (0, 0, 1): 0.5j}), p)]
        z = np.linspace(0.0, 1.0, 50)
        for sol in sols:
            columns = sol.horizontal_modes() + [(4, 4)]
            for part in sol.parts.values():
                base = np.ones((len(columns), 3, len(z)), dtype=complex)
                got = part.profiles(0.2, z, columns, base)
                assert got is base
                want = 1.0 + np.array([part.hat_profile(k, 0.2, z) for k in columns])
                assert_column_close(got, want, rel=1e-15)
            # the per-column sum of the parts, integrated column by column
            zn, wn = correctors._norm_rule(p)
            want = 2.0 * math.pi * math.sqrt(sum(
                np.sum(np.abs(sol.hat_profile(k, 0.2, zn)) ** 2, axis=0) @ wn
                for k in sol.horizontal_modes()))
            assert sol.total_norm(0.2) == pytest.approx(want, rel=1e-14)

    def test_one_trig_pass_per_part_per_total_norm(self, monkeypatch):
        p = Params(1e-4, 1e-4)
        sol = assemble_dirichlet_approx(
            SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5}), p)
        spectral = [part for part in sol.parts.values() if isinstance(part, SpectralPart)]
        assert max(len(part.horizontal_modes()) for part in spectral) > 1
        want = sum(math.ceil((max(abs(m[2]) for m in part.modes()) + 1) / SpectralPart.CHUNK)
                   for part in spectral)
        assert want > len(spectral)
        blocks = []
        trig_block = correctors._trig_block

        def counted(j, z):
            blocks.append(len(j))
            return trig_block(j, z)

        monkeypatch.setattr(correctors, "_trig_block", counted)
        sol.total_norm(0.1)
        assert len(blocks) == want
        assert max(blocks) == SpectralPart.CHUNK


class TestTruncation:
    def assert_matches_reference(self, monkeypatch, build, reference_source):
        """Every _truncate call made by build() against the one-mode loop on
        the reference source of the closure's parameters at the time of the
        call."""
        calls = []
        truncate = correctors._truncate

        def spy(k_h, K, source):
            modes, values, tail_sq = truncate(k_h, K, source)
            ref_kept, ref_tail = ref_truncate(k_h, K, reference_source(
                inspect.getclosurevars(source).nonlocals))
            assert [tuple(l) for l in modes.tolist()] == [l for l, _ in ref_kept]
            assert all(s == r for s, (_, r) in zip(values, ref_kept))
            assert tail_sq == pytest.approx(ref_tail, rel=1e-15, abs=0.0)
            calls.append(len(modes))
            return modes, values, tail_sq

        monkeypatch.setattr(correctors, "_truncate", spy)
        build()
        return calls

    @staticmethod
    def flux_reference(v):
        return ref_flux_source(v["mu"], v["rate"], v["kh2"], v["d0"], v["d1"], v["eps"])

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_wind_sources(self, monkeypatch):
        # |l| = K falls on modes of the (6, 0) column: l3 = 0 at K = 6 (eps
        # 1e-3) and l3 = +-8 at K = 10 (eps 1e-4)
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j]),
                                  (1.0, (6, 0)): np.array([0.3, -0.2j])})
        for eps in (1e-3, 1e-4, 1e-5):
            p = Params(eps, eps, beta=1.0)
            calls = self.assert_matches_reference(
                monkeypatch, lambda: assemble_wind_approx(sigma, p), self.flux_reference)
            assert len(calls) == 2 and min(calls) > 0

    def test_dirichlet_sources(self, monkeypatch):
        gamma = SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5 - 0.2j,
                               (0, 0, 1): 0.8})
        for eps in (1e-4, 1e-5):
            p = Params(eps, eps)
            calls = self.assert_matches_reference(
                monkeypatch, lambda: assemble_dirichlet_approx(gamma, p), self.flux_reference)
            assert len(calls) == 3 and min(calls) > 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(k_h=st.sampled_from([(1, 0), (0, -1), (1, 1), (-2, 0), (2, 1), (-1, -2), (2, -2)]),
           log_eps=st.floats(-5.0, -2.0), mu=st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, None]),
           k3=st.integers(-30, 30), rate=st.complex_numbers(max_magnitude=20.0),
           value=st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0))
    def test_flux_source_equals_the_wind_and_dirichlet_sources(self, k_h, log_eps, mu, k3,
                                                               rate, value):
        # the two formulas the assemblies had before they shared the flux
        # stage: the surface flux tau (d1 = -tau, rate 0) and the Ekman
        # suction (d0, c0 = -i d0/|k_h|^2), on the modes the resonance rule
        # keeps; mu = None is the Dirichlet frequency -lambda_k of
        # k = (k_h, k3), whose own l3 = k3 the envelope carries
        eps, kh2 = 10.0 ** log_eps, k_h[0] ** 2 + k_h[1] ** 2
        k = (k_h[0], k_h[1], k3) if mu is None else None
        mu = -eigenvalue(k) if mu is None else mu
        q, r = -value * (1.0 + 1j * mu / (eps * kh2)), -value / (eps * kh2)
        c0 = -1j * value / kh2

        def wind(l):
            F1, F2 = ref_scalar_product_forms(l)
            return -(q * F1 + r * F2)

        def dirichlet(l):
            if l == k:
                return 0j
            F1, F2 = ref_scalar_product_forms(l)
            F1G = F1 - kh2 * ref_vertical_unit_product(l)
            return -c0 * ((1j * (rate - kh2) + mu / eps) * F1G - 1j * F2 / eps)

        modes = [(k_h[0], k_h[1], l3) for l3 in range(-130, 131)]
        resonant = [abs(mu + eigenvalue(l)) < 1e-12 for l in modes]
        for old, new in ((wind, ref_flux_source(mu, 0j, kh2, 0j, -value, eps)),
                         (dirichlet, ref_flux_source(mu, rate, kh2, value, 0j, eps))):
            want = np.array([0j if res else old(l) for l, res in zip(modes, resonant)])
            got = np.array([new(l) for l in modes])
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_resonance_rule_is_the_dirichlet_diagonal(self):
        # the flux stage skips the modes with |mu + lambda_l| < 1e-12; at the
        # Dirichlet frequency mu = -lambda_k these are exactly l3 = k3
        l3 = np.arange(-130, 131)
        k3 = np.arange(-30, 31)
        gaps = []
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                if (k1, k2) == (0, 0):
                    continue
                lam = column_forms((k1, k2), l3)[3]
                mu = -eigenvalues(np.column_stack([np.full(len(k3), k1), np.full(len(k3), k2),
                                                   k3]))
                gap = np.abs(mu[:, None] + lam)
                diagonal = k3[:, None] == l3
                assert np.array_equal(gap < 1e-12, diagonal), (k1, k2)
                gaps.append(gap[~diagonal].min())
        assert len(gaps) * len(k3) == 10248 and min(gaps) > 1e-6


# -- a column is one slice of a part's sorted rows ----------------------------


class TestColumnSlices:
    P = Params(1e-3, 1e-3, beta=1.0)

    def approximations(self):
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j]),
                                  (0.0, (0, 2)): np.array([0.2, 0.1]),
                                  (0.5, (1, -1)): np.array([0.3j, -0.4]),
                                  (1.0, (0, 0)): np.array([1.0, 0.0])})
        gamma = SpectralField({(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5,
                               (0, 0, 1): 0.3})
        return [assemble_wind_approx(sigma, self.P),
                assemble_dirichlet_approx(gamma, self.P, "zero_ic")]

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_a_column_alone_equals_it_among_others(self):
        kinds = (SpectralPart, ModulatedBL, OscillatingPoly)
        z = norm_grid(self.P, 400)
        seen = set()
        for sol in self.approximations():
            columns = sol.horizontal_modes() + [(5, 5)]  # (5, 5) is not held
            for part in sol.parts.values():
                if not isinstance(part, kinds):
                    continue
                seen.add(type(part))
                for t in (0.0, 0.137):
                    together = part.profiles(t, z, columns)
                    for k_h, col in zip(columns, together):
                        assert np.array_equal(part.profiles(t, z, [k_h])[0], col)
                    # the same columns in reverse order, one listed twice
                    again = part.profiles(t, z, columns[::-1] + columns[:1])
                    assert np.array_equal(again[:-1], together[::-1])
                    assert np.array_equal(again[-1], together[0])
        assert seen == set(kinds)

    def test_spectral_rows_in_shuffled_chunk_order(self):
        rng = np.random.default_rng(5)
        chunks = []
        for k_h in ((1, 0), (0, 2), (-1, 1)):
            for l3s in ((1, -2, 3, 7), (-1, 2, -3), (-7, 4)):  # l3 and -l3 in other chunks
                modes = np.array([(k_h[0], k_h[1], l3) for l3 in l3s for _ in range(2)])
                n = len(modes)
                chunks.append((modes, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                               rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0, n)))
        z = np.linspace(0.0, 1.0, 57)
        columns = [(1, 0), (0, 2), (-1, 1), (3, 0)]
        want = None
        for order in ([*range(len(chunks))], rng.permutation(len(chunks)),
                      rng.permutation(len(chunks))):
            part = SpectralPart(self.P)
            for i in order:
                part.add_rows(*chunks[i])
            got = [part.profiles(t, z, columns) for t in (0.0, 0.21)]
            if want is None:
                want = got
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_power_rows_are_the_vandermonde_products(self):
        for z in (norm_grid(self.P, 800), np.linspace(0.0, 1.0, 33), np.array([1.0])):
            for ndeg in (1, 2, 5, 7):
                assert np.array_equal(correctors._powers(z, ndeg),
                                      np.vander(z, ndeg, increasing=True).T)

    @pytest.mark.parametrize("ncol", [1, 3, 12])
    def test_one_vandermonde_product_per_lift_call(self, monkeypatch, ncol):
        osc = OscillatingPoly(self.P)
        keys = [(1 + i % 4, i // 4) for i in range(12)]
        rng = np.random.default_rng(ncol)
        for mu in (0.0, 0.4, -1.3):
            coef = rng.standard_normal((12, 3, 5)) + 1j * rng.standard_normal((12, 3, 5))
            osc.add(ZPolyField(keys, coef), mu, 0.2)
        osc.add(lift_interior_vint1({(1, 0): 0.3 - 0.2j}), 0.7)
        z = np.linspace(0.0, 1.0, 33)
        columns = keys[:ncol]
        want = np.array([sum(f.hat_profile(k_h, z) * np.exp(1j * mu * 0.3 / self.P.epsilon
                                                              - rate * 0.3)
                             for f, mu, rate in osc.entries) for k_h in columns])
        calls = []
        powers = correctors._powers

        def counted(z, ndeg):
            calls.append(ndeg)
            return powers(z, ndeg)

        # one build of the power rows (the Vandermonde matrix) per call
        monkeypatch.setattr(correctors, "_powers", counted)
        got = osc.profiles(0.3, z, columns)
        assert len(calls) == 1
        assert_column_close(got, want, rel=1e-13)

    def test_lifts_read_modes_at_call_time(self):
        f = stopping_lift({(1, 0): (np.array([1.0, 2j]), 0.5)},
                          {(1, 0): (np.array([0.1, 0.0]), -0.25j)})
        osc = OscillatingPoly(self.P)
        osc.add(f, 0.0)
        z = np.linspace(0.0, 1.0, 9)
        before = osc.hat_profile((1, 0), 0.0, z)
        assert f.divergence_residual() < 1e-12
        p1, p2, p3 = f.modes[(1, 0)]
        f.modes[(1, 0)] = (p1, p2, p3 + Polynomial([0.0, 0.0, 1.0]))
        # dz of z^2 on the Gauss nodes, largest at the top node
        top = 0.5 * (np.polynomial.legendre.leggauss(24)[0].max() + 1.0)
        assert f.divergence_residual() == pytest.approx(2.0 * top, rel=1e-12)
        assert f.trace(1)[(1, 0)][2] == pytest.approx(p3(1.0) + 1.0, rel=1e-14)
        assert_column_close(osc.hat_profile((1, 0), 0.0, z)[2], before[2] + z ** 2, rel=1e-14)
        for k_h, (q1, q2, q3) in f.items():
            assert_column_close(f.hat_profile(k_h, z), np.array([q1(z), q2(z), q3(z)]),
                                rel=1e-14)
            assert np.allclose(f.dz_horizontal_trace(0)[k_h],
                               [q1.deriv()(0.0), q2.deriv()(0.0)], rtol=1e-14, atol=0.0)
