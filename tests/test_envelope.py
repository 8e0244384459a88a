"""Ekman pumping coefficients and envelope evolution."""

import math

import numpy as np
import pytest

from rotstrip.params import Params
from rotstrip.spectral import SpectralField, eigenvalue, euclidean_norm
from rotstrip.envelope import (
    damping_rate,
    damping_table,
    ekman_limit_coefficient,
    envelope_solve,
    evolve_c,
    pumping,
    trace_bounds,
    trace_s_norm,
)


class TestEkmanCoefficient:
    def test_vertical_modes_carry_no_pumping(self):
        p = Params(1e-4, 1e-4)
        assert pumping([(0, 0, 3)], p).A[0] == 0j

    def test_positive_real_part(self):
        p = Params(1e-6, 1e-6)
        for k in [(1, 0, 1), (2, -1, 3), (1, 1, 0), (0, 2, -2)]:
            assert pumping([k], p).A[0].real > 0.0

    def test_positivity_across_regimes(self):
        for expo in range(2, 9):
            p = Params(10.0 ** -expo, 10.0 ** -expo)
            for k in [(1, 0, 1), (3, 2, -1), (1, 1, 5)]:
                assert pumping([k], p).A[0].real > 0.0

    def test_limit_consistency_monotone(self):
        k = (1, 0, 1)
        R, I = ekman_limit_coefficient(k)
        devs = []
        for expo in [2, 3, 4, 5, 6]:
            p = Params(10.0 ** -expo, 10.0 ** -expo)
            devs.append(abs(pumping([k], p).A[0] - (R + 1j * I)))
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        assert devs[-1] < 1e-2

    def test_lower_bound_proportional_to_aspect(self):
        # Re A_k >= C |k_h| / |k| with an empirically fitted C > 0
        p = Params(1e-6, 1e-6)
        ratios = []
        for k1 in range(0, 5):
            for k2 in range(0, 4):
                for k3 in range(-5, 6):
                    k = (k1, k2, k3)
                    if k == (0, 0, 0) or (k1 == 0 and k2 == 0):
                        continue
                    aspect = math.hypot(k1, k2) / euclidean_norm(k)
                    ratios.append(pumping([k], p).A[0].real / aspect)
        C = min(ratios)
        assert C > 0.0


class TestLimitCoefficient:
    def test_two_dimensional_spin_down_value(self):
        # lambda = 0: classical bottom-Ekman damping 1/sqrt(2)
        R, I = ekman_limit_coefficient((1, 0, 0))
        assert R == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        assert I == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_modes_rejected(self):
        with pytest.raises(ValueError):
            ekman_limit_coefficient((0, 0, 1))

    def test_vanishes_towards_resonant_limit(self):
        # k_h fixed, k3 -> infinity drives lambda -> -1 and (R, I) -> 0
        vals = [ekman_limit_coefficient((1, 0, k3)) for k3 in (1, 4, 16, 64)]
        Rs = [v[0] for v in vals]
        assert all(Rs[i + 1] < Rs[i] for i in range(len(Rs) - 1))
        assert Rs[-1] < 0.05

    def test_positive_R_exhaustive(self):
        # vectorised over the full integer ball |k| <= 50 with k_h != 0
        r = 50
        g = np.arange(-r, r + 1)
        K1, K2, K3 = np.meshgrid(g, g, g, indexing="ij")
        mask = (K1 ** 2 + K2 ** 2 + K3 ** 2 <= r * r) & ((K1 != 0) | (K2 != 0))
        kh2 = (K1 ** 2 + K2 ** 2)[mask]
        k3 = K3[mask]
        lam = -k3 * math.pi / np.sqrt(kh2 + (math.pi * k3) ** 2)
        pref = (1.0 - lam ** 2) / (2.0 * math.sqrt(2.0))
        R = pref * ((1.0 + lam) / np.sqrt(1.0 - lam) + (1.0 - lam) / np.sqrt(1.0 + lam))
        assert R.min() > 0.0
        # spot check the vectorised formula against the scalar path
        R0, _ = ekman_limit_coefficient((3, -2, 5))
        lam0 = eigenvalue((3, -2, 5))
        pref0 = (1.0 - lam0 ** 2) / (2.0 * math.sqrt(2.0))
        assert R0 == pytest.approx(pref0 * ((1 + lam0) / math.sqrt(1 - lam0)
                                            + (1 - lam0) / math.sqrt(1 + lam0)), rel=1e-14)


class TestDampingRate:
    def test_vertical_mode_is_pure_diffusion(self):
        p = Params(1e-3, 1e-3)
        assert damping_rate((0, 0, 1), p) == pytest.approx(p.nu_prime, abs=1e-15)

    def test_horizontal_mode_rate(self):
        p = Params(1e-4, 1e-4)  # nu/eps = 1
        r = damping_rate((1, 0, 0), p)
        A = pumping([(1, 0, 0)], p).A[0]
        assert r == pytest.approx(1.0 + A, abs=1e-14)

    def test_strictly_damped_when_kh_nonzero(self):
        p = Params(1e-5, 1e-3)
        for k in [(1, 0, 1), (2, 2, -3), (1, -1, 0)]:
            assert damping_rate(k, p).real > 0.0


class TestEvolveC:
    def test_time_zero_identity(self):
        p = Params(1e-3, 1e-3)
        g = SpectralField({(1, 0, 1): 1.0 + 2j, (0, 0, 2): -0.5})
        out = evolve_c(g, p, 0.0)
        for k in g.modes():
            assert out[k] == g[k]

    def test_amplitude_bound(self):
        p = Params(1e-3, 1e-3)
        g = SpectralField({(1, 0, 1): 1.0, (2, -1, 3): 1j})
        for t in (0.1, 1.0, 5.0):
            out = evolve_c(g, p, t)
            for k in g.modes():
                kh2 = k[0] ** 2 + k[1] ** 2
                A = pumping([k], p).A[0]
                bound = math.exp(-t * (kh2 + math.sqrt(p.nu / p.epsilon) * A.real))
                assert abs(out[k]) <= bound * abs(g[k]) * (1 + 1e-12)

    def test_vertical_modes_conserved_by_default(self):
        p = Params(1e-3, 1e-3)
        g = SpectralField({(0, 0, 1): 0.3 + 1j})
        out = evolve_c(g, p, 10.0)
        assert abs(out[(0, 0, 1)]) == pytest.approx(abs(g[(0, 0, 1)]), abs=1e-14)
        withv = evolve_c(g, p, 10.0, include_vertical=True)
        assert abs(withv[(0, 0, 1)]) < abs(g[(0, 0, 1)])


class TestEnvelopeSolve:
    MODES = {(1, 0, 1): 1.0, (2, -1, 3): 0.5j, (0, 0, 2): 1.0, (1, 1, 0): -0.7}

    def test_matches_closed_form(self):
        p = Params(1e-3, 2e-3)
        g = SpectralField(self.MODES)
        times = [0.05, 0.3, 1.0]
        traj = envelope_solve(g, p, times)
        for t, field in zip(times, traj):
            ref = evolve_c(g, p, t)
            for k in g.modes():
                denom = max(abs(ref[k]), 1e-30)
                assert abs(field[k] - ref[k]) / denom < 1e-10

    def test_single_mode_closed_form(self):
        p = Params(1e-4, 1e-4)
        g = SpectralField({(1, 0, 1): 2.0})
        (out,) = envelope_solve(g, p, [0.7])
        assert abs(out[(1, 0, 1)] - evolve_c(g, p, 0.7)[(1, 0, 1)]) < 1e-10

    def test_energy_nonincreasing(self):
        p = Params(1e-4, 1e-3)
        g = SpectralField(self.MODES)
        times = np.linspace(0.01, 2.0, 15)
        traj = envelope_solve(g, p, times)
        norms = [f.norm() for f in traj]
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))

    def test_limit_operator_variant(self):
        p = Params(1e-5, 1e-5)
        g = SpectralField({(1, 0, 1): 1.0})
        (out,) = envelope_solve(g, p, [0.5], limit_coefficients=True)
        R, I = ekman_limit_coefficient((1, 0, 1))
        rate = 1.0 + math.sqrt(p.nu / p.epsilon) * (R + 1j * I)
        assert abs(out[(1, 0, 1)] - np.exp(-rate * 0.5)) < 1e-9


class TestTraceBounds:
    def test_zero_data(self):
        bh, b3 = trace_bounds(SpectralField({}), 2.0)
        assert bh == 0.0 and b3 == 0.0

    def test_single_mode_positive(self):
        bh, b3 = trace_bounds(SpectralField({(1, 0, 1): 1.0}), 2.0)
        assert 0.0 < bh < b3

    def test_constructed_traces_within_bounds(self):
        # delta0_h = -c_k(t) n_h(k), delta0_3 = c_k(t) S_k stay below the
        # H^{s+1}, H^{s+2} majorants along the whole trajectory
        from rotstrip.spectral import basis_normal

        p = Params(1e-4, 1e-4)
        s = 2.0
        g = SpectralField({(1, 0, 1): 1.0, (2, 1, -2): 0.5, (1, 1, 3): 0.25j})
        bh, b3 = trace_bounds(g, s)
        for t in (0.0, 0.2, 1.0, 4.0):
            c = evolve_c(g, p, t)
            dh = {k: np.linalg.norm(c[k] * basis_normal(k)[:2]) for k in g.modes()}
            d3 = {k: c[k] * pumping([k], p).S[0] for k in g.modes()}
            assert trace_s_norm(dh, s) <= bh
            assert trace_s_norm(d3, s) <= b3


def test_damping_table_rows():
    p = Params(1e-3, 1e-3)
    rows = damping_table([(1, 0, 1), (0, 0, 1)], p)
    assert rows[0]["k1"] == 0  # sorted lexicographically
    by_mode = {(r["k1"], r["k2"], r["k3"]): r for r in rows}
    assert by_mode[(1, 0, 1)]["lambda"] == pytest.approx(eigenvalue((1, 0, 1)))
    assert math.isnan(by_mode[(0, 0, 1)]["R"])
    assert by_mode[(1, 0, 1)]["A_real"] > 0


def test_damping_table_rows_equal_damping_rate():
    p = Params(1e-3, 2e-3)
    modes = [(a, b, c) for a in range(-2, 3) for b in range(-1, 2) for c in range(-2, 3)
             if (a, b, c) != (0, 0, 0)]
    for row in damping_table(modes, p):
        k = (row["k1"], row["k2"], row["k3"])
        rate = damping_rate(k, p)
        A = pumping([k], p).A[0]
        assert (row["damping_real"], row["damping_imag"]) == (rate.real, rate.imag)
        assert (row["A_real"], row["A_imag"]) == (A.real, A.imag)
        if k[:2] == (0, 0):
            assert math.isnan(row["R"]) and math.isnan(row["I"])
        else:
            assert (row["R"], row["I"]) == ekman_limit_coefficient(k)
