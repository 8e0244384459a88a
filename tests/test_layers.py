"""Boundary layer operator: decay rates, profiles, resonant parts, traces."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotstrip.params import Params
from rotstrip import layers as L
from rotstrip.layers import (
    BoundaryTrace,
    build_B,
    decay_rates,
    empty_trace,
    layer_basis,
    resonant_profile,
    trace_residuals,
)
from references import filter_resonant


def loglog_slope(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    return np.polyfit(x, y, 1)[0]


def symbol(lam, mu, k_h, params):
    """A_lambda of one entry."""
    return L._checked_symbol([lam], [mu], [k_h], params)[0]


def kernel_vector(lam, mu, k_h, params):
    """The kernel vector of one entry and whether it is normalised to its
    first component."""
    w, first = L.kernel_vectors([lam], [mu], [k_h], params)
    return w[0], first[0]


class TestALambdaMatrix:
    def test_kh_zero_form(self):
        p = Params(1e-3, 1e-3)
        A = symbol(0.5 + 0.5j, 0.7, (0, 0), p)
        lam2 = (0.5 + 0.5j) ** 2
        expect = np.array([[1j * 0.7 - lam2, -1.0], [1.0, 1j * 0.7 - lam2]])
        assert np.allclose(A, expect, atol=1e-15)

    def test_singular_at_classical_root(self):
        # mu = 0, lambda^2 = i: det = (-i)^2 + 1 = 0 exactly at k_h = 0
        p = Params(1e-3, 1e-3)
        lam = np.sqrt(1j)
        A = symbol(lam, 0.0, (0, 0), p)
        assert abs(np.linalg.det(A)) < 1e-14

    def test_finite_away_from_variety(self):
        p = Params(1e-3, 1e-3)
        A = symbol(1.0, 1.0, (1, 0), p)
        assert np.all(np.isfinite(A))
        assert abs(np.linalg.det(A)) > 1e-3

    def test_pole_rejected(self):
        p = Params(1e-2, 1e-2)
        lam_pole = math.sqrt(p.eps_nu)  # lambda^2 = eps nu |k_h|^2 with |k_h| = 1
        with pytest.raises(ZeroDivisionError):
            symbol(lam_pole, 0.0, (1, 0), p)


class TestDecayRates:
    def test_classical_ekman_exponents(self):
        p = Params(1e-6, 1e-6)
        r = decay_rates(0.0, (1, 0), p)
        assert abs(r.lambda_minus - np.exp(1j * math.pi / 4)) < 1e-2
        assert abs(r.lambda_plus - np.exp(-1j * math.pi / 4)) < 1e-2
        assert r.det_residual(p) < 1e-10

    def test_resonant_column_has_zero_rate(self):
        for mu in (1.0, -1.0):
            r = decay_rates(mu, (0, 0), Params(1e-4, 1e-4))
            assert r.degenerate_zero
            rates = sorted([abs(r.lambda_minus), abs(r.lambda_plus)])
            assert rates[0] == 0.0
            assert rates[1] == pytest.approx(math.sqrt(2.0), abs=1e-14)
            # nonzero rate squared is 2 mu i
            s_big = r.s_minus if abs(r.s_minus) > 0.5 else r.s_plus
            assert s_big == pytest.approx(2j * mu, abs=1e-14)

    def test_nonnegative_real_parts(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            eps = 10.0 ** rng.uniform(-7, -1)
            nu = 10.0 ** rng.uniform(-7, -1)
            mu = rng.choice([0.0, 0.5, 1.0, -1.0, 2.0, float(rng.uniform(-2, 2))])
            k_h = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r = decay_rates(mu, k_h, Params(eps, nu))
            assert r.lambda_minus.real >= -1e-14
            assert r.lambda_plus.real >= -1e-14
            assert r.det_residual(Params(eps, nu)) < 1e-10

    def test_quasi_resonant_rate_window(self):
        # |lambda+(1, k_h)| stays within a fixed window of (eps + sqrt(eps nu))^(1/2)
        ratios = []
        batch = None
        for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            p = Params(eps, eps)
            batch = L.rate_batch([1.0], [(1, 0)], p, prev=batch)
            r = batch.row(0)
            ratios.append(abs(r.lambda_plus) / (eps + math.sqrt(eps * eps)) ** 0.5)
        assert max(ratios) / min(ratios) < 10.0
        assert 0.05 < min(ratios) and max(ratios) < 20.0

    def test_quasi_resonant_scaling_slope(self):
        xs, ys = [], []
        batch = None
        for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]:
            p = Params(eps, eps)
            batch = L.rate_batch([1.0], [(1, 0)], p, prev=batch)
            xs.append(eps + math.sqrt(eps * eps))
            ys.append(abs(batch.row(0).lambda_plus))
        assert loglog_slope(xs, ys) == pytest.approx(0.5, abs=0.05)

    def test_ambiguity_reported_with_candidates(self):
        # nu >> eps puts the two slow roots at comparable distance to the pole
        r = decay_rates(1.0, (1, 0), Params(1e-6, 1e-2))
        assert r.ambiguous
        assert len(r.plus_candidates) == 2
        assert r.plus_candidates[0] == r.s_plus

    def test_continuity_tracking_overrides(self):
        b1 = L.rate_batch([1.0], [(1, 0)], Params(1e-4, 1e-4))
        r1 = b1.row(0)
        r2 = L.rate_batch([1.0], [(1, 0)], Params(8e-5, 8e-5), prev=b1).row(0)
        assert abs(r2.s_plus - r1.s_plus) < 0.5 * abs(r1.s_plus)

    def test_third_root_exposed_but_distinct(self):
        p = Params(1e-3, 1e-3)
        r = decay_rates(0.5, (1, 0), p)
        assert r.third_root_s not in (r.s_minus, r.s_plus)
        # it is also a genuine root of the cleared cubic
        c = L._cubic(np.array([0.5]), np.array([1]), p)[0]
        assert abs(np.polyval(c, r.third_root_s)) < 1e-10


class TestKernelVectors:
    def test_classical_polarisations(self):
        p = Params(1e-8, 1e-8)
        r = decay_rates(0.0, (1, 0), p)
        wm, first = kernel_vector(r.lambda_minus, 0.0, (1, 0), p)
        wp, _ = kernel_vector(r.lambda_plus, 0.0, (1, 0), p)
        assert np.allclose(wm, [1.0, -1j], atol=1e-3)
        assert np.allclose(wp, [1.0, 1j], atol=1e-3)
        assert first

    def test_resonant_column_exact(self):
        p = Params(1e-3, 1e-3)
        r = decay_rates(1.0, (0, 0), p)
        lam = r.lambda_minus if abs(r.lambda_minus) > 0 else r.lambda_plus
        w, _ = kernel_vector(lam, 1.0, (0, 0), p)
        assert np.allclose(w, [1.0, -1j], atol=1e-14)

    def test_defining_property(self):
        p = Params(1e-4, 1e-5)
        r = decay_rates(0.3, (2, -1), p)
        for lam in (r.lambda_minus, r.lambda_plus):
            w, _ = kernel_vector(lam, 0.3, (2, -1), p)
            A = symbol(lam, 0.3, (2, -1), p)
            assert np.linalg.norm(A @ w) < 1e-10 * max(1.0, np.linalg.norm(A))

    def test_rejects_off_variety(self):
        p = Params(1e-3, 1e-3)
        with pytest.raises(ValueError, match="variety"):
            kernel_vector(1.0 + 0j, 0.0, (1, 0), p)


class TestTransitionCoeffs:
    def test_basis_decomposition(self):
        p = Params(1e-4, 1e-4)
        basis = layer_basis(L.rate_batch([0.0], [(1, 0)], p), p)
        wm, wp = basis.w[0]
        am, ap = basis.solve(wm)[0]
        assert abs(am - 1.0) < 1e-12 and abs(ap) < 1e-12

    def test_circular_trace_limits(self):
        p = Params(1e-8, 1e-8)
        am, ap = layer_basis(L.rate_batch([0.0], [(1, 0)], p), p).solve(np.array([1.0, 1j]))[0]
        assert abs(am) < 1e-3
        assert abs(ap - 1.0) < 1e-3

    def test_det_P_near_2i(self):
        devs, scales = [], []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
            p = Params(eps, eps)
            P = layer_basis(L.rate_batch([0.0], [(1, 0)], p), p).w[0].T  # [w_minus | w_plus]
            det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
            devs.append(abs(det - 2j))
            scales.append(eps + math.sqrt(eps * eps))
        ratios = np.array(devs) / np.array(scales)
        assert ratios.max() < 100.0  # |det P - 2i| = O(eps + sqrt(eps nu))
        assert devs[-1] < devs[0]

    def test_layer_operator_builds_each_kernel_vector_once(self, monkeypatch):
        # kernel-vector rows built through the batch: one per rate
        rows = []
        original = L.kernel_vectors

        def counting(lam, *args):
            rows.append(len(np.asarray(lam).reshape(-1)))
            return original(lam, *args)

        monkeypatch.setattr(L, "kernel_vectors", counting)
        trace = BoundaryTrace(0, {(0.3, (1, -2)): np.array([1.0, 0.5j])})
        sol = build_B(trace, empty_trace(1), Params(1e-3, 1e-3))
        assert len(sol.table) == 1 and sol.table.keep.sum() == 2
        assert sum(rows) == 2



def _rows_equal(a, b):
    """Two DecayRates agree bit for bit (NaN-free fields)."""
    return (a.mu == b.mu and a.k_h == b.k_h
            and (a.s_minus, a.s_plus, a.third_root_s) == (b.s_minus, b.s_plus, b.third_root_s)
            and (a.lambda_minus, a.lambda_plus) == (b.lambda_minus, b.lambda_plus)
            and a.degenerate_zero == b.degenerate_zero and a.ambiguous == b.ambiguous
            and a.plus_candidates == b.plus_candidates)


_MU = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, -0.3]),
    st.floats(-2.5, 2.5),
    st.sampled_from([1.0, -1.0]).flatmap(
        lambda m: st.floats(-1e-6, 1e-6).map(lambda d: m + d)),  # |mu| = 1 neighbourhoods
)
_ENTRY = st.tuples(_MU, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
#: mu exactly +-1 or within 1e-3 of it
_NEAR_ONE = st.sampled_from([1.0, -1.0]).flatmap(
    lambda m: st.just(m) | st.floats(-1e-3, 1e-3).map(lambda d: m + d))
#: the columns of each |k_h|^2 shell in 1..8 (3, 6 and 7 are no sums of two squares)
_SHELLS = {n: [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a * a + b * b == n]
           for n in (1, 2, 4, 5, 8)}


class TestRateBatch:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(log_eps=st.floats(-7, -1), log_nu=st.floats(-7, -1),
           entries=st.lists(_ENTRY, min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_of_a_shuffled_batch_equal_batches_of_one(self, log_eps, log_nu, entries, seed):
        p = Params(10.0 ** log_eps, 10.0 ** log_nu)
        entries = entries + [(1.0, (0, 0)), (-1.0, (0, 0)), (1.0, (1, 0))]
        order = np.random.default_rng(seed).permutation(len(entries))
        mu = [entries[i][0] for i in order]
        k_h = [entries[i][1] for i in order]
        batch = L.rate_batch(mu, k_h, p)
        again = L.rate_batch(mu, k_h, p, prev=batch)
        for i in range(len(order)):
            row = batch.row(i)
            assert _rows_equal(row, decay_rates(mu[i], k_h[i], p))
            assert row.lambda_minus.real >= 0.0 and row.lambda_plus.real >= 0.0
            assert row.det_residual(p) <= 1e-10
            # continuation from the batch itself keeps its rates, and the
            # one-entry continuation is the batch's row
            cont = again.row(i)
            assert (cont.s_minus, cont.s_plus) == (row.s_minus, row.s_plus)
            single = L.rate_batch([mu[i]], [k_h[i]], p)
            assert _rows_equal(cont, L.rate_batch([mu[i]], [k_h[i]], p, prev=single).row(0))

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(log_eps=st.floats(-4, -2), log_nu=st.floats(-4, -2),
           kh2=st.sampled_from(sorted(_SHELLS)), mus=st.lists(_NEAR_ONE, min_size=1, max_size=4))
    def test_rates_around_mu_one(self, log_eps, log_nu, kh2, mus):
        # every column of the |k_h|^2 shell at each mu, in one batch
        p = Params(10.0 ** log_eps, 10.0 ** log_nu)
        columns = _SHELLS[kh2]
        mu = [m for m in mus for _ in columns]
        k_h = [k for _ in mus for k in columns]
        batch = L.rate_batch(mu, k_h, p)
        for i in range(len(mu)):
            row = batch.row(i)
            assert _rows_equal(row, decay_rates(mu[i], k_h[i], p))
            assert row.lambda_minus.real >= 0.0 and row.lambda_plus.real >= 0.0
            assert row.det_residual(p) <= 1e-10
        # the columns of one shell share their rates bit for bit
        for j in range(len(mus)):
            block = slice(j * len(columns), (j + 1) * len(columns))
            for values in (batch.s[block], batch.lam[block]):
                assert (values.view(np.int64) == values[:1].view(np.int64)).all()

    def test_one_warning_per_ambiguous_entry(self):
        columns = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        trace = BoundaryTrace(0, {(1.0, k): np.array([1.0, 0.5j]) for k in columns})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_B(trace, empty_trace(1), Params(1e-2, 1e-2))
        ambiguous = [str(w.message) for w in caught
                     if issubclass(w.category, L.AmbiguousSelectionWarning)]
        assert len(ambiguous) == 4
        assert all(any(f"k_h={k}" in m for m in ambiguous) for k in columns)


def single_mode_solution(side, mu, k_h, delta_hat, params):
    table = {(mu, k_h): delta_hat}
    if side == 0:
        return build_B(BoundaryTrace(0, table), empty_trace(1), params)
    return build_B(empty_trace(0), BoundaryTrace(1, table), params)


def only_row(sol, quasi=False):
    """The table of a solution holding one row, of the given kind."""
    assert len(sol.table) == 1 and sol.table.quasi[0] == quasi
    return sol.table


def row_profile(table, i, z):
    """Profile of row i alone, without its phase."""
    z = np.asarray(z, dtype=float)
    out = np.zeros((1, 3) + z.shape, dtype=complex)
    return table.profiles(np.array([i]), np.ones(1), np.zeros(1, dtype=int), z, out)[0]


def one_rate_table(side, lam, w, mu, k_h, params, alpha=1.0):
    """The one-row table of the single wall profile alpha W^j_lambda, its
    rate in column 0: kernel vector w, amplitude alpha."""
    w2 = np.zeros((1, 2, 2), dtype=complex)
    w2[0, 0] = w
    return L._layer_table([side], [mu], [k_h], np.array([[lam, 0j]]), w2,
                          np.array([[alpha, 0j]]), np.array([[True, False]]), [0], params)


def equation_residual(table, i, params):
    """Independent oracle: substitute each kept rate of row i (with its
    companion pressure from the vertical momentum balance) into the evolution
    operator and return the relative residual of the horizontal momentum
    rows."""
    eps, nu = params.epsilon, params.nu
    k1, k2 = (int(k) for k in table.k_h[i])
    kh2 = k1 * k1 + k2 * k2
    mu = float(table.mu[i])
    worst = 0.0
    for j in np.flatnonzero(table.keep[i]):
        q = table.q[i, j]
        vh, v3 = table.amps[i, j, :2], table.amps[i, j, 2]
        dz_sign = -q if table.side[i] == 0 else q
        coef = (1j * mu / eps) + kh2 - nu * dz_sign ** 2
        # vertical momentum fixes the pressure amplitude: coef*v3 + dz_sign*p = 0
        phat = -coef * v3 / dz_sign
        r1 = coef * vh[0] - vh[1] / eps + 1j * k1 * phat
        r2 = coef * vh[1] + vh[0] / eps + 1j * k2 * phat
        mag = max(abs(coef * vh[0]), abs(vh[1] / eps), abs(vh[0] / eps), 1e-300)
        worst = max(worst, abs(r1) / mag, abs(r2) / mag)
    return worst


class TestProfiles:
    def test_bottom_trace_exact(self):
        p = Params(1e-3, 2e-3)
        delta = np.array([0.3 - 0.2j, 1.1j])
        tab = only_row(single_mode_solution(0, 0.5, (1, -2), delta, p))
        assert np.allclose(tab.wall_traces(0)[0][0], delta, atol=1e-12)

    def test_top_stress_trace_exact(self):
        p = Params(1e-3, 2e-3)
        delta = np.array([1.0, 0.5 + 0.5j])
        tab = only_row(single_mode_solution(1, 2.0, (2, 1), delta, p))
        assert np.allclose(tab.wall_traces(1)[2][0], delta, atol=1e-12)

    def test_exact_solution_residual(self):
        p = Params(1e-3, 1e-3)
        for side, mu, k_h in [(0, 0.0, (1, 0)), (1, 0.5, (2, -1)), (0, 2.0, (0, 0)),
                              (1, 1.0, (1, 1))]:
            sol = single_mode_solution(side, mu, k_h, np.array([1.0, 0.3j]), p)
            for i in range(len(sol.table)):
                assert equation_residual(sol.table, i, p) < 1e-8

    def test_divergence_free_on_grid(self):
        p = Params(1e-2, 1e-2)
        tab = only_row(single_mode_solution(0, 0.5, (2, 1), np.array([1.0, -1j]), p))
        z = np.linspace(0.05, 0.95, 7)
        h = 1e-4
        for zz in z:
            prof_p = row_profile(tab, 0, np.array([zz + h]))[:, 0]
            prof_m = row_profile(tab, 0, np.array([zz - h]))[:, 0]
            prof_pp = row_profile(tab, 0, np.array([zz + 2 * h]))[:, 0]
            prof_mm = row_profile(tab, 0, np.array([zz - 2 * h]))[:, 0]
            prof = row_profile(tab, 0, np.array([zz]))[:, 0]
            dz3 = (-prof_pp[2] + 8 * prof_p[2] - 8 * prof_m[2] + prof_mm[2]) / (12 * h)
            div = 1j * 2 * prof[0] + 1j * 1 * prof[1] + dz3
            assert abs(div) < 1e-9 * max(1.0, np.abs(prof).max())

    def test_l2_scaling_of_wall_profiles(self):
        # || W^j ||_L2 ~ (eps nu / lambda^2)^{(1+2j)/4}
        for side in (0, 1):
            norms, scales = [], []
            for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
                p = Params(eps, eps)
                sol = single_mode_solution(side, 0.0, (1, 0), np.array([1.0, 0.0]), p)
                norms.append(only_row(sol).norms()[0][0])
                scales.append(p.eps_nu)
            slope = loglog_slope(scales, norms)
            assert slope == pytest.approx((1 + 2 * side) / 4.0, abs=0.03)

    def test_vertical_component_smaller_by_sqrt_eps_nu(self):
        for eps in [1e-3, 1e-5]:
            p = Params(eps, eps)
            sol = single_mode_solution(0, 0.0, (1, 0), np.array([1.0, 0.0]), p)
            norm_h, norm_3 = only_row(sol).norms()
            ratio = norm_3[0] / norm_h[0]
            assert ratio < 10.0 * math.sqrt(p.eps_nu)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_hat_profile_matches_per_component_loop(self):
        # the reference takes each decaying rate with its own one-row kernel
        # vector, and the transition coefficients of a one-row basis
        p = Params(1e-3, 1e-3)
        scale = p.layer_scale
        z = np.linspace(0.0, 1.0, 257)
        for side, mu, k_h in [(0, 0.3, (1, -2)), (1, 0.5, (2, 1)), (0, 1.0, (1, 1)),
                              (1, -1.0, (0, 1)), (0, 2.0, (0, 0))]:
            delta = np.array([1.0 - 0.5j, 0.3j])
            sol = single_mode_solution(side, mu, k_h, delta, p)
            tab = sol.table
            assert len(tab) == 1 and tab.quasi[0] == (abs(mu) == 1.0 and k_h != (0, 0))
            batch = L.rate_batch([mu], [k_h], p)
            r = batch.row(0)
            alphas = layer_basis(batch, p).solve(delta)[0]
            zeta = z if side == 0 else 1.0 - z
            dzeta_dz = 1.0 if side == 0 else -1.0
            ref = np.zeros((3,) + z.shape, dtype=complex)
            ref_dz = np.zeros((2,) + z.shape, dtype=complex)
            for j, (lam, alpha) in enumerate(zip((r.lambda_minus, r.lambda_plus), alphas)):
                assert tab.keep[0, j] == (lam.real > 0 and alpha != 0)
                if not tab.keep[0, j]:
                    continue
                assert tab.q[0, j] == pytest.approx(lam / scale, rel=1e-15)
                w, _ = kernel_vector(lam, mu, k_h, p)
                q = lam / scale
                ikw = 1j * (k_h[0] * w[0] + k_h[1] * w[1])
                if side == 0:
                    h, v = alpha * w, alpha * (scale / lam) * ikw
                else:
                    h = alpha * (scale / lam) * w
                    v = -alpha * (scale / lam) ** 2 * ikw
                decay = np.exp(-q * zeta)
                ref[:2] += np.multiply.outer(h, decay)
                ref[2] += v * decay
                ref_dz += np.multiply.outer(-q * dzeta_dz * h, decay)
            got = row_profile(tab, 0, z)
            assert got.shape == ref.shape
            sups = [max(float(np.max(np.abs(r))), 1e-300) for r in (*ref, *ref_dz)]
            for c in range(3):
                assert float(np.max(np.abs(got[c] - ref[c]))) <= 1e-14 * sups[c]
            for wall, i in ((0, 0), (1, -1)):
                h, v, dzh = (a[0] for a in tab.wall_traces(wall))
                for c in range(2):
                    assert abs(h[c] - ref[c, i]) <= 1e-14 * sups[c]
                    assert abs(dzh[c] - ref_dz[c, i]) <= 1e-14 * sups[3 + c]
                assert abs(v - ref[2, i]) <= 1e-14 * sups[2]


class TestProfileW:
    def test_bottom_trace_and_vlambda_prefactors(self):
        p = Params(1e-3, 2e-3)
        r = decay_rates(0.5, (2, 1), p)
        w, _ = kernel_vector(r.lambda_minus, 0.5, (2, 1), p)
        W0 = one_rate_table(0, r.lambda_minus, w, 0.5, (2, 1), p)
        assert len(W0) == 1
        assert np.allclose(W0.wall_traces(0)[0][0], w, atol=1e-14)
        z = np.array([0.0])
        prof = row_profile(W0, 0, z)[:, 0]
        scale = p.layer_scale
        expect_v3 = (scale / r.lambda_minus) * 1j * (2 * w[0] + 1 * w[1])
        assert prof[2] == pytest.approx(expect_v3, abs=1e-15)

    def test_top_stress_trace(self):
        p = Params(1e-3, 1e-3)
        r = decay_rates(0.0, (1, 0), p)
        w, _ = kernel_vector(r.lambda_plus, 0.0, (1, 0), p)
        W1 = one_rate_table(1, r.lambda_plus, w, 0.0, (1, 0), p, alpha=2.0 - 1j)
        assert np.allclose(W1.wall_traces(1)[2][0], (2.0 - 1j) * w, atol=1e-13)

    def test_rejects_nondecaying_rate(self):
        # the trace (1, i) at mu = 1, k_h = 0 lies on the kernel vector of
        # the rate lambda = 0
        p = Params(1e-3, 1e-3)
        basis = layer_basis(L.rate_batch([1.0], [(0, 0)], p), p)
        with pytest.raises(ValueError, match="non-decaying"):
            L.wall_layers(0, basis, np.array([1.0, 1j]), p)


class TestResonantProfile:
    def test_wall_value_is_trace(self):
        for t in (1e-4, 0.1, 3.0):
            v = resonant_profile(0, 2.0 - 1j, 0.01, t, np.array([0.0]))
            assert v[0] == pytest.approx(2.0 - 1j, abs=1e-12)

    def test_top_stress_value(self):
        nu, t = 0.01, 0.5
        h = 1e-6
        delta = 1.5 + 0.2j
        vp = resonant_profile(1, delta, nu, t, np.array([1.0]))[0]
        vm = resonant_profile(1, delta, nu, t, np.array([1.0 - h]))[0]
        assert (vp - vm) / h == pytest.approx(delta, rel=1e-4)

    def test_interior_tail_asymptotics(self):
        nu, t = 1e-3, 1.0
        z = 0.35
        X = z / math.sqrt(nu * t)
        exact = resonant_profile(0, 1.0, nu, t, np.array([z]))[0]
        tail = (2.0 / math.sqrt(math.pi)) / X * math.exp(-X * X / 4.0)
        assert exact.real == pytest.approx(tail, rel=0.05)

    def test_sharp_interface_at_time_zero(self):
        v = resonant_profile(0, 1.0, 0.01, 0.0, np.array([0.0, 0.2, 0.9]))
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-15)

    def test_heat_equation_residual(self):
        nu = 0.02
        dz, dt = 1e-4, 1e-6
        for (t0, z0) in [(0.5, 0.1), (1.0, 0.3), (0.25, 0.05)]:
            f = lambda t, z: resonant_profile(0, 1.0, nu, t, np.array([z]))[0].real
            ut = (f(t0 + dt, z0) - f(t0 - dt, z0)) / (2 * dt)
            uzz = (f(t0, z0 + dz) - 2 * f(t0, z0) + f(t0, z0 - dz)) / dz ** 2
            assert ut - nu * uzz == pytest.approx(0.0, abs=1e-5)


class TestBuildB:
    def test_zero_traces_give_zero(self):
        p = Params(1e-3, 1e-3)
        sol = build_B(empty_trace(0), empty_trace(1), p)
        assert len(sol.table) == 0 and not sol.resonant
        z = np.linspace(0.0, 1.0, 5)
        for k_h in ((0, 0), (1, 0)):
            assert np.array_equal(sol.hat_profile(k_h, 0.3, z), np.zeros((3, 5)))
        assert all(sol.part_norm_h(part, 0.3) == 0.0
                   for part in ("classical", "quasi_resonant", "resonant"))

    def test_top_only_trace_leaves_bottom_empty(self):
        p = Params(1e-3, 1e-3)
        sol = single_mode_solution(1, 0.0, (1, 0), np.array([1.0, 0.0]), p)
        assert np.all(sol.table.side == 1)
        assert sol.part_norm_h("quasi_resonant") == 0.0

    def test_top_nonresonant_norm_scaling(self):
        norms, ens = [], []
        for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
            p = Params(eps, eps)
            sol = single_mode_solution(1, 0.0, (1, 0), np.array([1.0, 0.0]), p)
            norms.append(sol.part_norm_h("classical"))
            ens.append(p.eps_nu)
        assert loglog_slope(ens, norms) == pytest.approx(0.75, abs=0.03)

    def test_resonant_projection_keeps_aligned_part(self):
        p = Params(1e-3, 1e-3)
        sol = single_mode_solution(0, 1.0, (0, 0), np.array([1.0, 1j]), p)
        assert len(sol.resonant) == 1
        ((mu, amplitude),) = sol.resonant[0].entries
        assert mu == 1.0 and amplitude == pytest.approx(1.0, abs=1e-14)
        assert len(sol.table) == 0  # orthogonal remainder vanishes

    def test_resonant_projection_kills_orthogonal_part(self):
        p = Params(1e-3, 1e-3)
        sol = single_mode_solution(0, 1.0, (0, 0), np.array([1.0, -1j]), p)
        assert not sol.resonant
        # remainder excites only the O(1)-rate profile
        tab = only_row(sol)
        assert tab.keep[0].sum() == 1
        lam = tab.q[0][tab.keep[0]][0] * p.layer_scale
        assert abs(lam) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_linearity_coefficientwise(self):
        p = Params(1e-3, 2e-3)
        d1 = np.array([1.0, 0.5j])
        d2 = np.array([-0.3, 1.0 + 1j])
        a, b = 2.0 - 1j, 0.7j
        sol1 = single_mode_solution(0, 0.5, (1, 0), d1, p)
        sol2 = single_mode_solution(0, 0.5, (1, 0), d2, p)
        sol = single_mode_solution(0, 0.5, (1, 0), a * d1 + b * d2, p)
        z = np.linspace(0, 1, 11)
        combo = a * sol1.hat_profile((1, 0), 0.3, z) + b * sol2.hat_profile((1, 0), 0.3, z)
        assert np.allclose(sol.hat_profile((1, 0), 0.3, z), combo, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_part_norm_h_rejects_unknown_part(self):
        p = Params(1e-3, 1e-3)
        trace = BoundaryTrace(0, {(0.0, (1, 0)): np.array([1.0, 0.0]),
                                  (1.0, (1, 0)): np.array([1.0, 0.0])})
        sol = build_B(trace, empty_trace(1), p)
        classical, quasi = sol.part_norm_h("classical"), sol.part_norm_h("quasi_resonant")
        assert 0.0 < classical < quasi
        for name in ("Classical", "ekman", "quasi", ""):
            with pytest.raises(ValueError, match="classical.*quasi_resonant.*resonant"):
                sol.part_norm_h(name)

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    def test_layers_of_several_pairs_tag_their_rows(self):
        p = Params(1e-3, 2e-3)
        pairs = [(BoundaryTrace(0, {(0.0, (1, 0)): np.array([1.0, 0.5j])}),
                  BoundaryTrace(1, {(1.0, (0, 1)): np.array([0.3, 1.0])})),
                 (empty_trace(0), empty_trace(1)),
                 (BoundaryTrace(0, {(1.0, (0, 0)): np.array([1.0, 0.0]),
                                    (0.5, (2, 1)): np.array([0.0, 1.0])}), empty_trace(1))]
        table, resonant = L.build_layers(pairs, p)
        assert table.pair.tolist() == [0, 0, 2, 2]
        assert [len(r) for r in resonant] == [0, 0, 1]
        for pair, (d0, d1) in enumerate(pairs):
            one = build_B(d0, d1, p).table
            rows = table.pair == pair
            for name in ("side", "mu", "k_h", "quasi", "q", "amps", "keep", "alpha"):
                assert np.array_equal(getattr(table, name)[rows], getattr(one, name)), name

    def test_resonant_norm_growth_slope(self):
        p = Params(1e-3, 1e-3)
        sol = single_mode_solution(0, 1.0, (0, 0), np.array([1.0, 1j]), p)
        (layer,) = sol.resonant
        ts = np.array([1e-4, 1e-3, 1e-2, 1e-1]) / p.nu
        norms = [layer.l2_norm_h(t) for t in ts]
        assert loglog_slope(p.nu * ts, norms) == pytest.approx(0.25, abs=0.05)


class TestShellRates:
    """The rates depend on k_h only through |k_h|^2, and the computed ones
    do so exactly: LayerTable.profiles evaluates exp(-q zeta) once per
    distinct value, so the columns of a shell share theirs."""

    @staticmethod
    def shells():
        out = {}
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                if (k1, k2) != (0, 0):
                    out.setdefault(k1 * k1 + k2 * k2, []).append((k1, k2))
        return out

    @pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_rotated_stress_gives_bit_identical_rates_across_a_shell(self, eps, mu):
        rng = np.random.default_rng(int(-math.log10(eps)))
        stress = {}
        for cols in self.shells().values():
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ref = math.atan2(cols[0][1], cols[0][0])
            for k in cols:
                theta = math.atan2(k[1], k[0]) - ref
                c, s = math.cos(theta), math.sin(theta)
                stress[(mu, k)] = np.array([[c, -s], [s, c]]) @ v
        for nu in (eps, 2 * eps):
            tab = build_B(empty_trace(0), BoundaryTrace(1, stress), Params(eps, nu)).table
            assert len(tab) == len(stress)
            assert bool(tab.quasi.all()) == (mu == 1.0)
            for cols in self.shells().values():
                rows = [int(np.flatnonzero((tab.k_h == k).all(axis=1))[0]) for k in cols]
                bits = tab.q[rows].view(np.int64)
                assert (bits == bits[0]).all(), (eps, nu, mu, cols)
                assert (tab.keep[rows] == tab.keep[rows[0]]).all()


class TestResonantLayer:
    def test_value_makes_one_profile_per_call(self, monkeypatch):
        p = Params(1e-3, 2e-3)
        trace = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 0.3j]),
                                  (-1.0, (0, 0)): np.array([0.5, 1.0])})
        (layer,) = build_B(empty_trace(0), trace, p).resonant
        assert len(layer.entries) == 2
        z = np.linspace(0.0, 1.0, 41)
        t = 0.37
        calls = []
        profile = L.resonant_profile

        def counting(*args):
            calls.append(args)
            return profile(*args)

        monkeypatch.setattr(L, "resonant_profile", counting)
        got = layer.value(t, z)
        assert len(calls) == 1
        base = profile(1, 1.0 + 0j, p.nu, t, z)
        ref = sum(np.multiply.outer(amplitude * np.exp(1j * mu * t / p.epsilon)
                                    * np.array([1.0, 1j * mu, 0.0]), base)
                  for mu, amplitude in layer.entries)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


    def test_strip_column_changes_only_the_shape(self):
        p = Params(1e-2, 1e-2)
        trace = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 0.3j]),
                                  (-1.0, (0, 0)): np.array([0.5, 1.0])})
        (layer,) = build_B(empty_trace(0), trace, p).resonant
        strip = L.HeatColumn(layer.side, layer.nu, layer.epsilon, layer.entries)
        assert isinstance(strip, L.ResonantLayer) and not hasattr(strip, "profiles")
        assert strip.entries == layer.entries and strip.entries is not layer.entries
        z = np.linspace(0.0, 1.0, 20001)
        t = 0.3 / p.nu
        shape = strip._shape(t, z)
        ref = sum(np.multiply.outer(amplitude * np.exp(1j * mu * t / p.epsilon)
                                    * np.array([1.0, 1j * mu, 0.0]), shape)
                  for mu, amplitude in strip.entries)
        assert np.max(np.abs(strip.value(t, z) - ref)) <= 1e-15 * np.max(np.abs(ref))
        dens = np.sum(np.abs(strip.value(t, z)) ** 2, axis=0)
        want = 2.0 * math.pi * math.sqrt(np.trapezoid(dens, z))
        assert strip.l2_norm_h(t) == pytest.approx(want, rel=1e-7)
        # the top stress column tends to the linear shear g z: 1/8 of its
        # squared mass lies more than half the depth from the top
        assert strip.interior_mass_fraction(100.0 / p.nu) == pytest.approx(0.125, abs=1e-3)


class TestTraceResiduals:
    def test_exponentially_small_opposite_traces(self):
        p = Params(1e-2, 1e-2)
        sol = single_mode_solution(0, 0.0, (1, 0), np.array([1.0, 0.0]), p)
        res = trace_residuals(sol, p, t=0.1)
        mag = res.max_magnitude("classical_bottom_at_top")
        assert 0.0 < mag < math.exp(-0.5 / math.sqrt(p.eps_nu))
        # at sharper parameters the trace underflows outright
        p2 = Params(1e-4, 1e-4)
        sol2 = single_mode_solution(0, 0.0, (1, 0), np.array([1.0, 0.0]), p2)
        assert trace_residuals(sol2, p2, t=0.1).max_magnitude("classical_bottom_at_top") == 0.0

    def test_resonant_trace_magnitude(self):
        p = Params(1e-3, 1e-3)
        sol = single_mode_solution(0, 1.0, (0, 0), np.array([1.0, 1j]), p)
        for nut in (1e-3, 1e-2):
            res = trace_residuals(sol, p, t=nut / p.nu)
            bound = 4.0 * math.sqrt(nut) * math.exp(-1.0 / (4.0 * nut))
            assert res.max_magnitude("resonant_traces") <= bound

    def test_residuals_vanish_along_sweep(self):
        mags = []
        for eps in [1e-2, 1e-3, 1e-4]:
            p = Params(eps, eps)
            sol = single_mode_solution(0, 0.5, (1, 0), np.array([1.0, 1.0]), p)
            res = trace_residuals(sol, p, t=0.1)
            mags.append(res.max_magnitude("classical_bottom_at_top"))
        assert mags[2] <= mags[1] <= mags[0]


class TestBoundaryTraceNorm:
    def test_square_rooted_sum(self):
        tr = BoundaryTrace(0, {(0.0, (1, 0)): np.array([3.0, 4.0]),
                               (1.0, (0, 0)): np.array([0.0, 12.0])})
        assert tr.norm() == pytest.approx(13.0, abs=1e-14)

    def test_scaling(self):
        tr = BoundaryTrace(1, {(0.5, (2, 1)): np.array([1.0, 1j])})
        assert tr.scaled(2.0).norm() == pytest.approx(2.0 * tr.norm(), rel=1e-14)


class TestBoundaryTraceKeys:
    @pytest.mark.parametrize("k_h", [(1, 0, 5), (1.7, 0), (1,), (True, 0), "10"])
    def test_k_h_that_is_not_two_integers_rejected(self, k_h):
        # int() used to drop a third entry and floor 1.7 to 1
        with pytest.raises(ValueError, match=r"k_h=.* must be 2 integers"):
            BoundaryTrace(0, {(0.0, k_h): np.array([1.0, 0.0])})

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        # (nan, (1, 0)) used to be kept as a key
        with pytest.raises(ValueError, match=r"trace key \((nan|inf|-inf), \(1, 0\)\): mu"):
            BoundaryTrace(1, {(mu, (1, 0)): np.array([1.0, 0.0])})

    @pytest.mark.parametrize("v", [[math.nan, 0.0], [1.0, complex(0.0, math.inf)]])
    def test_non_finite_trace_value_rejected(self, v):
        # a NaN stress used to assemble to NaN norms
        with pytest.raises(ValueError, match=r"value at key \(0.5, \(1, 0\)\) must be finite"):
            BoundaryTrace(1, {(0.5, (1, 0)): np.array(v)})

    def test_integer_k_h_kept_as_python_ints(self):
        tr = BoundaryTrace(0, {(0.0, (np.int64(1), -2)): np.array([1.0, 0.0])})
        ((mu, k_h),) = tr.table
        assert k_h == (1, -2) and all(type(k) is int for k in k_h)


class TestFilterResonant:
    def test_co_rotating_wave_becomes_steady(self):
        eps = 1e-2
        z = np.linspace(0, 1, 5)
        for t in (0.0, 0.013, 1.7):
            u = np.multiply.outer(np.array([1.0, 1j, 0.0]), np.ones_like(z)) * np.exp(1j * t / eps)
            v = filter_resonant(u, eps, t)
            expect = np.multiply.outer(np.array([1.0, 1j, 0.0]), np.ones_like(z))
            assert np.allclose(v, expect, atol=1e-12)

    def test_steady_input_oscillates(self):
        eps = 1e-2
        z = np.linspace(0, 1, 3)
        u = np.multiply.outer(np.array([1.0, -1j, 0.0]), np.ones_like(z))
        t = 0.4
        v = filter_resonant(u, eps, t)
        expect = u * np.exp(1j * t / eps)
        assert np.allclose(v, expect, atol=1e-12)
