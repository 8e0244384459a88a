"""Eigenbasis module: orthonormality, eigen-relation, projections, rotation group."""

import math

import numpy as np
import pytest

from rotstrip.params import Params
from rotstrip.spectral import (
    SpectralField,
    StripQuadrature,
    basis_profile,
    basis_vector,
    basis_normal,
    coriolis_apply,
    eigenvalue,
    project_V0,
    semigroup,
    weighted_norm,
)


QUAD = StripQuadrature(nx=24, ny=24, nz=40)


def random_field(rng, modes):
    return SpectralField({k: complex(rng.standard_normal(), rng.standard_normal()) for k in modes})


class TestEigenvalue:
    def test_horizontal_mode_is_steady(self):
        assert eigenvalue((1, 0, 0)) == 0.0

    def test_vertical_mode_is_extremal(self):
        assert eigenvalue((0, 0, 1)) == pytest.approx(-1.0, abs=1e-15)
        assert eigenvalue((0, 0, -3)) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_mode_value(self):
        # frozen from the closed form evaluated in double precision
        assert eigenvalue((1, 0, 1)) == pytest.approx(-0.9528905139886873, abs=1e-14)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            eigenvalue((0, 0, 0))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = tuple(int(c) for c in rng.integers(-6, 7, size=3))
            if k == (0, 0, 0):
                continue
            assert abs(eigenvalue(k)) <= 1.0 + 1e-15


class TestBasisVectors:
    def test_vertical_mode_vanishes_at_midplane(self):
        v = basis_vector((0, 0, 1), (0.3, 1.1, 0.5))
        assert np.allclose(v, 0.0, atol=1e-15)

    def test_n3_closed_form(self):
        n = basis_normal((1, 0, 1))
        assert n[2] == pytest.approx(1j * 0.04827399737944471, abs=1e-15)

    def test_unit_norm_by_quadrature(self):
        for k in [(1, 0, 1), (0, 0, 2), (2, -1, 0), (1, 2, -3)]:
            nk = QUAD.sample(k)
            assert abs(QUAD.inner(nk, nk) - 1.0) < 1e-10

    def test_orthogonality_within_column(self):
        # same k_h, opposite and distinct k3 (the x_h-factorised pairs that do
        # not vanish trivially)
        pairs = [((1, 0, 1), (1, 0, -1)), ((1, 0, 1), (1, 0, 2)),
                 ((0, 0, 1), (0, 0, -1)), ((2, 1, 2), (2, 1, -2))]
        for k, l in pairs:
            assert abs(QUAD.inner(QUAD.sample(k), QUAD.sample(l))) < 1e-10

    def test_orthogonality_random_pairs_full_quadrature(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 20:
            k = tuple(int(c) for c in rng.integers(-3, 4, size=3))
            l = tuple(int(c) for c in rng.integers(-3, 4, size=3))
            if k == (0, 0, 0) or l == (0, 0, 0) or k == l:
                continue
            count += 1
            assert abs(QUAD.inner(QUAD.sample(k), QUAD.sample(l))) < 1e-10

    def test_divergence_free_pointwise(self):
        # fourth-order finite differences at interior points
        rng = np.random.default_rng(5)
        h = 1e-3
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
        for k in [(1, 0, 1), (2, -1, 3), (0, 0, 2), (3, 2, -1)]:
            for _ in range(5):
                x0 = np.array([rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi),
                               rng.uniform(0.1, 0.9)])
                div = 0j
                for axis in range(3):
                    vals = []
                    for off in offsets:
                        x = x0.copy()
                        x[axis] += off
                        vals.append(basis_vector(k, x)[axis])
                    div += np.dot(stencil, vals)
                assert abs(div) < 1e-10

    def test_zero_flux_at_walls(self):
        for k in [(1, 0, 1), (2, -1, 3), (0, 0, 2)]:
            for z in (0.0, 1.0):
                v = basis_profile(k, z)
                assert abs(v[2]) < 1e-15


class TestProjection:
    def test_projects_single_mode_to_unit_coefficient(self):
        k = (1, 0, 1)
        field = QUAD.sample(k)
        out = project_V0(field, [k, (1, 0, -1), (1, 0, 2)], QUAD)
        assert abs(out[k] - 1.0) < 1e-10
        assert abs(out[(1, 0, -1)]) < 1e-10

    def test_gradients_project_to_zero(self):
        X1, X2, Z = QUAD.mesh()
        # grad of phi = exp(i(x1 + 2 x2)) cos(pi z)
        phi = np.exp(1j * (X1 + 2 * X2)) * np.cos(math.pi * Z)
        grad = np.stack([1j * phi, 2j * phi, np.exp(1j * (X1 + 2 * X2)) * (-math.pi) * np.sin(math.pi * Z)])
        out = project_V0(grad, [(1, 2, k3) for k3 in range(-3, 4)], QUAD)
        assert max(abs(c) for _, c in out.items()) < 1e-10

    def test_linearity(self):
        k, l = (1, 0, 1), (2, 1, -2)
        field = 0.7 * QUAD.sample(k) + (0.2 - 1.3j) * QUAD.sample(l)
        out = project_V0(field, [k, l], QUAD)
        assert abs(out[k] - 0.7) < 1e-10
        assert abs(out[l] - (0.2 - 1.3j)) < 1e-10

    def test_rejects_under_resolved_grid(self):
        small = StripQuadrature(nx=8, ny=8, nz=16)
        with pytest.raises(ValueError, match="under-resolved"):
            project_V0(np.zeros((3, 8, 8, 16)), [(4, 0, 1)], small)


class TestCoriolis:
    def test_vertical_mode(self):
        u = SpectralField({(0, 0, 1): 1.0})
        out = coriolis_apply(u)
        assert out[(0, 0, 1)] == pytest.approx(-1j, abs=1e-15)

    def test_steady_mode(self):
        u = SpectralField({(1, 0, 0): 1.0})
        assert abs(coriolis_apply(u)[(1, 0, 0)]) == 0.0

    def test_contraction(self):
        rng = np.random.default_rng(11)
        modes = [(1, 0, 1), (2, -1, 3), (0, 0, 2), (1, 1, 0), (3, -2, -4)]
        for _ in range(20):
            u = random_field(rng, modes)
            assert coriolis_apply(u).norm() <= u.norm() + 1e-12

    def test_skew_adjoint_on_coefficients(self):
        rng = np.random.default_rng(13)
        modes = [(1, 0, 1), (2, -1, 3), (0, 0, 2), (1, 1, 0)]
        for _ in range(20):
            u = random_field(rng, modes)
            ip = sum(np.conj(u[k]) * coriolis_apply(u)[k] for k in u.modes())
            assert abs(ip.real) < 1e-12 * max(u.norm() ** 2, 1.0)

    def test_eigen_relation_by_quadrature(self):
        # P(e3 ^ N_k) = i lambda_k N_k, projection by quadrature
        for k in [(1, 0, 1), (2, 1, -2), (1, -1, 3), (0, 0, 1)]:
            nk = QUAD.sample(k)
            rotated = np.stack([-nk[1], nk[0], np.zeros_like(nk[2])])
            modes = [(k[0], k[1], m) for m in range(-4, 5) if (k[0], k[1], m) != (0, 0, 0)]
            out = project_V0(rotated, modes, QUAD)
            for l, c in out.items():
                target = 1j * eigenvalue(k) if l == k else 0.0
                assert abs(c - target) < 1e-8


class TestSemigroup:
    MODES = [(1, 0, 1), (0, 0, 2), (2, -1, 3), (1, 1, 0)]

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(17)
        u = random_field(rng, self.MODES)
        out = semigroup(0.0, u)
        for k in u.modes():
            assert out[k] == u[k]

    def test_two_pi_on_vertical_modes(self):
        u = SpectralField({(0, 0, 1): 1.0 + 2j, (0, 0, -2): 0.5})
        out = semigroup(2 * math.pi, u)
        for k in u.modes():
            assert out[k] == pytest.approx(u[k], abs=1e-13)

    def test_norm_preserving(self):
        rng = np.random.default_rng(19)
        for tau in (0.1, 3.7, 100.0):
            u = random_field(rng, self.MODES)
            assert semigroup(tau, u).norm() == pytest.approx(u.norm(), abs=1e-14)

    def test_group_property(self):
        rng = np.random.default_rng(23)
        u = random_field(rng, self.MODES)
        a, b = 0.4, 1.9
        lhs = semigroup(a, semigroup(b, u))
        rhs = semigroup(a + b, u)
        for k in u.modes():
            assert lhs[k] == pytest.approx(rhs[k], abs=1e-14)


def test_field_evaluate_matches_basis_sum():
    u = SpectralField({(1, 0, 1): 0.5 - 1j, (2, -1, 0): 2.0})
    x = (0.7, 1.9, 0.31)
    expect = (0.5 - 1j) * basis_vector((1, 0, 1), x) + 2.0 * basis_vector((2, -1, 0), x)
    assert np.allclose(u.evaluate(x), expect, atol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError, match="epsilon"):
        Params(0.0, 1e-3)
    with pytest.raises(ValueError, match="nu"):
        Params(1e-3, 2.0)
    with pytest.raises(ValueError, match="beta"):
        Params(1e-3, 1e-3, beta=-1.0)
    with pytest.raises(TypeError):
        Params(1e-3, 1e-3, N=4)
    p = Params(1e-3, 4e-3)
    assert p.layer_scale == pytest.approx(2e-3)
    assert p.nu_prime == pytest.approx(4e-3 * np.pi ** 2)


def test_weighted_norm_matches_eigenvalue_formula():
    for k in [(1, 0, 1), (2, 3, -4)]:
        lam = eigenvalue(k)
        assert lam == pytest.approx(-k[2] * math.pi / weighted_norm(k), abs=1e-15)
