"""Acceptance gate: every headline property at its stated tolerance.

Each test prints one pass/fail line (collected in the terminal summary) and
asserts the same condition.  The direct-solver criteria run at desk scale and
take a few seconds each; everything else is near-instant.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance

from rotstrip.params import Params
from rotstrip.spectral import (
    SpectralField,
    StripQuadrature,
    basis_profile,
    basis_vector,
    eigenvalue,
    euclidean_norm,
)
from rotstrip.layers import (
    BoundaryTrace,
    build_B,
    decay_rates,
    empty_trace,
)
from rotstrip.envelope import damping_rate
from rotstrip.correctors import (
    ExpSource,
    SourceTable,
    assemble_wind_approx,
    column_forms,
    small_divisor_corrector,
    stopping_lift,
)
from rotstrip.direct import fit_decay, l2_norm, solve_direct
from rotstrip.harness import regress_loglog


def ball_modes(radius):
    out = []
    r = int(radius)
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            for k3 in range(-r, r + 1):
                k = (k1, k2, k3)
                if k != (0, 0, 0) and euclidean_norm(k) <= radius:
                    out.append(k)
    return sorted(out)


def test_criterion_1_eigenbasis_suite():
    """Orthonormality, eigen-relation, divergence and flux for |k| <= 4."""
    t0 = time.time()
    modes = ball_modes(4)
    zg, wg = np.polynomial.legendre.leggauss(64)
    z = 0.5 * (zg + 1.0)
    wz = 0.5 * wg
    worst = 0.0

    # orthonormality: horizontal orthogonality is exact, so the content is
    # the z Gram matrix within each column k_h
    by_kh = {}
    for k in modes:
        by_kh.setdefault((k[0], k[1]), []).append(k)
    for k_h, col in sorted(by_kh.items()):
        profs = np.array([basis_profile(k, z) for k in col])  # (m, 3, nz)
        gram = 4.0 * math.pi ** 2 * np.einsum("icz,jcz,z->ij", np.conj(profs), profs, wz)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(col))))))

    # full tensor-quadrature spot check on a deterministic subset of pairs
    quad = StripQuadrature(nx=20, ny=20, nz=48)
    subset = [m for m in modes if euclidean_norm(m) <= 2.0]
    for i, k in enumerate(subset):
        l = subset[(i * 7 + 3) % len(subset)]
        ip = quad.inner(quad.sample(k), quad.sample(l))
        target = 1.0 if k == l else 0.0
        worst = max(worst, abs(ip - target))

    # eigen-relation P(e3 ^ N_k) = i lambda_k N_k, projected in z
    for k_h, col in sorted(by_kh.items()):
        span = [(k_h[0], k_h[1], m) for m in range(-5, 6) if (k_h[0], k_h[1], m) != (0, 0, 0)]
        profs = np.array([basis_profile(k, z) for k in span])
        for k in col:
            nk = basis_profile(k, z)
            rot = np.stack([-nk[1], nk[0], np.zeros_like(nk[2])])
            coeffs = 4.0 * math.pi ** 2 * np.einsum("icz,cz,z->i", np.conj(profs), rot, wz)
            for l, c in zip(span, coeffs):
                target = 1j * eigenvalue(k) if l == k else 0.0
                worst = max(worst, abs(c - target))

    # divergence (fourth-order finite differences) and wall flux
    h = 1e-3
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    pts = [(0.7, 1.9, 0.31), (2.2, 0.4, 0.62)]
    for k in modes:
        for x0 in pts:
            div = 0j
            for axis in range(3):
                vals = []
                for off in offsets:
                    xx = list(x0)
                    xx[axis] += off
                    vals.append(basis_vector(k, xx)[axis])
                div += np.dot(stencil, vals)
            worst = max(worst, abs(div))
        for zw in (0.0, 1.0):
            worst = max(worst, abs(basis_profile(k, zw)[2]))

    elapsed = time.time() - t0
    passed = worst < 1e-8 and elapsed < 10.0
    record_acceptance("criterion 1 (eigenbasis suite)", passed,
                      f"max error {worst:.3e} < 1e-8, {len(modes)} modes, {elapsed:.1f}s")
    assert passed


def test_criterion_2_ekman_root_recovery():
    t0 = time.time()
    p = Params(1e-6, 1e-6)
    r = decay_rates(0.0, (1, 0), p)
    dev = max(abs(r.lambda_minus - np.exp(1j * math.pi / 4)),
              abs(r.lambda_plus - np.exp(-1j * math.pi / 4)))
    elapsed = time.time() - t0
    passed = dev < 1e-2 and elapsed < 1.0
    record_acceptance("criterion 2 (Ekman root recovery)", passed,
                      f"max deviation {dev:.3e} < 1e-2, {elapsed:.2f}s")
    assert passed


def test_criterion_3_quasi_resonant_rate_scaling():
    t0 = time.time()
    xs, ys = [], []
    prev = None
    for expo in range(2, 8):
        eps = 10.0 ** -expo
        p = Params(eps, eps)
        r = decay_rates(1.0, (1, 0), p, prev=prev)
        xs.append(eps + math.sqrt(eps * eps))
        ys.append(abs(r.lambda_plus))
        prev = r
    reg = regress_loglog(zip(xs, ys))
    ratios = [y / math.sqrt(x) for x, y in zip(xs, ys)]
    window = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    passed = abs(reg.slope - 0.5) <= 0.05 and window < 10.0 and elapsed < 1.0
    record_acceptance("criterion 3 (quasi-resonant rate scaling)", passed,
                      f"slope {reg.slope:.4f} (0.5+-0.05), ratio window {window:.2f} < 10, "
                      f"{elapsed:.2f}s")
    assert passed


@pytest.mark.filterwarnings("ignore::rotstrip.layers.AmbiguousSelectionWarning")
def test_criterion_4_boundary_layer_norm_scalings():
    t0 = time.time()
    results = {}
    for side in (0, 1):
        for kind, mu in (("classical", 0.0), ("quasi", 1.0)):
            xs, ys = [], []
            for expo in range(2, 7):
                eps = 10.0 ** -expo
                p = Params(eps, eps)
                table = {(mu, (1, 0)): np.array([1.0, 0.0])}
                if side == 0:
                    sol = build_B(BoundaryTrace(0, table), empty_trace(1), p)
                else:
                    sol = build_B(empty_trace(0), BoundaryTrace(1, table), p)
                part = "classical" if kind == "classical" else "quasi_resonant"
                x = eps * eps if kind == "classical" else eps * eps / (eps + eps)
                xs.append(x)
                ys.append(sol.part_norm_h(part))
            reg = regress_loglog(zip(xs, ys))
            results[(kind, side)] = reg.slope
    elapsed = time.time() - t0
    ok = True
    details = []
    for (kind, side), slope in sorted(results.items()):
        target = (1 + 2 * side) / 4.0
        tol = 0.03 if kind == "classical" else 0.05
        ok &= abs(slope - target) <= tol
        details.append(f"{kind} j={side}: {slope:.4f} ({target}+-{tol})")
    passed = ok and elapsed < 10.0
    record_acceptance("criterion 4 (layer norm scalings)", passed,
                      "; ".join(details) + f", {elapsed:.1f}s")
    assert passed


def test_criterion_5_resonant_growth_and_destabilization():
    t0 = time.time()
    p = Params(1e-3, 1e-3)
    sol = build_B(BoundaryTrace(0, {(1.0, (0, 0)): np.array([1.0, 1j])}),
                  empty_trace(1), p)
    (layer,) = sol.resonant
    nuts = np.geomspace(1e-4, 1e-2, 7)
    reg = regress_loglog([(nut, layer.l2_norm_h(nut / p.nu)) for nut in nuts])
    frac = layer.interior_mass_fraction(1.0 / p.nu)
    elapsed = time.time() - t0
    passed = abs(reg.slope - 0.25) <= 0.05 and frac > 0.10 and elapsed < 10.0
    record_acceptance("criterion 5 (resonant growth)", passed,
                      f"slope {reg.slope:.4f} (0.25+-0.05), interior fraction at nu*t=1: "
                      f"{frac:.2f} > 0.10, {elapsed:.1f}s")
    assert passed


def test_criterion_6_convergence_at_desk_scale():
    t0 = time.time()
    gamma = SpectralField({(1, 0, 1): 1.0})
    from rotstrip.correctors import ApproxSolution, assemble_dirichlet_approx
    from rotstrip.harness import compare

    sups = []
    for eps in (1e-2, 3e-3, 1e-3):
        p = Params(eps, eps)
        # dt well below the eps/10 ceiling: the trapezoidal carrier phase
        # drift ~ T (lambda/eps)(lambda dt/eps)^2 / 12 must stay subordinate
        # to the physical layer-sized error this criterion measures
        out = solve_direct(gamma, None, p, t_end=0.5, dt=eps / 50.0, Nz=512,
                           save_every=50)
        approx = assemble_dirichlet_approx(gamma, p)
        envelope = ApproxSolution(p, {"interior_envelope": approx.parts["interior_envelope"]})
        res = compare(out, envelope, np.linspace(0.0, 0.5, 11))
        sups.append(res["sup_error"])
    elapsed = time.time() - t0
    decreasing = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    passed = decreasing and sups[-1] < 0.1 * gamma.norm()
    record_acceptance("criterion 6 (convergence at desk scale)", passed,
                      f"sup errors {[f'{s:.4f}' for s in sups]} strictly decreasing: "
                      f"{decreasing}, final {sups[-1]:.4f} < 0.1, {elapsed:.0f}s")
    assert passed


def test_full_dirichlet_hierarchy_against_direct():
    """The whole assembled approximation, not only its envelope: after the
    initial layer its error falls with eps and stays below the envelope's,
    and at t = 0 it equals the ledger's recorded initial mismatch."""
    t0 = time.time()
    gamma = SpectralField({(1, 0, 1): 1.0})
    from rotstrip.correctors import ApproxSolution, assemble_dirichlet_approx
    from rotstrip.harness import compare

    full_errs, env_errs, start_ratios, flags = [], [], [], 0
    for eps in (1e-2, 3e-3):
        p = Params(eps, eps)
        out = solve_direct(gamma, None, p, t_end=0.5, dt=eps / 50.0, Nz=512,
                           save_every=50)
        approx = assemble_dirichlet_approx(gamma, p)
        times = np.linspace(0.0, 0.5, 11)
        full = compare(out, approx, times)
        envelope = compare(out, ApproxSolution(
            p, {"interior_envelope": approx.parts["interior_envelope"]}), times)
        late = [i for i, t in enumerate(full["times"]) if 0.1 <= t <= 0.5]
        full_errs.append(max(full["errors"][i] for i in late))
        env_errs.append(max(envelope["errors"][i] for i in late))
        assert full["times"][0] == 0.0
        start_ratios.append(full["errors"][0] / approx.residuals["initial_mismatch"])
        flags += len(full["attribution_flags"])
    elapsed = time.time() - t0
    decreasing = full_errs[1] < full_errs[0]
    below_envelope = all(f < e for f, e in zip(full_errs, env_errs))
    ledger_ok = all(abs(r - 1.0) <= 0.01 for r in start_ratios)
    passed = decreasing and below_envelope and ledger_ok and flags == 0
    record_acceptance("full Dirichlet hierarchy", passed,
                      f"max error on [0.1, 0.5] {[f'{e:.4f}' for e in full_errs]} strictly "
                      f"decreasing: {decreasing}, below envelope "
                      f"{[f'{e:.4f}' for e in env_errs]}: {below_envelope}; t=0 error / "
                      f"initial_mismatch {[f'{r:.4f}' for r in start_ratios]}; "
                      f"{flags} attribution flags, {elapsed:.0f}s")
    assert passed


def test_criterion_7_ekman_pumping_rate():
    t0 = time.time()
    p = Params(1e-3, 1e-3)
    gamma = SpectralField({(1, 0, 1): 1.0})
    out = solve_direct(gamma, None, p, t_end=0.5, dt=p.epsilon / 10.0, Nz=512,
                       save_every=20)
    fit = fit_decay(out[(1, 0)], (0.1, 0.5), (1, 0, 1))
    pred = damping_rate((1, 0, 1), p).real
    rel = abs(fit.rate.real - pred) / pred
    elapsed = time.time() - t0
    passed = rel < 0.10
    record_acceptance("criterion 7 (Ekman pumping rate)", passed,
                      f"fitted {fit.rate.real:.4f} vs predicted {pred:.4f}, "
                      f"rel error {rel:.3%} < 10%, {elapsed:.0f}s")
    assert passed


def test_criterion_8_stopping_lemma():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    def random_data():
        d0, d1 = {}, {}
        for k_h in [(0, 0), (1, 0), (0, 1), (2, -1), (1, 2), (3, 1)]:
            c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v0 = complex(rng.standard_normal() + 1j * rng.standard_normal())
            v1 = v0 if k_h == (0, 0) else complex(rng.standard_normal())
            d0[k_h] = (c0, v0)
            d1[k_h] = (c1, v1)
        return d0, d1

    def h3(d):
        return math.sqrt(sum((1.0 + k[0] ** 2 + k[1] ** 2) ** 3
                             * (np.sum(np.abs(ch) ** 2) + abs(c3) ** 2)
                             for k, (ch, c3) in d.items()))

    # fit the constant once
    ratios = []
    for _ in range(20):
        d0, d1 = random_data()
        w = stopping_lift(d0, d1)
        ratios.append(w.h2_norm() / (h3(d0) + h3(d1)))
    C = 1.3 * max(ratios)

    worst_div = 0.0
    worst_trace = 0.0
    bound_ok = True
    for _ in range(100):
        d0, d1 = random_data()
        w = stopping_lift(d0, d1)
        worst_div = max(worst_div, w.divergence_residual())
        tr0 = w.trace(0)
        tr1 = w.trace(1)
        dzh1 = w.dz_horizontal_trace(1)
        for k_h in d0:
            worst_trace = max(
                worst_trace,
                float(np.max(np.abs(tr0[k_h][:2] - d0[k_h][0]))),
                abs(tr0[k_h][2] - d0[k_h][1]),
                abs(tr1[k_h][2] - d1[k_h][1]),
                float(np.max(np.abs(dzh1[k_h] - d1[k_h][0]))),
            )
        bound_ok &= w.h2_norm() <= C * (h3(d0) + h3(d1))
    elapsed = time.time() - t0
    passed = worst_div < 1e-12 and worst_trace < 1e-11 and bound_ok and elapsed < 5.0
    record_acceptance("criterion 8 (stopping lemma)", passed,
                      f"divergence {worst_div:.2e} < 1e-12, traces exact to "
                      f"{worst_trace:.2e}, H2 bound with C={C:.2f} honored over 100 sets, "
                      f"{elapsed:.1f}s")
    assert passed


def test_criterion_9_small_divisor_bound():
    t0 = time.time()
    entries = {
        (0.5, (1, 0, 1)): ExpSource(1.0 + 0.3j, 0.2),
        (2.0, (2, 1, -1)): ExpSource(0.5j, 0.0),
        (0.0, (1, 1, 2)): ExpSource(0.8, 0.1),
    }
    src = SourceTable(entries)
    t_eval = 0.7
    norms, epss = [], []
    for expo in range(2, 7):
        eps = 10.0 ** -expo
        p = Params(eps, eps)
        out = small_divisor_corrector(src, 5, p, t_eval)
        norms.append(out.norm())
        epss.append(eps)
    reg = regress_loglog(zip(epss, norms))

    p = Params(1e-2, 1e-2)
    agree = 0.0
    for variant in ("special", "zero_ic"):
        closed = small_divisor_corrector(src, 5, p, t_eval, variant=variant)
        quad = small_divisor_corrector(src, 5, p, t_eval, variant=variant,
                                       method="quadrature")
        agree = max(agree, max(abs(closed[l] - quad[l]) /
                               max(abs(closed[l]), 1e-12) for l in closed.modes()))
    elapsed = time.time() - t0
    passed = abs(reg.slope - 1.0) <= 0.05 and agree < 1e-10 and elapsed < 5.0
    record_acceptance("criterion 9 (small-divisor bound)", passed,
                      f"slope {reg.slope:.4f} (1.0+-0.05), two-path agreement "
                      f"{agree:.2e} < 1e-10, {elapsed:.1f}s")
    assert passed


def test_criterion_10_scalar_product_closed_forms():
    t0 = time.time()
    zg, wg = np.polynomial.legendre.leggauss(96)
    z = 0.5 * (zg + 1.0)
    wz = 0.5 * wg
    worst = 0.0
    for l in ball_modes(6):
        kh2 = l[0] ** 2 + l[1] ** 2
        prof = basis_profile(l, z)
        # the horizontal integral is exact (matching Fourier factors), so the
        # quadrature oracle reduces to the z integral times 4 pi^2
        F1_q = 4.0 * math.pi ** 2 * np.sum(wz * (
            np.conj(prof[0]) * 1j * l[0] + np.conj(prof[1]) * 1j * l[1]
            + np.conj(prof[2]) * kh2 * z))
        F2_q = 4.0 * math.pi ** 2 * np.sum(wz * (
            np.conj(prof[0]) * (-1j * l[1]) + np.conj(prof[1]) * 1j * l[0]))
        G_q = 4.0 * math.pi ** 2 * np.sum(wz * np.conj(prof[2]))
        (F1,), (F2,), (G,), _ = column_forms(l[:2], [l[2]])
        worst = max(worst, abs(F1 - F1_q), abs(F2 - F2_q), abs(G - G_q))
    # full tensor quadrature for a low-order subset
    quad = StripQuadrature(nx=16, ny=16, nz=48)
    X1, X2, Z = quad.mesh()
    for l in ball_modes(2):
        phase = np.exp(1j * (l[0] * X1 + l[1] * X2))
        kh2 = l[0] ** 2 + l[1] ** 2
        F1_field = np.stack([1j * l[0] * phase, 1j * l[1] * phase, kh2 * Z * phase])
        F1_q = quad.inner(quad.sample(l), F1_field)
        worst = max(worst, abs(column_forms(l[:2], [l[2]])[0][0] - F1_q))
    elapsed = time.time() - t0
    passed = worst < 1e-10 and elapsed < 5.0
    record_acceptance("criterion 10 (scalar-product closed forms)", passed,
                      f"max deviation {worst:.2e} < 1e-10, {elapsed:.1f}s")
    assert passed


def test_criterion_11_wind_driven_smallness():
    t0 = time.time()
    sigma_table = {(0.0, (1, 0)): np.array([1.0, 0.0])}
    norms, ens = [], []
    for expo in range(2, 6):
        eps = 10.0 ** -expo
        p = Params(eps, eps, beta=1.0)
        approx = assemble_wind_approx(BoundaryTrace(1, sigma_table), p)
        norms.append(max(approx.total_norm(t) for t in (0.0, 0.1, 0.3)))
        ens.append(eps * eps)
    reg = regress_loglog(zip(ens, norms))

    p = Params(1e-3, 1e-3, beta=1.0)
    sigma = BoundaryTrace(1, sigma_table)
    approx = assemble_wind_approx(sigma, p)
    bound = max(approx.total_norm(t) for t in (0.0, 0.1, 0.3))
    out = solve_direct(SpectralField({}), sigma, p, t_end=0.5, dt=p.epsilon / 10.0,
                       Nz=256, save_every=25)
    sup_direct = max(l2_norm(u, traj.weights)
                     for traj in out.values() for (u, _) in traj.snapshots)
    factor = sup_direct / bound
    elapsed = time.time() - t0
    passed = abs(reg.slope - 0.75) <= 0.05 and factor < 5.0
    record_acceptance("criterion 11 (wind-driven smallness)", passed,
                      f"slope {reg.slope:.4f} (0.75+-0.05), direct/approx factor "
                      f"{factor:.2f} < 5, {elapsed:.0f}s")
    assert passed
