"""Assembled approximations against frozen values.

`data/golden_correctors.json` holds, for eight inputs (the 25-column shell
stress, a quasi-resonant stress, and a four-mode Dirichlet datum with a
k_h = 0 mode in both corrector variants, each at eps = nu = 1e-2 and 1e-3):
part norms, total norms at t in {0, 0.1, 0.3}, every residual-ledger entry,
and each part's column profile at 9 heights on up to 6 columns.  It was
written by this file's `main` from the code as it stood before the wind and
Dirichlet assemblers were merged into one pipeline.  The layer parts'
norms are not frozen: `ModulatedBL.l2_norm` became the exact norm then.
The Dirichlet cases' `resonant_column` norms and profiles, their total
norm at t = 0 and their `initial_mismatch` were rewritten when `HeatColumn`
became exact at every nu t (erfc images below nu t = 0.01, a 25-term sine
series above, closed-form norms): its former 400-term series left a Gibbs
residue at t = 0 and a 24-node norm off by up to 4.1e-4 relative at these
inputs.  The new values match a 4000-term series and adaptive quadrature
to 1e-15 relative; no wind entry moved.  Every case's total norms and
`initial_mismatch` were rewritten when `total_norm` moved from an 800-point
trapezoid to a 360-node composite Gauss rule: against a converged 24-point
Gauss rule on 140 geometric panels a half, the old entries were off by up
to 3.8e-4 relative and the new ones are within 1.8e-11; nothing else moved.

`data/golden_pumping.json` holds the Ekman pumping answers for the 124
modes with |k_i| <= 2 at eps = nu in {1e-2, 1e-3, 1e-4, 1e-5}: every
`damping_table` row and every suction factor `pumping(modes).S`.  It was
written from the code as it stood before the layer operator and the pumping
shared one transition step.

`data/golden_direct.json` holds the direct solver's answers on three small
inputs at eps = nu = 1e-2, Nz = 64, 50 steps of eps/10 saved every 10th:
one datum column, the |k_h|^2 <= 2 shells of the shell stress (the k_h = 0
column steps its column, the |k_h|^2 = 1 and 2 shells a basis of two unit
stresses), and a datum on the four columns of |k_h|^2 = 1 (a block of four
columns).  Per column: every diagnostics key of every save, and u and p at
7 nodes and 7 cells on 4 saves.  It was written from the code as it stood
before a shell's stepped block became always a basis (its columns being
the identity basis).  A fourth input, the eight columns of |k_h|^2 = 5
with a datum on two of them (one k3 each, complex amplitudes), a stress
at mu = 0 and 0.5 on four others (a distinct complex vector per entry)
and a zero datum on the last two, steps a basis of six with a complex
coef and turns data and stresses by angles that are not multiples of 90
degrees; it was added from the code as it stood before the shell's frame
turn, stress phases and save expansion became plain arrays, the three
cases above unchanged.

Regenerate a data set, or one entry of it as set:key (the case name with
`@eps` for correctors, the eps for pumping), only from code whose answers
are known good:
    PYTHONPATH=src python tests/test_golden.py [correctors] [pumping] [direct] [set:key]
"""

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

from rotstrip.correctors import assemble_dirichlet_approx, assemble_wind_approx
from rotstrip.direct import solve_direct
from rotstrip.envelope import damping_table, pumping
from rotstrip.layers import BoundaryTrace
from rotstrip.params import Params
from rotstrip.spectral import SpectralField

from norm_grid import norm_grid

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_correctors.json")
PUMPING_DATA = os.path.join(os.path.dirname(__file__), "data", "golden_pumping.json")
EPSILONS = (1e-2, 1e-3)
NORM_TIMES = (0.0, 0.1, 0.3)
PROFILE_TIMES = (0.0, 0.1)
Z = (0.0, 1e-3, 1e-2, 0.05, 0.2, 0.5, 0.8, 0.99, 1.0)
LAYER_PARTS = ("surface_layer", "bottom_layer", "secondary_layer")
MAX_COLUMNS = 6
TOL = 1e-12

#: frequency of each |k_h|^2 shell of the shell stress
SHELL_MU = {0: 1.0, 1: 1.0, 2: 0.0, 4: 0.5, 5: 0.0, 8: 0.5}


def shell_stress(seed=1, kmax=2):
    """{(mu, k_h): stress}: rotated copies of one seeded vector per shell."""
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
            theta = math.atan2(k[1], k[0]) - math.atan2(cols[0][1], cols[0][0])
            c, s = math.cos(theta), math.sin(theta)
            table[(SHELL_MU[r2], k)] = np.array([[c, -s], [s, c]]) @ v
    return table


GAMMA = {(1, 0, 1): 1.0, (0, 1, -1): 0.7j, (1, 1, 2): 0.5 - 0.2j, (0, 0, 1): 0.8}


def build(case, eps):
    """The approximation of one named input at eps = nu = `eps`."""
    if case == "wind_shells":
        return assemble_wind_approx(BoundaryTrace(1, shell_stress()), Params(eps, eps, beta=1.0))
    if case == "wind_quasi":
        sigma = BoundaryTrace(1, {(1.0, (1, 0)): np.array([1.0, 0.5j])})
        return assemble_wind_approx(sigma, Params(eps, eps, beta=1.0))
    variant = {"dirichlet_special": "special", "dirichlet_zero_ic": "zero_ic"}[case]
    return assemble_dirichlet_approx(SpectralField(GAMMA), Params(eps, eps),
                                     corrector_variant=variant)


CASES = [(case, eps) for case in ("wind_shells", "wind_quasi", "dirichlet_special",
                                  "dirichlet_zero_ic") for eps in EPSILONS]
#: CASES as test parameters: the wind cases select ambiguous |mu| = 1 rates
CASE_PARAMS = [pytest.param(*c, marks=pytest.mark.filterwarnings(
    "ignore::rotstrip.layers.AmbiguousSelectionWarning")) if c[0].startswith("wind") else c
    for c in CASES]


def _columns(approx):
    """Up to MAX_COLUMNS columns, at most one per |k_h|^2 shell."""
    seen, out = set(), []
    for k in approx.horizontal_modes():
        r2 = k[0] ** 2 + k[1] ** 2
        if r2 not in seen and len(out) < MAX_COLUMNS:
            seen.add(r2)
            out.append(k)
    return out


def measure(approx) -> dict:
    z = np.array(Z)
    profiles = {}
    for name, part in approx.parts.items():
        for k in _columns(approx):
            for t in PROFILE_TIMES:
                prof = part.hat_profile(k, t, z)
                profiles[f"{name}|{k[0]},{k[1]}|{t}"] = [prof.real.tolist(), prof.imag.tolist()]
    return {
        "part_names": list(approx.parts),
        "part_norms": {name: [part.l2_norm(t) for t in NORM_TIMES]
                       for name, part in approx.parts.items() if name not in LAYER_PARTS},
        "total_norm": [approx.total_norm(t) for t in NORM_TIMES],
        "residuals": {k: float(v) for k, v in approx.residuals.items()},
        "profiles": profiles,
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as f:
        return json.load(f)


def _close(got, want):
    return abs(got - want) <= TOL * max(abs(want), 1e-300)


@pytest.mark.parametrize("case,eps", CASE_PARAMS)
def test_matches_frozen_values(golden, case, eps):
    want = golden[f"{case}@{eps:g}"]
    approx = build(case, eps)
    got = measure(approx)
    assert set(got["residuals"]) == set(want["residuals"])
    bad = [(k, got["residuals"][k], v) for k, v in want["residuals"].items()
           if not _close(got["residuals"][k], v)]
    assert not bad, bad
    assert list(approx.parts) == want["part_names"]
    for name, norms in want["part_norms"].items():
        assert all(_close(g, w) for g, w in zip(got["part_norms"][name], norms)), name
    assert all(_close(g, w) for g, w in zip(got["total_norm"], want["total_norm"]))
    assert set(got["profiles"]) == set(want["profiles"])
    for key, (re, im) in want["profiles"].items():
        ref = np.array(re) + 1j * np.array(im)
        new = np.array(got["profiles"][key][0]) + 1j * np.array(got["profiles"][key][1])
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert float(np.max(np.abs(new - ref))) <= TOL * scale, key


def quadrature_norm(part, params, t):
    """L2 norm of a part from its column profiles on a 4000-point grid."""
    z = norm_grid(params, 4000)
    total = sum(np.trapezoid(np.sum(np.abs(part.hat_profile(k, t, z)) ** 2, axis=0), z)
                for k in part.horizontal_modes())
    return 2.0 * math.pi * math.sqrt(total)


@pytest.mark.parametrize("case,eps", CASE_PARAMS)
def test_layer_norms_match_quadrature(case, eps):
    approx = build(case, eps)
    for name in LAYER_PARTS:
        if name in approx.parts:
            part = approx.parts[name]
            for t in (0.0, 0.1):
                assert part.l2_norm(t) == pytest.approx(
                    quadrature_norm(part, approx.params, t), rel=1e-3), (name, t)


PUMPING_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5)
PUMPING_MODES = [k for k in itertools.product(range(-2, 3), repeat=3) if k != (0, 0, 0)]
PUMPING_TOL = 1e-14


def measure_pumping(eps) -> dict:
    """`damping_table` rows (one value list per mode, in `fields` order) and
    the suction coefficients [re, im] of PUMPING_MODES at eps = nu = `eps`."""
    params = Params(eps, eps)
    rows = damping_table(PUMPING_MODES, params)
    suction = pumping(PUMPING_MODES, params).S
    return {
        "fields": list(rows[0]),
        "damping_table": [list(row.values()) for row in rows],
        "suction": [[s.real, s.imag] for s in suction],
    }


@pytest.fixture(scope="module")
def golden_pumping():
    with open(PUMPING_DATA) as f:
        return json.load(f)


def _within(got, want, scale):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= PUMPING_TOL * scale


@pytest.mark.parametrize("eps", PUMPING_EPSILONS)
def test_pumping_matches_frozen_values(golden_pumping, eps):
    """Every real field within 1e-14 of its row's scale: max(|A|, |damping|)
    for a damping-table row, |S| for a suction coefficient."""
    want = golden_pumping[f"{eps:g}"]
    got = measure_pumping(eps)
    assert got["fields"] == want["fields"]
    assert len(got["damping_table"]) == len(want["damping_table"]) == len(PUMPING_MODES)
    for new, ref in zip(got["damping_table"], want["damping_table"]):
        row = dict(zip(want["fields"], ref))
        scale = max(abs(complex(row["A_real"], row["A_imag"])),
                    abs(complex(row["damping_real"], row["damping_imag"])))
        bad = [(f, g, w) for f, g, w in zip(want["fields"], new, ref) if not _within(g, w, scale)]
        assert not bad, (ref[:3], bad)
    for k, new, ref in zip(PUMPING_MODES, got["suction"], want["suction"]):
        scale = abs(complex(*ref))
        assert all(_within(g, w, scale) for g, w in zip(new, ref)), (k, new, ref)


DIRECT_DATA = os.path.join(os.path.dirname(__file__), "data", "golden_direct.json")
DIRECT_CASES = ("datum_column", "wind_shells_kh2_le_2", "datum_four_columns",
                "datum_and_stress_kh2_5")
DIRECT_NZ, DIRECT_STEPS, DIRECT_SAVE_EVERY = 64, 50, 10
#: the node (and cell) indices and the save indices of the frozen snapshots
DIRECT_NODES = (0, 1, 4, 16, 32, 62, 63)
DIRECT_SAVES = (0, 1, 3, 5)
#: the diagnostics compared relative to themselves: the time and the energies
DIRECT_RELATIVE = ("t", "energy", "dissipation", "start_energy_loss")


def solve_direct_case(case):
    """The direct solve of one named input at eps = nu = 1e-2."""
    params = Params(1e-2, 1e-2, beta=1.0)
    gamma, sigma = SpectralField({}), None
    if case == "datum_column":
        gamma = SpectralField({(1, 0, 1): 1.0, (1, 0, -2): 0.3j})
    elif case == "wind_shells_kh2_le_2":
        sigma = BoundaryTrace(1, {(mu, k): v for (mu, k), v in shell_stress().items()
                                  if k[0] ** 2 + k[1] ** 2 <= 2})
    elif case == "datum_and_stress_kh2_5":
        rng = np.random.default_rng(5)
        # the zero coefficients put the last two columns of the shell in the solve
        gamma = SpectralField({(1, 2, 1): 0.9 - 0.4j, (-2, 1, -2): 0.3 + 0.6j,
                               (-1, 2, 1): 0.0, (-2, -1, 1): 0.0})
        sigma = BoundaryTrace(1, {(mu, k): rng.standard_normal(2) + 1j * rng.standard_normal(2)
                                  for k in ((2, 1), (2, -1), (-1, -2), (1, -2))
                                  for mu in (0.0, 0.5)})
    else:
        rng = np.random.default_rng(4)
        gamma = SpectralField({(*k, m): complex(rng.standard_normal(), rng.standard_normal())
                               for k in ((1, 0), (0, 1), (-1, 0), (0, -1)) for m in (1, -2)})
    return solve_direct(gamma, sigma, params, t_end=DIRECT_STEPS * params.epsilon / 10,
                        Nz=DIRECT_NZ, save_every=DIRECT_SAVE_EVERY)


def measure_direct(case) -> dict:
    """Per column "k1,k2": every save's diagnostics and, on DIRECT_SAVES,
    [re, im] of u at DIRECT_NODES and of p on those cells."""
    out = {}
    for k_h, traj in solve_direct_case(case).items():
        u = np.array([traj.snapshots[n][0][list(DIRECT_NODES)] for n in DIRECT_SAVES])
        p = np.array([traj.snapshots[n][1][list(DIRECT_NODES)] for n in DIRECT_SAVES])
        out[f"{k_h[0]},{k_h[1]}"] = {
            "diagnostics": traj.diagnostics,
            "u": [u.real.tolist(), u.imag.tolist()],
            "p": [p.real.tolist(), p.imag.tolist()],
        }
    return out


@pytest.fixture(scope="module")
def golden_direct():
    with open(DIRECT_DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("case", DIRECT_CASES)
def test_direct_matches_frozen_values(golden_direct, case):
    """Snapshots within 1e-12 of the column's largest frozen |u| (|p| for
    p), the time and the energies within 1e-12 relative, the energy
    residuals within 1e-12 of E/dt and of E, E = max(energy, initial
    energy), and the divergence residual (relative to the velocity scale
    already) within 1e-12."""
    want, got = golden_direct[case], measure_direct(case)
    assert set(got) == set(want)
    dt = 1e-2 / 10
    for col, ref in want.items():
        new = got[col]
        for name in ("u", "p"):
            r = np.array(ref[name][0]) + 1j * np.array(ref[name][1])
            g = np.array(new[name][0]) + 1j * np.array(new[name][1])
            assert float(np.max(np.abs(g - r))) <= TOL * float(np.max(np.abs(r))), (col, name)
        assert len(new["diagnostics"]) == len(ref["diagnostics"])
        e0 = ref["diagnostics"][0]["energy"]
        for n, (g, r) in enumerate(zip(new["diagnostics"], ref["diagnostics"])):
            assert set(g) == set(r)
            E = max(r["energy"], e0)
            bounds = {"energy_balance_residual": TOL * E / dt,
                      "cumulative_energy_residual": TOL * E, "divergence_residual": TOL}
            bounds.update({k: TOL * abs(r[k]) for k in DIRECT_RELATIVE})
            bad = [(k, g[k], r[k]) for k in r if abs(g[k] - r[k]) > bounds[k]]
            assert not bad, (col, n, bad)


@pytest.mark.parametrize("path", [DATA, PUMPING_DATA, DIRECT_DATA])
def test_data_sets_read_back_to_their_bytes(path):
    # what main's set:key relies on to leave the other entries as they were
    with open(path) as f:
        text = f.read()
    assert json.dumps(json.loads(text), separators=(",", ":")) == text


def test_main_writes_only_the_named_entry(tmp_path, monkeypatch):
    path = tmp_path / "golden_direct.json"
    with open(DIRECT_DATA) as f:
        text = f.read()
    path.write_text(text)
    monkeypatch.setitem(globals(), "DIRECT_DATA", str(path))
    monkeypatch.setitem(globals(), "measure_direct", lambda case: {"new": case})
    main(["direct:datum_column"])
    entry = json.dumps(json.loads(text)["datum_column"], separators=(",", ":"))
    assert text.count(entry) == 1
    assert path.read_text() == text.replace(entry, '{"new":"datum_column"}')


def main(names):
    """Write the named data sets, `correctors`, `pumping` and/or `direct`
    (all when none is named).  A name `set:key` writes only the entry key
    of its set (`direct:datum_column`, `correctors:wind_quasi@0.001`,
    `pumping:1e-05`), a new key at the end, and leaves the other entries'
    bytes as they were."""
    data_sets = {
        "correctors": (DATA, {f"{case}@{eps:g}": (lambda c=case, e=eps: measure(build(c, e)))
                              for case, eps in CASES}),
        "pumping": (PUMPING_DATA, {f"{eps:g}": (lambda e=eps: measure_pumping(e))
                                   for eps in PUMPING_EPSILONS}),
        "direct": (DIRECT_DATA, {case: (lambda c=case: measure_direct(c))
                                 for case in DIRECT_CASES}),
    }
    chosen = {}  # set -> the keys to write
    for name in names or data_sets:
        name, _, key = name.partition(":")
        if name not in data_sets or key and key not in data_sets[name][1]:
            sys.exit(f"unknown data set or entry {name}:{key}; sets {sorted(data_sets)}")
        chosen.setdefault(name, set()).update([key] if key else data_sets[name][1])
    for name, keys in chosen.items():
        path, makers = data_sets[name]
        out = {}
        if keys < set(makers):
            with open(path) as f:
                out = json.load(f)  # json.dump writes back the bytes read
        out.update({key: make() for key, make in makers.items() if key in keys})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(out, f, separators=(",", ":"))
        print(f"wrote {path}: {os.path.getsize(path)} bytes", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
