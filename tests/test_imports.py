"""The asymptotic half runs without scipy; the direct solver loads LAPACK's
banded LU pair on use, and no other scipy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

ASYMPTOTIC_RUN = """
import sys
import numpy as np
import rotstrip
from rotstrip import BoundaryTrace, Params, build_B, empty_trace, resonant_profile
from rotstrip import SpectralField, assemble_dirichlet_approx, assemble_wind_approx

p = Params(1e-2, 1e-2, beta=1.0)
z = np.linspace(0.0, 1.0, 65)
trace = BoundaryTrace(1, {(1.0, (0, 0)): np.array([1.0, 1j]),
                          (0.5, (1, 0)): np.array([1.0, 0.0])})
sol = build_B(empty_trace(0), trace, p)
assert sol.resonant and sol.part_norm_h("resonant", 0.3) > 0.0
for side in (0, 1):
    assert np.all(np.isfinite(resonant_profile(side, 1.0, p.nu, 0.3, z)))
approx = assemble_wind_approx(trace, p)
assert approx.total_norm(0.3) > 0.0
column = assemble_dirichlet_approx(SpectralField({(0, 0, 1): 1.0}), p)
for t in (0.3, 2.0):  # the heat column's image sum, then its sine series
    assert column.total_norm(t) > 0.0 and column.parts["resonant_column"].l2_norm(t) > 0.0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh_interpreter(code):
    """Run code in a new interpreter that imports rotstrip from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_asymptotic_half_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    run = _fresh_interpreter(ASYMPTOTIC_RUN)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "", f"scipy modules loaded: {run.stdout.strip()}"


def _imports(node, func=None):
    """(enclosing function or None, module) of every import statement under
    node, lazy ones inside functions too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((func, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield func, child.module
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _imports(child, inner)


def test_only_direct_imports_scipy():
    # the package's one scipy import is LAPACK's, in direct.solver_modules
    found = {(path.name, func, module)
             for path in sorted((ROOT / "src" / "rotstrip").glob("*.py"))
             for func, module in _imports(ast.parse(path.read_text(), str(path)))
             if module.split(".")[0] == "scipy"}
    assert found == {("direct.py", "solver_modules", "scipy.linalg.lapack")}


def test_erfc_matches_scipy():
    from scipy.special import erfc as scipy_erfc

    from rotstrip.layers import erfc

    x = np.linspace(0.0, 10.0, 20001)
    assert np.max(np.abs(erfc(x) - scipy_erfc(x)) / scipy_erfc(x)) < 1e-14


def test_direct_solver_modules_load_once():
    from scipy.linalg import lapack

    from rotstrip.direct import solver_modules

    lib = solver_modules()
    assert solver_modules() is lib
    assert lib._fields == ("zgbtrf", "zgbtrs")
    assert lib.zgbtrf is lapack.zgbtrf and lib.zgbtrs is lapack.zgbtrs


DIRECT_RUN = """
import sys
import numpy as np
from rotstrip import BoundaryTrace, Params, SpectralField
from rotstrip.direct import solve_direct

p = Params(1e-2, 1e-2, beta=1.0)
gamma = SpectralField({(1, 0, 1): 1.0, (0, 0, 1): 0.5})
sigma = BoundaryTrace(1, {(0.5, (0, 1)): np.array([1.0, 0.5j])})
out = solve_direct(gamma, sigma, p, t_end=5 * p.epsilon / 10, Nz=64, save_every=2)
assert len(out) == 3 and all(np.isfinite(t.diagnostics[-1]["energy"]) for t in out.values())
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "sparse"])))
"""


def test_direct_solve_loads_no_scipy_sparse():
    # a fresh interpreter, as above: the solver needs LAPACK's pair alone
    run = _fresh_interpreter(DIRECT_RUN)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "", f"scipy.sparse modules loaded: {run.stdout.strip()}"
