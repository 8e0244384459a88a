"""The asymptotic half runs without scipy; the direct solver loads it on use."""

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


def test_asymptotic_half_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", ASYMPTOTIC_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "", f"scipy modules loaded: {run.stdout.strip()}"


def test_only_direct_imports_scipy():
    # every import statement of the package, lazy ones inside functions too
    importers = set()
    for path in sorted((ROOT / "src" / "rotstrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"direct.py"}


def test_erfc_matches_scipy():
    from scipy.special import erfc as scipy_erfc

    from rotstrip.layers import erfc

    x = np.linspace(0.0, 10.0, 20001)
    assert np.max(np.abs(erfc(x) - scipy_erfc(x)) / scipy_erfc(x)) < 1e-14


def test_direct_solver_modules_load_once():
    from rotstrip.direct import solver_modules

    lib = solver_modules()
    assert solver_modules() is lib
    assert lib.sparse.__name__ == "scipy.sparse"
    assert callable(lib.zgbtrf) and callable(lib.zgbtrs)
