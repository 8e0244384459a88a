"""Convergence of the filtered-envelope description at desk scale.

The claim behind the whole construction: the direct solution minus the
rotation group applied to the damped envelope vanishes with eps, nu.  Here a
single Poincare mode is released at three parameter sizes and the sup-in-time
L2 mismatch is measured against the reference solver, with the per-part
attribution of the assembled approximation alongside.
"""

import numpy as np

from rotstrip import Params, SpectralField, assemble_dirichlet_approx, compare, solve_direct
from rotstrip.correctors import ApproxSolution

print(__doc__)

gamma = SpectralField({(1, 0, 1): 1.0})
print("gamma = one unit Poincare mode; T = 0.3; this runs the reference")
print("solver three times (a few seconds)...\n")

print("  eps=nu    sup_t || u_direct - rotation o envelope ||")
for eps in (3e-2, 1e-2, 3e-3):
    p = Params(eps, eps)
    out = solve_direct(gamma, None, p, t_end=0.3, dt=eps / 20, Nz=256, save_every=20)
    approx = assemble_dirichlet_approx(gamma, p)
    envelope = ApproxSolution(p, {"interior_envelope": approx.parts["interior_envelope"]})
    res = compare(out, envelope, np.linspace(0.0, 0.3, 7))
    print(f"  {eps:7.0e}   {res['sup_error']:.4f}")

print("\nWhat the envelope leaves out, ranked (eps = nu = 3e-3):")
p = Params(3e-3, 3e-3)
approx = assemble_dirichlet_approx(gamma, p)
norms = approx.part_norms(0.15)
for name, val in sorted(norms.items(), key=lambda kv: -kv[1]):
    if name != "interior_envelope":
        print(f"  {name:22s} {val:.3e}")
print("\nThe bottom layer (the (eps nu)^{1/4} piece) dominates the gap; the")
print("flux lift, oscillating corrector and stopping lift are successively")
print("smaller, which is exactly the ordering the corrector hierarchy assumes.")
