"""Rotating strip flow laboratory.

A fast-rotating viscous fluid between a no-slip bottom and a stress-forced
surface: the Coriolis eigenbasis and rotation group, the wall-layer operator
with its classical / quasi-resonant / resonant split, Ekman pumping envelope
dynamics, the corrector hierarchy assembling full approximate solutions, and
an independent direct solver used as the oracle for every asymptotic claim.
"""

from .params import Params
from .spectral import (
    SpectralField,
    StripQuadrature,
    basis_normal,
    basis_profile,
    basis_vector,
    coriolis_apply,
    eigenvalue,
    project_V0,
    semigroup,
)
from .traces import BoundaryTrace, empty_trace
from .layers import (
    HeatColumn,
    build_B,
    decay_rates,
    resonant_profile,
    trace_residuals,
)
from .envelope import (
    damping_rate,
    ekman_limit_coefficient,
    evolve_c,
)
from .correctors import (
    assemble_dirichlet_approx,
    assemble_wind_approx,
    scaling_check,
    truncation_choice,
)
from .direct import fit_decay, graded_nodes, solve_direct
from .harness import ExperimentSpec, compare, regress_loglog, run

__version__ = "0.1.0"
