"""Boundary trace tables, the data both halves of the package read.

The layer operator takes its wall data as these tables and the direct
solver its surface stress, so they live apart from either half: importing
the direct solver brings in no asymptotic code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import check_integers


@dataclass
class BoundaryTrace:
    """Finite table of trace coefficients: (mu, k_h) -> C^2.

    side 0 prescribes the horizontal Dirichlet value at z = 0, side 1 the
    horizontal stress dz v_h at z = 1.
    """

    side: int
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in (0, 1):
            raise ValueError("side must be 0 (bottom) or 1 (top)")
        clean = {}
        for (mu, k_h), v in self.table.items():
            key = (float(mu), check_integers("k_h", k_h, 2))
            if not math.isfinite(key[0]):
                raise ValueError(f"trace key {(mu, k_h)!r}: mu must be finite")
            clean[key] = np.asarray(v, dtype=complex).reshape(2)
            if not np.all(np.isfinite(clean[key])):
                raise ValueError(f"trace value at key {key!r} must be finite, got {v!r}")
        self.table = clean

    def entries(self):
        return ((key, self.table[key]) for key in sorted(self.table))

    def norm(self) -> float:
        """sqrt(sum |delta_hat|^2). The squared sum (no root) is sometimes
        used as a 'norm' in the continuity estimates; scaling regressions are
        insensitive to the choice and we expose the square-rooted quantity."""
        return math.sqrt(sum(float(np.sum(np.abs(v) ** 2)) for _, v in self.entries()))

    def scaled(self, factor: complex) -> "BoundaryTrace":
        return BoundaryTrace(self.side, {k: factor * v for k, v in self.table.items()})


def empty_trace(side: int) -> BoundaryTrace:
    return BoundaryTrace(side, {})
