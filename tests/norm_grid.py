"""A trapezoid grid for checking profiles and norms in the tests."""

import numpy as np


def norm_grid(params, nz: int) -> np.ndarray:
    """z grid clustered at both walls down to below the layer scale: nz must
    be an integer >= 6, so that each wall gets at least two geometric points."""
    if isinstance(nz, bool) or not isinstance(nz, (int, np.integer)) or nz < 6:
        raise ValueError(f"nz must be an integer >= 6, got {nz!r}")
    delta = max(params.layer_scale * 1e-3, 1e-14)
    m = nz // 3
    lower = np.geomspace(delta, 0.45, m)
    core = np.linspace(0.45, 0.55, nz - 2 * m)
    return np.unique(np.concatenate([[0.0], lower, core, 1.0 - lower[::-1], [1.0]]))
