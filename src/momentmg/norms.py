"""Weighted residual norms.

The local norm is the weighted L2 norm of the residual expansion,
sqrt(sum C_alpha |R_alpha|^2) with C_alpha = (2 pi)^(-3/2)
theta^(-|alpha|-3/2) alpha!.  By default only degrees up to min(M, 3) enter
the sum: the full-weight sum loses floating-point accuracy at large M while
the physically monitored moments all live at low degree.  The global norm
is the cell-size-weighted root mean square over the grid.
"""

from __future__ import annotations

import numpy as np

from .indices import OrderTable

__all__ = ["local_residual_norm", "global_residual_norm", "DEFAULT_NORM_CAP"]

DEFAULT_NORM_CAP = 3

_TWO_PI_POW = (2.0 * np.pi) ** (-1.5)


def local_residual_norm(res: np.ndarray, theta: float | np.ndarray, table: OrderTable,
                        p_cap: int = DEFAULT_NORM_CAP) -> float | np.ndarray:
    """Weighted local norm along the last axis: one residual array with its
    temperature gives a float, a ``(B, K)`` stack with a scalar or ``(B,)``
    temperatures gives the ``(B,)`` norms in one call."""
    cap = min(table.M, p_cap)
    n = int(table.degree_offset[cap + 1])
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    weights = _TWO_PI_POW * theta ** (-table.degree[:n] - 1.5) * table.factorial[:n]
    return np.sqrt((weights * res[..., :n] ** 2).sum(axis=-1))


def global_residual_norm(local_norms, dx) -> float:
    local_norms = np.asarray(local_norms, dtype=np.float64)
    dx = np.asarray(dx, dtype=np.float64)
    L = dx.sum()
    return float(np.sqrt((local_norms ** 2 * dx).sum() / L))
