"""Expansion-center transformations and characteristic speeds.

Coefficient arrays live in the space spanned by the Hermite basis functions
attached to an expansion center ``[u, theta]``.  Moving the center while
keeping all velocity moments up to the truncation degree fixed amounts to
integrating the closed coefficient systems

    d f_alpha / d u_d   = -f_{alpha - e_d}
    d f_alpha / d theta = -(1/2) sum_d f_{alpha - 2 e_d}

whose right-hand sides strictly lower the degree.  Both operators are
nilpotent and mutually commuting, so the finite transformation is an exact
(terminating) operator exponential, evaluated termwise below.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .indices import OrderTable

__all__ = ["change_basis", "change_basis_batch", "max_wave_speed", "wave_speeds",
           "hermite_top_root"]


def change_basis(coeffs: np.ndarray, u_from, theta_from: float,
                 u_to, theta_to: float, table: OrderTable | None = None) -> np.ndarray:
    """Re-center a coefficient array from ``[u_from, theta_from]`` to
    ``[u_to, theta_to]``.

    All velocity moments of degree <= M are preserved exactly; the map is
    linear in the coefficients and invertible between same-order spaces.
    The generators for the velocity and temperature shifts commute and both
    lower the degree, so the combined exponential is evaluated as a single
    terminating series.
    """
    if not (theta_from > 0.0 and theta_to > 0.0):
        raise ValueError("expansion temperatures must be positive")
    if table is None:
        table = _table_for(len(coeffs))
    w = np.asarray(coeffs, dtype=np.float64)
    du = [b - a for a, b in zip(np.asarray(u_from, dtype=np.float64).tolist(),
                                np.asarray(u_to, dtype=np.float64).tolist())]
    dtheta = float(theta_to) - float(theta_from)
    if dtheta == 0.0 and du == [0.0, 0.0, 0.0]:
        return w.copy()
    # row j - 1 holds the six shift weights of series term j, with its -1/j
    weights = np.array(du + [0.5 * dtheta] * 3) / table._neg_j
    shift6 = table._shift6
    out = w.copy()
    term = np.zeros(table.count + 1)
    head = term[:-1]
    head[:] = w
    for wj in weights:
        np.dot(wj, term[shift6], out=head)
        out += head
    return out


def change_basis_batch(coeffs: np.ndarray, u_from: np.ndarray, theta_from: np.ndarray,
                       u_to: np.ndarray, theta_to: np.ndarray,
                       table: OrderTable) -> np.ndarray:
    """:func:`change_basis` applied row by row to a stack of coefficient
    arrays: row b of the ``(B, K)`` array moves from
    ``[u_from[b], theta_from[b]]`` to ``[u_to[b], theta_to[b]]``, with the
    velocities given as ``(B, 3)`` and the temperatures as ``(B,)`` arrays.

    The series runs on the transposed ``(K, B)`` stack, so each of the six
    shifts is one row gather scaled by its per-row weight; series term j
    vanishes below degree j, so it is evaluated from degree j on.
    """
    theta_from = np.asarray(theta_from, dtype=np.float64)
    theta_to = np.asarray(theta_to, dtype=np.float64)
    if not (np.all(theta_from > 0.0) and np.all(theta_to > 0.0)):
        raise ValueError("expansion temperatures must be positive")
    K = table.count
    weights = np.empty((6, len(theta_from)))
    weights[:3] = (np.asarray(u_to, dtype=np.float64)
                   - np.asarray(u_from, dtype=np.float64)).T
    weights[3:] = 0.5 * (theta_to - theta_from)
    off = table.degree_offset
    term = np.zeros((K + 1, len(theta_from)))
    term[:K] = np.asarray(coeffs, dtype=np.float64).T
    out = term[:K].copy()
    for j in range(1, table.M + 1):
        lo = off[j]
        gather = table._shift6[:, lo:]
        nxt = term[gather[0]] * weights[0]
        for c in range(1, 6):
            nxt += term[gather[c]] * weights[c]
        nxt /= -j
        term[off[j - 1]:lo] = 0.0
        term[lo:K] = nxt
        out[lo:] += nxt
    return out.T


@lru_cache(maxsize=None)
def _table_for(count: int) -> OrderTable:
    M = 0
    while OrderTable(M).count < count:
        M += 1
    table = OrderTable(M)
    if table.count != count:
        raise ValueError(f"{count} is not a valid coefficient count")
    return table


@lru_cache(maxsize=None)
def hermite_top_root(n: int) -> float:
    """Largest root of the probabilists' Hermite polynomial He_n, the top
    node of numpy's n-point Gauss-Hermite_e rule (``hermegauss``)."""
    if n < 1:
        raise ValueError("Hermite degree must be >= 1")
    roots, _ = np.polynomial.hermite_e.hermegauss(n)
    return float(roots[-1])


def wave_speeds(u1, theta, order: int):
    """Largest characteristic speed |u1| + C_{M+1} sqrt(theta) of the
    order-M moment system, with C_{M+1} the top root of He_{M+1};
    elementwise over arrays of normal velocities and temperatures."""
    return np.abs(u1) + hermite_top_root(order + 1) * np.sqrt(theta)


def max_wave_speed(state) -> float:
    """:func:`wave_speeds` of one state."""
    return float(wave_speeds(state.u[0], state.theta, state.order))

