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

import math
from functools import lru_cache

import numpy as np

from .indices import OrderTable

__all__ = ["change_basis", "change_basis_batch", "max_wave_speed", "wave_speeds",
           "hermite_top_root"]


def change_basis(coeffs: np.ndarray, u_from, theta_from: float,
                 u_to, theta_to: float, table: OrderTable) -> np.ndarray:
    """Re-center a coefficient array from ``[u_from, theta_from]`` to
    ``[u_to, theta_to]``.

    All velocity moments of degree <= M are preserved exactly; the map is
    linear in the coefficients and invertible between same-order spaces.
    The generators for the velocity and temperature shifts commute and both
    lower the degree, so the combined exponential is evaluated as a single
    terminating series: each term is one six-shift gather and one dot with
    that term's six weights.  The centres are unpacked into Python floats
    once, so the set-up of the series costs no numpy scalar arithmetic.
    """
    theta_from, theta_to = float(theta_from), float(theta_to)
    if not (theta_from > 0.0 and theta_to > 0.0):
        raise ValueError("expansion temperatures must be positive")
    w = np.asarray(coeffs, dtype=np.float64)
    a1, a2, a3 = np.asarray(u_from, dtype=np.float64).tolist()
    b1, b2, b3 = np.asarray(u_to, dtype=np.float64).tolist()
    du = [b1 - a1, b2 - a2, b3 - a3]
    dtheta = theta_to - theta_from
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

    Each series term is one stacked six-shift gather of the ``(B, K + 1)``
    term array, giving ``(B, 6, K')``, and one ``(B, 1, 6) @ (B, 6, K')``
    contraction with the rows' shift weights; series term j vanishes below
    degree j, so it is evaluated from degree j on.
    """
    theta_from = np.asarray(theta_from, dtype=np.float64)
    theta_to = np.asarray(theta_to, dtype=np.float64)
    if not (np.all(theta_from > 0.0) and np.all(theta_to > 0.0)):
        raise ValueError("expansion temperatures must be positive")
    K = table.count
    weights = np.empty((len(theta_from), 1, 6))
    weights[:, 0, :3] = (np.asarray(u_to, dtype=np.float64)
                         - np.asarray(u_from, dtype=np.float64))
    weights[:, 0, 3:] = 0.5 * (theta_to - theta_from)[:, None]
    off = table.degree_offset.tolist()
    shift6 = table._shift6
    term = np.zeros((len(theta_from), K + 1))
    term[:, :K] = coeffs
    out = term[:, :K].copy()
    for j in range(1, table.M + 1):
        lo = off[j]
        nxt = np.matmul(weights, term[:, shift6[:, lo:]])[:, 0]
        nxt /= -j
        term[:, off[j - 1]:lo] = 0.0
        term[:, lo:K] = nxt
        out[:, lo:] += nxt
    return out


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
    """:func:`wave_speeds` of one state, on Python floats."""
    return (abs(float(state.u[0]))
            + hermite_top_root(state.order + 1) * math.sqrt(state.theta))

