"""Expansion-center transformations and characteristic speeds.

Coefficient arrays live in the space spanned by the Hermite basis functions
attached to an expansion center ``[u, theta]``.  Moving the center while
keeping all velocity moments up to the truncation degree fixed amounts to
integrating the closed coefficient systems

    d f_alpha / d u_d   = -f_{alpha - e_d}
    d f_alpha / d theta = -(1/2) sum_d f_{alpha - 2 e_d}

whose right-hand sides strictly lower the degree.  Both operators are
nilpotent and mutually commuting, so the finite transformation is an exact
(terminating) operator exponential.  With S_d the shift alpha -> alpha + e_d,
a = u_from - u_to and b = (theta_from - theta_to) / 2 it factorises over the
axes as prod_d exp(a_d S_d + b S_d^2): along each axis it is the convolution
of every chain of coefficients (the two other indices fixed) with the Taylor
coefficients h_k of exp(a_d x + b x^2), a lower-triangular Toeplitz matrix.

:func:`change_basis_batch` (a stack of rows) applies the three per-axis
Toeplitz matrices; their cost grows far more slowly with the order than that
of a series.  :func:`change_basis` (one state: the open face of a
Gauss-Seidel step, the wall flux) sums the exponential as a series of
six-shift gathers: for one row it
makes fewer numpy calls, which makes it about twice as fast at M <= 4, the
orders most steps run at, while from about M = 10 on the per-axis form is
the faster even for one row.
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


@lru_cache(maxsize=None)
def _toeplitz_plan(M: int):
    """Per-order tables of :func:`change_basis_batch`: the coefficient table
    ``q[m, (j, k)] = [j + 2m = k] / (j! m!)`` (with a zero column k = M + 1)
    that turns the powers of b into the matrix Q[j, k] with
    h_k = sum_j a^j Q[j, k], the flat index map that lays h out as the
    transposed Toeplitz matrix ``[k, i] -> h_{i-k}`` (the zero above the
    diagonal), the flat chain gathers of the three axes, each reading the
    previous axis's flat output, the final map back to rank order, and the
    number of chains P."""
    table = OrderTable(M)
    q = np.zeros((M // 2 + 1, M + 1, M + 2))
    for j in range(M + 1):
        for m in range((M - j) // 2 + 1):
            q[m, j, j + 2 * m] = 1 / (math.factorial(j) * math.factorial(m))
    k = np.arange(M + 1)
    toeplitz = np.where(k[None, :] >= k[:, None], k[None, :] - k[:, None], M + 1)
    rank, pos = table.chain_rank, table.chain_pos
    gathers = tuple(g.ravel() for g in (rank[0], pos[0][rank[1]], pos[1][rank[2]]))
    return q.reshape(len(q), -1), toeplitz.ravel(), gathers, pos[2], rank.shape[1]


def change_basis_batch(coeffs: np.ndarray, u_from: np.ndarray, theta_from: np.ndarray,
                       u_to: np.ndarray, theta_to: np.ndarray,
                       table: OrderTable) -> np.ndarray:
    """:func:`change_basis` applied row by row to a stack of coefficient
    arrays: row b of the ``(B, K)`` array moves from
    ``[u_from[b], theta_from[b]]`` to ``[u_to[b], theta_to[b]]``, with the
    velocities given as ``(B, 3)`` and the temperatures as ``(B,)`` arrays.

    Evaluated in the per-axis form of the module docstring.  One running
    product gives every row's powers of a_d and b, and two products with a
    fixed table give the h_k of its three axes,
    h_k = sum_m a_d^(k-2m) b^m / ((k-2m)! m!).  Each axis then gathers its
    P = (M + 1)(M + 2)/2 chains, padded to length M + 1, into a
    ``(B, P, M + 1)`` array and applies the row's ``(M + 1, M + 1)`` Toeplitz
    matrix with one batched ``matmul``.  The padding past a chain's end may
    hold any finite entry, because a lower-triangular product never reads it
    into the chain; each axis gathers straight from the previous axis's
    output, and one gather puts the result back in rank order.  A row whose
    centres agree comes back exact: its matrices are the identity.
    """
    theta_from = np.asarray(theta_from, dtype=np.float64)
    theta_to = np.asarray(theta_to, dtype=np.float64)
    if not ((theta_from > 0.0).all() and (theta_to > 0.0).all()):
        raise ValueError("expansion temperatures must be positive")
    M = table.M
    q, toeplitz, gathers, to_rank, P = _toeplitz_plan(M)
    B = len(theta_from)
    # powers 0..M of a_0, a_1, a_2 and b, row by row
    power = np.ones((B, 4, M + 1))
    power[:, :3, 1:] = (np.asarray(u_from, dtype=np.float64)
                        - np.asarray(u_to, dtype=np.float64))[:, :, None]
    power[:, 3, 1:] = (0.5 * (theta_from - theta_to))[:, None]
    np.multiply.accumulate(power, axis=2, out=power)
    Q = (power[:, 3, :len(q)] @ q).reshape(B, M + 1, M + 2)
    mat = np.matmul(power[:, :3], Q).take(toeplitz, axis=2).reshape(B, 3, M + 1, M + 1)
    x = np.asarray(coeffs, dtype=np.float64)
    for d in range(3):
        x = np.matmul(x.take(gathers[d], axis=1).reshape(B, P, M + 1),
                      mat[:, d]).reshape(B, P * (M + 1))
    return x.take(to_rank, axis=1)


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

