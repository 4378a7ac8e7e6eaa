"""Advection flux in the local basis and the interface numerical flux."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import change_basis, max_wave_speed
from .indices import OrderTable
from .states import MomentState

__all__ = ["flux_from_coeffs", "lf_flux", "numerical_flux"]


@lru_cache(maxsize=None)
def _flux_plan(M: int):
    """(clipped lower index map, its 0/1 mask, safe raise map,
    closure-weighted raise factors)."""
    table = OrderTable(M)
    raise_ = table.plus[0]
    # coefficient (alpha_1 + 1) on f_{alpha + e_1}; zeroed at the top degree
    factor = (table.alphas[:, 0] + 1.0) * (table.degree < M) * (raise_ >= 0)
    return (table._minus_clip[0], table._minus_mask[0],
            np.where(raise_ >= 0, raise_, 0), factor)


def flux_from_coeffs(coeffs: np.ndarray, u1, theta, table: OrderTable) -> np.ndarray:
    """Phi_alpha = theta f_{alpha-e1} + u1 f_alpha + (1-delta_{|alpha|,M})
    (alpha_1+1) f_{alpha+e1}, in the basis carrying ``(u1, theta)``.

    Acts along the last axis, so a ``(B, K)`` stack takes ``(B, 1)``
    columns of normal velocities and temperatures.  The lowering is a
    gather on the clipped map times its 0/1 mask, scaled in place."""
    lower, lower_mask, raise_safe, factor = _flux_plan(table.M)
    out = u1 * coeffs + factor * coeffs[..., raise_safe]
    low = coeffs[..., lower]
    low *= lower_mask
    low *= theta
    out += low
    return out


def lf_flux(wl: np.ndarray, wr: np.ndarray, lam, u1, theta,
            table: OrderTable) -> np.ndarray:
    """Local Lax-Friedrichs flux 0.5 (Phi(L) + Phi(R)) - 0.5 lambda (R - L)
    of two coefficient arrays already expressed in the basis ``(u1, theta)``;
    broadcasts like :func:`flux_from_coeffs`.  Evaluated in place as
    0.5 (Phi(L + R) - lambda (R - L)); scaling by 0.5 is exact, so this is
    the same number bit for bit."""
    out = flux_from_coeffs(wl + wr, u1, theta, table)
    jump = wr - wl
    jump *= lam
    out -= jump
    out *= 0.5
    return out


def numerical_flux(left: MomentState, right: MomentState,
                   target_u, target_theta: float,
                   table: OrderTable | None = None) -> np.ndarray:
    """:func:`lf_flux` of two states re-centred onto the target basis, with
    lambda the larger of the two states' characteristic speed bounds."""
    if table is None:
        table = left.table
    wl = change_basis(left.coeffs, left.u, left.theta, target_u, target_theta, table)
    wr = change_basis(right.coeffs, right.u, right.theta, target_u, target_theta, table)
    lam = max(max_wave_speed(left), max_wave_speed(right))
    return lf_flux(wl, wr, lam, float(target_u[0]), target_theta, table)
