"""Moment states: one cell's Hermite-coefficient solution and its macros."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _table_for, change_basis
from .errors import PositivityError
from .indices import OrderTable, moment_count

__all__ = ["MomentState", "DerivedMoments", "derived_moments",
           "recover_macros", "macros_of", "specular_reflect", "maxwellian_state"]


@dataclass
class MomentState:
    """Order-M expansion about its own mean velocity and temperature.

    Admissibility: f_0 = rho > 0, theta > 0, the three unit-index
    coefficients vanish and the trace sum(f_{2 e_d}) vanishes, i.e. the
    expansion center coincides with the state's own macroscopic (u, theta).
    """

    order: int
    u: np.ndarray
    theta: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.order < 2:
            raise ValueError(f"moment order must be >= 2, got {self.order}")
        if len(self.coeffs) != moment_count(self.order):
            raise ValueError("coefficient array length does not match order")

    @property
    def rho(self) -> float:
        return float(self.coeffs[0])

    @property
    def table(self) -> OrderTable:
        return OrderTable(self.order)

    def copy(self) -> "MomentState":
        return MomentState(self.order, self.u.copy(), self.theta, self.coeffs.copy())


@dataclass
class DerivedMoments:
    rho: float
    u: np.ndarray
    theta: float
    sigma: np.ndarray  # symmetric 3x3, trace-free for admissible states
    q: np.ndarray


_SIGMA_SCALE = 1.0 + np.eye(3)
_SIGMA_SCALE.setflags(write=False)


@lru_cache(maxsize=None)
def _derived_plan(M: int):
    t = OrderTable(M)
    pair = np.empty((3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            a = [0, 0, 0]
            a[i] += 1
            a[j] += 1
            pair[i, j] = t.rank(a)
    q3 = q12 = None
    if M >= 3:
        q3 = np.array([t.rank((3, 0, 0)), t.rank((0, 3, 0)), t.rank((0, 0, 3))])
        q12 = np.empty((3, 3), dtype=np.int64)  # q12[i, d] = rank(2 e_d + e_i)
        for i in range(3):
            for d in range(3):
                a = [0, 0, 0]
                a[d] += 2
                a[i] += 1
                q12[i, d] = t.rank(a)
    return pair, q3, q12


def derived_moments(s: MomentState) -> DerivedMoments:
    """Macroscopic quantities read off the coefficients:
    sigma_ij = (1 + delta_ij) f_{e_i + e_j},  q_i = 2 f_{3 e_i} + sum_d f_{2 e_d + e_i}."""
    pair, q3, q12 = _derived_plan(s.order)
    sigma = s.coeffs[pair] * _SIGMA_SCALE
    if q3 is None:
        q = np.zeros(3)
    else:
        q = 2.0 * s.coeffs[q3] + s.coeffs[q12].sum(axis=1)
    return DerivedMoments(s.rho, s.u.copy(), s.theta, sigma, q)


def macros_of(coeffs: np.ndarray, u, theta: float, table: OrderTable) -> tuple[float, np.ndarray, float]:
    """Mean density, velocity and temperature carried by an arbitrary
    coefficient array expressed about the center ``[u, theta]``; reads f_0,
    the unit-index and the degree-2 diagonal coefficients.

    The one positivity check of the solver: raises :class:`PositivityError`
    unless density and temperature are positive, so NaN is rejected too."""
    rho, f1, f2, f3, d1, d2, d3 = coeffs[table.r_macro].tolist()
    if not (rho > 0.0):
        raise PositivityError(f"density {rho} not positive")
    u1, u2, u3 = np.asarray(u, dtype=np.float64).tolist()
    energy = (rho * (u1 * u1 + u2 * u2 + u3 * u3 + 3.0 * float(theta))
              + 2.0 * (u1 * f1 + u2 * f2 + u3 * f3) + 2.0 * (d1 + d2 + d3))
    v1, v2, v3 = (rho * u1 + f1) / rho, (rho * u2 + f2) / rho, (rho * u3 + f3) / rho
    theta_bar = (energy - rho * (v1 * v1 + v2 * v2 + v3 * v3)) / (3.0 * rho)
    if not (theta_bar > 0.0):
        raise PositivityError(f"temperature {theta_bar} not positive")
    return rho, np.array([v1, v2, v3]), theta_bar


# the diagonal (2, 0, 0), (0, 2, 0), (0, 0, 2) of the degree-2 block, which
# holds ranks 4-9; the unit indices are ranks 1-3 (the same for every M >= 2)
_DIAG2 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
_DIAG2.setflags(write=False)


def _enforce_admissibility(coeffs: np.ndarray) -> None:
    """Zero the unit-index coefficients and the trace of the degree-2 diagonal
    in place, along the last axis of one array or a ``(B, K)`` stack; basic
    indexing on the fixed ranks, no gather."""
    coeffs[..., 1:4] = 0.0
    deg2 = coeffs[..., 4:10]
    deg2 -= (deg2[..., 0] + deg2[..., 3] + deg2[..., 5])[..., None] / 3.0 * _DIAG2


def recover_macros(raw_coeffs: np.ndarray, u0, theta0: float, M: int | None = None) -> MomentState:
    """Re-center a raw coefficient array onto its own mean velocity and
    temperature, returning an admissible state with the same mass, momentum
    and energy.

    Raises :class:`PositivityError` when the raw array's mass or temperature
    is not positive or not a number (the smoother's step-size back-off and
    the rejection of a coarse correction catch this).
    """
    table = OrderTable(M) if M is not None else _table_for(len(raw_coeffs))
    rho, u_bar, theta_bar = macros_of(np.asarray(raw_coeffs, dtype=np.float64), u0, theta0, table)
    w = change_basis(raw_coeffs, u0, theta0, u_bar, theta_bar, table)
    _enforce_admissibility(w)
    return MomentState(table.M, u_bar, theta_bar, w)


def specular_reflect(s: MomentState) -> MomentState:
    """Mirror the normal (first) velocity axis: u1 -> -u1 and every
    coefficient with odd alpha_1 changes sign."""
    t = s.table
    sign = np.where(t.alphas[:, 0] % 2 == 1, -1.0, 1.0)
    u = s.u.copy()
    u[0] = -u[0]
    return MomentState(s.order, u, s.theta, sign * s.coeffs)


def maxwellian_state(M: int, rho: float, u, theta: float) -> MomentState:
    """Local Maxwellian: all coefficients vanish except f_0 = rho."""
    coeffs = np.zeros(moment_count(M))
    coeffs[0] = rho
    return MomentState(M, np.asarray(u, dtype=np.float64), theta, coeffs)
