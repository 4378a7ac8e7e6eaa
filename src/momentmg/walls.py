"""Diffuse/specular wall treatment via ghost states.

The ghost distribution mixes a wall Maxwellian (density chosen so the net
kinetic mass flux through the wall vanishes) with the specular reflection
of the adjacent interior state, weighted by the accommodation coefficient.
Half-space integrals are evaluated on the wall-normal axis only: the
tangential directions integrate out analytically, leaving the marginal
carried by the coefficients with alpha_2 = alpha_3 = 0.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .basis import change_basis
from .errors import BoundaryError
from .grid import BoundarySpec
from .indices import OrderTable
from .states import MomentState, maxwellian_state, specular_reflect

__all__ = ["Side", "wall_ghost_state", "wall_flux", "half_space_mass_flux",
           "mix_states"]

_CUTOFF = 12.0  # integration window in thermal units; Gaussian tail < 1e-16
DEFAULT_NODES = 32


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _integrate(fn, lo: float, hi: float, n: int) -> float:
    if hi <= lo:
        return 0.0
    x, w = _gauss_legendre(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    v = mid + half * x
    return half * float(np.dot(w, fn(v)))


@lru_cache(maxsize=None)
def _marginal_ranks(M: int) -> np.ndarray:
    table = OrderTable(M)
    return np.array([table.rank((n, 0, 0)) for n in range(M + 1)])


def _hermite_column(v: np.ndarray, n_max: int) -> np.ndarray:
    """He_0..He_{n_max} at each node, shape (n_max+1, len(v))."""
    out = np.empty((n_max + 1, len(v)))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = v
    for n in range(1, n_max):
        out[n + 1] = v * out[n] - n * out[n - 1]
    return out


def half_space_mass_flux(s: MomentState, side: Side, nodes: int = DEFAULT_NODES) -> float:
    """Kinetic mass flux carried by the velocity half-space pointing at the
    wall: xi_1 < 0 for the left wall, xi_1 > 0 for the right wall."""
    u1 = float(s.u[0])
    rt = np.sqrt(s.theta)
    c = -u1 / rt  # wall cut in scaled normal velocity
    marg = s.coeffs[_marginal_ranks(s.order)] * s.theta ** (-0.5 * np.arange(s.order + 1))

    def integrand(v):
        he = _hermite_column(v, s.order)
        poly = marg @ he
        return (u1 + rt * v) * poly * np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)

    if side is Side.LEFT:
        lo, hi = min(c, 0.0) - _CUTOFF, c
    else:
        lo, hi = c, max(c, 0.0) + _CUTOFF
    return _integrate(integrand, lo, hi, nodes)


def _maxwellian_outflux(theta_wall: float, nodes: int) -> float:
    """Outgoing-half mass flux of a unit-density wall Maxwellian at rest,
    sqrt(theta_wall / 2 pi), evaluated by the same normal-axis quadrature."""
    rt = np.sqrt(theta_wall)

    def integrand(v):
        return rt * v * np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)

    return _integrate(integrand, 0.0, _CUTOFF, nodes)


def mix_states(weights_states: list[tuple[float, MomentState]]) -> MomentState:
    """Convex-style combination of admissible states: conservative moments
    add, and the result is expressed about the mixture's own mean."""
    rho = sum(a * s.rho for a, s in weights_states)
    if rho <= 0.0:
        raise BoundaryError(f"mixture density {rho} not positive")
    momentum = sum((a * s.rho * s.u for a, s in weights_states), np.zeros(3))
    energy = sum(a * s.rho * (s.u @ s.u + 3.0 * s.theta) for a, s in weights_states)
    u_bar = momentum / rho
    theta_bar = (energy - rho * (u_bar @ u_bar)) / (3.0 * rho)
    if theta_bar <= 0.0:
        raise BoundaryError(f"mixture temperature {theta_bar} not positive")
    table = weights_states[0][1].table
    coeffs = np.zeros(table.count)
    for a, s in weights_states:
        coeffs += a * change_basis(s.coeffs, s.u, s.theta, u_bar, theta_bar, table)
    coeffs[table.r_unit] = 0.0
    coeffs[table.r_unit2] -= coeffs[table.r_unit2].sum() / 3.0
    return MomentState(table.M, u_bar, theta_bar, coeffs)


@lru_cache(maxsize=None)
def _wall_plan(M: int, nodes: int):
    """Per-order tables of the wall flux: the Gauss-Legendre rule, the
    theta-power exponents and factorials of the half-space matrices, and the
    normal chains (fixed tangential index (a2, a3), a1 running 0..M-a2-a3)
    as one padded gather with its mask and the flat positions that put the
    chain results back in rank order."""
    table = OrderTable(M)
    x, w = _gauss_legendre(nodes)
    n_idx = np.arange(M + 1)
    power = 0.5 * (n_idx[:, None] - n_idx[None, :])
    fact = np.array([math.factorial(n) for n in range(M + 1)], dtype=float)
    chains = [[table.rank((m, a2, a3)) for m in range(M + 1 - a2 - a3)]
              for a2 in range(M + 1) for a3 in range(M + 1 - a2)]
    gather = np.zeros((len(chains), M + 1), dtype=np.int64)
    mask = np.zeros((len(chains), M + 1))
    for p, ranks in enumerate(chains):
        gather[p, :len(ranks)] = ranks
        mask[p, :len(ranks)] = 1.0
    scatter = np.empty(table.count, dtype=np.int64)
    scatter[gather[mask > 0]] = np.flatnonzero(mask)
    return x, w, power, fact, gather, mask, scatter


def _half_flux_matrices(u1: float, theta: float, M: int, nodes: int) -> np.ndarray:
    """Matrices A[s] with (half-space flux)_n = sum_m A[s, n, m] f_{(m, a2, a3)},
    s = 0 for the half-space xi_1 > 0 and s = 1 for xi_1 < 0.

    Projects xi_1 * f, restricted to one xi_1 half-space, back onto the
    expansion about (u1, theta); tangential directions are orthogonal and
    untouched, so the action is a matrix on each fixed-(a2, a3) chain.  Both
    half-spaces share one stacked node set.
    """
    x, w, power, fact, *_ = _wall_plan(M, nodes)
    rt = np.sqrt(theta)
    c = -u1 / rt
    lo = np.array([c, min(c, 0.0) - _CUTOFF])
    hi = np.array([max(c, 0.0) + _CUTOFF, c])
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    v = mid[:, None] + half[:, None] * x
    he = _hermite_column(v.ravel(), M).reshape(M + 1, 2, nodes).transpose(1, 0, 2)
    g = half[:, None] * w * (u1 + rt * v) * np.exp(-0.5 * v * v) / np.sqrt(2.0 * np.pi)
    B = he @ (he * g[:, None, :]).transpose(0, 2, 1)  # B[s, n, m] = int (u1 + rt v) He_n He_m ...
    return B * theta ** power / fact[:, None]


def _apply_half_flux(A: np.ndarray, coeffs: np.ndarray, M: int, nodes: int) -> np.ndarray:
    """Apply one half-space matrix to every normal chain of ``coeffs``."""
    *_, gather, mask, scatter = _wall_plan(M, nodes)
    return ((coeffs[gather] * mask) @ A.T).ravel()[scatter]


def wall_flux(inner: MomentState, wall: BoundarySpec, side: Side,
              nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Numerical flux through a wall face, in the inner cell's basis.

    Upwinding is done in velocity space: the half-space moving toward the
    wall is carried by the interior state, the half-space leaving the wall
    by the re-emitted distribution (accommodated wall Maxwellian plus
    specular remainder).  The Maxwellian's density is solved so the mass
    component of the assembled flux is exactly zero, which makes the wall
    non-penetrating for the discrete steady state.
    """
    table = inner.table
    M, u, theta = inner.order, inner.u, inner.theta
    A_pos, A_neg = _half_flux_matrices(float(u[0]), theta, M, nodes)
    # the half-space moving into the wall is xi_1 > 0 at the right wall
    A_in, A_out = (A_pos, A_neg) if side is Side.RIGHT else (A_neg, A_pos)

    flux = _apply_half_flux(A_in, inner.coeffs, M, nodes)
    if wall.chi < 1.0:
        spec = specular_reflect(inner)
        w_spec = change_basis(spec.coeffs, spec.u, spec.theta, u, theta, table)
        flux += (1.0 - wall.chi) * _apply_half_flux(A_out, w_spec, M, nodes)
    if wall.chi == 0.0:
        return flux

    u_w = np.array([0.0, wall.u_wall[0], wall.u_wall[1]])
    unit = np.zeros(table.count)
    unit[0] = 1.0
    w_mw = change_basis(unit, u_w, wall.theta_wall, u, theta, table)
    flux_mw = _apply_half_flux(A_out, w_mw, M, nodes)
    if flux_mw[0] == 0.0:
        raise BoundaryError("wall Maxwellian carries no outgoing mass flux")
    rho_w = -flux[0] / (wall.chi * flux_mw[0])
    if rho_w <= 0.0 or not np.isfinite(rho_w):
        raise BoundaryError(f"wall density {rho_w} from interior flux {flux[0]}")
    return flux + wall.chi * rho_w * flux_mw


def wall_ghost_state(inner: MomentState, wall: BoundarySpec, side: Side,
                     nodes: int = DEFAULT_NODES) -> MomentState:
    """Ghost-cell state realizing the diffuse/specular wall model.

    The wall-Maxwellian density rho_w balances the interior influx so the
    composite distribution carries zero net mass through the wall; it does
    not depend on the accommodation coefficient because the specular part
    is flux-balanced on its own.
    """
    if wall.chi == 0.0:
        return specular_reflect(inner)
    influx = half_space_mass_flux(inner, side, nodes)
    signed = -influx if side is Side.LEFT else influx
    rho_w = signed / _maxwellian_outflux(wall.theta_wall, nodes)
    if rho_w <= 0.0 or not np.isfinite(rho_w):
        raise BoundaryError(f"wall density {rho_w} from interior influx {influx}")
    u_w = np.array([0.0, wall.u_wall[0], wall.u_wall[1]])
    diffuse = maxwellian_state(inner.order, rho_w, u_w, wall.theta_wall)
    if wall.chi == 1.0:
        return diffuse
    return mix_states([(wall.chi, diffuse), (1.0 - wall.chi, specular_reflect(inner))])
