"""SGS-Richardson smoother: two opposite-direction Gauss-Seidel sweeps,
each cell relaxed by one local-CFL-sized Richardson step.

Each directional pass starts by building, for every cell at once, the
defect terms that cannot change before the pass reaches the cell
(:func:`~momentmg.residual.defect_terms` with ``sweep = +1`` or ``-1``):
the source, the re-centred right-hand side, the wave speed, the wall faces
and the face against the neighbour relaxed after the cell; a first pass
handed the monitor's or ``coarse_rhs``'s whole-field terms only re-opens
faces (:func:`~momentmg.residual.reopen`).  Per step, one series moves the
neighbour already relaxed in this pass into the cell's basis for that one
open face, so each step sees the freshest neighbour values exactly as a
cell-by-cell evaluation would.  Per pass, one batched series re-centres
every relaxed cell, which until then stays in the field as its raw
coefficients about its pre-pass centre: re-centrings compose exactly on
the truncated space.  The FAS right-hand side of a coarse level is one
stacked :class:`~momentmg.residual.PinnedRhs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import change_basis_batch, hermite_top_root
from .errors import ConvergenceError, PositivityError
from .grid import Field, Grid1D, ScenarioSource, mass_correction
from .indices import OrderTable
from .residual import DefectTerms, PinnedRhs, cell_defect, defect_terms, reopen
from .states import _enforce_admissibility, macros_of

__all__ = ["SmootherConfig", "richardson_step", "sgs_sweep", "smooth", "MAX_BACKOFF"]

MAX_BACKOFF = 30  # step halvings before a cell's positivity back-off gives up


@dataclass
class SmootherConfig:
    cfl: float = 0.9
    rhs: PinnedRhs | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("CFL factor must lie strictly in (0, 1)")


def richardson_step(i: int, field: Field, cfg: SmootherConfig,
                    terms: DefectTerms) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One Richardson relaxation of cell i against its current neighbors,
    with ``terms`` the pass's frozen defect terms.

    Step size omega = cfl * dx_i / lambda_max,i; when the intermediate
    coefficients lose density/temperature positivity, omega is halved and
    the step retried, at most ``MAX_BACKOFF`` times.  Returns the relaxed
    coefficients, still about cell i's centre, their mean velocity and
    temperature, and the number of halvings.
    """
    this = field.cells[i]
    defect = cell_defect(field, i, terms)
    omega = cfg.cfl * float(terms.dx[i]) / float(terms.lam[i])
    for halvings in range(MAX_BACKOFF + 1):
        raw = this.coeffs + omega * defect
        try:
            _rho, u, theta = macros_of(raw, this.u, this.theta, this.table)
            return raw, u, theta, halvings
        except PositivityError:
            omega *= 0.5
    raise ConvergenceError(
        f"positivity back-off exhausted at cell {i} "
        f"(rho={this.rho}, theta={this.theta}, |defect|={np.max(np.abs(defect))})")


def sgs_sweep(field: Field, grid: Grid1D, src: ScenarioSource, walls,
              cfg: SmootherConfig, target_mass: float | None = None,
              terms: DefectTerms | None = None, diag=None) -> Field:
    """Forward then backward Gauss-Seidel pass, updating cells in place so
    each local step sees the freshest neighbor values; the total-mass
    correction is applied once at the end of the sweep.  The forward pass
    takes over ``terms``, the whole-field terms of ``field`` with ``cfg.rhs``.
    Each step-size halving is counted in ``diag.backoffs`` when given."""
    n = len(field)
    table, top = OrderTable(field.order), hermite_top_root(field.order + 1)
    for sweep, order in ((1, range(n)), (-1, range(n - 1, -1, -1))):
        terms = (defect_terms(field, grid, src, walls, cfg.rhs, sweep=sweep)
                 if terms is None else reopen(terms, walls, sweep))
        U, T = [None] * n, [0.0] * n  # new centres; cells keep the old until the end
        for i in order:
            field.cells[i].coeffs, U[i], T[i], halvings = richardson_step(i, field, cfg, terms)
            terms.lam[i] = abs(U[i][0]) + top * math.sqrt(T[i])  # = max_wave_speed
            if diag is not None:
                diag.backoffs += halvings
        C = change_basis_batch(np.array([c.coeffs for c in field.cells]),
                               np.array([c.u for c in field.cells]),
                               np.array([c.theta for c in field.cells]),
                               np.array(U), np.array(T), table)
        _enforce_admissibility(C)
        for cell, u, theta, coeffs in zip(field.cells, U, T, C):
            cell.u, cell.theta, cell.coeffs = u, theta, coeffs
        terms = None
    if target_mass is not None:
        mass_correction(field, grid, target_mass)
    return field


def smooth(field: Field, steps: int, grid: Grid1D, src: ScenarioSource, walls,
           cfg: SmootherConfig, target_mass: float | None = None,
           terms: DefectTerms | None = None, diag=None) -> Field:
    """``steps`` SGS sweeps; the first takes over ``terms`` (:func:`sgs_sweep`)."""
    for _ in range(steps):
        field = sgs_sweep(field, grid, src, walls, cfg, target_mass, terms, diag)
        terms = None
    return field
