"""SGS-Richardson smoother: two opposite-direction Gauss-Seidel sweeps,
each cell relaxed by one local-CFL-sized Richardson step.

Each directional pass starts by building, for every cell at once, the
defect terms that cannot change before the pass reaches the cell
(:func:`~momentmg.residual.defect_terms` with ``sweep = +1`` or ``-1``):
the source, the re-centred right-hand side, the wave speed, the wall faces
and the face against the neighbour relaxed after the cell.  The per-cell
step then re-centres only the neighbour already relaxed in this pass and
evaluates that one face, so each step sees the freshest neighbour values
exactly as a cell-by-cell evaluation would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PositivityError
from .grid import Field, Grid1D, ScenarioSource, mass_correction
from .residual import CellRhs, DefectTerms, cell_defect, defect_terms
from .states import MomentState, recover_macros

__all__ = ["SmootherConfig", "richardson_step", "sgs_sweep", "smooth"]


@dataclass
class SmootherConfig:
    cfl: float = 0.9
    max_backoff: int = 30
    rhs: list[CellRhs] | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("CFL factor must lie strictly in (0, 1)")


def richardson_step(i: int, field: Field, grid: Grid1D, src: ScenarioSource,
                    walls, cfg: SmootherConfig,
                    terms: DefectTerms | None = None) -> MomentState:
    """One Richardson relaxation of cell i against its current neighbors.

    Step size omega = cfl * dx_i / lambda_max,i; when the intermediate
    coefficients lose density/temperature positivity, omega is halved and
    the step retried.  ``terms`` are the pass's frozen defect terms; without
    them they are built for this cell alone.
    """
    this = field.cells[i]
    if terms is None:
        rhs = None if cfg.rhs is None else {i: cfg.rhs[i]}
        terms = defect_terms(field, grid, src, walls, rhs, cells=[i])
    defect = cell_defect(field, i, grid, src, walls, terms=terms)
    k = terms.row[i]
    omega = cfg.cfl * terms.dx[k] / terms.lam[k]
    for _ in range(cfg.max_backoff + 1):
        try:
            return recover_macros(this.coeffs + omega * defect, this.u, this.theta, this.order)
        except PositivityError:
            omega *= 0.5
    raise ConvergenceError(
        f"positivity back-off exhausted at cell {i} "
        f"(rho={this.rho}, theta={this.theta}, |defect|={np.max(np.abs(defect))})")


def sgs_sweep(field: Field, grid: Grid1D, src: ScenarioSource, walls,
              cfg: SmootherConfig, target_mass: float | None = None) -> Field:
    """Forward then backward Gauss-Seidel pass, updating cells in place so
    each local step sees the freshest neighbor values; the total-mass
    correction is applied once at the end of the sweep."""
    n = len(field)
    for sweep, order in ((1, range(n)), (-1, range(n - 1, -1, -1))):
        terms = defect_terms(field, grid, src, walls, cfg.rhs, sweep=sweep)
        for i in order:
            field.cells[i] = richardson_step(i, field, grid, src, walls, cfg, terms)
    if target_mass is not None:
        mass_correction(field, grid, target_mass)
    return field


def smooth(field: Field, steps: int, grid: Grid1D, src: ScenarioSource, walls,
           cfg: SmootherConfig, target_mass: float | None = None) -> Field:
    for _ in range(steps):
        field = sgs_sweep(field, grid, src, walls, cfg, target_mass)
    return field
