"""Cell residual operator of the steady finite-volume discretization.

The defect of cell i is r_i - R_i, with
R_i = (F(f_i, f_{i+1}) - F(f_{i-1}, f_i)) / dx_i - G(f_i), everything in
f_i's basis.  :func:`defect_terms` evaluates the parts of it for many
cells at once on the field stacked into ``(n, K)`` arrays: each cell's
source G_i, its right-hand side r_i re-centred onto the cell's basis, its
wave speed, its wall faces, and the Lax-Friedrichs faces against a chosen
set of neighbours, re-centred in one batched series.  :func:`cell_defect`
then only reads the cell's row and evaluates the faces left open.

A frozen field (the residual monitor, the FAS defects) closes every face
at once.  A Gauss-Seidel pass of the smoother freezes, at the start of the
pass, what cannot change before the pass reaches a cell: the source, the
right-hand side, the wave speed, the wall faces and the face against the
neighbour relaxed after the cell.  The face against the neighbour already
relaxed in this pass is the one left open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import change_basis, change_basis_batch, max_wave_speed, wave_speeds
from .equilibrium import collision_frequency, equilibrium_batch
from .fluxes import lf_flux
from .grid import Field, Grid1D, ScenarioSource
from .indices import OrderTable
from .walls import Side, wall_flux

__all__ = ["CellRhs", "DefectTerms", "source_terms", "defect_terms",
           "cell_defect", "field_residuals"]


@dataclass
class CellRhs:
    """A known right-hand-side expansion, pinned to the basis it was built
    in; re-expressed into a cell's current basis on every evaluation."""

    coeffs: np.ndarray
    u: np.ndarray
    theta: float


@dataclass
class DefectTerms:
    """The parts of the defects of a set of cells, one row per cell.

    ``row`` maps a cell index to its row.  ``flux_l`` / ``flux_r`` hold the
    left / right face flux where ``closed_l`` / ``closed_r`` is set; an
    open face is evaluated by :func:`cell_defect` against the neighbour's
    current state.
    """

    row: dict[int, int]
    dx: np.ndarray
    lam: np.ndarray
    source: np.ndarray
    rhs: np.ndarray | None
    flux_l: np.ndarray
    flux_r: np.ndarray
    closed_l: np.ndarray
    closed_r: np.ndarray


def source_terms(coeffs: np.ndarray, theta: np.ndarray, src: ScenarioSource,
                 table: OrderTable) -> np.ndarray:
    """G_alpha = sum_d F_d f_{alpha - e_d} + nu (f^E_alpha - f_alpha) for a
    ``(B, K)`` stack of admissible states with temperatures ``theta``."""
    nu = collision_frequency(src.collision, coeffs[:, 0], theta)
    out = nu[:, None] * (equilibrium_batch(coeffs, theta, src.collision, table) - coeffs)
    for d in range(3):
        fd = src.force[d]
        if fd != 0.0:
            out += fd * table.shift_down(coeffs, d)
    return out


def defect_terms(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                 rhs=None, cells=None, sweep: int = 0) -> DefectTerms:
    """Defect terms of ``cells`` (default: all) against the field as it is.

    ``rhs`` is indexed by cell (a list for the field, or a mapping) or None.
    With ``sweep = 0`` every face is closed.  With ``sweep = +1`` / ``-1``
    only the faces against neighbours that a forward / backward
    Gauss-Seidel pass relaxes after the cell are closed, plus the wall
    faces.  Domain ends use the wall flux, or periodic wrap-around when
    ``walls`` is None (test hook).
    """
    n = len(field)
    table = OrderTable(field.order)
    cells = list(range(n)) if cells is None else list(cells)
    idx = np.array(cells)
    C = np.array([c.coeffs for c in field.cells])
    U = np.array([c.u for c in field.cells])
    T = np.array([c.theta for c in field.cells])
    lam_all = wave_speeds(U[:, 0], T, field.order)

    own_C, own_U, own_T = C[idx], U[idx], T[idx]
    lam = lam_all[idx]
    source = source_terms(own_C, own_T, src, table)

    B, K = len(cells), table.count
    flux = np.zeros((2, B, K))  # [0] left faces, [1] right faces
    closed = np.zeros((2, B), dtype=bool)
    rows, sides, nbrs = [], [], []
    for k, i in enumerate(cells):
        for side, step in ((0, -1), (1, 1)):
            if walls is not None and i + step in (-1, n):
                flux[side, k] = wall_flux(field.cells[i], walls[side],
                                          Side.LEFT if side == 0 else Side.RIGHT)
                closed[side, k] = True
                continue
            j = (i + step) % n
            if sweep == 0 or (j - i) * sweep > 0:
                rows.append(k)
                sides.append(side)
                nbrs.append(j)
    rows, sides, nbrs = (np.array(a, dtype=np.int64) for a in (rows, sides, nbrs))

    # one batched series re-centres the pinned right-hand sides and the
    # neighbours of the closed faces onto their cells' bases
    pinned = [] if rhs is None else [rhs[i] for i in cells]
    to = np.concatenate([np.arange(len(pinned)), rows])
    moved = change_basis_batch(np.vstack([r.coeffs for r in pinned] + [C[nbrs]]),
                               np.vstack([r.u for r in pinned] + [U[nbrs]]),
                               np.concatenate([[r.theta for r in pinned], T[nbrs]]),
                               own_U[to], own_T[to], table)
    rhs_rows = moved[:len(pinned)] if pinned else None
    if len(rows):
        w_nb, w_own = moved[len(pinned):], own_C[rows]
        left = (sides == 0)[:, None]
        lam_face = np.maximum(lam[rows], lam_all[nbrs])[:, None]
        flux[sides, rows] = lf_flux(np.where(left, w_nb, w_own),
                                    np.where(left, w_own, w_nb), lam_face,
                                    own_U[rows, :1], own_T[rows, None], table)
        closed[sides, rows] = True

    return DefectTerms({i: k for k, i in enumerate(cells)}, grid.dx[idx], lam,
                       source, rhs_rows, flux[0], flux[1], closed[0], closed[1])


def _open_face(field: Field, i: int, j: int, lam_i: float, j_is_right: bool) -> np.ndarray:
    """Lax-Friedrichs flux between cell i and its neighbour j in i's basis."""
    this, nb = field.cells[i], field.cells[j]
    table = this.table
    w_nb = change_basis(nb.coeffs, nb.u, nb.theta, this.u, this.theta, table)
    lam = max(lam_i, max_wave_speed(nb))
    wl, wr = (this.coeffs, w_nb) if j_is_right else (w_nb, this.coeffs)
    return lf_flux(wl, wr, lam, float(this.u[0]), this.theta, table)


def cell_defect(field: Field, i: int, grid: Grid1D, src: ScenarioSource,
                walls, rhs_i: CellRhs | None = None,
                terms: DefectTerms | None = None) -> np.ndarray:
    """Defect r_i - R_i (or -R_i without a right-hand side) of cell i
    against its current neighbours, in cell i's basis.

    ``terms`` are the cell's terms from :func:`defect_terms`, which already
    carry the right-hand side; without them they are built for this cell
    alone, from ``rhs_i``.
    """
    if terms is None:
        terms = defect_terms(field, grid, src, walls,
                             None if rhs_i is None else {i: rhs_i}, cells=[i])
    k = terms.row[i]
    n = len(field)
    lam = terms.lam[k]
    flux_r = (terms.flux_r[k] if terms.closed_r[k]
              else _open_face(field, i, (i + 1) % n, lam, True))
    flux_l = (terms.flux_l[k] if terms.closed_l[k]
              else _open_face(field, i, (i - 1) % n, lam, False))
    R = (flux_r - flux_l) / terms.dx[k] - terms.source[k]
    if terms.rhs is None:
        return -R
    return terms.rhs[k] - R


def field_residuals(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                    rhs: list[CellRhs] | None = None) -> list[np.ndarray]:
    """Defect arrays r_i - R_i for every cell of a frozen field."""
    terms = defect_terms(field, grid, src, walls, rhs)
    return [cell_defect(field, i, grid, src, walls, terms=terms)
            for i in range(len(field))]
