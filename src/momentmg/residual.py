"""Cell residual operator of the steady finite-volume discretization.

The defect of cell i is r_i - R_i, with
R_i = (F(f_i, f_{i+1}) - F(f_{i-1}, f_i)) / dx_i - G(f_i), everything in
f_i's basis.  :func:`defect_terms` evaluates the parts of it for every cell
of the field at once, stacked into ``(n, K)`` arrays: each cell's source
G_i, its right-hand side r_i re-centred onto the cell's basis, its wave
speed, its wall faces, and the Lax-Friedrichs faces against a chosen set of
neighbours, re-centred in one batched series.  The right-hand side is one
stacked :class:`PinnedRhs`.  :func:`cell_defect` then only reads the cell's
row and evaluates the faces left open.

A frozen field (the residual monitor, the FAS defects, the coarse operator
of ``coarse_rhs``) closes every face at once.  A Gauss-Seidel pass of the
smoother freezes, at the start of the pass, what cannot change before the
pass reaches a cell: the source, the right-hand side, the wave speed, the
wall faces and the face against the neighbour relaxed after the cell.  The
face against the neighbour already relaxed in this pass is the one left
open.  Those are a subset of the whole field's, so a pass on a field whose
whole-field terms were just built takes them over (:func:`reopen`).
An open face moves the neighbour into the cell's basis with one scalar
series per step, from its raw relaxed coefficients about its pre-pass
centre; the smoother re-centres the whole field once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import change_basis, change_basis_batch, wave_speeds
from .equilibrium import collision_frequency, equilibrium_batch
from .fluxes import lf_flux
from .grid import Field, Grid1D, ScenarioSource
from .indices import OrderTable
from .walls import Side, wall_flux

__all__ = ["PinnedRhs", "DefectTerms", "source_terms", "defect_terms", "reopen",
           "cell_defect", "field_residuals"]


@dataclass
class PinnedRhs:
    """A known right-hand side of every cell of a field: row i of the
    ``(n, K)`` ``coeffs`` is pinned to the basis ``[u[i], theta[i]]`` it was
    built in, and re-expressed into cell i's current basis on every
    evaluation."""

    coeffs: np.ndarray
    u: np.ndarray
    theta: np.ndarray


@dataclass
class DefectTerms:
    """The parts of the defects of every cell of a field, one row per cell.

    ``flux_l`` / ``flux_r`` hold the left / right face flux where
    ``closed_l`` / ``closed_r`` is set; an open face is evaluated by
    :func:`cell_defect` against the neighbour's current state and ``lam``.
    """

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


@lru_cache(maxsize=None)
def _face_plan(n: int, has_walls: bool, sweep: int):
    """The face rule of :func:`defect_terms`: wall faces as (side, cell), the
    other closed faces as cell, side and neighbour arrays, and the
    ``(2, n)`` closed mask (side 0 left, 1 right)."""
    wall_faces, faces = [], []
    for i in range(n):
        for side, step in ((0, -1), (1, 1)):
            j = (i + step) % n
            if has_walls and i + step in (-1, n):
                wall_faces.append((side, i))
            elif sweep == 0 or (j - i) * sweep > 0:
                faces.append((i, side, j))
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    closed = np.zeros((2, n), dtype=bool)
    closed[faces[:, 1], faces[:, 0]] = True
    for side, i in wall_faces:
        closed[side, i] = True
    for arr in (faces, closed):
        arr.setflags(write=False)
    return tuple(wall_faces), *faces.T, closed


def defect_terms(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                 rhs: PinnedRhs | None = None, sweep: int = 0) -> DefectTerms:
    """Defect terms of every cell against the field as it is.

    With ``sweep = 0`` every face is closed.  With ``sweep = +1`` / ``-1``
    only the faces against neighbours that a forward / backward
    Gauss-Seidel pass relaxes after the cell are closed, plus the wall
    faces.  Domain ends use the wall flux, or periodic wrap-around when
    ``walls`` is None (test hook).
    """
    table = OrderTable(field.order)
    n = len(field)
    wall_faces, rows, sides, nbrs, closed = _face_plan(n, walls is not None, sweep)
    C = np.array([c.coeffs for c in field.cells])
    U = np.array([c.u for c in field.cells])
    T = np.array([c.theta for c in field.cells])
    lam = wave_speeds(U[:, 0], T, field.order)
    source = source_terms(C, T, src, table)

    flux = np.zeros((2, n, table.count))  # [0] left faces, [1] right faces
    for side, i in wall_faces:
        flux[side, i] = wall_flux(field.cells[i], walls[side],
                                  Side.LEFT if side == 0 else Side.RIGHT)

    # one batched series re-centres the pinned right-hand sides (the first
    # ``pinned`` rows) and the neighbours of the closed faces onto their
    # cells' bases
    pinned = 0 if rhs is None else n
    frm = (C[nbrs], U[nbrs], T[nbrs])
    if rhs is not None:
        frm = [np.concatenate(p) for p in zip((rhs.coeffs, rhs.u, rhs.theta), frm)]
    to = np.concatenate([np.arange(pinned), rows])
    moved = change_basis_batch(*frm, U[to], T[to], table)
    if len(rows):
        w_nb, w_own = moved[pinned:], C[rows]
        left = (sides == 0)[:, None]
        lam_face = np.maximum(lam[rows], lam[nbrs])[:, None]
        flux[sides, rows] = lf_flux(np.where(left, w_nb, w_own),
                                    np.where(left, w_own, w_nb), lam_face,
                                    U[rows, :1], T[rows, None], table)

    return DefectTerms(grid.dx, lam, source, None if rhs is None else moved[:n],
                       flux[0], flux[1], closed[0], closed[1])


def reopen(terms: DefectTerms, walls, sweep: int) -> DefectTerms:
    """The terms of a Gauss-Seidel pass (``sweep = +1`` / ``-1``) from the
    ``sweep = 0`` terms of the same, unchanged field: every term the pass
    freezes is there bit for bit, so only faces are re-opened and ``lam``,
    which the pass overwrites, is copied."""
    closed = _face_plan(len(terms.lam), walls is not None, sweep)[-1]
    return replace(terms, lam=terms.lam.copy(), closed_l=closed[0], closed_r=closed[1])


def _open_face(field: Field, i: int, j: int, lam: np.ndarray, j_is_right: bool) -> np.ndarray:
    """Lax-Friedrichs flux between cell i and its neighbour j in i's basis,
    with ``lam`` the cells' current wave speeds."""
    this, nb = field.cells[i], field.cells[j]
    table = OrderTable(field.order)
    w_nb = change_basis(nb.coeffs, nb.u, nb.theta, this.u, this.theta, table)
    lam = max(float(lam[i]), float(lam[j]))
    wl, wr = (this.coeffs, w_nb) if j_is_right else (w_nb, this.coeffs)
    return lf_flux(wl, wr, lam, float(this.u[0]), this.theta, table)


def cell_defect(field: Field, i: int, terms: DefectTerms) -> np.ndarray:
    """Defect r_i - R_i (or -R_i without a right-hand side) of cell i
    against its current neighbours, in cell i's basis, from the field's
    :class:`DefectTerms`, which already carry the right-hand side."""
    n = len(field)
    flux_r = (terms.flux_r[i] if terms.closed_r[i]
              else _open_face(field, i, (i + 1) % n, terms.lam, True))
    flux_l = (terms.flux_l[i] if terms.closed_l[i]
              else _open_face(field, i, (i - 1) % n, terms.lam, False))
    R = (flux_r - flux_l) / terms.dx[i] - terms.source[i]
    if terms.rhs is None:
        return -R
    return terms.rhs[i] - R


def field_residuals(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                    rhs: PinnedRhs | None = None) -> tuple[np.ndarray, DefectTerms]:
    """The ``(n, K)`` defects r_i - R_i of a frozen field and the
    :class:`DefectTerms` they were read from."""
    terms = defect_terms(field, grid, src, walls, rhs)
    return np.array([cell_defect(field, i, terms) for i in range(len(field))]), terms
