"""Order-transfer operators between levels of the moment hierarchy.

Restriction is degree truncation (a prefix slice under the graded index
order), which keeps the expansion center and therefore the conservative
moments.  Prolongation zero-pads the coarse correction back to the fine
order, adds it in the fine basis and re-centers the sum onto its own
conservative moments through ``recover_macros``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import change_basis
from .grid import Field, Grid1D, ScenarioSource
from .indices import moment_count
from .residual import CellRhs, DefectTerms, field_residuals
from .states import MomentState, recover_macros

__all__ = ["restrict_state", "restrict_residual", "zero_pad", "coarse_rhs",
           "prolong_correction"]


def restrict_state(fine: MomentState, m: int) -> MomentState:
    """Truncate to order m < M; expansion center unchanged, so the result
    is admissible and shares the fine state's conservative moments."""
    if not 2 <= m < fine.order:
        raise ValueError(f"restriction target {m} not in [2, {fine.order})")
    return MomentState(m, fine.u.copy(), fine.theta,
                       fine.coeffs[:moment_count(m)].copy())


def restrict_residual(fine_res: np.ndarray, m: int) -> np.ndarray:
    return np.asarray(fine_res)[:moment_count(m)].copy()


def zero_pad(coeffs: np.ndarray, M: int) -> np.ndarray:
    out = np.zeros(moment_count(M))
    out[:len(coeffs)] = coeffs
    return out


def coarse_rhs(fine_field: Field, fine_defects: list[np.ndarray],
               coarse_field: Field, grid: Grid1D, src: ScenarioSource,
               walls) -> tuple[list[CellRhs], DefectTerms]:
    """Right-hand side of the lower-order problem,
    r_m = R_m(restricted field) + truncation of (r_M - R_M(fine field)),
    pinned cellwise to the restricted states' bases, and the coarse field's
    defect terms with this right-hand side: those of R_m with rows r_m,
    since each is pinned at its own cell's centre."""
    m = coarse_field.order
    coarse_ops, terms = field_residuals(coarse_field, grid, src, walls,
                                        return_terms=True)  # = -R_m
    out = []
    for cell, neg_Rm, fine_def in zip(coarse_field.cells, coarse_ops, fine_defects):
        r = -neg_Rm + restrict_residual(fine_def, m)
        out.append(CellRhs(r, cell.u.copy(), cell.theta))
    return out, replace(terms, rhs=np.array([r.coeffs for r in out]))


def prolong_correction(fine: MomentState, coarse_new: MomentState,
                       coarse_old: MomentState) -> MomentState:
    """Apply the coarse-level increment to a fine state.

    The increment (new minus old, compared in the new coarse basis) is
    zero-padded to the fine order, re-expressed in the fine state's basis
    and added; :func:`~momentmg.states.recover_macros` re-centers the sum on
    its own conservative moments.

    Raises :class:`~momentmg.errors.PositivityError`, from
    ``recover_macros``, when the corrected density or temperature is not
    positive; the caller decides whether to skip the cell.
    """
    M = fine.order
    old_in_new = change_basis(coarse_old.coeffs, coarse_old.u, coarse_old.theta,
                              coarse_new.u, coarse_new.theta, coarse_new.table)
    delta = zero_pad(coarse_new.coeffs - old_in_new, M)
    raw = fine.coeffs + change_basis(delta, coarse_new.u, coarse_new.theta,
                                     fine.u, fine.theta, fine.table)
    return recover_macros(raw, fine.u, fine.theta, M)
