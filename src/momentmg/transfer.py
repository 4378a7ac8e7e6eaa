"""Order-transfer operators between levels of the moment hierarchy.

Restriction is degree truncation (a prefix slice under the graded index
order), which keeps the expansion center and therefore the conservative
moments; the fine defects restrict as the ``(n, K_m)`` prefix of their
stack, inside :func:`coarse_rhs`, which returns the coarse level's
right-hand side as one stacked :class:`~momentmg.residual.PinnedRhs`.
Prolongation zero-pads the coarse correction back to the fine
order, adds it in the fine basis and re-centers the sum onto its own
conservative moments through ``recover_macros``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import change_basis
from .grid import Field, Grid1D, ScenarioSource
from .indices import moment_count
from .residual import DefectTerms, PinnedRhs, field_residuals
from .states import MomentState, recover_macros

__all__ = ["restrict_state", "zero_pad", "coarse_rhs", "prolong_correction"]


def restrict_state(fine: MomentState, m: int) -> MomentState:
    """Truncate to order m < M; expansion center unchanged, so the result
    is admissible and shares the fine state's conservative moments."""
    if not 2 <= m < fine.order:
        raise ValueError(f"restriction target {m} not in [2, {fine.order})")
    return MomentState(m, fine.u.copy(), fine.theta,
                       fine.coeffs[:moment_count(m)].copy())


def zero_pad(coeffs: np.ndarray, M: int) -> np.ndarray:
    out = np.zeros(moment_count(M))
    out[:len(coeffs)] = coeffs
    return out


def coarse_rhs(fine_defects: np.ndarray, coarse_field: Field, grid: Grid1D,
               src: ScenarioSource, walls) -> tuple[PinnedRhs, DefectTerms]:
    """Right-hand side of the lower-order problem,
    r_m = R_m(restricted field) + truncation of the ``(n, K_M)`` fine
    defects r_M - R_M(fine field), pinned cellwise to the restricted
    states' bases, and the coarse field's defect terms with this
    right-hand side: those of R_m with rows r_m, since each is pinned at
    its own cell's centre."""
    coarse_defects, terms = field_residuals(coarse_field, grid, src, walls)  # = -R_m
    rhs = PinnedRhs(fine_defects[:, :moment_count(coarse_field.order)] - coarse_defects,
                    np.array([c.u for c in coarse_field.cells]),
                    np.array([c.theta for c in coarse_field.cells]))
    return rhs, replace(terms, rhs=rhs.coeffs)


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
