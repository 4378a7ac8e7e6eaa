"""The recursive multi-level moment iteration and the outer steady driver.

The residual monitor's whole-field defect terms feed the first pass of the
next top-level cycle, those of the coarse operator in ``coarse_rhs`` the
first coarse pass; the FAS defects' terms feed nothing.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import dataclass

from .errors import ConvergenceError, MomentError, PositivityError
from .grid import Field, Grid1D, ScenarioSource, total_mass
from .norms import global_residual_norm, local_residual_norm
from .residual import DefectTerms, PinnedRhs, field_residuals
from .smoother import SmootherConfig, smooth
from .transfer import coarse_rhs, prolong_correction, restrict_state

__all__ = ["ReductionStrategy", "CyclePlan", "ConvergenceRecord",
           "CycleDiagnostics", "SolveResult", "order_sequence",
           "nmlm_cycle", "solve"]


class ReductionStrategy(enum.Enum):
    MINUS_ONE = "minus-one"
    MINUS_TWO = "minus-two"
    HALVE = "halve"

    def next_order(self, m: int) -> int:
        if self is ReductionStrategy.MINUS_ONE:
            n = m - 1
        elif self is ReductionStrategy.MINUS_TWO:
            n = m - 2
        else:
            n = math.ceil(m / 2)
        return max(n, 2)


def order_sequence(M: int, strategy: ReductionStrategy, levels: int) -> list[int]:
    """Descend from the top order by the given strategy, clamped at 2;
    returned ascending.  A warning is emitted when fewer distinct orders
    than requested levels are reachable."""
    if M < 2:
        raise ValueError("top order must be >= 2")
    if levels < 1:
        raise ValueError("need at least one level")
    seq = [M]
    while len(seq) < levels:
        nxt = strategy.next_order(seq[-1])
        if nxt >= seq[-1]:
            warnings.warn(f"order sequence stalls at {seq[-1]}; "
                          f"returning {len(seq)} of {levels} requested levels")
            break
        seq.append(nxt)
    return seq[::-1]


@dataclass(frozen=True)
class CyclePlan:
    """Order hierarchy m_0 < ... < m_L plus cycle shape parameters."""

    orders: tuple[int, ...]
    gamma: int = 1
    s1: int = 2
    s2: int = 2
    s3: int = 10

    def __post_init__(self):
        orders = tuple(self.orders)
        object.__setattr__(self, "orders", orders)
        if orders[0] < 2 or any(a >= b for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly increasing with m_0 >= 2")
        if self.gamma < 1:
            raise ValueError("cycle index gamma must be >= 1")
        if min(self.s1, self.s2, self.s3) < 0:
            raise ValueError("smoothing counts must be non-negative")

    @property
    def levels(self) -> int:
        return len(self.orders)


@dataclass
class ConvergenceRecord:
    iteration: int
    residual: float
    wall_seconds: float


@dataclass
class CycleDiagnostics:
    coarse_calls: int = 0
    rejected_corrections: int = 0
    backoffs: int = 0  # positivity halvings of a Richardson step size


@dataclass
class SolveResult:
    field: Field
    history: list[ConvergenceRecord]
    converged: bool
    diagnostics: CycleDiagnostics


def nmlm_cycle(level: int, field: Field, rhs: PinnedRhs | None,
               plan: CyclePlan, grid: Grid1D, src: ScenarioSource, walls,
               cfg: SmootherConfig | None = None,
               target_mass: float | None = None,
               diag: CycleDiagnostics | None = None,
               terms: DefectTerms | None = None) -> Field:
    """One multi-level iteration at the given level of the hierarchy.

    Level 0 runs s3 smoothing steps only; higher levels smooth (s1),
    transfer the full approximation plus defect to the next-lower order,
    recurse gamma times, apply the prolongated correction and smooth (s2).
    The first pass takes over ``terms``, the whole-field terms of ``field``.
    """
    if cfg is None:
        cfg = SmootherConfig()
    if field.order != plan.orders[level]:
        raise ValueError(f"field order {field.order} != plan level order {plan.orders[level]}")
    level_cfg = SmootherConfig(cfl=cfg.cfl, rhs=rhs)
    if level == 0:
        return smooth(field, plan.s3, grid, src, walls, level_cfg, target_mass, terms, diag)

    field = smooth(field, plan.s1, grid, src, walls, level_cfg, target_mass, terms, diag)

    defects, _terms = field_residuals(field, grid, src, walls, rhs)
    m = plan.orders[level - 1]
    coarse = Field(m, [restrict_state(c, m) for c in field.cells])
    coarse_initial = coarse.copy()
    rhs_coarse, coarse_terms = coarse_rhs(defects, coarse, grid, src, walls)
    for _ in range(plan.gamma):
        if diag is not None:
            diag.coarse_calls += 1
        coarse = nmlm_cycle(level - 1, coarse, rhs_coarse, plan, grid, src,
                            walls, cfg, target_mass, diag, coarse_terms)
        coarse_terms = None
    for i, cell in enumerate(field.cells):
        try:
            field.cells[i] = prolong_correction(cell, coarse.cells[i],
                                                coarse_initial.cells[i])
        except PositivityError:
            if diag is not None:
                diag.rejected_corrections += 1

    return smooth(field, plan.s2, grid, src, walls, level_cfg, target_mass, diag=diag)


def residual_norm_of(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                     rhs: PinnedRhs | None = None) -> tuple[float, DefectTerms]:
    """Weighted global residual norm of a frozen field and the whole-field
    defect terms it was read from; the local norms of the stacked defects
    are one :func:`~momentmg.norms.local_residual_norm` call."""
    defects, terms = field_residuals(field, grid, src, walls, rhs)
    locals_ = local_residual_norm(defects, [c.theta for c in field.cells],
                                  field.cells[0].table)
    return global_residual_norm(locals_, grid.dx), terms


def _finite_residual(field: Field, grid: Grid1D, src: ScenarioSource, walls,
                     iteration: int) -> tuple[float, DefectTerms]:
    res, terms = residual_norm_of(field, grid, src, walls)
    if not math.isfinite(res):
        raise ConvergenceError(f"residual {res} after {iteration} iterations")
    return res, terms


def solve(field: Field, grid: Grid1D, src: ScenarioSource, walls,
          plan: CyclePlan, tol: float = 1e-8, max_iters: int = 100000,
          cfg: SmootherConfig | None = None) -> SolveResult:
    """Repeat top-level cycles until the weighted global residual of the
    homogeneous problem drops below tol.  Non-convergence returns the
    history instead of raising; a residual that is not finite, including
    the initial one, raises :class:`ConvergenceError`; it, and every other
    :class:`~momentmg.errors.MomentError` out of the cycles, carries the
    records so far in ``history``."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    diag = CycleDiagnostics()
    target_mass = total_mass(field, grid) if walls is not None else None
    top = plan.levels - 1
    t0 = time.perf_counter()
    history: list[ConvergenceRecord] = []
    res, terms = _finite_residual(field, grid, src, walls, 0)
    if res <= tol:
        return SolveResult(field, history, True, diag)
    try:
        for k in range(1, max_iters + 1):
            field = nmlm_cycle(top, field, None, plan, grid, src, walls, cfg,
                               target_mass, diag, terms)
            res, terms = _finite_residual(field, grid, src, walls, k)
            history.append(ConvergenceRecord(k, res, time.perf_counter() - t0))
            if res <= tol:
                return SolveResult(field, history, True, diag)
    except MomentError as exc:
        exc.history = history
        raise
    return SolveResult(field, history, False, diag)
