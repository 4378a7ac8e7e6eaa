"""SGS-Richardson smoother behavior."""

import numpy as np
import pytest

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, CyclePlan, Field,
                      Grid1D, MomentState, NuLaw, OrderTable, ScenarioSource,
                      SmootherConfig, recover_macros, richardson_step, sgs_sweep,
                      smooth, solve, total_mass)
from momentmg.cycle import residual_norm_of
from momentmg.residual import PinnedRhs, defect_terms, field_residuals


def _couette(M=4, N=32):
    grid = Grid1D.uniform(1.0, N)
    spec = CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0,
                         nu_law=NuLaw.POWER_LAW, kn=0.1199, w=0.81)
    src = ScenarioSource(spec)
    walls = (BoundarySpec(1.0, (0.0, 0.0), 1.0),
             BoundarySpec(1.0, (1.2577, 0.0), 1.0))
    return Field.equilibrium(M, N), grid, src, walls


def _relaxed(i, field, grid, src):
    """One Richardson step of cell i against the field's closed defect terms,
    re-centred onto its own macros, and the step's halvings of omega."""
    this = field.cells[i]
    coeffs, _u, _theta, halvings = richardson_step(i, field, SmootherConfig(),
                                                   defect_terms(field, grid, src, None))
    return recover_macros(coeffs, this.u, this.theta, this.order), halvings


def test_cfl_validation():
    with pytest.raises(ValueError):
        SmootherConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SmootherConfig(cfl=1.0)


def test_zero_defect_is_fixed_point():
    M, N = 4, 6
    grid = Grid1D.uniform(1.0, N)
    field = Field.equilibrium(M, N)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.5))
    out, _halvings = _relaxed(2, field, grid, src)
    assert np.allclose(out.coeffs, field.cells[2].coeffs, atol=1e-14)
    assert np.array_equal(out.u, field.cells[2].u)


def test_omega_scales_with_cell_size():
    # uniform equilibrium with a tiny tangential force: the defect is the
    # constant source, so the momentum update is proportional to omega and
    # must double when the cell size doubles
    M, N = 3, 4
    drifts = {}
    for L in (1.0, 2.0):
        grid = Grid1D.uniform(L, N)
        field = Field.equilibrium(M, N)
        src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.5),
                             force=(0.0, 1e-4, 0.0))
        out, _halvings = _relaxed(0, field, grid, src)
        drifts[L] = out.u[1]
    assert drifts[1.0] > 0.0
    assert drifts[2.0] == pytest.approx(2.0 * drifts[1.0], rel=1e-10)


def near_vacuum_pair():
    """A near-vacuum cell beside a dense one on a periodic two-cell grid,
    under a strong force.  Lax-Friedrichs keeps every density positive (the
    near-vacuum cell fills up), but the force lowers a cell's temperature
    by omega^2 F^2 / 3 in one step, which at the nominal omega would be
    negative in the dense cell."""
    M, N = 3, 2
    grid = Grid1D.uniform(1.0, N)
    t = OrderTable(M)
    w = np.zeros(t.count)
    w[0] = 1e-4  # near-vacuum
    near_vac = MomentState(M, np.zeros(3), 1.0, w)
    big = MomentState(M, np.zeros(3), 1.0,
                      np.concatenate(([5.0], np.zeros(t.count - 1))))
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.01),
                         force=(10.0, 0.0, 0.0))
    return Field(M, [near_vac, big]), grid, src


def test_positivity_backoff_recovers():
    # the halving loop must return an admissible state, and does halve
    # omega in the dense cell
    field, grid, src = near_vacuum_pair()
    out, _halvings = _relaxed(0, field, grid, src)
    assert out.rho > 0.0
    assert out.theta > 0.0
    out, halvings = _relaxed(1, field, grid, src)
    assert halvings > 0
    assert out.rho > 0.0
    assert out.theta > 0.0


def test_solver_counts_backoffs():
    field, grid, src = near_vacuum_pair()
    result = solve(field, grid, src, None, CyclePlan((3,), s3=1), max_iters=1)
    assert result.diagnostics.backoffs > 0


def test_sweep_keeps_target_mass_exactly():
    field, grid, src, walls = _couette(N=8)
    target = total_mass(field, grid)
    cfg = SmootherConfig()
    for _ in range(3):
        sgs_sweep(field, grid, src, walls, cfg, target_mass=target)
        assert total_mass(field, grid) == pytest.approx(target, rel=1e-14)


def test_first_sweep_reduces_residual_on_couette():
    field, grid, src, walls = _couette(N=32)
    r0, _ = residual_norm_of(field, grid, src, walls)
    sgs_sweep(field, grid, src, walls, SmootherConfig(),
              target_mass=total_mass(field, grid))
    r1, _ = residual_norm_of(field, grid, src, walls)
    assert r1 < r0


def test_sweep_with_fas_rhs_is_identity():
    rng = np.random.default_rng(50)
    M, N = 4, 6
    grid = Grid1D.uniform(1.0, N)
    field = Field.equilibrium(M, N)
    for c in field.cells:
        # perturb only degree >= 3 so the states stay centered
        c.coeffs[10:] += rng.normal(scale=0.01, size=c.table.count - 10)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.5))
    plain, _terms = field_residuals(field, grid, src, None)
    rhs = PinnedRhs(-plain, np.array([c.u for c in field.cells]),
                    np.array([c.theta for c in field.cells]))
    before = [c.coeffs.copy() for c in field.cells]
    sgs_sweep(field, grid, src, None, SmootherConfig(rhs=rhs))
    for b, c in zip(before, field.cells):
        assert np.allclose(c.coeffs, b, atol=1e-12)


def test_smooth_zero_steps_is_identity():
    field, grid, src, walls = _couette(N=4)
    before = [c.coeffs.copy() for c in field.cells]
    smooth(field, 0, grid, src, walls, SmootherConfig())
    for b, c in zip(before, field.cells):
        assert np.array_equal(b, c.coeffs)


def test_smooth_composes():
    f1, grid, src, walls = _couette(N=8)
    f2 = f1.copy()
    cfg = SmootherConfig()
    smooth(f1, 5, grid, src, walls, cfg)
    smooth(f2, 2, grid, src, walls, cfg)
    smooth(f2, 3, grid, src, walls, cfg)
    for a, b in zip(f1.cells, f2.cells):
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_more_smoothing_reduces_residual_more():
    f1, grid, src, walls = _couette(N=16)
    f2 = f1.copy()
    cfg = SmootherConfig()
    target = total_mass(f1, grid)
    smooth(f1, 2, grid, src, walls, cfg, target)
    smooth(f2, 10, grid, src, walls, cfg, target)
    r2, _ = residual_norm_of(f1, grid, src, walls)
    r10, _ = residual_norm_of(f2, grid, src, walls)
    assert r10 <= r2
