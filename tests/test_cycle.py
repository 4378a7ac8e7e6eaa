"""Order hierarchies, the recursive cycle, and the outer steady driver."""

import numpy as np
import pytest

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, ConvergenceError,
                      CyclePlan, Field, Grid1D, NuLaw, ReductionStrategy, ScenarioSource,
                      SmootherConfig, couette_config, derived_moments, nmlm_cycle,
                      order_sequence, poiseuille_config, sgs_sweep, smooth, solve,
                      total_mass)
from momentmg.cycle import CycleDiagnostics, residual_norm_of


def _couette(M=4, N=16, u_wall=1.2577):
    grid = Grid1D.uniform(1.0, N)
    spec = CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0,
                         nu_law=NuLaw.POWER_LAW, kn=0.1199, w=0.81)
    src = ScenarioSource(spec)
    walls = (BoundarySpec(1.0, (0.0, 0.0), 1.0),
             BoundarySpec(1.0, (u_wall, 0.0), 1.0))
    return Field.equilibrium(M, N), grid, src, walls


def test_order_sequence_halving():
    assert order_sequence(10, ReductionStrategy.HALVE, 3) == [3, 5, 10]


def test_order_sequence_minus_two():
    assert order_sequence(26, ReductionStrategy.MINUS_TWO, 4) == [20, 22, 24, 26]


def test_order_sequence_minus_one():
    assert order_sequence(6, ReductionStrategy.MINUS_ONE, 3) == [4, 5, 6]


def test_order_sequence_single_level():
    assert order_sequence(4, ReductionStrategy.MINUS_TWO, 1) == [4]


def test_order_sequence_clamps_and_warns():
    with pytest.warns(UserWarning):
        seq = order_sequence(4, ReductionStrategy.MINUS_TWO, 4)
    assert seq == [2, 4]
    with pytest.warns(UserWarning):
        seq = order_sequence(3, ReductionStrategy.HALVE, 3)
    assert seq == [2, 3]


def test_order_sequence_validation():
    with pytest.raises(ValueError):
        order_sequence(1, ReductionStrategy.HALVE, 2)
    with pytest.raises(ValueError):
        order_sequence(4, ReductionStrategy.HALVE, 0)


def test_cycle_plan_validation():
    with pytest.raises(ValueError):
        CyclePlan(orders=(4, 4))
    with pytest.raises(ValueError):
        CyclePlan(orders=(1, 3))
    with pytest.raises(ValueError):
        CyclePlan(orders=(2, 4), gamma=0)
    with pytest.raises(ValueError):
        CyclePlan(orders=(2, 4), s1=-1)


def test_single_level_cycle_is_plain_smoothing():
    f1, grid, src, walls = _couette(N=8)
    f2 = f1.copy()
    plan = CyclePlan(orders=(4,), s3=7)
    target = total_mass(f1, grid)
    f1 = nmlm_cycle(0, f1, None, plan, grid, src, walls, target_mass=target)
    f2 = smooth(f2, 7, grid, src, walls, SmootherConfig(), target)
    for a, b in zip(f1.cells, f2.cells):
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-15)


def test_cycle_rejects_order_mismatch():
    field, grid, src, walls = _couette(M=4, N=4)
    plan = CyclePlan(orders=(3, 6))
    with pytest.raises(ValueError):
        nmlm_cycle(1, field, None, plan, grid, src, walls)


def test_gamma_controls_coarse_calls():
    for gamma, expected in [(1, 1 + 1), (2, 2 + 2 * 2)]:
        field, grid, src, walls = _couette(M=6, N=4)
        plan = CyclePlan(orders=(2, 4, 6), gamma=gamma, s1=1, s2=1, s3=1)
        diag = CycleDiagnostics()
        nmlm_cycle(2, field, None, plan, grid, src, walls, diag=diag,
                   target_mass=total_mass(field, grid))
        assert diag.coarse_calls == expected


def test_cycle_preserves_total_mass():
    field, grid, src, walls = _couette(M=4, N=8)
    target = total_mass(field, grid)
    plan = CyclePlan(orders=(2, 4), s1=2, s2=2, s3=4)
    field = nmlm_cycle(1, field, None, plan, grid, src, walls,
                       target_mass=target)
    assert total_mass(field, grid) == pytest.approx(target, rel=1e-13)


def test_two_level_cycle_reduces_couette_residual():
    field, grid, src, walls = _couette(M=4, N=16)
    r0, _ = residual_norm_of(field, grid, src, walls)
    plan = CyclePlan(orders=(2, 4))
    field = nmlm_cycle(1, field, None, plan, grid, src, walls,
                       target_mass=total_mass(field, grid))
    assert residual_norm_of(field, grid, src, walls)[0] < r0


def test_solve_zero_iterations_at_steady_state():
    # resting walls at the initial temperature: equilibrium already solves
    # the problem, so the driver returns before the first cycle
    field, grid, src, walls = _couette(M=4, N=8, u_wall=0.0)
    result = solve(field, grid, src, walls, CyclePlan(orders=(2, 4)), tol=1e-8)
    assert result.converged
    assert result.history == []


def test_solve_validation_and_nonconvergence():
    field, grid, src, walls = _couette(M=4, N=8)
    with pytest.raises(ValueError):
        solve(field, grid, src, walls, CyclePlan(orders=(4,)), tol=0.0)
    result = solve(field, grid, src, walls, CyclePlan(orders=(2, 4)),
                   tol=1e-12, max_iters=2)
    assert not result.converged
    assert len(result.history) == 2
    assert result.history[0].iteration == 1
    assert result.history[1].wall_seconds >= result.history[0].wall_seconds


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_solve_rejects_non_finite_tolerance(tol, monkeypatch):
    import momentmg.cycle as cycle_mod

    def no_cycle(*args, **kwargs):
        raise AssertionError("a cycle ran before the tolerance was checked")

    monkeypatch.setattr(cycle_mod, "nmlm_cycle", no_cycle)
    field, grid, src, walls = _couette(M=4, N=8)
    with pytest.raises(ValueError, match="finite and positive"):
        solve(field, grid, src, walls, CyclePlan(orders=(2, 4)), tol=tol, max_iters=3)


def _poison(field):
    """Put a NaN into a shear coefficient of an interior cell."""
    cell = field.cells[len(field) // 2]
    cell.coeffs[cell.table.rank((1, 1, 0))] = float("nan")


def test_solve_stops_on_non_finite_initial_residual(monkeypatch):
    import momentmg.cycle as cycle_mod

    def no_cycle(*args, **kwargs):
        raise AssertionError("a cycle ran on a non-finite initial residual")

    monkeypatch.setattr(cycle_mod, "nmlm_cycle", no_cycle)
    field, grid, src, walls = _couette(M=4, N=8)
    _poison(field)
    with pytest.raises(ConvergenceError, match="after 0 iterations"):
        solve(field, grid, src, walls, CyclePlan(orders=(2, 4)), tol=1e-8)


def test_solve_stops_at_first_non_finite_residual(monkeypatch):
    import momentmg.cycle as cycle_mod
    real_cycle = cycle_mod.nmlm_cycle
    calls = []

    def poisoning_cycle(level, *args, **kwargs):
        if level == 0:  # the coarse recursion inside a top-level cycle
            return real_cycle(level, *args, **kwargs)
        if calls:
            raise AssertionError("a cycle ran after a non-finite residual")
        calls.append(level)
        field = real_cycle(level, *args, **kwargs)
        _poison(field)
        return field

    monkeypatch.setattr(cycle_mod, "nmlm_cycle", poisoning_cycle)
    field, grid, src, walls = _couette(M=4, N=8)
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        solve(field, grid, src, walls, CyclePlan(orders=(2, 4)), tol=1e-8)
    assert len(calls) == 1


def _assert_invariants(field, grid, target):
    """Total mass to 1e-12 relative; every cell finite, with unit
    coefficients and degree-2 diagonal trace at most 1e-12 rho."""
    assert abs(total_mass(field, grid) - target) <= 1e-12 * target
    for c in field.cells:
        assert np.all(np.isfinite(c.coeffs)) and np.all(np.isfinite(c.u))
        assert np.isfinite(c.theta)
        assert np.max(np.abs(c.coeffs[c.table.r_unit])) <= 1e-12 * c.rho
        assert abs(c.coeffs[c.table.r_unit2].sum()) <= 1e-12 * c.rho


@pytest.mark.parametrize("chi", [1.0, 0.5])
@pytest.mark.parametrize("M", [16, 26])
def test_high_order_cycles_keep_mass_and_admissibility(M, chi):
    # ES-BGK Poiseuille with a force, 2 levels halve, at the orders the
    # wall matrices and counts are pinned up to
    cfg = poiseuille_config(N=6, M=M, levels=2, strategy=ReductionStrategy.HALVE,
                            walls=(BoundarySpec(chi=chi), BoundarySpec(chi=chi)))
    field, grid, src, walls = cfg.build()
    plan = cfg.plan()
    smoother_cfg = SmootherConfig(cfl=cfg.cfl)
    target = total_mass(field, grid)
    for _ in range(2):
        field = nmlm_cycle(1, field, None, plan, grid, src, walls, smoother_cfg, target)
        _assert_invariants(field, grid, target)
    for _ in range(2):
        field = sgs_sweep(field, grid, src, walls, smoother_cfg, target)
        _assert_invariants(field, grid, target)


@pytest.mark.slow
def test_solve_couette_two_level_converges():
    field, grid, src, walls = _couette(M=4, N=16)
    result = solve(field, grid, src, walls, CyclePlan(orders=(2, 4)), tol=1e-8)
    assert result.converged
    assert result.history[-1].residual <= 1e-8
    # monotone tail: the last few cycles keep shrinking the residual
    tail = [h.residual for h in result.history[-5:]]
    assert all(a > b for a, b in zip(tail, tail[1:]))


@pytest.mark.slow
def test_couette_top_order_solve_converges_symmetric():
    # the highest order the package accepts, 2 levels halve (orders 13, 26)
    cfg = couette_config(N=8, M=26, levels=2, strategy=ReductionStrategy.HALVE)
    field, grid, src, walls = cfg.build()
    target = total_mass(field, grid)
    result = solve(field, grid, src, walls, cfg.plan(), tol=cfg.tol, max_iters=100,
                   cfg=SmootherConfig(cfl=cfg.cfl))
    assert result.converged and len(result.history) == 27
    _assert_invariants(result.field, grid, target)
    macros = [derived_moments(c) for c in result.field.cells]
    rho = np.array([m.rho for m in macros])
    theta = np.array([m.theta for m in macros])
    u2 = np.array([m.u[1] for m in macros])
    # mirror symmetry of the channel, as the benchmark checks it
    assert np.max(np.abs(rho - rho[::-1])) <= 1e-6
    assert np.max(np.abs(theta - theta[::-1])) <= 1e-6
    assert np.max(np.abs(u2 + u2[::-1] - walls[1].u_wall[0])) <= 1e-6
