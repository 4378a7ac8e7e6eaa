"""Cell residual operator, sources, and the mass-fixing correction."""

import numpy as np
import pytest

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, Field,
                      Grid1D, MomentState, NuLaw, OrderTable, ScenarioSource,
                      derived_moments, mass_correction, total_mass)
from momentmg.residual import PinnedRhs, field_residuals, source_terms
from momentmg.states import maxwellian_state

from oracles import random_admissible


def source_coeffs(s, src):
    """G of one state through the batched source kernel."""
    return source_terms(s.coeffs[None], np.array([s.theta]), src, s.table)[0]


def _periodic_setup(M=4, N=8, rho=1.0):
    grid = Grid1D.uniform(1.0, N)
    field = Field.equilibrium(M, N, rho)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.5))
    return field, grid, src


def test_equilibrium_source_vanishes():
    s = maxwellian_state(4, 1.2, (0.1, 0.0, 0.0), 1.3)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0))
    assert np.max(np.abs(source_coeffs(s, src))) < 1e-14


def test_source_conserves_for_random_states():
    rng = np.random.default_rng(40)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.SHAKHOV, prandtl=2.0 / 3.0))
    for _ in range(20):
        s = random_admissible(rng, 5)
        g = source_coeffs(s, src)
        t = s.table
        assert abs(g[0]) < 1e-12
        assert np.max(np.abs(g[t.r_unit])) < 1e-12
        assert abs(g[t.r_unit2].sum()) < 1e-12


def test_tangential_force_feeds_degree_one():
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK), force=(0.0, 0.2555, 0.0))
    g = source_coeffs(s, src)
    t = s.table
    r_e2 = t.rank((0, 1, 0))
    assert g[r_e2] == pytest.approx(0.2555 * 1.0, rel=1e-14)
    g[r_e2] = 0.0
    assert np.max(np.abs(g)) < 1e-14


def test_uniform_equilibrium_residual_vanishes_periodic():
    field, grid, src = _periodic_setup()
    res, _terms = field_residuals(field, grid, src, walls=None)
    assert max(np.max(np.abs(r)) for r in res) < 1e-13


def test_fas_rhs_fixed_point():
    # rhs_i = R_i(f) makes the defect vanish identically
    rng = np.random.default_rng(41)
    field, grid, src = _periodic_setup(M=4, N=6)
    for c in field.cells:
        c.coeffs[5:] += rng.normal(scale=0.02, size=c.table.count - 5)
    plain, _terms = field_residuals(field, grid, src, walls=None)
    rhs = PinnedRhs(-plain, np.array([c.u for c in field.cells]),
                    np.array([c.theta for c in field.cells]))  # r_i = R_i since defect = -R_i
    res, _terms = field_residuals(field, grid, src, walls=None, rhs=rhs)
    assert max(np.max(np.abs(r)) for r in res) < 1e-13


def test_mass_residual_is_upwinded_divergence():
    # linear-in-x density, everything else uniform: the mass component of
    # the residual must equal the hand-assembled flux difference
    M, N = 3, 8
    grid = Grid1D.uniform(1.0, N)
    rhos = 1.0 + 0.2 * grid.centers
    cells = [maxwellian_state(M, r, (0.0, 0.0, 0.0), 1.0) for r in rhos]
    field = Field(M, cells)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=1.0))
    i = 3
    res = field_residuals(field, grid, src, walls=None)[0][i]
    from momentmg.fluxes import numerical_flux
    this = field.cells[i]
    fr = numerical_flux(this, field.cells[i + 1], this.u, this.theta, this.table)
    fl = numerical_flux(field.cells[i - 1], this, this.u, this.theta, this.table)
    dx = grid.dx[i]
    assert res[0] == pytest.approx(-(fr[0] - fl[0]) / dx, rel=1e-12)
    # at rest the central parts cancel; only the dissipation of the density
    # jumps survives: lambda (rho_{i+1} - 2 rho_i + rho_{i-1}) / (2 dx) = 0
    # for an exactly linear profile
    assert res[0] == pytest.approx(0.0, abs=1e-12)


def test_wall_cells_use_wall_flux():
    M, N = 4, 4
    grid = Grid1D.uniform(1.0, N)
    field = Field.equilibrium(M, N)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.5))
    walls = (BoundarySpec(1.0, (0.0, 0.0), 1.0), BoundarySpec(1.0, (0.0, 0.0), 1.0))
    res, _terms = field_residuals(field, grid, src, walls)
    # equilibrium at wall temperature: walls are invisible, residual zero
    assert max(np.max(np.abs(r)) for r in res) < 1e-12


def test_mass_correction_identity_and_rescale():
    field, grid, _ = _periodic_setup(rho=2.0)
    before = [c.coeffs.copy() for c in field.cells]
    mass_correction(field, grid, total_mass(field, grid))
    for b, c in zip(before, field.cells):
        assert np.array_equal(b, c.coeffs)
    mass_correction(field, grid, grid.length)  # target mass L -> rho = 1
    for c in field.cells:
        assert c.rho == pytest.approx(1.0, rel=1e-14)


def test_mass_correction_preserves_normalized_moments():
    rng = np.random.default_rng(42)
    M, N = 4, 4
    grid = Grid1D.uniform(1.0, N)
    cells = [random_admissible(rng, M) for _ in range(N)]
    field = Field(M, cells)
    ratios = [(derived_moments(c).sigma / c.rho, derived_moments(c).q / c.rho,
               c.u.copy(), c.theta) for c in field.cells]
    mass_correction(field, grid, 0.5 * total_mass(field, grid))
    for (sig, q, u, th), c in zip(ratios, field.cells):
        m = derived_moments(c)
        assert np.allclose(m.sigma / c.rho, sig, atol=1e-13)
        assert np.allclose(m.q / c.rho, q, atol=1e-13)
        assert np.array_equal(c.u, u)
        assert c.theta == th
