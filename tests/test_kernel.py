"""The batched defect kernel against the cell-by-cell references."""

import itertools

import numpy as np
import pytest

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, Field, Grid1D,
                      OrderTable, ScenarioSource, SmootherConfig, change_basis,
                      sgs_sweep)
from momentmg.basis import change_basis_batch
from momentmg.residual import CellRhs, defect_terms, field_residuals
from momentmg.walls import Side, wall_flux

from oracles import (random_admissible, reference_cell_defect, reference_sgs_sweep,
                     reference_wall_flux)

TOL = 1e-13

COLLISIONS = {
    "bgk": CollisionSpec(kind=CollisionKind.BGK, kn=0.3),
    "shakhov": CollisionSpec(kind=CollisionKind.SHAKHOV, prandtl=2.0 / 3.0, kn=0.3),
    "esbgk": CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0, kn=0.3, w=0.81),
}
WALLS = {
    "periodic": None,
    "diffuse": (BoundarySpec(1.0, (0.0, 0.0), 1.0), BoundarySpec(1.1, (0.8, 0.0), 1.0)),
    "half": (BoundarySpec(0.9, (0.0, 0.1), 0.5), BoundarySpec(1.0, (0.6, 0.0), 0.5)),
}
FORCES = {"no-force": (0.0, 0.0, 0.0), "force": (0.1, 0.2555, -0.05)}


def _rel(a, b):
    """Largest deviation relative to the reference's largest entry."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _state(rng, M):
    """Random admissible state whose coefficients shrink with degree, so
    that its distribution keeps positive half-space mass fluxes at M = 10."""
    s = random_admissible(rng, M, scale=0.05)
    s.coeffs[1:] *= 0.5 ** s.table.degree[1:]
    return s


def _setup(M, collision, walls, force, with_rhs, seed, N=5):
    rng = np.random.default_rng(seed)
    grid = Grid1D(np.cumsum(np.concatenate([[0.0], 0.15 + 0.1 * rng.random(N)])))
    field = Field(M, [_state(rng, M) for _ in range(N)])
    src = ScenarioSource(COLLISIONS[collision], FORCES[force])
    rhs = None
    if with_rhs:
        rhs = []
        for c in field.cells:
            pinned = _state(rng, M)
            rhs.append(CellRhs(0.1 * pinned.coeffs, pinned.u, pinned.theta))
    return field, grid, src, WALLS[walls], rhs


CASES = list(itertools.product((2, 4, 10), COLLISIONS, WALLS, FORCES, (False, True)))


@pytest.mark.parametrize("M,collision,walls,force,with_rhs", CASES)
def test_field_residuals_match_cell_by_cell(M, collision, walls, force, with_rhs):
    field, grid, src, walls, rhs = _setup(M, collision, walls, force, with_rhs, seed=M)
    got = field_residuals(field, grid, src, walls, rhs)
    for i in range(len(field)):
        expect = reference_cell_defect(field, i, grid, src, walls,
                                       None if rhs is None else rhs[i])
        assert _rel(got[i], expect) <= TOL


@pytest.mark.parametrize("M,collision,walls,force,with_rhs", CASES)
def test_sgs_sweep_matches_sequential_reference(M, collision, walls, force, with_rhs):
    field, grid, src, walls, rhs = _setup(M, collision, walls, force, with_rhs, seed=100 + M)
    cfg = SmootherConfig(cfl=0.9, rhs=rhs)
    mass = 1.05 * float(sum(c.rho * dx for c, dx in zip(field.cells, grid.dx)))
    got = sgs_sweep(field.copy(), grid, src, walls, cfg, mass)
    expect = reference_sgs_sweep(field.copy(), grid, src, walls, cfg, mass)
    for a, b in zip(got.cells, expect.cells):
        assert _rel(a.coeffs, b.coeffs) <= TOL
        assert _rel(a.u, b.u) <= TOL
        assert _rel(a.theta, b.theta) <= TOL


def test_pass_terms_close_the_faces_a_pass_cannot_change():
    field, grid, src, _walls, _rhs = _setup(4, "bgk", "periodic", "no-force", False, seed=7)
    n = len(field)
    fwd = defect_terms(field, grid, src, None, sweep=1)
    bwd = defect_terms(field, grid, src, None, sweep=-1)
    whole = defect_terms(field, grid, src, None)
    # periodic hook: in a forward pass cell 0 sees two neighbours relaxed
    # after it, cell n-1 two relaxed before it; the backward pass mirrors it
    assert fwd.closed_l[0] and fwd.closed_r[0]
    assert not fwd.closed_l[n - 1] and not fwd.closed_r[n - 1]
    assert bwd.closed_l[n - 1] and bwd.closed_r[n - 1]
    assert not bwd.closed_l[0] and not bwd.closed_r[0]
    assert fwd.closed_r[:n - 1].all() and not fwd.closed_l[1:].any()
    assert bwd.closed_l[1:].all() and not bwd.closed_r[:n - 1].any()
    assert whole.closed_l.all() and whole.closed_r.all()
    # a closed face equals the whole-field one
    assert np.array_equal(fwd.flux_r[:n - 1], whole.flux_r[:n - 1])
    # with walls the wall faces are always closed
    walls = WALLS["diffuse"]
    fwd = defect_terms(field, grid, src, walls, sweep=1)
    assert fwd.closed_l[0] and fwd.closed_r[n - 1] and not fwd.closed_l[n - 1]


@pytest.mark.parametrize("M", [2, 4, 10])
def test_change_basis_batch_matches_scalar_rows(M):
    rng = np.random.default_rng(M)
    table = OrderTable(M)
    B = 7
    coeffs = rng.normal(size=(B, table.count))
    u_from, u_to = rng.normal(scale=0.3, size=(2, B, 3))
    theta_from, theta_to = 0.5 + rng.random((2, B))
    u_to[0], theta_to[0] = u_from[0], theta_from[0]  # an identity row
    got = change_basis_batch(coeffs, u_from, theta_from, u_to, theta_to, table)
    for b in range(B):
        expect = change_basis(coeffs[b], u_from[b], theta_from[b], u_to[b], theta_to[b], table)
        assert _rel(got[b], expect) <= TOL
    assert np.array_equal(got[0], coeffs[0])
    with pytest.raises(ValueError):
        change_basis_batch(coeffs, u_from, -theta_from, u_to, theta_to, table)


@pytest.mark.parametrize("M", [2, 4, 10])
@pytest.mark.parametrize("chi", [1.0, 0.5, 0.0])
def test_wall_flux_matches_chain_loop(M, chi):
    rng = np.random.default_rng(10 * M + int(4 * chi))
    wall = BoundarySpec(1.1, (0.7, -0.2), chi)
    for _ in range(5):
        s = _state(rng, M)
        for side in (Side.LEFT, Side.RIGHT):
            assert _rel(wall_flux(s, wall, side), reference_wall_flux(s, wall, side)) <= TOL
