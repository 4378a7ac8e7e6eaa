"""The batched defect kernel against the cell-by-cell references."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, CycleDiagnostics,
                      Field, Grid1D, OrderTable, ScenarioSource, SmootherConfig,
                      change_basis, sgs_sweep, smooth, total_mass)
from momentmg.basis import change_basis_batch
from momentmg.residual import PinnedRhs, defect_terms, field_residuals, reopen
from momentmg.states import maxwellian_state
from momentmg.transfer import coarse_rhs, restrict_state
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
        pinned = [_state(rng, M) for _ in field.cells]
        rhs = PinnedRhs(np.array([0.1 * p.coeffs for p in pinned]),
                        np.array([p.u for p in pinned]), np.array([p.theta for p in pinned]))
    return field, grid, src, WALLS[walls], rhs


CASES = list(itertools.product((2, 4, 10), COLLISIONS, WALLS, FORCES, (False, True)))


@pytest.mark.parametrize("M,collision,walls,force,with_rhs", CASES)
def test_field_residuals_match_cell_by_cell(M, collision, walls, force, with_rhs):
    field, grid, src, walls, rhs = _setup(M, collision, walls, force, with_rhs, seed=M)
    got, _terms = field_residuals(field, grid, src, walls, rhs)
    assert got.shape == (len(field), field.cells[0].table.count)
    for i in range(len(field)):
        expect = reference_cell_defect(field, i, grid, src, walls, rhs)
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


REUSE_CASES = list(itertools.product((2, 4, 10), WALLS, (False, True)))


def _same_fields(a, b):
    return all(np.array_equal(x.coeffs, y.coeffs) and np.array_equal(x.u, y.u)
               and x.theta == y.theta for x, y in zip(a.cells, b.cells))


@pytest.mark.parametrize("M,walls,with_rhs", REUSE_CASES)
def test_reopened_whole_field_terms_are_the_pass_terms(M, walls, with_rhs):
    field, grid, src, walls, rhs = _setup(M, "esbgk", walls, "force", with_rhs, seed=300 + M)
    whole = defect_terms(field, grid, src, walls, rhs)
    for sweep in (1, -1):
        got = reopen(whole, walls, sweep)
        expect = defect_terms(field, grid, src, walls, rhs, sweep=sweep)
        for name in ("dx", "lam", "source", "closed_l", "closed_r"):
            assert np.array_equal(getattr(got, name), getattr(expect, name))
        assert (got.rhs is None) == (expect.rhs is None)
        if got.rhs is not None:
            assert np.array_equal(got.rhs, expect.rhs)
        assert np.array_equal(got.flux_l[got.closed_l], expect.flux_l[expect.closed_l])
        assert np.array_equal(got.flux_r[got.closed_r], expect.flux_r[expect.closed_r])


@pytest.mark.parametrize("M,walls,coarse", REUSE_CASES)
def test_pass_from_handed_terms_equals_rebuilt_pass(M, walls, coarse):
    """Two sweeps started from the monitor's terms (no rhs) or from those of
    ``coarse_rhs`` (the restricted field with its FAS right-hand side) equal,
    bit for bit, two sweeps that build every pass's terms themselves."""
    if coarse:
        fine, grid, src, walls, _rhs = _setup(M + 2, "esbgk", walls, "force", False, seed=400 + M)
        field = Field(M, [restrict_state(c, M) for c in fine.cells])
        rhs, terms = coarse_rhs(field_residuals(fine, grid, src, walls)[0], field,
                                grid, src, walls)
    else:
        field, grid, src, walls, rhs = _setup(M, "esbgk", walls, "force", False, seed=400 + M)
        _defects, terms = field_residuals(field, grid, src, walls)
    cfg = SmootherConfig(cfl=0.9, rhs=rhs)
    mass = 1.05 * float(sum(c.rho * dx for c, dx in zip(field.cells, grid.dx)))
    got = smooth(field.copy(), 2, grid, src, walls, cfg, mass, terms)
    expect = smooth(field.copy(), 2, grid, src, walls, cfg, mass)
    assert _same_fields(got, expect)


def _perturbed_start(M, grid, rng, size=0.01):
    """Maxwellians about rho = 1, u = 0, theta = 1 with rho, u1, u2 and
    theta moved by up to ``size``, rescaled to the uniform start's mass
    (the benchmark's seeded start)."""
    xi = rng.uniform(-1.0, 1.0, size=(grid.n_cells, 4)) * size
    rho = 1.0 + xi[:, 0]
    rho *= grid.length / float(np.dot(rho, grid.dx))
    return Field(M, [maxwellian_state(M, r, (x[2], x[3], 0.0), 1.0 + x[1])
                     for r, x in zip(rho, xi)])


def _check_pass(field, grid, src, walls, rhs):
    """One sweep, which re-centres once per pass, against the reference that
    re-centres after every step: the fields agree, the sweep keeps the
    target mass and leaves every cell admissible.  Returns the back-off
    count."""
    cfg = SmootherConfig(cfl=0.9, rhs=rhs)
    mass = total_mass(field, grid)
    diag = CycleDiagnostics()
    got = sgs_sweep(field.copy(), grid, src, walls, cfg, mass, diag=diag)
    expect = reference_sgs_sweep(field.copy(), grid, src, walls, cfg, mass)
    assert abs(total_mass(got, grid) - mass) <= 1e-12 * mass
    for a, b in zip(got.cells, expect.cells):
        assert _rel(a.coeffs, b.coeffs) <= TOL
        assert _rel(a.u, b.u) <= TOL
        assert _rel(a.theta, b.theta) <= TOL
        assert a.rho > 0.0 and a.theta > 0.0
        assert np.all(a.coeffs[1:4] == 0.0)
        assert abs(a.coeffs[4] + a.coeffs[7] + a.coeffs[9]) <= 1e-14 * np.max(np.abs(a.coeffs))
    return diag.backoffs


@settings(max_examples=40, deadline=None)
@given(M=st.integers(2, 12), collision=st.sampled_from(sorted(COLLISIONS)),
       chi=st.sampled_from([1.0, 0.5]), force=st.sampled_from(sorted(FORCES)),
       with_rhs=st.booleans(), seed=st.integers(1, 2**32 - 1))
def test_deferred_pass_matches_per_step_recentring(M, collision, chi, force, with_rhs, seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D.uniform(1.0, 4)
    field = _perturbed_start(M, grid, rng)
    walls = (BoundarySpec(1.0, (0.0, 0.0), chi), BoundarySpec(1.0, (0.8, 0.0), chi))
    rhs = None
    if with_rhs:
        pinned = [_state(rng, M) for _ in field.cells]
        rhs = PinnedRhs(np.array([0.1 * p.coeffs for p in pinned]),
                        np.array([p.u for p in pinned]), np.array([p.theta for p in pinned]))
    _check_pass(field, grid, ScenarioSource(COLLISIONS[collision], FORCES[force]), walls, rhs)


def test_deferred_pass_with_backoff_mid_pass():
    """A dense middle cell under a strong force: the cell loses mass to its
    neighbours while the force adds momentum in proportion to its old mass,
    so at the nominal omega its temperature would turn negative.  Omega is
    halved there in the middle of the forward pass, and the cells relaxed
    after it see it as its raw relaxed coefficients."""
    M = 4
    grid = Grid1D.uniform(1.0, 5)
    field = _perturbed_start(M, grid, np.random.default_rng(5))
    dense = field.cells[2]
    field.cells[2] = maxwellian_state(M, 30.0 * dense.rho, dense.u, dense.theta)
    src = ScenarioSource(COLLISIONS["esbgk"], (10.0, 0.0, 0.0))
    assert _check_pass(field, grid, src, WALLS["diffuse"], None) > 0
