"""Order restriction, zero-padding prolongation, and the coarse right-hand side."""

import numpy as np
import pytest

from momentmg import (CollisionKind, CollisionSpec, Field, Grid1D,
                      ScenarioSource, local_residual_norm, moment_count)
from momentmg.residual import field_residuals
from momentmg.states import maxwellian_state
from momentmg.transfer import coarse_rhs, prolong_correction, restrict_state, zero_pad

from oracles import conservative_moments, random_admissible


def test_restrict_maxwellian_is_maxwellian():
    s = maxwellian_state(6, 1.7, (0.3, -0.1, 0.0), 0.9)
    r = restrict_state(s, 3)
    assert r.order == 3
    assert r.rho == s.rho
    assert np.array_equal(r.u, s.u)
    assert r.theta == s.theta
    assert np.max(np.abs(r.coeffs[1:])) == 0.0


def test_restrict_is_prefix_slice():
    rng = np.random.default_rng(60)
    s = random_admissible(rng, 6)
    r = restrict_state(s, 4)
    assert np.array_equal(r.coeffs, s.coeffs[:moment_count(4)])


def test_restrict_preserves_conservative_moments():
    rng = np.random.default_rng(61)
    for _ in range(10):
        s = random_admissible(rng, 5)
        r = restrict_state(s, 3)
        cf = conservative_moments(s.coeffs, s.u, s.theta, s.table)
        cc = conservative_moments(r.coeffs, r.u, r.theta, r.table)
        assert cc[0] == pytest.approx(cf[0], rel=1e-14)
        assert np.allclose(cc[1], cf[1], atol=1e-14)
        assert cc[2] == pytest.approx(cf[2], rel=1e-14)


def test_restrict_validation():
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        restrict_state(s, 1)
    with pytest.raises(ValueError):
        restrict_state(s, 4)


def test_restrict_then_pad_zeroes_high_degrees():
    rng = np.random.default_rng(62)
    s = random_admissible(rng, 5)
    w = zero_pad(restrict_state(s, 3).coeffs, 5)
    n3 = moment_count(3)
    assert np.array_equal(w[:n3], s.coeffs[:n3])
    assert np.max(np.abs(w[n3:])) == 0.0


def test_truncation_does_not_increase_norm():
    # measured as residual-style vectors in the same weighted norm
    rng = np.random.default_rng(63)
    for _ in range(10):
        s = random_admissible(rng, 6)
        r = restrict_state(s, 3)
        full = local_residual_norm(s.coeffs, s.theta, s.table)
        cut = local_residual_norm(r.coeffs, r.theta, r.table)
        assert cut <= full + 1e-15


def _couette_pieces(M, N):
    grid = Grid1D.uniform(1.0, N)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.3))
    rng = np.random.default_rng(64)
    field = Field(M, [random_admissible(rng, M, scale=0.02) for _ in range(N)])
    return field, grid, src


def test_coarse_rhs_restricts_fine_defects_as_component_slice():
    # r_m = R_m(coarse) + the first K_m components of each fine defect,
    # pinned at the coarse cells' own centres
    M, m, N = 5, 3, 4
    field, grid, src = _couette_pieces(M, N)
    fine_def = np.arange(N * moment_count(M), dtype=float).reshape(N, -1)
    coarse = Field(m, [restrict_state(c, m) for c in field.cells])
    rhs, terms = coarse_rhs(fine_def, coarse, grid, src, None)
    coarse_def, _terms = field_residuals(coarse, grid, src, None)  # = -R_m
    assert np.array_equal(rhs.coeffs, fine_def[:, :moment_count(m)] - coarse_def)
    assert np.array_equal(rhs.u, [c.u for c in coarse.cells])
    assert np.array_equal(rhs.theta, [c.theta for c in coarse.cells])
    assert np.array_equal(terms.rhs, rhs.coeffs)


def test_coarse_rhs_fas_consistency():
    # at the restricted field, the coarse defect with the two-level
    # right-hand side reproduces the truncated fine defect exactly
    M, m, N = 4, 2, 6
    field, grid, src = _couette_pieces(M, N)
    fine_def, _terms = field_residuals(field, grid, src, None)
    coarse = Field(m, [restrict_state(c, m) for c in field.cells])
    rhs, _terms = coarse_rhs(fine_def, coarse, grid, src, None)
    res, _terms = field_residuals(coarse, grid, src, None, rhs=rhs)
    assert np.allclose(res, fine_def[:, :moment_count(m)], atol=1e-12)


def test_coarse_rhs_reduces_to_truncated_defect_at_coarse_equilibrium():
    # when the restricted field already solves the coarse operator, the
    # right-hand side is exactly the truncated fine defect
    M, m, N = 4, 2, 8
    grid = Grid1D.uniform(1.0, N)
    src = ScenarioSource(CollisionSpec(kind=CollisionKind.BGK, kn=0.3))
    field = Field.equilibrium(M, N)
    rng = np.random.default_rng(65)
    for c in field.cells:  # degree >= 3 content only: invisible at m = 2
        c.coeffs[10:] += rng.normal(scale=0.01, size=c.table.count - 10)
    fine_def, _terms = field_residuals(field, grid, src, None)
    coarse = Field(m, [restrict_state(c, m) for c in field.cells])
    rhs, _terms = coarse_rhs(fine_def, coarse, grid, src, None)
    assert np.allclose(rhs.coeffs, fine_def[:, :moment_count(m)], atol=1e-13)


def test_prolong_zero_increment_is_identity():
    rng = np.random.default_rng(66)
    s = random_admissible(rng, 5)
    c = restrict_state(s, 3)
    out = prolong_correction(s, c, c)
    assert np.allclose(out.coeffs, s.coeffs, atol=1e-13)
    assert np.allclose(out.u, s.u, atol=1e-14)
    assert out.theta == pytest.approx(s.theta, rel=1e-14)


def test_prolong_adds_conservative_increment():
    rng = np.random.default_rng(67)
    s = random_admissible(rng, 5)
    old = restrict_state(s, 3)
    new = maxwellian_state(3, old.rho * 1.1, tuple(old.u + 0.05), old.theta * 1.05)
    out = prolong_correction(s, new, old)
    cf = conservative_moments(s.coeffs, s.u, s.theta, s.table)
    co = conservative_moments(old.coeffs, old.u, old.theta, old.table)
    cn = conservative_moments(new.coeffs, new.u, new.theta, new.table)
    cr = conservative_moments(out.coeffs, out.u, out.theta, out.table)
    assert cr[0] == pytest.approx(cf[0] + cn[0] - co[0], rel=1e-12)
    assert np.allclose(cr[1], cf[1] + cn[1] - co[1], atol=1e-12)
    assert cr[2] == pytest.approx(cf[2] + cn[2] - co[2], rel=1e-12)


def test_prolong_pure_mass_increment_rescales_density():
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    old = restrict_state(s, 2)
    new = maxwellian_state(2, 1.25, (0.0, 0.0, 0.0), 1.0)
    out = prolong_correction(s, new, old)
    assert out.rho == pytest.approx(1.25, rel=1e-14)
    assert np.allclose(out.u, 0.0, atol=1e-15)
    assert out.theta == pytest.approx(1.0, rel=1e-13)


def test_prolong_rejects_mass_annihilation():
    from momentmg.errors import PositivityError
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    old = maxwellian_state(2, 3.0, (0.0, 0.0, 0.0), 1.0)
    new = maxwellian_state(2, 1.0, (0.0, 0.0, 0.0), 1.0)
    # increment carries rho 1 - 3 = -2: corrected density 1 - 2 < 0
    with pytest.raises(PositivityError):
        prolong_correction(s, new, old)


def test_prolong_rejects_nan_coarse_density():
    from momentmg.errors import PositivityError
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    old = restrict_state(s, 2)
    new = maxwellian_state(2, float("nan"), (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(PositivityError):
        prolong_correction(s, new, old)
