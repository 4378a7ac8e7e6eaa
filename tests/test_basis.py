"""Expansion-center changes, wave speeds, conservative moments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentmg import (OrderTable, change_basis, max_wave_speed,
                      MomentState, moment_count)
from momentmg.basis import change_basis_batch, hermite_top_root

from oracles import (conservative_moments, quadrature_moments, random_admissible,
                     reference_change_basis)


def test_identity_center_is_identity():
    rng = np.random.default_rng(0)
    t = OrderTable(4)
    w = rng.normal(size=t.count)
    out = change_basis(w, np.zeros(3), 1.0, np.zeros(3), 1.0, t)
    assert np.array_equal(out, w)
    assert out is not w  # defensive copy


def test_roundtrip_is_identity():
    rng = np.random.default_rng(1)
    t = OrderTable(6)
    for _ in range(20):
        w = rng.normal(size=t.count)
        u1, th1 = rng.normal(size=3), 0.5 + rng.random()
        u2, th2 = rng.normal(size=3), 0.5 + rng.random()
        w2 = change_basis(w, u1, th1, u2, th2, t)
        w3 = change_basis(w2, u2, th2, u1, th1, t)
        assert np.allclose(w3, w, rtol=1e-12, atol=1e-12)


def test_moment_preservation_against_quadrature():
    rng = np.random.default_rng(2)
    M = 5
    t = OrderTable(M)
    w = rng.normal(size=t.count)
    u1, th1 = np.array([0.2, -0.3, 0.4]), 1.3
    u2, th2 = np.array([-0.5, 0.1, 0.0]), 0.8
    w2 = change_basis(w, u1, th1, u2, th2, t)
    m_before = quadrature_moments(w, u1, th1, M)
    m_after = quadrature_moments(w2, u2, th2, M)
    for beta, val in m_before.items():
        assert m_after[beta] == pytest.approx(val, rel=1e-11, abs=1e-12)


def test_maxwellian_recentered_has_gaussian_moments():
    # rho H_0 about (u, theta), re-centered to (u', theta): the raw moments
    # must be those of the original Gaussian, e.g. mean rho*u, not rho*u'.
    M, rho, theta = 4, 2.0, 1.5
    t = OrderTable(M)
    u = np.array([0.7, -0.2, 0.1])
    u_new = np.array([0.0, 0.3, 0.1])
    w = np.zeros(t.count)
    w[0] = rho
    w2 = change_basis(w, u, theta, u_new, theta, t)
    mom = quadrature_moments(w2, u_new, theta, M)
    assert mom[(0, 0, 0)] == pytest.approx(rho, rel=1e-12)
    for d, beta in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        assert mom[beta] == pytest.approx(rho * u[d], rel=1e-12, abs=1e-12)
    assert mom[(2, 0, 0)] == pytest.approx(rho * (theta + u[0] ** 2), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_roundtrip_property(M, seed):
    rng = np.random.default_rng(seed)
    t = OrderTable(M)
    w = rng.normal(size=t.count)
    u1, th1 = rng.normal(scale=0.5, size=3), 0.5 + rng.random()
    u2, th2 = rng.normal(scale=0.5, size=3), 0.5 + rng.random()
    back = change_basis(change_basis(w, u1, th1, u2, th2, t),
                        u2, th2, u1, th1, t)
    np.testing.assert_allclose(back, w, rtol=1e-10, atol=1e-10)


def test_wave_speed_reference_values():
    s = MomentState(2, np.zeros(3), 1.0, np.array([1.0] + [0.0] * (moment_count(2) - 1)))
    assert max_wave_speed(s) == pytest.approx(np.sqrt(3.0), abs=1e-12)
    s3 = MomentState(3, np.zeros(3), 1.0, np.array([1.0] + [0.0] * (moment_count(3) - 1)))
    assert max_wave_speed(s3) == pytest.approx(np.sqrt(3.0 + np.sqrt(6.0)), abs=1e-7)
    s_scaled = MomentState(2, np.array([1.0, 0.0, 0.0]), 4.0,
                           np.array([1.0] + [0.0] * (moment_count(2) - 1)))
    assert max_wave_speed(s_scaled) == pytest.approx(1.0 + 2.0 * np.sqrt(3.0), abs=1e-12)


def test_hermite_top_root_small_degrees():
    assert hermite_top_root(2) == pytest.approx(1.0, abs=1e-12)
    assert hermite_top_root(3) == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert hermite_top_root(4) == pytest.approx(np.sqrt(3.0 + np.sqrt(6.0)), abs=1e-10)


def test_conservative_moments_against_quadrature():
    rng = np.random.default_rng(5)
    s = random_admissible(rng, 4)
    rho, momentum, energy = conservative_moments(s.coeffs, s.u, s.theta, s.table)
    mom = quadrature_moments(s.coeffs, s.u, s.theta, 4)
    assert rho == pytest.approx(mom[(0, 0, 0)], rel=1e-12)
    assert momentum[0] == pytest.approx(mom[(1, 0, 0)], rel=1e-12, abs=1e-12)
    assert momentum[1] == pytest.approx(mom[(0, 1, 0)], rel=1e-12, abs=1e-12)
    e = mom[(2, 0, 0)] + mom[(0, 2, 0)] + mom[(0, 0, 2)]
    assert energy == pytest.approx(e, rel=1e-12)


def test_change_basis_rejects_bad_temperature():
    t = OrderTable(3)
    w = np.zeros(t.count)
    with pytest.raises(ValueError):
        change_basis(w, np.zeros(3), 1.0, np.zeros(3), -1.0, t)


@pytest.mark.parametrize("M", range(2, 27))
def test_change_basis_matches_convolution_reference(M):
    rng = np.random.default_rng(1000 + M)
    t = OrderTable(M)
    for _ in range(3):
        w = rng.normal(size=t.count)
        u1, th1 = rng.normal(scale=0.5, size=3), 0.5 + rng.random()
        u2, th2 = rng.normal(scale=0.5, size=3), 0.5 + rng.random()
        ref = reference_change_basis(w, u1, th1, u2, th2, M)
        got = change_basis(w, u1, th1, u2, th2, t)
        assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([float("nan"), -float("inf"), 0.0, -1.0]), st.booleans())
def test_change_basis_rejects_non_positive_or_nan_temperature(bad, at_target):
    t = OrderTable(3)
    w = np.zeros(t.count)
    thetas = (1.0, bad) if at_target else (bad, 1.0)
    with pytest.raises(ValueError):
        change_basis(w, np.zeros(3), thetas[0], np.zeros(3), thetas[1], t)
    with pytest.raises(ValueError):
        change_basis_batch(w[None], np.zeros((1, 3)), [thetas[0]],
                           np.zeros((1, 3)), [thetas[1]], t)
