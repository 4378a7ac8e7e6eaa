"""Moment states: derived quantities, macro recovery, reflections."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentmg import (MomentState, OrderTable, derived_moments, moment_count,
                      recover_macros, PositivityError)
from momentmg.states import macros_of, maxwellian_state, specular_reflect

from oracles import conservative_moments, quadrature_moments, random_admissible


def _state_with(M, entries, rho=1.0, u=None, theta=1.0):
    t = OrderTable(M)
    w = np.zeros(t.count)
    w[0] = rho
    for alpha, v in entries.items():
        w[t.rank(alpha)] = v
    return MomentState(M, np.zeros(3) if u is None else u, theta, w)


def test_sigma12_reads_off_coefficient():
    s = _state_with(3, {(1, 1, 0): 0.5})
    assert derived_moments(s).sigma[0, 1] == 0.5


def test_sigma11_has_diagonal_factor_two():
    s = _state_with(3, {(2, 0, 0): 0.3, (0, 2, 0): -0.3})
    assert derived_moments(s).sigma[0, 0] == pytest.approx(0.6)


def test_heat_flux_includes_own_direction_twice():
    # q_1 = 2 f_{3e1} + sum_d f_{2e_d + e1}; with only f_{(3,0,0)} = 1 this is 3
    s = _state_with(3, {(3, 0, 0): 1.0})
    assert derived_moments(s).q[0] == pytest.approx(3.0)


def test_derived_moments_match_quadrature():
    rng = np.random.default_rng(7)
    s = random_admissible(rng, 5)
    m = derived_moments(s)
    raw = quadrature_moments(s.coeffs, s.u, s.theta, 5)
    rho, u, th = m.rho, s.u, s.theta
    # centered second moments: sigma_ij + rho theta delta_ij = int c_i c_j f
    p11 = raw[(2, 0, 0)] - 2 * u[0] * raw[(1, 0, 0)] + u[0] ** 2 * rho
    p12 = raw[(1, 1, 0)] - u[0] * raw[(0, 1, 0)] - u[1] * raw[(1, 0, 0)] + u[0] * u[1] * rho
    assert m.sigma[0, 0] + rho * th == pytest.approx(p11, rel=1e-10, abs=1e-12)
    assert m.sigma[0, 1] == pytest.approx(p12, rel=1e-10, abs=1e-12)


def test_recover_macros_fixed_point():
    rng = np.random.default_rng(8)
    s = random_admissible(rng, 4)
    out = recover_macros(s.coeffs, s.u, s.theta, 4)
    assert np.allclose(out.u, s.u, atol=1e-14)
    assert out.theta == pytest.approx(s.theta, rel=1e-14)
    assert np.allclose(out.coeffs, s.coeffs, atol=1e-13)


def test_recover_macros_shifted_maxwellian():
    # rho H_0 about center u_m, handed in as raw coefficients about a
    # different center: recovery must land on the Maxwellian's own (u, theta)
    M, rho, theta = 4, 1.7, 1.2
    t = OrderTable(M)
    u_m = np.array([0.4, -0.1, 0.2])
    u0 = np.zeros(3)
    from momentmg import change_basis
    w = np.zeros(t.count)
    w[0] = rho
    raw = change_basis(w, u_m, theta, u0, theta, t)
    out = recover_macros(raw, u0, theta, M)
    assert np.allclose(out.u, u_m, atol=1e-12)
    assert out.theta == pytest.approx(theta, rel=1e-12)
    assert out.coeffs[0] == pytest.approx(rho, rel=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-12


def test_recover_macros_conserves_100_random_inputs():
    rng = np.random.default_rng(9)
    t = OrderTable(5)
    for _ in range(100):
        s = random_admissible(rng, 5)
        raw = s.coeffs + rng.normal(scale=0.02, size=t.count)  # not admissible
        if raw[0] <= 0:
            continue
        before = conservative_moments(raw, s.u, s.theta, t)
        try:
            out = recover_macros(raw, s.u, s.theta, 5)
        except PositivityError:
            continue
        after = conservative_moments(out.coeffs, out.u, out.theta, t)
        assert after[0] == pytest.approx(before[0], rel=1e-12)
        assert np.allclose(after[1], before[1], rtol=1e-12, atol=1e-12)
        assert after[2] == pytest.approx(before[2], rel=1e-12)


def test_recover_macros_raises_on_bad_mass():
    t = OrderTable(3)
    raw = np.zeros(t.count)
    raw[0] = -1.0
    with pytest.raises(PositivityError):
        recover_macros(raw, np.zeros(3), 1.0, 3)


def test_recover_macros_raises_on_nan_density_or_temperature():
    t = OrderTable(3)
    raw = np.zeros(t.count)
    raw[0] = np.nan
    with pytest.raises(PositivityError):
        recover_macros(raw, np.zeros(3), 1.0, 3)
    raw[0] = 1.0
    raw[t.r_unit2[0]] = np.nan
    with pytest.raises(PositivityError):
        recover_macros(raw, np.zeros(3), 1.0, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_recovered_states_are_admissible(seed):
    rng = np.random.default_rng(seed)
    t = OrderTable(4)
    s = random_admissible(rng, 4)
    raw = s.coeffs + rng.normal(scale=0.01, size=t.count)
    try:
        out = recover_macros(raw, s.u, s.theta, 4)
    except PositivityError:
        return
    assert np.allclose(out.coeffs[t.r_unit], 0.0, atol=1e-15)
    assert abs(out.coeffs[t.r_unit2].sum()) < 1e-14


def test_specular_reflect_flips_odd_normal_moments():
    rng = np.random.default_rng(10)
    s = random_admissible(rng, 4)
    r = specular_reflect(s)
    assert r.u[0] == -s.u[0]
    assert np.array_equal(r.u[1:], s.u[1:])
    t = s.table
    for rk, a in enumerate(t.alphas):
        sign = -1.0 if a[0] % 2 else 1.0
        assert r.coeffs[rk] == sign * s.coeffs[rk]
    assert specular_reflect(r).coeffs == pytest.approx(list(s.coeffs))


def test_macros_of_rejects_nonpositive_temperature():
    t = OrderTable(2)
    w = np.zeros(t.count)
    w[0] = 1.0
    w[t.r_unit2] = -0.4  # drives energy below kinetic part
    with pytest.raises(PositivityError):
        macros_of(w, np.zeros(3), 0.1, t)


def test_maxwellian_state_shape():
    s = maxwellian_state(3, 2.0, (0.1, 0.0, 0.0), 1.5)
    assert s.rho == 2.0
    assert len(s.coeffs) == moment_count(3)
    assert np.count_nonzero(s.coeffs) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_macros_of_matches_array_formula(M, seed):
    rng = np.random.default_rng(seed)
    t = OrderTable(M)
    raw = rng.normal(scale=0.2, size=t.count)
    raw[0] = 0.5 + rng.random()
    u, theta = rng.normal(scale=0.5, size=3), 0.5 + rng.random()
    rho, momentum, energy = conservative_moments(raw, u, theta, t)
    u_bar = momentum / rho
    theta_bar = (energy - rho * (u_bar @ u_bar)) / (3.0 * rho)
    if not theta_bar > 0.0:
        with pytest.raises(PositivityError):
            macros_of(raw, u, theta, t)
        return
    got_rho, got_u, got_theta = macros_of(raw, u, theta, t)
    assert got_rho == rho
    np.testing.assert_allclose(got_u, u_bar, rtol=1e-14, atol=1e-14)
    assert got_theta == pytest.approx(theta_bar, rel=1e-13)


@pytest.mark.parametrize("entry", ["rho", "unit", "diagonal"])
def test_macros_of_rejects_nan_density_or_temperature(entry):
    t = OrderTable(4)
    w = np.zeros(t.count)
    w[0] = 1.0
    if entry == "rho":
        w[0] = np.nan
    else:
        w[t.r_unit[1] if entry == "unit" else t.r_unit2[2]] = np.nan
    with pytest.raises(PositivityError):
        macros_of(w, np.zeros(3), 1.0, t)
