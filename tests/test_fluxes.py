"""Advection flux and the interface numerical flux."""

import numpy as np
import pytest

from momentmg import MomentState, OrderTable, max_wave_speed, moment_count
from momentmg.fluxes import flux_from_coeffs, numerical_flux
from momentmg.states import maxwellian_state

from oracles import quadrature_moments, random_admissible


def advection_flux_coeffs(s):
    """Phi of a state in its own basis."""
    return flux_from_coeffs(s.coeffs, float(s.u[0]), s.theta, s.table)


def test_maxwellian_at_rest_flux():
    s = maxwellian_state(3, 2.0, (0.0, 0.0, 0.0), 1.4)
    phi = advection_flux_coeffs(s)
    t = s.table
    assert phi[0] == 0.0
    assert phi[t.rank((1, 0, 0))] == pytest.approx(1.4 * 2.0)
    mask = np.ones(t.count, dtype=bool)
    mask[[0, t.rank((1, 0, 0))]] = False
    assert np.max(np.abs(phi[mask])) == 0.0


def test_moving_maxwellian_mass_flux():
    U = 0.7
    s = maxwellian_state(3, 2.5, (U, 0.0, 0.0), 1.0)
    assert advection_flux_coeffs(s)[0] == pytest.approx(U * 2.5)


def test_top_degree_has_no_raising_term():
    # closure: Phi_alpha at |alpha| = M carries no f_{alpha + e1} term, so a
    # pure top-degree coefficient transports only via u1 and the theta term
    M = 4
    t = OrderTable(M)
    w = np.zeros(t.count)
    r_top = t.rank((M, 0, 0))
    w[r_top] = 1.0
    phi = flux_from_coeffs(w, 0.0, 1.0, t)
    assert phi[r_top] == 0.0  # u1 = 0 and no raising contribution survives
    # one degree below, the raising term (alpha_1 + 1) f_{alpha + e1} is live
    assert phi[t.rank((M - 1, 0, 0))] == pytest.approx(float(M))
    phi_moving = flux_from_coeffs(w, 0.6, 1.0, t)
    assert phi_moving[r_top] == pytest.approx(0.6)


def test_flux_matches_quadrature_moment_transport():
    # the projected flux must reproduce int xi_1 xi^beta f for |beta| < M
    rng = np.random.default_rng(20)
    s = random_admissible(rng, 4)
    phi = advection_flux_coeffs(s)
    mom_phi = quadrature_moments(phi, s.u, s.theta, 4)
    mom_f = quadrature_moments(s.coeffs, s.u, s.theta, 4, max_deg=4)
    # beta = (1,0,0) of f equals beta = (0,0,0) of Phi etc.
    for beta in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1)]:
        lifted = (beta[0] + 1, beta[1], beta[2])
        assert mom_phi[beta] == pytest.approx(mom_f[lifted], rel=1e-10, abs=1e-12)


def test_numerical_flux_consistency():
    rng = np.random.default_rng(21)
    s = random_admissible(rng, 4)
    f = numerical_flux(s, s, s.u, s.theta, s.table)
    assert np.allclose(f, advection_flux_coeffs(s), rtol=1e-12, atol=1e-13)


def test_two_maxwellians_at_rest_have_zero_mass_flux():
    a = maxwellian_state(3, 1.0, (0.0, 0.0, 0.0), 1.0)
    b = maxwellian_state(3, 1.0, (0.0, 0.0, 0.0), 1.0)
    f = numerical_flux(a, b, np.zeros(3), 1.0)
    assert f[0] == pytest.approx(0.0, abs=1e-15)


def test_dissipation_term_scales_with_jump():
    s = maxwellian_state(3, 1.0, (0.0, 0.0, 0.0), 1.0)
    d = 0.01
    w = s.coeffs.copy()
    w[0] -= d
    pert = MomentState(3, np.zeros(3), 1.0, w)
    f0 = numerical_flux(s, s, s.u, s.theta)[0]
    f1 = numerical_flux(s, pert, s.u, s.theta)[0]
    lam = max_wave_speed(s)
    # right-state mass lowered by d: central part loses nothing at u1 = 0,
    # dissipation adds +lambda d / 2
    assert f1 - f0 == pytest.approx(lam * d / 2.0, rel=1e-12)


def test_numerical_flux_is_antisymmetric_under_swap_of_equal_speeds():
    rng = np.random.default_rng(22)
    a = random_admissible(rng, 3)
    b = MomentState(3, a.u.copy(), a.theta, a.coeffs + 0.001)
    f_ab = numerical_flux(a, b, a.u, a.theta)
    f_ba = numerical_flux(b, a, a.u, a.theta)
    phi_sum = flux_from_coeffs(a.coeffs + b.coeffs, float(a.u[0]), a.theta, a.table)
    assert np.allclose(f_ab + f_ba, phi_sum, rtol=1e-12, atol=1e-13)
