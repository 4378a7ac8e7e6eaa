"""Diffuse/specular wall flux and its closed-form half-space matrices."""

import math

import numpy as np
import pytest

from momentmg import BoundarySpec, MomentState, OrderTable
from momentmg.basis import conservative_moments
from momentmg.fluxes import flux_from_coeffs
from momentmg.states import maxwellian_state
from momentmg.walls import Side, _apply_half_flux, _half_flux_matrices, wall_flux
from momentmg.errors import BoundaryError

from oracles import analytic_half_space_mass_flux, mp_half_flux_matrix, random_admissible

# (u1, theta) of the expansion centre: cuts c = -u1 / sqrt(theta) on both
# sides of zero, one of them deep in the tail
CENTRES = [(0.0, 1.0), (0.37, 0.8), (-1.3, 1.6), (2.5, 0.4)]


def _rel(a, b):
    """Largest deviation relative to the reference's largest entry."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("M", [2, 4, 10, 16, 26])
def test_half_flux_matrices_match_50_digit_reference(M):
    bound = 1e-13 if M <= 10 else 1e-10
    for u1, theta in CENTRES:
        A_pos, A_neg = _half_flux_matrices(u1, theta, M)
        assert _rel(A_pos, mp_half_flux_matrix(u1, theta, M, True)) <= bound
        assert _rel(A_neg, mp_half_flux_matrix(u1, theta, M, False)) <= bound


def test_half_space_flux_matches_analytic_recursion():
    # row 0 of each matrix on the tangential-index-zero chain is the
    # half-space mass flux
    rng = np.random.default_rng(30)
    for _ in range(20):
        s = random_admissible(rng, 5)
        A_pos, A_neg = _half_flux_matrices(float(s.u[0]), s.theta, 5)
        for A, name in [(A_neg, "left"), (A_pos, "right")]:
            got = _apply_half_flux(A, s.coeffs, 5)[0]
            expect = analytic_half_space_mass_flux(s.coeffs, s.u, s.theta, 5, name)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_half_space_matrices_sum_to_interior_flux():
    rng = np.random.default_rng(31)
    for M in (2, 4, 10):
        for _ in range(5):
            s = random_admissible(rng, M)
            A_pos, A_neg = _half_flux_matrices(float(s.u[0]), s.theta, M)
            total = _apply_half_flux(A_pos, s.coeffs, M) + _apply_half_flux(A_neg, s.coeffs, M)
            full = flux_from_coeffs(s.coeffs, float(s.u[0]), s.theta, s.table)
            assert _rel(total, full) <= 1e-13


def test_equilibrium_wall_flux_is_interior_flux():
    # inner already the wall Maxwellian, at rest in the normal direction:
    # the wall re-emits exactly what arrives, so the face carries the
    # interior state's own flux on both sides
    rho, theta_w, u_w = 1.3, 1.1, 0.4
    inner = maxwellian_state(4, rho, (0.0, u_w, 0.0), theta_w)
    wall = BoundarySpec(theta_w, (u_w, 0.0), 1.0)
    full = flux_from_coeffs(inner.coeffs, 0.0, theta_w, inner.table)
    for side in (Side.LEFT, Side.RIGHT):
        assert np.allclose(wall_flux(inner, wall, side), full, rtol=0.0, atol=1e-15)


def test_chi_zero_is_specular_reflection():
    # u1 = 0: the reflected half-space mirrors the arriving one, so mass,
    # tangential momentum and energy cross the face in equal and opposite
    # amounts while the normal momentum (pressure) does not cancel
    rng = np.random.default_rng(32)
    wall = BoundarySpec(1.0, (0.0, 0.0), 0.0)
    for _ in range(5):
        s = random_admissible(rng, 4)
        s.u[0] = 0.0
        for side in (Side.LEFT, Side.RIGHT):
            f = wall_flux(s, wall, side)
            mass, momentum, energy = conservative_moments(f, s.u, s.theta, s.table)
            assert abs(mass) < 1e-15
            assert np.allclose(momentum[1:], 0.0, atol=1e-15)
            assert abs(energy) < 1e-14
            assert momentum[0] > 0.5


def test_diffuse_wall_tangential_slip_relaxes_to_wall():
    # inner Maxwellian sliding tangentially past a fully diffuse wall: the
    # re-emitted density equals the inner one and the face carries the
    # free-molecular shear rho sqrt(theta / 2 pi) (u_wall - u2)
    inner = maxwellian_state(4, 1.0, (0.0, 0.8, 0.0), 1.0)
    u_wall = 0.3
    wall = BoundarySpec(1.0, (u_wall, 0.0), 1.0)
    f = wall_flux(inner, wall, Side.LEFT)
    mass, momentum, _ = conservative_moments(f, inner.u, inner.theta, inner.table)
    assert abs(mass) < 1e-15
    assert momentum[1] == pytest.approx((u_wall - 0.8) / math.sqrt(2.0 * math.pi), rel=1e-13)


def test_wall_flux_mass_component_vanishes_exactly():
    rng = np.random.default_rng(34)
    for chi in (1.0, 0.5):
        wall = BoundarySpec(0.9, (0.7, 0.0), chi)
        for _ in range(10):
            s = random_admissible(rng, 5)
            for side in (Side.LEFT, Side.RIGHT):
                assert abs(wall_flux(s, wall, side)[0]) < 1e-15


def test_wall_flux_halves_reassemble_interior_flux():
    # chi = 0 specular wall flux of a symmetric state reduces to the full
    # advection flux of the composite; check the mass component is ~0 when
    # the inner state is mirror-symmetric
    s = maxwellian_state(4, 1.0, (0.0, 0.0, 0.0), 1.0)
    wall = BoundarySpec(1.0, (0.0, 0.0), 0.0)
    f = wall_flux(s, wall, Side.LEFT)
    assert f[0] == pytest.approx(0.0, abs=1e-14)


def test_wall_flux_momentum_drag_sign():
    # wall at rest, gas sliding in +x2: the wall must exert drag, i.e. the
    # tangential momentum flux through the left wall face is positive
    # (momentum flowing from the gas into the wall at x = 0 shows up as a
    # positive xi_1 x2-momentum flux there... sign checked via the shear)
    t = OrderTable(4)
    w = np.zeros(t.count)
    w[0] = 1.0
    inner = MomentState(4, np.array([0.0, 0.6, 0.0]), 1.0, w)
    wall = BoundarySpec(1.0, (0.0, 0.0), 1.0)
    f = wall_flux(inner, wall, Side.LEFT)
    r12 = t.rank((1, 1, 0))  # carries the xi_1 xi_2 transport
    assert f[r12] != 0.0


def test_unphysical_inner_state_raises():
    # inner with strong outflow at the left wall: no incoming mass to balance
    inner = maxwellian_state(4, 1.0, (25.0, 0.0, 0.0), 0.01)
    wall = BoundarySpec(1.0, (0.0, 0.0), 1.0)
    with pytest.raises(BoundaryError):
        wall_flux(inner, wall, Side.LEFT)
