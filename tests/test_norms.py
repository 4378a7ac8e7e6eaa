"""Weighted residual norms."""

import numpy as np
import pytest

from momentmg import OrderTable, global_residual_norm, local_residual_norm


def test_zero_residual_norm():
    t = OrderTable(4)
    assert local_residual_norm(np.zeros(t.count), 1.0, t) == 0.0


def test_single_mass_entry_reference_value():
    t = OrderTable(4)
    res = np.zeros(t.count)
    res[0] = 1.0
    val = local_residual_norm(res, 1.0, t)
    assert val == pytest.approx(np.sqrt((2.0 * np.pi) ** -1.5), rel=1e-12)
    assert val == pytest.approx(0.2520, abs=5e-5)


def test_cap_hides_high_degrees():
    t = OrderTable(5)
    res = np.zeros(t.count)
    res[t.rank((4, 0, 0))] = 1.0
    assert local_residual_norm(res, 1.0, t, p_cap=3) == 0.0
    assert local_residual_norm(res, 1.0, t, p_cap=5) > 0.0


def test_weights_carry_factorial_and_theta():
    t = OrderTable(3)
    res = np.zeros(t.count)
    res[t.rank((2, 0, 0))] = 1.0
    theta = 1.7
    val = local_residual_norm(res, theta, t)
    expect = np.sqrt((2.0 * np.pi) ** -1.5 * theta ** (-2.0 - 1.5) * 2.0)
    assert val == pytest.approx(expect, rel=1e-12)


def test_global_norm_trivial_cases():
    assert global_residual_norm([0.0, 0.0], [0.5, 0.5]) == 0.0
    assert global_residual_norm([3.0, 3.0, 3.0, 3.0], [0.25] * 4) == pytest.approx(3.0)


def test_global_norm_weighted_example():
    # N = 2, dx = {0.25, 0.75}, norms {2, 0} -> sqrt(0.25 * 4) = 1
    assert global_residual_norm([2.0, 0.0], [0.25, 0.75]) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("M, p_cap", [(2, 3), (4, 3), (10, 3), (5, 5)])
def test_stacked_norm_equals_row_by_row_calls(M, p_cap):
    # the monitor takes the local norms of all cells in one call
    rng = np.random.default_rng(M)
    t = OrderTable(M)
    res = rng.normal(scale=1e-3, size=(9, t.count))
    thetas = rng.uniform(0.5, 2.0, size=9)
    for theta, row_thetas in ((1.3, [1.3] * 9), (thetas, thetas)):
        stacked = local_residual_norm(res, theta, t, p_cap)
        assert stacked.shape == (9,)
        rows = [local_residual_norm(r, th, t, p_cap) for r, th in zip(res, row_thetas)]
        np.testing.assert_allclose(stacked, rows, rtol=1e-15, atol=0)
