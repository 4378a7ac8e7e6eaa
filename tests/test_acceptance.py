"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The expensive Couette solves are shared across criteria through a
module-level cache, so the whole file stays inside the stated runtime
budgets.
"""

import functools
import math

import numpy as np
import pytest

from momentmg import (CollisionKind, CollisionSpec, MomentState,
                      ReductionStrategy, couette_config, derived_moments,
                      equilibrium_coeffs, max_wave_speed, moment_count,
                      nmlm_cycle, poiseuille_config, solve, total_mass)
from momentmg.basis import change_basis
from momentmg.cycle import residual_norm_of
from momentmg.indices import OrderTable
from momentmg.transfer import prolong_correction, restrict_state, zero_pad

from oracles import conservative_moments, quadrature_moments, random_admissible


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def _couette_run(N: int, levels: int, strategy: ReductionStrategy):
    cfg = couette_config(N=N, levels=levels, strategy=strategy)
    field, grid, src, walls = cfg.build()
    result = solve(field, grid, src, walls, cfg.plan(),
                   tol=cfg.tol, max_iters=cfg.max_iters)
    assert result.converged, f"Couette N={N} L={levels} {strategy} did not converge"
    return result


def _profiles(field):
    rho = np.array([c.rho for c in field.cells])
    theta = np.array([c.theta for c in field.cells])
    sig12 = np.array([derived_moments(c).sigma[0, 1] for c in field.cells])
    q1 = np.array([derived_moments(c).q[0] for c in field.cells])
    return rho, theta, sig12, q1


def _central_moments(coeffs, theta, M):
    # raw powers of (xi - u): evaluate the quadrature oracle at center zero
    return quadrature_moments(coeffs, (0.0, 0.0, 0.0), theta, M, max_deg=3)


def _oracle_sigma_q(coeffs, theta, M):
    m = _central_moments(coeffs, theta, M)
    rho = m[(0, 0, 0)]
    e = np.eye(3, dtype=int)
    p = np.array([[m[tuple(e[i] + e[j])] for j in range(3)] for i in range(3)])
    th = np.trace(p) / (3.0 * rho)
    sigma = p - rho * th * np.eye(3)
    q = 0.5 * np.array([sum(m[tuple(2 * e[j] + e[i])] for j in range(3))
                        for i in range(3)])
    return sigma, q


@pytest.mark.slow
def test_criterion_1_solver_consistency():
    runs = [_couette_run(128, 1, ReductionStrategy.MINUS_TWO),
            _couette_run(128, 2, ReductionStrategy.MINUS_TWO),
            _couette_run(128, 3, ReductionStrategy.MINUS_ONE)]
    profs = [_profiles(r.field) for r in runs]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            for pa, pb in zip(profs[a], profs[b]):
                worst = max(worst, float(np.max(np.abs(pa - pb))))
    _report(1, worst <= 1e-6,
            f"max pairwise profile deviation {worst:.3e} <= 1e-6")


@pytest.mark.slow
def test_criterion_2_speedup_ratios():
    k_s = len(_couette_run(128, 1, ReductionStrategy.MINUS_TWO).history)
    k2 = len(_couette_run(128, 2, ReductionStrategy.MINUS_TWO).history)
    ratio = k_s / k2
    # the 3- and 2-level ratios share the 1-level baseline, so the ratio
    # ordering is the reversed ordering of the iteration counts
    k3_m1 = len(_couette_run(128, 3, ReductionStrategy.MINUS_ONE).history)
    k2_m1 = len(_couette_run(128, 2, ReductionStrategy.MINUS_ONE).history)
    ok = ratio >= 5.0 and k3_m1 < k2_m1
    _report(2, ok, f"2-level speedup {ratio:.1f} >= 5; "
                   f"3-level K {k3_m1} < 2-level K {k2_m1} (shared baseline)")


@pytest.mark.slow
def test_criterion_3_strategy_ordering():
    # equal level counts and a shared 1-level baseline: the iteration-ratio
    # ordering Halve >= MinusTwo >= MinusOne is the reversed ordering of the
    # 2-level iteration counts themselves
    ks = {}
    for strat in (ReductionStrategy.HALVE, ReductionStrategy.MINUS_TWO,
                  ReductionStrategy.MINUS_ONE):
        cfg = couette_config(N=64, M=10, levels=2, strategy=strat)
        field, grid, src, walls = cfg.build()
        r = solve(field, grid, src, walls, cfg.plan(),
                  tol=cfg.tol, max_iters=cfg.max_iters)
        assert r.converged
        ks[strat] = len(r.history)
    ok = (ks[ReductionStrategy.HALVE] <= ks[ReductionStrategy.MINUS_TWO]
          <= ks[ReductionStrategy.MINUS_ONE])
    _report(3, ok, "2-level K at M=10, N=64: "
            f"halve {ks[ReductionStrategy.HALVE]} <= "
            f"minus-two {ks[ReductionStrategy.MINUS_TWO]} <= "
            f"minus-one {ks[ReductionStrategy.MINUS_ONE]}")


@pytest.mark.slow
def test_criterion_4_grid_scaling():
    k64 = len(_couette_run(64, 1, ReductionStrategy.MINUS_TWO).history)
    k128 = len(_couette_run(128, 1, ReductionStrategy.MINUS_TWO).history)
    ratio = k128 / k64
    _report(4, 1.6 <= ratio <= 2.4,
            f"1-level K(128)/K(64) = {k128}/{k64} = {ratio:.2f} in [1.6, 2.4]")


def test_criterion_5_equilibrium_invariants():
    rng = np.random.default_rng(2026)
    pr = 2.0 / 3.0
    shakhov = CollisionSpec(kind=CollisionKind.SHAKHOV, prandtl=pr)
    esbgk = CollisionSpec(kind=CollisionKind.ESBGK, prandtl=pr)
    worst_rel = 0.0
    worst_cons = 0.0
    orders = [4, 5, 7]
    for i in range(1000):
        M = orders[i % 3]
        s = random_admissible(rng, M)
        sigma, q = _oracle_sigma_q(s.coeffs, s.theta, M)
        t = s.table

        eq_s = equilibrium_coeffs(s, shakhov)
        _sig_s, q_s = _oracle_sigma_q(eq_s, s.theta, M)
        worst_rel = max(worst_rel, float(np.max(np.abs(q_s - (1.0 - pr) * q))
                                         / max(np.max(np.abs(q)), 1e-3)))

        eq_e = equilibrium_coeffs(s, esbgk)
        sig_e, _q_e = _oracle_sigma_q(eq_e, s.theta, M)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(sig_e - (1.0 - 1.0 / pr) * sigma))
                              / max(np.max(np.abs(sigma)), 1e-3)))

        for eq in (eq_s, eq_e):
            worst_cons = max(worst_cons, abs(eq[0] - s.rho),
                             float(np.max(np.abs(eq[t.r_unit]))),
                             abs(float(eq[t.r_unit2].sum())))
    ok = worst_rel <= 1e-10 and worst_cons <= 1e-12
    _report(5, ok, f"1000 states, M in {{4,5,7}}: relaxation error "
                   f"{worst_rel:.2e} <= 1e-10, conservation {worst_cons:.2e} <= 1e-12")


def test_criterion_6_transfer_operators():
    rng = np.random.default_rng(2027)
    details = []

    pad_ok = True
    for _ in range(20):
        s = random_admissible(rng, 3)
        back = zero_pad(s.coeffs, 6)[:moment_count(3)]
        pad_ok &= bool(np.array_equal(back, s.coeffs))
    details.append(f"truncate-pad exact: {pad_ok}")

    basis_worst = 0.0
    for _ in range(20):
        s = random_admissible(rng, 4)
        u2 = s.u + rng.normal(scale=0.2, size=3)
        th2 = s.theta * (1.0 + 0.3 * rng.random())
        w2 = change_basis(s.coeffs, s.u, s.theta, u2, th2, s.table)
        m1 = quadrature_moments(s.coeffs, s.u, s.theta, 4)
        m2 = quadrature_moments(w2, u2, th2, 4)
        for beta, v in m1.items():
            basis_worst = max(basis_worst,
                              abs(m2[beta] - v) / max(abs(v), 1e-3))
    details.append(f"basis-change moments {basis_worst:.2e}")

    prolong_worst = 0.0
    for _ in range(20):
        s = random_admissible(rng, 5)
        old = restrict_state(s, 3)
        new = MomentState(3, old.u + 0.05, old.theta * 1.05,
                          old.coeffs * (1.0 + 0.1 * rng.random()))
        out = prolong_correction(s, new, old)
        cf = conservative_moments(s.coeffs, s.u, s.theta, s.table)
        co = conservative_moments(old.coeffs, old.u, old.theta, old.table)
        cn = conservative_moments(new.coeffs, new.u, new.theta, new.table)
        cr = conservative_moments(out.coeffs, out.u, out.theta, out.table)
        for want, got in [(cf[0] + cn[0] - co[0], cr[0]),
                          (cf[2] + cn[2] - co[2], cr[2])]:
            prolong_worst = max(prolong_worst, abs(got - want))
        prolong_worst = max(prolong_worst,
                            float(np.max(np.abs(cr[1] - (cf[1] + cn[1] - co[1])))))
    details.append(f"prolongation bookkeeping {prolong_worst:.2e}")

    cfg = couette_config(N=16, levels=2, tol=1e-13)
    field, grid, src, walls = cfg.build()
    r = solve(field, grid, src, walls, cfg.plan(), tol=cfg.tol, max_iters=5000)
    assert r.converged
    steady = r.field
    before = [(c.coeffs.copy(), c.u.copy(), c.theta) for c in steady.cells]
    after = nmlm_cycle(1, steady.copy(), None, cfg.plan(), grid, src, walls,
                       target_mass=total_mass(steady, grid))
    fas_worst = max(max(float(np.max(np.abs(c.coeffs - b[0]))),
                        float(np.max(np.abs(c.u - b[1]))),
                        abs(c.theta - b[2]))
                    for c, b in zip(after.cells, before))
    details.append(f"steady-field cycle invariance {fas_worst:.2e}")

    ok = (pad_ok and basis_worst <= 1e-12 and prolong_worst <= 1e-12
          and fas_worst <= 1e-12)
    _report(6, ok, "; ".join(details))


def test_criterion_7_counts_and_spectrum():
    c10, c26 = moment_count(10), moment_count(26)
    t = OrderTable(2)
    rest = MomentState(2, np.zeros(3), 1.0,
                       np.concatenate(([1.0], np.zeros(t.count - 1))))
    lam = max_wave_speed(rest)
    ok = (c10 == 286 and c26 == 3654 and abs(lam - math.sqrt(3.0)) <= 1e-12)
    _report(7, ok, f"moment_count(10)={c10}, moment_count(26)={c26}, "
                   f"max_wave_speed(M=2)={lam:.12f}")


@pytest.mark.slow
def test_criterion_8_poiseuille():
    cfg = poiseuille_config(N=128, levels=2)
    field, grid, src, walls = cfg.build()
    plan = cfg.plan()
    target = total_mass(field, grid)
    mass_worst = 0.0
    converged = False
    for _ in range(cfg.max_iters):
        field = nmlm_cycle(plan.levels - 1, field, None, plan, grid, src,
                           walls, target_mass=target)
        mass_worst = max(mass_worst, abs(total_mass(field, grid) - target))
        if residual_norm_of(field, grid, src, walls)[0] <= cfg.tol:
            converged = True
            break
    rho = np.array([c.rho for c in field.cells])
    theta = np.array([c.theta for c in field.cells])
    u2 = np.array([c.u[1] for c in field.cells])
    sym = max(float(np.max(np.abs(p - p[::-1]))) for p in (rho, theta, u2))
    ok = converged and sym <= 1e-6 and mass_worst <= 1e-12
    _report(8, ok, f"converged={converged}, mid-channel asymmetry "
                   f"{sym:.2e} <= 1e-6, mass drift {mass_worst:.2e} <= 1e-12")


@pytest.mark.slow
def test_criterion_9_convergence_factor_monotonicity():
    factors = []
    for levels, strat in [(1, ReductionStrategy.MINUS_TWO),
                          (2, ReductionStrategy.MINUS_TWO),
                          (3, ReductionStrategy.MINUS_ONE)]:
        hist = _couette_run(128, levels, strat).history
        r0, rk, k = hist[0].residual, hist[-1].residual, len(hist)
        factors.append((rk / r0) ** (1.0 / max(k - 1, 1)))
    ok = factors[0] > factors[1] > factors[2]
    _report(9, ok, "per-iteration reduction factors "
            f"rho1={factors[0]:.4f} > rho2={factors[1]:.4f} > rho3={factors[2]:.4f}")
