"""Independent oracles for the Hermite-moment machinery.

Everything here is computed from the definition of the basis functions by
quadrature or classical closed forms, without using the package's own
coefficient algebra, so the main code can be checked against it.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial import hermite_e

from momentmg import OrderTable


def _axis_moment_matrix(u_d: float, theta: float, max_pow: int, max_deg: int,
                        nodes: int = 60) -> np.ndarray:
    """A[m, n] = integral of xi^m times the 1-D basis factor
    (2 pi theta)^(-1/2) theta^(-n/2) He_n(v) exp(-v^2/2), v = (xi-u)/sqrt(theta)."""
    t, w = hermite_e.hermegauss(nodes)
    rt = math.sqrt(theta)
    xi = u_d + rt * t
    he = np.empty((max_deg + 1, nodes))
    he[0] = 1.0
    if max_deg >= 1:
        he[1] = t
    for n in range(1, max_deg):
        he[n + 1] = t * he[n] - n * he[n - 1]
    A = np.empty((max_pow + 1, max_deg + 1))
    for m in range(max_pow + 1):
        integ = (xi ** m) * w
        for n in range(max_deg + 1):
            A[m, n] = theta ** (-0.5 * n) * float(integ @ he[n]) / math.sqrt(2.0 * math.pi)
    return A


def quadrature_moments(coeffs: np.ndarray, u, theta: float, M: int,
                       max_deg: int | None = None) -> dict[tuple, float]:
    """All raw velocity moments int xi^beta f dxi for |beta| <= max_deg
    (default M), straight from the basis definition."""
    table = OrderTable(M)
    if max_deg is None:
        max_deg = M
    A = [_axis_moment_matrix(float(u[d]), theta, max_deg, M) for d in range(3)]
    out = {}
    beta_table = OrderTable(max_deg)
    for beta in map(tuple, beta_table.alphas):
        val = 0.0
        for r, alpha in enumerate(table.alphas):
            val += coeffs[r] * A[0][beta[0], alpha[0]] \
                             * A[1][beta[1], alpha[1]] \
                             * A[2][beta[2], alpha[2]]
        out[beta] = val
    return out


def hermite_lower_integrals(c: float, n_max: int) -> np.ndarray:
    """I_n = integral over (-inf, c] of He_n(v) exp(-v^2/2) dv.

    I_0 = sqrt(2 pi) Phi(c); I_n = -He_{n-1}(c) exp(-c^2/2) for n >= 1,
    since (He_{n-1} e^{-v^2/2})' = -He_n e^{-v^2/2}.
    """
    I = np.empty(n_max + 1)
    I[0] = math.sqrt(2.0 * math.pi) * 0.5 * (1.0 + math.erf(c / math.sqrt(2.0)))
    he = np.empty(n_max + 1)
    he[0] = 1.0
    if n_max >= 1:
        he[1] = c
    for n in range(1, n_max):
        he[n + 1] = c * he[n] - n * he[n - 1]
    g = math.exp(-0.5 * c * c)
    for n in range(1, n_max + 1):
        I[n] = -he[n - 1] * g
    return I


def analytic_half_space_mass_flux(coeffs: np.ndarray, u, theta: float, M: int,
                                  side: str) -> float:
    """Closed-form kinetic mass flux through one xi_1 half-space
    ('left': xi_1 < 0, 'right': xi_1 > 0) for an order-M expansion."""
    table = OrderTable(M)
    u1 = float(u[0])
    rt = math.sqrt(theta)
    c = -u1 / rt
    I = hermite_lower_integrals(c, M + 2)
    # J_n = int v He_n e^{-v^2/2} over the same half; v He_n = He_{n+1} + n He_{n-1}
    total = 0.0
    for n in range(M + 1):
        marg = coeffs[table.rank((n, 0, 0))] * theta ** (-0.5 * n)
        J = I[n + 1] + (n * I[n - 1] if n >= 1 else 0.0)
        part = (u1 * I[n] + rt * J) / math.sqrt(2.0 * math.pi)
        total += marg * part
    if side == "right":
        # complement: full-range value minus the lower part
        full = 0.0
        for n in range(M + 1):
            marg = coeffs[table.rank((n, 0, 0))] * theta ** (-0.5 * n)
            # full-range: int He_n e = sqrt(2pi) delta_{n0}; int v He_n e = sqrt(2pi) delta_{n1}
            part = (u1 * (math.sqrt(2.0 * math.pi) if n == 0 else 0.0)
                    + rt * (math.sqrt(2.0 * math.pi) if n == 1 else 0.0)) / math.sqrt(2.0 * math.pi)
            full += marg * part
        return full - total
    return total


def mp_half_flux_matrix(u1: float, theta: float, M: int, positive: bool,
                        dps: int = 50) -> np.ndarray:
    """The half-space flux matrix of ``_reference_half_flux_matrix`` at
    ``dps`` decimal digits, through monomials instead of Hermite identities:
    He_n He_m is multiplied out in exact integer coefficients and integrated
    against the half-line power moments mu_p = int v^p phi, which follow by
    parts, mu_p = +-c^(p-1) phi(c) + (p-1) mu_{p-2}."""
    with mpmath.workdps(dps):
        u1m, th = mpmath.mpf(u1), mpmath.mpf(theta)
        rt = mpmath.sqrt(th)
        c = -u1m / rt
        sign = 1 if positive else -1
        mu = [mpmath.ncdf(-c) if positive else mpmath.ncdf(c), sign * mpmath.npdf(c)]
        for p in range(2, 2 * M + 2):
            mu.append(sign * c ** (p - 1) * mpmath.npdf(c) + (p - 1) * mu[p - 2])
        nu = [u1m * mu[p] + rt * mu[p + 1] for p in range(2 * M + 1)]
        he = [[1], [0, 1]]  # monomial coefficients of He_n, lowest first
        for n in range(1, M):
            up, down = [0] + he[n], he[n - 1] + [0, 0]
            he.append([a - n * b for a, b in zip(up, down)])
        A = np.empty((M + 1, M + 1))
        for n in range(M + 1):
            for m in range(M + 1):
                prod = [0] * (n + m + 1)
                for i, a in enumerate(he[n]):
                    for k, b in enumerate(he[m]):
                        prod[i + k] += a * b
                total = mpmath.fsum(q * nu[p] for p, q in enumerate(prod) if q)
                A[n, m] = float(total * th ** (mpmath.mpf(n - m) / 2)
                                / math.factorial(n))
    return A


def conservative_moments(coeffs: np.ndarray, u, theta: float,
                         table: OrderTable) -> tuple[float, np.ndarray, float]:
    """(mass, momentum, energy) = integrals of (1, xi, |xi|^2) against the
    expansion, as arrays: ``rho``, ``rho u + f_{e_d}`` and
    ``rho (|u|^2 + 3 theta) + 2 u . f_{e_d} + 2 sum_d f_{2 e_d}``.  Valid for
    any coefficient array, admissible or not."""
    rho = float(coeffs[0])
    u = np.asarray(u, dtype=np.float64)
    f1 = coeffs[table.r_unit]
    energy = (rho * (u @ u + 3.0 * theta) + 2.0 * (u @ f1)
              + 2.0 * float(coeffs[table.r_unit2].sum()))
    return rho, rho * u + f1, energy


def reference_change_basis(coeffs: np.ndarray, u_from, theta_from: float,
                           u_to, theta_to: float, M: int) -> np.ndarray:
    """Re-centring as the per-axis convolution it is, in extended precision.

    Moving the centre by (du, dtheta) multiplies the expansion by
    prod_d exp(a_d S_d + b S_d^2), S_d the raising shift by e_d,
    a = u_from - u_to, b = (theta_from - theta_to) / 2.  The Taylor
    coefficients of exp(a x + b x^2) are written out as the double sum
    sum_m a^(k-2m) b^m / ((k-2m)! m!), and the three lower-triangular
    Toeplitz matrices they form act axis by axis on the coefficients laid
    out on the full (M+1)^3 cube; degrees above M never feed lower ones, so
    the truncation is read off at the end."""
    ld = np.longdouble
    table = OrderTable(M)
    a = np.asarray(u_from, dtype=ld) - np.asarray(u_to, dtype=ld)
    b = (ld(theta_from) - ld(theta_to)) / 2
    cube = np.zeros((M + 1,) * 3, dtype=ld)
    al = table.alphas
    cube[al[:, 0], al[:, 1], al[:, 2]] = np.asarray(coeffs, dtype=ld)
    for d in range(3):
        c = [sum(a[d] ** (k - 2 * m) * b ** m / ld(math.factorial(k - 2 * m) * math.factorial(m))
                 for m in range(k // 2 + 1)) for k in range(M + 1)]
        toeplitz = np.zeros((M + 1, M + 1), dtype=ld)
        for i in range(M + 1):
            toeplitz[i, :i + 1] = c[i::-1]
        cube = np.moveaxis(np.tensordot(toeplitz, cube, axes=([1], [d])), 0, d)
    return cube[al[:, 0], al[:, 1], al[:, 2]]


def random_admissible(rng, M: int, scale: float = 0.05):
    """Random admissible state data (u, theta, coeffs) of order M."""
    from momentmg import MomentState
    table = OrderTable(M)
    coeffs = rng.normal(scale=scale, size=table.count)
    coeffs[0] = 1.0 + 0.5 * rng.random()
    coeffs[table.r_unit] = 0.0
    coeffs[table.r_unit2] -= coeffs[table.r_unit2].sum() / 3.0
    u = rng.normal(scale=0.3, size=3)
    theta = 0.5 + rng.random()
    return MomentState(M, u, theta, coeffs)


# --- per-cell references for the batched defect kernel -------------------
#
# The cell-by-cell evaluation the solver used before its defect terms were
# batched: one state at a time, every face through ``numerical_flux`` or the
# chain-by-chain wall flux below, the equilibrium from the scalar closed
# forms.  Tests compare the batched paths against these.

def reference_equilibrium(s, spec):
    """Relaxation-target coefficients of one state, evaluated for that state
    alone (plain, heat-flux-corrected or anisotropic-Gaussian model)."""
    from momentmg import CollisionKind, derived_moments
    table = s.table
    out = np.zeros(table.count)
    out[0] = s.rho
    if spec.kind is CollisionKind.BGK:
        return out
    mom = derived_moments(s)
    if spec.kind is CollisionKind.SHAKHOV:
        if s.order >= 3:
            amp = (1.0 - spec.prandtl) / 5.0
            for d in range(3):
                a = [0, 0, 0]
                a[d] = 3
                out[table.rank(a)] += amp * mom.q[d]
                for e in range(3):
                    if e != d:
                        a = [0, 0, 0]
                        a[d], a[e] = 1, 2
                        out[table.rank(a)] += amp * mom.q[d]
        return out
    lam = s.theta * np.eye(3) + (1.0 - 1.0 / spec.prandtl) * mom.sigma / s.rho
    C = (lam - s.theta * np.eye(3)) / s.theta
    # alpha_i E_alpha = sum_j C_ij E_{alpha - e_i - e_j}, i the first nonzero axis
    E = np.zeros(table.count)
    E[0] = 1.0
    for r in range(1, table.count):
        a = table.alphas[r]
        if table.degree[r] % 2:
            continue
        i = int(np.nonzero(a)[0][0])
        acc = 0.0
        for j in range(3):
            b = a.copy()
            b[i] -= 1
            b[j] -= 1
            if b.min() >= 0:
                acc += C[i, j] * E[table.rank(b)]
        E[r] = acc / a[i]
    out = s.rho * s.theta ** (table.degree / 2.0) * E
    out[table.r_unit] = 0.0
    out[table.r_unit2] -= out[table.r_unit2].sum() / 3.0
    return out


def reference_source(s, src):
    """G_alpha = sum_d F_d f_{alpha - e_d} + nu (f^E_alpha - f_alpha)."""
    from momentmg import collision_frequency
    table = s.table
    nu = collision_frequency(src.collision, s.rho, s.theta)
    out = nu * (reference_equilibrium(s, src.collision) - s.coeffs)
    for d in range(3):
        if src.force[d] != 0.0:
            for r, a in enumerate(table.alphas):
                if a[d] >= 1:
                    b = a.copy()
                    b[d] -= 1
                    out[r] += src.force[d] * s.coeffs[table.rank(b)]
    return out


def _reference_half_flux_matrix(u1, theta, M, positive):
    """A[n, m] = theta^((n-m)/2) / n! int (u1 + sqrt(theta) v) He_n He_m e^{-v^2/2}
    dv / sqrt(2 pi) over one half-line of the scaled normal velocity v, cut at
    c = -u1 / sqrt(theta): xi_1 > 0 when ``positive``, else xi_1 < 0.

    Each product is expanded by He_n He_m = sum_k C(n,k) C(m,k) k! He_{n+m-2k}
    and v He_j = He_{j+1} + j He_{j-1}, term by term, onto the closed-form
    half-line integrals of :func:`hermite_lower_integrals`; the upper
    half-line uses He_j(-v) = (-1)^j He_j(v)."""
    rt = math.sqrt(theta)
    c = -u1 / rt
    if positive:
        I = hermite_lower_integrals(-c, 2 * M + 1) * (-1.0) ** np.arange(2 * M + 2)
    else:
        I = hermite_lower_integrals(c, 2 * M + 1)
    A = np.zeros((M + 1, M + 1))
    for n in range(M + 1):
        for m in range(M + 1):
            total = 0.0
            for k in range(min(n, m) + 1):
                j = n + m - 2 * k
                vI = I[j + 1] + (j * I[j - 1] if j >= 1 else 0.0)
                total += (math.comb(n, k) * math.comb(m, k) * math.factorial(k)
                          * (u1 * I[j] + rt * vI))
            A[n, m] = (total / math.sqrt(2.0 * math.pi)
                       * theta ** (0.5 * (n - m)) / math.factorial(n))
    return A


def _reference_apply_half_flux(A, coeffs, table):
    M = table.M
    out = np.zeros_like(coeffs)
    for a2 in range(M + 1):
        for a3 in range(M + 1 - a2):
            ranks = [table.rank((m, a2, a3)) for m in range(M + 1 - a2 - a3)]
            k = len(ranks)
            out[ranks] = A[:k, :k] @ coeffs[ranks]
    return out


def reference_wall_flux(inner, wall, side):
    """Wall-face flux with both half-space matrices built separately and
    applied chain by chain (fixed tangential index, a1 running)."""
    from momentmg import change_basis
    from momentmg.states import specular_reflect
    from momentmg.walls import Side
    table = inner.table
    M, u, theta = inner.order, inner.u, inner.theta
    u1 = float(u[0])
    toward_positive = side is Side.RIGHT
    A_in = _reference_half_flux_matrix(u1, theta, M, toward_positive)
    A_out = _reference_half_flux_matrix(u1, theta, M, not toward_positive)
    flux = _reference_apply_half_flux(A_in, inner.coeffs, table)
    if wall.chi < 1.0:
        spec = specular_reflect(inner)
        w_spec = change_basis(spec.coeffs, spec.u, spec.theta, u, theta, table)
        flux += (1.0 - wall.chi) * _reference_apply_half_flux(A_out, w_spec, table)
    if wall.chi == 0.0:
        return flux
    u_w = np.array([0.0, wall.u_wall[0], wall.u_wall[1]])
    unit = np.zeros(table.count)
    unit[0] = 1.0
    w_mw = change_basis(unit, u_w, wall.theta_wall, u, theta, table)
    flux_mw = _reference_apply_half_flux(A_out, w_mw, table)
    rho_w = -flux[0] / (wall.chi * flux_mw[0])
    return flux + wall.chi * rho_w * flux_mw


def reference_cell_residual(f_prev, f_this, f_next, dx, src, rhs_i=None,
                            wall_left=None, wall_right=None):
    """Defect r_i - R_i of one cell, R_i = (F_right - F_left) / dx - G;
    ``rhs_i`` is r_i as (coeffs, u, theta) of the basis it is pinned to."""
    from momentmg import change_basis
    from momentmg.fluxes import numerical_flux
    from momentmg.walls import Side
    table = f_this.table
    u, theta = f_this.u, f_this.theta
    if wall_right is not None:
        flux_r = reference_wall_flux(f_this, wall_right, Side.RIGHT)
    else:
        flux_r = numerical_flux(f_this, f_next, u, theta, table)
    if wall_left is not None:
        flux_l = reference_wall_flux(f_this, wall_left, Side.LEFT)
    else:
        flux_l = numerical_flux(f_prev, f_this, u, theta, table)
    R = (flux_r - flux_l) / dx - reference_source(f_this, src)
    if rhs_i is None:
        return -R
    return change_basis(*rhs_i, u, theta, table) - R


def reference_cell_defect(field, i, grid, src, walls, rhs=None):
    """Defect of cell i against its current neighbours, with row i of the
    stacked right-hand side ``rhs``; periodic wrap-around when ``walls`` is
    None."""
    n = len(field)
    rhs_i = None if rhs is None else (rhs.coeffs[i], rhs.u[i], rhs.theta[i])
    wall_left = walls[0] if (walls is not None and i == 0) else None
    wall_right = walls[1] if (walls is not None and i == n - 1) else None
    prev = None if wall_left is not None else field.cells[(i - 1) % n]
    nxt = None if wall_right is not None else field.cells[(i + 1) % n]
    return reference_cell_residual(prev, field.cells[i], nxt, float(grid.dx[i]),
                                   src, rhs_i, wall_left, wall_right)


def reference_sgs_sweep(field, grid, src, walls, cfg, target_mass=None):
    """Forward then backward Gauss-Seidel pass, each cell's defect evaluated
    from scratch against its neighbours' current states."""
    from momentmg import PositivityError, mass_correction, max_wave_speed, recover_macros
    from momentmg.smoother import MAX_BACKOFF
    n = len(field)
    for i in list(range(n)) + list(range(n - 1, -1, -1)):
        this = field.cells[i]
        defect = reference_cell_defect(field, i, grid, src, walls, cfg.rhs)
        omega = cfg.cfl * float(grid.dx[i]) / max_wave_speed(this)
        for _ in range(MAX_BACKOFF + 1):
            try:
                field.cells[i] = recover_macros(this.coeffs + omega * defect,
                                                this.u, this.theta, this.order)
                break
            except PositivityError:
                omega *= 0.5
        else:
            raise AssertionError(f"positivity back-off exhausted at cell {i}")
    if target_mass is not None:
        mass_correction(field, grid, target_mass)
    return field
