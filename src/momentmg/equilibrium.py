"""Collision models: frequency laws and relaxation-target coefficients.

Every model relaxes towards a target distribution sharing the state's mass,
momentum and energy.  The target's expansion coefficients about the state's
own center are closed-form:

* plain relaxation (unit Prandtl number): the local Maxwellian, f_0 = rho;
* heat-flux-corrected model: the Maxwellian times a degree-3 polynomial,
  so its projection adds the degree-3 coefficients (1 - Pr) q_d / 5;
* anisotropic-Gaussian model: a centered Gaussian with covariance
  Lambda = theta I + (1 - 1/Pr) sigma / rho, whose Hermite coefficients
  satisfy the even-degree recursion
      alpha_i E_alpha = sum_j C_ij E_{alpha - e_i - e_j},   C = (Lambda - theta I)/theta,
  with f^E_alpha = rho theta^{|alpha|/2} E_alpha.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, EquilibriumDomainError
from .indices import OrderTable
from .states import _SIGMA_SCALE, MomentState, _derived_plan, _enforce_admissibility

__all__ = ["CollisionKind", "NuLaw", "CollisionSpec", "collision_frequency",
           "equilibrium_coeffs", "equilibrium_batch"]


class CollisionKind(enum.Enum):
    BGK = "bgk"
    SHAKHOV = "shakhov"
    ESBGK = "esbgk"


class NuLaw(enum.Enum):
    POWER_LAW = "power-law"    # nu = sqrt(pi/2) (Pr/Kn) rho theta^(1-w)
    HARD_SPHERE = "hard-sphere"  # nu = (16/5) sqrt(theta/(2 pi)) (Pr/Kn) rho


@dataclass(frozen=True)
class CollisionSpec:
    kind: CollisionKind = CollisionKind.BGK
    prandtl: float = 1.0
    nu_law: NuLaw = NuLaw.POWER_LAW
    kn: float = 1.0
    w: float = 0.5  # viscosity index, power-law only

    def __post_init__(self):
        if not 0.0 < self.prandtl < math.inf:
            raise ConfigError("Prandtl number must be finite and positive")
        if not 0.0 < self.kn < math.inf:
            raise ConfigError("Knudsen number must be finite and positive")
        if not math.isfinite(self.w):
            raise ConfigError("viscosity index must be finite")


def collision_frequency(spec: CollisionSpec, rho, theta):
    """Average collision frequency for the selected law; elementwise over
    arrays of densities and temperatures."""
    if spec.nu_law is NuLaw.POWER_LAW:
        return np.sqrt(np.pi / 2.0) * (spec.prandtl / spec.kn) * rho * theta ** (1.0 - spec.w)
    return 3.2 * np.sqrt(theta / (2.0 * np.pi)) * (spec.prandtl / spec.kn) * rho


@lru_cache(maxsize=None)
def _gaussian_recursion_plan(M: int):
    """Per even degree: (targets, 1/alpha_i, parent ranks, C row/col indices).

    Parents two degrees lower; a parent rank of -1 marks an invalid
    alpha - e_i - e_j (its contribution is masked out).
    """
    table = OrderTable(M)
    plan = []
    for g in range(2, M + 1, 2):
        lo, hi = table.degree_offset[g], table.degree_offset[g + 1]
        tgt, inv_ai, src, ci, cj = [], [], [], [], []
        for r in range(lo, hi):
            a = table.alphas[r]
            i = int(np.nonzero(a)[0][0])
            tgt.append(r)
            inv_ai.append(1.0 / a[i])
            row_src, row_ci, row_cj = [], [], []
            for j in range(3):
                down = table.minus[i][r]
                parent = table.minus[j][down] if down >= 0 else -1
                row_src.append(parent)
                row_ci.append(i)
                row_cj.append(j)
            src.append(row_src)
            ci.append(row_ci)
            cj.append(row_cj)
        src = np.array(src)
        cflat = np.array(ci) * 3 + np.array(cj)  # index into C.ravel()
        plan.append((np.array(tgt), np.array(inv_ai),
                     np.maximum(src, 0), (src >= 0).astype(float), cflat))
    return plan


@lru_cache(maxsize=None)
def _heatflux_plan(M: int):
    """Ranks receiving the degree-3 heat-flux correction, per component d:
    3 e_d and e_d + 2 e_e for e != d."""
    table = OrderTable(M)
    per_d = []
    for d in range(3):
        ranks = []
        a = [0, 0, 0]
        a[d] = 3
        ranks.append(table.rank(a))
        for e in range(3):
            if e != d:
                a = [0, 0, 0]
                a[d] = 1
                a[e] = 2
                ranks.append(table.rank(a))
        per_d.append(np.array(ranks))
    return per_d


_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _gaussian_coeffs(rho: np.ndarray, theta: np.ndarray, lam: np.ndarray,
                     table: OrderTable) -> np.ndarray:
    C = ((lam - theta[:, None, None] * _EYE3) / theta[:, None, None]).reshape(len(rho), 9)
    E = np.zeros((len(rho), table.count))
    E[:, 0] = 1.0
    for tgt, inv_ai, src, mask, cflat in _gaussian_recursion_plan(table.M):
        E[:, tgt] = inv_ai * ((C[:, cflat] * mask * E[:, src]).sum(axis=2))
    scale = rho[:, None] * theta[:, None] ** (table.degree / 2.0)
    return scale * E


def equilibrium_coeffs(s: MomentState, spec: CollisionSpec) -> np.ndarray:
    """Coefficients of the relaxation target projected onto the state's own
    order-M space.  The conservative components are exact: f^E_0 = rho, the
    unit-index entries vanish and sum(f^E_{2 e_d}) = 0."""
    return equilibrium_batch(s.coeffs[None], np.array([s.theta]), spec, s.table)[0]


def equilibrium_batch(coeffs: np.ndarray, theta: np.ndarray, spec: CollisionSpec,
                      table: OrderTable) -> np.ndarray:
    """:func:`equilibrium_coeffs` of a ``(B, K)`` stack of admissible
    states, each about its own centre, with temperatures ``theta``."""
    rho = coeffs[:, 0]
    out = np.zeros_like(coeffs)
    out[:, 0] = rho
    if spec.kind is CollisionKind.BGK:
        return out

    pair, q3, q12 = _derived_plan(table.M)
    if spec.kind is CollisionKind.SHAKHOV:
        if q3 is not None:
            # q_i = 2 f_{3 e_i} + sum_d f_{2 e_d + e_i}
            q = 2.0 * coeffs[:, q3] + coeffs[:, q12].sum(axis=2)
            amp = (1.0 - spec.prandtl) / 5.0
            for d, ranks in enumerate(_heatflux_plan(table.M)):
                out[:, ranks] += amp * q[:, d:d + 1]
        return out

    # anisotropic Gaussian; sigma_ij = (1 + delta_ij) f_{e_i + e_j}
    sigma = coeffs[:, pair] * _SIGMA_SCALE
    lam = (theta[:, None, None] * _EYE3
           + (1.0 - 1.0 / spec.prandtl) * sigma / rho[:, None, None])
    # positive definiteness via leading principal minors (3x3 Sylvester)
    d1 = lam[:, 0, 0]
    d2 = lam[:, 0, 0] * lam[:, 1, 1] - lam[:, 0, 1] * lam[:, 1, 0]
    d3 = (lam[:, 0, 0] * (lam[:, 1, 1] * lam[:, 2, 2] - lam[:, 1, 2] * lam[:, 2, 1])
          - lam[:, 0, 1] * (lam[:, 1, 0] * lam[:, 2, 2] - lam[:, 1, 2] * lam[:, 2, 0])
          + lam[:, 0, 2] * (lam[:, 1, 0] * lam[:, 2, 1] - lam[:, 1, 1] * lam[:, 2, 0]))
    bad = (d1 <= 0.0) | (d2 <= 0.0) | (d3 <= 0.0)
    if bad.any():
        b = int(np.argmax(bad))
        raise EquilibriumDomainError(
            f"anisotropy tensor not positive definite (eigs {np.linalg.eigvalsh(lam[b])})")
    out = _gaussian_coeffs(rho, theta, lam, table)
    # trace cleanup; exact up to roundoff already since tr(sigma) = 0
    _enforce_admissibility(out, table)
    return out
