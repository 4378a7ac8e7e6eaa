"""Self-test of the benchmark's correctness checks: clean channel profiles
pass, and every corrupted profile is rejected by the check meant for it.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from checks import FIXED_POINT_TOL, MASS_RTOL, SYMMETRY_TOL, Profile, check_profile

N = 32
X = (np.arange(N) + 0.5) / N
S = X - 0.5  # signed distance from mid-channel
DX = np.full(N, 1.0 / N)
U_WALL = 1.2577


def _profile(kind, rho, u2, theta, sigma12, u_wall=0.0) -> Profile:
    return Profile(kind=kind, dx=DX, rho=rho, u2=u2, theta=theta,
                   sigma12=sigma12, u_wall=u_wall, mass0=float(np.dot(rho, DX)),
                   converged=True, fixed_point_move=1e-9)


def couette() -> Profile:
    """Slip at both walls, rising velocity, negative shear stress and the
    viscous-heating temperature peak at mid-channel."""
    return _profile("couette", rho=1.0 + 0.02 * S ** 2, u2=U_WALL * (0.1 + 0.8 * X),
                    theta=1.1 - 0.2 * S ** 2, sigma12=-0.1 * (1.0 + S ** 2),
                    u_wall=U_WALL)


def poiseuille() -> Profile:
    """Symmetric velocity and a temperature dip at mid-channel below the
    off-centre maxima."""
    return _profile("poiseuille", rho=1.0 + 0.02 * S ** 2, u2=0.3 * (0.3 - S ** 2),
                    theta=1.0 + 0.4 * S ** 2 - 2.0 * S ** 4, sigma12=np.zeros(N))


def with_(p: Profile, **changes) -> Profile:
    return dataclasses.replace(p, **changes)


def _u2_mirrored_without_wall_shift(p):
    u2 = p.u2.copy()
    u2[N // 2:] = u2[:N // 2][::-1]
    return with_(p, u2=u2)


def _swap_symmetric(a, i, j):
    a = a.copy()
    a[[i, j]] = a[[j, i]]
    a[[N - 1 - i, N - 1 - j]] = a[[N - 1 - j, N - 1 - i]]
    return a


CORRUPTIONS = [
    # (name, clean profile, corruption, check that must reject it)
    ("couette u2 mirrored without the wall shift", couette,
     _u2_mirrored_without_wall_shift, "symmetry"),
    ("couette rho tilted, mass kept", couette,
     lambda p: with_(p, rho=p.rho * (1.0 + 1e-3 * S)), "symmetry"),
    ("couette theta tilted just past the bound", couette,
     lambda p: with_(p, theta=p.theta + 3.0 * SYMMETRY_TOL * S), "symmetry"),
    ("couette theta not a number in one cell", couette,
     lambda p: with_(p, theta=np.where(np.arange(N) == 3, np.nan, p.theta)), "symmetry"),
    ("poiseuille u2 skewed", poiseuille,
     lambda p: with_(p, u2=p.u2 + 1e-4 * S), "symmetry"),
    ("poiseuille rho mirrored onto the wrong half", poiseuille,
     lambda p: with_(p, rho=np.concatenate([p.rho[:N // 2], p.rho[:N // 2]])), "symmetry"),
    ("couette mass shifted", couette,
     lambda p: with_(p, rho=p.rho * (1.0 + 100 * MASS_RTOL)), "mass"),
    ("poiseuille mass shifted", poiseuille,
     lambda p: with_(p, mass0=p.mass0 * (1.0 - 100 * MASS_RTOL)), "mass"),
    ("not converged", poiseuille, lambda p: with_(p, converged=False), "converged"),
    ("moved by the smoother", couette,
     lambda p: with_(p, fixed_point_move=10 * FIXED_POINT_TOL), "fixed_point"),
    ("fixed-point move not a number", poiseuille,
     lambda p: with_(p, fixed_point_move=float("nan")), "fixed_point"),
    ("couette no slip at the walls", couette,
     lambda p: with_(p, u2=U_WALL * X * (N / (N - 1)) - U_WALL * 0.5 / (N - 1)), "shape"),
    ("couette u2 not increasing", couette,
     lambda p: with_(p, u2=_swap_symmetric(p.u2, 3, 4)), "shape"),
    ("couette sigma12 positive in two cells", couette,
     lambda p: with_(p, sigma12=np.where(np.abs(S) < 0.04, 0.01, p.sigma12)), "shape"),
    ("couette theta peaks at the walls", couette,
     lambda p: with_(p, theta=1.0 + 0.2 * S ** 2), "shape"),
    ("poiseuille without a Knudsen-layer dip", poiseuille,
     lambda p: with_(p, theta=1.1 - 0.2 * S ** 2), "shape"),
]


@pytest.mark.parametrize("clean", [couette, poiseuille])
def test_clean_profile_passes(clean):
    assert check_profile(clean()) == {"converged": [], "mass": [], "symmetry": [],
                                      "fixed_point": [], "shape": []}


@pytest.mark.parametrize("name,clean,corrupt,check", CORRUPTIONS,
                         ids=[c[0] for c in CORRUPTIONS])
def test_corruption_is_rejected(name, clean, corrupt, check):
    assert check_profile(corrupt(clean()))[check], f"{check} accepted: {name}"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
