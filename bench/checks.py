"""Correctness checks on a solved channel-flow profile.

They are computed apart from the solver's own stopping test (the weighted
residual norm), from properties every steady state of the two scenarios
must have whatever the start: mass conservation, the mirror symmetry of
the channel, being a fixed point of the single-level smoother, and the
shape of a rarefied flow (wall slip, Knudsen-layer temperature dip).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Profile", "check_profile", "asymmetry", "MASS_RTOL", "SYMMETRY_TOL",
           "FIXED_POINT_TOL", "FIXED_POINT_SWEEPS"]

MASS_RTOL = 1e-12
# Solved to a residual of 1e-8, the workloads measure an asymmetry of at most
# 8.0e-8 and a fixed-point move of at most 1.45e-8 on seeds 0-9 (README).
SYMMETRY_TOL = 1e-6
FIXED_POINT_SWEEPS = 5
FIXED_POINT_TOL = 1e-7


@dataclass
class Profile:
    """Cell-centre profile of a solved run plus what the checks need to
    know about how it was reached."""

    kind: str                 # "couette" or "poiseuille"
    dx: np.ndarray
    rho: np.ndarray
    u2: np.ndarray
    theta: np.ndarray
    sigma12: np.ndarray
    u_wall: float             # tangential speed of the right wall
    mass0: float              # total mass of the start field
    converged: bool
    fixed_point_move: float   # largest change over FIXED_POINT_SWEEPS sweeps


def _mid(n: int) -> set[int]:
    return {n // 2 - 1, n // 2} if n % 2 == 0 else {n // 2}


def asymmetry(p: Profile) -> dict[str, float]:
    """Largest deviation from the channel's mirror symmetry, per quantity."""
    out = {"rho": p.rho - p.rho[::-1], "theta": p.theta - p.theta[::-1]}
    if p.kind == "couette":
        out["u2 + mirrored u2 - u_wall"] = p.u2 + p.u2[::-1] - p.u_wall
    else:
        out["u2"] = p.u2 - p.u2[::-1]
    return {k: float(np.max(np.abs(v))) for k, v in out.items()}


def check_profile(p: Profile) -> dict[str, list[str]]:
    """Failures per check; an empty list means the check passed."""
    out: dict[str, list[str]] = {"converged": [], "mass": [], "symmetry": [],
                                 "fixed_point": [], "shape": []}
    if not p.converged:
        out["converged"].append("did not reach tol within the iteration budget")

    mass = float(np.dot(p.rho, p.dx))
    if not abs(mass - p.mass0) <= MASS_RTOL * abs(p.mass0):
        out["mass"].append(f"total mass {mass!r} != initial {p.mass0!r}")

    for name, err in asymmetry(p).items():
        if not err <= SYMMETRY_TOL:
            out["symmetry"].append(f"{name} asymmetric by {err:.3e}")

    if not p.fixed_point_move <= FIXED_POINT_TOL:
        out["fixed_point"].append(
            f"{FIXED_POINT_SWEEPS} single-level sweeps moved the field by "
            f"{p.fixed_point_move:.3e}")

    mid = _mid(len(p.theta))
    top = int(np.argmax(p.theta))
    if p.kind == "couette":
        if not (0.0 < p.u2[0] and p.u2[-1] < p.u_wall):
            out["shape"].append(f"no wall slip: u2 runs {p.u2[0]!r} .. {p.u2[-1]!r}")
        if not np.all(np.diff(p.u2) > 0.0):
            out["shape"].append("u2 not strictly increasing")
        if not np.all(p.sigma12 < 0.0):
            out["shape"].append("sigma12 not negative in every cell")
        if top not in mid:
            out["shape"].append(f"theta peaks in cell {top}, not mid-channel")
    else:
        theta_mid = float(np.mean(p.theta[sorted(mid)]))
        if top in mid or not theta_mid < float(p.theta[top]):
            out["shape"].append("no Knudsen-layer temperature dip at mid-channel")
    return out
