"""One benchmark solve in a fresh process.

Loads a workload config through the same library path as ``momentmg run``
(``load_config`` -> ``ScenarioConfig.build`` -> ``solve``), perturbs the
start field by the seed, solves, and checks the result (see ``checks.py``).
With ``--trace`` the layer boundaries are wrapped by ``tracing.Tracer``
before the config is loaded; the spans are reduced to per-layer metrics,
the call counts are checked against the counts the cycle plan implies, and
the raw spans are written to ``--out``.

Prints one JSON object as its last line of standard output.  Started by
``run_bench.py``, which times the set-up from the moment it starts this
process to ``solve_start``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from momentmg import cycle, scenarios, smoother, states  # noqa: E402

from checks import FIXED_POINT_SWEEPS, Profile, asymmetry, check_profile  # noqa: E402
from tracing import Tracer  # noqa: E402

# relative size of the seeded perturbation of rho, u and theta in each cell
PERTURBATION = 0.01


def perturb(field, grid, seed: int) -> None:
    """Seed 0 keeps the preset's uniform equilibrium start.  Any other seed
    replaces each cell by a Maxwellian with slightly moved rho, u1, u2 and
    theta, rescaled so the total mass is that of the uniform start."""
    rng = np.random.default_rng(seed)  # also for seed 0: same imports, same memory
    if seed == 0:
        return
    n = len(field)
    c0 = field.cells[0]
    xi = rng.uniform(-1.0, 1.0, size=(n, 4)) * PERTURBATION
    rho = c0.rho * (1.0 + xi[:, 0])
    theta = c0.theta * (1.0 + xi[:, 1])
    u = np.tile(c0.u, (n, 1))
    u[:, 0] += xi[:, 2] * np.sqrt(c0.theta)
    u[:, 1] += xi[:, 3] * np.sqrt(c0.theta)
    rho *= c0.rho * grid.length / float(np.dot(rho, grid.dx))
    field.cells[:] = [states.maxwellian_state(field.order, r, v, t)
                      for r, v, t in zip(rho, u, theta)]


def fixed_point_move(field, grid, src, walls, cfl: float, mass0: float) -> float:
    """Largest change of any coefficient, velocity or temperature over a few
    plain single-level SGS sweeps started from the solved field."""
    probe = field.copy()
    cfg = smoother.SmootherConfig(cfl=cfl)
    for _ in range(FIXED_POINT_SWEEPS):
        probe = smoother.sgs_sweep(probe, grid, src, walls, cfg, mass0)
    return max(max(float(np.max(np.abs(a.coeffs - b.coeffs))),
                   float(np.max(np.abs(a.u - b.u))),
                   abs(a.theta - b.theta))
               for a, b in zip(field.cells, probe.cells))


def profile_of(cfg, field, grid, mass0, converged, move) -> Profile:
    macros = [states.derived_moments(c) for c in field.cells]
    return Profile(
        kind=cfg.kind.value, dx=grid.dx,
        rho=np.array([m.rho for m in macros]),
        u2=np.array([m.u[1] for m in macros]),
        theta=np.array([m.theta for m in macros]),
        sigma12=np.array([m.sigma[0, 1] for m in macros]),
        u_wall=cfg.walls[1].u_wall[0], mass0=mass0,
        converged=converged, fixed_point_move=move)


def sweeps_per_cycle(plan, level: int) -> int:
    if level == 0:
        return plan.s3
    return plan.s1 + plan.s2 + plan.gamma * sweeps_per_cycle(plan, level - 1)


def field_residuals_per_cycle(plan, level: int) -> int:
    """The defect at this level and the coarse operator in coarse_rhs."""
    if level == 0:
        return 0
    return 2 + plan.gamma * field_residuals_per_cycle(plan, level - 1)


def layer_metrics(sp, plan, n_cells: int, K: int, diag) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, and the count cross-checks."""
    names = list(sp["names"])
    nid, par, tag = sp["name_id"], sp["parent"], sp["tag"]
    raised = sp["raised"].astype(bool)
    dur = sp["end"] - sp["start"]
    parent_nid = np.where(par >= 0, nid[np.maximum(par, 0)], -1)

    def is_(name):
        return nid == names.index(name)

    def under(name):
        return parent_nid == names.index(name)

    def calls(name, mask=True):
        return int(np.count_nonzero(is_(name) & mask))

    def mean(name, scale, mask=True):
        d = dur[is_(name) & mask]
        return float(d.mean() * scale) if d.size else 0.0

    def total(name, scale, mask=True):
        return float(dur[is_(name) & mask].sum() * scale)

    cyc = is_("cycle.nmlm_cycle")
    nested = cyc & under("cycle.nmlm_cycle")
    nested_s = np.bincount(par[nested], weights=dur[nested], minlength=len(dur))
    own = dur - nested_s
    attempts = calls("states.recover_macros", under("smoother.richardson_step"))
    backoffs = calls("states.recover_macros", under("smoother.richardson_step") & raised)
    cb = max(calls("basis.change_basis"), 1)

    m = {
        "cycle.monitor_s": total("cycle.residual_norm_of", 1.0, under("cycle.solve")),
        "smoother.sgs_sweep.calls": calls("smoother.sgs_sweep"),
        "smoother.richardson_step.us": mean("smoother.richardson_step", 1e6),
        "smoother.backoffs": backoffs,
        "smoother.step_accept_ratio": calls("smoother.richardson_step") / max(attempts, 1),
        "residual.cell_defect.calls": calls("residual.cell_defect"),
        "residual.cell_defect.us": mean("residual.cell_defect", 1e6),
        "residual.field_residuals.ms": mean("residual.field_residuals", 1e3),
        "fluxes.numerical_flux.calls": calls("fluxes.numerical_flux"),
        "fluxes.numerical_flux.us": mean("fluxes.numerical_flux", 1e6),
        "walls.wall_flux.calls": calls("walls.wall_flux"),
        "walls.wall_flux.us": mean("walls.wall_flux", 1e6),
        "basis.change_basis.calls": calls("basis.change_basis"),
        "basis.change_basis.us": mean("basis.change_basis", 1e6),
        "basis.change_basis.identity_ratio": calls("basis.change_basis", tag == 1) / cb,
        "basis.max_wave_speed.calls": calls("basis.max_wave_speed"),
        "equilibrium.equilibrium_coeffs.calls": calls("equilibrium.equilibrium_coeffs"),
        "equilibrium.equilibrium_coeffs.us": mean("equilibrium.equilibrium_coeffs", 1e6),
        "states.recover_macros.calls": calls("states.recover_macros"),
        "states.recover_macros.us": mean("states.recover_macros", 1e6),
        "transfer.coarse_rhs.ms": mean("transfer.coarse_rhs", 1e3),
        "transfer.prolong_correction.us": mean("transfer.prolong_correction", 1e6),
        "transfer.restrict_state.us": mean("transfer.restrict_state", 1e6),
        "transfer.rejected_corrections": diag.rejected_corrections,
        "norms.local_residual_norm.calls": calls("norms.local_residual_norm"),
        "norms.local_residual_norm.us": mean("norms.local_residual_norm", 1e6),
        "grid.mass_correction.us": mean("grid.mass_correction", 1e6),
        "scenarios.load_config.ms": total("scenarios.load_config", 1e3),
        "scenarios.build.ms": total("scenarios.build", 1e3),
        "indices.order_table.ms": total("indices.order_table", 1e3),
    }
    for level in range(3):
        at = tag == level
        m[f"cycle.level_s.L{level}"] = float(own[cyc & at].sum())
        order = plan.orders[level] if level < plan.levels else -1
        m[f"smoother.sgs_sweep.us.L{level}"] = mean("smoother.sgs_sweep", 1e6, tag == order)

    top = plan.levels - 1
    sweeps = K * sweeps_per_cycle(plan, top)
    residual_fields = (K + 1) + K * field_residuals_per_cycle(plan, top)
    expected = {
        "smoother.sgs_sweep.calls": sweeps,
        "smoother.richardson_step.calls": 2 * n_cells * sweeps,
        "residual.cell_defect.calls": n_cells * (2 * sweeps + residual_fields),
        "cycle.residual_norm_of.calls": K + 1,
        "cycle.coarse_calls": diag.coarse_calls,
        "transfer.rejected_corrections": diag.rejected_corrections,
    }
    seen = {
        "smoother.sgs_sweep.calls": m["smoother.sgs_sweep.calls"],
        "smoother.richardson_step.calls": calls("smoother.richardson_step"),
        "residual.cell_defect.calls": m["residual.cell_defect.calls"],
        "cycle.residual_norm_of.calls": calls("cycle.residual_norm_of"),
        "cycle.coarse_calls": int(np.count_nonzero(nested)),
        "transfer.rejected_corrections": calls("transfer.prolong_correction", raised),
    }
    failures = [f"{k}: traced {seen[k]} != expected {v}"
                for k, v in expected.items() if seen[k] != v]
    return m, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", help="directory for the raw spans (traced runs)")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    cfg = scenarios.load_config(args.config)
    field, grid, src, walls = cfg.build()
    perturb(field, grid, args.seed)
    mass0 = float(np.dot([c.rho for c in field.cells], grid.dx))
    plan = cfg.plan()
    smoother_cfg = smoother.SmootherConfig(cfl=cfg.cfl)

    solve_start = time.monotonic()
    t0 = time.perf_counter()
    result = cycle.solve(field, grid, src, walls, plan, tol=cfg.tol,
                         max_iters=cfg.max_iters, cfg=smoother_cfg)
    solve_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    K = len(result.history)
    move = fixed_point_move(result.field, grid, src, walls, cfg.cfl, mass0)
    profile = profile_of(cfg, result.field, grid, mass0, result.converged, move)
    failures = check_profile(profile)
    # the solve cut at the end of each outer iteration, by the times the
    # solver records in its history; the pieces add up to solve_s
    marks = [0.0] + [r.wall_seconds for r in result.history]
    pieces = [b - a for a, b in zip(marks, marks[1:])] + [solve_s - marks[-1]]
    record = {
        "solve_start": solve_start,
        "solve_s": solve_s,
        "solve_pieces_s": pieces,
        "iterations": K,
        "converged": result.converged,
        "fixed_point_move": move,
        "asymmetry": max(asymmetry(profile).values()),
        "checks": failures,
    }
    if tracer is not None:
        spans = tracer.spans()
        layers, count_failures = layer_metrics(spans, plan, len(grid.dx), K,
                                               result.diagnostics)
        record["layers"] = layers
        record["checks"]["counts"] = count_failures
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            np.savez(out / f"spans-{Path(args.config).stem}.npz", seed=args.seed, **spans)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
