"""Command-line benchmark runner.

Subcommands:

* ``run`` — solve one scenario and write ``history.csv``, ``profile.csv``
  and ``summary.csv`` into the output directory;
* ``matrix`` — sweep cell counts x orders x strategies x level counts,
  one subdirectory per run, plus a combined summary table with speedup
  ratios against the 1-level run of the same (N, M);
* ``presets`` — list the shipped scenario config files.

Exit status: 0 success, 1 crash (a solve stopped by a ``MomentError``
still writes the ``history.csv`` it made), 2 invalid configuration, 3 solver
did not reach the tolerance (partial outputs kept).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import sys
from pathlib import Path

from .cycle import ReductionStrategy, solve
from .errors import MomentError
from .scenarios import (ConfigError, ScenarioConfig, ScenarioKind,
                        load_config, preset_names, preset_path)
from .smoother import SmootherConfig
from .states import derived_moments

__all__ = ["main", "run_benchmark", "run_matrix"]

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_BAD_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _profile_rows(cfg: ScenarioConfig, field, grid):
    if cfg.kind is ScenarioKind.COUETTE:
        header = ["x", "rho", "theta", "u2", "sigma12", "q1"]
        pick = lambda m: (m.sigma[0, 1], m.q[0])
    else:
        header = ["x", "rho", "theta", "u2", "sigma11", "q2"]
        pick = lambda m: (m.sigma[0, 0], m.q[1])
    rows = []
    for x, cell in zip(grid.centers, field.cells):
        m = derived_moments(cell)
        extra = pick(m)
        rows.append([repr(float(v)) for v in
                     (x, m.rho, m.theta, m.u[1], extra[0], extra[1])])
    return header, rows


def _solve_config(cfg: ScenarioConfig):
    field, grid, src, walls = cfg.build()
    result = solve(field, grid, src, walls, cfg.plan(), tol=cfg.tol,
                   max_iters=cfg.max_iters, cfg=SmootherConfig(cfl=cfg.cfl))
    K = len(result.history)
    T = result.history[-1].wall_seconds if result.history else 0.0
    return result, K, T, grid


def _write_history(path: Path, history) -> None:
    _write_csv(path, ["iteration", "residual", "wall_seconds"],
               [[rec.iteration, repr(rec.residual), repr(rec.wall_seconds)]
                for rec in history])


def _run_and_write(cfg: ScenarioConfig, out: Path, baseline: bool = False):
    out.mkdir(parents=True, exist_ok=True)
    try:
        result, K, T, grid = _solve_config(cfg)
    except MomentError as exc:
        # a stopped solve keeps the history it made
        _write_history(out / "history.csv", exc.history)
        raise

    _write_history(out / "history.csv", result.history)
    header, rows = _profile_rows(cfg, result.field, grid)
    _write_csv(out / "profile.csv", header, rows)

    diag = vars(result.diagnostics)  # coarse_calls, rejected_corrections, backoffs
    summary_header = ["converged", "levels", "strategy", "K", "T", *diag]
    summary_row = [int(result.converged), cfg.levels, cfg.strategy.value, K, repr(T),
                   *diag.values()]
    if baseline and cfg.levels > 1:
        from dataclasses import replace
        _base, K_s, T_s, _grid = _solve_config(replace(cfg, levels=1))
        summary_header += ["K_s", "T_s", "K_s/K", "T_s/T"]
        summary_row += [K_s, repr(T_s),
                        repr(K_s / K if K else float("nan")),
                        repr(T_s / T if T else float("nan"))]
    _write_csv(out / "summary.csv", summary_header, [summary_row])
    status = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return status, K, T


def run_benchmark(cfg: ScenarioConfig, out_dir, baseline: bool = False) -> int:
    """Solve one scenario, write the three CSV outputs, return exit status.

    With ``baseline=True`` a 1-level run of the same scenario is solved as
    well and the summary gains the iteration/time speedup ratios K_s/K and
    T_s/T.
    """
    status, _K, _T = _run_and_write(cfg, Path(out_dir), baseline)
    return status


def _matrix_worker(args):
    cfg, out_dir = args
    try:
        status, K, T = _run_and_write(cfg, Path(out_dir))
    except (ConfigError, MomentError, ValueError) as exc:
        return cfg.N, cfg.M, cfg.strategy.value, cfg.levels, EXIT_CRASH, 0, 0.0, str(exc)
    return cfg.N, cfg.M, cfg.strategy.value, cfg.levels, status, K, T, ""


def run_matrix(base: ScenarioConfig, out_dir, cells, orders, strategies,
               levels_list, workers: int | None = None) -> int:
    """Run every combination, one directory per run, and write the combined
    ``matrix.csv`` with speedup ratios against the matching 1-level run."""
    from dataclasses import replace
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = []
    seen = set()
    for N in cells:
        for M in orders:
            for lv in levels_list:
                strat_list = strategies if lv > 1 else [base.strategy]
                for strat in strat_list:
                    key = (N, M, lv, strat if lv > 1 else None)
                    if key in seen:
                        continue
                    seen.add(key)
                    cfg = replace(base, N=N, M=M, levels=lv, strategy=strat)
                    tag = f"N{N}_M{M}_L{lv}" + (f"_{strat.value}" if lv > 1 else "")
                    jobs.append((cfg, out / tag))

    results = []
    failures = 0
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for row in pool.map(_matrix_worker, jobs):
            results.append(row)
            if row[4] == EXIT_CRASH:
                failures += 1

    base_kt = {(N, M): (K, T) for N, M, _s, lv, status, K, T, _e in results
               if lv == 1 and status == EXIT_OK}
    rows = []
    for N, M, strat, lv, status, K, T, err in sorted(results):
        ks_over_k = ts_over_t = ""
        if status == EXIT_OK and (N, M) in base_kt:
            K_s, T_s = base_kt[(N, M)]
            ks_over_k = repr(K_s / K) if K else ""
            ts_over_t = repr(T_s / T) if T else ""
        rows.append([N, M, lv, strat if lv > 1 else "-", status, K, repr(T),
                     ks_over_k, ts_over_t, err])
    _write_csv(out / "matrix.csv",
               ["N", "M", "levels", "strategy", "status", "K", "T",
                "K_s/K", "T_s/T", "error"],
               rows)
    return EXIT_CRASH if failures == len(results) else EXIT_OK


def _resolve_config(name_or_path: str) -> ScenarioConfig:
    p = Path(name_or_path)
    if p.is_file():
        return load_config(p)
    if name_or_path in preset_names():
        return load_config(preset_path(name_or_path))
    raise ConfigError(f"no config file or preset named {name_or_path!r}")


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    from dataclasses import replace
    updates = {}
    if args.cells is not None:
        updates["N"] = args.cells
    if args.order is not None:
        updates["M"] = args.order
    if args.levels is not None:
        updates["levels"] = args.levels
    if args.strategy is not None:
        updates["strategy"] = ReductionStrategy(args.strategy)
    if args.tol is not None:
        updates["tol"] = args.tol
    return replace(cfg, **updates) if updates else cfg


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.replace(",", " ").split()]


def _strategy_list(text: str) -> list[ReductionStrategy]:
    return [ReductionStrategy(p) for p in text.replace(",", " ").split()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="momentmg",
                                 description="Steady moment-model benchmark runner.")
    sub = ap.add_subparsers(dest="command", required=True)

    strategies = [s.value for s in ReductionStrategy]

    runp = sub.add_parser("run", help="solve one scenario and write CSVs")
    runp.add_argument("--config", required=True,
                      help="config file path or preset name")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--cells", type=int, help="override cell count N")
    runp.add_argument("--order", type=int, help="override top moment order M")
    runp.add_argument("--levels", type=int, help="override level count")
    runp.add_argument("--strategy", choices=strategies,
                      help="override order-reduction strategy")
    runp.add_argument("--tol", type=float, help="override residual tolerance")
    runp.add_argument("--baseline", action="store_true",
                      help="also run the 1-level solver and report K_s/K, T_s/T")

    matp = sub.add_parser("matrix", help="sweep N x M x strategy x levels")
    matp.add_argument("--config", required=True,
                      help="base config file path or preset name")
    matp.add_argument("--out", default="matrix-out", help="output directory")
    matp.add_argument("--cells", type=_int_list, default=None,
                      help="comma-separated cell counts (default: config N)")
    matp.add_argument("--orders", type=_int_list, default=None,
                      help="comma-separated top orders (default: config M)")
    matp.add_argument("--strategies", type=_strategy_list, default=None,
                      help="comma-separated strategies (default: config strategy)")
    matp.add_argument("--levels", type=_int_list, default=None,
                      help="comma-separated level counts (default: 1 and config levels)")
    matp.add_argument("--workers", type=int, default=None,
                      help="worker-process count (default: CPU count)")

    sub.add_parser("presets", help="list shipped scenario presets")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        for name in preset_names():
            print(name)
        return EXIT_OK
    try:
        cfg = _resolve_config(args.config)
        if args.command == "run":
            cfg = _apply_overrides(cfg, args)
            return run_benchmark(cfg, args.out, baseline=args.baseline)
        cells = args.cells or [cfg.N]
        orders = args.orders or [cfg.M]
        strategies = args.strategies or [cfg.strategy]
        levels_list = args.levels or sorted({1, cfg.levels})
        return run_matrix(cfg, args.out, cells, orders, strategies,
                          levels_list, workers=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MomentError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
