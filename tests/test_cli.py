"""End-to-end checks of the benchmark command line."""

import csv

import pytest

from momentmg.cli import (EXIT_BAD_CONFIG, EXIT_CRASH, EXIT_NO_CONVERGENCE, EXIT_OK,
                          main, run_benchmark)
from momentmg.scenarios import couette_config


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_presets_subcommand(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == ["couette", "poiseuille"]


def test_unknown_config_is_bad_config(capsys):
    assert main(["run", "--config", "no-such-scenario"]) == EXIT_BAD_CONFIG


def test_malformed_config_file_is_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nkind = vortex\n")
    assert main(["run", "--config", str(bad)]) == EXIT_BAD_CONFIG


def test_non_finite_tolerance_is_bad_config(tmp_path, capsys):
    bad = tmp_path / "nan-tol.cfg"
    bad.write_text("[scenario]\nkind = couette\nN = 8\n[solver]\ntol = nan\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "a")]) == EXIT_BAD_CONFIG
    assert main(["run", "--config", "couette", "--tol", "inf",
                 "--out", str(tmp_path / "b")]) == EXIT_BAD_CONFIG
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("line", ["kn = nan", "theta0 = inf", "theta_wall_left = nan",
                                  "u_wall_right = nan 0.0"])
def test_non_finite_config_value_is_bad_config(tmp_path, capsys, line):
    bad = tmp_path / "non-finite.cfg"
    bad.write_text(f"[scenario]\nkind = couette\nN = 8\n{line}\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "a")]) == EXIT_BAD_CONFIG
    assert not (tmp_path / "a").exists()
    assert "error:" in capsys.readouterr().err


def test_no_convergence_exit_code(tmp_path):
    # one cycle cannot reach 1e-8 from equilibrium: partial outputs kept
    cfg = couette_config(N=8, levels=2, max_iters=1)
    out = tmp_path / "run"
    assert run_benchmark(cfg, out) == EXIT_NO_CONVERGENCE
    assert (out / "history.csv").is_file()
    assert (out / "profile.csv").is_file()
    header, rows = _read_csv(out / "summary.csv")
    assert rows[0][header.index("converged")] == "0"


def test_non_finite_stop_keeps_history(tmp_path, monkeypatch, capsys):
    # the residual of the third iteration is NaN: exit 1, and history.csv
    # holds the two iterations before it
    import momentmg.cycle as cycle_mod
    real_norm = cycle_mod.residual_norm_of
    residuals = []

    def nan_after_two(*args, **kwargs):
        res, terms = real_norm(*args, **kwargs)
        residuals.append(res)  # the first call is the initial residual
        return (float("nan") if len(residuals) == 4 else res), terms

    monkeypatch.setattr(cycle_mod, "residual_norm_of", nan_after_two)
    out = tmp_path / "run"
    assert main(["run", "--config", "couette", "--out", str(out),
                 "--cells", "8", "--levels", "2"]) == EXIT_CRASH
    assert "after 3 iterations" in capsys.readouterr().err
    header, rows = _read_csv(out / "history.csv")
    assert header == ["iteration", "residual", "wall_seconds"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [float(r[1]) for r in rows] == residuals[1:3]
    assert not (out / "summary.csv").exists()


def test_mid_solve_moment_error_keeps_history(tmp_path, monkeypatch, capsys):
    # a BoundaryError out of the wall flux in the third iteration: exit 1,
    # and history.csv holds the two iterations before it
    import momentmg.cycle as cycle_mod
    import momentmg.residual as residual_mod
    from momentmg.errors import BoundaryError
    real_norm = cycle_mod.residual_norm_of
    real_wall_flux = residual_mod.wall_flux
    residuals = []

    def recording_norm(*args, **kwargs):
        res, terms = real_norm(*args, **kwargs)
        residuals.append(res)  # the first call is the initial residual
        return res, terms

    def failing_wall_flux(*args, **kwargs):
        if len(residuals) == 3:
            raise BoundaryError("injected wall failure")
        return real_wall_flux(*args, **kwargs)

    monkeypatch.setattr(cycle_mod, "residual_norm_of", recording_norm)
    monkeypatch.setattr(residual_mod, "wall_flux", failing_wall_flux)
    out = tmp_path / "run"
    assert main(["run", "--config", "couette", "--out", str(out),
                 "--cells", "8"]) == EXIT_CRASH
    assert "injected wall failure" in capsys.readouterr().err
    header, rows = _read_csv(out / "history.csv")
    assert header == ["iteration", "residual", "wall_seconds"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [float(r[1]) for r in rows] == residuals[1:3]
    assert not (out / "summary.csv").exists()


def test_run_writes_expected_outputs(tmp_path):
    out = tmp_path / "couette"
    code = main(["run", "--config", "couette", "--out", str(out),
                 "--cells", "8", "--levels", "2", "--tol", "1e-6"])
    assert code == EXIT_OK

    header, rows = _read_csv(out / "history.csv")
    assert header == ["iteration", "residual", "wall_seconds"]
    assert [r[0] for r in rows] == [str(k + 1) for k in range(len(rows))]
    res = [float(r[1]) for r in rows]
    assert res[-1] <= 1e-6

    header, rows = _read_csv(out / "profile.csv")
    assert header == ["x", "rho", "theta", "u2", "sigma12", "q1"]
    assert len(rows) == 8
    u2 = [float(r[3]) for r in rows]
    assert u2 == sorted(u2)  # Couette: tangential velocity grows wall to wall

    header, rows = _read_csv(out / "summary.csv")
    assert header == ["converged", "levels", "strategy", "K", "T",
                      "coarse_calls", "rejected_corrections", "backoffs"]
    assert rows[0][0] == "1"
    assert rows[0][1] == "2"
    K = int(rows[0][header.index("K")])
    assert int(rows[0][header.index("coarse_calls")]) == K  # gamma = 1
    assert rows[0][header.index("rejected_corrections")] == "0"
    assert rows[0][header.index("backoffs")] == "0"


def test_summary_counts_backoffs(tmp_path, monkeypatch):
    # the solver's back-off counter reaches summary.csv
    import momentmg.cli as cli_mod
    from momentmg.scenarios import ScenarioConfig
    from test_smoother import near_vacuum_pair
    field, grid, src = near_vacuum_pair()
    monkeypatch.setattr(ScenarioConfig, "build", lambda self: (field, grid, src, None))
    results = []
    real_solve = cli_mod.solve

    def recording_solve(*args, **kwargs):
        results.append(real_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_mod, "solve", recording_solve)
    run_benchmark(couette_config(N=2, M=3, levels=1, max_iters=1), tmp_path / "run")
    header, rows = _read_csv(tmp_path / "run" / "summary.csv")
    backoffs = int(rows[0][header.index("backoffs")])
    assert backoffs > 0
    assert backoffs == results[0].diagnostics.backoffs


def test_run_baseline_reports_speedups(tmp_path):
    out = tmp_path / "base"
    code = main(["run", "--config", "couette", "--out", str(out),
                 "--cells", "8", "--levels", "2", "--tol", "1e-5",
                 "--baseline"])
    assert code == EXIT_OK
    header, rows = _read_csv(out / "summary.csv")
    assert header[-4:] == ["K_s", "T_s", "K_s/K", "T_s/T"]
    k = int(rows[0][header.index("K")])
    k_s = int(rows[0][header.index("K_s")])
    assert float(rows[0][header.index("K_s/K")]) == pytest.approx(k_s / k)


def test_history_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--config", "couette", "--out", str(out),
                     "--cells", "8", "--levels", "2", "--tol", "1e-5"]) == EXIT_OK
        _h, rows = _read_csv(out / "history.csv")
        outs.append([(r[0], r[1]) for r in rows])  # iteration, residual
    assert outs[0] == outs[1]


def test_resting_couette_profile_is_uniform(tmp_path):
    cfg = tmp_path / "rest.cfg"
    cfg.write_text("[scenario]\nkind = couette\nN = 8\nu_wall_right = 0 0\n"
                   "[solver]\nlevels = 2\n")
    out = tmp_path / "rest"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _h, rows = _read_csv(out / "profile.csv")
    for r in rows:
        assert float(r[1]) == pytest.approx(1.0, abs=1e-12)  # rho
        assert float(r[2]) == pytest.approx(1.0, abs=1e-12)  # theta
        assert float(r[3]) == pytest.approx(0.0, abs=1e-12)  # u2


def test_matrix_outputs(tmp_path):
    out = tmp_path / "matrix"
    code = main(["matrix", "--config", "couette", "--out", str(out),
                 "--cells", "8", "--orders", "4", "--levels", "1,2",
                 "--workers", "2"])
    assert code == EXIT_OK
    header, rows = _read_csv(out / "matrix.csv")
    assert header[:4] == ["N", "M", "levels", "strategy"]
    by_levels = {r[2]: r for r in rows}
    assert set(by_levels) == {"1", "2"}
    assert by_levels["1"][3] == "-"
    # speedup columns filled and equal to the cross ratio of the K column
    k1 = int(by_levels["1"][5])
    k2 = int(by_levels["2"][5])
    assert float(by_levels["2"][7]) == pytest.approx(k1 / k2)
    assert float(by_levels["1"][7]) == pytest.approx(1.0)
    assert (out / "N8_M4_L1").is_dir()
    assert (out / "N8_M4_L2_minus-two").is_dir()
