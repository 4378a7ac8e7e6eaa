"""Benchmark presets and the flat config format."""

import pytest
from hypothesis import given, settings, strategies as st

from momentmg import (BoundarySpec, CollisionKind, CollisionSpec, ConfigError, NuLaw,
                      ReductionStrategy, ScenarioConfig, ScenarioKind, ScenarioSource,
                      couette_config, load_config, parse_config, poiseuille_config)
from momentmg.scenarios import preset_names, preset_path


def test_couette_preset_values():
    cfg = couette_config()
    assert cfg.kind is ScenarioKind.COUETTE
    assert (cfg.L, cfg.N, cfg.M) == (1.0, 128, 4)
    assert cfg.collision.kind is CollisionKind.ESBGK
    assert cfg.collision.prandtl == pytest.approx(2.0 / 3.0)
    assert cfg.collision.nu_law is NuLaw.POWER_LAW
    assert cfg.collision.kn == 0.1199
    assert cfg.collision.w == 0.81
    assert cfg.walls[0].u_wall == (0.0, 0.0)
    assert cfg.walls[1].u_wall == (1.2577, 0.0)
    assert cfg.walls[0].theta_wall == cfg.walls[1].theta_wall == 1.0
    assert cfg.force == (0.0, 0.0, 0.0)


def test_poiseuille_preset_values():
    cfg = poiseuille_config()
    assert cfg.kind is ScenarioKind.POISEUILLE
    assert cfg.collision.nu_law is NuLaw.HARD_SPHERE
    assert cfg.collision.kn == 0.1
    assert cfg.force == (0.0, 0.2555, 0.0)
    assert cfg.walls[0].u_wall == cfg.walls[1].u_wall == (0.0, 0.0)


def test_preset_overrides():
    cfg = couette_config(N=32, M=6, levels=3)
    assert (cfg.N, cfg.M, cfg.levels) == (32, 6, 3)
    assert cfg.collision.kn == 0.1199  # untouched fields keep preset values


def test_plan_single_level_counts_sweeps():
    plan = couette_config(levels=1, s3=10).plan()
    assert plan.orders == (4,)
    assert plan.s3 == 1


def test_plan_multilevel_keeps_s3():
    plan = couette_config(M=6, levels=3, strategy=ReductionStrategy.MINUS_TWO).plan()
    assert plan.orders == (2, 4, 6)
    assert plan.s3 == 10


def test_build_shapes():
    field, grid, src, walls = couette_config(N=8).build()
    assert len(field.cells) == 8
    assert field.order == 4
    assert grid.length == 1.0
    assert walls[1].u_wall == (1.2577, 0.0)
    assert src.force == (0.0, 0.0, 0.0)


def test_invalid_configs_raise():
    with pytest.raises(ConfigError):
        couette_config(N=0)
    with pytest.raises(ConfigError):
        couette_config(M=1)
    with pytest.raises(ConfigError):
        couette_config(theta0=0.0)
    with pytest.raises(ConfigError):
        couette_config(tol=-1e-8)
    with pytest.raises(ConfigError):
        couette_config(force=(0.0, 0.1, 0.0))  # Couette carries no force
    with pytest.raises(ConfigError):
        poiseuille_config(walls=couette_config().walls)  # moving wall


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_config_error(tol):
    with pytest.raises(ConfigError, match="finite and positive"):
        couette_config(tol=float(tol))
    with pytest.raises(ConfigError, match="finite and positive"):
        parse_config(f"[scenario]\nkind = couette\n[solver]\ntol = {tol}\n")


def test_parse_minimal_config():
    cfg = parse_config("[scenario]\nkind = couette\n")
    assert cfg == couette_config()


def test_parse_overrides_and_comments():
    text = """
# comment line
[scenario]
kind = poiseuille   # inline comment
N = 64
M = 6
kn = 0.2
force = 0 0.1 0

[solver]
levels = 2
strategy = halve
tol = 1e-6
"""
    cfg = parse_config(text)
    assert cfg.kind is ScenarioKind.POISEUILLE
    assert (cfg.N, cfg.M) == (64, 6)
    assert cfg.collision.kn == 0.2
    assert cfg.force == (0.0, 0.1, 0.0)
    assert cfg.levels == 2
    assert cfg.strategy is ReductionStrategy.HALVE
    assert cfg.tol == 1e-6


def test_parse_wall_keys():
    text = """
[scenario]
kind = couette
theta_wall_left = 1.1
u_wall_right = 0.5 0
chi = 0.8
"""
    cfg = parse_config(text)
    assert cfg.walls[0].theta_wall == 1.1
    assert cfg.walls[1].u_wall == (0.5, 0.0)
    assert cfg.walls[0].chi == cfg.walls[1].chi == 0.8


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("kind = couette\n")  # no section header
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nN = 64\n")  # kind missing
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nkind = vortex\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nkind = couette\nforce = 1 2\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nkind = couette\nM = two\n")


def test_presets_ship_as_loadable_files():
    assert preset_names() == ["couette", "poiseuille"]
    # shipped files default to the accelerated two-level setup
    assert load_config(preset_path("couette")) == couette_config(levels=2)
    assert load_config(preset_path("poiseuille")) == poiseuille_config(levels=2)
    with pytest.raises(ConfigError):
        preset_path("vortex")


def test_config_is_hashable_and_frozen():
    cfg = couette_config()
    with pytest.raises(Exception):
        cfg.N = 10  # type: ignore[misc]
    assert isinstance(cfg, ScenarioConfig)


NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["L", "rho0", "theta0", "cfl", "u0", "force"]), NON_FINITE,
       st.integers(0, 2))
def test_non_finite_scenario_values_are_config_errors(key, bad, d):
    make = poiseuille_config if key == "force" else couette_config
    value = bad
    if key in ("u0", "force"):
        value = [0.0, 0.0, 0.0]
        value[d] = bad
        value = tuple(value)
    with pytest.raises(ConfigError):
        make(**{key: value})
    if key == "force":
        with pytest.raises(ConfigError):
            ScenarioSource(CollisionSpec(), value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["prandtl", "kn", "w"]), NON_FINITE)
def test_non_finite_collision_values_are_config_errors(key, bad):
    with pytest.raises(ConfigError):
        CollisionSpec(**{key: bad})
    with pytest.raises(ConfigError):
        parse_config(f"[scenario]\nkind = couette\n{key} = {bad}\n")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["theta_wall", "chi", "u_wall"]), NON_FINITE, st.integers(0, 1))
def test_non_finite_wall_values_are_config_errors(key, bad, d):
    value = bad
    if key == "u_wall":
        value = [0.0, 0.0]
        value[d] = bad
        value = tuple(value)
    with pytest.raises(ConfigError):
        BoundarySpec(**{key: value})
    text = " ".join(str(v) for v in value) if key == "u_wall" else str(bad)
    with pytest.raises(ConfigError):
        parse_config(f"[scenario]\nkind = couette\n{key}_left = {text}\n")
