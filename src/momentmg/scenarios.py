"""Benchmark scenario definitions and the flat key=value config format.

A scenario bundles everything one solver run needs: the physical setup
(domain, collision model, walls, force, initial condition) and the solver
parameters (order hierarchy, cycle shape, tolerance).  Presets for the
planar Couette and force-driven Poiseuille channel flows ship as config
files under ``configs/``; :func:`parse_config` reads the same format.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass, replace
from importlib import resources

from .cycle import CyclePlan, ReductionStrategy, order_sequence
from .equilibrium import CollisionKind, CollisionSpec, NuLaw
from .errors import ConfigError
from .grid import BoundarySpec, Field, Grid1D, ScenarioSource

__all__ = ["ScenarioKind", "ScenarioConfig", "couette_config",
           "poiseuille_config", "parse_config", "load_config",
           "preset_names", "preset_path", "ConfigError"]


class ScenarioKind(enum.Enum):
    COUETTE = "couette"
    POISEUILLE = "poiseuille"


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, deterministic description of one benchmark run."""

    kind: ScenarioKind
    L: float = 1.0
    N: int = 128
    M: int = 4
    collision: CollisionSpec = CollisionSpec()
    walls: tuple[BoundarySpec, BoundarySpec] = (BoundarySpec(), BoundarySpec())
    force: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rho0: float = 1.0
    u0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    theta0: float = 1.0
    levels: int = 1
    strategy: ReductionStrategy = ReductionStrategy.MINUS_TWO
    gamma: int = 1
    s1: int = 2
    s2: int = 2
    s3: int = 10
    cfl: float = 0.9
    tol: float = 1e-8
    max_iters: int = 100000

    def __post_init__(self):
        if not 0.0 < self.L < math.inf or self.N < 1 or self.M < 2:
            raise ConfigError("need finite L > 0, N >= 1, M >= 2")
        if not (0.0 < self.rho0 < math.inf and 0.0 < self.theta0 < math.inf):
            raise ConfigError("initial density and temperature must be finite and positive")
        if not all(map(math.isfinite, (*self.u0, *self.force))):
            raise ConfigError("initial velocity and force must be finite")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("CFL factor must lie strictly in (0, 1)")
        if self.levels < 1:
            raise ConfigError("level count must be >= 1")
        if self.gamma < 1 or min(self.s1, self.s2, self.s3) < 0:
            raise ConfigError("need cycle index gamma >= 1 and smoothing counts s1, s2, s3 >= 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigError("need max_iters >= 1")
        if self.kind is ScenarioKind.COUETTE and any(f != 0.0 for f in self.force):
            raise ConfigError("Couette flow carries no body force")
        if self.kind is ScenarioKind.POISEUILLE and any(
                v != 0.0 for w in self.walls for v in w.u_wall):
            raise ConfigError("Poiseuille walls are stationary")

    def plan(self) -> CyclePlan:
        orders = order_sequence(self.M, self.strategy, self.levels)
        # a single-level solver is the plain smoother iteration: one sweep
        # per outer iteration, so reported K counts smoothing steps
        s3 = self.s3 if len(orders) > 1 else 1
        return CyclePlan(tuple(orders), gamma=self.gamma,
                         s1=self.s1, s2=self.s2, s3=s3)

    def build(self) -> tuple[Field, Grid1D, ScenarioSource, tuple[BoundarySpec, BoundarySpec]]:
        grid = Grid1D.uniform(self.L, self.N)
        field = Field.equilibrium(self.M, self.N, self.rho0, self.u0, self.theta0)
        src = ScenarioSource(self.collision, self.force)
        return field, grid, src, self.walls


def couette_config(**overrides) -> ScenarioConfig:
    """Planar Couette flow: right wall sliding tangentially, both walls at
    unit temperature, anisotropic-Gaussian collisions with a power-law
    frequency."""
    base = ScenarioConfig(
        kind=ScenarioKind.COUETTE,
        collision=CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0,
                                nu_law=NuLaw.POWER_LAW, kn=0.1199, w=0.81),
        walls=(BoundarySpec(1.0, (0.0, 0.0), 1.0),
               BoundarySpec(1.0, (1.2577, 0.0), 1.0)),
    )
    return replace(base, **overrides) if overrides else base


def poiseuille_config(**overrides) -> ScenarioConfig:
    """Force-driven Poiseuille channel flow between stationary walls,
    hard-sphere collision frequency."""
    base = ScenarioConfig(
        kind=ScenarioKind.POISEUILLE,
        collision=CollisionSpec(kind=CollisionKind.ESBGK, prandtl=2.0 / 3.0,
                                nu_law=NuLaw.HARD_SPHERE, kn=0.1),
        walls=(BoundarySpec(), BoundarySpec()),
        force=(0.0, 0.2555, 0.0),
    )
    return replace(base, **overrides) if overrides else base


_PRESETS = {
    "couette": couette_config,
    "poiseuille": poiseuille_config,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_path(name: str):
    """Filesystem path of a shipped preset config (context-manager-free;
    valid for the life of the installed package)."""
    ref = resources.files("momentmg") / "configs" / f"{name}.cfg"
    if not ref.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return ref


def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def _wall(sec, side: str, default: BoundarySpec) -> BoundarySpec:
    theta = sec.getfloat(f"theta_wall_{side}", default.theta_wall)
    chi = sec.getfloat(f"chi_{side}", sec.getfloat("chi", default.chi))
    raw = sec.get(f"u_wall_{side}", None)
    u_wall = _floats(raw, 2, f"u_wall_{side}") if raw is not None else default.u_wall
    return BoundarySpec(theta, u_wall, chi)


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat config grammar: ``key = value`` lines, ``#`` comments,
    section headers ``[scenario]``, ``[solver]``, ``[output]``."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if "scenario" not in cp:
        raise ConfigError("config needs a [scenario] section")
    sc = cp["scenario"]

    kind_name = sc.get("kind", None)
    if kind_name is None:
        raise ConfigError("[scenario] needs kind = couette | poiseuille")
    try:
        kind = ScenarioKind(kind_name.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown scenario kind {kind_name!r}") from None
    base = _PRESETS[kind.value]()

    try:
        collision = CollisionSpec(
            kind=CollisionKind(sc.get("collision", base.collision.kind.value)),
            prandtl=sc.getfloat("prandtl", base.collision.prandtl),
            nu_law=NuLaw(sc.get("nu_law", base.collision.nu_law.value)),
            kn=sc.getfloat("kn", base.collision.kn),
            w=sc.getfloat("w", base.collision.w))
        walls = (_wall(sc, "left", base.walls[0]), _wall(sc, "right", base.walls[1]))
        force = (_floats(sc["force"], 3, "force")
                 if "force" in sc else base.force)
        u0 = _floats(sc["u0"], 3, "u0") if "u0" in sc else base.u0

        sv = cp["solver"] if "solver" in cp else {}

        def solver_get(key, conv, default):
            return conv(sv[key]) if key in sv else default

        return ScenarioConfig(
            kind=kind,
            L=sc.getfloat("L", base.L),
            N=sc.getint("N", base.N),
            M=sc.getint("M", base.M),
            collision=collision,
            walls=walls,
            force=force,
            rho0=sc.getfloat("rho0", base.rho0),
            u0=u0,
            theta0=sc.getfloat("theta0", base.theta0),
            levels=solver_get("levels", int, base.levels),
            strategy=solver_get("strategy", ReductionStrategy, base.strategy),
            gamma=solver_get("gamma", int, base.gamma),
            s1=solver_get("s1", int, base.s1),
            s2=solver_get("s2", int, base.s2),
            s3=solver_get("s3", int, base.s3),
            cfl=solver_get("cfl", float, base.cfl),
            tol=solver_get("tol", float, base.tol),
            max_iters=solver_get("max_iters", int, base.max_iters),
        )
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
