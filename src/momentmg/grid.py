"""Spatial grid, fields of moment states, and scenario data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import CollisionSpec
from .errors import ConfigError
from .states import MomentState, maxwellian_state

__all__ = ["Grid1D", "Field", "BoundarySpec", "ScenarioSource",
           "total_mass", "mass_correction"]


@dataclass(frozen=True)
class Grid1D:
    """Finite mesh nodes x_0 < ... < x_N over [x_0, x_N]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if len(nodes) < 2 or not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0.0)):
            raise ConfigError("grid nodes must be finite and strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, L: float, N: int) -> "Grid1D":
        return cls(np.linspace(0.0, L, N + 1))

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def dx(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def length(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


@dataclass
class Field:
    """Spatial array of same-order moment states (one hierarchy level)."""

    order: int
    cells: list[MomentState]

    def __post_init__(self):
        if any(c.order != self.order for c in self.cells):
            raise ValueError("all cells must share the field's order")

    def __len__(self) -> int:
        return len(self.cells)

    def copy(self) -> "Field":
        return Field(self.order, [c.copy() for c in self.cells])

    @classmethod
    def equilibrium(cls, M: int, n_cells: int, rho: float = 1.0,
                    u=(0.0, 0.0, 0.0), theta: float = 1.0) -> "Field":
        return cls(M, [maxwellian_state(M, rho, u, theta) for _ in range(n_cells)])


@dataclass(frozen=True)
class BoundarySpec:
    """Diffuse/specular wall: temperature, tangential velocity, accommodation."""

    theta_wall: float = 1.0
    u_wall: tuple[float, float] = (0.0, 0.0)  # (u2, u3) tangential components
    chi: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta_wall < np.inf:
            raise ConfigError("wall temperature must be finite and positive")
        if not 0.0 <= self.chi <= 1.0:
            raise ConfigError("accommodation coefficient must lie in [0, 1]")
        if not np.all(np.isfinite(self.u_wall)):
            raise ConfigError("wall velocity must be finite")


@dataclass(frozen=True)
class ScenarioSource:
    """Right-hand-side data: external acceleration and collision model."""

    collision: CollisionSpec
    force: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not np.all(np.isfinite(self.force)):
            raise ConfigError("force must be finite")


def total_mass(f: Field, grid: Grid1D) -> float:
    return float(sum(c.rho * dx for c, dx in zip(f.cells, grid.dx)))


def mass_correction(f: Field, grid: Grid1D, target_mass: float) -> Field:
    """Rescale every cell's coefficients so the total mass matches the
    target; (u, theta) and all density-normalized moments are untouched."""
    current = total_mass(f, grid)
    if current <= 0.0:
        raise ValueError(f"non-positive total mass {current}")
    scale = target_mass / current
    if scale != 1.0:
        for c in f.cells:
            c.coeffs *= scale
    return f
