"""Steady-state solver for hyperbolic Hermite moment models in 1-D.

The package is organized around a few layers:

* ``indices`` / ``basis`` / ``states``: multi-index bookkeeping, the
  Hermite-coefficient representation of a distribution function, and the
  expansion-center transformation that everything else relies on.
* ``equilibrium`` / ``norms``: relaxation targets of the BGK-family
  collision models and the weighted residual norms.
* ``grid`` / ``fluxes`` / ``walls`` / ``residual``: the finite-volume
  discretization.
* ``smoother`` / ``transfer`` / ``cycle``: the symmetric Gauss-Seidel
  Richardson smoother, order restriction/prolongation, and the recursive
  multi-level correction cycle with its outer steady-state driver.
* ``scenarios`` / ``cli``: Couette/Poiseuille benchmark setups and the
  command-line benchmark runner.
"""

from .indices import OrderTable, moment_count, rank, unrank
from .states import MomentState, DerivedMoments, derived_moments, recover_macros
from .basis import change_basis, max_wave_speed
from .equilibrium import CollisionSpec, CollisionKind, NuLaw, collision_frequency, equilibrium_coeffs
from .norms import local_residual_norm, global_residual_norm
from .grid import Grid1D, Field, BoundarySpec, ScenarioSource, mass_correction, total_mass
from .smoother import SmootherConfig, smooth, sgs_sweep, richardson_step
from .cycle import (CyclePlan, ReductionStrategy, ConvergenceRecord, SolveResult,
                    CycleDiagnostics, order_sequence, nmlm_cycle, solve)
from .scenarios import (ScenarioKind, ScenarioConfig, couette_config,
                        poiseuille_config, parse_config, load_config, ConfigError)
from .errors import PositivityError, EquilibriumDomainError, BoundaryError, ConvergenceError

__all__ = [
    "OrderTable", "moment_count", "rank", "unrank",
    "MomentState", "DerivedMoments", "derived_moments", "recover_macros",
    "change_basis", "max_wave_speed",
    "CollisionSpec", "CollisionKind", "NuLaw", "collision_frequency", "equilibrium_coeffs",
    "local_residual_norm", "global_residual_norm",
    "Grid1D", "Field", "BoundarySpec", "ScenarioSource", "mass_correction", "total_mass",
    "SmootherConfig", "smooth", "sgs_sweep", "richardson_step",
    "CyclePlan", "ReductionStrategy", "ConvergenceRecord", "SolveResult",
    "CycleDiagnostics", "order_sequence", "nmlm_cycle", "solve",
    "ScenarioKind", "ScenarioConfig", "couette_config", "poiseuille_config",
    "parse_config", "load_config", "ConfigError",
    "PositivityError", "EquilibriumDomainError", "BoundaryError", "ConvergenceError",
]
