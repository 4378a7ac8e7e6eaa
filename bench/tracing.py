"""Span tracer that wraps the public functions of the ``momentmg`` modules.

Every call of a wrapped function records one span: its name, its parent
span, its start and end (``time.perf_counter``), a small integer tag taken
from the arguments (the level of a cycle, the order of a sweep, whether a
basis change is an identity) and whether it raised.  Spans are kept in
flat arrays in memory and written out once, when the run ends.

The wrappers replace the function in every ``momentmg`` module namespace
that imported it, so the package itself is not changed; ``uninstall``
puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

__all__ = ["Tracer", "LAYERS"]


def _identity_change(coeffs, u_from, theta_from, u_to, theta_to, table=None):
    """1 when source and target centres coincide (the copy path of change_basis)."""
    return int(theta_from == theta_to and np.array_equal(u_from, u_to))


def _level(level, *args, **kwargs):
    return level


def _field_order(field, *args, **kwargs):
    return field.order


# (module, function, span name, tag) for every traced layer boundary
LAYERS = [
    ("cycle", "solve", "cycle.solve", None),
    ("cycle", "nmlm_cycle", "cycle.nmlm_cycle", _level),
    ("cycle", "residual_norm_of", "cycle.residual_norm_of", None),
    ("smoother", "sgs_sweep", "smoother.sgs_sweep", _field_order),
    ("smoother", "richardson_step", "smoother.richardson_step", None),
    ("residual", "cell_defect", "residual.cell_defect", None),
    ("residual", "field_residuals", "residual.field_residuals", None),
    ("fluxes", "numerical_flux", "fluxes.numerical_flux", None),
    ("walls", "wall_flux", "walls.wall_flux", None),
    ("basis", "change_basis", "basis.change_basis", _identity_change),
    ("basis", "max_wave_speed", "basis.max_wave_speed", None),
    ("equilibrium", "equilibrium_coeffs", "equilibrium.equilibrium_coeffs", None),
    ("states", "recover_macros", "states.recover_macros", None),
    ("transfer", "coarse_rhs", "transfer.coarse_rhs", None),
    ("transfer", "prolong_correction", "transfer.prolong_correction", None),
    ("transfer", "restrict_state", "transfer.restrict_state", None),
    ("norms", "local_residual_norm", "norms.local_residual_norm", None),
    ("grid", "mass_correction", "grid.mass_correction", None),
    ("scenarios", "load_config", "scenarios.load_config", None),
]


class Tracer:
    """Spans of one traced solve, kept in flat arrays indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.tag.append(tag)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, tag=None):
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid, tag(*args, **kwargs) if tag is not None else 0)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
        return traced

    def wrap_first_call(self, fn, name: str):
        """Span only the first call per argument: the construction of a
        per-order cached table, not the later cache hits."""
        nid = self._name(name)
        seen = set()

        @functools.wraps(fn)
        def traced(M):
            if M in seen:
                return fn(M)
            seen.add(M)
            idx = self._open(nid, M)
            try:
                return fn(M)
            finally:
                self._close(idx)
        return traced

    def _replace(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "momentmg" and not modname.startswith("momentmg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary in the imported ``momentmg`` package."""
        mods = sys.modules
        for modname, fname, span, tag in LAYERS:
            fn = getattr(mods[f"momentmg.{modname}"], fname)
            self._replace(fn, self.wrap(fn, span, tag))
        table = mods["momentmg.indices"].OrderTable
        self._replace(table, self.wrap_first_call(table, "indices.order_table"))
        cls = mods["momentmg.scenarios"].ScenarioConfig
        self._restore.append((cls, "build", cls.build))
        cls.build = self.wrap(cls.build, "scenarios.build")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
