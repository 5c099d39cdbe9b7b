"""Grid sweeps over (theta, delta) and eta with caching and deterministic
parallel assembly.

Blocks of rows (fixed theta) are independent tasks sharing one immutable
table and one precomputed delta-factor matrix; each task evaluates its rows
with `partialwave`'s series loop and writes its own output slice, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import partialwave
from .errors import ResourceLimitError, StrengthBoundError
from .kinematics import PhysicalScenario, build_scenario_from_eta
from .partialwave import PartialWaveTable, PhaseShiftKind, PhaseShiftModel

__all__ = [
    "Quantity",
    "GridSpec",
    "FieldResult",
    "sweep",
    "EtaSweepResult",
    "eta_sweep",
    "TableCache",
    "field_to_csv",
    "field_to_json",
]

DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes of output matrix


class Quantity(enum.Enum):
    PROBABILITY = "probability"
    DCS = "dcs"
    FORWARD_PART = "forward"
    SCATTER_PART = "scatter"


@dataclass(frozen=True)
class GridSpec:
    theta_min: float
    theta_max: float
    theta_n: int
    delta_min: float
    delta_max: float
    delta_n: int

    def __post_init__(self):
        if self.theta_n < 1 or self.delta_n < 1:
            raise ValueError("grid sizes must be >= 1")
        if self.theta_min > self.theta_max or self.delta_min > self.delta_max:
            raise ValueError("grid bounds must satisfy min <= max")
        if not (0.0 <= self.theta_min and self.theta_max <= np.pi):
            raise ValueError("theta bounds must lie within [0, pi]")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.theta_n)

    @property
    def deltas(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.delta_n)


@dataclass(frozen=True)
class FieldResult:
    """Dense theta-major value matrix plus provenance."""

    grid: GridSpec
    quantity: Quantity
    values: np.ndarray
    scenario: PhysicalScenario
    model_kind: PhaseShiftKind
    l_max: int
    wall_time_s: float
    checksum: str
    terms_summed: int

    def __post_init__(self):
        if self.values.shape != (self.grid.theta_n, self.grid.delta_n):
            raise ValueError("value matrix does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if self.quantity is Quantity.PROBABILITY:
            # the series normalization is exact only to O(eps^2); at the
            # reference eps = 1e-3 this is the 1e-6 unitarity allowance
            bound = 1.0 + max(1e-6, self.scenario.eps ** 2)
            if self.values.min() < 0.0 or self.values.max() > bound:
                raise ValueError(
                    f"probability field outside [0, {bound}]: "
                    f"min={self.values.min()}, max={self.values.max()}"
                )


def _input_checksum(table: PartialWaveTable, grid: GridSpec, quantity: Quantity) -> str:
    sc = table.scenario
    h = hashlib.sha256()
    h.update(repr((sc.Z1, sc.Z2, sc.m0, sc.E, sc.eps, sc.eta)).encode())
    h.update(repr((table.model.kind.value, table.l_max)).encode())
    if table.model.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
        h.update(table.model.delta_l.tobytes())
        h.update(table.model.ddelta_dk.tobytes())
    h.update(repr((grid.theta_min, grid.theta_max, grid.theta_n,
                   grid.delta_min, grid.delta_max, grid.delta_n)).encode())
    h.update(quantity.value.encode())
    return h.hexdigest()


# quantity -> (series part, reduction of its (re, im) to the stored value)
_QUANTITY_PARTS = {
    Quantity.PROBABILITY: ("full", partialwave._abs2),
    Quantity.DCS: ("full", partialwave._abs2),
    Quantity.FORWARD_PART: ("forward", lambda re, _im: re),
    Quantity.SCATTER_PART: ("scatter", partialwave._abs2),
}


def sweep(table: PartialWaveTable, grid: GridSpec, quantity: Quantity,
          workers: int = 1,
          memory_budget: Optional[int] = None) -> FieldResult:
    """Evaluate a quantity over the grid with row-parallel, fixed-order assembly.

    PROBABILITY and DCS fields hold P and P / (16 eps^4 p^2); FORWARD_PART
    holds the (real) forward amplitude A_F and SCATTER_PART holds |A_S|^2.
    Every cell is bit-identical to the corresponding single-point evaluation.
    """
    if memory_budget is None:
        memory_budget = DEFAULT_MEMORY_BUDGET
    need = grid.theta_n * grid.delta_n * 8
    if need > memory_budget:
        raise ResourceLimitError(
            f"output matrix needs {need} bytes, budget is {memory_budget}"
        )
    start = time.perf_counter()
    thetas = grid.thetas
    part, reduce = _QUANTITY_PARTS[quantity]
    g = partialwave._delta_factors(table, grid.deltas)
    values = np.empty((grid.theta_n, grid.delta_n))
    blocks = list(partialwave._theta_chunks(grid.theta_n, table.l_max))
    # split further so several workers can run even on one chunk-sized grid
    if workers > 1 and len(blocks) < workers:
        bounds = np.linspace(0, grid.theta_n, workers * 2 + 1).astype(int)
        blocks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def fill(block):
        i0, i1 = block
        values[i0:i1] = reduce(*partialwave._eval_grid(table, thetas[i0:i1], g, part))

    if workers <= 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))

    if quantity is Quantity.DCS:
        sc = table.scenario
        values *= 1.0 / (16.0 * sc.eps ** 4 * sc.p ** 2)

    wall = time.perf_counter() - start
    values.flags.writeable = False
    return FieldResult(
        grid=grid,
        quantity=quantity,
        values=values,
        scenario=table.scenario,
        model_kind=table.model.kind,
        l_max=table.l_max,
        wall_time_s=wall,
        checksum=_input_checksum(table, grid, quantity),
        terms_summed=grid.theta_n * grid.delta_n * (table.l_max + 1),
    )


class TableCache:
    """Content-keyed cache of built tables for eta/energy sweeps."""

    def __init__(self):
        self._store: dict[str, PartialWaveTable] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(scenario: PhysicalScenario, model: PhaseShiftModel,
            tail_tol: Optional[float], l_max: Optional[int]) -> str:
        h = hashlib.sha256()
        h.update(repr((scenario.eps, scenario.eta, model.kind.value,
                       tail_tol, l_max)).encode())
        if model.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
            h.update(model.delta_l.tobytes())
            h.update(model.ddelta_dk.tobytes())
        return h.hexdigest()

    def get_or_build(self, scenario: PhysicalScenario, model: PhaseShiftModel,
                     tail_tol: Optional[float] = None,
                     l_max: Optional[int] = None) -> PartialWaveTable:
        k = self.key(scenario, model, tail_tol, l_max)
        table = self._store.get(k)
        if table is None:
            self.misses += 1
            table = partialwave.build_table(scenario, model, tail_tol=tail_tol,
                                            l_max=l_max)
            self._store[k] = table
        else:
            self.hits += 1
        return table


@dataclass(frozen=True)
class EtaSweepResult:
    etas: np.ndarray
    probabilities: np.ndarray  # NaN where the strength bound rejected eta
    errors: dict


def eta_sweep(scenario_template: PhysicalScenario, etas, theta: float,
              delta: float, model: Optional[PhaseShiftModel] = None,
              tail_tol: Optional[float] = None,
              cache: Optional[TableCache] = None) -> EtaSweepResult:
    """One probability per eta, each from a table looked up in `cache`.

    Without a `cache`, tables are cached for this call only.  Strength-bound
    rejections are collected per eta rather than aborting the sweep.
    Charges, mass and eps come from the template scenario.
    """
    if model is None:
        model = PhaseShiftModel.coulomb_exact()
    if cache is None:
        cache = TableCache()
    etas = np.asarray(etas, dtype=float)
    values = np.full(etas.size, np.nan)
    errors: dict[float, str] = {}
    tpl = scenario_template
    for i, eta in enumerate(etas):
        scenario = build_scenario_from_eta(
            float(eta), tpl.eps, Z1=tpl.Z1 if tpl.Z1 else 79,
            Z2=abs(tpl.Z2) if tpl.Z2 else 2, m0=tpl.m0,
        )
        try:
            table = cache.get_or_build(scenario, model, tail_tol=tail_tol)
        except StrengthBoundError as exc:
            errors[float(eta)] = str(exc)
            continue
        values[i] = partialwave.probability(table, theta, delta)
    values.flags.writeable = False
    return EtaSweepResult(etas=etas, probabilities=values, errors=errors)


def field_to_csv(result: FieldResult, path) -> None:
    """Long-form rows (theta, delta, value), 17 significant digits."""
    thetas = result.grid.thetas
    deltas = result.grid.deltas
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,delta,value\n")
        for i, t in enumerate(thetas):
            for j, d in enumerate(deltas):
                fh.write(f"{t:.17g},{d:.17g},{result.values[i, j]:.17g}\n")


def field_to_json(result: FieldResult, path) -> None:
    """JSON envelope carrying provenance metadata alongside the matrix."""
    sc = result.scenario
    doc = {
        "quantity": result.quantity.value,
        "scenario": {
            "Z1": sc.Z1, "Z2": sc.Z2, "m0_mev": sc.m0, "E_mev": sc.E,
            "eps": sc.eps, "eta": sc.eta, "p_mev": sc.p,
        },
        "model": result.model_kind.value,
        "l_max": result.l_max,
        "grid": {
            "theta_min": result.grid.theta_min,
            "theta_max": result.grid.theta_max,
            "theta_n": result.grid.theta_n,
            "delta_min": result.grid.delta_min,
            "delta_max": result.grid.delta_max,
            "delta_n": result.grid.delta_n,
        },
        "checksum": result.checksum,
        "terms_summed": result.terms_summed,
        "wall_time_s": result.wall_time_s,
        "generated_unix": time.time(),
        "values": [[float(v) for v in row] for row in result.values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
