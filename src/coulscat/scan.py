"""Grid sweeps over (theta, delta), a request-keyed table cache, and the
package's CSV and JSON file writers.

A sweep runs `partialwave._eval_grid`, whose chunk pipeline also checks the
memory budget and runs the thread pool: each Legendre chunk's moments are
combined with the Hermite functions of the deltas, built once per sweep, and
written to the chunk's own output rows, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import observables, partialwave
from .kinematics import PhysicalScenario
from .partialwave import PartialWaveTable, PhaseShiftKind, PhaseShiftModel

__all__ = [
    "Quantity",
    "GridSpec",
    "FieldResult",
    "sweep",
    "TableCache",
    "field_to_csv",
    "field_to_json",
    "write_csv",
    "write_json",
]

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
        if not np.all(np.isfinite([self.theta_min, self.theta_max,
                                   self.delta_min, self.delta_max])):
            raise ValueError("grid bounds must be finite")
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
    """Dense theta-major value matrix plus provenance.  terms_summed counts
    the Hermite expansion's terms per component that ran (c = 2 for
    (re, im), 1 for the real forward part): theta_n * cK(L+1) for the
    moments plus theta_n * delta_n * c * n_box * K for the cells."""

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


# quantity -> (series part, reduction of its components, (re, im) or the
# real part's (re,), to the stored value)
_QUANTITY_PARTS = {
    Quantity.PROBABILITY: ("full", partialwave._abs2),
    Quantity.DCS: ("full", partialwave._abs2),
    Quantity.FORWARD_PART: ("forward", lambda re: re),
    Quantity.SCATTER_PART: ("scatter", partialwave._abs2),
}


def sweep(table: PartialWaveTable, grid: GridSpec, quantity: Quantity,
          workers: int = 1) -> FieldResult:
    """Evaluate a quantity over the grid with row-parallel, fixed-order assembly.

    PROBABILITY and DCS fields hold P and P / (16 eps^4 p^2); FORWARD_PART
    holds the (real) forward amplitude A_F and SCATTER_PART holds |A_S|^2.
    Every cell is bit-identical to the corresponding single-point evaluation.
    """
    start = time.perf_counter()
    part, reduce = _QUANTITY_PARTS[quantity]
    values = partialwave._eval_grid(table, grid.thetas, grid.deltas, part, workers, reduce)
    if quantity is Quantity.DCS:
        values *= observables.dcs_factor(table.scenario)

    wall = time.perf_counter() - start
    values.flags.writeable = False
    components = len(table._kernel(part))
    return FieldResult(
        grid=grid,
        quantity=quantity,
        values=values,
        scenario=table.scenario,
        model_kind=table.model.kind,
        l_max=table.l_max,
        wall_time_s=wall,
        checksum=_input_checksum(table, grid, quantity),
        terms_summed=grid.theta_n * components * table.n_hermite * (
            table.l_max + 1 + grid.delta_n * table.box_centres.size),
    )


class TableCache:
    """Cache of built tables, keyed by the resolved request: the scenario
    (every field: a short-range model's xi_l depends on sigma_x, a Coulomb
    table's on p and R), the model's kind with a short-range model's
    phase-shift arrays, and the l_max of `partialwave.resolve_l_max`, so
    requests that resolve to one l_max share one table.
    """

    def __init__(self):
        self._store: dict[tuple, PartialWaveTable] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, scenario: PhysicalScenario, model: PhaseShiftModel,
                     tail_tol: Optional[float] = None,
                     l_max: Optional[int] = None) -> PartialWaveTable:
        l_max = partialwave.resolve_l_max(scenario.eps, tail_tol, l_max)
        key = (scenario, model.kind, l_max)
        if model.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
            key += (model.delta_l.tobytes(), model.ddelta_dk.tobytes())
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
            self._store[key] = partialwave.build_table(scenario, model, l_max=l_max)
        return self._store[key]


def _stream(path):
    """Context manager over the text stream for `path`: the file, opened for
    writing, or stdout for None or '-'.  Every file the package writes is
    opened here."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def write_csv(path, header: str, rows) -> None:
    """Write a `header` line and one comma-separated line per row.

    Each row holds one value per header column.  Every value is written with
    17 significant digits (ints as plain integers) and no timestamp is added,
    so the bytes depend only on the data.  `path` None or '-' writes to
    stdout.  `field_to_csv` writes the same format for a grid.
    """
    line = (",".join(["{:.17g}"] * (header.count(",") + 1)) + "\n").format
    with _stream(path) as out:
        out.write(header + "\n")
        out.writelines(line(*row) for row in rows)


def write_json(path, payload: dict) -> None:
    """Write `payload` plus a `generated_unix` timestamp as one JSON line.

    `path` None or '-' writes to stdout.
    """
    text = json.dumps({**payload, "generated_unix": time.time()})
    with _stream(path) as out:
        out.write(text + "\n")


def field_to_csv(result: FieldResult, path) -> None:
    """Long-form rows (theta, delta, value), 17 significant digits, in
    `write_csv`'s format; `path` None or '-' writes to stdout.

    Each theta and each delta is formatted once per grid: a theta row's
    lines are one `%`-template, the row's theta and the grid's deltas
    already in it, applied to the row's values.  `%.17g` and `{:.17g}` give
    the same digits, so the bytes are those of a `write_csv` of the triples.
    """
    tails = [",%.17g,%%.17g\n" % d for d in result.grid.deltas.tolist()]
    thetas = ["%.17g" % t for t in result.grid.thetas.tolist()]
    with _stream(path) as out:
        out.write("theta,delta,value\n")
        for t, row in zip(thetas, result.values.tolist()):
            out.write((t + t.join(tails)) % tuple(row))


def field_to_json(result: FieldResult, path) -> None:
    """JSON envelope carrying provenance metadata alongside the matrix."""
    sc = result.scenario
    write_json(path, {
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
        "values": result.values.tolist(),
    })
