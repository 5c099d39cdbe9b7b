"""Grid sweeps over (theta, delta), a request-keyed table cache, and the
package's CSV and JSON file writers.

A sweep checks the memory budget from the grid's counts, before its
angles exist, and runs `partialwave._eval_grid`, which reduces each
Legendre chunk's moments to the quantity in the chunk's own rows of the
sweep's one output (a DCS field is then scaled in place), on more than one
worker split by rows over threads, so results are bit-identical for any
worker count.  Its `_input_checksum` hashes with CPython's builtin SHA-256,
imported on first use; `hashlib`, which loads OpenSSL, is imported only on
a build without it.

The writers stream, in batches of `_BATCH_VALUES` values: a field's rows
are converted to Python floats as many rows at a time as fit the budget,
and `write_json`, which imports `json` on first use, encodes a value given
as an iterator as many items at a time, so an export holds about one
budget, or one row when a row is longer, never the whole grid as Python
objects.
"""

from __future__ import annotations

import collections.abc
import contextlib
import enum
import operator
import sys
import time
from dataclasses import asdict, dataclass

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
        object.__setattr__(self, "theta_n", operator.index(self.theta_n))
        object.__setattr__(self, "delta_n", operator.index(self.delta_n))
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
        # min and max propagate a NaN: both finite means every value is
        lo, hi = float(self.values.min()), float(self.values.max())
        if not np.isfinite([lo, hi]).all():
            raise ValueError("field contains non-finite values")
        if self.quantity is Quantity.PROBABILITY:
            # the series normalization is exact only to O(eps^2); at the
            # reference eps = 1e-3 this is the 1e-6 unitarity allowance
            bound = 1.0 + max(1e-6, self.scenario.eps ** 2)
            if lo < 0.0 or hi > bound:
                raise ValueError(f"probability field outside [0, {bound}]: "
                                 f"min={lo}, max={hi}")


def _input_checksum(table: PartialWaveTable, grid: GridSpec, quantity: Quantity) -> str:
    """SHA-256 hex digest of the sweep's inputs: the scenario, the model with
    a short-range model's phase shifts, l_max, the grid and the quantity.

    It uses CPython's builtin SHA-256 (`_sha2` from 3.12, `_sha256` before),
    which gives hashlib's digest without loading OpenSSL for a few hundred
    bytes, and `hashlib` only on a build without it.  Imported here, not at
    module level (see the package docstring): only a sweep needs it.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    sc = table.scenario
    h = sha256()
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
    Quantity.FORWARD_PART: ("forward", partialwave._real),
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
    # the budget, from the counts, before the grid's angles and deltas exist
    plan = partialwave._check_budget(table, grid.theta_n, grid.delta_n, workers)
    values = partialwave._eval_grid(table, grid.thetas, grid.deltas, part, reduce,
                                    plan=plan)
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
    """Cache of built tables, keyed by the request: the scenario (every
    field: a short-range model's xi_l depends on sigma_x, a Coulomb table's
    on p and R) and the model's kind with a short-range model's phase-shift
    arrays.  A table's l_max is `build_table`'s default, which eps fixes.
    """

    def __init__(self):
        self._store: dict[tuple, PartialWaveTable] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, scenario: PhysicalScenario,
                     model: PhaseShiftModel) -> PartialWaveTable:
        key = (scenario, model.kind)
        if model.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
            key += (model.delta_l.tobytes(), model.ddelta_dk.tobytes())
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
            self._store[key] = partialwave.build_table(scenario, model)
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

    Each row holds one value per header column.  Every value is written as
    `%.17g` (17 significant digits, ints as plain integers) and no timestamp
    is added, so the bytes depend only on the data.  `path` None or '-'
    writes to stdout.  `field_to_csv` writes the same format for a grid.
    """
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with _stream(path) as out:
        out.write(header + "\n")
        out.writelines(line % tuple(row) for row in rows)


# values an export converts to Python floats, or `write_json` encodes, in
# one call: a batch of rows or items holds at most this many, or one row
_BATCH_VALUES = 1024


def _batches(items):
    """Consecutive `items` in lists of at most `_BATCH_VALUES` values, a list
    counting its length and anything else 1; a longer item is a batch of
    its own, so every batch holds at least one item."""
    batch, size = [], 0
    for item in items:
        n = len(item) if isinstance(item, list) else 1
        if batch and size + n > _BATCH_VALUES:
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += n
    if batch:
        yield batch


def write_json(path, payload: dict) -> None:
    """Write `payload` plus a `generated_unix` timestamp as one JSON line,
    the bytes of `json.dumps` of the whole.

    A value that is an iterator, such as a generator of table rows, is
    written as a JSON list a batch at a time (`_batches`), so its items are
    never all held: one `json.dumps` per batch, without its brackets, keeps
    the per-call cost off short items, and the budget of values keeps long
    rows from piling up.  A NaN or infinity, which JSON lacks, is a
    ValueError.  `path` None or '-' writes to stdout.
    """
    # imported here, where a command writes JSON (see the package docstring)
    import json

    dumps = json.JSONEncoder(allow_nan=False).encode
    with _stream(path) as out:
        out.write("{")
        for key, value in payload.items():
            out.write(dumps(key) + ": ")
            if isinstance(value, collections.abc.Iterator):
                out.write("[")
                sep = ""
                for batch in _batches(value):
                    out.write(sep + dumps(batch)[1:-1])
                    sep = ", "
                out.write("]")
            else:
                out.write(dumps(value))
            out.write(", ")
        out.write('"generated_unix": ' + dumps(time.time()) + "}\n")


def _float_rows(values: np.ndarray):
    """The rows of `values` as lists of Python floats, converted as many rows
    at a time as hold `_BATCH_VALUES` values, or one row when a row holds
    more, so an export never holds the whole grid that way."""
    rows = max(1, _BATCH_VALUES // values.shape[1])
    for i0 in range(0, values.shape[0], rows):
        yield from values[i0:i0 + rows].tolist()


def field_to_csv(result: FieldResult, path) -> None:
    """Long-form rows (theta, delta, value), 17 significant digits, in
    `write_csv`'s format; `path` None or '-' writes to stdout.

    Each theta and each delta is formatted once per grid: a theta row's
    lines are one `%`-template, the row's theta and the grid's deltas
    already in it, applied to the row's values (`_float_rows`).  Every
    number is `write_csv`'s `%.17g`, so the bytes are those of a
    `write_csv` of the triples.
    """
    tails = [",%.17g,%%.17g\n" % d for d in result.grid.deltas.tolist()]
    with _stream(path) as out:
        out.write("theta,delta,value\n")
        for t, row in zip(result.grid.thetas.tolist(), _float_rows(result.values)):
            t = "%.17g" % t
            out.write((t + t.join(tails)) % tuple(row))


def field_to_json(result: FieldResult, path) -> None:
    """JSON envelope carrying provenance metadata alongside the matrix, whose
    rows `write_json` streams from `_float_rows`: the bytes of one
    `json.dumps` of `values.tolist()`, without the whole list."""
    sc = result.scenario
    write_json(path, {
        "quantity": result.quantity.value,
        "scenario": {
            "Z1": sc.Z1, "Z2": sc.Z2, "m0_mev": sc.m0, "E_mev": sc.E,
            "eps": sc.eps, "eta": sc.eta, "p_mev": sc.p,
        },
        "model": result.model_kind.value,
        "l_max": result.l_max,
        "grid": asdict(result.grid),
        "checksum": result.checksum,
        "terms_summed": result.terms_summed,
        "wall_time_s": result.wall_time_s,
        "values": _float_rows(result.values),
    })
