"""Partial-wave table and the bounded wavepacket-to-wavepacket amplitude.

The scattering amplitude between unit-normalized Gaussian wavepackets is a
finite series over angular momentum,

    A(theta, delta) = 2 eps^2 sum_l (2l+1) e^{-2 eps^2 (l+1/2)^2}
                      e^{-(delta - xi_l)^2 / 8} e^{2i sigma_l} P_l(cos theta),

with P(theta, delta) = |A|^2 <= 1 + O(eps^2).  delta is the scaled time-shift
variable (beta * time delay in units of sigma_x) and xi_l the per-l spatial
shift.  For the Coulomb field

    xi_l = 4 eps eta (ln(2pR) - 1 - d sigma_l / d eta),

twice the momentum-derivative of the phase shift in sigma_x units once the
logarithmic-phase trajectory shift is folded into the free-transit reference.
For a short-range potential with phase shifts delta_l the same series applies
with sigma_l -> delta_l and xi_l -> (2/sigma_x) d delta_l / dk.

At a fixed angle the series is a discrete Gauss transform in delta with
sources xi_l.  With x = (delta - c)/sqrt 8, y_l = (xi_l - c)/sqrt 8 and the
Hermite functions h_n(x) = H_n(x) e^{-x^2},

    e^{-(x - y)^2} = sum_n y^n / n! h_n(x)

(Greengard & Strain, "The Fast Gauss Transform", 1991), so each contiguous
run ("box") of l whose xi lie within r sqrt 8 of a centre c contributes
sum_{n<K} M_n h_n((delta - c)/sqrt 8) with moments
M_n = sum_{l in box} kern_l P_l(cos theta) y_l^n / n!.  The moments depend on
the angle only, so one set serves every delta: O(K L) work per angle in
place of O(n_delta L).  The table fixes the boxes and takes K from Cramér's
bound on the truncated expansion, which it records (`hermite_bound`, relative
to sum_l |kern_l P_l|).

One path evaluates the series for every caller: the full amplitude A, its
forward part A_F or its scattering part A_S, each a kernel and a prefactor
from `_PARTS` (A_F is real, and only its real component is summed).
`_check_budget` plans the Legendre chunks and bounds their memory, and
`_each_chunk` runs that plan, handing each chunk's moments to the caller's
reduction (`_eval_grid`, which serves single points, grids and
`scan.sweep`, and `observables.delta_profile`).  `_moments` reduces one
theta row at a time, each moment one dot product along a box's l, and
`_combine` adds the terms in a fixed order elementwise.  A dot's
summation order depends on its length only (boxes stop at 8192 terms,
short of where BLAS splits a dot across its own threads), so identical
inputs give bit-identical results regardless of how work is partitioned
across threads or batches.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import specfun
from .errors import (
    MatchingError,
    ResourceLimitError,
    StrengthBoundError,
    TruncationMismatchError,
)
from .kinematics import PhysicalScenario, eta_bound

__all__ = [
    "PhaseShiftKind",
    "PhaseShiftModel",
    "PartialWaveTable",
    "choose_l_max",
    "resolve_l_max",
    "build_table",
    "amplitude",
    "probability",
    "amplitude_forward",
    "amplitude_scatter",
    "probability_grid",
    "square_well_phase_shifts",
]

# bytes of Legendre rows held at once (one row is 8 * (L+1) bytes): about
# 698 rows, or 33.5 MB, at L = 6000; each row is reduced to its Hermite
# moments before the next one is read
_CHUNK_BYTES = 1 << 25
DEFAULT_MEMORY_BUDGET = 1 << 30  # bytes one evaluation may hold at once

# box radius r in y = xi / sqrt 8: a box's xi spread is at most 2 r sqrt 8
_BOX_RADIUS = 0.35
# most terms in a box: OpenBLAS splits a dot product longer than 10 000
# terms across its own threads, and its rounding then depends on the
# process's BLAS thread count
_BOX_MAX_TERMS = 8192
# largest truncation error of the Hermite expansion, relative to
# sum_l |kern_l P_l|
_TRUNCATION_TOL = 2.0 ** -56
_SQRT8 = math.sqrt(8.0)
# (L+1)-value arrays held at the peak by a table with all its derived data
# (33.1 measured at eta = 800, where K = 22: 30.1 held and `sin2_sums`'
# three) plus a short-range model's two
_TABLE_ROWS = 40


class PhaseShiftKind(enum.Enum):
    COULOMB_EXACT = "coulomb-exact"
    COULOMB_ASYMPTOTIC = "coulomb-asym"
    SHORT_RANGE_TABLE = "short-range"


@dataclass(frozen=True)
class PhaseShiftModel:
    """Pluggable per-l phase-shift provider.

    For SHORT_RANGE_TABLE, `delta_l` (radians) and `ddelta_dk` (1/MeV) are
    equal-length finite arrays indexed by l.
    """

    kind: PhaseShiftKind
    delta_l: Optional[np.ndarray] = None
    ddelta_dk: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
            if self.delta_l is None or self.ddelta_dk is None:
                raise ValueError("short-range model requires delta_l and ddelta_dk")
            dl = np.asarray(self.delta_l, dtype=float)
            dd = np.asarray(self.ddelta_dk, dtype=float)
            if dl.size < 1 or dl.shape != dd.shape:
                raise ValueError("delta_l and ddelta_dk must be equal-length, size >= 1")
            if not (np.all(np.isfinite(dl)) and np.all(np.isfinite(dd))):
                raise ValueError("short-range phase-shift arrays must be finite")
            object.__setattr__(self, "delta_l", dl)
            object.__setattr__(self, "ddelta_dk", dd)
        elif self.delta_l is not None or self.ddelta_dk is not None:
            raise ValueError("phase-shift arrays only apply to short-range models")

    @classmethod
    def coulomb_exact(cls) -> "PhaseShiftModel":
        return cls(kind=PhaseShiftKind.COULOMB_EXACT)

    @classmethod
    def coulomb_asymptotic(cls) -> "PhaseShiftModel":
        return cls(kind=PhaseShiftKind.COULOMB_ASYMPTOTIC)

    @classmethod
    def short_range(cls, delta_l, ddelta_dk) -> "PhaseShiftModel":
        return cls(PhaseShiftKind.SHORT_RANGE_TABLE, delta_l, ddelta_dk)


class _Expansion(NamedTuple):
    """A table's Hermite expansion in delta; see `PartialWaveTable`."""

    box_edges: np.ndarray
    box_centres: np.ndarray
    y_powers: np.ndarray
    n_hermite: int
    hermite_bound: float


@dataclass(frozen=True, eq=False)
class PartialWaveTable:
    """Immutable per-l cache of weights, phase factors and spatial shifts.

    weight[l]    = (2l+1) exp(-2 eps^2 (l+1/2)^2)
    phase_cos/sin = cos/sin of 2 sigma_l (or 2 delta_l for short range)
    xi[l]        = per-l spatial shift in sigma_x units
    tail_bound   = rigorous bound on the neglected angular weight beyond
                   l_max, relative to the retained total

    `__post_init__` makes the four arrays read-only, so every table (a
    `dataclasses.replace` too) is an immutable value, equal only to itself
    and hashed by identity.  Data derived from these is built on its first
    read and kept with the table (`functools.cached_property`), so a table
    whose readers never need it never builds it; a `dataclasses.replace` is
    a new table that builds its own.  The Hermite expansion in delta, read
    only by evaluations at a time shift:

    box_edges    = box b holds l in [box_edges[b], box_edges[b+1])
    box_centres  = centre c of each box, the midpoint of its xi range
    y_powers     = (K, L+1) table of y_l^n / n!, y_l = (xi_l - c)/sqrt 8
    n_hermite    = K, the number of expansion terms per box
    hermite_bound = Cramér bound on the truncated expansion's error,
                   relative to sum_l |kern_l P_l| (at most 2^-56)

    and `sin2_sums` and each series part's kernel (`_kernel`), all
    read-only.  From Python 3.12 `cached_property` takes no lock, so
    `_each_chunk` builds what its threads read before it starts them.
    """

    l_max: int
    weight: np.ndarray
    phase_cos: np.ndarray
    phase_sin: np.ndarray
    xi: np.ndarray
    scenario: PhysicalScenario
    model: PhaseShiftModel
    tail_bound: float

    def __post_init__(self):
        for arr in (self.weight, self.phase_cos, self.phase_sin, self.xi):
            arr.flags.writeable = False

    @property
    def eps(self) -> float:
        return self.scenario.eps

    @functools.cached_property
    def _expansion(self) -> _Expansion:
        return _hermite_expansion(self.xi)

    box_edges = property(operator.attrgetter("_expansion.box_edges"))
    box_centres = property(operator.attrgetter("_expansion.box_centres"))
    y_powers = property(operator.attrgetter("_expansion.y_powers"))
    n_hermite = property(operator.attrgetter("_expansion.n_hermite"))
    hermite_bound = property(operator.attrgetter("_expansion.hermite_bound"))

    @functools.cached_property
    def _kernels(self) -> dict:
        # part -> its stacked kernel, added by `_kernel`
        return {}

    def _kernel(self, part: str) -> np.ndarray:
        """The kernel of the series `part` (see `_PARTS`) as read-only stacked
        components, (re, im), or (re,) for a real part, shape (c, L+1); built
        on the part's first read and kept with the table."""
        kern = self._kernels.get(part)
        if kern is None:
            kern = self._kernels[part] = _PARTS[part][0](self)
            kern.flags.writeable = False
        return kern

    @functools.cached_property
    def sin2_sums(self) -> tuple[float, float]:
        """Gaussian-damped sums of (2l+1) sin^2(sigma_l): (4 eps^2 damping,
        2 eps^2 damping)."""
        eps = self.eps
        # three L+1 arrays, each operation in place where it can be
        base = np.arange(self.l_max + 1, dtype=float)
        x = base + 0.5
        base *= 2.0
        base += 1.0
        work = np.subtract(1.0, self.phase_cos)
        work *= 0.5
        base *= work  # (2l+1) sin^2 sigma_l
        sums = []
        for c in (-4.0 * eps * eps, -2.0 * eps * eps):
            np.multiply(c, x, out=work)
            work *= x
            np.exp(work, out=work)
            work *= base
            sums.append(float(np.sum(work)))
        return tuple(sums)


def _hermite_expansion(xi: np.ndarray) -> _Expansion:
    """The boxes of `_hermite_boxes`, K and its bound from `_hermite_terms`,
    and the read-only powers y_l^n / n!."""
    edges, centres, y = _hermite_boxes(xi)
    k, bound = _hermite_terms(float(np.max(np.abs(y))))
    powers = np.empty((k, y.size))
    powers[0] = 1.0
    for n in range(1, k):
        powers[n] = powers[n - 1] * y / n
    for arr in (edges, centres, powers):
        arr.flags.writeable = False
    return _Expansion(edges, centres, powers, k, bound)


def _hermite_boxes(xi: np.ndarray):
    """Split l greedily into contiguous runs of at most _BOX_MAX_TERMS terms
    whose xi spread is at most 2 r sqrt 8 (xi need not be monotone).

    Returns the run edges, each run's centre c (the midpoint of its xi range)
    and y_l = (xi_l - c)/sqrt 8, so |y_l| <= r.
    """
    width = 2.0 * _BOX_RADIUS * _SQRT8
    edges, centres = [0], []
    while edges[-1] < xi.size:
        rest = xi[edges[-1]:]
        hi = np.maximum.accumulate(rest)
        lo = np.minimum.accumulate(rest)
        # the running spread never decreases, so the run ends where it first
        # exceeds the width
        n = min(int(np.searchsorted(hi - lo, width, side="right")), _BOX_MAX_TERMS)
        centres.append(0.5 * (hi[n - 1] + lo[n - 1]))
        edges.append(edges[-1] + n)
    edges = np.array(edges)
    centres = np.array(centres)
    y = (xi - np.repeat(centres, np.diff(edges))) / _SQRT8
    return edges, centres, y


def _hermite_terms(rho: float) -> tuple[int, float]:
    """Smallest K >= 1 whose truncation bound for |y| <= rho is at most
    _TRUNCATION_TOL, and that bound.

    Cramér's inequality |h_n(x)| <= 1.0865 2^{n/2} sqrt(n!) e^{-x^2/2} bounds
    the dropped terms sum_{n>=K} |y|^n/n! |h_n(x)| by
    1.0865 (sqrt2 rho)^K / sqrt(K!) / (1 - sqrt2 rho / sqrt(K+1)).
    """
    a = math.sqrt(2.0) * rho
    k = 1
    while True:
        bound = (1.0865 * a ** k / math.sqrt(math.factorial(k))
                 / (1.0 - a / math.sqrt(k + 1)))
        if bound <= _TRUNCATION_TOL:
            return k, bound
        k += 1


def choose_l_max(eps: float, tail_tol: Optional[float] = None) -> int:
    """Truncation index for the Gaussian-in-l weights.

    Default policy: smallest L with eps (L + 1/2) >= 6, i.e. relative tail
    weight below e^{-72}.  An explicit `tail_tol` in (0, 1e-3] instead picks
    the smallest L whose relative tail bound exp(-2 eps^2 (L+1/2)^2) is below
    the tolerance.
    """
    if tail_tol is None:
        return math.ceil(6.0 / eps - 0.5)
    if not (0.0 < tail_tol <= 1e-3):
        raise ValueError(f"tail_tol must be in (0, 1e-3], got {tail_tol}")
    return math.ceil(math.sqrt(math.log(1.0 / tail_tol) / (2.0 * eps * eps)) - 0.5)


def resolve_l_max(eps: float, tail_tol: Optional[float] = None,
                  l_max: Optional[int] = None) -> int:
    """`l_max` as given, else `choose_l_max(eps, tail_tol)`: ValueError when
    both are given or l_max < 0, ResourceLimitError when a table of that
    l_max would not fit in DEFAULT_MEMORY_BUDGET bytes with its derived data.
    """
    if l_max is None:
        l_max = choose_l_max(eps, tail_tol)
    elif tail_tol is not None:
        raise ValueError(f"give tail_tol or l_max, not both, got {tail_tol:g} and {l_max}")
    elif l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    need = 8 * _TABLE_ROWS * (l_max + 1)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(f"a table with l_max = {l_max} needs {need} bytes, "
                                 f"budget is {DEFAULT_MEMORY_BUDGET}")
    return l_max


def build_table(scenario: PhysicalScenario, model: PhaseShiftModel,
                tail_tol: Optional[float] = None,
                l_max: Optional[int] = None) -> PartialWaveTable:
    """Build the per-l table for a scenario and phase-shift model, with the
    l_max of `resolve_l_max`.

    Coulomb models are rejected when |eta| exceeds eta_bound(eps) (the
    trajectory shift would no longer be small against R).  Short-range tables
    must cover the chosen l_max.
    """
    eps = scenario.eps
    eta = scenario.eta
    l_max = resolve_l_max(eps, tail_tol, l_max)

    if model.kind is not PhaseShiftKind.SHORT_RANGE_TABLE:
        bound = eta_bound(eps)
        if abs(eta) > bound:
            raise StrengthBoundError(
                f"|eta| = {abs(eta):.6g} exceeds the strength bound "
                f"{bound:.6g} for eps = {eps:.6g}"
            )

    l = np.arange(l_max + 1, dtype=float)
    x = l + 0.5
    weight = (2.0 * l + 1.0) * np.exp(-2.0 * eps * eps * x * x)

    if model.kind is PhaseShiftKind.COULOMB_EXACT:
        sigma2 = 2.0 * specfun.coulomb_sigma_table(l_max, eta)
        if eta == 0.0:
            xi = np.zeros(l_max + 1)
        else:
            ln2pr = math.log(2.0 * scenario.p * scenario.R)
            xi = 4.0 * eps * eta * (ln2pr - 1.0 - specfun.dsigma_deta_table(l_max, eta))
    elif model.kind is PhaseShiftKind.COULOMB_ASYMPTOTIC:
        sigma2 = 2.0 * specfun.coulomb_sigma_asymptotic_table(l_max, eta)
        if eta == 0.0:
            xi = np.zeros(l_max + 1)
        else:
            # literal asymptotic shift, carrying both "-1" offsets; differs
            # from the derivative of the asymptotic phase by exactly -4 eps eta
            ln2pr = math.log(2.0 * scenario.p * scenario.R)
            lp1 = l + 1.0
            xi = 4.0 * eps * eta * (
                ln2pr - 1.0 - 0.5 * np.log(lp1 * lp1 + eta * eta) - 1.0
            )
    else:
        if model.delta_l.size < l_max + 1:
            raise TruncationMismatchError(
                f"short-range table covers l <= {model.delta_l.size - 1} "
                f"but l_max = {l_max} is required"
            )
        sigma2 = 2.0 * model.delta_l[: l_max + 1]
        xi = (2.0 / scenario.sigma_x) * model.ddelta_dk[: l_max + 1]

    phase_cos = np.cos(sigma2)
    phase_sin = np.sin(sigma2)

    # sum of neglected weights is bounded by the integral of 2x e^{-2 eps^2 x^2}
    # from l_max + 1/2; normalize by the retained sum
    tail_abs = math.exp(-2.0 * eps * eps * (l_max + 0.5) ** 2) / (2.0 * eps * eps)
    tail_bound = tail_abs / float(np.sum(weight))

    return PartialWaveTable(l_max=l_max, weight=weight, phase_cos=phase_cos,
                            phase_sin=phase_sin, xi=xi, scenario=scenario,
                            model=model, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _check_budget(table: PartialWaveTable, n_theta: int, n_delta: int,
                  workers: int = 1, grid_arrays: int = 1) -> tuple[list, int]:
    """Plan an evaluation of an n_theta x n_delta grid on `workers` threads
    and check its memory: return (chunks, threads), the Legendre chunks
    (i0, i1) of the angles and one thread per chunk, at most `workers` and
    one per CPU (a chunk runs the whole recurrence, so a thread pays only
    with a chunk of its own; one chunk runs inline), or raise
    ResourceLimitError when that plan would hold more than
    DEFAULT_MEMORY_BUDGET bytes at once, counting `grid_arrays` grid-shaped
    arrays (an output; a delta profile's coarse scan and residuals); per
    chunk in flight, the largest ones, its Legendre rows and six values per
    row and delta (its (re, im) and `_combine`'s (re, im) sum and term; half
    that for the real forward part); and the deltas' Hermite functions,
    n_box * K per delta, shared by the chunks.  With no deltas (a sum at no
    time shift) the table's Hermite expansion is not read, so not built.
    """
    rows = max(1, _CHUNK_BYTES // (8 * (table.l_max + 1)))
    chunks = [(i0, min(i0 + rows, n_theta)) for i0 in range(0, n_theta, rows)]
    threads = min(workers, len(chunks))
    # os.cpu_count reads /sys on Linux: ask only when a pool could start
    threads = threads if threads <= 1 else min(threads, os.cpu_count() or 1)
    held = sum(sorted(i1 - i0 for i0, i1 in chunks)[-threads:])
    need = 8 * (grid_arrays * n_theta * n_delta
                + held * (table.l_max + 1 + 6 * n_delta))
    if n_delta:
        need += 8 * table.box_centres.size * table.n_hermite * n_delta
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{n_theta} x {n_delta} grid needs {need} bytes "
            f"({grid_arrays} grid-sized arrays, Legendre rows and Hermite "
            f"functions), budget is {DEFAULT_MEMORY_BUDGET}"
        )
    return chunks, threads


def _kern_full(table: PartialWaveTable) -> np.ndarray:
    # e^{2i sigma_l} kernel
    return np.stack((table.weight * table.phase_cos, table.weight * table.phase_sin))


def _kern_forward(table: PartialWaveTable) -> np.ndarray:
    # unit kernel (the "1" of e^{2i sigma} = 1 + 2i e^{i sigma} sin sigma):
    # A_F is real, so only its real component, the weights themselves, is
    # summed (a view, not a copy)
    return table.weight[None]


def _kern_scatter(table: PartialWaveTable) -> np.ndarray:
    # e^{i sigma} sin sigma = sin(2 sigma)/2 + i (1 - cos(2 sigma))/2
    return np.stack((table.weight * table.phase_sin * 0.5,
                     table.weight * (1.0 - table.phase_cos) * 0.5))


# part -> (stacked kernel, prefactor / eps^2): A = A_F + i A_S, with
# A = 2 eps^2 sum(full), A_F = 2 eps^2 sum(forward), A_S = 4 eps^2 sum(scatter)
_PARTS = {
    "full": (_kern_full, 2.0),
    "forward": (_kern_forward, 2.0),
    "scatter": (_kern_scatter, 4.0),
}


def _abs2(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im|^2, elementwise."""
    return re * re + im * im


def _hermite(table: PartialWaveTable, deltas) -> np.ndarray:
    """h_n((delta - c)/sqrt 8) for every box centre c and n < K, shape
    (n_box * K,) + deltas.shape, box-major.

    Built by the forward recurrence h_{n+1} = 2x h_n - 2n h_{n-1} from
    h_0 = e^{-x^2}, elementwise, so a delta's values do not depend on the
    deltas beside it.  For one delta the recurrence runs on Python floats,
    with the same operations in the same order (h_0 still from np.exp,
    whose rounding `math.exp` need not share).  Every evaluation at a time
    shift takes its deltas through here, and a non-finite one is an error.
    """
    d = np.asarray(deltas, dtype=float)
    finite = np.isfinite(d)
    if not finite.all():
        raise ValueError(f"delta must be finite, got {d[~finite][0]}")
    c = table.box_centres.reshape((-1,) + (1,) * d.ndim)
    x = (d - c) / _SQRT8
    two_x = 2.0 * x
    k = table.n_hermite
    # x * x overflows for |delta| beyond about 4e154, where e^{-x^2} is 0
    with np.errstate(over="ignore"):
        h0 = np.exp(-(x * x))
    if d.size == 1:
        values = []
        for tx, first in zip(two_x.ravel().tolist(), h0.ravel().tolist()):
            row = [first, tx * first][:k]
            for n in range(1, k - 1):
                row.append(tx * row[n] - (2.0 * n) * row[n - 1])
            values += row
        return np.array(values).reshape((-1,) + d.shape)
    h = np.empty((c.shape[0], k) + d.shape)
    h[:, 0] = h0
    if k > 1:
        h[:, 1] = two_x * h[:, 0]
    for n in range(1, k - 1):
        h[:, n + 1] = two_x * h[:, n] - (2.0 * n) * h[:, n - 1]
    return h.reshape((-1,) + d.shape)


def _moments(table: PartialWaveTable, p_rows: np.ndarray, part: str) -> np.ndarray:
    """Hermite moments pref * sum_{l in box} kern_l P_l y_l^n / n! of the
    series `part` for each Legendre row of a block; the `_kernel`
    components stacked, shape (c, n_rows, n_box * K), box-major like
    `_hermite`.

    Each moment is one dot product (np.vecdot) of a box slice of
    kern * P_row with the same slice of a `y_powers` row, one row at a time.
    A dot's summation order is fixed by its length alone, and every moment
    of a box has the same length whatever the batch, the thread or the
    memory offset of the row, so a row's moments never depend on the rows
    beside it (a matrix product over the batch would: it blocks its sums by
    batch size).
    """
    kern = table._kernel(part)
    pref = _PARTS[part][1]
    terms = np.empty_like(kern)
    y_powers = table.y_powers
    edges = table.box_edges.tolist()
    # each box's slices of the row's terms (refilled for every row) and of
    # y_powers, taken once per call
    boxes = [(terms[:, None, l0:l1], y_powers[:, l0:l1])
             for l0, l1 in zip(edges[:-1], edges[1:])]
    out = np.empty((len(kern), len(p_rows), len(boxes), table.n_hermite))
    for i, p_row in enumerate(p_rows):
        np.multiply(kern, p_row, out=terms)
        for b, (box_terms, box_powers) in enumerate(boxes):
            np.vecdot(box_terms, box_powers, out=out[:, i, b])
    out *= pref * table.eps ** 2
    return out.reshape(len(kern), len(p_rows), -1)


def _combine(moments: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_j M_j h_j for moments (c, n_rows, J) and Hermite functions h of
    shape (J, n_delta), or (J, n_rows, n_delta) for per-row deltas; returns
    the c components stacked, shape (c, n_rows, n_delta).

    Terms are added one j at a time in a fixed order and elementwise (no
    reduction over an axis, whose order numpy picks by shape); with
    `_moments`' fixed-length dots along l, every cell equals its
    single-point evaluation.  One cell (one row and one delta) is summed
    on Python floats in the same order.
    """
    if moments.shape[1] == h[0].size == 1:
        hs = h.ravel().tolist()
        sums = []
        for ms in moments.reshape(len(moments), -1).tolist():
            total = ms[0] * hs[0]
            for m, hj in zip(ms[1:], hs[1:]):
                total += m * hj
            sums.append(total)
        return np.array(sums).reshape(-1, 1, 1)
    out = moments[:, :, 0, None] * h[0]
    term = np.empty_like(out)
    for j in range(1, h.shape[0]):
        np.multiply(moments[:, :, j, None], h[j], out=term)
        out += term
    return out


def _each_chunk(table: PartialWaveTable, thetas: np.ndarray, part: str, fn,
                plan) -> None:
    """Run `plan`, the (chunks, threads) of `_check_budget`: call
    fn(i0, i1, moments) with the `_moments` of the series `part` for each
    chunk thetas[i0:i1], inline or on the plan's threads.  Each call writes
    only its own rows of the output, so results do not depend on threads."""
    chunks, threads = plan
    # what the threads read is built here, on the calling thread
    _ = table._expansion, table._kernel(part)

    def run(chunk):
        i0, i1 = chunk
        fn(i0, i1, _moments(table, specfun.legendre_rows(thetas[i0:i1], table.l_max), part))

    if threads <= 1:
        list(map(run, chunks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, chunks))


def _eval_grid(table: PartialWaveTable, thetas, deltas, part: str, workers: int = 1,
               reduce=None) -> np.ndarray:
    """The series `part` on the outer product of thetas and deltas: (re, im)
    stacked, shape (2, n_theta, n_delta), the imaginary plane left zero for
    a real part, or with `reduce`, reduce(*components) of each chunk (see
    `PartialWaveTable._kernel`), shape (n_theta, n_delta).  Single points,
    `probability_grid` and `scan.sweep` evaluate here, every chunk with the
    same Hermite functions of the deltas."""
    thetas = np.asarray(thetas, dtype=float)
    plan = _check_budget(table, thetas.size, np.size(deltas), workers, 1 if reduce else 2)
    h = _hermite(table, deltas)
    if reduce:
        out = np.empty((thetas.size, h.shape[1]))
    else:
        out = np.zeros((2, thetas.size, h.shape[1]))

    def fill(i0, i1, moments):
        re_im = _combine(moments, h)
        if reduce:
            out[i0:i1] = reduce(*re_im)
        else:
            out[:len(re_im), i0:i1] = re_im

    _each_chunk(table, thetas, part, fill, plan)
    return out


def probability_grid(table: PartialWaveTable, thetas, deltas) -> np.ndarray:
    """P = |A|^2 on the outer product of thetas and deltas."""
    return _abs2(*_eval_grid(table, thetas, deltas, "full"))


def amplitude(table: PartialWaveTable, theta: float, delta: float) -> complex:
    """A(theta, delta) at a single point (same code path as the grids)."""
    re, im = _eval_grid(table, [theta], [delta], "full")
    return complex((re + 1j * im)[0, 0])


def probability(table: PartialWaveTable, theta: float, delta: float) -> float:
    """P(theta, delta) = |A|^2 at a single point."""
    return float(probability_grid(table, [theta], [delta])[0, 0])


def amplitude_forward(table: PartialWaveTable, theta: float, delta: float) -> float:
    """Forward-peak amplitude A_F(theta, delta); real by construction."""
    re, _im = _eval_grid(table, [theta], [delta], "forward")
    return float(re[0, 0])


def amplitude_scatter(table: PartialWaveTable, theta: float, delta: float) -> complex:
    """Scattering amplitude part A_S(theta, delta); A = A_F + i A_S."""
    re, im = _eval_grid(table, [theta], [delta], "scatter")
    return complex((re + 1j * im)[0, 0])


# ---------------------------------------------------------------------------
# spherical square well
# ---------------------------------------------------------------------------

def _square_well_deltas_at_k(k: float, radius: float, depth: float, m0: float,
                             ls: np.ndarray) -> np.ndarray:
    """Phase shifts from interior/exterior log-derivative matching at r = radius.

    Interior wavenumber k'^2 = k^2 + 2 m0 * depth (depth > 0 attracts).  For
    k'^2 < 0 the interior solution is the modified spherical Bessel i_l.
    Imports the spherical Bessel functions from scipy here, so that Coulomb
    tables never load scipy.
    """
    from scipy.special import spherical_in, spherical_jn, spherical_yn

    ka = k * radius
    ja = spherical_jn(ls, ka)
    dja = spherical_jn(ls, ka, derivative=True)
    ya = spherical_yn(ls, ka)
    dya = spherical_yn(ls, ka, derivative=True)
    kp2 = k * k + 2.0 * m0 * depth
    if kp2 > 0.0:
        kp = math.sqrt(kp2)
        ji = spherical_jn(ls, kp * radius)
        dji = spherical_jn(ls, kp * radius, derivative=True)
    else:
        kp = math.sqrt(-kp2)
        ji = spherical_in(ls, kp * radius)
        dji = spherical_in(ls, kp * radius, derivative=True)
    # an overflowed y_l sends delta_l to 0, or to NaN (inf - inf), which is
    # reported below
    with np.errstate(over="ignore", invalid="ignore"):
        num = k * dja * ji - kp * dji * ja
        den = k * dya * ji - kp * dji * ya
    deltas = np.arctan2(num, den)
    bad = ~np.isfinite(deltas)
    if np.any(bad):
        raise MatchingError(np.nonzero(bad)[0])
    return deltas


def square_well_phase_shifts(depth: float, radius: float,
                             scenario: PhysicalScenario,
                             l_max: int) -> PhaseShiftModel:
    """Short-range model for a spherical well of the given depth (MeV) and radius (1/MeV).

    depth > 0 is an attractive well, depth < 0 a repulsive barrier.  The
    momentum derivative d delta_l / dk uses central differences with step
    1e-4 * p, after re-branching delta_l(k +- h) onto the same mod-pi sheet.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"well radius must be positive and finite, got {radius}")
    if not math.isfinite(depth):
        raise ValueError(f"well depth must be finite, got {depth}")
    k = scenario.p
    ls = np.arange(l_max + 1)
    # beyond l ~ k*radius + margin the centrifugal barrier makes delta_l
    # underflow; skip the matching there and pin exact zeros
    l_cut = min(l_max, int(math.ceil(k * radius)) + 40)
    active = ls[: l_cut + 1]

    h = 1e-4 * k
    d0 = _square_well_deltas_at_k(k, radius, depth, scenario.m0, active)
    dm = _square_well_deltas_at_k(k - h, radius, depth, scenario.m0, active)
    dp = _square_well_deltas_at_k(k + h, radius, depth, scenario.m0, active)
    # atan2 branch jumps between k-h and k+h would wreck the difference
    dm = dm - np.pi * np.round((dm - d0) / np.pi)
    dp = dp - np.pi * np.round((dp - d0) / np.pi)
    ddk = (dp - dm) / (2.0 * h)

    delta_l = np.zeros(l_max + 1)
    ddelta_dk = np.zeros(l_max + 1)
    delta_l[: l_cut + 1] = d0
    ddelta_dk[: l_cut + 1] = ddk
    return PhaseShiftModel.short_range(delta_l, ddelta_dk)

