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

The series is the full amplitude A, its forward part A_F or its
scattering part A_S, each a kernel of the table (`PartialWaveTable._kernel`)
summed with the one prefactor 2 eps^2 (A_F is real, and only its real
component is summed).  The kernels split each partial wave as the source
paper does, e^{2i sigma} = 1 + 2i e^{i sigma} sin sigma: full = forward +
i scatter, so A = A_F + i A_S.  `_check_budget` cuts the angles into
equal Legendre chunks and bounds the memory of one in flight;
`_each_chunk` runs the recurrence and `_moments` for each in turn on the
calling thread, writing every chunk's rows into that thread's one row
buffer, and `_eval_grid` (grids, `scan.sweep`) or the delta-peak search
(`observables.delta_peaks`) reduces the moments into the chunk's rows of
the one grid-sized output, on more than one worker split by rows over
threads (`concurrent.futures` is imported only then).  A single point
(`_point`) takes one row's `_moments` and does the rest on Python floats.
`_moments` reduces one theta row at a time, each moment one dot product
along a box's l, and `_combine` (or `_point_sum`) adds the terms in a
fixed order elementwise.  A dot's summation order
depends on its length only (boxes stop at 8192 terms, short of where BLAS
splits a dot across its own threads), so identical inputs give
bit-identical results regardless of how work is partitioned across
threads or batches, and a single point equals its grid cell.

Each thread that runs an evaluation keeps its row buffer (`_row_buffer`)
between evaluations: at most one chunk of rows, `_CHUNK_BYTES` (32 MiB),
grown only when a later plan's largest chunk needs more.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
import threading
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
# (36.2 measured at eta = 800, where K = 22: 33.1 held, three of them the
# shared `_eps_arrays` beside the weights, and `sin2_sums`' three) plus a
# short-range model's two
_TABLE_ROWS = 40


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
    """A table's Hermite expansion in delta; see `PartialWaveTable`.
    `boxes` holds each box's l slice and its columns of `y_powers`, taken
    once per table for `_moments`."""

    box_edges: np.ndarray
    box_centres: np.ndarray
    y_powers: np.ndarray
    n_hermite: int
    hermite_bound: float
    boxes: tuple


@dataclass(frozen=True, eq=False)
class PartialWaveTable:
    """Immutable per-l cache of weights, phase factors and spatial shifts.

    weight[l]    = (2l+1) exp(-2 eps^2 (l+1/2)^2)
    phase_cos/sin = cos/sin of 2 sigma_l (or 2 delta_l for short range)
    tail_bound   = rigorous bound on the neglected angular weight beyond
                   l_max, relative to the retained total

    `__post_init__` makes the three arrays read-only, so every table (a
    `dataclasses.replace` too) is an immutable value, equal only to itself
    and hashed by identity.  The weights and the tail bound depend on eps
    and l_max alone, and every table of one eps and l_max shares them
    (`_eps_arrays`).  Data derived from the fields is built on its first
    read and kept with the table (`functools.cached_property`), so a table
    whose readers never need it never builds it; a `dataclasses.replace` is
    a new table that builds its own.  First the per-l spatial shifts,

    xi[l]        = per-l spatial shift in sigma_x units (`_time_shifts`),

    read by every evaluation at a time shift and never by the sums at none
    (`sin2_sums`, `observables.scattering_amplitude_f`), so the digamma
    table behind a Coulomb table's xi is built only for a table that needs
    it.  Then the Hermite expansion in delta (`_expansion`), built from xi:

    box_edges    = box b holds l in [box_edges[b], box_edges[b+1])
    box_centres  = centre c of each box, the midpoint of its xi range
    y_powers     = (K, L+1) table of y_l^n / n!, y_l = (xi_l - c)/sqrt 8
    n_hermite    = K, the number of expansion terms per box
    hermite_bound = Cramér bound on the truncated expansion's error,
                   relative to sum_l |kern_l P_l| (at most 2^-56)

    and `sin2_sums`, each series part's kernel (`_kern_full`, `_kern_forward`
    and `_kern_scatter`, read through `_kernel`) and the default coarse delta
    scan of the delta-peak search (`_default_scan`), all read-only and read
    on an evaluation's calling thread alone, before any pool thread starts
    (`cached_property` holds no lock from Python 3.12).
    """

    l_max: int
    weight: np.ndarray
    phase_cos: np.ndarray
    phase_sin: np.ndarray
    scenario: PhysicalScenario
    model: PhaseShiftModel
    tail_bound: float

    def __post_init__(self):
        for arr in (self.weight, self.phase_cos, self.phase_sin):
            arr.flags.writeable = False

    @property
    def eps(self) -> float:
        return self.scenario.eps

    @functools.cached_property
    def xi(self) -> np.ndarray:
        return _read_only(_time_shifts(self.scenario, self.model, self.l_max))

    @functools.cached_property
    def _expansion(self) -> _Expansion:
        return _hermite_expansion(self.xi)

    box_edges = property(operator.attrgetter("_expansion.box_edges"))
    box_centres = property(operator.attrgetter("_expansion.box_centres"))
    y_powers = property(operator.attrgetter("_expansion.y_powers"))
    n_hermite = property(operator.attrgetter("_expansion.n_hermite"))
    hermite_bound = property(operator.attrgetter("_expansion.hermite_bound"))

    @functools.cached_property
    def _kern_full(self) -> np.ndarray:
        # e^{2i sigma_l} kernel
        return _read_only(np.stack((self.weight * self.phase_cos,
                                    self.weight * self.phase_sin)))

    @functools.cached_property
    def _kern_forward(self) -> np.ndarray:
        # unit kernel (the "1" of e^{2i sigma} = 1 + 2i e^{i sigma} sin sigma):
        # A_F is real, so only its real component, the weights themselves, is
        # summed (a view of the read-only weights, not a copy)
        return self.weight[None]

    @functools.cached_property
    def _kern_scatter(self) -> np.ndarray:
        # 2 e^{i sigma} sin sigma = (e^{2i sigma} - 1)/i
        # = sin(2 sigma) + i (1 - cos(2 sigma))
        return _read_only(np.stack((self.weight * self.phase_sin,
                                    self.weight * (1.0 - self.phase_cos))))

    def _kernel(self, part: str) -> np.ndarray:
        """The kernel of the series `part` ("full", "forward" or "scatter")
        as read-only stacked components, (re, im), or (re,) for a real part,
        shape (c, L+1); full = forward + i scatter."""
        return getattr(self, "_kern_" + part)

    @functools.cached_property
    def _default_scan(self) -> tuple[np.ndarray, np.ndarray]:
        """The deltas of the delta-peak search's default scan
        (`_scan_window`'s default) and their `_hermite`."""
        deltas = _read_only(np.linspace(*_scan_window(self)))
        return deltas, _read_only(_hermite(self, deltas))

    @functools.cached_property
    def sin2_sums(self) -> tuple[float, float]:
        """Gaussian-damped sums of (2l+1) sin^2(sigma_l): (4 eps^2 damping,
        2 eps^2 damping)."""
        shared = _eps_arrays(self.eps, self.l_max)
        base = (2.0 * shared.x) * ((1.0 - self.phase_cos) * 0.5)  # (2l+1) sin^2 sigma_l
        return tuple(float(np.sum(damping * base))
                     for damping in (shared.damping4, shared.damping2))


class _EpsArrays(NamedTuple):
    """What every table of one eps and l_max shares; see `_eps_arrays`."""

    x: np.ndarray
    weight: np.ndarray
    tail_bound: float
    damping4: np.ndarray
    damping2: np.ndarray


@specfun._cache_to_l_max
def _eps_arrays(eps: float, l_max: int) -> _EpsArrays:
    """x = l + 1/2 for l = 0 .. l_max, the weights (2l+1) e^{-2 eps^2 x^2},
    the tail bound of `build_table`, and the dampings e^{-4 eps^2 x^2} and
    e^{-2 eps^2 x^2} of `PartialWaveTable.sin2_sums` and
    `observables.conservation_weight_sum`, the arrays read-only.

    Every table of one eps and l_max shares them: `build_table` computes
    only its phases (and a table its xi on first read).  2x is 2l+1
    exactly, so the weights are (2l+1) times the 2 eps^2 damping.  The
    cache keeps the last four (eps, l_max) of l_max up to
    `specfun._CACHED_L_MAX`, like `specfun._scalar_steps`, at 32 bytes a
    degree: at most 4.2 MB.  Above it each call builds the arrays anew.
    """
    x = np.arange(l_max + 1, dtype=float) + 0.5
    damping4 = np.exp(-4.0 * eps * eps * x * x)
    damping2 = np.exp(-2.0 * eps * eps * x * x)
    weight = (2.0 * x) * damping2
    # sum of neglected weights is bounded by the integral of 2x e^{-2 eps^2 x^2}
    # from l_max + 1/2; normalize by the retained sum
    tail_abs = math.exp(-2.0 * eps * eps * (l_max + 0.5) ** 2) / (2.0 * eps * eps)
    tail_bound = tail_abs / float(np.sum(weight))
    for arr in (x, weight, damping4, damping2):
        arr.flags.writeable = False
    return _EpsArrays(x, weight, tail_bound, damping4, damping2)


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
    bounds = edges.tolist()
    boxes = tuple((slice(l0, l1), powers[:, l0:l1])
                  for l0, l1 in zip(bounds[:-1], bounds[1:]))
    return _Expansion(edges, centres, powers, k, bound, boxes)


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

    if model.kind is PhaseShiftKind.COULOMB_EXACT:
        sigma2 = 2.0 * specfun.coulomb_sigma_table(l_max, eta)
    elif model.kind is PhaseShiftKind.COULOMB_ASYMPTOTIC:
        sigma2 = 2.0 * specfun.coulomb_sigma_asymptotic_table(l_max, eta)
    else:
        if model.delta_l.size < l_max + 1:
            raise TruncationMismatchError(
                f"short-range table covers l <= {model.delta_l.size - 1} "
                f"but l_max = {l_max} is required"
            )
        sigma2 = 2.0 * model.delta_l[: l_max + 1]

    shared = _eps_arrays(eps, l_max)
    return PartialWaveTable(l_max=l_max, weight=shared.weight, phase_cos=np.cos(sigma2),
                            phase_sin=np.sin(sigma2), scenario=scenario, model=model,
                            tail_bound=shared.tail_bound)


def _time_shifts(scenario: PhysicalScenario, model: PhaseShiftModel,
                 l_max: int) -> np.ndarray:
    """xi_l for l = 0 .. l_max, a new array: `PartialWaveTable.xi`, built on
    its first read from the table's scenario, model and l_max, which
    `build_table` has checked."""
    if model.kind is PhaseShiftKind.SHORT_RANGE_TABLE:
        return (2.0 / scenario.sigma_x) * model.ddelta_dk[: l_max + 1]
    eps = scenario.eps
    eta = scenario.eta
    if eta == 0.0:
        return np.zeros(l_max + 1)
    ln2pr = math.log(2.0 * scenario.p * scenario.R)
    if model.kind is PhaseShiftKind.COULOMB_EXACT:
        return 4.0 * eps * eta * (ln2pr - 1.0 - specfun.dsigma_deta_table(l_max, eta))
    # literal asymptotic shift, carrying both "-1" offsets; differs from the
    # derivative of the asymptotic phase by exactly -4 eps eta
    lp1 = np.arange(l_max + 1, dtype=float) + 1.0
    return 4.0 * eps * eta * (ln2pr - 1.0 - 0.5 * np.log(lp1 * lp1 + eta * eta) - 1.0)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _check_budget(table: PartialWaveTable, n_theta: int, n_delta: int,
                  workers: int = 1) -> tuple[list, int]:
    """Plan an n_theta x n_delta evaluation and check its memory: return
    (chunks, threads), ceil(n_theta / rows) Legendre chunks (i0, i1) equal
    within one angle, and the threads that split each chunk's reduction by
    rows (at most `workers`, one per CPU and one per row; one runs inline),
    or raise ResourceLimitError when the plan would hold more than
    DEFAULT_MEMORY_BUDGET bytes at once.  Counted, in float64 values: the
    one grid-sized output and five per angle (the angles, a delta profile's
    results); per row of the one chunk in flight, its Legendre row,
    2 _RING_DEGREES + 5 for the recurrence, 2 n_box K moments and six per
    delta (`_combine`'s (re, im) sum and term, the reduction's
    temporaries); 8 per degree (a one-angle row's Python floats, `_moments`'
    terms); 2^14 per thread for numpy's iteration buffers; and the deltas'
    Hermite functions with temporaries, (K + 5) n_box per delta.  With no
    deltas the table's Hermite expansion is not read, so not built.
    The rows of the chunk in flight are counted once: they are written into
    the calling thread's row buffer (`_row_buffer`).
    """
    rows = max(1, _CHUNK_BYTES // (8 * (table.l_max + 1)))
    parts = -(-n_theta // rows)
    # the first r chunks hold q + 1 angles, the others q
    q, r = divmod(n_theta, max(parts, 1))
    threads = min(workers, q)
    # os.cpu_count reads /sys on Linux: ask only when a pool could start
    threads = threads if threads <= 1 else min(threads, os.cpu_count() or 1)
    need = 8 * (n_theta * (n_delta + 5) + 8 * (table.l_max + 1) + threads * (1 << 14)
                + (q + (r > 0)) * (table.l_max + 6 + 2 * specfun._RING_DEGREES + 6 * n_delta))
    if n_delta:
        k = table.n_hermite
        need += 8 * table.box_centres.size * ((k + 5) * n_delta + 2 * k * (q + (r > 0)))
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{n_theta} x {n_delta} grid needs {need} bytes (its output, Legendre "
            f"rows and Hermite functions), budget is {DEFAULT_MEMORY_BUDGET}")
    edges = [i * q + min(i, r) for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:])), threads


def _abs2(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im|^2, elementwise."""
    return re * re + im * im


def _real(re: np.ndarray) -> np.ndarray:
    return re


def _scan_window(table: PartialWaveTable, delta_range=None,
                 delta_step: Optional[float] = None) -> tuple[float, float, int]:
    """(lo, hi, n) of the delta-peak search's coarse scan: every rule on its
    window.  A range or side that is None is the default's, [-8, 8] widened
    to the xi hull plus 8 each side; a window is finite and spans [-8, 8],
    so the scan cannot miss a peak that interference pushes outside the
    hull.  Its at least 5 deltas are about 0.2 apart, or exactly
    `delta_step` with hi stretched to the first whole step at or above it."""
    lo, hi = (None, None) if delta_range is None else delta_range
    lo = min(-8.0, float(np.min(table.xi)) - 8.0) if lo is None else float(lo)
    hi = max(8.0, float(np.max(table.xi)) + 8.0) if hi is None else float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"delta_range must be finite, got [{lo}, {hi}]")
    if lo > -8.0 or hi < 8.0:
        raise ValueError(f"delta_range must span at least [-8, 8], got [{lo}, {hi}]")
    step = 0.2 if delta_step is None else float(delta_step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"delta_step must be positive and finite, got {step}")
    count = (hi - lo) / step
    if not math.isfinite(count):
        raise ResourceLimitError(f"a scan of [{lo:g}, {hi:g}] in steps of {step:g} "
                                 f"has more deltas than a float can count")
    if delta_step is None:
        return lo, hi, int(round(count)) + 1
    n = math.ceil(count)
    if lo + n * step < hi:  # the product rounded below hi
        n += 1
    top = lo + n * step
    if not math.isfinite(top - lo):
        raise ValueError(f"delta_step {step:g} stretches [{lo:g}, {hi:g}] past the "
                         f"largest float")
    if n + 1 < 5:
        raise ValueError(f"delta_step {step:g} leaves {n + 1} deltas on [{lo:g}, "
                         f"{top:g}]; the peak refinement needs at least 5")
    return lo, top, n + 1


def _hermite(table: PartialWaveTable, deltas) -> np.ndarray:
    """h_n((delta - c)/sqrt 8) for every box centre c and n < K, shape
    (n_box * K,) + deltas.shape, box-major.

    Built by the forward recurrence h_{n+1} = 2x h_n - 2n h_{n-1} from
    h_0 = e^{-x^2}, elementwise on arrays, so a delta's values do not
    depend on the deltas beside it; `_point_hermite` runs the same
    operations in the same order for one delta on Python floats.  Every
    evaluation at a time shift takes its deltas through one of the two,
    and a non-finite one is an error.
    """
    d = np.asarray(deltas, dtype=float)
    finite = np.isfinite(d)
    if not finite.all():
        raise ValueError(f"delta must be finite, got {d[~finite][0]}")
    c = table.box_centres.reshape((-1,) + (1,) * d.ndim)
    x = (d - c) / _SQRT8
    two_x = 2.0 * x
    k = table.n_hermite
    h = np.empty((c.shape[0], k) + d.shape)
    # x * x overflows for |delta| beyond about 4e154, where e^{-x^2} is 0
    with np.errstate(over="ignore"):
        h[:, 0] = np.exp(-(x * x))
    if k > 1:
        h[:, 1] = two_x * h[:, 0]
    for n in range(1, k - 1):
        h[:, n + 1] = two_x * h[:, n] - (2.0 * n) * h[:, n - 1]
    return h.reshape((-1,) + d.shape)


def _point_hermite(table: PartialWaveTable, delta: float) -> list:
    """`_hermite` at one delta as a list of Python floats, box-major: the
    same IEEE-754 operations on Python floats, but h_0 = e^{-x^2} still from
    np.exp, whose rounding `math.exp` need not share.  x * x overflows to
    inf, and h_0 to 0, without a warning."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    xs = [(delta - c) / _SQRT8 for c in table.box_centres.tolist()]
    k = table.n_hermite
    values = []
    for x, first in zip(xs, np.exp([-(x * x) for x in xs]).tolist()):
        tx = 2.0 * x
        row = [first, tx * first][:k]
        for n in range(1, k - 1):
            row.append(tx * row[n] - (2.0 * n) * row[n - 1])
        values += row
    return values


def _moments(table: PartialWaveTable, p_rows: np.ndarray, part: str) -> np.ndarray:
    """Hermite moments 2 eps^2 sum_{l in box} kern_l P_l y_l^n / n! of the
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

    Why the moments stay per-row dots (measured on a 2-core x86 host with
    OpenBLAS 0.3.31): a gemm fusion, in which the Legendre ring sent each
    64-degree block straight into the moments with one BLAS gemm over all
    angles, took the benchmark's `recipes` from 46.5 to 35.5 cal and
    `grid-sweep` from 115.6 to 86.4, but under OPENBLAS_CORETYPE=Haswell,
    Nehalem and Prescott a row's product changed with the batch size, so a
    grid cell no longer equalled its single point.  Gemm calls of a fixed
    two rows kept the bits on all five kernels tried but were no faster,
    and a ring step of three ufuncs kept them but was slower.
    """
    kern = table._kernel(part)
    terms = np.empty_like(kern)
    # each box's slice of the row's terms, refilled for every row, beside
    # the table's slice of y_powers
    boxes = [(terms[:, None, box], powers) for box, powers in table._expansion.boxes]
    out = np.empty((len(kern), len(p_rows), len(boxes), table.n_hermite))
    for i, p_row in enumerate(p_rows):
        np.multiply(kern, p_row, out=terms)
        for b, (box_terms, box_powers) in enumerate(boxes):
            np.vecdot(box_terms, box_powers, out=out[:, i, b])
    out *= 2.0 * table.eps ** 2
    return out.reshape(len(kern), len(p_rows), -1)


def _combine(moments: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_j M_j h_j for moments (c, n_rows, J) and Hermite functions h of
    shape (J, n_delta), or (J, n_rows, n_delta) for per-row deltas; returns
    the c components stacked, shape (c, n_rows, n_delta).

    Terms are added one j at a time in a fixed order and elementwise (no
    reduction over an axis, whose order numpy picks by shape); with
    `_moments`' fixed-length dots along l, every cell equals its
    single-point evaluation, which `_point_sum` adds in the same order on
    Python floats.
    """
    out = moments[:, :, 0, None] * h[0]
    term = np.empty_like(out)
    for j in range(1, h.shape[0]):
        np.multiply(moments[:, :, j, None], h[j], out=term)
        out += term
    return out


def _point_sum(moments: np.ndarray, hs: list) -> list:
    """`_combine` of one row's moments, shape (c, J), and one delta's
    `_point_hermite`: sum_j M_j h_j of each component, a Python float."""
    sums = []
    for ms in moments.tolist():
        total = ms[0] * hs[0]
        for m, hj in zip(ms[1:], hs[1:]):
            total += m * hj
        sums.append(total)
    return sums


# the thread's Legendre row buffer, `_row_buffer`
_ROWS = threading.local()


def _row_buffer(size: int) -> np.ndarray:
    """The calling thread's flat float64 row buffer, at least `size` values.

    It is kept between evaluations and replaced by one of exactly `size`
    values only when a plan needs more, the old one dropped first so that
    the two are never held at once.  glibc's malloc raises its mmap
    threshold when a mapped block is freed and then keeps freed blocks of
    that size resident (mallopt(3)), so a fresh chunk per evaluation left a
    process holding two chunks at its peak and faulting in every new one.
    """
    buf = getattr(_ROWS, "buf", None)
    if buf is None or buf.size < size:
        _ROWS.buf = buf = None
        buf = _ROWS.buf = np.empty(size)
    return buf


def _each_chunk(table: PartialWaveTable, thetas: np.ndarray, part: str, fn,
                chunks) -> None:
    """Call fn(i0, i1, moments) with the `_moments` of the series `part` for
    each chunk thetas[i0:i1] of `chunks` in turn, on the calling thread.
    Every chunk's Legendre rows are written into a view of the thread's
    `_row_buffer`, sized for the largest chunk."""
    width = table.l_max + 1
    buf = _row_buffer(width * max((i1 - i0 for i0, i1 in chunks), default=0))
    for i0, i1 in chunks:
        rows = buf[: (i1 - i0) * width].reshape(i1 - i0, width)
        fn(i0, i1, _moments(
            table, specfun.legendre_rows(thetas[i0:i1], table.l_max, out=rows), part))


def _eval_grid(table: PartialWaveTable, thetas, deltas, part: str, reduce,
               plan) -> np.ndarray:
    """reduce(*components) of the series `part` (see `PartialWaveTable._kernel`)
    on the outer product of thetas and deltas, a float array of shape
    (n_theta, n_delta): each chunk is reduced into its rows of the one
    output, split by rows over the plan's threads.  `plan` is the
    `_check_budget` of the caller, which checked the budget from the
    counts, before it made the angles (with its worker count).
    `probability_grid` and `scan.sweep` evaluate here; a single point
    evaluates in `_point`, with the same operations in the same order, so
    it equals its cell here."""
    thetas = np.asarray(thetas, dtype=float)
    chunks, threads = plan
    h = _hermite(table, deltas)
    out = np.empty((thetas.size, h.shape[1]))

    def fill(rows, moments):
        rows[...] = reduce(*_combine(moments, h))

    if threads <= 1:
        _each_chunk(table, thetas, part, lambda i0, i1, m: fill(out[i0:i1], m), chunks)
        return out
    # imported here, where a plan has more than one thread (see the
    # package docstring): it loads logging and queue
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        _each_chunk(table, thetas, part, lambda i0, i1, m: list(pool.map(
            fill, np.array_split(out[i0:i1], threads), np.array_split(m, threads, axis=1))),
            chunks)
    return out


def _point(table: PartialWaveTable, theta, delta, part: str) -> list:
    """The components of the series `part` at one (theta, delta), Python
    floats: the budget check, one Legendre row (`legendre_rows` of a float,
    which `specfun._row_of` builds), its moments (`_moments`), and the
    Hermite recurrence and sum_j M_j h_j on Python floats
    (`_point_hermite`, `_point_sum`)."""
    _check_budget(table, 1, 1)
    hs = _point_hermite(table, float(delta))
    row = specfun.legendre_rows(float(theta), table.l_max)
    return _point_sum(_moments(table, row[None], part)[:, 0], hs)


def probability_grid(table: PartialWaveTable, thetas, deltas) -> np.ndarray:
    """P = |A|^2 on the outer product of thetas and deltas."""
    return _eval_grid(table, thetas, deltas, "full", _abs2,
                      _check_budget(table, np.size(thetas), np.size(deltas)))


def amplitude(table: PartialWaveTable, theta: float, delta: float) -> complex:
    """A(theta, delta) at a single point (a cell of the grids, bit for bit)."""
    re, im = _point(table, theta, delta, "full")
    return re + 1j * im


def probability(table: PartialWaveTable, theta: float, delta: float) -> float:
    """P(theta, delta) = |A|^2 at a single point."""
    return _abs2(*_point(table, theta, delta, "full"))


def amplitude_forward(table: PartialWaveTable, theta: float, delta: float) -> float:
    """Forward-peak amplitude A_F(theta, delta); real by construction."""
    (re,) = _point(table, theta, delta, "forward")
    return re


def amplitude_scatter(table: PartialWaveTable, theta: float, delta: float) -> complex:
    """Scattering amplitude part A_S(theta, delta); A = A_F + i A_S."""
    re, im = _point(table, theta, delta, "scatter")
    return re + 1j * im


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

