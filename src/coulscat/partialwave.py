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
from `_PARTS`.  `_moments` reduces one theta row at a time, each moment one
dot product along a box's l, and `_combine` adds the terms in a fixed order
elementwise.  A dot's summation order depends on its length only (boxes
stop at 8192 terms, short of where BLAS splits a dot across its own
threads), so identical inputs give bit-identical results regardless of how
work is partitioned across threads or batches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from . import specfun
from .errors import (
    MatchingError,
    StrengthBoundError,
    TruncationMismatchError,
)
from .kinematics import PhysicalScenario, eta_bound

__all__ = [
    "PhaseShiftKind",
    "PhaseShiftModel",
    "PartialWaveTable",
    "choose_l_max",
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
        return cls(kind=PhaseShiftKind.SHORT_RANGE_TABLE,
                   delta_l=np.asarray(delta_l, dtype=float),
                   ddelta_dk=np.asarray(ddelta_dk, dtype=float))


@dataclass(frozen=True)
class PartialWaveTable:
    """Immutable per-l cache of weights, phase factors and spatial shifts.

    weight[l]    = (2l+1) exp(-2 eps^2 (l+1/2)^2)
    phase_cos/sin = cos/sin of 2 sigma_l (or 2 delta_l for short range)
    xi[l]        = per-l spatial shift in sigma_x units
    tail_bound   = rigorous bound on the neglected angular weight beyond
                   l_max, relative to the retained total

    The Hermite expansion in delta is derived from xi on construction (so a
    `dataclasses.replace` of xi rebuilds it):

    box_edges    = box b holds l in [box_edges[b], box_edges[b+1])
    box_centres  = centre c of each box, the midpoint of its xi range
    y_powers     = (K, L+1) table of y_l^n / n!, y_l = (xi_l - c)/sqrt 8
    n_hermite    = K, the number of expansion terms per box
    hermite_bound = Cramér bound on the truncated expansion's error,
                   relative to sum_l |kern_l P_l| (at most 2^-56)
    """

    l_max: int
    weight: np.ndarray
    phase_cos: np.ndarray
    phase_sin: np.ndarray
    xi: np.ndarray
    scenario: PhysicalScenario
    model: PhaseShiftModel
    tail_bound: float
    box_edges: np.ndarray = field(init=False, repr=False)
    box_centres: np.ndarray = field(init=False, repr=False)
    y_powers: np.ndarray = field(init=False, repr=False)
    n_hermite: int = field(init=False)
    hermite_bound: float = field(init=False)

    def __post_init__(self):
        edges, centres, y = _hermite_boxes(np.asarray(self.xi, dtype=float))
        k, bound = _hermite_terms(float(np.max(np.abs(y))))
        powers = np.empty((k, y.size))
        powers[0] = 1.0
        for n in range(1, k):
            powers[n] = powers[n - 1] * y / n
        for arr in (edges, centres, powers):
            arr.flags.writeable = False
        for name, value in (("box_edges", edges), ("box_centres", centres),
                            ("y_powers", powers), ("n_hermite", k),
                            ("hermite_bound", bound)):
            object.__setattr__(self, name, value)

    @property
    def eps(self) -> float:
        return self.scenario.eps


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


def build_table(scenario: PhysicalScenario, model: PhaseShiftModel,
                tail_tol: Optional[float] = None,
                l_max: Optional[int] = None) -> PartialWaveTable:
    """Build the per-l table for a scenario and phase-shift model.

    Coulomb models are rejected when |eta| exceeds eta_bound(eps) (the
    trajectory shift would no longer be small against R).  Short-range tables
    must cover the chosen l_max.
    """
    eps = scenario.eps
    eta = scenario.eta
    if l_max is None:
        l_max = choose_l_max(eps, tail_tol)
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")

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

    for arr in (weight, phase_cos, phase_sin, xi):
        arr.flags.writeable = False
    return PartialWaveTable(l_max=l_max, weight=weight, phase_cos=phase_cos,
                            phase_sin=phase_sin, xi=xi, scenario=scenario,
                            model=model, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _theta_chunks(n_theta: int, l_max: int):
    rows = max(1, _CHUNK_BYTES // (8 * (l_max + 1)))
    for i0 in range(0, n_theta, rows):
        yield i0, min(i0 + rows, n_theta)


def _kern_full(table: PartialWaveTable):
    # e^{2i sigma_l} kernel
    return table.weight * table.phase_cos, table.weight * table.phase_sin


def _kern_forward(table: PartialWaveTable):
    # unit kernel (the "1" of e^{2i sigma} = 1 + 2i e^{i sigma} sin sigma)
    return table.weight, np.zeros_like(table.weight)


def _kern_scatter(table: PartialWaveTable):
    # e^{i sigma} sin sigma = sin(2 sigma)/2 + i (1 - cos(2 sigma))/2
    return (table.weight * table.phase_sin * 0.5,
            table.weight * (1.0 - table.phase_cos) * 0.5)


# part -> (kernel, prefactor / eps^2): A = A_F + i A_S, with
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
    deltas beside it.
    """
    d = np.asarray(deltas, dtype=float)
    c = table.box_centres.reshape((-1,) + (1,) * d.ndim)
    x = (d - c) / _SQRT8
    two_x = 2.0 * x
    k = table.n_hermite
    h = np.empty((c.shape[0], k) + d.shape)
    h[:, 0] = np.exp(-(x * x))
    if k > 1:
        h[:, 1] = two_x * h[:, 0]
    for n in range(1, k - 1):
        h[:, n + 1] = two_x * h[:, n] - (2.0 * n) * h[:, n - 1]
    return h.reshape((-1,) + d.shape)


def _moments(table: PartialWaveTable, p_rows: np.ndarray, part: str) -> np.ndarray:
    """Hermite moments pref * sum_{l in box} kern_l P_l y_l^n / n! of the
    series `part` for each Legendre row of a block; (re, im) stacked, shape
    (2, n_rows, n_box * K), box-major like `_hermite`.

    Each moment is one dot product (np.vecdot) of a box slice of
    kern * P_row with the same slice of a `y_powers` row, one row at a time.
    A dot's summation order is fixed by its length alone, and every moment
    of a box has the same length whatever the batch, the thread or the
    memory offset of the row, so a row's moments never depend on the rows
    beside it (a matrix product over the batch would: it blocks its sums by
    batch size).
    """
    kernel, pref = _PARTS[part]
    kern = np.stack(kernel(table))
    edges = table.box_edges.tolist()
    boxes = list(zip(edges[:-1], edges[1:]))
    out = np.empty((2, len(p_rows), len(boxes), table.n_hermite))
    terms = np.empty_like(kern)
    for i, p_row in enumerate(p_rows):
        np.multiply(kern, p_row, out=terms)
        for b, (l0, l1) in enumerate(boxes):
            np.vecdot(terms[:, None, l0:l1], table.y_powers[:, l0:l1],
                      out=out[:, i, b])
    out *= pref * table.eps ** 2
    return out.reshape(2, len(p_rows), -1)


def _combine(moments: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_j M_j h_j for moments (2, n_rows, J) and Hermite functions h of
    shape (J, n_delta), or (J, n_rows, n_delta) for per-row deltas; returns
    (re, im) stacked, shape (2, n_rows, n_delta).

    Terms are added one j at a time in a fixed order and elementwise (no
    reduction over an axis, whose order numpy picks by shape); with
    `_moments`' fixed-length dots along l, every cell equals its
    single-point evaluation.
    """
    out = moments[:, :, 0, None] * h[0]
    term = np.empty_like(out)
    for j in range(1, h.shape[0]):
        np.multiply(moments[:, :, j, None], h[j], out=term)
        out += term
    return out


def _eval_grid(table: PartialWaveTable, thetas, deltas, part: str) -> np.ndarray:
    """The series `part` on the outer product of thetas and deltas; (re, im)
    stacked, shape (2, n_theta, n_delta).

    Legendre rows are built one chunk at a time and reduced to moments;
    single points, grids and sweeps all evaluate here, and delta profiles
    use the same `_moments` and `_combine`.
    """
    thetas = np.asarray(thetas, dtype=float)
    h = _hermite(table, deltas)
    out = np.empty((2, thetas.size, h.shape[1]))
    for i0, i1 in _theta_chunks(thetas.size, table.l_max):
        p_rows = specfun.legendre_rows(thetas[i0:i1], table.l_max)
        out[:, i0:i1] = _combine(_moments(table, p_rows, part), h)
    return out


def probability_grid(table: PartialWaveTable, thetas, deltas) -> np.ndarray:
    """P = |A|^2 on the outer product of thetas and deltas."""
    return _abs2(*_eval_grid(table, thetas, deltas, "full"))


def amplitude(table: PartialWaveTable, theta: float, delta: float) -> complex:
    """A(theta, delta) at a single point (same code path as the grids)."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    re, im = _eval_grid(table, [theta], [delta], "full")
    return complex((re + 1j * im)[0, 0])


def probability(table: PartialWaveTable, theta: float, delta: float) -> float:
    """P(theta, delta) = |A|^2 at a single point."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
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
    """
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
        from scipy.special import spherical_in

        kp = math.sqrt(-kp2)
        ji = spherical_in(ls, kp * radius)
        dji = spherical_in(ls, kp * radius, derivative=True)
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
    if not (radius > 0.0):
        raise ValueError(f"well radius must be positive, got {radius}")
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

