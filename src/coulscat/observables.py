"""Physical outputs: cross sections, Rutherford references, conservation
integrals, time-shift profiles, scattering amplitude and optical-theorem
diagnostics.

The probability-to-cross-section prefactor for Gaussian wavepackets is

    d sigma / d Omega = p^2 / (16 sigma_p^4) * P(theta, delta)
                      = P(theta, delta) / (16 eps^4 p^2),

and the Rutherford reference is eta^2 / (4 p^2 sin^4(theta/2)), divergent in
the forward direction where the bounded wavepacket probability is not.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import partialwave, specfun
from .errors import CoulscatWarning, NonConvergenceError, UndefinedRatioError
from .kinematics import PhysicalScenario, build_scenario, check_mass_and_eps
from .partialwave import PartialWaveTable, PhaseShiftKind, PhaseShiftModel

__all__ = [
    "DeltaProfile",
    "ScenarioFamily",
    "OpticalCheck",
    "dcs",
    "dcs_factor",
    "rutherford_dcs",
    "rutherford_probability",
    "conservation_weight_sum",
    "midpoint_thetas",
    "probability_sphere_integral",
    "shadow_angle",
    "default_delta_range",
    "delta_profile",
    "delta_peaks",
    "delta_max_at",
    "scattering_amplitude_f",
    "total_cross_section",
    "optical_ratio",
    "optical_theorem_check_short_range",
    "energy_ratio_rho",
]


@dataclass(frozen=True)
class DeltaProfile:
    """delta_max(theta) and peak probabilities extracted by scanning.

    p_max is the probability at the refined peak location.
    factorization_residual reports the worst deviation of the scanned
    profile from the factorized form p_max e^{-(delta - delta_max)^2 / 4}, a
    unit Gaussian in delta, over the scanned delta samples (diagnostic only).
    deltas are the coarse scan's samples and p_scan the probability on
    them, shape (n_theta, deltas.size); each cell equals the single-point
    probability.  A search that does not keep its scan (`delta_peaks`
    without `keep_scan`) leaves p_scan and factorization_residual None.
    """

    thetas: np.ndarray
    delta_max: np.ndarray
    p_max: np.ndarray
    factorization_residual: Optional[np.ndarray]
    deltas: np.ndarray
    p_scan: Optional[np.ndarray]


@dataclass(frozen=True)
class ScenarioFamily:
    """Fixed charges, mass and eps; energy varies across a scan.  The mass
    and eps are checked as `build_scenario` checks them, once for every
    energy (ScenarioError)."""

    Z1: int
    Z2: int
    m0: float
    eps: float

    def __post_init__(self):
        # rho is a ratio to the Rutherford cross section, 0 at a zero charge
        if 0 in (self.Z1, self.Z2):
            raise ValueError(f"{'Z2' if self.Z1 else 'Z1'} = 0: a free family's rho is 0/0")
        check_mass_and_eps(self.m0, self.eps)

    def at_energy(self, E_mev: float) -> PhysicalScenario:
        return build_scenario(self.Z1, self.Z2, self.m0, E_mev, self.eps)


def _warn(message: str) -> None:
    """Warn with a CoulscatWarning naming the first calling line outside the package."""
    frame, level = sys._getframe(1), 2
    while frame.f_back and frame.f_globals.get("__name__", "").startswith("coulscat."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, CoulscatWarning, stacklevel=level)


def _check_scenario(table: PartialWaveTable, scenario: PhysicalScenario) -> None:
    # another scenario's p would scale the table's sums into nobody's numbers
    if scenario != table.scenario:
        raise ValueError("scenario must be the table's scenario")


def dcs_factor(scenario: PhysicalScenario) -> float:
    """1 / (16 eps^4 p^2) (1/MeV^2): P(theta, delta) times this factor is the
    differential cross section.

    Every cross section in the package is P times this one float, so a grid
    cell and a single point round alike."""
    return 1.0 / (16.0 * scenario.eps ** 4 * scenario.p ** 2)


def dcs(table: PartialWaveTable, theta: float, delta: float) -> float:
    """Differential cross section P(theta, delta) / (16 eps^4 p^2) (1/MeV^2)."""
    return partialwave.probability(table, theta, delta) * dcs_factor(table.scenario)


def rutherford_dcs(scenario: PhysicalScenario, theta: float) -> float:
    """Rutherford differential cross section eta^2 / (4 p^2 sin^4(theta/2))."""
    if not (0.0 < theta <= math.pi):
        raise ValueError("Rutherford cross section diverges at theta = 0")
    s2 = math.sin(0.5 * theta) ** 2
    return _divide(scenario.eta ** 2, 4.0 * scenario.p ** 2 * s2 * s2)


def rutherford_probability(scenario: PhysicalScenario, theta: float) -> float:
    """Rutherford cross section converted to the probability scale.

    4 eps^4 eta^2 / sin^4(theta/2); a reference curve only, exceeding unity
    and diverging as theta -> 0.
    """
    if not (0.0 < theta <= math.pi):
        raise ValueError("Rutherford probability diverges at theta = 0")
    s2 = math.sin(0.5 * theta) ** 2
    return _divide(4.0 * scenario.eps ** 4 * scenario.eta ** 2, s2 * s2)


def _divide(numerator: float, denominator: float) -> float:
    # below theta ~ 1e-81 sin^4(theta/2) underflows to 0, where the quotient
    # has long overflowed: inf, or 0 in the free case
    if denominator == 0.0:
        return math.inf if numerator else 0.0
    return numerator / denominator


def conservation_weight_sum(table: PartialWaveTable) -> float:
    """Total-probability sum rule 8 eps^2 sum (l+1/2) exp(-4 eps^2 (l+1/2)^2).

    Equals 1 + O(eps^2) for any interaction; the phases drop out when the
    probability is integrated over all angles and time shifts.
    """
    eps = table.eps
    shared = partialwave._eps_arrays(eps, table.l_max)
    return 8.0 * eps * eps * float(np.sum(shared.x * shared.damping4))


def midpoint_thetas(n_intervals: int) -> np.ndarray:
    """Midpoints of n equal intervals covering [0, pi]."""
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    return (np.arange(n_intervals, dtype=float) + 0.5) * (math.pi / n_intervals)


def probability_sphere_integral(table: PartialWaveTable,
                                profile: DeltaProfile) -> float:
    """(1 / 2 eps^2) * integral over [0, pi] of sin(theta) P(theta, delta_max).

    Midpoint-rule sum over the profile's theta grid, which must be the
    midpoint grid of equal intervals on [0, pi].  Close to 1 when the
    per-theta peak probability accounts for the full flux.
    """
    thetas = np.asarray(profile.thetas, dtype=float)
    n = thetas.size
    expected = midpoint_thetas(n)
    if not np.allclose(thetas, expected, rtol=0.0, atol=1e-9):
        raise ValueError("profile thetas must be the midpoint grid of [0, pi]")
    integrand = np.sin(thetas) * np.asarray(profile.p_max, dtype=float)
    return (math.pi / n) * float(np.sum(integrand)) / (2.0 * table.eps ** 2)


def shadow_angle(eps: float, eta: float) -> float:
    """Estimated angular width of the forward shadow zone: 4 eps |eta|.

    Follows from demanding the Rutherford form integrate to unit probability
    outside the suppressed cone; meaningful for eps |eta| << 1.
    """
    if eps * abs(eta) > 0.1:
        _warn(f"shadow-angle estimate assumes eps*|eta| << 1, got {eps * abs(eta):.3g}")
    return 4.0 * eps * abs(eta)


def default_delta_range(table: PartialWaveTable) -> tuple[float, float]:
    """Scan window: [-8, 8] widened to cover the xi hull plus 8 on each side."""
    lo = min(-8.0, float(np.min(table.xi)) - 8.0)
    hi = max(8.0, float(np.max(table.xi)) + 8.0)
    return lo, hi


def _refine_peak(deltas: np.ndarray, p_row: np.ndarray) -> float:
    """Coarse argmax plus 3-point parabolic refinement on log P.

    The log-parabola is exact for a Gaussian profile.  Falls back to the grid
    argmax when the peak sits on the boundary or a neighbour is non-positive.
    """
    i = int(np.argmax(p_row))
    if i == 0 or i == p_row.size - 1:
        return float(deltas[i])
    window = p_row[i - 1 : i + 2]
    if np.any(window <= 0.0):
        return float(deltas[i])
    y = np.log(window)
    denom = y[0] - 2.0 * y[1] + y[2]
    if denom >= 0.0:
        return float(deltas[i])
    offset = 0.5 * (y[0] - y[2]) / denom
    step = deltas[i + 1] - deltas[i]
    return float(deltas[i] + offset * step)


def delta_profile(table: PartialWaveTable, thetas,
                  delta_range: Optional[tuple[float, float]] = None,
                  coarse_n: Optional[int] = None) -> DeltaProfile:
    """Locate the probability peak in delta for each theta.

    Coarse scan over `delta_range` (default: `default_delta_range`, step 0.2)
    followed by parabolic refinement on log P; p_max re-evaluates P at the
    refined location.  The range must span at least [-8, 8] so the scan
    cannot miss a peak pushed outside the xi hull by interference.  The
    profile keeps the coarse scan (`p_scan`), one grid-sized array, counted
    against the memory budget before the angles are copied.
    """
    # the copy keeps the profile from following later writes to the
    # caller's array
    return delta_peaks(table, np.size(thetas), lambda: np.array(thetas, dtype=float),
                       delta_range, coarse_n, keep_scan=True)


def delta_peaks(table: PartialWaveTable, n_theta: int, angles,
                delta_range: Optional[tuple[float, float]] = None,
                coarse_n: Optional[int] = None, *,
                keep_scan: bool = False) -> DeltaProfile:
    """The `delta_profile` of the n_theta angles that angles() builds, its
    arrays read-only, warning of flat profiles: every delta-peak search
    runs here.  The scan window and the memory budget are checked from
    n_theta before angles() builds anything, so a refused request never
    holds its angles.  The default window's scan is built on its first
    read and kept with the table.  Each chunk's scan is reduced in a
    chunk-sized array, copied into the rows of `p_scan` and measured
    against the factorized form with `keep_scan` (`delta_profile`), and
    otherwise dropped, with `p_scan` and `factorization_residual` None."""
    default = delta_range is None and coarse_n is None
    if delta_range is None:
        delta_range = default_delta_range(table)
    lo, hi = float(delta_range[0]), float(delta_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"delta_range must be finite, got [{lo}, {hi}]")
    if lo > -8.0 or hi < 8.0:
        raise ValueError(f"delta_range must span at least [-8, 8], got [{lo}, {hi}]")
    if coarse_n is None:
        coarse_n = int(round((hi - lo) / 0.2)) + 1
    if coarse_n < 5:
        raise ValueError("coarse_n must be at least 5")
    chunks, _threads = partialwave._check_budget(table, n_theta, coarse_n)

    def coarse_scan(t):
        deltas = np.linspace(lo, hi, coarse_n)
        return deltas, partialwave._hermite(t, deltas)

    deltas, h = (table._derive("default coarse scan", coarse_scan)
                 if default else coarse_scan(table))
    thetas = angles()
    p_scan = np.empty((n_theta, coarse_n)) if keep_scan else None
    delta_max = np.zeros(n_theta)
    p_max = np.empty(n_theta)
    residual = np.empty(n_theta) if keep_scan else None
    flat = np.zeros(n_theta, dtype=bool)

    # each chunk's moments serve the coarse scan, p_max and, with the scan
    # kept, the residual
    def reduce(i0, i1, moments):
        grid = partialwave._abs2(*partialwave._combine(moments, h))
        if keep_scan:
            p_scan[i0:i1] = grid
        flat[i0:i1] = grid.max(axis=1) - grid.min(axis=1) < 1e-12
        for k, row in enumerate(grid):
            # below the double-precision noise floor of the series the peak
            # location is meaningless, and delta_max stays zero
            if not (flat[i0 + k] and row.max() < 1e-30):
                delta_max[i0 + k] = _refine_peak(deltas, row)
        # P at each row's own peak: one delta per row, and a one-row chunk
        # is a single point
        if i1 - i0 == 1:
            p_max[i0] = partialwave._abs2(*partialwave._point_sum(
                moments[:, 0], partialwave._point_hermite(table, float(delta_max[i0]))))
        else:
            p_max[i0:i1] = partialwave._abs2(*partialwave._combine(
                moments, partialwave._hermite(table, delta_max[i0:i1, None])))[:, 0]
        if keep_scan:
            gauss = np.exp(-((deltas - delta_max[i0:i1, None]) ** 2) / 4.0)
            residual[i0:i1] = np.max(np.abs(grid - gauss * p_max[i0:i1, None]), axis=1)

    partialwave._each_chunk(table, thetas, "full", reduce, chunks)
    n_flat = int(flat.sum())
    if n_flat:
        _warn(f"flat delta profile (peak prominence < 1e-12) at {n_flat} of {n_theta} angles")
    for arr in (thetas, delta_max, p_max, residual, deltas, p_scan):
        if arr is not None:
            arr.flags.writeable = False
    return DeltaProfile(thetas=thetas, delta_max=delta_max, p_max=p_max,
                        factorization_residual=residual, deltas=deltas, p_scan=p_scan)


def delta_max_at(table: PartialWaveTable, theta: float) -> tuple[float, float]:
    """(delta_max, p_max) at a single angle: `delta_profile(table, [theta])`'s
    values, from the same search without keeping its coarse scan."""
    prof = delta_peaks(table, 1, lambda: np.array([theta], dtype=float))
    return float(prof.delta_max[0]), float(prof.p_max[0])


def scattering_amplitude_f(table: PartialWaveTable, scenario: PhysicalScenario,
                           theta: float) -> complex:
    """Time-shift-integrated scattering amplitude (length units 1/MeV).

    f(theta) = (1/p) sum_l (2l+1) e^{-2 eps^2 (l+1/2)^2}
               e^{i sigma_l} sin sigma_l P_l(cos theta);
    the delta integral of the scattering part is done analytically (each
    shifted unit Gaussian integrates to one against the 1/sqrt(8 pi) measure).
    `scenario` must be the table's.
    """
    _check_scenario(table, scenario)
    partialwave._check_budget(table, 1, 0)
    row = specfun.legendre_rows(float(theta), table.l_max)
    kern_re, kern_im = table._kernel("scatter")
    re = float(np.sum(kern_re * row))
    im = float(np.sum(kern_im * row))
    return (re + 1j * im) / scenario.p


def total_cross_section(table: PartialWaveTable, scenario: PhysicalScenario) -> float:
    """sigma = (4 pi / p^2) sum (2l+1) e^{-4 eps^2 (l+1/2)^2} sin^2 sigma_l;
    `scenario` must be the table's."""
    _check_scenario(table, scenario)
    heavy, _light = table.sin2_sums
    return 4.0 * math.pi / scenario.p ** 2 * heavy


def optical_ratio(table: PartialWaveTable) -> float:
    """gamma = sigma / (4 pi Im f(0) / p); NaN marks the free case (0/0)."""
    heavy, light = table.sin2_sums
    if light == 0.0:
        return float("nan")
    return heavy / light


class OpticalCheck(NamedTuple):
    sigma: float
    optical_sigma: float  # (4 pi / p) Im f(0)
    rel_diff: float


def optical_theorem_check_short_range(model: PhaseShiftModel,
                                      scenario: PhysicalScenario) -> OpticalCheck:
    """Both sides of sigma = (4 pi / p) Im f(0) for a short-range model.

    Uses the wavepacket (Gaussian-damped) sums; for phase shifts that die off
    well inside the l-window the two sides agree to O(eps^2).
    """
    if model.kind is not PhaseShiftKind.SHORT_RANGE_TABLE:
        raise ValueError("optical-theorem check requires a short-range model")
    dl = model.delta_l
    tail = float(np.max(np.abs(dl[-10:]))) if dl.size >= 10 else float(np.max(np.abs(dl)))
    if tail > 1e-8:
        raise NonConvergenceError(
            f"phase shifts not converged at table end (max tail |delta_l| = {tail:.3g})"
        )
    table = partialwave.build_table(scenario, model, l_max=dl.size - 1)
    sigma = total_cross_section(table, scenario)
    # (4 pi / p) Im f(0), with Im f(0) = light / p
    optical = 4.0 * math.pi / scenario.p ** 2 * table.sin2_sums[1]
    rel = abs(sigma - optical) / optical if optical > 0.0 else 0.0
    return OpticalCheck(sigma=sigma, optical_sigma=optical, rel_diff=rel)


def energy_ratio_rho(family: ScenarioFamily, E_mev: float,
                     tail_tol: Optional[float] = None) -> tuple[float, float, float]:
    """Predicted-to-Rutherford cross-section ratio at theta = pi/4, from the
    exact Coulomb phases at E_mev.

    Returns (rho, eta, delta_max).  delta_max is recomputed from the profile
    at each energy rather than fitted across energies.  Strength-bound and
    scenario errors propagate to the caller, and an energy whose ratio is
    undefined (the Rutherford cross section underflows to 0, or rho is not
    finite) raises UndefinedRatioError.
    """
    scenario = family.at_energy(E_mev)
    table = partialwave.build_table(scenario, PhaseShiftModel.coulomb_exact(),
                                    tail_tol=tail_tol)
    theta = math.pi / 4.0
    ruth = rutherford_dcs(scenario, theta)
    if not ruth:
        raise UndefinedRatioError(
            f"at E = {E_mev:g} MeV the Rutherford cross section underflows to 0")
    # p_max is the probability at dmax, so this is dcs(table, theta, dmax)
    # without rebuilding the angle's Legendre row
    dmax, p_max = delta_max_at(table, theta)
    rho = p_max * dcs_factor(scenario) / ruth
    if not math.isfinite(rho):
        raise UndefinedRatioError(f"at E = {E_mev:g} MeV rho is not finite, got {rho}")
    return rho, scenario.eta, dmax

