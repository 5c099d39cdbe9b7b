"""Special functions for the partial-wave series.

Coulomb phase shifts sigma_l are defined through the gamma function,

    e^{2i sigma_l} = Gamma(l+1+i eta) / Gamma(l+1-i eta),

so sigma_l = Im log Gamma(l+1+i eta), with the exact recurrence

    sigma_{l+1} - sigma_l = atan2(eta, l+1).

Only phase differences matter downstream (the overall 2 pi branch drops out
of e^{2i sigma_l}); tables are built from sigma_0 plus the recurrence, which
is both branch-safe and fast.  The eta-derivative of sigma_l, needed for the
per-l spatial shifts, is Re psi(l+1+i eta) with psi the digamma function.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, j0, loggamma

__all__ = [
    "coulomb_sigma_exact",
    "coulomb_sigma_table",
    "coulomb_sigma_asymptotic_table",
    "dsigma_deta",
    "dsigma_deta_table",
    "legendre_rows",
    "i_integral_closed_form",
    "i_integral_quadrature",
]


def coulomb_sigma_exact(l: int, eta: float) -> float:
    """Coulomb phase shift sigma_l(eta), continuous in l via the recurrence."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if eta == 0.0:
        return 0.0
    sigma0 = float(np.imag(loggamma(1.0 + 1j * eta)))
    if l == 0:
        return sigma0
    # fsum keeps each sigma_l correctly rounded so the recurrence residual
    # stays below one ulp of the accumulated phase
    return sigma0 + math.fsum(math.atan2(eta, j) for j in range(1, l + 1))


def coulomb_sigma_table(l_max: int, eta: float) -> np.ndarray:
    """sigma_0 .. sigma_{l_max} via sigma_0 + running sum of atan2(eta, l+1)."""
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if eta == 0.0:
        return np.zeros(l_max + 1)
    sigma0 = np.imag(loggamma(1.0 + 1j * eta))
    steps = np.arctan2(eta, np.arange(1.0, l_max + 1.0))
    # add.accumulate runs sequentially: each sigma_{l+1} is exactly the
    # rounding of sigma_l + atan2(eta, l+1), so the recurrence residual stays
    # below half an ulp of the accumulated phase
    return np.cumsum(np.concatenate(([sigma0], steps)))


def coulomb_sigma_asymptotic_table(l_max: int, eta: float) -> np.ndarray:
    """Large-|l+1+i eta| approximation of sigma_0 .. sigma_{l_max}.

    sigma_l ~ eta (ln sqrt((l+1)^2 + eta^2) - 1) + (l + 1/2) atan(eta/(l+1));
    the phase factor e^{2i sigma} is accurate to O(1/|l+1+i eta|).
    """
    lp1 = np.arange(1.0, l_max + 2.0)
    return eta * (0.5 * np.log(lp1 * lp1 + eta * eta) - 1.0) + (lp1 - 0.5) * np.arctan2(
        eta, lp1
    )


def dsigma_deta(l: int, eta: float) -> float:
    """d sigma_l / d eta = Re psi(l+1+i eta)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return float(np.real(digamma(l + 1.0 + 1j * eta)))


def dsigma_deta_table(l_max: int, eta: float) -> np.ndarray:
    return np.real(digamma(np.arange(1.0, l_max + 2.0) + 1j * eta))


# Up to this many angles, one Python-float loop per angle beats one numpy
# loop vectorized across angles.  At l_max = 6000 the scalar loop costs
# about 0.7 ms per angle, and the vectorized one a nearly flat 15-20 ms up
# to 64 angles (four numpy calls per degree), so the two cross near 24.
_SCALAR_MAX_ANGLES = 24

# degrees per block of the vectorized recurrence: its (l, theta) ring and
# the block's (2l+1) x rows take 1040 bytes per angle, 0.7 MB for the
# 698-angle chunks of an L = 6000 sweep
_RING_DEGREES = 64


def legendre_rows(thetas, l_max: int) -> np.ndarray:
    """Legendre values P_l(cos theta), shape (n_theta, l_max+1).

    Three-term recurrence (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, evaluated
    as ((2l+1) x P_l - l P_{l-1}) / (l+1) in one of two forms: for a few
    angles, a loop on Python floats per angle; otherwise a loop over l
    vectorized across angles.  The vectorized loop runs on an (l, theta)
    ring of `_RING_DEGREES` degrees, each degree one contiguous row across
    the angles written through `out=` buffers, and copies each finished
    block of degrees into the (theta, l) result.  Both forms perform the
    same IEEE-754 operations in the same order, so each row is bit-identical
    whichever form built it and whatever batch it came in.  x is clamped to
    exactly +-1 at theta = 0 and theta = pi so the endpoint columns come out
    as exact integers (+-1)^l.  NaN angles are rejected with the
    out-of-range ones.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError("thetas must be one-dimensional")
    if not np.all((thetas >= 0.0) & (thetas <= np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    x = np.cos(thetas)
    x[thetas == 0.0] = 1.0
    x[thetas == np.pi] = -1.0
    P = np.empty((thetas.size, l_max + 1))
    P[:, 0] = 1.0
    if l_max >= 1:
        P[:, 1] = x
    # 2l+1, l and l+1 for l = 1 .. l_max-1 as floats: exactly the conversions
    # numpy makes of the integers in the recurrence
    l = np.arange(1.0, l_max)
    two_l1, ls, lp1 = 2.0 * l + 1.0, l.tolist(), (l + 1.0).tolist()
    if thetas.size <= _SCALAR_MAX_ANGLES:
        coeffs = (two_l1.tolist(), ls, lp1)
        for i, xi in enumerate(x.tolist()):
            row = []
            p0, p1 = 1.0, xi
            for a, b, c in zip(*coeffs):
                p0, p1 = p1, (a * xi * p1 - b * p0) / c
                row.append(p1)
            P[i, 2:] = row
        return P
    # ring[j] holds P_{k0+j} across the angles, one contiguous row per
    # degree: rows 0 and 1 the two degrees a block starts from, rows 2 on
    # the block's new degrees, copied into P when the block is done
    ring = np.empty((_RING_DEGREES + 2, thetas.size))
    ring[0] = 1.0
    ring[1] = x
    ax = np.empty((_RING_DEGREES, thetas.size))
    b = np.empty(thetas.size)
    for k0 in range(0, l_max - 1, _RING_DEGREES):
        m = min(_RING_DEGREES, l_max - 1 - k0)
        # (2l+1) x for the block's degrees does not depend on the recurrence
        np.multiply(two_l1[k0 : k0 + m, None], x, out=ax[:m])
        for j, k in enumerate(range(k0, k0 + m)):
            a = ax[j]
            np.multiply(a, ring[j + 1], out=a)
            np.multiply(ring[j], ls[k], out=b)
            np.subtract(a, b, out=a)
            np.divide(a, lp1[k], out=ring[j + 2])
        P[:, k0 + 2 : k0 + 2 + m] = ring[2 : 2 + m].T
        ring[:2] = ring[m : m + 2]
    return P


def _d00_bessel(l: int, theta) -> np.ndarray:
    # small-angle, uniform-in-l form of the m=0 rotation matrix element:
    # J0(sqrt(l(l+1)+1/3) theta) matches P_l(cos theta) to O(theta^2)
    return j0(math.sqrt(l * (l + 1.0) + 1.0 / 3.0) * np.asarray(theta, dtype=float))


def i_integral_closed_form(l: int, eps: float) -> float:
    """Angular overlap integral in closed form: 2 eps^2 exp(-eps^2 (l+1/2)^2).

    This is the weight that turns a narrow angular distribution into a wide
    Gaussian distribution over angular momentum (momentum units p = 1).
    """
    if l < 0 or not (0.0 < eps < 0.1):
        raise ValueError("require l >= 0 and 0 < eps < 0.1")
    return 2.0 * eps * eps * math.exp(-(eps * eps) * (l + 0.5) ** 2)


def i_integral_quadrature(l: int, eps: float) -> float:
    """Adaptive Gauss-Kronrod evaluation of the defining integral on [0, pi].

    Integrand: theta * exp(-theta^2 / 4 eps^2) * d00(l, theta), with d00 in
    its small-angle Bessel form (the Gaussian confines support to ~10 eps).
    Serves as the independent oracle for `i_integral_closed_form`.
    """
    if l < 0 or not (0.0 < eps < 0.1):
        raise ValueError("require l >= 0 and 0 < eps < 0.1")
    inv4eps2 = 1.0 / (4.0 * eps * eps)

    def integrand(t: float) -> float:
        return t * math.exp(-t * t * inv4eps2) * float(_d00_bessel(l, t))

    # breakpoints force the adaptive rule to resolve the narrow Gaussian at 0
    pts = [2.0 * eps, 4.0 * eps, 8.0 * eps, 16.0 * eps]
    value, _err = quad(integrand, 0.0, math.pi, points=pts, limit=500,
                       epsabs=1e-300, epsrel=1e-9)
    return value
