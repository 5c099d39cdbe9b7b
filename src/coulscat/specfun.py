"""Special functions for the partial-wave series.

Coulomb phase shifts sigma_l are defined through the gamma function,

    e^{2i sigma_l} = Gamma(l+1+i eta) / Gamma(l+1-i eta),

so sigma_l = Im log Gamma(l+1+i eta), with the exact recurrence

    sigma_{l+1} - sigma_l = atan2(eta, l+1).

Only phase differences matter downstream (the overall 2 pi branch drops out
of e^{2i sigma_l}); tables are built from sigma_0 plus the recurrence, which
is both branch-safe and fast.  The eta-derivative of sigma_l, needed for the
per-l spatial shifts, is Re psi(l+1+i eta) with psi the digamma function.

Both functions are evaluated here in numpy and `math`, so that the Coulomb
path never imports scipy: Stirling's series with eight Bernoulli terms at
Re z >= 10 (Abramowitz & Stegun 6.1.40 and 6.3.18, DLMF 5.11.2), and below
that a fixed shift up to Re z = 10 undone by the recurrences
log Gamma(z) = log Gamma(z+1) - log z and psi(z) = psi(z+1) - 1/z, summed
with `math.fsum`.  Against 40-digit mpmath at l from 0 to 6000 and 600
etas up to |eta| = 900, Re psi is within 2.4e-16 of max(|Re psi|, 1) and
sigma_0 within 4.2e-16 of max(|sigma_0|, |eta|), where scipy's `digamma`
and `loggamma` read 2.0e-15 and 1.1e-15; the relative error grows only
near a zero, such as that of Re psi(1 + i eta) at eta = 0.884.  scipy is
imported lazily, only by the quadrature oracle (`i_integral_quadrature`
and its Bessel `j0`).

Legendre rows P_l(cos theta) come from the three-term recurrence
(`legendre_rows`): a loop on Python floats per angle for a float or a few
angles, else a loop over l vectorized across the angles.  One angle's
rules (its range check, the exact x = +-1 at theta = 0 and pi, and x from
`np.cos`) are stated once, in `_row_of`, which a float and each of a few
angles go through; the array masks and clamp belong to the vectorized
form alone.  Both forms round alike, so a row does not depend on its batch.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

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


# Stirling's series is used at Re z >= _STIRLING_MIN: at |z| >= 10 the first
# omitted terms (B_18) are below 3e-18 in psi and 2e-18 in log Gamma
_STIRLING_MIN = 10

# B_2k / 2k, k = 1 .. 8: psi(w) ~ ln w - 1/(2w) - sum_k B_2k / (2k w^2k)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
               1 / 12, -3617 / 8160)

# B_2k / (2k (2k-1)), k = 1 .. 8: log Gamma(w) ~ (w - 1/2) ln w - w
# + ln(2 pi)/2 + sum_k B_2k / (2k (2k-1) w^(2k-1))
_LOG_GAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                     -691 / 360360, 1 / 156, -3617 / 122400)

# Euler's gamma and ln 10, each as the nearest double plus its residual
_EULER_GAMMA = (0.5772156649015329, -4.942915152430645e-18)
_LN10 = (2.302585092994046, -2.1707562233822494e-16)


def _check_phase_args(l: int, eta: float, name: str = "l") -> None:
    if l < 0:
        raise ValueError(f"{name} must be >= 0, got {l}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def _series(coefficients, u):
    """sum_k c_k u^k, k = 1 .. len(coefficients), by Horner's rule."""
    s = coefficients[-1]
    for c in coefficients[-2::-1]:
        s = s * u + c
    return s * u


def _sigma_0(eta: float) -> float:
    """Im log Gamma(1 + i eta): Stirling's series at w = 10 + i eta, less
    the shift's Im log(j + i eta) = atan2(eta, j), j = 1 .. 9.

    Im[(w - 1/2) ln w - w] = 9.5 atan2(eta, 10) + eta ln|w| - eta, with
    ln|w| = ln 10 + log1p(eta^2/100)/2; every part goes to one fsum.
    """
    x = float(_STIRLING_MIN)
    w = complex(x, eta)
    tail = _series(_LOG_GAMMA_SERIES, 1.0 / (w * w)) * w
    parts = [(x - 0.5) * math.atan2(eta, x), eta * _LN10[0], eta * _LN10[1],
             0.5 * eta * math.log1p(eta * eta / (x * x)), -eta, tail.imag]
    parts += [-math.atan2(eta, j) for j in range(1, _STIRLING_MIN)]
    return math.fsum(parts)


def _re_psi_stirling(x: np.ndarray, eta: float) -> np.ndarray:
    """Re psi(x + i eta) by Stirling's series, for x >= 10."""
    r2 = x * x + eta * eta
    w = x + 1j * eta
    tail = np.real(_series(_PSI_SERIES, 1.0 / (w * w)))
    return 0.5 * np.log(r2) - (0.5 * x / r2 + tail)


def _re_psi_shifted(eta: float) -> list:
    """Re psi(j + i eta) for j = 1 .. 9, from integer digamma values.

    Re psi(j + i eta) = psi(j) + sum_{m=j}^{9} eta^2 / (m (m^2 + eta^2)) + D,
    with psi(j) = -gamma + sum_{m<j} 1/m and D = Re psi(10 + i eta) - psi(10)
    from the difference of the two Stirling series.  gamma enters as a double
    plus its residual and the eta-dependent terms are all positive, so the
    rounding of ln 10 ~ 2.3, which a plain shift from Re psi(10 + i eta)
    would carry, never meets the cancellation near Re psi(1 + i eta) = 0.
    """
    x = float(_STIRLING_MIN)
    e2 = eta * eta
    w = complex(x, eta)
    d = math.fsum([0.5 * math.log1p(e2 / (x * x)), e2 / (2.0 * x * (x * x + e2)),
                   _series(_PSI_SERIES, 1.0 / (x * x))
                   - _series(_PSI_SERIES, 1.0 / (w * w)).real])
    steps = [e2 / (m * (m * m + e2)) for m in range(1, _STIRLING_MIN)]
    return [math.fsum([-_EULER_GAMMA[0], -_EULER_GAMMA[1], d, *steps[j - 1:]]
                      + [1.0 / m for m in range(1, j)])
            for j in range(1, _STIRLING_MIN)]


def coulomb_sigma_exact(l: int, eta: float) -> float:
    """Coulomb phase shift sigma_l(eta), continuous in l via the recurrence."""
    _check_phase_args(l, eta)
    if eta == 0.0:
        return 0.0
    sigma0 = _sigma_0(eta)
    if l == 0:
        return sigma0
    # fsum keeps each sigma_l correctly rounded so the recurrence residual
    # stays below one ulp of the accumulated phase
    return sigma0 + math.fsum(math.atan2(eta, j) for j in range(1, l + 1))


def coulomb_sigma_table(l_max: int, eta: float) -> np.ndarray:
    """sigma_0 .. sigma_{l_max} via sigma_0 + running sum of atan2(eta, l+1)."""
    _check_phase_args(l_max, eta, "l_max")
    if eta == 0.0:
        return np.zeros(l_max + 1)
    steps = np.arctan2(eta, np.arange(1.0, l_max + 1.0))
    # add.accumulate runs sequentially: each sigma_{l+1} is exactly the
    # rounding of sigma_l + atan2(eta, l+1), so the recurrence residual stays
    # below half an ulp of the accumulated phase
    return np.cumsum(np.concatenate(([_sigma_0(eta)], steps)))


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
    """d sigma_l / d eta = Re psi(l+1+i eta); equal to `dsigma_deta_table`'s
    entry l."""
    _check_phase_args(l, eta)
    return float(dsigma_deta_table(l, eta)[l])


def dsigma_deta_table(l_max: int, eta: float) -> np.ndarray:
    """Re psi(l+1+i eta) for l = 0 .. l_max."""
    _check_phase_args(l_max, eta, "l_max")
    x = np.arange(float(_STIRLING_MIN), l_max + 2.0)
    return np.concatenate((_re_psi_shifted(eta), _re_psi_stirling(x, eta)))[: l_max + 1]


# Up to this many angles, one Python-float loop per angle beats one numpy
# loop vectorized across angles.  At l_max = 6000 on a shared 2-core x86
# host with CPython 3.11 (medians of 60 interleaved calls, three processes)
# the scalar loop with its packed row cost 0.86 ms per angle and the
# vectorized one a nearly flat 17-19 ms from 8 to 28 angles (four ufunc
# calls per degree): at 20 angles 17.0-17.5 ms against 18.3-18.5, at 24
# 20.1-20.8 against 18.1-18.5.
_SCALAR_MAX_ANGLES = 20

# degrees per block of the vectorized recurrence: its (l, theta) ring and
# the block's (2l+1) x rows take 1040 bytes per angle, 0.7 MB for the
# 698-angle chunks of an L = 6000 sweep
_RING_DEGREES = 64


# the largest l_max whose data the per-l_max caches keep (`_scalar_steps`,
# `_ring_operands` and `partialwave._eps_arrays`, four entries each).
# Their entries take 80, 128 and 32 bytes a degree (tracemalloc, CPython
# 3.11), so together they hold at most 4 x 256 x 2^15 bytes, 32 MiB: 1/32
# of `partialwave.DEFAULT_MEMORY_BUDGET`, which does not count them.  The
# default L = 6/eps stays below it down to eps = 1.9e-4
_CACHED_L_MAX = 1 << 15


def _cache_to_l_max(build):
    """`build`, whose last argument is l_max, through an lru_cache of four
    entries that keeps only the results of l_max <= _CACHED_L_MAX: a larger
    l_max builds its result on every call, freed with its last reader.
    `cache_info` and `cache_clear` are the cache's."""
    cached = functools.lru_cache(maxsize=4)(build)

    @functools.wraps(build)
    def lookup(*args):
        return (cached if args[-1] <= _CACHED_L_MAX else build)(*args)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


@_cache_to_l_max
def _scalar_steps(l_max: int):
    """The scalar loop's coefficients, two steps per tuple:
    (2l+1, l, l+1, 2l+3, l+2) for l = 1, 3, 5, ... (the second step's l is
    the first's l+1), the last step's (2l+1, l, l+1) alone when the number
    of steps, l_max - 1, is odd (else None), and the `struct.Struct` that
    packs the loop's l_max - 1 floats; l_max >= 2.

    The values are those of `_ring_operands`, taken from one list of floats
    so that a value two steps share is one object.  The struct packs a row
    into native doubles, each IEEE-754 value unchanged (-0.0 and subnormals
    too), for `np.frombuffer`: one copy in place of numpy's per-float list
    conversion.  The cache keeps the last four `l_max` up to
    `_CACHED_L_MAX`, one per eps, at 80 bytes a degree: at most 10.5 MB.
    """
    f = np.arange(2.0 * l_max).tolist()
    pairs = tuple((f[2 * l + 1], f[l], f[l + 1], f[2 * l + 3], f[l + 2])
                  for l in range(1, l_max - 1, 2))
    l = l_max - 1
    last = (f[2 * l + 1], f[l], f[l + 1]) if l_max % 2 == 0 else None
    return pairs, last, struct.Struct(f"{l_max - 1}d")


def _row_at(x: float, l_max: int, out: np.ndarray) -> np.ndarray:
    """P_0 .. P_{l_max} at one x = cos theta, written into `out`, shape
    (l_max+1,), and returned.

    At x = +-1 every step of the recurrence is exact and yields the
    integers (+-1)^l, so those rows (and rows of l_max < 2) are filled
    directly.  Otherwise the recurrence runs on Python floats, two degrees
    per iteration (`_scalar_steps`), and degrees 2 on are packed with one
    `struct` call.
    """
    if abs(x) == 1.0 or l_max < 2:
        out[:] = 1.0
        out[1::2] = x
        return out
    pairs, last, row_struct = _scalar_steps(l_max)
    row = []
    append = row.append
    # p0, p1 hold P_{l-1}, P_l at the top of each iteration; each step
    # overwrites the older of the two
    p0, p1 = 1.0, x
    for a0, b0, c0, a1, c1 in pairs:
        p0 = (a0 * x * p1 - b0 * p0) / c0
        append(p0)
        # the second step's l is the first step's l+1
        p1 = (a1 * x * p0 - c0 * p1) / c1
        append(p1)
    if last:
        a, b, c = last
        append((a * x * p1 - b * p0) / c)
    out[0], out[1] = 1.0, x
    out[2:] = np.frombuffer(row_struct.pack(*row))
    return out


@_cache_to_l_max
def _ring_operands(l_max: int):
    """2l+1 for l = 1 .. l_max-1 as a read-only array (the ring's
    `(2l+1) x` rows), and l and l+1 as two tuples of read-only 0-d arrays,
    the ring's per-degree operands.

    A ufunc converts a Python float operand to an array on every call, but
    takes a 0-d array as it is.  l+1 at degree l is l at degree l+1, so both
    tuples hold views into one array of 1 .. l_max.  The values are those of
    `_scalar_steps`: the arithmetic is unchanged.  Built on the first
    vectorized call at each `l_max` (about 0.77 MB and 2 ms at l_max = 6000),
    so one-angle callers pay for none of it.  The cache keeps the last four
    `l_max` up to `_CACHED_L_MAX`, at 128 bytes a degree: at most 16.8 MB.
    """
    values = np.arange(1.0, l_max + 1.0)
    two_l1 = 2.0 * values[:-1] + 1.0
    for arr in (values, two_l1):
        arr.flags.writeable = False
    views = [values[j, ...] for j in range(l_max)]
    return two_l1, tuple(views[:-1]), tuple(views[1:])


def _rows_out(out, shape: tuple) -> np.ndarray:
    """`out` when it is a writable C-contiguous float64 array of `shape`,
    a fresh array of `shape` when it is None; else ValueError."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape "
                         f"{shape}, got {getattr(out, 'dtype', type(out).__name__)} "
                         f"{getattr(out, 'shape', '')}")
    return out


def _row_of(theta: float, l_max: int, out: np.ndarray) -> np.ndarray:
    """P_0 .. P_{l_max} at one angle theta, a float, written into `out` and
    returned: the one-angle rules of `legendre_rows`, stated once.  A NaN or
    an angle outside [0, pi] is a ValueError; x is exactly +-1 at theta = 0
    and pi, and otherwise `np.cos` over a one-angle array, the inner loop
    every array of angles runs.  Callers inside the package reach it
    through `legendre_rows` only, so that a patched `legendre_rows` sees
    every call."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if theta in (0.0, math.pi):
        return _row_at(1.0 if theta == 0.0 else -1.0, l_max, out)
    return _row_at(np.cos(np.array([theta])).item(), l_max, out)


def legendre_rows(thetas, l_max: int, *, out=None) -> np.ndarray:
    """Legendre values P_l(cos theta), shape (n_theta, l_max+1); for a
    float `thetas`, one angle, its row alone, shape (l_max+1,).  With `out`,
    a writable C-contiguous float64 array of that shape, the rows are
    written into it and it is returned (ValueError for any other `out`);
    without, every call returns a fresh array.

    Three-term recurrence (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, evaluated
    as ((2l+1) x P_l - l P_{l-1}) / (l+1) in one of two forms: for one angle
    or a few, a loop on Python floats per angle (`_row_at`); otherwise a
    loop over l vectorized across angles.  A float, and each angle of an
    array of at most `_SCALAR_MAX_ANGLES`, goes through `_row_of`, which
    checks it and takes its x alone; only the vectorized form runs the
    array masks.  On a bad angle of a few, the rows before it may already
    be written into `out`.  The vectorized loop runs on an (l, theta) ring
    of `_RING_DEGREES` degrees, each degree one contiguous row across the
    angles, with four ufunc calls per degree: outputs passed positionally,
    l and l+1 as the 0-d arrays of `_ring_operands`, and the row views and
    ufuncs bound once per call.  It copies each finished block of degrees
    into the (theta, l) result through one basic slice.
    Both forms take 2l+1, l and l+1 with the same values and perform the
    same IEEE-754 operations in the same order, so each row is
    bit-identical whichever form built it and whatever batch it came in.
    x is clamped to exactly +-1 at theta = 0 and theta = pi.  Where x is
    exactly +-1 every step of the recurrence is exact and yields the
    integers (+-1)^l: the scalar form fills those rows directly, and the
    vectorized one computes them with the other angles.  NaN angles are
    rejected with the out-of-range ones.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    if isinstance(thetas, float):
        return _row_of(thetas, l_max, _rows_out(out, (l_max + 1,)))
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError("thetas must be one-dimensional")
    P = _rows_out(out, (thetas.size, l_max + 1))
    if thetas.size <= _SCALAR_MAX_ANGLES:
        for i, theta in enumerate(thetas.tolist()):
            _row_of(theta, l_max, P[i])
        return P
    ok = (thetas >= 0.0) & (thetas <= np.pi)
    if not np.all(ok):
        raise ValueError(f"theta must lie in [0, pi], got {thetas[~ok][0]}")
    x = np.cos(thetas)
    x[thetas == 0.0] = 1.0
    x[thetas == np.pi] = -1.0
    P[:, 0] = 1.0
    if l_max >= 1:
        P[:, 1] = x
    if l_max < 2:
        return P
    two_l1, ls, lp1 = _ring_operands(l_max)
    # ring[j] holds P_{k0+j} across the angles, one contiguous row per
    # degree: rows 0 and 1 the two degrees a block starts from, rows 2 on
    # the block's new degrees, copied into P when the block is done
    ring = np.empty((_RING_DEGREES + 2, x.size))
    ring[0] = 1.0
    ring[1] = x
    ax = np.empty((_RING_DEGREES, x.size))
    b = np.empty(x.size)
    rows, axs = list(ring), list(ax)
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    for k0 in range(0, l_max - 1, _RING_DEGREES):
        m = min(_RING_DEGREES, l_max - 1 - k0)
        # (2l+1) x for the block's degrees does not depend on the recurrence
        multiply(two_l1[k0 : k0 + m, None], x, ax[:m])
        for a, p0, p1, p2, lk, ck in zip(axs[:m], rows, rows[1:], rows[2:],
                                         ls[k0 : k0 + m], lp1[k0 : k0 + m]):
            multiply(a, p1, a)
            multiply(p0, lk, b)
            subtract(a, b, a)
            divide(a, ck, p2)
        P[:, k0 + 2 : k0 + 2 + m] = ring[2 : 2 + m].T
        ring[:2] = ring[m : m + 2]
    return P


def _d00_bessel(l: int, theta) -> np.ndarray:
    # small-angle, uniform-in-l form of the m=0 rotation matrix element:
    # J0(sqrt(l(l+1)+1/3) theta) matches P_l(cos theta) to O(theta^2)
    from scipy.special import j0

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
    Serves as the independent oracle for `i_integral_closed_form`.  Imports
    `scipy.integrate.quad` on its first call, so that importing coulscat
    does not load `scipy.integrate` and the scipy subpackages it brings in.
    """
    if l < 0 or not (0.0 < eps < 0.1):
        raise ValueError("require l >= 0 and 0 < eps < 0.1")
    inv4eps2 = 1.0 / (4.0 * eps * eps)

    def integrand(t: float) -> float:
        return t * math.exp(-t * t * inv4eps2) * float(_d00_bessel(l, t))

    # breakpoints force the adaptive rule to resolve the narrow Gaussian at 0
    pts = [2.0 * eps, 4.0 * eps, 8.0 * eps, 16.0 * eps]
    from scipy.integrate import quad

    value, _err = quad(integrand, 0.0, math.pi, points=pts, limit=500,
                       epsabs=1e-300, epsrel=1e-9)
    return value
