import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import coulscat
from coulscat import cli, partialwave, scan, specfun
from coulscat.kinematics import (
    ALPHA_PARTICLE_MASS_MEV,
    build_scenario,
    build_scenario_from_eta,
)


def weierstrass_log_gamma(z: complex, terms: int = 1_000_000) -> complex:
    """Independent product-formula oracle for log Gamma.

    log Gamma(z) = -ln z - gamma z + sum_k [z/k - ln(1 + z/k)]; the truncated
    tail is corrected by its leading term z^2/(2K), leaving O(|z|^3/K^2).
    """
    k = np.arange(1, terms + 1, dtype=float)
    series = np.sum(z / k - np.log(1.0 + z / k))
    tail = z * z / (2.0 * terms)
    return -np.log(z) - np.euler_gamma * z + series + tail


class TestLogGamma:
    """sigma_0 = Im log Gamma(1 + i eta), as `coulomb_sigma_exact` takes it."""

    def test_trivial_values(self):
        # Im log Gamma(1 + i eta) = -gamma eta + zeta(3) eta^3 / 3 + O(eta^5)
        for eta in (1e-3, -1e-3):
            want = -np.euler_gamma * eta + 1.2020569031595942 * eta ** 3 / 3.0
            assert specfun.coulomb_sigma_exact(0, eta) == pytest.approx(want, rel=1e-12)

    def test_against_product_formula_oracle(self):
        for eta in (0.5, 1.0, 10.0):
            oracle = weierstrass_log_gamma(1.0 + 1j * eta).imag
            assert specfun.coulomb_sigma_exact(0, eta) == pytest.approx(oracle, abs=1e-9)


class TestCoulombSigma:
    def test_free_case_is_zero(self):
        for l in (0, 7, 4000):
            assert specfun.coulomb_sigma_exact(l, 0.0) == 0.0

    @pytest.mark.parametrize("eta", [1.0, -1.0, 10.0, -10.0, 800.0, -800.0])
    def test_recurrence_residual(self, eta):
        s = specfun.coulomb_sigma_table(6000, eta)
        steps = np.arctan2(eta, np.arange(1.0, 6001.0))
        assert np.max(np.abs(np.diff(s) - steps)) <= 1e-12

    def test_scalar_matches_table_start(self):
        for eta in (1.0, 800.0):
            s0 = specfun.coulomb_sigma_exact(0, eta)
            assert s0 == specfun.coulomb_sigma_table(0, eta)[0]
            # scalar recurrence over a modest lattice
            for l in (1, 2, 50):
                lhs = specfun.coulomb_sigma_exact(l, eta) - specfun.coulomb_sigma_exact(l - 1, eta)
                assert lhs == pytest.approx(math.atan2(eta, l), abs=1e-12)

    def test_sigma0_against_product_formula(self):
        oracle = weierstrass_log_gamma(1.0 + 1.0j).imag
        assert specfun.coulomb_sigma_exact(0, 1.0) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("l_max", [0, 1, 2, 100, 6000])
    @pytest.mark.parametrize("eta", [1e-6, 0.3, -1.0, 10.0, -800.0])
    def test_table_is_the_sequential_running_sum(self, eta, l_max):
        steps = np.arctan2(eta, np.arange(1.0, l_max + 1.0)).tolist()
        acc = specfun.coulomb_sigma_exact(0, eta)
        want = [acc]
        for step in steps:
            acc += step
            want.append(acc)
        assert np.array_equal(specfun.coulomb_sigma_table(l_max, eta), want)

    @pytest.mark.parametrize("eta", [0.3, 5.0, 800.0])
    def test_antisymmetry_in_eta(self, eta):
        s_plus = specfun.coulomb_sigma_table(200, eta)
        s_minus = specfun.coulomb_sigma_table(200, -eta)
        assert np.max(np.abs(s_plus + s_minus)) <= 1e-13


def _asymptotic_sigma(l, eta):
    return specfun.coulomb_sigma_asymptotic_table(l, eta)[l]


class TestAsymptoticSigma:
    def test_free_case(self):
        assert _asymptotic_sigma(3, 0.0) == 0.0

    def test_phase_factor_error_eta800_l0(self):
        exact = specfun.coulomb_sigma_exact(0, 800.0)
        asym = _asymptotic_sigma(0, 800.0)
        assert abs(np.exp(2j * asym) - np.exp(2j * exact)) <= 2e-3

    def test_phase_factor_error_eta10_l1000(self):
        exact = specfun.coulomb_sigma_exact(1000, 10.0)
        asym = _asymptotic_sigma(1000, 10.0)
        assert abs(np.exp(2j * asym) - np.exp(2j * exact)) <= 1e-3

    def test_error_decreases_along_rays(self):
        # fixed eta, growing l: phase-factor error shrinks monotonically
        for eta in (2.0, 50.0):
            errs = []
            for l in (0, 10, 100, 1000, 5000):
                e = specfun.coulomb_sigma_exact(l, eta)
                a = _asymptotic_sigma(l, eta)
                errs.append(abs(np.exp(2j * a) - np.exp(2j * e)))
            assert all(b < a for a, b in zip(errs, errs[1:]))


class TestDsigmaDeta:
    def test_euler_gamma_at_origin(self):
        assert specfun.dsigma_deta(0, 0.0) == pytest.approx(-np.euler_gamma, rel=1e-12)

    @pytest.mark.parametrize("l", [0, 5, 100])
    @pytest.mark.parametrize("eta", [1.0, -1.0, 10.0, -10.0, 800.0, -800.0])
    def test_against_central_differences(self, l, eta):
        h = 1e-5
        fd = (specfun.coulomb_sigma_exact(l, eta + h)
              - specfun.coulomb_sigma_exact(l, eta - h)) / (2.0 * h)
        an = specfun.dsigma_deta(l, eta)
        assert abs(fd - an) / abs(an) <= 1e-6

    def test_large_l_limit(self):
        l, eta = 10_000, 7.0
        limit = 0.5 * math.log((l + 1.0) ** 2 + eta * eta)
        assert abs(specfun.dsigma_deta(l, eta) - limit) <= 1e-4

    @pytest.mark.parametrize("eta", [0.0, 0.9, -3.0, 800.0])
    def test_scalar_equals_table_entry(self, eta):
        table = specfun.dsigma_deta_table(6000, eta)
        for l in [*range(12), 57, 999, 6000]:
            assert specfun.dsigma_deta(l, eta) == table[l]
        for l_max in (0, 1, 8, 9, 10):
            assert np.array_equal(specfun.dsigma_deta_table(l_max, eta), table[: l_max + 1])


_MPMATH_LS = [*range(11), 50, 500, 6000]
_MPMATH_ETAS = [1e-6, 0.1, 1.0, -1.0, 10.0, -10.0, 100.0, 800.0, -800.0]


class TestAgainstMpmath:
    """Re psi and sigma_0 against 40-digit mpmath, within 2e-15 relative."""

    @pytest.mark.parametrize("eta", _MPMATH_ETAS)
    def test_re_digamma(self, eta):
        mpmath = pytest.importorskip("mpmath")
        table = specfun.dsigma_deta_table(6000, eta)
        with mpmath.workdps(40):
            for l in _MPMATH_LS:
                want = mpmath.re(mpmath.digamma(mpmath.mpc(l + 1, eta)))
                assert abs((table[l] - want) / want) <= 2e-15, l

    @pytest.mark.parametrize("eta", _MPMATH_ETAS)
    def test_sigma_0(self, eta):
        mpmath = pytest.importorskip("mpmath")
        got = specfun.coulomb_sigma_exact(0, eta)
        assert got == specfun.coulomb_sigma_table(0, eta)[0]
        with mpmath.workdps(40):
            want = mpmath.im(mpmath.loggamma(mpmath.mpc(1, eta)))
            assert abs((got - want) / want) <= 2e-15


class TestNonFiniteEta:
    PHASE_FUNCTIONS = [specfun.coulomb_sigma_exact, specfun.coulomb_sigma_table,
                       specfun.dsigma_deta, specfun.dsigma_deta_table]

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", PHASE_FUNCTIONS)
    def test_rejected(self, fn, eta):
        for l in (0, 3, 20):
            with pytest.raises(ValueError, match="eta must be finite"):
                fn(l, eta)

    def test_shift_kernels_end_on_non_finite_eta(self):
        # the kernels behind the check shift a fixed number of steps, so NaN
        # and inf end in a non-finite value or fsum's error, never a hang
        kernels = [specfun._sigma_0, specfun._re_psi_shifted,
                   lambda eta: specfun._re_psi_stirling(np.array([10.0, 11.0]), eta)]
        ended = []

        def run():
            for eta in (math.nan, math.inf, -math.inf):
                for kernel in kernels:
                    try:
                        with np.errstate(invalid="ignore"):
                            values = np.atleast_1d(kernel(eta))
                    except ValueError:
                        ended.append(True)
                    else:
                        ended.append(not np.any(np.isfinite(values)))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert ended == [True] * 9


def _recurrence_row(theta: float, l_max: int) -> list:
    """P_0 .. P_{l_max} at one angle: the three-term recurrence on Python
    floats, ((2l+1) x P_l - l P_{l-1}) / (l+1), with x clamped to exactly +-1
    at theta = 0 and pi."""
    x = 1.0 if theta == 0.0 else -1.0 if theta == math.pi else float(np.cos(theta))
    row = [1.0, x][: l_max + 1]
    for l in range(1, l_max):
        row.append(((2.0 * l + 1.0) * x * row[l] - l * row[l - 1]) / (l + 1.0))
    return row


class TestLegendre:
    def test_forward_direction_all_ones(self):
        values = specfun.legendre_rows([0.0], 500)[0]
        assert np.all(values == 1.0)

    def test_backward_direction_alternating(self):
        values = specfun.legendre_rows([math.pi], 500)[0]
        assert np.all(values == (-1.0) ** np.arange(501))

    def test_right_angle_values(self):
        values = specfun.legendre_rows([math.pi / 2.0], 2)[0]
        assert values[1] == pytest.approx(0.0, abs=1e-16)
        assert values[2] == pytest.approx(-0.5, rel=1e-14)

    def test_orthogonality_by_quadrature(self):
        # Gauss-Legendre nodes make the integral exact for degree <= 2n-1
        nodes, weights = np.polynomial.legendre.leggauss(64)
        thetas = np.arccos(nodes)
        rows = specfun.legendre_rows(thetas, 50)
        gram = (rows * weights[:, None]).T @ rows
        expected = np.diag(2.0 / (2.0 * np.arange(51) + 1.0))
        assert np.max(np.abs(gram - expected)) <= 1e-10

    @pytest.mark.parametrize("theta", [0.4, math.pi / 2, 2.9])
    def test_recurrence_residual_and_bound(self, theta):
        l_max = 6000
        row = specfun.legendre_rows(np.array([theta]), l_max)[0]
        x = math.cos(theta)
        l = np.arange(1.0, l_max)
        resid = (l + 1.0) * row[2:] - (2.0 * l + 1.0) * x * row[1:-1] + l * row[:-2]
        assert np.max(np.abs(resid)) <= 1e-12
        assert np.max(np.abs(row)) <= 1.0 + 1e-14

    # degrees 2 .. l_max come from the recurrence in blocks of RING: l_max
    # RING - 1 and RING leave one short block, RING + 1 fills one exactly,
    # RING + 2 leaves a one-degree second block, 2 RING + 1 fills two
    RING = specfun._RING_DEGREES

    @pytest.mark.parametrize("l_max", [0, 1, 2, 5, 100, 6000,
                                       RING - 1, RING, RING + 1, RING + 2, 2 * RING + 1])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_do_not_depend_on_the_batch(self, l_max, offset):
        # batches just below, at and just above the scalar/vectorized switch,
        # and around 24, above it
        for n in (specfun._SCALAR_MAX_ANGLES + offset, 24 + offset):
            interior = np.linspace(0.05, 3.05, n - 3)
            thetas = np.concatenate(([0.0, math.pi / 2, math.pi], interior))
            batch = specfun.legendre_rows(thetas, l_max)
            assert batch.shape == (n, l_max + 1)
            for i in range(n):
                assert (batch[i].tobytes()
                        == specfun.legendre_rows(thetas[i : i + 1], l_max)[0].tobytes())
            assert np.all(batch[0] == 1.0)
            assert np.array_equal(batch[2], (-1.0) ** np.arange(l_max + 1))

    @pytest.mark.parametrize("l_max", [0, 1, 2, 3, 65, 600])
    @pytest.mark.parametrize("n", [3, 8, 29])
    def test_endpoint_rows_equal_the_recurrence(self, n, l_max):
        # 0 and pi (and 1e-9, whose cosine rounds to 1) mixed with interior
        # angles, in the scalar form (n <= the switch) and the vectorized one
        assert 8 <= specfun._SCALAR_MAX_ANGLES < 29
        rng = np.random.default_rng(n + l_max)
        ends = [0.0, math.pi, 1e-9, 0.0, math.pi][: n - 1]
        thetas = np.concatenate((ends, rng.uniform(0.01, 3.1, n - len(ends))))
        rng.shuffle(thetas)
        batch = specfun.legendre_rows(thetas, l_max)
        for theta, row in zip(thetas, batch):
            assert row.tobytes() == np.array(_recurrence_row(theta, l_max)).tobytes()

    def test_all_endpoint_batches(self):
        for n in (1, specfun._SCALAR_MAX_ANGLES + 1):
            thetas = np.resize([0.0, math.pi], n)
            batch = specfun.legendre_rows(thetas, 70)
            for theta, row in zip(thetas, batch):
                assert row.tobytes() == np.array(_recurrence_row(theta, 70)).tobytes()

    def test_rows_equal_rows_from_a_fresh_process(self):
        # alternating l_max: in this process the coefficients of 64 and 6000
        # come from the caches on their second call; the fresh process clears
        # the caches before every call, so each of its rows is built from new
        # coefficients, packers and operands, in both forms (3 angles scalar, 25 vectorized), with
        # 0, pi and 1e-9 (whose cosine rounds to 1) among the angles
        ends = [0.0, math.pi, 1e-9]
        batches = [ends, ends + np.linspace(0.05, 3.05, 22).tolist()]
        l_maxes = (64, 6000, 64, 2, 6000)
        out = _run_python(_ROWS_SCRIPT.format(batches=batches, l_maxes=l_maxes)).stdout
        expected = b"".join(specfun.legendre_rows(thetas, l_max).tobytes()
                            for thetas in batches for l_max in l_maxes)
        assert out == expected

    def test_cached_coefficients_are_read_only(self):
        two_l1 = specfun._ring_operands(64)[0]
        with pytest.raises(ValueError, match="read-only"):
            two_l1[0] = 0.0
        assert two_l1.tolist() == [2.0 * l + 1.0 for l in range(1, 64)]
        assert specfun._ring_operands(64)[0] is two_l1

    def test_ring_operands_are_cached_read_only_0d_arrays(self):
        operands = specfun._ring_operands(64)[1:]
        for ops, first in zip(operands, (1, 2)):
            assert len(ops) == 63
            assert all(op.ndim == 0 and not op.flags.writeable for op in ops)
            assert [float(op) for op in ops] == [float(l) for l in range(first, first + 63)]
        with pytest.raises(ValueError, match="read-only"):
            operands[0][0][...] = 0.0
        assert specfun._ring_operands(64)[1] is operands[0]

    def test_one_angle_builds_no_ring_operands(self):
        # neither looked up nor built: size, hits and misses all stay
        before = specfun._ring_operands.cache_info()
        specfun.legendre_rows([0.5], 6007)
        assert specfun._ring_operands.cache_info() == before

    @pytest.mark.parametrize("l_max", [65, 6000])
    def test_ring_reproduces_the_endpoint_integers(self, l_max):
        # the vectorized form runs the recurrence at x = +-1 too
        thetas = np.resize([0.0, math.pi], specfun._SCALAR_MAX_ANGLES + 1)
        thetas[3] = 0.7
        batch = specfun.legendre_rows(thetas, l_max)
        for theta, row in zip(thetas, batch):
            assert row.tobytes() == np.array(_recurrence_row(theta, l_max)).tobytes()

    @pytest.mark.parametrize("theta", [math.nan, -0.1, math.pi + 1e-12, math.inf])
    def test_rejects_angles_outside_0_pi(self, theta):
        # the bad angle is named alike by a few angles, a ring batch and the
        # one-angle entry
        ring = np.full(specfun._SCALAR_MAX_ANGLES + 1, 0.5)
        ring[-1] = theta
        message = f"theta must lie in [0, pi], got {theta}"
        for angles in (np.array([0.5, theta]), ring, theta):
            with pytest.raises(ValueError) as caught:
                specfun.legendre_rows(angles, 10)
            assert str(caught.value) == message

    def test_a_few_angles_take_the_one_angle_rules(self, monkeypatch):
        # each angle of at most `_SCALAR_MAX_ANGLES` goes through `_row_of`,
        # as a float does, and a ring batch through none of it
        seen = []
        row_of = specfun._row_of
        monkeypatch.setattr(specfun, "_row_of",
                            lambda theta, *args: seen.append(theta) or row_of(theta, *args))
        thetas = np.linspace(0.0, math.pi, specfun._SCALAR_MAX_ANGLES)
        specfun.legendre_rows(thetas, 70)
        assert seen == thetas.tolist()
        seen.clear()
        specfun.legendre_rows(np.linspace(0.0, math.pi, specfun._SCALAR_MAX_ANGLES + 1), 70)
        assert seen == []

    @pytest.mark.parametrize("l_max", [0, 1, 2, 3, 64, 65, 6000])
    def test_one_angle_entry_equals_the_array_rows(self, l_max):
        # a float (a numpy float too) is one angle: its row alone, the bytes
        # of its row in a scalar batch and in a vectorized one
        thetas = [0.0, 1e-9, 0.03, math.pi / 2, 2.9, math.pi]
        scalar = specfun.legendre_rows(np.array(thetas), l_max)
        ring = specfun.legendre_rows(np.resize(thetas, specfun._SCALAR_MAX_ANGLES + 1), l_max)
        for i, theta in enumerate(thetas):
            for one in (specfun.legendre_rows(theta, l_max),
                        specfun.legendre_rows(np.float64(theta), l_max)):
                assert one.shape == (l_max + 1,)
                assert one.tobytes() == scalar[i].tobytes() == ring[i].tobytes()
                assert one.tobytes() == np.array(_recurrence_row(theta, l_max)).tobytes()
        with pytest.raises(ValueError, match="l_max must be >= 0"):
            specfun.legendre_rows(0.5, -1)

    @pytest.mark.parametrize("n", [3, specfun._SCALAR_MAX_ANGLES + 5])
    def test_out_is_filled_with_the_fresh_rows(self, n):
        # both forms, and stale values in `out` do not reach the rows
        thetas = np.concatenate(([0.0, math.pi], np.linspace(0.05, 3.05, n - 2)))
        out = np.full((n, 131), np.nan)
        assert specfun.legendre_rows(thetas, 130, out=out) is out
        assert out.tobytes() == specfun.legendre_rows(thetas, 130).tobytes()
        for theta in (0.0, 0.7, math.pi):
            row = np.full(131, np.nan)
            assert specfun.legendre_rows(theta, 130, out=row) is row
            assert row.tobytes() == specfun.legendre_rows(theta, 130).tobytes()

    def test_calls_without_out_share_no_memory(self, table_eta10):
        # an evaluation before them leaves its thread's row buffer behind
        partialwave.probability_grid(table_eta10, np.linspace(0.1, 3.0, 30), [0.0])
        buffer = partialwave._row_buffer(0)
        for thetas in (np.linspace(0.1, 3.0, 30), np.array([0.5, 0.6]), 0.5):
            a = specfun.legendre_rows(thetas, table_eta10.l_max)
            b = specfun.legendre_rows(thetas, table_eta10.l_max)
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, buffer) and not np.shares_memory(b, buffer)

    @pytest.mark.parametrize("out", [
        np.empty((3, 11)), np.empty((2, 12)), np.empty(22),
        np.empty((2, 11), dtype=np.float32), np.empty((2, 11), dtype=complex),
        np.empty((2, 11), order="F"), np.empty((2, 22))[:, ::2], np.empty((4, 11))[::2],
        [[0.0] * 11] * 2,
    ], ids=["rows", "degrees", "flat", "float32", "complex", "fortran", "strided-degrees",
            "strided-rows", "list"])
    def test_a_bad_out_is_rejected(self, out):
        with pytest.raises(ValueError, match="out must be"):
            specfun.legendre_rows(np.array([0.5, 0.6]), 10, out=out)

    def test_a_bad_one_angle_out_is_rejected(self):
        for out in (np.empty((1, 11)), np.empty(12), np.empty(11, dtype=np.float32),
                    np.empty(22)[::2]):
            with pytest.raises(ValueError, match="out must be"):
                specfun.legendre_rows(0.5, 10, out=out)
        read_only = np.empty((2, 11))
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="out must be"):
            specfun.legendre_rows(np.array([0.5, 0.6]), 10, out=read_only)


class TestScalarSteps:
    """The scalar branch steps two degrees per iteration, plus one last
    degree when l_max - 1 is odd: its rows equal the ring's at odd and even
    l_max."""

    @pytest.mark.parametrize("l_max", [2, 3, 4, 5, 64, 65, 5999, 6000])
    def test_scalar_rows_equal_ring_rows(self, l_max):
        # bytes, not values, so that a zero's sign counts.  The ring builds
        # 0, pi/2, pi and n - 2 interior angles in one batch; the scalar
        # form builds each alone, and the first n (the most it takes) in one
        # batch that mixes the endpoint fill with the loop
        n = specfun._SCALAR_MAX_ANGLES
        thetas = np.concatenate(([0.0, math.pi / 2, math.pi], np.linspace(0.05, 3.05, n - 2)))
        ring = specfun.legendre_rows(thetas, l_max).tobytes()
        singles = b"".join(specfun.legendre_rows(thetas[i : i + 1], l_max).tobytes()
                           for i in range(thetas.size))
        batch = b"".join(specfun.legendre_rows(part, l_max).tobytes()
                         for part in (thetas[:n], thetas[n:]))
        assert singles == ring
        assert batch == ring

    def test_row_struct_packs_each_double_unchanged(self):
        values = [-0.0, 0.0, 5e-324, -1e-310, 1.0, -math.inf, math.nan]
        row_struct = specfun._scalar_steps(len(values) + 1)[2]
        packed = np.frombuffer(row_struct.pack(*values))
        assert packed.tobytes() == np.array(values).tobytes()
        assert row_struct.size == 8 * len(values)

    @pytest.mark.parametrize("l_max", [2, 3, 4, 65, 6000])
    def test_steps_are_the_recurrence_coefficients_in_pairs(self, l_max):
        pairs, last, _row_struct = specfun._scalar_steps(l_max)
        assert len(pairs) == (l_max - 1) // 2
        assert (last is None) == (l_max % 2 == 1)
        # each pair is two steps (2l+1, l, l+1), the second's l left out:
        # it is the first's l+1
        steps = [step for a0, b0, c0, a1, c1 in pairs
                 for step in ((a0, b0, c0), (a1, c0, c1))] + ([last] if last else [])
        two_l1, ls, lp1 = specfun._ring_operands(l_max)
        assert steps == [(a, float(b), float(c)) for a, b, c in zip(two_l1.tolist(), ls, lp1)]
        assert specfun._scalar_steps(l_max)[0] is pairs

    def test_one_angle_call_holds_one_coefficient_cache(self):
        # at l_max = 6000 the scalar steps are 3000 five-tuples (80 bytes
        # each) of 9000 distinct floats (24 bytes each), 456 KB, and the
        # row's struct.Struct a few hundred bytes; a second cache of the
        # same coefficients would double that
        held = int(_run_python(_HELD_SCRIPT).stdout)
        assert held <= 100 * 6000

    def test_scalar_caches_keep_four_l_max(self):
        for l_max in range(2, 8):
            specfun.legendre_rows([0.5], l_max)
        info = specfun._scalar_steps.cache_info()
        assert (info.maxsize, info.currsize) == (4, 4)


class TestStartUp:
    @pytest.fixture(scope="class")
    def lazy_scipy_run(self):
        # in a fresh process: this one may already hold the modules
        return _run_python(_LAZY_SCIPY_SCRIPT).stdout.decode().splitlines()

    def test_coulomb_commands_load_no_scipy(self, lazy_scipy_run):
        # import coulscat.cli, one angular, one profile-delta and one
        # Coulomb table: none loads a scipy module
        assert lazy_scipy_run[0] == "[0, 0] []"

    def test_scipy_paths_work_once_loaded_lazily(self, lazy_scipy_run):
        # then a square-well table and the quadrature oracle load scipy on
        # their first call and give the values they give in this process
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-3)
        model = partialwave.square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=30)
        table = partialwave.build_table(sc, model, l_max=30)
        want = [math.fsum(table.xi), specfun.i_integral_quadrature(3, 1e-3)]
        assert lazy_scipy_run[1:] == ["True", repr(want)]

    @pytest.fixture(scope="class")
    def lazy_stdlib_run(self):
        return _run_python(_LAZY_STDLIB_SCRIPT).stdout.decode().splitlines()

    def test_commands_load_no_thread_pool_checksum_or_json(self, lazy_stdlib_run):
        # import coulscat.cli, one profile-delta and one angular at
        # --delta auto and at a fixed delta writing CSV: none loads
        # concurrent.futures, a SHA-256 module (CPython's builtin _sha2 or
        # _sha256, hashlib, OpenSSL's _hashlib) or json
        assert lazy_stdlib_run[0] == "[0, 0, 0] []"

    def test_lazy_stdlib_paths_give_this_process_values(self, lazy_stdlib_run, capsys):
        # a two-worker sweep loads no thread pool and no SHA-256 module; a
        # --format json write loads json; each gives this process's values
        assert lazy_stdlib_run[1:4] == ["[]", "[]", "['json']"]
        table = partialwave.build_table(build_scenario_from_eta(10.0, 1e-2),
                                        partialwave.PhaseShiftModel.coulomb_exact())
        field = scan.sweep(table, scan.GridSpec(*_LAZY_STDLIB_GRID), scan.Quantity.PROBABILITY)
        assert lazy_stdlib_run[4] == repr(field.values.tolist())
        assert cli.main(_LAZY_STDLIB_ANGULAR) == 0
        assert lazy_stdlib_run[5] == repr(capsys.readouterr().out)
        assert cli.main(_LAZY_STDLIB_ANGULAR + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["generated_unix"]
        assert lazy_stdlib_run[6] == repr(doc)


_ROWS_SCRIPT = """
import sys
from coulscat import specfun
for thetas in {batches}:
    for l_max in {l_maxes}:
        specfun._scalar_steps.cache_clear()
        specfun._ring_operands.cache_clear()
        sys.stdout.buffer.write(specfun.legendre_rows(thetas, l_max).tobytes())
"""

_HELD_SCRIPT = """
import tracemalloc
import numpy as np
from coulscat import specfun
tracemalloc.start()
specfun.legendre_rows(np.array([0.5]), 6000)
print(tracemalloc.get_traced_memory()[0])
"""

_LAZY_SCIPY_SCRIPT = """
import contextlib, io, math, sys
import coulscat.cli
from coulscat import partialwave, specfun
from coulscat.kinematics import ALPHA_PARTICLE_MASS_MEV, build_scenario, build_scenario_from_eta
with contextlib.redirect_stdout(io.StringIO()):
    status = [coulscat.cli.main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "3"]),
              coulscat.cli.main(["profile-delta", "--eta", "10", "--theta", "0.03"])]
partialwave.build_table(build_scenario_from_eta(10.0, 1e-3),
                        partialwave.PhaseShiftModel.coulomb_exact())
print(status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-3)
model = partialwave.square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=30)
table = partialwave.build_table(sc, model, l_max=30)
print("scipy.special" in sys.modules)
print([math.fsum(table.xi), specfun.i_integral_quadrature(3, 1e-3)])
"""

# the fresh-process check's sweep grid (at eta = 10, eps = 1e-2, on two
# workers there) and its fixed-delta angular
_LAZY_STDLIB_GRID = (0.1, 2.9, 6, -1.0, 1.0, 3)
_LAZY_STDLIB_ANGULAR = ["angular", "--eta", "1", "--delta", "0.4", "--theta-n", "4"]

_LAZY_STDLIB_SCRIPT = f"""
import contextlib, io, sys
import coulscat.cli
from coulscat import partialwave, scan
from coulscat.kinematics import build_scenario_from_eta

def loaded():
    return [m for m in ("concurrent.futures", "_sha2", "_sha256", "hashlib", "_hashlib",
                        "json")
            if m in sys.modules]

with contextlib.redirect_stdout(io.StringIO()):
    status = [coulscat.cli.main(["profile-delta", "--eta", "10", "--theta", "0.03"]),
              coulscat.cli.main(["angular", "--eta", "1", "--delta", "auto", "--theta-n", "3"]),
              coulscat.cli.main(["angular", "--eta", "1", "--delta", "0.4", "--theta-n", "3"])]
print(status, loaded())
table = partialwave.build_table(build_scenario_from_eta(10.0, 1e-2),
                                partialwave.PhaseShiftModel.coulomb_exact())
field = scan.sweep(table, scan.GridSpec(*{_LAZY_STDLIB_GRID!r}), scan.Quantity.PROBABILITY,
                   workers=2)
print(loaded())
with contextlib.redirect_stdout(io.StringIO()) as csv:
    coulscat.cli.main({_LAZY_STDLIB_ANGULAR!r})
print(loaded())
with contextlib.redirect_stdout(io.StringIO()) as doc:
    coulscat.cli.main({_LAZY_STDLIB_ANGULAR!r} + ["--format", "json"])
print(loaded())
import json
doc = json.loads(doc.getvalue())
del doc["generated_unix"]
print(repr(field.values.tolist()))
print(repr(csv.getvalue()))
print(repr(doc))
"""


def _run_python(script):
    src = os.path.dirname(os.path.dirname(coulscat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path})


class TestWignerD00:
    """The small-angle Bessel form that `i_integral_quadrature` integrates."""

    def test_unity_at_zero(self):
        for l in (0, 17, 4000):
            assert specfun._d00_bessel(l, 0.0) == 1.0

    def test_matches_legendre_l100(self):
        exact = specfun.legendre_rows([0.01], 100)[0][100]
        assert abs(specfun._d00_bessel(100, 0.01) - exact) <= 1e-3

    def test_matches_legendre_l1000(self):
        exact = specfun.legendre_rows([0.005], 1000)[0][1000]
        assert abs(specfun._d00_bessel(1000, 0.005) - exact) <= 1e-3


class TestIIntegral:
    def test_closed_form_vs_quadrature_l0(self):
        closed = specfun.i_integral_closed_form(0, 1e-3)
        quadv = specfun.i_integral_quadrature(0, 1e-3)
        assert abs(quadv - closed) / closed <= 1e-5

    def test_suppressed_large_l_still_agrees(self):
        # l = 3/eps: both forms down by e^-9, relative agreement survives
        closed = specfun.i_integral_closed_form(3000, 1e-3)
        quadv = specfun.i_integral_quadrature(3000, 1e-3)
        assert closed / specfun.i_integral_closed_form(0, 1e-3) == pytest.approx(
            math.exp(-(1e-3) ** 2 * (3000.5 ** 2 - 0.25)), rel=1e-12)
        assert abs(quadv - closed) / closed <= 1e-3

    def test_eps_scaling_identity(self):
        for l in (0, 250, 1900):
            ratio = (specfun.i_integral_closed_form(l, 2e-3)
                     / specfun.i_integral_closed_form(l, 1e-3))
            expected = 4.0 * math.exp(-3.0 * (1e-3) ** 2 * (l + 0.5) ** 2)
            assert ratio == pytest.approx(expected, rel=1e-12)
