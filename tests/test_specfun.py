import math

import numpy as np
import pytest
from scipy.special import loggamma

from coulscat import specfun


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
        acc = float(np.imag(loggamma(1.0 + 1j * eta)))
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
        # batches just below, at and just above the scalar/vectorized switch
        n = specfun._SCALAR_MAX_ANGLES + offset
        interior = np.linspace(0.05, 3.05, n - 3)
        thetas = np.concatenate(([0.0, math.pi / 2, math.pi], interior))
        batch = specfun.legendre_rows(thetas, l_max)
        assert batch.shape == (n, l_max + 1)
        for i in range(n):
            assert np.array_equal(batch[i],
                                  specfun.legendre_rows(thetas[i : i + 1], l_max)[0])
        assert np.all(batch[0] == 1.0)
        assert np.array_equal(batch[2], (-1.0) ** np.arange(l_max + 1))

    @pytest.mark.parametrize("theta", [math.nan, -0.1, math.pi + 1e-12])
    def test_rejects_angles_outside_0_pi(self, theta):
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            specfun.legendre_rows(np.array([0.5, theta]), 10)


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
