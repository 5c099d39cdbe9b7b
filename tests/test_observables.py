import math
import tracemalloc

import numpy as np
import pytest

from coulscat import (
    ALPHA_PARTICLE_MASS_MEV,
    CoulscatWarning,
    FINE_STRUCTURE_ALPHA,
    NonConvergenceError,
    PhaseShiftModel,
    ResourceLimitError,
    ScenarioError,
    ScenarioFamily,
    UndefinedRatioError,
    build_scenario,
    build_scenario_from_eta,
    build_table,
    conservation_weight_sum,
    dcs,
    delta_max_at,
    delta_profile,
    eta_bound,
    midpoint_thetas,
    optical_ratio,
    optical_theorem_check_short_range,
    probability,
    probability_sphere_integral,
    rutherford_dcs,
    rutherford_probability,
    scattering_amplitude_f,
    shadow_angle,
    square_well_phase_shifts,
    total_cross_section,
)
from coulscat import observables, partialwave, specfun
from coulscat.acceptance import _sphere_profile_800, _table_for_eta
from coulscat.observables import DeltaProfile
from oracles import rutherford_amplitude

EPS = 1e-3

GOLDEN_GAMMA_ETA10 = 0.5000000117559437  # regression pin, eps = 1e-3


class TestCrossSections:
    def test_prefactor_is_exact(self, table_eta10):
        """dcs is P times the one float dcs_factor.  P / (16 eps^4 p^2),
        a division in place of that product, rounds differently for some
        bits of P, which vary with the host's BLAS kernel."""
        sc = table_eta10.scenario
        factor = observables.dcs_factor(sc)
        assert factor == 1.0 / (16.0 * sc.eps ** 4 * sc.p ** 2)
        for theta in (0.5, 0.8, 1.2, 2.0):
            for delta in (0.0, 0.1, 0.2, 0.3):
                assert dcs(table_eta10, theta, delta) == (
                    probability(table_eta10, theta, delta) * factor)

    def test_agreement_with_rutherford_at_right_angle(self, table_eta10):
        sc = table_eta10.scenario
        value = dcs(table_eta10, math.pi / 2.0, 0.0)
        ruth = rutherford_dcs(sc, math.pi / 2.0)
        assert abs(value / ruth - 1.0) <= 0.02

    def test_free_scattering_vanishes_away_from_forward(self, table_free):
        """The bound is a noise floor, not an accuracy statement.

        The true P at theta = 0.5 is 4.0e-70 (dcs 3.4e-63): the Gaussian
        angular tail of the free packet.  The amplitude sums terms of up to
        7e-5 that cancel, and their roundoff leaves |A| near 1e-19: P near
        1e-38 and dcs near 1e-31.  So the 1e-30 bound limits roundoff.
        """
        assert dcs(table_free, 0.5, 0.0) <= 1e-30

    def test_rutherford_backward_value_and_ratio(self):
        sc = build_scenario_from_eta(10.0, EPS)
        assert rutherford_dcs(sc, math.pi) == pytest.approx(
            sc.eta ** 2 / (4.0 * sc.p ** 2), rel=1e-14)
        ratio = rutherford_dcs(sc, math.pi / 2.0) / rutherford_dcs(sc, math.pi)
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_rutherford_from_energy_form(self):
        # eta^2/(4 p^2 sin^4) must equal Z1^2 Z2^2 alpha^2 / (16 E^2 sin^4)
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 3.8e-3, EPS)
        theta = math.pi / 4.0
        direct = (158.0 * FINE_STRUCTURE_ALPHA) ** 2 / (
            16.0 * sc.E ** 2 * math.sin(theta / 2.0) ** 4)
        assert rutherford_dcs(sc, theta) == pytest.approx(direct, rel=1e-12)

    def test_divergence_guard(self):
        sc = build_scenario_from_eta(10.0, EPS)
        with pytest.raises(ValueError):
            rutherford_dcs(sc, 0.0)
        with pytest.raises(ValueError):
            rutherford_probability(sc, 0.0)

    @pytest.mark.parametrize("theta", [1e-81, 1e-200, 5e-324])
    def test_overflow_below_the_smallest_sine(self, theta):
        # sin^4(theta/2) underflows to 0: the references overflow to inf,
        # and vanish in the free case
        for eta, want in ((10.0, math.inf), (-1.0, math.inf), (0.0, 0.0)):
            sc = build_scenario_from_eta(eta, EPS)
            assert rutherford_dcs(sc, theta) == want
            assert rutherford_probability(sc, theta) == want


class TestRutherfordProbability:
    def test_backward_value(self):
        sc = build_scenario_from_eta(10.0, EPS)
        assert rutherford_probability(sc, math.pi) == pytest.approx(4e-10, rel=1e-10)

    def test_consistent_with_dcs_conversion(self):
        sc = build_scenario_from_eta(7.0, EPS)
        theta = 1.234
        converted = rutherford_dcs(sc, theta) * 16.0 * sc.eps ** 4 * sc.p ** 2
        assert rutherford_probability(sc, theta) == pytest.approx(converted, rel=1e-12)

    def test_exceeds_unity_in_the_forward_divergence(self):
        sc = build_scenario_from_eta(10.0, EPS)
        assert rutherford_probability(sc, 0.005) > 1.0


class TestRutherfordAmplitude:
    def test_modulus_squared_is_the_cross_section(self):
        sc = build_scenario_from_eta(10.0, EPS)
        for theta in np.linspace(0.05, math.pi, 17):
            f = rutherford_amplitude(sc, float(theta))
            assert abs(f) ** 2 == pytest.approx(rutherford_dcs(sc, float(theta)),
                                                rel=1e-12)

    def test_backward_phase(self):
        # at theta=pi the log term vanishes, leaving pi + 2 sigma_0
        sc = build_scenario_from_eta(3.0, EPS)
        f = rutherford_amplitude(sc, math.pi)
        expected = (math.pi + 2.0 * specfun.coulomb_sigma_exact(0, 3.0)) % (2 * math.pi)
        assert math.atan2(f.imag, f.real) % (2.0 * math.pi) == pytest.approx(
            expected, abs=1e-12)

    def test_charge_conjugation(self):
        theta = math.pi / 2.0
        f_plus = rutherford_amplitude(build_scenario_from_eta(1.0, EPS), theta)
        f_minus = rutherford_amplitude(build_scenario_from_eta(-1.0, EPS), theta)
        assert f_minus == pytest.approx(-f_plus.conjugate(), rel=1e-12)


class TestConservation:
    def test_reference_eps(self, table_free):
        assert abs(conservation_weight_sum(table_free) - 1.0) <= 1e-5

    def test_larger_eps_against_euler_maclaurin(self):
        # midpoint-rule correction to the integral: sum = 1 + eps^2/3 + O(eps^4)
        eps = 1e-2
        table = build_table(build_scenario_from_eta(0.0, eps),
                            PhaseShiftModel.coulomb_exact())
        val = conservation_weight_sum(table)
        assert val == pytest.approx(1.0 + eps ** 2 / 3.0, abs=1e-6)
        assert abs(val - 1.0) <= 1e-3

    def test_interaction_independence(self, table_free, table_eta800):
        assert conservation_weight_sum(table_free) == conservation_weight_sum(table_eta800)


class TestSphereIntegral:
    def test_free_case_with_resolved_grid(self):
        # eps = 0.01 keeps the forward Gaussian resolvable on a fine midpoint
        # grid; delta_max is identically zero for the free field
        eps = 1e-2
        table = build_table(build_scenario_from_eta(0.0, eps),
                            PhaseShiftModel.coulomb_exact())
        thetas = midpoint_thetas(4000)
        p_max = partialwave.probability_grid(table, thetas, [0.0])[:, 0]
        profile = DeltaProfile(thetas=thetas, delta_max=np.zeros(thetas.size),
                               p_max=p_max,
                               factorization_residual=np.zeros(thetas.size),
                               deltas=np.zeros(1), p_scan=p_max[:, None])
        val = probability_sphere_integral(table, profile)
        # Gaussian integral oracle: (1/2eps^2) Int sin(t) e^{-t^2/4eps^2} dt = 1 + O(eps^2)
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_eta800_reference_and_richardson(self, table_eta800):
        prof200 = _sphere_profile_800()
        val200 = probability_sphere_integral(table_eta800, prof200)
        assert abs(val200 - 0.998) <= 0.005
        prof400 = delta_profile(table_eta800, midpoint_thetas(400))
        val400 = probability_sphere_integral(table_eta800, prof400)
        assert abs(val400 - val200) < 0.002

    @pytest.mark.parametrize("n", [1, 7, 35])
    def test_without_the_profile_equals_the_profile_integral(self, table_eta10,
                                                             monkeypatch, n):
        # `conservation`'s path, which keeps no coarse scan, across 10-row
        # chunks too
        want = probability_sphere_integral(table_eta10, delta_profile(
            table_eta10, midpoint_thetas(n)))

        def without_the_scan():
            prof = observables.delta_peaks(table_eta10, n, lambda: midpoint_thetas(n))
            assert prof.p_scan is None and prof.factorization_residual is None
            return probability_sphere_integral(table_eta10, prof)

        assert without_the_scan() == want
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 10 * 8 * (table_eta10.l_max + 1))
        assert without_the_scan() == want

    def test_the_interval_count_is_an_integer(self):
        # 2.5 once gave three points, the last at pi
        with pytest.raises(TypeError):
            midpoint_thetas(2.5)
        assert np.array_equal(midpoint_thetas(np.int64(3)), midpoint_thetas(3))

    def test_grid_validation(self, table_free):
        bad = DeltaProfile(thetas=np.linspace(0.0, math.pi, 10),
                           delta_max=np.zeros(10), p_max=np.zeros(10),
                           factorization_residual=np.zeros(10),
                           deltas=np.zeros(1), p_scan=np.zeros((10, 1)))
        with pytest.raises(ValueError):
            probability_sphere_integral(table_free, bad)


class TestShadowAngle:
    def test_reference_values(self):
        assert shadow_angle(EPS, 10.0) == pytest.approx(0.04, abs=1e-6)
        assert shadow_angle(EPS, -10.0) == pytest.approx(0.04, abs=1e-6)
        assert shadow_angle(EPS, 1.0) == pytest.approx(0.004, abs=1e-7)
        deg = math.degrees(shadow_angle(2.1e-4, 23.0))
        assert abs(deg - 1.1) <= 0.05

    def test_warns_outside_small_parameter_regime(self):
        with pytest.warns(UserWarning):
            shadow_angle(1e-3, 800.0)


class TestWarningsNameTheCaller:
    # the free table's profile is flat at theta = 2, and so is that of
    # 1 MeV electrons on a proton (eta = 0.0037, P ~ 1e-14) at pi/4
    @pytest.mark.parametrize("call, message", [
        (lambda t: delta_profile(t, [2.0]), "flat delta profile"),
        (lambda t: delta_max_at(t, 2.0), "flat delta profile"),
        (lambda _t: observables.energy_ratio_rho(ScenarioFamily(1, 1, 0.511, EPS), 1.0),
         "flat delta profile"),
        (lambda _t: shadow_angle(EPS, 800.0), "shadow-angle estimate"),
    ], ids=["delta_profile", "delta_max_at", "energy_ratio_rho", "shadow_angle"])
    def test_warning_names_the_first_line_outside_the_package(self, call, message,
                                                               table_free):
        with pytest.warns(CoulscatWarning, match=message) as record:
            call(table_free)
        assert [w.filename for w in record] == [__file__]


class TestRefinePeak:
    # where the log-parabola cannot refine the peak, the grid argmax stands
    @pytest.mark.parametrize("p_row, i", [
        ([3.0, 2.0, 1.0, 0.5], 0),
        ([0.5, 1.0, 2.0, 3.0], 3),
        ([0.0, 1.0, 0.5, 0.2], 1),
        # the three logs round to one value: no curvature to fit
        ([1e-300, np.nextafter(1e-300, 1.0), 1e-300, 5e-301], 1),
    ], ids=["lower-edge", "upper-edge", "zero-neighbour", "flat-log"])
    def test_falls_back_to_the_grid_argmax(self, p_row, i):
        deltas = np.linspace(-1.5, 1.5, 4)
        assert observables._refine_peak(deltas, np.array(p_row)) == deltas[i]


class TestDeltaProfile:
    def test_free_case_peaks_at_zero(self, table_free):
        prof = delta_profile(table_free, [0.0, 0.001])
        assert np.allclose(prof.delta_max, 0.0, atol=1e-9)
        assert prof.p_max[0] == pytest.approx(1.0, abs=1e-6)

    def test_flat_profile_warns(self, table_free):
        with pytest.warns(UserWarning, match="flat delta profile"):
            prof = delta_profile(table_free, [2.0])
        assert prof.delta_max[0] == 0.0

    def test_integral_extraction_matches_peak(self, table_eta10):
        # factorized profiles make (1/sqrt(4 pi)) * integral of P over delta
        # equal the peak value
        prof = delta_profile(table_eta10, [0.03, 0.5, 2.0])
        for theta, d_max, p_max in zip(prof.thetas, prof.delta_max, prof.p_max):
            deltas = d_max + np.linspace(-10.0, 10.0, 81)
            p = partialwave.probability_grid(table_eta10, [theta], deltas)[0]
            integral = np.trapezoid(p, deltas) / math.sqrt(4.0 * math.pi)
            assert integral == pytest.approx(p_max, rel=5e-3)
        assert np.all(prof.factorization_residual <= 0.02 * prof.p_max)

    def test_charge_conjugate_peaks(self, table_eta10, table_eta_m10):
        d_plus, p_plus = delta_max_at(table_eta10, 0.03)
        d_minus, p_minus = delta_max_at(table_eta_m10, 0.03)
        assert d_minus == pytest.approx(-d_plus, abs=1e-6)
        assert p_minus == pytest.approx(p_plus, rel=1e-9)

    def test_range_validation(self, table_eta10):
        with pytest.raises(ValueError):
            delta_profile(table_eta10, [0.1], delta_range=(-2.0, 8.0))

    def test_a_step_is_exact_and_stretches_the_top(self, table_eta10):
        # a side that is None is the default window's
        lo, hi, n = partialwave._scan_window(table_eta10)
        prof = delta_profile(table_eta10, [0.5], (-9.0, None), 0.5)
        assert prof.deltas[0] == -9.0 and prof.deltas[-1] >= hi
        assert prof.deltas[-1] - 0.5 < hi and prof.deltas.size == 1 + math.ceil((hi + 9.0) / 0.5)
        assert partialwave._scan_window(table_eta10, (None, 20.0))[:2] == (lo, 20.0)
        assert partialwave._scan_window(table_eta10, (-9.0, 9.0), 0.5) == (-9.0, 9.0, 37)

    def test_a_top_that_rounds_below_hi_gets_one_step_more(self, table_eta10):
        # -100 + 12000 * 0.009 rounds to 7.999999999999986
        assert -100.0 + 12000 * 0.009 < 8.0
        assert partialwave._scan_window(table_eta10, (-100.0, 8.0), 0.009) == (
            -100.0, -100.0 + 12001 * 0.009, 12002)

    @pytest.mark.parametrize("delta_range, delta_step", [
        ((-1e308, 1e308), None), ((-1e308, 1e308), 1.0), (None, 5e-324), ((-8.0, 1e300), 1e-10),
    ], ids=["span-default-step", "span", "subnormal-step", "huge-top"])
    def test_an_uncountable_scan_is_over_the_budget(self, table_eta10, delta_range, delta_step):
        with pytest.raises(ResourceLimitError, match="more deltas than a float can count"):
            partialwave._scan_window(table_eta10, delta_range, delta_step)

    @pytest.mark.parametrize("delta_range, delta_step, match", [
        ((-1.7e308, None), 1e307, r"delta_step 1e\+307 stretches"),
        (None, 10.0, "delta_step 10 leaves 3 deltas"),
        (None, 0.0, "delta_step must be positive and finite"),
        (None, -0.2, "delta_step must be positive and finite"),
        (None, math.nan, "delta_step must be positive and finite"),
        (None, math.inf, "delta_step must be positive and finite"),
    ], ids=["past-the-float-range", "too-few", "zero", "negative", "nan", "inf"])
    def test_a_bad_step_is_rejected(self, table_eta10, delta_range, delta_step, match):
        with pytest.raises(ValueError, match=match):
            partialwave._scan_window(table_eta10, delta_range, delta_step)

    def test_each_angle_builds_one_legendre_row(self, table_eta10, monkeypatch):
        # the coarse scan, p_max and the local integral share one row
        rows = []
        original = specfun.legendre_rows

        def counting(thetas, l_max, **kwargs):
            rows.append(np.size(thetas))
            return original(thetas, l_max, **kwargs)

        monkeypatch.setattr(specfun, "legendre_rows", counting)
        delta_profile(table_eta10, [0.03, 0.5, 1.0, 2.0])
        assert sum(rows) == 4
        rows.clear()
        delta_max_at(table_eta10, 0.7)
        assert sum(rows) == 1

    def test_p_max_is_the_single_point_probability(self, table_eta10, table_free):
        thetas = [0.03, 0.5, 2.0]
        prof = delta_profile(table_eta10, thetas)
        for theta, d, p in zip(thetas, prof.delta_max, prof.p_max):
            assert p == probability(table_eta10, theta, float(d))
        # a flat angle, whose delta_max is pinned to zero
        with pytest.warns(UserWarning, match="flat delta profile"):
            flat = delta_profile(table_free, [2.0])
        assert flat.p_max[0] == probability(table_free, 2.0, 0.0)

    def test_coarse_scan_is_the_probability_grid_and_read_only(self, table_eta10):
        thetas = [0.03, 0.5, 2.0]
        prof = delta_profile(table_eta10, thetas)
        assert np.array_equal(prof.deltas, np.linspace(*partialwave._scan_window(table_eta10)))
        assert np.array_equal(prof.p_scan,
                              partialwave.probability_grid(table_eta10, thetas, prof.deltas))
        for arr in (prof.deltas, prof.p_scan):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_thetas_are_a_read_only_copy(self, table_eta10):
        # a later write to the caller's array must not reach the profile,
        # whose grid probability_sphere_integral checks and integrates
        thetas = np.array([0.3, 0.6])
        prof = delta_profile(table_eta10, thetas)
        thetas[0] = 7.0
        assert prof.thetas.tolist() == [0.3, 0.6]
        with pytest.raises(ValueError, match="read-only"):
            prof.thetas[0] = 0.0

    @pytest.mark.parametrize("delta_step", [0.5, None])
    @pytest.mark.parametrize("bounds", [(math.nan, 9.0), (-math.inf, 9.0), (-9.0, math.inf)],
                             ids=["nan-9", "-inf-9", "-9-inf"])
    def test_non_finite_range_is_rejected(self, table_eta10, bounds, delta_step):
        with pytest.raises(ValueError, match="delta_range must be finite"):
            delta_profile(table_eta10, [0.5], bounds, delta_step)

    def test_profile_across_chunks_equals_one_chunk(self, table_eta10, monkeypatch):
        thetas = np.linspace(0.02, 3.0, 35)
        whole = delta_profile(table_eta10, thetas)
        # 10 rows a chunk, so the 35 angles span 4 chunks
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 10 * 8 * (table_eta10.l_max + 1))
        assert len(partialwave._check_budget(table_eta10, thetas.size, 0)[0]) == 4
        parts = delta_profile(table_eta10, thetas)
        for name in ("delta_max", "p_max", "factorization_residual", "deltas", "p_scan"):
            assert np.array_equal(getattr(parts, name), getattr(whole, name))
        assert np.array_equal(parts.p_scan,
                              partialwave.probability_grid(table_eta10, thetas, whole.deltas))

    def test_a_refused_profile_copies_no_angles(self, table_eta10, monkeypatch):
        # the budget is checked from the count of angles, before the copy
        thetas = midpoint_thetas(1_000_000)
        table_eta10.n_hermite  # the table's own data, built outside the trace
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"^1000000 x \d+ grid needs"):
                delta_profile(table_eta10, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < thetas.nbytes // 8

    @pytest.mark.parametrize("n_theta, delta_range, error", [
        (10 ** 12, None, ResourceLimitError),
        (3, (-7.0, 9.0), ValueError),
    ], ids=["budget", "window"])
    def test_delta_peaks_checks_before_it_builds_the_angles(self, table_eta10,
                                                            n_theta, delta_range, error):
        def angles():
            raise AssertionError("angles built before the request was checked")

        with pytest.raises(error):
            observables.delta_peaks(table_eta10, n_theta, angles, delta_range)

    def test_angles_of_another_count_are_refused(self, table_eta10):
        # three angles for two once gave thetas of shape (3,) beside
        # delta_max of shape (2,)
        with pytest.raises(ValueError, match=r"shape \(3,\), not \(2,\)"):
            observables.delta_peaks(table_eta10, 2, lambda: np.array([0.1, 0.2, 0.3]))

    def test_angles_may_be_a_list(self, table_eta10):
        # a list once ended in an AttributeError after the whole evaluation
        prof = observables.delta_peaks(table_eta10, 1, lambda: [0.5])
        assert prof.thetas.tolist() == [0.5]
        assert (prof.delta_max[0], prof.p_max[0]) == delta_max_at(table_eta10, 0.5)

    def test_a_scalar_angle_is_refused(self, table_eta10):
        # once an IndexError inside the chunk loop
        with pytest.raises(ValueError, match=r"shape \(\), not \(1,\)"):
            delta_profile(table_eta10, 0.5)

    def test_the_callers_angles_stay_writeable(self, table_eta10):
        mine = np.array([0.3, 0.6])
        prof = observables.delta_peaks(table_eta10, 2, lambda: mine)
        assert mine.flags.writeable
        mine[0] = 7.0
        assert prof.thetas.tolist() == [0.3, 0.6]


class TestScatteringAmplitude:
    def test_free_case_vanishes(self, table_free):
        assert scattering_amplitude_f(table_free, table_free.scenario, 0.7) == 0.0

    def test_im_f0_equals_direct_sum(self, table_eta10):
        sc = table_eta10.scenario
        f0 = scattering_amplitude_f(table_eta10, sc, 0.0)
        l = np.arange(table_eta10.l_max + 1, dtype=float)
        x = l + 0.5
        sin2 = 0.5 * (1.0 - table_eta10.phase_cos)
        direct = float(np.sum((2 * l + 1) * np.exp(-2 * EPS ** 2 * x * x) * sin2)) / sc.p
        assert f0.imag == pytest.approx(direct, rel=1e-12)

    def test_square_well_gaussians_are_removable(self):
        # converged short-range sums barely feel the Gaussian damping
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
        model = square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=60)
        table = build_table(sc, model, l_max=60)
        theta = 0.9
        f_damped = scattering_amplitude_f(table, sc, theta)
        row = specfun.legendre_rows(np.array([theta]), 60)[0]
        dl = model.delta_l
        f_bare = complex(np.sum((2 * np.arange(61) + 1) * np.exp(1j * dl)
                                * np.sin(dl) * row)) / sc.p
        assert abs(f_damped - f_bare) / abs(f_bare) <= 100.0 * EPS ** 2

    @pytest.mark.parametrize("eta", [1.0, 10.0, -10.0])
    def test_rutherford_amplitude_times_shadow_factor(self, eta):
        """Away from the forward direction f is the closed-form Rutherford
        amplitude damped by the Gaussian weights' shadow factor
        e^{-2 eps^2 eta^2 cot^2(theta/2)}; modulus within 2e-4 and phase
        within 5e-3 rad (at most 8.9e-5 and 1.8e-3 measured, at theta = 0.3)."""
        table = _table_for_eta(eta)
        sc = table.scenario
        for theta in (0.3, 1.0, 2.0, 3.0):
            f = scattering_amplitude_f(table, sc, theta)
            f_r = rutherford_amplitude(sc, theta)
            shadow = math.exp(-2.0 * EPS ** 2 * eta ** 2 / math.tan(0.5 * theta) ** 2)
            assert abs(abs(f / (f_r * shadow)) - 1.0) <= 2e-4
            assert abs(np.angle(f / f_r)) <= 5e-3

    def test_nan_angle_is_rejected(self, table_eta10):
        for evaluate in (
            lambda: partialwave.amplitude_forward(table_eta10, math.nan, 0.0),
            lambda: partialwave.amplitude_scatter(table_eta10, math.nan, 0.0),
            lambda: scattering_amplitude_f(table_eta10, table_eta10.scenario,
                                           math.nan),
        ):
            with pytest.raises(ValueError, match=r"\[0, pi\]"):
                evaluate()


class TestScenarioMustBeTheTables:
    @pytest.mark.parametrize("call", [
        total_cross_section,
        lambda table, scenario: scattering_amplitude_f(table, scenario, 0.5),
    ], ids=["total_cross_section", "scattering_amplitude_f"])
    def test_only_the_tables_scenario_is_taken(self, call, table_eta10, table_eta800):
        with pytest.raises(ValueError, match="the table's scenario"):
            call(table_eta10, table_eta800.scenario)
        # an equal scenario, built again, is the table's
        again = build_scenario_from_eta(10.0, EPS)
        assert again is not table_eta10.scenario
        assert call(table_eta10, again) == call(table_eta10, table_eta10.scenario)


class TestOptical:
    def test_free_case(self, table_free):
        assert total_cross_section(table_free, table_free.scenario) == 0.0
        assert math.isnan(optical_ratio(table_free))

    def test_gamma_below_unity_across_eta(self):
        for eta in (0.1, 1.0, 10.0, 100.0, 800.0):
            table = _table_for_eta(eta)
            assert optical_ratio(table) < 1.0

    def test_gamma_golden_pin(self, table_eta10):
        assert optical_ratio(table_eta10) == pytest.approx(GOLDEN_GAMMA_ETA10, rel=1e-12)

    @pytest.mark.parametrize("eta", [100.0, 300.0, 800.0])
    def test_gamma_at_large_eta_is_the_ratio_of_damped_sums(self, eta):
        # With sin^2 sigma_l = (1 - cos 2 sigma_l)/2, gamma is
        # (S(4 eps^2) - C(4 eps^2)) / (S(2 eps^2) - C(2 eps^2)), where
        # S(a) = sum_l 2x e^{-a x^2} at x = l + 1/2 and C(a) the same sum
        # weighted by cos 2 sigma_l.  For l << eta each step of 2 sigma_l,
        # 2 atan(eta / (l+1)), is near pi, so the cosine sums cancel, and
        # the midpoint Euler-Maclaurin expansion gives
        # S(a) = 1/a + 1/12 + 7a/480 + O(a^2): 0.50000008333340694 at
        # eps = 1e-3.  The O(a^2) remainder (about 0.0038 a^2 against
        # 40-digit sums) is below 1e-18 of S here, and the tail beyond L
        # below e^{-72}.
        # Bound, from rounding alone: each damped sum of L+1 positive terms
        # carries at most (L+1) u relative error, so the ratio at most
        # (2(L+1) + 1) u, 1.3e-12 at L = 6000.  The cosine sums' residual
        # is measured, not derived: 1.1e-16 to 3.6e-15 on these etas.
        # Scaling the 4 eps^2 damping by 1 + 1e-9 moves gamma by 5.0e-10.
        # At eps = 1e-2 the strength bound is 42.3, so no eta >= 100 exists.
        assert eta_bound(1e-2) < 100.0
        closed = [1.0 / a + 1.0 / 12.0 + 7.0 * a / 480.0
                  for a in (4.0 * EPS * EPS, 2.0 * EPS * EPS)]
        want = closed[0] / closed[1]
        assert want == pytest.approx(0.50000008333340694, rel=1e-16, abs=0.0)
        table = build_table(build_scenario_from_eta(eta, EPS),
                            PhaseShiftModel.coulomb_exact())
        bound = (2 * (table.l_max + 1) + 1) * 2.0 ** -53
        assert abs(optical_ratio(table) / want - 1.0) <= bound

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("eta", [1e-4, -1e-4, 1e-3, -1e-3])
    def test_gamma_at_small_eta_is_the_digamma_ratio(self, eps, eta):
        # sigma_l = Im ln Gamma(l + 1 + i eta)
        #         = eta psi - eta^3 psi''/6 + eta^5 psi''''/120 - ...,
        # psi = psi(l + 1), and sin^2 s = s^2 - s^4/3 + 2 s^6/45 - ..., so
        # sin^2 sigma_l = eta^2 [a - eta^2 b + eta^4 c + ...] with a = psi^2,
        # b = (psi psi'' + psi^4)/3 and
        # c = psi''^2/36 + psi psi''''/60 + 2 psi^3 psi''/9 + 2 psi^6/45.
        # With A_k = sum_l 2x e^{-k eps^2 x^2} a_l (x = l + 1/2), B_k and C_k
        # alike, r = B/A and s = C/A,
        # gamma = (A4 - eta^2 B4 + eta^4 C4 - ...) / (A2 - eta^2 B2 + ...)
        #       = G0 [1 + eta^2 (r2 - r4) + eta^4 (s4 - s2 + r2^2 - r4 r2) + ...],
        # G0 = A4/A2.  The oracle stops at eta^2; successive terms shrink by
        # about eta^2 psi(L+1)^2 <= 8e-5 here, so twice the eta^4 term
        # bounds the rest.  numpy and scipy.special only; the dampings are
        # the table's expressions, so their rounding is common to both sides.
        from scipy.special import digamma, polygamma

        table = build_table(build_scenario_from_eta(eta, eps),
                            PhaseShiftModel.coulomb_exact())
        big_l = table.l_max
        x = np.arange(big_l + 1.0) + 0.5
        psi, psi2, psi4 = digamma(x + 0.5), polygamma(2, x + 0.5), polygamma(4, x + 0.5)
        assert eta * eta * psi[-1] ** 2 <= 8e-5
        terms = (psi ** 2, (psi * psi2 + psi ** 4) / 3.0,
                 psi2 ** 2 / 36.0 + psi * psi4 / 60.0 + 2.0 * psi ** 3 * psi2 / 9.0
                 + 2.0 * psi ** 6 / 45.0)
        w4, w2 = ((2.0 * x) * np.exp(-k * eps * eps * x * x) for k in (4.0, 2.0))
        (a4, b4, c4), (a2, b2, c2) = ([float(np.sum(w * t)) for t in terms] for w in (w4, w2))
        g0 = a4 / a2
        want = g0 * (1.0 + eta ** 2 * (b2 / a2 - b4 / a4))
        eta4 = g0 * eta ** 4 * (c4 / a4 - c2 / a2 + (b2 / a2) ** 2 - b4 / a4 * b2 / a2)
        # Rounding, relative, in units of u = 2^-53:
        # - cos 2 sigma_l is within 1 ulp, u as it lies in [0.5, 1], and
        #   1 - cos is exact, so a damped sum carries the cancellation
        #   kappa = sum w / sum w (1 - cos 2 sigma_l), with
        #   1 - cos 2 sigma = 2 sin^2 sigma from the oracle's terms;
        # - sigma_l is an fsum of parts adding to 12.3 |sigma_0|, then l
        #   atan2 steps summed in order, and |sigma_0| <= 1.37 |sigma_l| for
        #   l >= 1, so it is within (L + 57) u and sin^2 within twice that;
        #   two products and the sum of L + 1 terms add L + 2: 3L + 116 a sum;
        # - the oracle's sums of L + 1 positive terms (digamma within 4 u)
        #   and its ratios: 2L + 24;
        # kappa4 + kappa2 + 8L + 257 in all, below kappa4 + kappa2 + 8 (L + 33).
        kappa4, kappa2 = (float(np.sum(w)) / (2.0 * eta * eta * (a - eta * eta * b))
                          for w, a, b in ((w4, a4, b4), (w2, a2, b2)))
        bound = (kappa4 + kappa2 + 8 * (big_l + 33)) * 2.0 ** -53 + 2.0 * abs(eta4 / want)
        assert abs(optical_ratio(table) / want - 1.0) <= bound

    def test_short_range_check(self):
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
        model = square_well_phase_shifts(0.5, 5.0 / sc.p, sc, l_max=60)
        check = optical_theorem_check_short_range(model, sc)
        assert check.rel_diff <= 1e-4
        assert check.sigma == pytest.approx(check.optical_sigma, rel=2e-4)

    def test_zero_well_and_nonconvergence(self):
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, EPS)
        zero = square_well_phase_shifts(0.0, 5.0 / sc.p, sc, l_max=40)
        check = optical_theorem_check_short_range(zero, sc)
        assert check.sigma == 0.0 and check.optical_sigma == 0.0
        bad = PhaseShiftModel.short_range(np.full(20, 0.3), np.zeros(20))
        with pytest.raises(NonConvergenceError):
            optical_theorem_check_short_range(bad, sc)

    def test_eps_scaling(self):
        sc1 = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-3)
        sc2 = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-2)
        model = square_well_phase_shifts(0.5, 5.0 / sc1.p, sc1, l_max=60)
        r1 = optical_theorem_check_short_range(model, sc1).rel_diff
        r2 = optical_theorem_check_short_range(model, sc2).rel_diff
        assert 50.0 <= r2 / r1 <= 200.0


class TestShadowRegime:
    def test_eta800_backscatter_dominance(self, table_eta800):
        # deep suppression at pi/4, full Rutherford agreement only at pi
        sc = table_eta800.scenario
        pref = 1.0 / (16.0 * sc.eps ** 4 * sc.p ** 2)
        _d, p_quarter = delta_max_at(table_eta800, math.pi / 4.0)
        _d, p_back = delta_max_at(table_eta800, math.pi)
        assert p_quarter * pref / rutherford_dcs(sc, math.pi / 4.0) <= 1e-6
        assert p_back * pref / rutherford_dcs(sc, math.pi) >= 0.5


class TestEnergyRatio:
    @pytest.mark.parametrize("charges, name", [((0, 2), "Z1"), ((79, 0), "Z2"),
                                               ((0, 0), "Z1")])
    def test_a_family_with_a_zero_charge_is_refused(self, charges, name):
        # rho divides by the Rutherford cross section, 0 at a zero charge
        with pytest.raises(ValueError, match=f"^{name} = 0: a free family's rho is 0/0$"):
            ScenarioFamily(*charges, ALPHA_PARTICLE_MASS_MEV, EPS)

    @pytest.mark.parametrize("m0, eps, name", [(-1.0, EPS, "projectile mass"),
                                               (math.inf, EPS, "projectile mass"),
                                               (ALPHA_PARTICLE_MASS_MEV, 0.5, "eps")])
    def test_a_family_with_bad_fixed_inputs_is_refused(self, m0, eps, name):
        # no energy can mend them, so they are refused once, not per energy
        with pytest.raises(ScenarioError, match=name):
            ScenarioFamily(79, 2, m0, eps)

    @pytest.mark.parametrize("m0, E_mev, eps, message", [
        (ALPHA_PARTICLE_MASS_MEV, 1e297, EPS, "Rutherford cross section underflows to 0"),
        (3e-158, 1.7e-158, 0.05, "rho is not finite"),
    ], ids=["underflow", "not-finite"])
    def test_an_undefined_ratio_has_its_own_error(self, m0, E_mev, eps, message):
        family = ScenarioFamily(79, 2, m0, eps)
        with pytest.raises(UndefinedRatioError, match=message):
            observables.energy_ratio_rho(family, E_mev)

    def test_reference_point(self):
        family = ScenarioFamily(79, 2, ALPHA_PARTICLE_MASS_MEV, EPS)
        rho, eta, dmax = observables.energy_ratio_rho(family, 3.8e-3)
        assert 2.5e-7 / 2.0 <= rho <= 2.5e-7 * 2.0
        assert abs(eta - 800.0) <= 16.0
        assert dmax > 0.0

    def test_agreement_limit_at_weak_coupling(self):
        # theta0 = 4 eps eta << pi/4: the ratio should sit near unity
        family = ScenarioFamily(79, 2, ALPHA_PARTICLE_MASS_MEV, EPS)
        sc20 = build_scenario_from_eta(20.0, EPS)
        rho, eta, _ = observables.energy_ratio_rho(family, sc20.E)
        assert abs(eta - 20.0) <= 0.1
        assert abs(rho - 1.0) <= 0.1

    def test_one_legendre_row_per_energy(self, monkeypatch):
        # rho comes from delta_max_at's p_max, not from a second evaluation
        family = ScenarioFamily(79, 2, ALPHA_PARTICLE_MASS_MEV, EPS)
        scenario = family.at_energy(build_scenario_from_eta(20.0, EPS).E)
        table = build_table(scenario, PhaseShiftModel.coulomb_exact())
        dmax, _ = delta_max_at(table, math.pi / 4.0)
        expected = dcs(table, math.pi / 4.0, dmax) / rutherford_dcs(
            scenario, math.pi / 4.0)
        rows = []
        original = specfun.legendre_rows

        def counting(thetas, l_max, **kwargs):
            rows.append(np.size(thetas))
            return original(thetas, l_max, **kwargs)

        monkeypatch.setattr(specfun, "legendre_rows", counting)
        rho, _eta, _dmax = observables.energy_ratio_rho(family, scenario.E)
        assert sum(rows) == 1
        assert rho == expected
