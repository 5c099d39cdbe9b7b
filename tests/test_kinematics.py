import math

import pytest

from coulscat import (
    ALPHA_PARTICLE_MASS_MEV,
    ScenarioError,
    build_scenario,
    build_scenario_from_eta,
    eps_from_energy_width,
    eta_bound,
    free_transit_time,
    log_shift,
    time_shift_seconds,
)

M0 = ALPHA_PARTICLE_MASS_MEV


class TestBuildScenario:
    def test_gold_alpha_at_3p8_kev_gives_eta_800(self):
        sc = build_scenario(79, 2, M0, 3.8e-3, 1e-3)
        assert abs(sc.eta - 800.0) <= 0.02 * 800.0

    def test_gold_alpha_at_4p8_mev_gives_eta_23(self):
        sc = build_scenario(79, 2, M0, 4.8, 2.1e-4)
        assert abs(sc.eta - 23.0) <= 0.02 * 23.0

    def test_no_field_source_gives_eta_zero(self):
        sc = build_scenario(0, 2, M0, 1.0, 1e-3)
        assert sc.eta == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(E=-1.0, eps=1e-3, m0=M0),
        dict(E=0.0, eps=1e-3, m0=M0),
        dict(E=1.0, eps=0.0, m0=M0),
        dict(E=1.0, eps=-1e-3, m0=M0),
        dict(E=1.0, eps=0.1, m0=M0),
        dict(E=1.0, eps=0.5, m0=M0),
        dict(E=1.0, eps=1e-3, m0=0.0),
        dict(E=math.inf, eps=1e-3, m0=M0),
        dict(E=math.nan, eps=1e-3, m0=M0),
        dict(E=1.0, eps=1e-3, m0=math.inf),
        dict(E=1.0, eps=math.nan, m0=M0),
    ])
    def test_rejects_invalid_inputs(self, kwargs):
        with pytest.raises(ScenarioError):
            build_scenario(79, 2, kwargs["m0"], kwargs["E"], kwargs["eps"])

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 0.05])
    def test_minimum_uncertainty_and_r_choice(self, eps):
        sc = build_scenario(79, 2, M0, 0.5, eps)
        # machine-exact algebraic identities
        assert abs(sc.sigma_x * sc.sigma_p - 0.5) <= 3e-16
        assert abs(2.0 * sc.p * sc.R * eps ** 1.5 - 1.0) <= 1e-14

    # finite inputs whose derived kinematics overflow or underflow: p = inf
    # left sigma_x = R = 0 and a NaN xi that hung the Hermite boxes, p = 0
    # divided by zero
    @pytest.mark.parametrize("m0", [1e300, 1e-300])
    def test_from_eta_rejects_a_mass_whose_kinematics_are_not_finite(self, m0):
        with pytest.raises(ScenarioError, match="momentum p"):
            build_scenario_from_eta(10.0, 1e-3, m0=m0)

    @pytest.mark.parametrize("Z1, m0, E, eps, name", [
        (79, 5e-324, 1e300, 1e-3, "beta"),           # p / m0 overflows
        (79, 1e300, 1.0, 1e-300, "2pR"),             # 2pR = eps^-1.5 = 1e450
        (79, 1e-160, 1e-160, 0.01, "16 eps"),        # a subnormal p^2 times eps^4
    ], ids=["beta", "2pR", "cross-section-scale"])
    def test_rejects_inputs_whose_derived_values_are_not_finite(self, Z1, m0, E, eps, name):
        with pytest.raises(ScenarioError, match=name):
            build_scenario(Z1, 2, m0, E, eps)
        # the same mass and eps at eta = 1, whose energy is derived
        with pytest.raises(ScenarioError):
            build_scenario_from_eta(1.0, eps, Z1=Z1, m0=m0)

    def test_sign_of_eta_follows_charge_product(self):
        assert build_scenario(79, -2, M0, 1.0, 1e-3).eta < 0.0
        assert build_scenario(79, 2, M0, 1.0, 1e-3).eta > 0.0

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
    def test_from_eta_rejects_non_finite_eta(self, eta):
        with pytest.raises(ScenarioError, match="finite"):
            build_scenario_from_eta(eta, 1e-3)

    def test_from_eta_reproduces_requested_eta(self):
        for eta in (-10.0, 0.0, 0.1, 800.0):
            sc = build_scenario_from_eta(eta, 1e-3)
            assert sc.eta == eta
            if eta != 0.0:
                assert (sc.Z1 * sc.Z2 > 0) == (eta > 0)


class TestEtaBound:
    def test_reference_value_at_eps_1e3(self):
        assert abs(eta_bound(1e-3) - 844.0) <= 1.0

    def test_direct_formula_at_eps_1e2(self):
        # independent high-precision evaluation of the closed form
        expected = 1.0 / (4.0 * 0.01 ** 1.5 * abs(1.5 * math.log(100.0) - 1.0))
        assert eta_bound(1e-2) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decreasing_in_eps(self):
        assert eta_bound(1e-4) > eta_bound(1e-3)

    def test_domain(self):
        with pytest.raises(ScenarioError):
            eta_bound(0.5)

    # eps^1.5 underflows to 0, and at a subnormal eps 1/eps overflows and
    # the denominator is NaN
    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_a_vanishing_denominator_is_rejected(self, eps):
        with pytest.raises(ScenarioError, match="denominator vanishes"):
            eta_bound(eps)


class TestLogShift:
    def test_zero_for_free_particle(self):
        assert log_shift(build_scenario(0, 2, M0, 1.0, 1e-3)) == 0.0

    def test_closed_form_at_eps_1e3(self):
        sc = build_scenario_from_eta(10.0, 1e-3)
        expected = (10.0 / sc.p) * (1.5 * math.log(1000.0) - 1.0)
        assert log_shift(sc) == pytest.approx(expected, rel=1e-12)

    def test_at_most_half_r_inside_strength_bound(self):
        for eps in (1e-4, 1e-3, 1e-2):
            sc = build_scenario_from_eta(eta_bound(eps), eps)
            assert abs(log_shift(sc)) <= 0.5 * sc.R * (1.0 + 1e-12)


class TestTransitAndShift:
    def test_free_particle_transit(self):
        sc = build_scenario(0, 2, M0, 1.0, 1e-3)
        assert free_transit_time(sc) == pytest.approx(2.0 * sc.R / sc.beta, rel=1e-14)

    def test_term_by_term_oracle(self):
        sc = build_scenario_from_eta(10.0, 1e-3)
        expected = (2.0 * sc.R
                    - 2.0 * (sc.eta / sc.p) * (math.log(2.0 * sc.p * sc.R) - 1.0)
                    ) / sc.beta
        assert free_transit_time(sc) == pytest.approx(expected, rel=1e-13)

    def test_charge_conjugate_transits_sum_to_4r_over_beta(self):
        plus = build_scenario_from_eta(10.0, 1e-3)
        minus = build_scenario_from_eta(-10.0, 1e-3)
        total = free_transit_time(plus) + free_transit_time(minus)
        assert total == pytest.approx(4.0 * plus.R / plus.beta, rel=1e-13)



class TestTimeShiftSeconds:
    def test_reference_delay_at_3p8_kev(self):
        sc = build_scenario(79, 2, M0, 3.8e-3, 1e-3)
        dt = time_shift_seconds(sc, 5.3)
        assert abs(dt - 2.3e-16) <= 0.05 * 2.3e-16

    def test_zero_and_linearity(self):
        sc = build_scenario(79, 2, M0, 1.0, 1e-3)
        assert time_shift_seconds(sc, 0.0) == 0.0
        assert time_shift_seconds(sc, 2.6) == pytest.approx(
            2.0 * time_shift_seconds(sc, 1.3), rel=1e-15)


def _width_after_transit(sc):
    """The free Gaussian packet's width sqrt(sigma_x^2 + (eps beta t)^2)
    after the 2R transit, t = 2R / beta."""
    t = 2.0 * sc.R / sc.beta
    return math.hypot(sc.sigma_x, sc.eps * sc.beta * t)


class TestSpreading:
    """The choice R = sigma_x / sqrt(eps) keeps the packet's spreading over
    the 2R transit of order eps."""

    def test_transit_growth_factor(self):
        sc = build_scenario(79, 2, M0, 1.0, 1e-3)
        ratio = _width_after_transit(sc) / sc.sigma_x
        assert ratio == pytest.approx(math.sqrt(1.0 + 4.0 * sc.eps), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_spreading_negligible_over_experiment(self, eps):
        sc = build_scenario(79, 2, M0, 1.0, eps)
        growth = _width_after_transit(sc) / sc.sigma_x - 1.0
        assert growth <= 2.0 * eps


class TestUnits:
    def test_linewidth_eps_bound(self):
        # 2 keV linewidth on the 4.8 MeV line
        eps = eps_from_energy_width(2e-3, 4.8)
        assert eps < 2.1e-4
        assert abs(eps * 1e4 - 2.1) < 0.05

    # an infinite width read as eps = inf, and an infinite energy as eps = 0
    @pytest.mark.parametrize("width, E", [(0.0, 4.8), (2e-3, -1.0), (math.inf, 4.8),
                                          (2e-3, math.inf), (math.nan, 4.8)])
    def test_linewidth_rejects_what_is_not_positive_and_finite(self, width, E):
        with pytest.raises(ScenarioError, match="must be positive and finite"):
            eps_from_energy_width(width, E)
