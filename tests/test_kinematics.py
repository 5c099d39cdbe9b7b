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
    scaled_shift,
    spreading_width,
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

    def test_scaled_shift_definition(self):
        sc = build_scenario_from_eta(10.0, 1e-3)
        t_free = free_transit_time(sc)
        assert scaled_shift(sc, t_free) == 0.0
        assert scaled_shift(sc, t_free + sc.sigma_x / sc.beta) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_inversion(self):
        sc = build_scenario_from_eta(-3.0, 1e-3)
        for delta in (-4.5, 0.0, 0.37, 6.0):
            t = free_transit_time(sc) + delta * sc.sigma_x / sc.beta
            assert scaled_shift(sc, t) == pytest.approx(delta, abs=1e-12)


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


class TestSpreading:
    def test_minimal_at_t_zero_and_even(self):
        sc = build_scenario(79, 2, M0, 1.0, 1e-3)
        assert spreading_width(sc, 0.0) == sc.sigma_x
        assert spreading_width(sc, 3.0e5) == spreading_width(sc, -3.0e5)

    def test_transit_growth_factor(self):
        sc = build_scenario(79, 2, M0, 1.0, 1e-3)
        t = 2.0 * sc.R / sc.beta
        ratio = spreading_width(sc, t) / sc.sigma_x
        assert ratio == pytest.approx(math.sqrt(1.0 + 4.0 * sc.eps), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_spreading_negligible_over_experiment(self, eps):
        sc = build_scenario(79, 2, M0, 1.0, eps)
        growth = spreading_width(sc, 2.0 * sc.R / sc.beta) / sc.sigma_x - 1.0
        assert growth <= 2.0 * eps


class TestUnits:
    def test_linewidth_eps_bound(self):
        # 2 keV linewidth on the 4.8 MeV line
        eps = eps_from_energy_width(2e-3, 4.8)
        assert eps < 2.1e-4
        assert abs(eps * 1e4 - 2.1) < 0.05
