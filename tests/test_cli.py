import json
import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from coulscat import (
    acceptance,
    build_scenario,
    build_scenario_from_eta,
    build_table,
    cli,
    observables,
    partialwave,
    specfun,
    square_well_phase_shifts,
)
from coulscat.acceptance import CriterionResult
from coulscat.cli import main
from coulscat.kinematics import ALPHA_PARTICLE_MASS_MEV, HBARC_MEV_FM


RECIPES = pathlib.Path(__file__).resolve().parents[1] / "recipes"
# a count too long for a float
_HUGE = "9" * 401


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestProfileDelta:
    def test_basic_profile(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["delta", "probability"]
        assert all(0.0 <= r[1] <= 1.0 + 1e-6 for r in rows)
        summary = capsys.readouterr().out
        assert "delta_max=" in summary and "p_max=" in summary

    def test_flat_profile_warning_is_one_line(self, tmp_path, capsys):
        # deep in the eta = 800 shadow the profile is flat; the package's
        # warning is printed even where the caller makes warnings errors,
        # and the CSV is the one written when the warning is left alone
        argv = ["profile-delta", "--eta", "800", "--theta", "0.05"]
        out, plain = tmp_path / "p.csv", tmp_path / "plain.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: flat delta profile (peak prominence < 1e-12) "
                       "at 1 of 1 angles\n")
        with pytest.warns(UserWarning, match="flat delta profile"):
            assert cli.cmd_profile_delta(cli._parse(argv + ["--out", str(plain)])) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_sign_flip_for_attractive_field(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        main(["profile-delta", "--eta", "10", "--theta", "0.03", "--out", str(out)])
        plus = capsys.readouterr().out
        main(["profile-delta", "--eta", "-10", "--theta", "0.03", "--out", str(out)])
        minus = capsys.readouterr().out
        d_plus = float(plus.split("delta_max=")[1].split()[0])
        d_minus = float(minus.split("delta_max=")[1].split()[0])
        assert d_minus == pytest.approx(-d_plus, abs=1e-4)
        assert d_plus > 0.0  # repulsive field delays the packet

    def test_json_format(self, tmp_path):
        out = tmp_path / "prof.json"
        rc = main(["profile-delta", "--eta", "0", "--theta", "0.0",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["delta_max"] == pytest.approx(0.0, abs=1e-9)
        assert doc["p_max"] == pytest.approx(1.0, abs=1e-6)

    # argparse names the flag; a step of 10 leaves 3 points on the default
    # range, fewer than the 5 the peak refinement needs, which the library
    # refuses in its own words
    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf", "10"])
    def test_bad_delta_step_is_config_error(self, step, capsys):
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03",
                   "--delta-step", step])
        assert rc == 2
        err = capsys.readouterr().err
        expected = "delta_step 10 leaves 3 deltas" if step == "10" else "--delta-step"
        assert expected in err and len(err.strip().splitlines()) == 1

    # windows whose count of deltas is not a finite float: exit 4, as a
    # finite count over the memory budget (--delta-step 1e-300) is
    @pytest.mark.parametrize("flags", [
        ["--delta-step", "5e-324"],
        ["--delta-step", "1e-310"],
        ["--delta-max=1e300", "--delta-step", "1e-10"],
        ["--delta-min=-1e308", "--delta-max=1e308", "--delta-step", "1"],
        ["--delta-step", "1e-300"],
    ], ids=["subnormal-step", "tiny-step", "huge-top", "float-range", "over-budget"])
    def test_uncountable_window_is_resource_error(self, flags, capsys):
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03", *flags])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err.startswith("resource error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_step_that_stretches_past_the_float_range_is_config_error(self, capsys):
        # 18 steps of 1e307 from -1.7e308 reach past 8, but span more than
        # the largest float
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03",
                   "--delta-min=-1.7e308", "--delta-step", "1e307"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("config error: delta_step 1e+307 stretches")
        assert len(captured.err.strip().splitlines()) == 1

    def test_a_top_that_rounds_below_the_window_gets_one_step_more(self, tmp_path):
        # 12000 steps of 0.009 from -100 round to 7.999999999999986, short of
        # the default window's top at eta = -10, 8; the scan ends one step on
        out = tmp_path / "prof.csv"
        assert main(["profile-delta", "--eta=-10", "--theta", "0.03", "--delta-min=-100",
                     "--delta-step", "0.009", "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        assert len(rows) == 12002 and rows[0][0] == -100.0 and rows[-1][0] >= 8.0

    def test_without_out_the_csv_goes_to_stdout_and_the_summary_to_stderr(self, capsys):
        assert main(["profile-delta", "--eta", "10", "--theta", "0.03"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "delta,probability" and len(lines) > 5
        assert all(len([float(x) for x in line.split(",")]) == 2 for line in lines[1:])
        assert captured.err.startswith("theta=0.03 eta=10: delta_max=")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--delta-min", "--delta-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_delta_bound_is_config_error(self, flag, value, capsys):
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.5", f"{flag}={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "finite" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_reversed_delta_bounds_are_config_error(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        rc = main(["profile-delta", "--eta", "1", "--theta", "0.1", "--delta-min", "5",
                   "--delta-max", "-5", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "--delta-min" in captured.err and "--delta-max" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


    # the scan spans at least [-8, 8], and the step is honoured exactly
    @pytest.mark.parametrize("delta_max, top", [("20", 20.0), ("5", 8.0)])
    def test_delta_max_widens_the_scan(self, delta_max, top, tmp_path):
        out = tmp_path / "prof.csv"
        assert main(["profile-delta", "--eta", "10", "--theta", "0.03", "--delta-min=-8",
                     f"--delta-max={delta_max}", "--delta-step", "0.5",
                     "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        deltas = [r[0] for r in rows]
        assert deltas[0] == -8.0 and deltas[-1] == top
        assert len(deltas) == (top + 8.0) / 0.5 + 1

    def test_builds_one_legendre_row(self, tmp_path, monkeypatch, capsys):
        # the CSV is the profile's coarse scan, so the CSV and the summary
        # share one row and one set of moments
        rows = []
        original = specfun.legendre_rows

        def counting(thetas, l_max, **kwargs):
            rows.append(np.size(thetas))
            return original(thetas, l_max, **kwargs)

        monkeypatch.setattr(specfun, "legendre_rows", counting)
        out = tmp_path / "prof.csv"
        assert main(["profile-delta", "--eta", "10", "--theta", "0.03",
                     "--delta-step", "0.05", "--out", str(out)]) == 0
        assert sum(rows) == 1
        monkeypatch.setattr(specfun, "legendre_rows", original)
        _header, body = read_csv(out)
        deltas = [r[0] for r in body]
        table = build_table(build_scenario_from_eta(10.0, 1e-3),
                            partialwave.PhaseShiftModel.coulomb_exact())
        want = partialwave.probability_grid(table, [0.03], deltas)[0]
        assert [r[1] for r in body] == want.tolist()
        summary = capsys.readouterr().out
        p_max = float(summary.split("p_max=")[1].split()[0])
        d_max = float(summary.split("delta_max=")[1].split()[0])
        assert p_max == pytest.approx(partialwave.probability(table, 0.03, d_max),
                                      rel=1e-5)

    # without --delta-step the table is the search's own default scan, the
    # one delta_max_at runs, so both report one peak; a default step of 0.2
    # once scanned other deltas and moved delta_max by up to 3.7e-10
    @pytest.mark.parametrize("eta, theta", [(1.0, 0.5), (10.0, 0.5), (-10.0, 0.5),
                                            (800.0, 1.5)])
    def test_without_a_window_flag_it_is_the_default_search(self, eta, theta, capsys):
        assert main(["profile-delta", f"--eta={eta}", f"--theta={theta}",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        table = build_table(build_scenario_from_eta(eta, 1e-3),
                            partialwave.PhaseShiftModel.coulomb_exact())
        prof = observables.delta_profile(table, [theta])
        assert doc["rows"] == [list(row) for row in zip(prof.deltas.tolist(),
                                                        prof.p_scan[0].tolist())]
        assert (doc["delta_max"], doc["p_max"]) == observables.delta_max_at(table, theta)

    def test_oversized_profile_is_resource_error(self, capsys):
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03",
                   "--delta-step", "1e-9"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("resource error:") and len(err.strip().splitlines()) == 1


class TestAngular:
    def test_weak_coupling_forward_peak(self, tmp_path):
        out = tmp_path / "ang.csv"
        rc = main(["angular", "--eta", "0.1", "--delta", "0", "--theta-min", "0",
                   "--theta-max", "0.005", "--theta-n", "11", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta", "probability", "rutherford_probability",
                          "dcs", "rutherford_dcs", "ratio"]
        # the faithful peak sits 1.6% below unity at eta = 0.1
        assert abs(rows[0][1] - 1.0) <= 0.025
        assert rows[0][2] == float("inf")  # the Rutherford limit at theta = 0

    def test_auto_delta_mode(self, tmp_path):
        out = tmp_path / "auto.csv"
        rc = main(["angular", "--eta", "10", "--delta", "auto", "--theta-min",
                   "0.5", "--theta-max", "1.5", "--theta-n", "5",
                   "--out", str(out)])
        assert rc == 0
        _header, rows = read_csv(out)
        # in the agreement regime the auto-delta ratio hugs unity
        assert all(abs(r[5] - 1.0) <= 0.05 for r in rows)

    def test_flat_profile_warning_is_one_line(self, tmp_path, monkeypatch, capsys):
        # the eta = 800 recipe has flat profiles in its forward shadow; the
        # CSV is the one written when the library's warning is left alone
        argv = ["angular", "--config", str(RECIPES / "angular-eta800-backscatter.cfg")]
        out, plain = tmp_path / "ang.csv", tmp_path / "plain.csv"
        assert main(argv + ["--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: flat delta profile") and ".py" not in err
        assert len(err.splitlines()) == 1
        # the command itself, without `main`'s reporting
        with pytest.warns(UserWarning, match="flat delta profile"):
            assert cli.cmd_angular(cli._parse(argv + ["--out", str(plain)])) == 0
        assert out.read_bytes() == plain.read_bytes()

    # e^{-x^2} is 0 long before x * x overflows, and no warning says otherwise
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", ["1e300", "-1e300"])
    def test_huge_delta_is_zero_without_a_warning(self, delta, tmp_path, capsys):
        out = tmp_path / "ang.csv"
        assert main(["angular", "--eta", "10", "--theta-n", "3", f"--delta={delta}",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _header, rows = read_csv(out)
        assert [r[1] for r in rows] == [0.0, 0.0, 0.0]

    # an overflow warning would mean the field was evaluated before the check
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_delta_is_config_error(self, value, capsys):
        rc = main(["angular", "--eta", "10", f"--delta={value}", "--theta-n", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err and len(captured.err.strip().splitlines()) == 1


    def test_auto_delta_without_angles_is_config_error(self, capsys):
        rc = main(["angular", "--eta", "10", "--theta-n", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta-n" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("delta", ["auto", "0"])
    def test_angle_below_the_smallest_sine(self, delta, capsys):
        # sin^4(theta/2) underflows at theta = 1e-200: the Rutherford
        # columns read inf and the ratio 0, as at theta = 0
        rc = main(["angular", "--eta", "1", "--eps", "0.05", "--delta", delta,
                   "--theta-min", "1e-200", "--theta-max", "1", "--theta-n", "2"])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[1].split(",")
        assert first[2] == first[4] == "inf" and first[5] == "0"

    def test_free_case_reference_is_zero_at_theta_zero(self, capsys):
        # the Rutherford reference is 0 at every angle when eta = 0, the
        # forward direction too
        assert main(["angular", "--eta", "0", "--delta", "0", "--theta-min", "0",
                     "--theta-max", "0.01", "--theta-n", "3"]) == 0
        first = capsys.readouterr().out.splitlines()[1].split(",")
        assert first[0] == "0" and first[2] == first[4] == first[5] == "0"

    @pytest.mark.parametrize("delta", ["auto", "0"])
    @pytest.mark.parametrize("bounds, message", [
        (["--theta-min", "1", "--theta-max", "0.5"], "min <= max"),
        (["--theta-min", "-0.1"], "within [0, pi]"),
        (["--theta-max", "3.5"], "within [0, pi]"),
        (["--theta-max", "nan"], "finite"),
    ])
    def test_bad_theta_bounds_are_config_errors_in_both_delta_modes(
            self, delta, bounds, message, monkeypatch, capsys):
        def no_table(*_args, **_kwargs):
            raise AssertionError("table built before the bounds were checked")

        monkeypatch.setattr(partialwave, "build_table", no_table)
        rc = main(["angular", "--eta", "10", "--delta", delta, "--theta-n", "3", *bounds])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestConservation:
    def test_resolved_free_case_passes(self, capsys):
        rc = main(["conservation", "--eta", "0", "--eps", "0.01",
                   "--sphere-n", "1600"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "weight sum" in text and "sphere integral" in text

    def test_json_to_stdout_leaves_the_summary_on_stderr(self, capsys):
        rc = main(["conservation", "--eta", "1", "--sphere-n", "50", "--out", "-"])
        assert rc in (0, 3)
        captured = capsys.readouterr()
        assert json.loads(captured.out)["sphere_intervals"] == 50
        assert "weight sum" in captured.err and "sphere integral" in captured.err

    def test_flat_profile_warning_leaves_stdout_json(self, capsys):
        rc = main(["conservation", "--eta", "800", "--sphere-n", "40", "--out", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["sphere_intervals"] == 40
        err = captured.err.splitlines()
        assert err[0].startswith("warning: flat delta profile") and len(err) == 3
        assert ".py" not in captured.err

    def test_no_intervals_is_config_error(self, capsys):
        rc = main(["conservation", "--eta", "0", "--sphere-n", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--sphere-n" in err and len(err.strip().splitlines()) == 1

    def test_default_grid_resolves_the_forward_peak(self, capsys):
        # choose_l_max(eps) intervals; the old default of 200 gave a sphere
        # integral of 1.0159 here, exit 3
        rc = main(["conservation", "--eta", "1", "--eps", "1e-2", "--out", "-"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["sphere_intervals"] == 600

    def test_unresolved_grid_breaches_tolerance(self):
        # 200 midpoint intervals cannot resolve the eps-wide forward peak
        rc = main(["conservation", "--eta", "0", "--eps", "0.01",
                   "--sphere-n", "200"])
        assert rc == 3


class TestOptical:
    def test_gamma_sweep(self, tmp_path):
        out = tmp_path / "opt.csv"
        rc = main(["optical", "--eta-min", "0.1", "--eta-max", "800",
                   "--eta-n", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["eta", "gamma", "sigma", "im_f0"]
        assert len(rows) == 5
        assert all(r[1] < 1.0 for r in rows)

    def test_square_well_mode(self, capsys):
        rc = main(["optical", "--model", "square-well", "--energy-mev", "1",
                   "--well-depth-mev", "0.5", "--well-radius-fm", "11.4"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "relative diff" in text

    def test_square_well_json_to_stdout_leaves_the_summary_on_stderr(self, capsys):
        rc = main(["optical", "--model", "square-well", "--energy-mev", "1",
                   "--well-depth-mev", "0.5", "--well-radius-fm", "11.4", "--out", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["model"] == "square-well"
        assert "relative diff" in captured.err

    def test_missing_range_is_config_error(self):
        assert main(["optical"]) == 2

    @pytest.mark.parametrize("eta_min, eta_max, flag", [
        ("1", "inf", "--eta-max"),
        ("nan", "2", "--eta-min"),
        ("-inf", "2", "--eta-min"),
        ("1", "nan", "--eta-max"),
    ])
    def test_non_finite_bound_is_config_error(self, eta_min, eta_max, flag, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["optical", f"--eta-min={eta_min}", f"--eta-max={eta_max}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and "finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--well-radius-fm=inf"], "radius must be positive and finite"),
        (["--well-radius-fm=11.4", "--well-depth-mev=nan"], "depth must be finite"),
        (["--well-radius-fm=11.4", "--well-depth-mev=inf"], "depth must be finite"),
        # phase shifts still large at l = 186, the smallest l_max admitted
        # at eps = 1e-2: the l window is too short
        (["--eps=1e-2", "--well-radius-fm=400", "--l-max=186"], "not converged"),
        # y_l overflows inside the matched l window
        (["--well-radius-fm=1e-8"], "matching failed for l = [31,"),
    ])
    def test_bad_square_well_is_config_error(self, flags, message, capsys):
        rc = main(["optical", "--model", "square-well", "--energy-mev", "1", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and len(captured.err.strip().splitlines()) == 1

    # each mode reads only its own flags; these default to None, so a given
    # one is seen and rejected rather than ignored
    @pytest.mark.parametrize("flags, flag", [
        (["--eta-min", "1", "--eta-max", "2", "--energy-kev", "5000"], "--energy-kev"),
        (["--eta-min", "1", "--eta-max", "2", "--energy-mev", "1"], "--energy-mev"),
        (["--eta-min", "1", "--eta-max", "2", "--eta-n", "2", "--eta", "500"], "--eta"),
        (["--eta-min", "1", "--eta-max", "2", "--well-radius-fm", "3"], "--well-radius-fm"),
        (["--model", "square-well", "--energy-mev", "1", "--well-radius-fm", "11.4",
          "--eta-min", "5"], "--eta-min"),
        (["--model", "square-well", "--energy-mev", "1", "--well-radius-fm", "11.4",
          "--eta-max", "5"], "--eta-max"),
    ], ids=["energy-kev", "energy-mev", "eta", "well-radius-fm", "eta-min", "eta-max"])
    def test_flag_of_the_other_mode_is_config_error(self, flags, flag, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert main(["optical", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"{flag} does not apply" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_descending_range_is_config_error(self, capsys):
        rc = main(["optical", "--eta-min", "1", "--eta-max", "0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--eta-max >= --eta-min" in err and len(err.strip().splitlines()) == 1


class TestEnergyScan:
    def test_skips_over_strength_bound(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["energy-scan", "--energies-kev", "3.0,3.8", "--out", str(out)])
        assert rc == 0
        assert "skipping E=3" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == ["E_keV", "eta", "delta_max", "rho"]
        assert len(rows) == 1
        assert rows[0][0] == 3.8
        assert 1.0e-7 <= rows[0][3] <= 5.5e-7

    @pytest.mark.parametrize("energy, fault", [
        ("1e300", "Rutherford cross section underflows to 0"),
        ("1e308", "momentum p = sqrt(2 m0 E) must be positive and finite"),
    ])
    def test_skips_an_energy_without_a_ratio(self, energy, fault, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["energy-scan", "--energies-kev", f"3.8,{energy}",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: skipping E={float(energy):g} keV") and fault in lines[0]
        header, rows = read_csv(out)
        assert header == ["E_keV", "eta", "delta_max", "rho"]
        assert len(rows) == 1 and rows[0][0] == 3.8
        assert 1.0e-7 <= rows[0][3] <= 5.5e-7

    # the range's flags default to None, so one given beside --energies-kev
    # is seen and rejected rather than ignored
    @pytest.mark.parametrize("flag", ["--e-min-kev=5", "--e-max-kev=5", "--e-n=2"])
    def test_range_flag_beside_a_list_is_config_error(self, flag, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["energy-scan", "--energies-kev", "3800", flag, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"config error: {flag.split('=')[0]} does not apply to "
                                "--energies-kev, which lists the energies\n")

    def test_unexpected_errors_are_not_swallowed(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a strength-bound error")

        monkeypatch.setattr(observables, "energy_ratio_rho", broken)
        with pytest.raises(RuntimeError, match="not a strength-bound error"):
            main(["energy-scan", "--energies-kev", "3.8"])

    @pytest.mark.parametrize("energies, message", [
        ("0.001", "every energy exceeds the strength bound"),
        ("", "--energies-kev"),
        ("3.8,,4", "--energies-kev"),
    ])
    def test_no_energy_to_scan_is_config_error(self, energies, message, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["energy-scan", f"--energies-kev={energies}", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert "error:" in last and message in last

    @pytest.mark.parametrize("charge", ["--Z1", "--Z2"])
    def test_a_zero_charge_is_config_error(self, charge, tmp_path, capsys):
        # rho is a ratio to the Rutherford cross section, 0 for a free family
        out = tmp_path / "scan.csv"
        assert main(["energy-scan", charge, "0", "--energies-kev", "3.8",
                     "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {charge[2:]} = 0: "
                                "a free family's rho is 0/0\n")

    @pytest.mark.parametrize("e_n", ["0", "-3"])
    def test_empty_energy_range_is_config_error(self, e_n, capsys):
        assert main(["energy-scan", f"--e-n={e_n}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--e-n" in captured.err and len(captured.err.strip().splitlines()) == 1


    @pytest.mark.parametrize("flags, message", [
        (["--e-min-kev=200", "--e-max-kev=3.8", "--e-n=2"], "got 3.8 < 200"),
        # the default lower bound is 3.8 keV
        (["--e-max-kev=2"], "got 2 < 3.8"),
    ])
    def test_reversed_energy_range_is_config_error(self, flags, message, monkeypatch,
                                                   capsys):
        def no_energy(*_args, **_kwargs):
            raise AssertionError("an energy was evaluated before the range was checked")

        monkeypatch.setattr(observables, "energy_ratio_rho", no_energy)
        assert main(["energy-scan", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: energy scan requires --e-max-kev >= "
                                f"--e-min-kev, {message}\n")

    # numpy's RuntimeWarning would mean the energies were made before the check
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [["--e-min-kev=-5", "--e-n", "2"],
                                       ["--e-max-kev=0"],
                                       ["--e-min-kev=nan"],
                                       ["--e-max-kev=inf"]])
    def test_non_positive_energy_bound_is_config_error(self, flags, capsys):
        assert main(["energy-scan"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0].split("=")[0] in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestTableDump:
    def test_dump(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table-dump", "--eta", "2", "--l-max", "50", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l,weight,cos2sigma,sin2sigma,xi"
        assert len(lines) == 52

    def test_requires_out(self):
        assert main(["table-dump", "--eta", "2", "--l-max", "50"]) == 2

    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_missing_out_is_rejected_before_the_table_is_built(self, out, monkeypatch,
                                                               capsys):
        def no_table(*_args, **_kwargs):
            raise AssertionError("table built before --out was checked")

        monkeypatch.setattr(partialwave, "build_table", no_table)
        assert main(["table-dump", "--eta", "2", *out]) == 2
        assert "requires --out" in capsys.readouterr().err

    def test_table_round_trip(self, tmp_path):
        sc = build_scenario(79, 2, ALPHA_PARTICLE_MASS_MEV, 1.0, 1e-3)
        radius_fm = 5.0 / sc.p * HBARC_MEV_FM
        model = square_well_phase_shifts(0.5, radius_fm / HBARC_MEV_FM, sc, l_max=40)
        table = build_table(sc, model, l_max=40)
        assert np.allclose(table.xi, 2.0 / sc.sigma_x * model.ddelta_dk)
        path = tmp_path / "table.csv"
        assert main(["table-dump", "--energy-mev", "1", "--model", "square-well",
                     "--well-depth-mev", "0.5", "--well-radius-fm", repr(radius_fm),
                     "--l-max", "40", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "l,weight,cos2sigma,sin2sigma,xi"
        assert len(lines) == table.l_max + 2
        cells = lines[1].split(",")
        assert float(cells[1]) == table.weight[0]


class TestOutputFormats:
    @pytest.mark.parametrize("argv", [
        ["angular", "--eta", "10", "--delta", "0.4", "--theta-min", "0.1",
         "--theta-max", "1.0", "--theta-n", "5"],
        ["optical", "--eta-min", "0.1", "--eta-max", "10", "--eta-n", "3"],
        ["energy-scan", "--energies-kev", "3.8,10"],
        ["profile-delta", "--eta", "10", "--theta", "0.5"],
    ], ids=["angular", "optical", "energy-scan", "profile-delta"])
    def test_csv_and_json_carry_the_same_table(self, argv, tmp_path, capsys):
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(argv + ["--out", str(csv_out)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
        header, rows = read_csv(csv_out)
        doc = json.loads(json_out.read_text())
        assert doc["command"] == argv[0]
        assert doc["columns"] == header
        assert doc["rows"] == rows
        assert "generated_unix" in doc
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out == csv_out.read_text()

    def test_json_has_no_infinity(self, capsys):
        # the Rutherford columns are infinite at theta = 0: JSON (RFC 8259)
        # has no such token, so they are null
        assert main(["angular", "--eta", "10", "--theta-n", "3", "--delta", "0",
                     "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rows = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
        assert rows[0][2] is None and rows[0][4] is None
        assert None not in rows[0][:2] + rows[1] + rows[2]


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 10\ntheta = 0.03\n# comment\ndelta-step = 0.5\n")
        out = tmp_path / "o.csv"
        rc = main(["profile-delta", "--config", str(cfg), "--theta", "0.05",
                   "--out", str(out)])
        assert rc == 0
        _header, rows = read_csv(out)
        # step from config file (0.5), theta overridden by the flag
        assert rows[1][0] - rows[0][0] == pytest.approx(0.5, abs=1e-9)

    def test_config_equals_form_loads_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 10\ntheta = 0.03\ndelta-step = 0.5\n")
        out = tmp_path / "o.csv"
        assert main(["profile-delta", f"--config={cfg}", "--out", str(out)]) == 0
        _header, rows = read_csv(out)
        assert rows[1][0] - rows[0][0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("other", ["missing.cfg", "run.cfg"])
    def test_config_key_in_a_config_file_is_config_error(self, other, tmp_path, capsys):
        # a file cannot name another, whether or not that one exists
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"eta = 10\ntheta = 0.03\nconfig = {tmp_path / other}\n")
        out = tmp_path / "o.csv"
        assert main(["profile-delta", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("config error:") and "'config'" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_config_values_do_not_outlive_their_call(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 10\ntheta = 0.03\ndelta-step = 0.5\n")
        with_cfg, without = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["profile-delta", "--config", str(cfg), "--out", str(with_cfg)]) == 0
        assert main(["profile-delta", "--eta", "10", "--theta", "0.03",
                     "--out", str(without)]) == 0
        _header, rows = read_csv(without)
        # the search's default scan, not the file's step of 0.5
        table = build_table(build_scenario_from_eta(10.0, 1e-3),
                            partialwave.PhaseShiftModel.coulomb_exact())
        want = observables.delta_profile(table, [0.03]).deltas
        assert [r[0] for r in rows] == want.tolist()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    # each line once exited 0, with output that ignored it or a message
    # that did not name the key
    @pytest.mark.parametrize("line, flag", [
        ("model = bogus\nwell-radius-fm = 10", "--model"),
        ("format = xml", "--format"),
        ("theta-n = many", "--theta-n"),
        ("no_such_key = 1", "--no-such-key"),
    ], ids=["model", "format", "theta-n", "unknown-key"])
    def test_bad_config_line_is_an_argument_error(self, line, flag, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"eta = 10\ndelta = 0\ntheta-n = 3\n{line}\n")
        out = tmp_path / "ang.csv"
        assert main(["angular", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert flag in captured.err and "error:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_command_line_energy_replaces_the_files(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 10\n")
        both, flag_only = tmp_path / "both.csv", tmp_path / "flag.csv"
        argv = ["table-dump", "--energy-kev", "5000", "--l-max", "3"]
        assert main(argv + ["--config", str(cfg), "--out", str(both)]) == 0
        assert main(argv + ["--out", str(flag_only)]) == 0
        assert both.read_bytes() == flag_only.read_bytes()

    # flags a command does not read are not registered on it
    @pytest.mark.parametrize("argv, flag", [
        (["energy-scan", "--energies-kev", "3.8"], "--energy-kev=5000"),
        (["energy-scan", "--energies-kev", "3.8"], "--energy-mev=5"),
        (["energy-scan", "--energies-kev", "3.8"], "--eta=10"),
        (["energy-scan", "--energies-kev", "3.8"], "--model=coulomb-asym"),
        (["energy-scan", "--energies-kev", "3.8"], "--l-max=5"),
        (["energy-scan", "--energies-kev", "3.8"], "--workers=2"),
        (["energy-scan", "--energies-kev", "3.8"], "--well-depth-mev=1"),
        (["energy-scan", "--energies-kev", "3.8"], "--well-radius-fm=3"),
        (["conservation", "--eta", "0", "--sphere-n", "2"], "--workers=2"),
        (["conservation", "--eta", "0", "--sphere-n", "2"], "--format=json"),
        (["table-dump", "--eta", "2", "--l-max", "50"], "--workers=2"),
        (["table-dump", "--eta", "2", "--l-max", "50"], "--format=json"),
        (["profile-delta", "--eta", "10", "--theta", "0.03"], "--workers=2"),
        (["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n", "2"], "--workers=2"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v.split("=")[0])
    def test_unread_flag_is_an_argument_error(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + [flag, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "unrecognized arguments" in captured.err and flag in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    # flags a command takes but one of its modes does not read; they default
    # to None, so a given one is seen and rejected rather than ignored
    @pytest.mark.parametrize("argv, flag", [
        (["angular", "--eta", "10", "--theta-n", "3", "--well-radius-fm", "5",
          "--well-depth-mev", "3"], "--well-depth-mev"),
        (["angular", "--eta", "10", "--theta-n", "3", "--well-radius-fm", "5"],
         "--well-radius-fm"),
        (["table-dump", "--eta", "2", "--l-max", "50", "--model", "coulomb-asym",
          "--well-depth-mev", "3"], "--well-depth-mev"),
        (["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n", "2",
          "--well-depth-mev", "3"], "--well-depth-mev"),
        (["optical", "--model", "square-well", "--energy-mev", "1",
          "--well-radius-fm", "11.4", "--eta-n", "3"], "--eta-n"),
        (["optical", "--model", "square-well", "--energy-mev", "1",
          "--well-radius-fm", "11.4", "--format", "csv"], "--format"),
    ], ids=["coulomb-well-depth", "coulomb-well-radius", "asym-well-depth",
            "optical-sweep-well-depth", "square-well-eta-n", "square-well-format"])
    def test_flag_the_mode_does_not_read_is_config_error(self, argv, flag, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"{flag} does not apply" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    # the defaults of those flags, resolved where their mode reads them
    @pytest.mark.parametrize("argv, default", [
        (["table-dump", "--energy-mev", "1", "--l-max", "60", "--model", "square-well",
          "--well-radius-fm", "11.4"], ["--well-depth-mev", "0.5"]),
        (["angular", "--eta", "10", "--theta-n", "5", "--delta", "0.3"],
         ["--format", "csv"]),
        (["optical", "--eta-min", "1", "--eta-max", "2"], ["--eta-n", "25"]),
    ], ids=["well-depth-mev", "format", "eta-n"])
    def test_omitted_flag_takes_its_default(self, argv, default, tmp_path):
        omitted, given = tmp_path / "omitted", tmp_path / "given"
        assert main(argv + ["--out", str(omitted)]) == 0
        assert main(argv + default + ["--out", str(given)]) == 0
        assert omitted.read_bytes() == given.read_bytes()

    def test_config_without_path_is_config_error(self, capsys):
        assert main(["profile-delta", "--eta", "10", "--config"]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and len(err.strip().splitlines()) == 1

    def test_missing_energy_is_config_error(self):
        assert main(["profile-delta", "--theta", "0.1"]) == 2

    def test_conflicting_energy_flags_exit_2(self):
        assert main(["profile-delta", "--theta", "0.1", "--eta", "1",
                     "--energy-kev", "10"]) == 2

    @pytest.mark.parametrize("argv, status", [
        (["angular", "--eta", "-inf"], 2),        # taken for a flag
        (["angular", "--eta", "1", "--bogus"], 2),
        (["no-such-command"], 2),
        ([], 2),
        (["angular", "--help"], 0),
    ])
    def test_argument_errors_return_the_exit_status(self, argv, status, capsys):
        assert main(argv) == status
        captured = capsys.readouterr()
        if status == 0:
            assert captured.out.startswith("usage: coulscat angular")
            assert "--theta-n" in captured.out and captured.err == ""
        else:
            # one line: the error, without the usage block
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1
            assert "error:" in captured.err and "usage:" not in captured.err

    @pytest.mark.parametrize("flags, name", [
        (["--energy-mev", "inf"], "kinetic energy"),
        (["--energy-kev", "nan"], "kinetic energy"),
        (["--energy-mev", "1", "--mass-mev", "inf"], "projectile mass"),
        (["--eta", "inf"], "eta"),
        (["--eta", "nan"], "eta"),
    ])
    def test_non_finite_scenario_input_is_config_error(self, flags, name, capsys):
        assert main(["angular", "--delta", "0", "--theta-n", "3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and "finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    # finite flags whose kinematics are not: p = 0 (a 1e-300 mass) and a
    # Rutherford cross section that underflows to 0 (E = 1e297 MeV) each
    # raised ZeroDivisionError, and a subnormal 16 eps^4 p^2 made
    # dcs_factor inf and wrote rho = nan with exit 0; a ratio that
    # overflows (eta = 1e-158 at a 1e-300 mass) has no rho.  `energy-scan`
    # skips such an energy with a warning naming the fault, and with no
    # energy left writes no table
    @pytest.mark.parametrize("argv, name", [
        (["angular", "--eta", "10", "--mass-mev", "1e-300", "--theta-n", "3"], "momentum p"),
        (["conservation", "--eta", "10", "--mass-mev", "1e-300"], "momentum p"),
        (["energy-scan", "--energies-kev", "1e300"], "E = 1e+297 MeV"),
        (["energy-scan", "--mass-mev", "3e-158", "--energies-kev", "1.7e-155",
          "--eps", "0.05"], "1 / (16 eps^4 p^2)"),
        (["energy-scan", "--mass-mev", "1e-300", "--energies-kev", "6.6e18",
          "--eps", "0.09"], "rho is not finite"),
    ], ids=["angular", "conservation", "energy-scan", "energy-scan-nan",
            "energy-scan-inf"])
    def test_kinematics_out_of_range_are_config_errors(self, argv, name, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        if argv[0] == "energy-scan":
            warning, *lines = lines
            assert warning.startswith("warning: skipping") and name in warning
            name = "no table written"
        assert len(lines) == 1 and lines[0].startswith("config error:") and name in lines[0]

    # no command takes `--workers`: every value, non-positive or not, is an
    # unknown argument
    @pytest.mark.parametrize("workers", ["0", "-5", "2"])
    def test_non_positive_workers_is_config_error(self, workers, capsys):
        rc = main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "3",
                   f"--workers={workers}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers" in captured.err and len(captured.err.strip().splitlines()) == 1

    def test_eps_out_of_range_is_config_error(self):
        assert main(["profile-delta", "--theta", "0.1", "--eta", "1",
                     "--eps", "0.5"]) == 2

    def test_memory_budget_exit_4(self, monkeypatch, capsys):
        # 64 bytes hold no L = 6000 table: `resolve_l_max` refuses it before
        # any table, row or grid is built
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 64)
        rc = main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "100"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource error: a table with l_max = 6000 needs "
                                f"{8 * partialwave._TABLE_ROWS * 6001} bytes, budget is 64\n")

    # delta_profile's coarse scan alone would be 2e6 x 81 values, 1.3 GB
    @pytest.mark.parametrize("argv", [
        ["angular", "--eta", "0", "--theta-n", "2000000"],
        ["conservation", "--eta", "0", "--sphere-n", "2000000"],
    ], ids=["angular", "conservation"])
    def test_memory_budget_counts_the_delta_profile(self, argv, capsys):
        rc = main(argv)
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_memory_budget_counts_the_legendre_rows(self, monkeypatch, capsys):
        # 10 000 bytes would hold the 3 x 1 output (24 bytes) but not three
        # rows of 6001 degrees (144 kB), and not the L = 6000 table either:
        # the table check in `resolve_l_max` comes first and ends the run;
        # ..._beyond_the_table below reaches the row count
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 10_000)
        rc = main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "3"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "resource error: a table with l_max = 6000 needs "
            f"{8 * partialwave._TABLE_ROWS * 6001} bytes, budget is 10000\n")

    # a count of 401 digits does not fit a float; a step of 1e-300 makes a
    # count of deltas of 302 digits
    @pytest.mark.parametrize("argv", [
        ["angular", "--eta", "1", f"--l-max={_HUGE}"],
        ["angular", "--eta", "1", "--delta", "0", f"--theta-n={_HUGE}"],
        ["angular", "--eta", "1", "--delta", "auto", f"--theta-n={_HUGE}"],
        ["conservation", "--eta", "1", f"--sphere-n={_HUGE}"],
        ["optical", "--eta-min", "1", "--eta-max", "2", f"--eta-n={_HUGE}"],
        ["energy-scan", f"--e-n={_HUGE}"],
        ["profile-delta", "--eta", "10", "--theta", "0.03", "--delta-step", "1e-300"],
    ], ids=["l-max", "theta-n", "theta-n-auto", "sphere-n", "eta-n", "e-n", "delta-step"])
    def test_over_budget_counts_are_one_short_line(self, argv, capsys):
        # each count and byte need of more than 15 digits is written to 15
        # significant digits with its exponent
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("resource error: ") and len(line) <= 200
        assert "e+" in line
        if argv[-1].startswith("--l-max"):
            assert line == ("resource error: a table with l_max = 1.00000000000000e+401 "
                            "needs 3.20000000000000e+403 bytes, budget is 1073741824")


# flags with which each command runs to exit 0 or 3
_RUNS = {
    "profile-delta": {"--eta": "10", "--theta": "0.03"},
    "angular": {"--eta": "10", "--theta-n": "3", "--delta": "0"},
    "conservation": {"--eta": "0", "--sphere-n": "20"},
    "optical": {"--eta-min": "1", "--eta-max": "2", "--eta-n": "2"},
    "energy-scan": {"--e-min-kev": "3.8", "--e-max-kev": "10", "--e-n": "2"},
}


class TestTypedFlags:
    """Each flag whose number the parser checks alone: a bad value, on the
    command line or in a config file, is exit 2 and one line naming the
    flag, before any table is built or any output written."""

    BAD = [
        ("profile-delta", "--delta-min", "nan"),
        ("profile-delta", "--delta-max", "inf"),
        ("profile-delta", "--delta-step", "0"),
        ("angular", "--theta-n", "2.5"),
        ("angular", "--delta", "abc"),
        ("conservation", "--sphere-n", "-1"),
        ("optical", "--eta-n", "0"),
        # gamma is undefined at eta = 0
        ("optical", "--eta-min", "0"),
        ("optical", "--eta-max", "-inf"),
        ("energy-scan", "--e-n", "many"),
        ("energy-scan", "--e-min-kev", "-5"),
        ("energy-scan", "--e-max-kev", "inf"),
        ("energy-scan", "--energies-kev", "3.8,0"),
        # Z1 Z2 alpha past the float range was an OverflowError traceback
        ("angular", "--Z1", str(10 ** 400)),
        ("energy-scan", "--Z2", str(-2 ** 53 - 1)),
    ]

    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        def not_built(*_args, **_kwargs):
            raise AssertionError("table built before the flags were checked")

        monkeypatch.setattr(partialwave, "build_table", not_built)

    def _check(self, argv, flag, out, capsys):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"coulscat {argv[0]}: error: argument {flag}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command, flag, value", BAD, ids=[f for _c, f, _v in BAD])
    def test_on_the_command_line(self, command, flag, value, tmp_path, capsys):
        flags = {**_RUNS[command], flag: value}
        self._check([command, *(f"{k}={v}" for k, v in flags.items())], flag,
                    tmp_path / "out", capsys)

    @pytest.mark.parametrize("command, flag, value", BAD, ids=[f for _c, f, _v in BAD])
    def test_in_a_config_file(self, command, flag, value, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        flags = {**_RUNS[command], flag: value}
        config.write_text("".join(f"{k[2:]} = {v}\n" for k, v in flags.items()))
        self._check([command, "--config", str(config)], flag, tmp_path / "out", capsys)


class TestFailedAllocation:
    """A count too large to allocate is exit 4 and one line, like a request
    over the memory budget.  numpy's array makers are replaced so that a
    request of more than 1e9 values raises the MemoryError numpy raises
    when an allocation fails, and nothing is allocated: on a host that
    overcommits memory a real 745 GiB request could be granted.  Every
    command checks the budget from its count before numpy makes the angles,
    etas or energies, so none allocates; with the budget lifted, `optical`'s
    and `energy-scan`'s allocation fails instead."""

    HUGE = 100_000_000_000

    @pytest.fixture
    def refused(self, monkeypatch):
        counts = []

        def failing(make, count):
            def make_or_fail(*args, **kwargs):
                n = count(*args, **kwargs)
                if n > 10 ** 9:
                    counts.append(n)
                    raise MemoryError(f"Unable to allocate {8 * n / 2 ** 30:.0f} GiB for "
                                      f"an array with shape ({n},) and data type float64")
                return make(*args, **kwargs)
            return make_or_fail

        for name in ("linspace", "geomspace"):
            monkeypatch.setattr(np, name, failing(getattr(np, name),
                                                  lambda _a, _b, num=50, *_r, **_k: num))
        monkeypatch.setattr(np, "arange", failing(np.arange, lambda *args, **_k: max(
            abs(a) for a in args if isinstance(a, (int, float)))))
        return counts

    # `budget`: the word after the count in the budget's refusal, or None
    # with the budget lifted past the request
    @pytest.mark.parametrize("argv, budget", [
        (["angular", "--eta", "10", "--delta", "0", "--theta-n"], "x"),
        (["angular", "--eta", "10", "--delta", "auto", "--theta-n"], "x"),
        (["conservation", "--eta", "0", "--sphere-n"], "x"),
        (["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n"], "etas"),
        (["energy-scan", "--e-n"], "energies"),
        (["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n"], None),
        (["energy-scan", "--e-n"], None),
    ], ids=["angular-fixed-delta", "angular-auto-delta", "conservation", "optical",
            "energy-scan", "optical-past-the-budget", "energy-scan-past-the-budget"])
    def test_count_too_large_to_allocate_is_resource_error(self, argv, budget, refused,
                                                           monkeypatch, capsys):
        if budget is None:
            monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET", 2 ** 62)
        assert main(argv + [str(self.HUGE)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        if budget:
            assert refused == []
            assert captured.err.startswith(f"resource error: {self.HUGE} {budget} ")
            assert len(captured.err.splitlines()) == 1
        else:
            assert refused == [self.HUGE]
            assert captured.err == (f"resource error: Unable to allocate 745 GiB for an "
                                    f"array with shape ({self.HUGE},) and data type float64\n")


class TestOneRuleOneOwner:
    """The truncation, the table's memory and the warnings each have one
    owner, and the CLI reports each in one line."""

    @pytest.mark.parametrize("argv", [
        ["angular", "--eta", "10", "--theta-n", "3", "--delta", "0", "--l-max", "200",
         "--tail-tol", "1e-30"],
        ["table-dump", "--energy-mev", "1", "--model", "square-well",
         "--well-radius-fm", "11.4", "--tail-tol", "1e-6", "--l-max", "60"],
    ], ids=["angular", "square-well-table-dump"])
    def test_tail_tol_with_l_max_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "--l-max" in captured.err and "--tail-tol" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_tail_tol_in_the_config_with_l_max_on_the_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("eta = 10\ntheta-n = 3\ndelta = 0\ntail_tol = 1e-30\n")
        assert main(["angular", "--config", str(config), "--l-max", "200"]) == 2
        err = capsys.readouterr().err
        assert "--l-max" in err and "--tail-tol" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["angular", "--eta", "10", "--theta-n", "2", "--delta", "0"],
        ["table-dump", "--eta", "10"],
        ["table-dump", "--energy-mev", "1", "--model", "square-well",
         "--well-radius-fm", "11.4"],
    ], ids=["angular", "table-dump", "square-well-table-dump"])
    def test_table_over_the_budget_exits_4_before_it_is_built(self, argv, monkeypatch,
                                                               tmp_path, capsys):
        def not_built(*_args, **_kwargs):
            raise AssertionError("table data made before the budget check")

        # one byte short of an L = 6000 table with its derived data
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET",
                            8 * partialwave._TABLE_ROWS * 6001 - 1)
        monkeypatch.setattr(specfun, "coulomb_sigma_table", not_built)
        monkeypatch.setattr(partialwave, "square_well_phase_shifts", not_built)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("resource error: a table with l_max = 6000")
        assert len(captured.err.strip().splitlines()) == 1

    def test_memory_budget_counts_the_legendre_rows_beyond_the_table(self, monkeypatch,
                                                                      capsys):
        # the table fits; 100 Legendre rows of 6001 degrees (4.8 MB) do not
        monkeypatch.setattr(partialwave, "DEFAULT_MEMORY_BUDGET",
                            8 * partialwave._TABLE_ROWS * 6001)
        assert main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "100"]) == 4
        assert capsys.readouterr().err.startswith("resource error: 100 x 1 grid needs")

    def test_any_warning_is_one_line_and_the_callers_filters_hold(self, monkeypatch,
                                                                   capsys):
        factor = observables.dcs_factor

        def noisy(scenario):
            warnings.warn("noisy factor", RuntimeWarning)
            return factor(scenario)

        monkeypatch.setattr(observables, "dcs_factor", noisy)
        argv = ["angular", "--eta", "1", "--delta", "0", "--theta-n", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert main(argv) == 0
        assert capsys.readouterr().err == "warning: noisy factor\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="noisy factor"):
                main(argv)


class TestTruncatedSeries:
    """A given --l-max below choose_l_max(eps, 1e-3) cuts the series inside
    its weights, and every command that sums the series refuses it
    (`table-dump` takes any: `TestTableDump::test_dump`)."""

    COMMANDS = {
        "angular": ["angular", "--eta", "1", "--delta", "0", "--theta-n", "3"],
        "profile-delta": ["profile-delta", "--eta", "1", "--theta", "0.5"],
        "optical-sweep": ["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n", "2"],
        "optical-square-well": ["optical", "--model", "square-well", "--energy-mev", "1",
                                "--well-radius-fm", "11.4"],
        "conservation": ["conservation", "--eta", "1", "--sphere-n", "60"],
    }

    # before the floor, angular summed each row with exit 0 and conservation
    # reported weight sums of 0.647, 0.983, 0.0104 and 0 with exit 3
    @pytest.mark.parametrize("eps, l_max, floor", [
        ("1e-2", "50", 186), ("1e-2", "100", 186), ("1e-3", "50", 1858),
        ("1e-60", "50", partialwave.choose_l_max(1e-60, 1e-3)),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_l_max_below_the_floor_exits_2_before_any_table(self, command, eps, l_max,
                                                            floor, monkeypatch, tmp_path,
                                                            capsys):
        def not_built(*_args, **_kwargs):
            raise AssertionError("table or phase shifts built before the check")

        monkeypatch.setattr(partialwave, "build_table", not_built)
        monkeypatch.setattr(partialwave, "square_well_phase_shifts", not_built)
        out = tmp_path / "out"
        argv = self.COMMANDS[command] + ["--eps", eps, "--l-max", l_max, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"config error: --l-max {l_max} cuts the series inside "
                                f"its weights at eps = {float(eps):g}; the smallest "
                                f"admissible is {floor}\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_floor_itself_is_admitted(self, command, tmp_path):
        argv = self.COMMANDS[command] + ["--eps", "1e-2", "--l-max", "186"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0


class TestSelftest:
    def test_exit_zero_when_all_pass(self, monkeypatch, capsys):
        fake = [CriterionResult(1, "a", True, "ok")]
        monkeypatch.setattr(acceptance, "run_all",
                            lambda report=print: ([report("[PASS] stub"), fake][1]))
        assert main(["selftest"]) == 0
        assert "1/1 criteria passed" in capsys.readouterr().out

    def test_exit_three_on_failure(self, monkeypatch, capsys):
        fake = [CriterionResult(1, "a", True, "ok"),
                CriterionResult(2, "b", False, "bad")]
        monkeypatch.setattr(acceptance, "run_all", lambda report=print: fake)
        assert main(["selftest"]) == 3
        assert "1/2 criteria passed" in capsys.readouterr().out


class TestCommandMemory:
    """What a command holds besides its evaluation, traced with 64 KiB
    Legendre chunks (67 rows at eps = 0.05, where L = 120).  Each bound lies
    between the peak measured on a correct tree and on the tree before the
    test, where the defect it names lived and the test fails."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(partialwave, "_CHUNK_BYTES", 1 << 16)

    @staticmethod
    def _peak(argv):
        tracemalloc.start()
        try:
            status = main(argv)
            return status, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_angular_streams_its_rows(self, tmp_path):
        # 5,000 rows of six floats held as tuples weigh about 1.2 MB; the
        # sweep's output and the angles 40 kB each.  Peak 0.60 MB streamed,
        # 1.59 MB with the rows held (`fae18a9`)
        out = tmp_path / "ang.csv"
        argv = ["angular", "--eta", "1", "--eps", "0.05", "--delta", "0.4",
                "--theta-n", "5000", "--out", str(out)]
        status, peak = self._peak(argv)
        assert status == 0 and peak < 1_000_000
        assert len(out.read_text().splitlines()) == 5_001

    def test_angular_streams_its_json_rows(self, tmp_path):
        # the rows as lists of Python floats and one string of the whole
        # document: peak 4.73 MB (`3c43d5c`), 0.39 MB streamed
        out = tmp_path / "ang.json"
        argv = ["angular", "--eta", "1", "--eps", "0.05", "--delta", "0.4",
                "--theta-n", "5000", "--format", "json", "--out", str(out)]
        status, peak = self._peak(argv)
        assert status == 0 and peak < 1_000_000
        doc = json.loads(out.read_text())
        assert list(doc) == ["command", "eta", "eps", "columns", "rows", "generated_unix"]
        assert len(doc["rows"]) == 5_000 and len(doc["rows"][0]) == 6

    @pytest.mark.parametrize("argv", [
        ["conservation", "--eta", "1", "--eps", "0.05", "--sphere-n", "5000000"],
        ["angular", "--eta", "1", "--eps", "0.05", "--delta", "auto",
         "--theta-n", "5000000"],
    ], ids=["conservation", "angular-auto-delta"])
    def test_a_refused_profile_builds_no_angles(self, argv, capsys):
        # the 5e6 angles alone would be 40 MB
        status, peak = self._peak(argv)
        assert status == 4 and peak < 4_000_000
        assert capsys.readouterr().err.startswith("resource error: 5000000 x ")

    @pytest.mark.parametrize("argv", [
        ["optical", "--eta-min", "1", "--eta-max", "2", "--eta-n", "100000000"],
        ["energy-scan", "--e-n", "100000000"],
    ], ids=["optical", "energy-scan"])
    def test_a_refused_sweep_makes_no_values(self, argv, capsys):
        # 10^8 etas alone are 800 MB, and 10^8 energies as a list of numpy
        # floats 4.8 GB: without the count's check (`bf1eec0`) `optical`
        # ran until it was killed
        start = time.perf_counter()
        status, peak = self._peak(argv)
        assert time.perf_counter() - start < 1.0
        assert status == 4 and peak < 1_000_000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource error: 100000000 ")
        assert len(captured.err.splitlines()) == 1

    def test_conservation_keeps_no_coarse_scan(self, tmp_path):
        # the 2,000 x 86 coarse scan alone would weigh 1.38 MB; each
        # chunk's 67 rows of it are reduced and dropped.  Peak 0.44 MB, and
        # 1.82 MB with the scan kept (`4a0affa`)
        argv = ["conservation", "--eta", "1", "--eps", "0.05", "--sphere-n", "2000",
                "--out", str(tmp_path / "c.json")]
        status, peak = self._peak(argv)
        assert status == 0 and peak < 8 * 2_000 * 86

    def test_angular_auto_keeps_no_coarse_scan(self, tmp_path):
        # as `conservation`: only each angle's p_max outlives its chunk.
        # Peak 0.45 MB, and 1.82 MB with the scan kept (`c70b0fb`)
        out = tmp_path / "ang.csv"
        argv = ["angular", "--eta", "1", "--eps", "0.05", "--delta", "auto",
                "--theta-n", "2000", "--out", str(out)]
        status, peak = self._peak(argv)
        assert status == 0 and peak < 8 * 2_000 * 86
        assert len(out.read_text().splitlines()) == 2_001
