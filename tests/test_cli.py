import json

import pytest

from coulscat import acceptance, observables, scan
from coulscat.acceptance import CriterionResult
from coulscat.cli import main


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

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_bad_delta_step_is_config_error(self, step, capsys):
        rc = main(["profile-delta", "--eta", "10", "--theta", "0.03",
                   "--delta-step", step])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--delta-step" in err and len(err.strip().splitlines()) == 1


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
        assert rows[0][2] == float("inf")  # Rutherford sentinel at theta = 0

    def test_worker_counts_agree_byte_for_byte(self, tmp_path):
        args = ["angular", "--eta", "10", "--delta", "0.4", "--theta-min", "0.1",
                "--theta-max", "1.0", "--theta-n", "40"]
        out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_auto_delta_mode(self, tmp_path):
        out = tmp_path / "auto.csv"
        rc = main(["angular", "--eta", "10", "--delta", "auto", "--theta-min",
                   "0.5", "--theta-max", "1.5", "--theta-n", "5",
                   "--out", str(out)])
        assert rc == 0
        _header, rows = read_csv(out)
        # in the agreement regime the auto-delta ratio hugs unity
        assert all(abs(r[5] - 1.0) <= 0.05 for r in rows)


class TestConservation:
    def test_resolved_free_case_passes(self, capsys):
        rc = main(["conservation", "--eta", "0", "--eps", "0.01",
                   "--sphere-n", "1600"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "weight sum" in text and "sphere integral" in text

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

    def test_missing_range_is_config_error(self):
        assert main(["optical"]) == 2

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

    def test_unexpected_errors_are_not_swallowed(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a strength-bound error")

        monkeypatch.setattr(observables, "energy_ratio_rho", broken)
        with pytest.raises(RuntimeError, match="not a strength-bound error"):
            main(["energy-scan", "--energies-kev", "3.8"])


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

    def test_config_without_path_is_config_error(self, capsys):
        assert main(["profile-delta", "--eta", "10", "--config"]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and len(err.strip().splitlines()) == 1

    def test_missing_energy_is_config_error(self):
        assert main(["profile-delta", "--theta", "0.1"]) == 2

    def test_conflicting_energy_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile-delta", "--theta", "0.1", "--eta", "1",
                  "--energy-kev", "10"])
        assert exc.value.code == 2

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

    def test_eps_out_of_range_is_config_error(self):
        assert main(["profile-delta", "--theta", "0.1", "--eta", "1",
                     "--eps", "0.5"]) == 2

    def test_memory_budget_exit_4(self, monkeypatch):
        monkeypatch.setattr(scan, "DEFAULT_MEMORY_BUDGET", 64)
        rc = main(["angular", "--eta", "1", "--delta", "0", "--theta-n", "100"])
        assert rc == 4


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
