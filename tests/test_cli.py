"""End-to-end command-line tests (subprocess level)."""
from __future__ import annotations

import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "hdqkd.cli"]


def run_cli(*args: str, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, **kwargs
    )


class TestPresetsCommand:
    def test_lists_all(self):
        result = run_cli("presets")
        assert result.returncode == 0
        assert "fig2a" in result.stdout
        assert "fig6b" in result.stdout


class TestPointCommand:
    def test_stdout_csv(self):
        result = run_cli("point", "--preset", "fig2b", "--length", "50")
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0].startswith("length_km,")
        assert lines[1].startswith("50,inf,exact,")

    def test_out_file(self, tmp_path):
        out = tmp_path / "row.csv"
        result = run_cli(
            "point", "--preset", "fig2b", "--length", "10", "--out", str(out)
        )
        assert result.returncode == 0
        assert out.read_text().startswith("length_km,")

    def test_method_and_pulse_overrides(self):
        result = run_cli(
            "point",
            "--preset",
            "fig2b",
            "--length",
            "10",
            "--method",
            "chernoff",
            "--n-pulses",
            "1e11",
        )
        assert result.returncode == 0
        assert ",chernoff," in result.stdout

    def test_config_file(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("[protocol]\nmu = 0.2\nn_pulses = 1e11\n")
        result = run_cli(
            "point", "--config", str(config), "--length", "25"
        )
        assert result.returncode == 0
        assert ",hoeffding," in result.stdout


class TestExitCodes:
    def test_config_error(self):
        result = run_cli("point", "--preset", "nope", "--length", "0")
        assert result.returncode == 1
        assert "config error" in result.stderr

    def test_usage_error_is_config_error(self):
        result = run_cli("point")
        assert result.returncode == 1

    def test_invalid_config_document(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[protocol]\nmu = 0.04\nv1 = 0.03\nv2 = 0.02\n")
        result = run_cli("point", "--config", str(config), "--length", "0")
        assert result.returncode == 1

    def test_computation_error(self):
        # Coverage enforces the multiplicative bound's preconditions;
        # a tiny session cannot satisfy them.
        result = run_cli(
            "coverage",
            "--preset",
            "fig3b",
            "--n-pulses",
            "2000",
            "--trials",
            "100",
            "--seed",
            "4",
        )
        assert result.returncode == 2
        assert "computation error" in result.stderr

    @pytest.mark.parametrize(
        "document, extra, key",
        [
            ("[physical]\nschmidt_d = 8.5\n", (), "[physical] schmidt_d"),
            ("[protocol]\nn_pulses = nan\n", (), "[protocol] n_pulses"),
            ("[physical]\nalpha = nan\n", (), "[physical] alpha"),
            ("", ("--n-pulses", "nan"), "--n-pulses"),
        ],
    )
    def test_non_finite_or_non_integer_value(self, tmp_path, document, extra, key):
        config = tmp_path / "scenario.cfg"
        config.write_text(document)
        result = run_cli(
            "point", "--config", str(config), "--length", "10", *extra
        )
        assert result.returncode == 1
        assert key in result.stderr
        assert result.stdout == ""

    def test_subnormal_decoy_intensity(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text("[protocol]\nv2 = 5e-324\n")
        result = run_cli(
            "point", "--preset", "fig2b", "--config", str(config), "--length", "10"
        )
        assert result.returncode == 1
        assert "v2" in result.stderr

    @pytest.mark.parametrize(
        "document, args, key",
        [
            # e^mu overflowed in the decoy bounds.
            ("[protocol]\nmu = 710\n", ("point", "--length", "0"), "mu"),
            # (eps_pe/3)^4 underflowed to 0 in the multiplicative width.
            (
                "[epsilons]\neps_pe = 1e-100\n",
                ("point", "--preset", "fig4a", "--length", "0"),
                "eps_pe",
            ),
            # numpy takes pulse counts as C longs.
            ("", ("simulate", "--preset", "fig2c", "--n-pulses", "1e19"), "n_pulses"),
            ("", ("coverage", "--preset", "fig2c", "--n-pulses", "1e19"), "n_pulses"),
        ],
    )
    def test_overflowing_value_exits_config_error(self, tmp_path, document, args, key):
        config = tmp_path / "scenario.cfg"
        config.write_text(document)
        result = run_cli(*args, "--config", str(config))
        assert result.returncode == 1
        assert result.stderr.startswith("config error:") and key in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("point", ("--length", "50")),
            ("maxdist", ()),
            ("coverage", ()),
        ],
    )
    def test_exact_method_rejected(self, command, extra):
        result = run_cli(
            command, "--preset", "fig2b", "--method", "exact", "--n-pulses", "1e7", *extra
        )
        assert result.returncode == 1
        assert "config error" in result.stderr
        assert "--method" in result.stderr and "'exact'" in result.stderr
        assert result.stdout == ""

    def test_io_error(self):
        result = run_cli(
            "point",
            "--preset",
            "fig2b",
            "--length",
            "0",
            "--out",
            "/nonexistent-dir/x.csv",
        )
        assert result.returncode == 3


class TestSweepCommand:
    def test_deterministic_across_runs_and_parallelism(self, tmp_path):
        outs = []
        for name, parallel in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            result = run_cli(
                "sweep",
                "--preset",
                "fig2b",
                "--n-pulses",
                "1e11",
                "--l-max",
                "40",
                "--step",
                "20",
                "--parallel",
                parallel,
                "--out",
                str(out),
            )
            assert result.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_plotdata(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.dat"
        result = run_cli(
            "sweep",
            "--preset",
            "fig2b",
            "--l-max",
            "20",
            "--step",
            "10",
            "--out",
            str(out),
            "--plotdata",
            str(plot),
        )
        assert result.returncode == 0
        assert plot.read_text().startswith("# length_km delta_i_bpc")


class TestMaxdistCommand:
    def test_prints_kilometers(self):
        result = run_cli("maxdist", "--preset", "fig2e", "--n-pulses", "1e10")
        assert result.returncode == 0
        value = float(result.stdout.strip())
        assert 50.0 < value < 150.0

    def test_unbounded_prints_inf(self):
        result = run_cli("maxdist", "--preset", "fig2b")
        assert result.returncode == 0
        assert result.stdout.strip() == "inf"


class TestSimulateCommand:
    def test_tally_dump_reproducible(self, tmp_path):
        args = (
            "simulate",
            "--preset",
            "fig2b",
            "--length",
            "10",
            "--n-pulses",
            "50000",
            "--seed",
            "99",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        line = first.stdout.strip().split("\n")[0].split()
        assert line[1] == "TT"
        assert int(line[2]) > 0

    def test_non_integral_pulses_exit_config_error(self):
        result = run_cli("simulate", "--preset", "fig2b", "--n-pulses", "2.5")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "integer n_pulses" in result.stderr

    def test_method_not_offered(self):
        # A simulated tally does not depend on the fluctuation method.
        result = run_cli("simulate", "--preset", "fig2b", "--method", "hoeffding")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "--method" in result.stderr


class TestCoverageCommand:
    def test_reports_fraction(self):
        result = run_cli(
            "coverage",
            "--preset",
            "fig2b",
            "--n-pulses",
            "50000",
            "--trials",
            "100",
            "--method",
            "hoeffding",
            "--seed",
            "11",
        )
        assert result.returncode == 0
        assert result.stdout.startswith("coverage ")
        fraction = float(result.stdout.split()[1])
        assert 0.9 <= fraction <= 1.0
