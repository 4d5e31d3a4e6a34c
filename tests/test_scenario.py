"""Configuration parsing and preset fidelity tests."""
from __future__ import annotations

import math

import pytest

from hdqkd.decoy import SINGLE_DECOY, TWO_DECOY
from hdqkd.errors import ConfigError
from hdqkd.physics import GAUSSIAN_FWHM_FACTOR
from hdqkd.scenario import PRESETS, parse_config, preset_names
from hdqkd.security import GaussianSecurityModel, TableSecurityModel


class TestPresets:
    def test_first_two_decoy_preset(self):
        s = parse_config("", preset="fig2a")
        assert s.phys.schmidt_d == 8
        assert s.intensities.mode == TWO_DECOY
        assert s.intensities.mu == 0.01
        assert s.intensities.v1 == pytest.approx(0.005)
        assert s.intensities.v2 == pytest.approx(0.0005)
        assert s.method == "hoeffding"
        assert math.isinf(s.n_pulses)

    def test_parameter_fidelity_everywhere(self):
        for name in preset_names():
            s = parse_config("", preset=name)
            assert s.phys.alpha == 0.2
            assert s.phys.eta_alice == s.phys.eta_bob == 0.93
            assert s.phys.r_dc == 1000.0
            assert s.phys.delta_j == 20e-12
            assert s.phys.delta_coh == 30e-12
            assert s.phys.delta_delta == 10e-12
            assert s.p_t == 0.5
            assert s.beta == 0.9
            assert s.delta_phi == 0.0
            for eps in (
                s.budget.eps_pe,
                s.budget.eps_ec,
                s.budget.eps_bar,
                s.budget.eps_pa,
            ):
                assert eps == 1e-10
            frame = s.frame
            assert frame.t_f == GAUSSIAN_FWHM_FACTOR * 30e-12
            assert frame.delta_cor == s.phys.schmidt_d * 30e-12
            cfg = s.intensities
            assert cfg.v1 == pytest.approx(cfg.mu / 2)
            if cfg.mode == TWO_DECOY:
                assert cfg.v2 == pytest.approx(cfg.v1 / 10)
                assert (cfg.p_mu, cfg.p_v1, cfg.p_v2) == pytest.approx(
                    (0.7, 0.2, 0.1)
                )
            else:
                assert (cfg.p_mu, cfg.p_v1) == pytest.approx((0.8, 0.2))

    def test_fig4_pulse_counts(self):
        assert parse_config("", preset="fig4a").n_pulses == 1e12
        assert parse_config("", preset="fig4b").n_pulses == 1e11

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("", preset="fig9z")


class TestParsing:
    def test_intensity_constraint_rejected(self):
        text = "[protocol]\nmu = 0.04\nv1 = 0.03\nv2 = 0.02\n"
        with pytest.raises(ConfigError, match="mu > v1 \\+ v2"):
            parse_config(text)

    def test_ratios_resolve_probabilities(self):
        s = parse_config("[protocol]\np_t = 0.5\nratios = 7:2:1\n")
        assert (s.intensities.p_mu, s.intensities.p_v1) == pytest.approx((0.7, 0.2))
        assert s.intensities.p_v2 == pytest.approx(0.1)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[protocol]\nbogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("mu = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[protocol]\nmu = 0.1\nmu = 0.2\n")

    def test_comments_and_blank_lines(self):
        text = "# header\n\n[protocol]\nmu = 0.2  # inline comment\n"
        assert parse_config(text).intensities.mu == 0.2

    def test_infinite_pulses(self):
        assert math.isinf(parse_config("[protocol]\nn_pulses = inf\n").n_pulses)
        assert parse_config("[protocol]\nn_pulses = 1e11\n").n_pulses == 1e11

    def test_mode_switch_resets_ratios_and_decoys(self):
        s = parse_config("[protocol]\nmode = single-decoy\n", preset="fig2a")
        assert s.intensities.mode == SINGLE_DECOY
        assert s.intensities.v1 == pytest.approx(0.005)
        assert (s.intensities.p_mu, s.intensities.p_v1) == pytest.approx((0.8, 0.2))

    def test_changing_mu_rederives_decoys(self):
        s = parse_config("[protocol]\nmu = 0.2\n", preset="fig2a")
        assert s.intensities.v1 == pytest.approx(0.1)
        assert s.intensities.v2 == pytest.approx(0.01)

    def test_method_validation(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("[protocol]\nmethod = bogus\n")

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError, match="epsilons"):
            parse_config("[epsilons]\neps_pe = 2.0\n")

    def test_physical_validation(self):
        with pytest.raises(ConfigError, match="physical"):
            parse_config("[physical]\neta_alice = 1.5\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[physical]\nschmidt_d = 8.5\n", "[physical] schmidt_d"),
            ("[protocol]\nn_pulses = nan\n", "[protocol] n_pulses"),
            ("[protocol]\nn_pulses = -inf\n", "[protocol] n_pulses"),
            ("[physical]\nalpha = nan\n", "[physical] alpha"),
            ("[protocol]\nmu = inf\n", "[protocol] mu"),
        ],
    )
    def test_non_finite_and_non_integer_rejected(self, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert key in str(err.value)


class TestSecurityModelSelection:
    def test_default_is_pinned_table(self):
        s = parse_config("")
        assert s.security_ref == "table:pinned"
        assert isinstance(s.security_model, TableSecurityModel)

    def test_gaussian_selection(self):
        s = parse_config("[security_model]\nmodel = gaussian\n")
        assert s.security_ref == "gaussian"
        assert isinstance(s.security_model, GaussianSecurityModel)

    def test_table_from_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "8 0.0 0.0 3.0 0.0\n8 0.0 1000 2.0 1.0\n"
            "8 1000 0.0 2.5 0.5\n8 1000 1000 1.5 1.5\n"
        )
        s = parse_config(f"[security_model]\nmodel = table\ntable = {path}\n")
        assert s.security_ref == f"table:{path}"
        sq = s.security_model.quantities(8, 30e-12, 240e-12, 0.0, 0.0)
        assert sq.i_ab == 3.0

    def test_missing_table_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("[security_model]\nmodel = table\ntable = /no/such/file\n")

    def test_table_key_incompatible_with_gaussian(self):
        with pytest.raises(ConfigError, match="not allowed"):
            parse_config("[security_model]\nmodel = gaussian\ntable = x\n")


class TestSimConfigBridge:
    def test_finite_pulses_required(self):
        s = parse_config("", preset="fig2b")
        with pytest.raises(ConfigError, match="finite"):
            s.sim_config(0.0, seed=1)
        cfg = s.sim_config(10.0, seed=3, n_pulses=1_000)
        assert cfg.n_pulses == 1_000
        assert cfg.channel.length_km == 10.0
        assert cfg.seed == 3
