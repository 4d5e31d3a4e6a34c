"""Configuration parsing and preset fidelity tests."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdqkd.errors import ConfigError, DomainError, HdqkdError
from hdqkd.physics import GAUSSIAN_FWHM_FACTOR
from hdqkd.scenario import (
    _SECTIONS,
    PRESETS,
    SINGLE_DECOY,
    TWO_DECOY,
    parse_config,
    preset_names,
)
from hdqkd.security import GaussianSecurityModel, TableSecurityModel
from hdqkd.sweep import run_point

# Fuzz alphabet: every accepted key, and the words a value may be.
KEYS = sorted((section, key) for section, keys in _SECTIONS.items() for key in keys)
WORDS = [
    TWO_DECOY, SINGLE_DECOY, "hoeffding", "chernoff", "gaussian", "table",
    "inf", "-inf", "nan", "7:2:1", "4:1", "1:1:1", "8", "32", "0", "x",
]


class TestPresets:
    def test_first_two_decoy_preset(self):
        s = parse_config("", preset="fig2a")
        assert s.phys.schmidt_d == 8
        assert s.intensities.v2 is not None
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
            if cfg.v2 is not None:
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
        assert s.intensities.v2 is None
        assert s.intensities.v1 == pytest.approx(0.005)
        assert (s.intensities.p_mu, s.intensities.p_v1) == pytest.approx((0.8, 0.2))

    def test_changing_mu_rederives_decoys(self):
        s = parse_config("[protocol]\nmu = 0.2\n", preset="fig2a")
        assert s.intensities.v1 == pytest.approx(0.1)
        assert s.intensities.v2 == pytest.approx(0.01)

    def test_method_validation(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("[protocol]\nmethod = bogus\n")

    def test_exact_is_not_a_method(self):
        # At N = inf every method already gives the exact row.
        with pytest.raises(ConfigError, match="method.*'exact'"):
            parse_config("[protocol]\nmethod = exact\nn_pulses = 1e9\n")

    @pytest.mark.parametrize("value", ["5e-324", "1e-320"])
    def test_subnormal_intensity_named(self, value):
        # lam * p underflowed to 0 in the excess-noise bound.
        with pytest.raises(ConfigError, match=f"v2 .*{value}"):
            parse_config(f"[protocol]\nv2 = {value}\n", preset="fig2b")

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

    @pytest.mark.parametrize(
        "body, start",
        [
            ("[physical]\nalpha = x", "line 4: [physical] alpha: not a number"),
            ("[protocol]\nmu = nan", "line 4: [protocol] mu: must be finite"),
            ("[physical]\nschmidt_d = 8.5", "line 4: [physical] schmidt_d: not an"),
            ("[epsilons]\neps_pa = inf", "line 4: [epsilons] eps_pa: must be finite"),
            ("[protocol]\nn_pulses = 0", "line 4: [protocol] n_pulses: must be > 0"),
            ("[protocol]\nratios = 1:2", "line 4: [protocol] ratios: two-decoy mode"),
            ("[protocol]\nratios = a:b:c", "line 4: [protocol] ratios: not numbers"),
            ("[protocol]\nratios = 0:1:1", "line 4: [protocol] ratios: weights must"),
            # Finite weights whose selection probabilities leave (0, 1): the
            # sum overflows, p_mu rounds to 1, v2 gets no remainder.
            (
                "[protocol]\nratios = 1e308:1e308:1",
                "line 4: [protocol] ratios: selection probabilities must lie in",
            ),
            (
                "[protocol]\nratios = 1:1e-300:1e-300",
                "line 4: [protocol] ratios: selection probabilities must lie in",
            ),
            (
                "[protocol]\nratios = 1:1:1e-17",
                "line 4: [protocol] ratios: selection probabilities must lie in",
            ),
            (
                "[protocol]\nmode = single-decoy\nratios = 1e308:1e308",
                "line 5: [protocol] ratios: selection probabilities must lie in",
            ),
            ("[protocol]\nmode = x", "line 4: [protocol] mode: expected"),
            ("[protocol]\nmode = single-decoy\nv2 = 0.01", "line 5: [protocol] v2"),
            ("[security_model]\nmodel = x", "line 4: [security_model] model"),
            ("[security_model]\ntable = /no/such", "line 4: [security_model] table: "),
            (
                "[security_model]\nmodel = gaussian\ntable = x",
                "line 5: [security_model] table: not allowed",
            ),
            ("[protocol]\nmu = 710", "line 4: [protocol] invalid intensities: mu "),
            (
                "[physical]\neta_alice = 1.5",
                "line 4: [physical] invalid parameters: eta_alice must lie in",
            ),
            ("[protocol]\nmethod = bogus", "line 4: [protocol] method must be"),
            ("[protocol]\np_t = 1.5", "line 4: p_t must lie in (0, 1), got 1.5"),
        ],
    )
    def test_value_errors_name_their_line(self, body, start):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# a scenario\n\n{body}\n", preset="fig2b")
        assert str(err.value).startswith(start)

    @pytest.mark.parametrize("weights", ["nan:1:1", "inf:1:1", "1:nan:1", "1:1:inf"])
    def test_non_finite_ratio_named(self, weights):
        with pytest.raises(ConfigError, match=r"\[protocol\] ratios"):
            parse_config(f"[protocol]\nratios = {weights}\n")


class TestConfigFuzz:
    """Any document either is rejected or evaluates to documented values."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        preset=st.sampled_from([None, *preset_names()]),
        document=st.dictionaries(
            st.sampled_from(KEYS),
            st.floats().map(repr) | st.sampled_from(WORDS),
            max_size=4,
        ),
    )
    # e^mu overflowed in the decoy bounds.
    @example(preset=None, document={("protocol", "mu"): "710"})
    @example(
        preset=None,
        document={("protocol", "mu"): "710", ("protocol", "mode"): SINGLE_DECOY},
    )
    # (eps_pe/3)^4 underflowed to 0 in the multiplicative width.
    @example(preset="fig4a", document={("epsilons", "eps_pe"): "1e-100"})
    def test_accepted_documents_give_finite_rows(self, preset, document):
        text = "".join(
            f"[{sec}]\n{key} = {value}\n" for (sec, key), value in document.items()
        )
        try:
            scenario = parse_config(text, preset=preset)
            rows = [run_point(scenario, length) for length in (0.0, 80.0)]
        except HdqkdError:
            return
        for row in rows:
            terms = (row.kmu_lb, row.ec_term, row.pa_term, row.smooth_term)
            assert all(math.isfinite(t) for t in terms), row
            capacity = (row.delta_i, row.r_hd, row.zeta_t_ub, row.zeta_w_ub)
            if row.delta_i == -math.inf:  # the no-key sentinels
                assert capacity == (-math.inf, -math.inf, math.inf, math.inf), row
            else:
                assert all(math.isfinite(v) for v in capacity), row


class TestScenarioGuards:
    """The dataclass rejects NaN on the API path, not only in the parser."""

    @pytest.mark.parametrize(
        "field, value, via_overrides",
        [
            ("n_pulses", math.nan, True),
            ("n_pulses", math.nan, False),
            ("delta_phi", math.nan, False),
            # An infinite baseline used to give more key than zero.
            ("delta_phi", math.inf, False),
            ("p_t", math.nan, False),
            ("beta", math.nan, False),
        ],
    )
    def test_non_finite_rejected(self, field, value, via_overrides):
        s = parse_config("", preset="fig2b")
        with pytest.raises(ConfigError, match=field):
            if via_overrides:
                s.with_overrides(**{field: value})
            else:
                replace(s, **{field: value})


class TestSecurityModelSelection:
    def test_default_is_pinned_table(self):
        s = parse_config("")
        assert s.security_ref == "table:pinned"
        assert isinstance(s.security_model, TableSecurityModel)

    def test_pinned_table_shared_between_parses(self):
        # One model per process, so two parses of one document are equal.
        first, second = parse_config(""), parse_config("")
        assert first.security_model is second.security_model
        assert first == second

    def test_table_file_read_per_parse(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "8 0.0 0.0 3.0 0.0\n8 0.0 1000 2.0 1.0\n"
            "8 1000 0.0 2.5 0.5\n8 1000 1000 1.5 1.5\n"
        )
        text = f"[security_model]\nmodel = table\ntable = {path}\n"
        first = parse_config(text)
        path.write_text(path.read_text().replace("3.0 0.0", "2.9 0.0", 1))
        second = parse_config(text)
        assert first.security_model is not second.security_model
        sq = second.security_model.quantities(8, 0.0, 0.0)
        assert sq.i_ab == 2.9

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
        sq = s.security_model.quantities(8, 0.0, 0.0)
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
        with pytest.raises(DomainError, match="finite"):
            s.sim_config(0.0, seed=1)
        cfg = s.sim_config(10.0, seed=3, n_pulses=1_000)
        assert cfg.n_pulses == 1_000
        assert cfg.channel.length_km == 10.0
        assert cfg.seed == 3

    @pytest.mark.parametrize("pulses", [2.5, 1e6 + 0.5, math.nan, -math.inf])
    def test_non_integral_pulses_rejected(self, pulses):
        s = parse_config("", preset="fig2b")
        with pytest.raises(DomainError, match="integer n_pulses"):
            s.sim_config(0.0, seed=1, n_pulses=pulses)

    def test_integral_float_pulses_accepted(self):
        cfg = parse_config("", preset="fig2b").sim_config(0.0, seed=1, n_pulses=2e3)
        assert cfg.n_pulses == 2_000
