"""Decoy-state bound tests: oracles, soundness, monotonicity, clamping."""
from __future__ import annotations

import math
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_stats, true_quantities
from hdqkd.decoy import (
    EXCESS_NOISE_CAP,
    IntensityConfig,
    IntensityStats,
    attach_fluctuation,
    estimate_bounds,
    excess_noise_upper,
    expected_stats,
    multiplier_forward,
    single_pair_fraction_lower,
    vacuum_yield_bounds,
)
from hdqkd.errors import DomainError
from hdqkd.physics import ChannelPoint, FrameParams
from hdqkd.scenario import parse_config, preset_names

mp.mp.dps = 50


def widen(stats, role, minus=0.0, plus=0.0):
    """Return stats with one intensity's interval widened (clamped)."""
    s = stats[role]
    out = dict(stats)
    out[role] = IntensityStats(
        p_post=s.p_post,
        p_minus=max(0.0, s.p_minus - minus),
        p_plus=min(1.0, s.p_plus + plus),
        phi_t=s.phi_t,
        phi_w=s.phi_w,
    )
    return out


def widen_all(stats, minus, plus):
    out = stats
    for role in stats:
        out = widen(out, role, minus, plus)
    return out


TWO = IntensityConfig.two_decoy(0.1, 0.05, 0.005, 0.7, 0.2)
SINGLE = IntensityConfig.single_decoy(0.1, 0.05, 0.8, 0.2)


class TestIntensityConfig:
    def test_signal_must_dominate(self):
        with pytest.raises(DomainError):
            IntensityConfig.two_decoy(0.04, 0.03, 0.02, 0.7, 0.2)
        with pytest.raises(DomainError):  # a zero two-decoy denominator
            IntensityConfig.two_decoy(0.05, 0.05, 0.005, 0.7, 0.2)

    def test_decoy_ordering(self):
        with pytest.raises(DomainError):
            IntensityConfig.two_decoy(0.1, 0.01, 0.02, 0.7, 0.2)
        with pytest.raises(DomainError):
            IntensityConfig.two_decoy(0.1, 0.05, -0.001, 0.7, 0.2)
        with pytest.raises(DomainError):
            IntensityConfig.two_decoy(0.1, 0.05, 0.05, 0.7, 0.2)

    def test_vacuum_decoy_allowed(self):
        cfg = IntensityConfig.two_decoy(0.1, 0.05, 0.0, 0.7, 0.2)
        assert cfg.v2 == 0.0

    def test_single_mode(self):
        cfg = IntensityConfig.single_decoy(0.1, 0.05, 0.8, 0.2)
        assert [r for r, _, _ in cfg.roles()] == ["mu", "v"]
        with pytest.raises(DomainError):
            IntensityConfig.single_decoy(0.1, 0.0, 0.8, 0.2)
        with pytest.raises(DomainError):
            IntensityConfig.single_decoy(0.1, 0.1, 0.8, 0.2)

    def test_probability_budget(self):
        with pytest.raises(DomainError):
            IntensityConfig.two_decoy(0.1, 0.05, 0.005, 0.8, 0.2)  # nothing left
        with pytest.raises(DomainError):
            IntensityConfig.single_decoy(0.1, 0.05, 0.9, 0.2)
        with pytest.raises(DomainError, match="sum to 1"):
            IntensityConfig.single_decoy(0.1, 0.05, 0.5, 0.2)
        assert TWO.p_v2 == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize(
        "make, args",
        [
            (IntensityConfig.two_decoy, (math.inf, 0.05, 0.005, 0.7, 0.2)),
            (IntensityConfig.single_decoy, (math.inf, 0.05, 0.8, 0.2)),
        ],
        ids=["two-decoy", "single-decoy"],
    )
    def test_infinite_intensity_rejected(self, make, args):
        with pytest.raises(DomainError, match="finite"):
            make(*args)

    @pytest.mark.parametrize(
        "make, args",
        [
            (IntensityConfig.two_decoy, (0.1, 0.05, 0.005, 0.7, 0.2)),
            (IntensityConfig.single_decoy, (0.1, 0.05, 0.8, 0.2)),
        ],
        ids=["two-decoy", "single-decoy"],
    )
    def test_roles_is_one_shared_tuple(self, make, args):
        cfg, twin = make(*args), make(*args)
        text = repr(cfg)
        roles = cfg.roles()
        assert isinstance(roles, tuple)
        assert cfg.roles() is roles
        # The cached value is no field: equality, hash and repr ignore it.
        assert cfg == twin and hash(cfg) == hash(twin)
        assert repr(cfg) == repr(twin) == text

    @settings(max_examples=200, derandomize=True)
    @given(
        two=st.booleans(),
        # Subnormal intensities are rejected (test_scenario.py).
        v2=st.floats(0.0, 1.0, allow_subnormal=False),
        gap1=st.floats(1e-6, 1.0),
        gap2=st.floats(1e-6, 1.0),
    )
    def test_roles_signal_first_strictly_descending(self, two, v2, gap1, gap2):
        # The estimators pair intensities in roles() order and rely on it.
        v1 = v2 + gap1
        mu = v1 + v2 + gap2
        if two:
            cfg = IntensityConfig.two_decoy(mu, v1, v2, 0.7, 0.2)
        else:
            cfg = IntensityConfig.single_decoy(mu, v1, 0.8, 0.2)
        lams = [lam for _role, lam, _p in cfg.roles()]
        assert cfg.roles()[0] == ("mu", mu, cfg.p_mu)
        assert all(a > b for a, b in zip(lams, lams[1:]))


class TestMultiplierForward:
    def test_pure_single_pair(self):
        assert multiplier_forward(1.0, 0.08, 123.0) == pytest.approx(1.08, rel=1e-14)

    def test_no_single_pairs(self):
        assert multiplier_forward(0.0, 0.5, 0.7) == 0.7

    def test_mixture(self):
        assert multiplier_forward(0.5, 0.08, 0.0) == pytest.approx(0.54, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            multiplier_forward(1.5, 0.1, 0.0)
        with pytest.raises(DomainError):
            multiplier_forward(0.5, -0.1, 0.0)


class TestVacuumYieldBounds:
    def test_zero_fluctuation_floor_wins(self, default_phys):
        # At L = 0 with a large dark probability the dark-only floor is
        # the binding lower bound.
        frame = replace(FrameParams.from_physical(default_phys), p_d=0.01)
        stats = exact_stats(TWO, default_phys, frame, 0.0)
        bounds = vacuum_yield_bounds(stats, TWO, frame.p_d)
        assert bounds.lower == pytest.approx(1e-4, rel=1e-12)
        assert bounds.upper == 0.01
        assert not bounds.degenerate

    def test_vacuum_decoy_reduces_to_direct_value(self, default_phys, default_frame):
        cfg = IntensityConfig.two_decoy(0.1, 0.05, 0.0, 0.7, 0.2)
        stats = exact_stats(cfg, default_phys, default_frame, 0.0)
        bounds = vacuum_yield_bounds(stats, cfg, default_frame.p_d)
        # With a vacuum decoy the combination collapses onto its
        # measured postselection probability, which is the dark floor.
        assert bounds.lower == pytest.approx(stats["v2"].p_post, rel=1e-9)

    def test_interval_ordering_contract(self, default_phys, default_frame):
        for length in (0.0, 50.0, 150.0):
            stats = exact_stats(TWO, default_phys, default_frame, length)
            bounds = vacuum_yield_bounds(stats, TWO, default_frame.p_d)
            assert bounds.lower <= bounds.upper <= default_frame.p_d

    def test_degenerate_interval_flagged(self):
        stats = {
            "v1": IntensityStats(0.0, 0.0, 0.0, 1.0, 1.0),
            "v2": IntensityStats(0.9, 0.9, 0.9, 1.0, 1.0),
        }
        bounds = vacuum_yield_bounds(stats, TWO, 1e-7)
        assert bounds.degenerate
        assert bounds.lower == bounds.upper == 1e-7


class TestSinglePairFraction:
    def test_two_decoy_sound(self, default_phys, default_frame):
        for length in (0.0, 50.0, 120.0):
            stats = exact_stats(TWO, default_phys, default_frame, length)
            g0 = vacuum_yield_bounds(stats, TWO, default_frame.p_d)
            bound = single_pair_fraction_lower(stats, TWO, g0)
            _, k_true = true_quantities(TWO, default_phys, default_frame, length)
            assert 0.0 < bound <= k_true + 1e-15

    def test_single_decoy_sound_and_dominated(self, default_phys, default_frame):
        for length in (0.0, 50.0, 120.0):
            stats_s = exact_stats(SINGLE, default_phys, default_frame, length)
            g0_s = vacuum_yield_bounds(stats_s, SINGLE, default_frame.p_d)
            bound_s = single_pair_fraction_lower(stats_s, SINGLE, g0_s)
            _, k_true = true_quantities(SINGLE, default_phys, default_frame, length)
            assert 0.0 < bound_s <= k_true + 1e-15
            # Same truth, matched strong decoy: two-decoy can only help.
            stats_t = exact_stats(TWO, default_phys, default_frame, length)
            g0 = vacuum_yield_bounds(stats_t, TWO, default_frame.p_d)
            bound_t = single_pair_fraction_lower(stats_t, TWO, g0)
            assert bound_t >= bound_s - 1e-15

    def test_vacuum_weak_decoy_restricts_direct_route(
        self, default_phys, default_frame
    ):
        cfg = IntensityConfig.two_decoy(0.1, 0.05, 0.0, 0.7, 0.2)
        stats = exact_stats(cfg, default_phys, default_frame, 10.0)
        g0 = vacuum_yield_bounds(stats, cfg, default_frame.p_d)
        bound = single_pair_fraction_lower(stats, cfg, g0)
        assert 0.0 < bound <= 1.0  # the vacuum branch is skipped, not fatal

    def test_huge_fluctuation_clamps_to_zero(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 0.0)
        dead = widen_all(stats, 1.0, 1.0)
        g0 = vacuum_yield_bounds(dead, TWO, default_frame.p_d)
        assert single_pair_fraction_lower(dead, TWO, g0) == 0.0

    def test_monotone_in_width(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 40.0)
        g0 = vacuum_yield_bounds(stats, TWO, default_frame.p_d)
        prev = single_pair_fraction_lower(stats, TWO, g0)
        for width in (1e-6, 1e-4, 1e-2):
            wide = widen_all(stats, width, width)
            g0w = vacuum_yield_bounds(wide, TWO, default_frame.p_d)
            bound = single_pair_fraction_lower(wide, TWO, g0w)
            assert bound <= prev + 1e-15
            prev = bound

    def test_oracle_direct_route(self, default_phys, default_frame):
        stats = exact_stats(SINGLE, default_phys, default_frame, 20.0)
        g0 = vacuum_yield_bounds(stats, SINGLE, default_frame.p_d)
        bound = single_pair_fraction_lower(stats, SINGLE, g0)
        mu, v = mp.mpf(SINGLE.mu), mp.mpf(SINGLE.v1)
        p_mu = mp.mpf(stats["mu"].p_post)
        p_v = mp.mpf(stats["v"].p_post)
        g0ub = mp.mpf(default_frame.p_d)
        oracle = (
            mu**2
            / (mu * v - v**2)
            * (
                p_v / p_mu * mp.e ** (v - mu)
                - v**2 / mu**2
                - (mu**2 - v**2) / mu**2 * g0ub * mp.e ** (-mu) / p_mu
            )
        )
        assert bound == pytest.approx(float(oracle), rel=1e-12)

    @pytest.mark.parametrize(
        "length, binding", [(30.0, "direct v2"), (150.0, "pair")]
    )
    def test_oracle_two_decoy_routes(
        self, default_phys, default_frame, length, binding
    ):
        # The pair route in its single-pair-yield form, times mu e^{-mu}/P_mu,
        # and both direct routes; kmu_lb is their maximum and gamma1_lb that
        # maximum times P_mu e^mu / mu.
        stats = exact_stats(TWO, default_phys, default_frame, length)
        g0 = vacuum_yield_bounds(stats, TWO, default_frame.p_d)
        bounds = estimate_bounds(stats, TWO, default_frame.p_d)
        mu, v1, v2 = (mp.mpf(x) for x in (TWO.mu, TWO.v1, TWO.v2))
        p = {r: mp.mpf(stats[r].p_post) for r in ("mu", "v1", "v2")}
        gamma1_pair = (
            mu
            / (mu * v1 - mu * v2 - v1**2 + v2**2)
            * (
                p["v1"] * mp.e**v1
                - p["v2"] * mp.e**v2
                - (v1**2 - v2**2) / mu**2 * (p["mu"] * mp.e**mu - mp.mpf(g0.lower))
            )
        )
        g0ub = mp.mpf(g0.upper)

        def direct(lam, p_lam):
            return (
                mu**2
                / (mu * lam - lam**2)
                * (
                    p_lam / p["mu"] * mp.e ** (lam - mu)
                    - lam**2 / mu**2
                    - (mu**2 - lam**2) / mu**2 * g0ub * mp.e ** (-mu) / p["mu"]
                )
            )

        routes = {
            "pair": gamma1_pair * mu * mp.e ** (-mu) / p["mu"],
            "direct v1": direct(v1, p["v1"]),
            "direct v2": direct(v2, p["v2"]),
        }
        oracle = max(routes.values())
        assert routes[binding] == oracle
        assert bounds.kmu_lb == pytest.approx(float(oracle), rel=1e-12)
        gamma1 = oracle * p["mu"] * mp.e**mu / mu
        assert bounds.gamma1_lb == pytest.approx(float(gamma1), rel=1e-12)


class TestExcessNoiseUpper:
    def test_sound_at_zero_fluctuation(self, default_phys, default_frame):
        for length in (0.0, 60.0):
            stats = exact_stats(TWO, default_phys, default_frame, length)
            g0 = vacuum_yield_bounds(stats, TWO, default_frame.p_d)
            kmu = single_pair_fraction_lower(stats, TWO, g0)
            zt, zw = excess_noise_upper(stats, TWO, kmu)
            assert zt >= default_frame.zeta - 1e-15
            assert zw == zt  # symmetric inputs

    def test_noiseless_self_consistency(self, default_phys, default_frame):
        # Exact fraction and multipliers from a zero-noise channel: the
        # bound lands on zero.
        stats = exact_stats(TWO, default_phys, default_frame, 0.0, zeta=0.0)
        _, k_true = true_quantities(TWO, default_phys, default_frame, 0.0)
        zt, zw = excess_noise_upper(stats, TWO, k_true)
        assert zt == pytest.approx(0.0, abs=1e-12)
        assert zw == pytest.approx(0.0, abs=1e-12)

    def test_single_noiseless_self_consistency(self, default_phys, default_frame):
        stats = exact_stats(SINGLE, default_phys, default_frame, 0.0, zeta=0.0)
        _, k_true = true_quantities(SINGLE, default_phys, default_frame, 0.0)
        zt, _ = excess_noise_upper(stats, SINGLE, k_true)
        assert zt == pytest.approx(0.0, abs=1e-12)

    def test_single_not_tighter_than_two(self, default_phys, default_frame):
        for length in (0.0, 60.0):
            stats_t = exact_stats(TWO, default_phys, default_frame, length)
            stats_s = exact_stats(SINGLE, default_phys, default_frame, length)
            g0 = vacuum_yield_bounds(stats_t, TWO, default_frame.p_d)
            k_t = single_pair_fraction_lower(stats_t, TWO, g0)
            g0_s = vacuum_yield_bounds(stats_s, SINGLE, default_frame.p_d)
            k_s = single_pair_fraction_lower(stats_s, SINGLE, g0_s)
            zt_t, _ = excess_noise_upper(stats_t, TWO, k_t)
            zt_s, _ = excess_noise_upper(stats_s, SINGLE, k_s)
            assert zt_s >= zt_t - 1e-15

    def test_raising_signal_multiplier_raises_bound(
        self, default_phys, default_frame
    ):
        stats = exact_stats(TWO, default_phys, default_frame, 0.0)
        _, k_true = true_quantities(TWO, default_phys, default_frame, 0.0)
        zt0, _ = excess_noise_upper(stats, TWO, k_true)
        s = stats["mu"]
        bumped = dict(stats)
        bumped["mu"] = IntensityStats(
            s.p_post, s.p_minus, s.p_plus, s.phi_t * 1.05, s.phi_w
        )
        zt1, zw1 = excess_noise_upper(bumped, TWO, k_true)
        assert zt1 >= zt0
        assert zw1 == pytest.approx(zt0, rel=1e-12)  # other basis untouched

    def test_monotone_in_width(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 40.0)
        _, k_true = true_quantities(TWO, default_phys, default_frame, 40.0)
        prev, _ = excess_noise_upper(stats, TWO, k_true)
        for width in (1e-6, 1e-5, 1e-4):
            wide = widen_all(stats, width, width)
            zt, _ = excess_noise_upper(wide, TWO, k_true)
            assert zt >= prev - 1e-15
            prev = zt

    def test_infinite_noise_means_no_key(self, default_phys, default_frame):
        # Infinite multipliers make the pairwise branches inf - inf; the
        # bound must not come out as 0.
        stats = exact_stats(TWO, default_phys, default_frame, 10.0, zeta=math.inf)
        _, k_true = true_quantities(TWO, default_phys, default_frame, 10.0)
        assert excess_noise_upper(stats, TWO, k_true) == (math.inf, math.inf)

    def test_zero_fraction_means_no_key(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 0.0)
        assert excess_noise_upper(stats, TWO, 0.0) == (math.inf, math.inf)

    def test_cap_exceeded_means_no_key(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 0.0)
        assert excess_noise_upper(stats, TWO, 1e-9) == (math.inf, math.inf)

    def test_oracle_pairwise_branch(self, default_phys, default_frame):
        # One pair (signal, strong decoy) evaluated independently.
        stats = exact_stats(SINGLE, default_phys, default_frame, 15.0)
        _, k_true = true_quantities(SINGLE, default_phys, default_frame, 15.0)
        zt, _ = excess_noise_upper(stats, SINGLE, k_true)
        mu, v = mp.mpf(SINGLE.mu), mp.mpf(SINGLE.v1)
        k = mp.mpf(k_true)
        phi_mu = mp.mpf(stats["mu"].phi_t)
        phi_v = mp.mpf(stats["v"].phi_t)
        p_mu = mp.mpf(stats["mu"].p_post)
        p_v = mp.mpf(stats["v"].p_post)
        pairwise = mu / ((mu - v) * k) * (phi_mu - phi_v * p_v / p_mu * mp.e ** (v - mu))
        direct_mu = phi_mu / k
        direct_v = mp.e ** (v - mu) * mu * p_v / (v * p_mu) * phi_v / k
        oracle = min(pairwise, direct_mu, direct_v) - 1
        assert zt == pytest.approx(float(oracle), rel=1e-10)


class TestWiderIntervalsNeverHelp:
    def test_every_preset_at_1e10_pulses(self):
        # Widening every interval never raises kmu_lb or gamma1_lb and never
        # lowers either excess-noise bound: 17 presets x 31 lengths x 8 widths.
        for name in preset_names():
            s = parse_config("", preset=name).with_overrides(n_pulses=1e10)
            for length in range(0, 301, 10):
                channel = ChannelPoint.from_length(s.phys.alpha, length)
                model = expected_stats(
                    s.intensities, s.phys, s.frame, channel, s.delta_phi
                )
                stats, _ = attach_fluctuation(
                    model,
                    s.intensities,
                    s.p_t,
                    s.n_pulses,
                    s.budget.eps_pe,
                    s.method,
                )
                prev = estimate_bounds(stats, s.intensities, s.frame.p_d)
                for width in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
                    wide = widen_all(stats, width, width)
                    b = estimate_bounds(wide, s.intensities, s.frame.p_d)
                    assert b.kmu_lb <= prev.kmu_lb, (name, length, width)
                    assert b.gamma1_lb <= prev.gamma1_lb, (name, length, width)
                    assert b.zeta_t_ub >= prev.zeta_t_ub, (name, length, width)
                    assert b.zeta_w_ub >= prev.zeta_w_ub, (name, length, width)
                    prev = b


class TestEstimateBounds:
    def test_two_decoy_pipeline(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 30.0)
        bounds = estimate_bounds(stats, TWO, default_frame.p_d)
        assert not bounds.no_key
        assert bounds.gamma0_lb <= bounds.gamma0_ub
        assert 0.0 < bounds.kmu_lb <= 1.0
        assert bounds.zeta_t_ub >= default_frame.zeta - 1e-15

    def test_single_decoy_pipeline(self, default_phys, default_frame):
        stats = exact_stats(SINGLE, default_phys, default_frame, 30.0)
        bounds = estimate_bounds(stats, SINGLE, default_frame.p_d)
        assert not bounds.no_key
        assert bounds.gamma0_ub == default_frame.p_d
        assert 0.0 < bounds.gamma1_lb <= 1.0

    @pytest.mark.parametrize("cfg", [TWO, SINGLE], ids=["two", "single"])
    def test_all_dark_channel(self, cfg):
        stats = {
            role: IntensityStats(0.0, 0.0, 0.0, 0.0, 0.0) for role, _, _ in cfg.roles()
        }
        bounds = estimate_bounds(stats, cfg, 0.0)
        assert bounds.gamma1_lb == 0.0
        assert bounds.no_key

    def test_dead_stats_fold_into_no_key(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 0.0)
        dead = widen_all(stats, 1.0, 1.0)
        bounds = estimate_bounds(dead, TWO, default_frame.p_d)
        assert bounds.no_key
        assert bounds.kmu_lb == 0.0
        assert math.isinf(bounds.zeta_t_ub)

    def test_attach_fluctuation_roundtrip(self, default_phys, default_frame):
        stats = exact_stats(TWO, default_phys, default_frame, 10.0)
        adjusted, failed = attach_fluctuation(
            stats, TWO, 0.5, 1e12, 1e-10, "hoeffding"
        )
        assert failed == {}
        for role, _lam, p_sel in TWO.roles():
            width = math.sqrt(
                math.log(2.0 / 1e-10) / (2.0 * p_sel * 0.25 * 1e12)
            )
            s = adjusted[role]
            assert s.p_post == stats[role].p_post
            assert s.p_plus == pytest.approx(
                min(1.0, s.p_post + width), rel=1e-12
            )
            assert s.p_minus == pytest.approx(
                max(0.0, s.p_post - width), rel=1e-12
            )
