"""Key-rate assembly tests with arbitrary-precision spot checks."""
from __future__ import annotations

import math

import mpmath as mp
import pytest

from hdqkd.errors import ComputationError, DomainError
from hdqkd.fluctuation import EpsilonBudget
from hdqkd.keyrate import finite_key_terms, r_hd, secure_key_capacity
from hdqkd.security import SecurityQuantities

mp.mp.dps = 50


class TestRHd:
    def test_direct_substitution(self):
        sq = SecurityQuantities(i_ab=3.0, phi_ub=0.2, i_r=3.0)
        assert r_hd(0.9, sq, 0.9) == pytest.approx(2.22, rel=1e-12)

    def test_ideal_single_pair(self):
        sq = SecurityQuantities(i_ab=3.0, phi_ub=0.0, i_r=3.0)
        assert r_hd(0.9, sq, 1.0) == pytest.approx(2.7, rel=1e-12)

    def test_no_single_pairs(self):
        sq = SecurityQuantities(i_ab=3.0, phi_ub=0.5, i_r=3.0)
        assert r_hd(0.9, sq, 0.0) == pytest.approx(2.7 - 3.0, rel=1e-12)

    def test_validation(self):
        sq = SecurityQuantities(i_ab=3.0, phi_ub=0.2, i_r=3.0)
        with pytest.raises(DomainError):
            r_hd(0.0, sq, 0.5)
        with pytest.raises(DomainError):
            r_hd(0.9, sq, 1.5)


class TestFiniteKeyTerms:
    def test_infinite_pulses(self):
        assert finite_key_terms(0.7, 0.5, math.inf, 8, EpsilonBudget()) == (
            0.0,
            0.0,
            0.0,
        )

    def test_oracle_spot_check(self):
        budget = EpsilonBudget(1e-10, 1e-10, 1e-10, 1e-10)
        ec, pa, smooth = finite_key_terms(0.7, 0.5, 1e12, 8, budget)
        frames = mp.mpf("0.7") * mp.mpf("0.25") * mp.mpf("1e12")
        log2 = lambda x: mp.log(x) / mp.log(2)
        oracle_ec = log2(2 / mp.mpf("1e-10")) / frames
        oracle_pa = 2 * log2(1 / mp.mpf("1e-10")) / frames
        oracle_smooth = 19 * mp.sqrt(log2(2 / mp.mpf("1e-10")) / frames)
        assert ec == pytest.approx(float(oracle_ec), rel=1e-12)
        assert pa == pytest.approx(float(oracle_pa), rel=1e-12)
        assert smooth == pytest.approx(float(oracle_smooth), rel=1e-12)
        assert smooth == pytest.approx(2.657e-4, rel=1e-3)

    def test_dimension_scaling_exact(self):
        budget = EpsilonBudget()
        _, _, smooth8 = finite_key_terms(0.7, 0.5, 1e12, 8, budget)
        _, _, smooth16 = finite_key_terms(0.7, 0.5, 1e12, 16, budget)
        assert smooth16 == pytest.approx(smooth8 * 35.0 / 19.0, rel=1e-14)

    @pytest.mark.parametrize("n_pulses", [-1.0, math.nan])
    def test_bad_pulse_count_rejected(self, n_pulses):
        with pytest.raises(DomainError, match="n_pulses"):
            finite_key_terms(0.7, 0.5, n_pulses, 8, EpsilonBudget())

    def test_no_key_frames(self):
        with pytest.raises(ComputationError, match="no key frames"):
            finite_key_terms(0.7, 0.5, 0.0, 8, EpsilonBudget())


class TestSecureKeyCapacity:
    def test_infinite_pulses_collapse(self):
        sq = SecurityQuantities(i_ab=2.9, phi_ub=0.15, i_r=3.0)
        result = secure_key_capacity(
            0.9, sq, 0.94, 0.7, 0.5, math.inf, 8, EpsilonBudget()
        )
        assert result.delta_i == result.r_hd
        assert result.positive

    def test_breakdown_resums(self):
        sq = SecurityQuantities(i_ab=2.9, phi_ub=0.15, i_r=3.0)
        result = secure_key_capacity(
            0.9, sq, 0.94, 0.7, 0.5, 1e10, 8, EpsilonBudget()
        )
        t = result.terms
        rebuilt_rate = t.beta_iab - t.leak_ir - t.holevo
        assert rebuilt_rate == pytest.approx(result.r_hd, rel=1e-12)
        rebuilt = rebuilt_rate - t.ec_term - t.pa_term - t.smooth_term
        assert rebuilt == pytest.approx(result.delta_i, rel=1e-12)

    def test_negative_capacity_reported_not_clipped(self):
        sq = SecurityQuantities(i_ab=0.5, phi_ub=2.0, i_r=3.0)
        result = secure_key_capacity(
            0.9, sq, 0.5, 0.7, 0.5, 1e9, 8, EpsilonBudget()
        )
        assert result.delta_i < 0.0
        assert not result.positive

    def test_monotone_in_pulse_count(self):
        sq = SecurityQuantities(i_ab=2.9, phi_ub=0.15, i_r=3.0)
        previous = -math.inf
        for n in (1e9, 1e10, 1e11, 1e12, 1e15, math.inf):
            value = secure_key_capacity(
                0.9, sq, 0.94, 0.7, 0.5, n, 8, EpsilonBudget()
            ).delta_i
            assert value >= previous
            previous = value
