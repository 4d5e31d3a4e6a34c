"""Analytic detection-model tests against arbitrary-precision oracles."""
from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd.errors import ComputationError, DomainError
from hdqkd.physics import (
    GAUSSIAN_FWHM_FACTOR,
    ChannelPoint,
    FrameParams,
    PhysicalParams,
    excess_noise_from_time_shift,
    pair_yield,
    poisson_pmf,
    postselection_prob_closed,
    postselection_prob_series,
    transmittance,
)

mp.mp.dps = 50


def mp_poisson(n: int, lam) -> mp.mpf:
    lam = mp.mpf(lam)
    return lam**n * mp.e ** (-lam) / mp.factorial(n)


def mp_yield(n: int, ea, eb, et, pd) -> mp.mpf:
    ea, eb, et, pd = (mp.mpf(x) for x in (ea, eb, et, pd))
    return (1 - (1 - ea) ** n * (1 - pd)) * (1 - (1 - eb * et) ** n * (1 - pd))


def mp_postselection(lam, ea, eb, et, pd, terms: int = 200) -> mp.mpf:
    return mp.fsum(
        mp_poisson(n, lam) * mp_yield(n, ea, eb, et, pd) for n in range(terms)
    )


class TestTransmittance:
    def test_zero_length(self):
        assert transmittance(0.2, 0.0) == 1.0

    def test_exact_decades(self):
        assert transmittance(0.2, 50.0) == pytest.approx(0.1, rel=1e-14)
        assert transmittance(0.2, 100.0) == pytest.approx(0.01, rel=1e-14)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            transmittance(-0.1, 10.0)
        with pytest.raises(DomainError):
            transmittance(0.2, -1.0)

    @given(
        alpha=st.floats(0.0, 0.3),
        l1=st.floats(0.0, 100.0),
        l2=st.floats(0.0, 100.0),
    )
    @settings(max_examples=200)
    def test_multiplicative(self, alpha, l1, l2):
        # Exponent rounding grows with alpha * length, so the 1e-14
        # relative agreement is a claim about the physical fiber range.
        combined = transmittance(alpha, l1 + l2)
        product = transmittance(alpha, l1) * transmittance(alpha, l2)
        assert combined == pytest.approx(product, rel=1e-14)


class TestPoissonPmf:
    def test_empty_source(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_zero_pairs(self):
        assert poisson_pmf(0, 0.1) == pytest.approx(math.exp(-0.1), rel=1e-14)

    def test_against_oracle(self):
        assert poisson_pmf(2, 0.25) == pytest.approx(
            float(mp_poisson(2, 0.25)), rel=1e-12
        )
        # 0.25^2 e^-0.25 / 2! evaluated at 50 digits.
        assert float(mp_poisson(2, 0.25)) == pytest.approx(0.0243375245, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_pmf(-1, 0.1)
        with pytest.raises(DomainError):
            poisson_pmf(1, -0.1)

    @given(lam=st.floats(0.0, 20.0))
    @settings(max_examples=100)
    def test_normalized(self, lam):
        total = sum(poisson_pmf(n, lam) for n in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPairYield:
    def test_no_pairs_gives_dark_squared(self):
        assert pair_yield(0, 0.93, 0.93, 1.0, 0.01) == pytest.approx(1e-4, rel=1e-12)

    def test_single_pair_oracle(self):
        value = pair_yield(1, 0.93, 0.93, 0.1, 0.0)
        assert value == pytest.approx(0.086490, abs=1e-9)
        assert value == pytest.approx(float(mp_yield(1, 0.93, 0.93, 0.1, 0.0)), rel=1e-13)

    def test_many_pairs_saturates(self):
        assert pair_yield(10_000, 0.5, 0.5, 0.2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            pair_yield(1, 1.2, 0.9, 1.0, 0.0)
        with pytest.raises(DomainError):
            pair_yield(-1, 0.9, 0.9, 1.0, 0.0)

    @given(
        n=st.integers(0, 30),
        ea=st.floats(0.0, 1.0),
        eb=st.floats(0.0, 1.0),
        et=st.floats(0.0, 1.0),
        pd=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_monotone_in_pair_number(self, n, ea, eb, et, pd):
        assert pair_yield(n + 1, ea, eb, et, pd) >= pair_yield(n, ea, eb, et, pd) - 1e-15

    def test_monotone_in_efficiencies_and_dark(self):
        base = pair_yield(2, 0.5, 0.5, 0.5, 0.001)
        assert pair_yield(2, 0.6, 0.5, 0.5, 0.001) >= base
        assert pair_yield(2, 0.5, 0.6, 0.5, 0.001) >= base
        assert pair_yield(2, 0.5, 0.5, 0.6, 0.001) >= base
        assert pair_yield(2, 0.5, 0.5, 0.5, 0.002) >= base


class TestPostselectionProb:
    def test_zero_intensity_is_dark_squared(self):
        assert postselection_prob_series(0.0, 0.9, 0.9, 1.0, 0.01) == pytest.approx(
            1e-4, rel=1e-12
        )
        assert postselection_prob_closed(0.0, 0.9, 0.9, 1.0, 0.01) == pytest.approx(
            1e-4, rel=1e-12
        )

    def test_blind_detectors_only_dark(self):
        assert postselection_prob_closed(5.0, 0.0, 0.0, 1.0, 0.01) == pytest.approx(
            1e-4, rel=1e-12
        )

    def test_huge_intensity_saturates(self):
        assert postselection_prob_closed(2000.0, 0.5, 0.5, 0.5, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_closed_matches_series_and_oracle(self):
        for lam in (0.01, 0.1, 0.5, 2.0):
            closed = postselection_prob_closed(lam, 0.93, 0.93, 0.1, 1e-3)
            series = postselection_prob_series(lam, 0.93, 0.93, 0.1, 1e-3)
            oracle = float(mp_postselection(lam, 0.93, 0.93, 0.1, 1e-3))
            assert abs(closed - series) <= 1e-12
            assert closed == pytest.approx(oracle, rel=1e-12)

    @given(
        lam=st.floats(0.0, 10.0),
        ea=st.sampled_from([0.1, 0.5, 0.93]),
        eb=st.sampled_from([0.1, 0.5, 0.93]),
        et=st.floats(0.0, 1.0),
        pd=st.sampled_from([0.0, 1.5e-9, 1e-3]),
    )
    @settings(max_examples=200)
    def test_series_closed_agreement_property(self, lam, ea, eb, et, pd):
        closed = postselection_prob_closed(lam, ea, eb, et, pd)
        series = postselection_prob_series(lam, ea, eb, et, pd)
        assert abs(closed - series) <= 1e-12

    def test_bounded_and_monotone_in_intensity(self):
        pd = 1e-3
        prev = 0.0
        for lam in [0.0, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0]:
            p = postselection_prob_closed(lam, 0.93, 0.93, 0.3, pd)
            assert pd * pd - 1e-15 <= p <= 1.0
            assert p >= prev - 1e-15
            prev = p

    def test_series_nonconvergence(self):
        with pytest.raises(ComputationError):
            postselection_prob_series(50.0, 0.9, 0.9, 1.0, 0.0, max_terms=10)


class TestExcessNoise:
    def test_no_shift(self):
        assert excess_noise_from_time_shift(0.0, 1e-10) == 0.0

    def test_paper_scenario_oracle(self):
        # 10 ps shift on an 8 * 30 ps correlation time.
        value = excess_noise_from_time_shift(10e-12, 240e-12)
        oracle = float((1 + mp.mpf(10) / 240) ** 2 - 1)
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(0.0850694, abs=1e-7)

    def test_equal_shift_gives_three(self):
        assert excess_noise_from_time_shift(2e-10, 2e-10) == pytest.approx(3.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            excess_noise_from_time_shift(1e-12, 0.0)


class TestParamTypes:
    def test_frame_params_exact_relations(self, default_phys):
        frame = FrameParams.from_physical(default_phys)
        assert frame.t_f == GAUSSIAN_FWHM_FACTOR * default_phys.delta_coh
        assert frame.delta_cor == default_phys.schmidt_d * default_phys.delta_coh
        assert frame.p_d == min(1.0, default_phys.r_dc * frame.t_f)
        assert frame.zeta == excess_noise_from_time_shift(
            default_phys.delta_delta, frame.delta_cor
        )

    def test_dark_probability_capped(self):
        phys = PhysicalParams(r_dc=1e14)
        assert FrameParams.from_physical(phys).p_d == 1.0

    def test_physical_validation(self):
        with pytest.raises(DomainError):
            PhysicalParams(alpha=-1.0)
        with pytest.raises(DomainError):
            PhysicalParams(eta_alice=1.5)
        with pytest.raises(DomainError):
            PhysicalParams(schmidt_d=1)
        with pytest.raises(DomainError):
            PhysicalParams(delta_coh=0.0)

    @pytest.mark.parametrize(
        "field",
        ["alpha", "eta_alice", "eta_bob", "r_dc", "delta_j", "delta_coh",
         "schmidt_d", "delta_delta"],
    )
    def test_physical_nan_rejected(self, field):
        with pytest.raises(DomainError, match=field):
            PhysicalParams(**{field: math.nan})

    @pytest.mark.parametrize("field", ["schmidt_d", "delta_coh"])
    def test_physical_inf_rejected(self, field):
        with pytest.raises(DomainError, match=field):
            PhysicalParams(**{field: math.inf})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FrameParams(t_f=math.nan, delta_cor=1.0, p_d=0.1, zeta=0.0),
            lambda: FrameParams(t_f=1.0, delta_cor=math.nan, p_d=0.1, zeta=0.0),
            lambda: FrameParams(t_f=1.0, delta_cor=1.0, p_d=0.1, zeta=math.nan),
            lambda: FrameParams(t_f=math.inf, delta_cor=1.0, p_d=0.1, zeta=0.0),
            lambda: ChannelPoint(length_km=math.nan, eta_t=0.5),
            lambda: ChannelPoint(length_km=math.inf, eta_t=0.5),
            lambda: transmittance(0.2, math.nan),
            lambda: transmittance(math.nan, 10.0),
        ],
        ids=["t_f-nan", "delta_cor-nan", "zeta-nan", "t_f-inf", "length-nan",
             "length-inf", "transmittance-length-nan", "transmittance-alpha-nan"],
    )
    def test_frame_and_channel_non_finite_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_channel_point(self):
        point = ChannelPoint.from_length(0.2, 50.0)
        assert point.eta_t == pytest.approx(0.1, rel=1e-14)
        with pytest.raises(DomainError):
            ChannelPoint(length_km=1.0, eta_t=0.0)
