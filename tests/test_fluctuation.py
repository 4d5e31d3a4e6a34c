"""Failure budget and concentration-interval tests."""
from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd.errors import DomainError, EstimationImpossibleError
from hdqkd.fluctuation import (
    METHODS,
    EpsilonBudget,
    FluctuationInterval,
    chernoff_applicable,
    chernoff_deltas,
    frames_for_estimation,
    hoeffding_delta,
    interval,
)

mp.mp.dps = 50


class TestFrames:
    def test_direct_arithmetic(self):
        assert frames_for_estimation(0.2, 0.5, 1e12) == pytest.approx(5e10, rel=1e-14)

    def test_all_key_basis(self):
        assert frames_for_estimation(0.3, 1.0, 1e12) == 0.0

    def test_never_selected(self):
        assert frames_for_estimation(0.0, 0.5, 1e12) == 0.0

    def test_infinite_sentinel(self):
        assert math.isinf(frames_for_estimation(0.2, 0.5, math.inf))

    @pytest.mark.parametrize("n_pulses", [-1.0, math.nan])
    def test_bad_pulse_count_rejected(self, n_pulses):
        with pytest.raises(DomainError, match="n_pulses"):
            frames_for_estimation(0.2, 0.5, n_pulses)


class TestHoeffding:
    def test_oracle(self):
        value = hoeffding_delta(5e10, 1e-10)
        oracle = float(mp.sqrt(mp.log(2 / mp.mpf("1e-10")) / (2 * mp.mpf(5e10))))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(1.5401e-5, rel=1e-4)

    def test_infinite_frames(self):
        assert hoeffding_delta(math.inf, 1e-10) == 0.0

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            hoeffding_delta(1e6, 2.0)

    def test_no_frames(self):
        with pytest.raises(EstimationImpossibleError):
            hoeffding_delta(0.0, 1e-10)

    def test_width_independent_of_center(self):
        # The distribution-free width only sees the sample size.
        assert hoeffding_delta(1e8, 1e-10) == hoeffding_delta(1e8, 1e-10)

    @given(n=st.floats(1e3, 1e15), eps=st.floats(1e-12, 0.5))
    @settings(max_examples=200)
    def test_root_n_scaling(self, n, eps):
        ratio = hoeffding_delta(n, eps) / hoeffding_delta(2 * n, eps)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestChernoff:
    def test_zero_center_collapses(self):
        assert chernoff_deltas(0.0, 1e8, 1e-10) == (0.0, 0.0)

    def test_oracle(self):
        plus, minus = chernoff_deltas(0.1, 5e10, 1e-10)
        eps = mp.mpf("1e-10") / 3
        scale = 2 * mp.mpf("0.1") / mp.mpf(5e10)
        oracle_plus = float(mp.sqrt(scale * mp.log(16 / eps**4)))
        oracle_minus = float(mp.sqrt(scale * mp.log(1 / eps ** mp.mpf("1.5"))))
        assert plus == pytest.approx(oracle_plus, rel=1e-12)
        assert minus == pytest.approx(oracle_minus, rel=1e-12)
        assert plus > minus

    def test_infinite_frames(self):
        assert chernoff_deltas(0.3, math.inf, 1e-10) == (0.0, 0.0)

    @given(eps=st.floats(1e-14, 0.999), p=st.floats(1e-6, 1.0), n=st.floats(1e3, 1e15))
    @settings(max_examples=300)
    def test_asymmetry_ratio(self, eps, p, n):
        plus, minus = chernoff_deltas(p, n, eps)
        expected = math.sqrt(
            math.log(16.0 * (3.0 / eps) ** 4) / math.log((3.0 / eps) ** 1.5)
        )
        assert plus / minus == pytest.approx(expected, rel=1e-12)
        assert plus / minus > 1.0

    @given(p=st.floats(1e-6, 1.0), n=st.floats(1e3, 1e15), eps=st.floats(1e-12, 0.5))
    @settings(max_examples=200)
    def test_sqrt_center_scaling(self, p, n, eps):
        plus, _ = chernoff_deltas(p, n, eps)
        plus_quarter, _ = chernoff_deltas(p / 4.0, n, eps)
        assert plus_quarter == pytest.approx(plus / 2.0, rel=1e-12)

    @given(p=st.floats(1e-6, 1.0), n=st.floats(1e3, 1e15), eps=st.floats(1e-12, 0.5))
    @settings(max_examples=200)
    def test_root_n_scaling(self, p, n, eps):
        plus, minus = chernoff_deltas(p, n, eps)
        plus2, minus2 = chernoff_deltas(p, 2 * n, eps)
        assert plus / plus2 == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert minus / minus2 == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestChernoffApplicability:
    def test_large_sample_passes(self):
        check = chernoff_applicable(5e9, 5e10, 1e-10)
        assert check.ok
        assert check.margin_first > 0 and check.margin_second > 0
        oracle_alpha = float(5e9 - mp.sqrt(5e10 / 2 * mp.log(3 / mp.mpf("1e-10"))))
        assert check.alpha_l == pytest.approx(oracle_alpha, rel=1e-12)

    def test_small_sample_fails(self):
        check = chernoff_applicable(10, 100, 1e-10)
        assert not check.ok
        assert check.alpha_l < 0
        assert check.reason == "sample too small"

    def test_full_count_loose_epsilon_passes(self):
        check = chernoff_applicable(1e4, 1e4, 0.999)
        assert check.ok


class TestInterval:
    def test_exact_is_not_a_method(self):
        # A zero-width interval at finite N certifies nothing.
        for n_pulses in (1e9, math.inf):
            with pytest.raises(DomainError, match="exact"):
                interval(0.3, 0.5, 0.5, n_pulses, 1e-10, "exact")

    def test_infinite_pulses_forces_exact(self):
        for method in METHODS:
            iv = interval(0.3, 0.5, 0.5, math.inf, 1e-10, method)
            assert iv.method == "exact"
            assert iv.p_minus == iv.p_plus == 0.3

    def test_clamping(self):
        iv = interval(1e-9, 0.1, 0.5, 1e6, 1e-10, "hoeffding")
        assert iv.p_minus == 0.0
        iv_hi = interval(1.0, 0.5, 0.5, 1e9, 1e-10, "hoeffding")
        assert iv_hi.p_plus == 1.0

    def test_hoeffding_narrower_at_half(self):
        hoeff = interval(0.5, 0.5, 0.5, 1e10, 1e-10, "hoeffding")
        chern = interval(0.5, 0.5, 0.5, 1e10, 1e-10, "chernoff")
        assert hoeff.p_plus - hoeff.p_minus <= chern.p_plus - chern.p_minus

    def test_chernoff_narrower_minus_side_at_small_center(self):
        hoeff = interval(1e-4, 0.5, 0.5, 1e12, 1e-10, "hoeffding")
        chern = interval(1e-4, 0.5, 0.5, 1e12, 1e-10, "chernoff")
        assert chern.p_center - chern.p_minus < hoeff.p_center - hoeff.p_minus

    def test_smaller_epsilon_widens(self):
        wide = interval(0.3, 0.5, 0.5, 1e10, 1e-12, "hoeffding")
        narrow = interval(0.3, 0.5, 0.5, 1e10, 1e-6, "hoeffding")
        assert wide.p_plus - wide.p_minus > narrow.p_plus - narrow.p_minus

    def test_inapplicable_chernoff_can_proceed(self):
        # A failed precondition check is reported on the interval, which
        # keeps the stated widths.
        iv = interval(1e-6, 0.1, 0.5, 1e6, 1e-10, "chernoff")
        n_frames = frames_for_estimation(0.1, 0.5, 1e6)
        delta_plus, delta_minus = chernoff_deltas(1e-6, n_frames, 1e-10)
        assert iv.method == "chernoff"
        assert iv.p_plus == 1e-6 + delta_plus
        assert iv.p_minus == max(0.0, 1e-6 - delta_minus)
        assert iv.applicability == chernoff_applicable(1e-6 * n_frames, n_frames, 1e-10)
        assert not iv.applicability.ok

    def test_no_frames(self):
        with pytest.raises(EstimationImpossibleError):
            interval(0.3, 0.0, 0.5, 1e9, 1e-10, "hoeffding")

    def test_exact_invariant_enforced(self):
        with pytest.raises(DomainError):
            FluctuationInterval(0.3, 0.2, 0.4, "exact", 1e6)


EPS_PE = 1e-10


def _kl(p: mp.mpf, q: mp.mpf) -> mp.mpf:
    """Relative entropy D(p || q) of two Bernoulli distributions."""
    return p * mp.log(p / q) + (1 - p) * mp.log((1 - p) / (1 - q))


def _relative_entropy_interval(p: float, n: float, eps_side: mp.mpf):
    """Invert the binomial tail bound exp(-n D(p || q)) <= eps_side.

    Returns the q on either side of ``p`` where the bound equals
    ``eps_side``; the exact (Clopper-Pearson) interval lies inside.
    """
    p_hat = mp.mpf(p)
    level = mp.log(1 / mp.mpf(eps_side)) / mp.mpf(n)
    gap = lambda q: _kl(p_hat, q) - level
    lower = mp.findroot(gap, (p_hat / 2, p_hat), solver="anderson")
    upper = mp.findroot(gap, (p_hat, (1 + p_hat) / 2), solver="anderson")
    return lower, upper


class TestMethodOrdering:
    """Where each method's widths are the narrower ones (criterion 6c)."""

    def _thresholds(self):
        eps = mp.mpf(str(EPS_PE))
        upper = mp.log(2 / eps) / (16 * mp.log(6 / eps))
        lower = mp.log(2 / eps) / (6 * mp.log(3 / eps))
        return float(upper), float(lower)

    def test_threshold_values(self):
        upper, lower = self._thresholds()
        assert upper == pytest.approx(0.0597, abs=5e-5)
        assert lower == pytest.approx(0.1639, abs=5e-5)

    @pytest.mark.parametrize("n", [1e6, 5e10, 1e14])
    @pytest.mark.parametrize("side", [0, 1], ids=["plus", "minus"])
    def test_hoeffding_wins_above_threshold(self, n, side):
        threshold = self._thresholds()[side]
        width = hoeffding_delta(n, EPS_PE)
        below = chernoff_deltas(threshold * (1 - 1e-6), n, EPS_PE)[side]
        above = chernoff_deltas(threshold * (1 + 1e-6), n, EPS_PE)[side]
        assert width > below
        assert width < above


class TestSoundnessAtOperatingPoints:
    """Both methods' intervals contain the relative-entropy interval."""

    @pytest.mark.parametrize(
        "p_center, p_lambda, n_pulses",
        [(0.08289, 0.8, 1e12), (0.04233, 0.2, 1e12), (0.1025, 0.2, 1e11)],
        ids=["fig4a-signal", "fig4a-decoy", "fig4b-decoy"],
    )
    @pytest.mark.parametrize(
        "method, sides", [("hoeffding", 2), ("chernoff", 3)]
    )
    def test_contains_relative_entropy_interval(
        self, p_center, p_lambda, n_pulses, method, sides
    ):
        iv = interval(p_center, p_lambda, 0.5, n_pulses, EPS_PE, method)
        assert method == "hoeffding" or iv.applicability.ok
        lower, upper = _relative_entropy_interval(
            p_center, iv.n_frames, mp.mpf(str(EPS_PE)) / sides
        )
        assert iv.p_minus <= lower
        assert iv.p_plus >= upper


class TestEpsilonBudget:
    def test_defaults_total(self):
        assert EpsilonBudget().total == pytest.approx(4e-10, rel=1e-12)

    def test_mixed_components(self):
        budget = EpsilonBudget(1e-10, 1e-10, 1e-9, 1e-9)
        assert budget.total == pytest.approx(2.2e-9, rel=1e-12)

    def test_component_range(self):
        with pytest.raises(DomainError):
            EpsilonBudget(eps_pe=0.0)
        with pytest.raises(DomainError):
            EpsilonBudget(eps_pe=1.0)

    def test_sum_below_one(self):
        with pytest.raises(DomainError):
            EpsilonBudget(0.3, 0.3, 0.3, 0.3)
