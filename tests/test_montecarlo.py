"""Monte Carlo oracle tests: determinism, consistency, coverage, soundness."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import true_quantities
from hdqkd import montecarlo
from hdqkd.decoy import IntensityConfig, attach_fluctuation, estimate_bounds
from hdqkd.errors import (
    ChernoffInapplicableError,
    ConfigError,
    DomainError,
    EstimationImpossibleError,
)
from hdqkd.montecarlo import (
    _CHUNK,
    PAIRINGS,
    CellCount,
    SessionTally,
    SimConfig,
    coverage_experiment,
    empirical_stats,
    format_tally,
    simulate_session,
)
from hdqkd.physics import (
    ChannelPoint,
    FrameParams,
    PhysicalParams,
    postselection_prob_series,
)
from hdqkd.scenario import parse_config


def make_config(
    length_km: float = 0.0,
    n_pulses: int = 200_000,
    seed: int = 20240917,
    mu: float = 0.1,
    p_d: float | None = None,
    eta: float = 0.93,
) -> SimConfig:
    phys = PhysicalParams(eta_alice=eta, eta_bob=eta)
    frame = FrameParams.from_physical(phys)
    if p_d is not None:
        frame = replace(frame, p_d=p_d)
    return SimConfig(
        phys=phys,
        frame=frame,
        channel=ChannelPoint.from_length(phys.alpha, length_km),
        intensities=IntensityConfig.two_decoy(mu, mu / 2, mu / 20, 0.7, 0.2),
        p_t=0.5,
        n_pulses=n_pulses,
        seed=seed,
    )


class TestSimulateSession:
    def test_deterministic(self):
        config = make_config()
        assert simulate_session(config).cells == simulate_session(config).cells

    def test_seed_changes_outcome(self):
        a = simulate_session(make_config(seed=1))
        b = simulate_session(make_config(seed=2))
        assert a.cells != b.cells

    def test_frames_sum_to_pulses(self):
        tally = simulate_session(make_config())
        assert sum(c.frames for c in tally.cells.values()) == 200_000
        assert all(c.coincidences <= c.frames for c in tally.cells.values())

    @pytest.mark.parametrize("n_pulses", [_CHUNK + 1, 2 * _CHUNK + 7])
    def test_frames_sum_to_pulses_across_slices(self, n_pulses):
        tally = simulate_session(make_config(n_pulses=n_pulses))
        assert sum(c.frames for c in tally.cells.values()) == n_pulses
        assert all(c.coincidences <= c.frames for c in tally.cells.values())

    def test_every_frame_of_every_slice_counted(self, monkeypatch):
        # With certain dark counts every frame is a coincidence, so a
        # slice that dropped or repeated frames would show.  Slices of 7
        # frames put many slice edges inside every cell; the cell counts
        # are drawn before any slice, so they do not move.
        config = make_config(p_d=1.0, n_pulses=10_000)
        whole = simulate_session(config)
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        sliced = simulate_session(config)
        assert sliced.cells == whole.cells
        assert all(c.coincidences == c.frames for c in sliced.cells.values())

    @pytest.mark.parametrize("n_pulses", [math.nan, 2.5, 0.5, 0, -1, math.inf])
    def test_pulse_count_must_be_finite_integer(self, n_pulses):
        with pytest.raises(DomainError, match="n_pulses"):
            replace(make_config(), n_pulses=n_pulses)

    def test_blind_detectors_no_dark_counts(self):
        config = make_config(eta=0.0, p_d=0.0)
        tally = simulate_session(config)
        assert all(c.coincidences == 0 for c in tally.cells.values())

    def test_certain_dark_counts(self):
        config = make_config(p_d=1.0, n_pulses=10_000)
        tally = simulate_session(config)
        assert all(c.coincidences == c.frames for c in tally.cells.values())

    def test_empirical_matches_analytic_within_5_sigma(self):
        config = make_config(n_pulses=2_000_000)
        tally = simulate_session(config)
        for role, _lam, _p in config.intensities.roles():
            p_true = config.analytic_postselection(role)
            frames = tally.frames(role, "DD")
            sigma = math.sqrt(p_true * (1.0 - p_true) / frames)
            assert abs(tally.empirical_p(role) - p_true) <= 5.0 * sigma

    def test_basis_bookkeeping(self):
        config = make_config(n_pulses=1_000_000)
        tally = simulate_session(config)
        for pairing, expected in (("TT", 0.25), ("DD", 0.25), ("mismatch", 0.5)):
            frames = sum(
                tally.frames(role, pairing)
                for role, _l, _p in config.intensities.roles()
            )
            sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
            assert abs(frames / 1_000_000 - expected) <= 5.0 * sigma

    def test_selection_probabilities_must_sum_to_one(self):
        phys = PhysicalParams()
        frame = FrameParams.from_physical(phys)
        with pytest.raises(ConfigError):
            SimConfig(
                phys=phys,
                frame=frame,
                channel=ChannelPoint.from_length(phys.alpha, 0.0),
                intensities=IntensityConfig.single_decoy(0.1, 0.05, 0.5, 0.2),
                p_t=0.5,
                n_pulses=1000,
                seed=1,
            )


class TestMultiPairRegime:
    def test_every_cell_matches_series_within_5_sigma(self):
        # At mu = 2 about 60% of signal frames carry two or more pairs.
        # p_t = 0.3 makes TT and DD unequal, so a swapped pairing shows,
        # and every pairing's coincidence rate must match the same P.
        config = replace(
            make_config(length_km=20.0, mu=2.0, eta=0.5, n_pulses=2_000_000),
            p_t=0.3,
        )
        tally = simulate_session(config)
        n = config.n_pulses
        pairing_p = {"TT": 0.09, "DD": 0.49, "mismatch": 0.42}
        for role, lam, p_sel in config.intensities.roles():
            p_true = postselection_prob_series(
                lam,
                config.phys.eta_alice,
                config.phys.eta_bob,
                config.channel.eta_t,
                config.frame.p_d,
            )
            for pairing in PAIRINGS:
                frames = tally.frames(role, pairing)
                share = p_sel * pairing_p[pairing]
                assert abs(frames - n * share) <= 5.0 * math.sqrt(
                    n * share * (1.0 - share)
                )
                sigma = math.sqrt(p_true * (1.0 - p_true) / frames)
                p_hat = tally.coincidences(role, pairing) / frames
                assert abs(p_hat - p_true) <= 5.0 * sigma


class TestEmpiricalStats:
    def test_multipliers_from_forward_model(self):
        config = make_config()
        tally = simulate_session(config)
        stats = empirical_stats(tally, eve_zeta=0.0, delta_phi=0.0)
        gamma1, _ = true_quantities(
            config.intensities, config.phys, config.frame, 0.0
        )
        for role, lam, _p in config.intensities.roles():
            p_true = config.analytic_postselection(role)
            k_true = lam * math.exp(-lam) * gamma1 / p_true
            assert stats[role].phi_t == pytest.approx(k_true, rel=1e-12)
            assert stats[role].p_minus == stats[role].p_plus == stats[role].p_post

    def test_nonzero_noise_scales_multiplier(self):
        config = make_config()
        tally = simulate_session(config)
        base = empirical_stats(tally, 0.0, 0.0)
        noisy = empirical_stats(tally, config.frame.zeta, 0.0)
        for role in base:
            assert noisy[role].phi_t == pytest.approx(
                base[role].phi_t * (1.0 + config.frame.zeta), rel=1e-12
            )

    def test_empty_estimation_cell_rejected(self):
        config = make_config(n_pulses=1000)
        cells = {
            (role, pairing): CellCount(frames=10, coincidences=1)
            for role, _l, _p in config.intensities.roles()
            for pairing in PAIRINGS
        }
        cells[("v2", "DD")] = CellCount(frames=0, coincidences=0)
        tally = SessionTally(config=config, cells=cells)
        with pytest.raises(EstimationImpossibleError):
            empirical_stats(tally, 0.0, 0.0)


class TestCoverage:
    def test_exact_method_rejected(self):
        # A degenerate interval at finite N would claim coverage it lacks.
        config = make_config(n_pulses=1000)
        with pytest.raises(DomainError, match="exact"):
            coverage_experiment(config, 0.01, "exact", 100)

    def test_inapplicable_chernoff_raises_with_diagnostics(self):
        # Coverage is the one caller that refuses an interval whose
        # multiplicative-bound preconditions fail: 2000 pulses are far
        # too few for them.
        config = parse_config("", preset="fig3b").sim_config(0.0, seed=4, n_pulses=2000)
        with pytest.raises(ChernoffInapplicableError) as err:
            coverage_experiment(config, 1e-10, "chernoff", 100)
        assert err.value.diagnostics is not None
        assert not err.value.diagnostics.ok

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(make_config(), 0.01, "hoeffding", 10)

    @pytest.mark.parametrize("trials", [120.5, math.nan, math.inf])
    def test_non_integral_trials_rejected(self, trials):
        with pytest.raises(DomainError, match="trials"):
            coverage_experiment(make_config(), 0.01, "hoeffding", trials)

    def test_integral_float_trials_accepted(self):
        config = make_config(n_pulses=100_000, seed=31)
        assert coverage_experiment(config, 0.01, "hoeffding", 120.0) == (
            coverage_experiment(config, 0.01, "hoeffding", 120)
        )

    def test_hoeffding_coverage_small_run(self):
        config = make_config(n_pulses=100_000, seed=31)
        assert coverage_experiment(config, 0.01, "hoeffding", 120) >= 0.98

    def test_same_seed_same_coverage(self):
        # eps = 0.9 makes the intervals narrow enough to miss sometimes,
        # so the fraction depends on the draws.
        config = make_config(n_pulses=50_000, seed=77)
        first = coverage_experiment(config, 0.9, "hoeffding", 300)
        assert 0.0 < first < 1.0
        assert coverage_experiment(config, 0.9, "hoeffding", 300) == first
        other = replace(config, seed=78)
        assert coverage_experiment(other, 0.9, "hoeffding", 300) != first

    def test_trial_without_dd_frames_rejected(self):
        # Five pulses leave most trials without DD frames for some role.
        config = make_config(n_pulses=5, seed=3)
        with pytest.raises(EstimationImpossibleError, match="no DD frames"):
            coverage_experiment(config, 0.01, "hoeffding", 100)

    def test_every_trial_of_every_slice_counted(self, monkeypatch):
        # With certain dark counts every interval covers P = 1, so a
        # slice that dropped or repeated trials would move the fraction
        # off 1.  Slices of 7 trials do not divide 100.
        monkeypatch.setattr(montecarlo, "_CHUNK", 7 * 9)
        config = make_config(p_d=1.0, n_pulses=10_000)
        assert coverage_experiment(config, 0.01, "hoeffding", 100) == 1.0

    @pytest.mark.parametrize("eps_pe", [1e-3, 1e-4])
    @pytest.mark.parametrize("method", ["hoeffding", "chernoff"])
    def test_coverage_within_union_budget(self, eps_pe, method):
        # Each role's interval misses with probability at most eps_pe, so
        # a trial misses with probability at most |roles| * eps_pe.  The
        # Wilson lower bound (z = 5) on the observed miss fraction must
        # not exceed that budget.
        scenario = parse_config("", preset="fig2c")
        config = scenario.sim_config(0.0, seed=6_021_023, n_pulses=10_000_000)
        trials, z = 20_000, 5.0
        miss = 1.0 - coverage_experiment(config, eps_pe, method, trials)
        centre = miss + z * z / (2 * trials)
        spread = z * math.sqrt(miss * (1 - miss) / trials + z * z / (4 * trials**2))
        wilson_lb = (centre - spread) / (1 + z * z / trials)
        assert wilson_lb <= len(config.intensities.roles()) * eps_pe


class TestCountLevelSampler:
    def test_dd_coincidences_match_frame_level_sessions(self):
        # The count-level draw of the coverage experiment and the
        # frame-level sessions must agree in distribution, per role's DD
        # coincidences, in the multi-pair regime where the Poisson
        # mixture matters.
        config = replace(
            make_config(length_km=20.0, mu=2.0, eta=0.5, n_pulses=20_000),
            p_t=0.3,
        )
        trials = 1000
        roles = [role for role, _lam, _p in config.intensities.roles()]
        sessions = (
            simulate_session(replace(config, seed=config.seed ^ i))
            for i in range(trials)
        )
        frame_level = np.array(
            [[tally.coincidences(role, "DD") for role in roles] for tally in sessions]
        )
        count_level = np.concatenate(
            [hits for _frames, hits in montecarlo._estimation_counts(config, trials)]
        )
        assert count_level.shape == frame_level.shape
        for a, b in zip(frame_level.T, count_level.T):
            z = (a.mean() - b.mean()) / math.sqrt(
                (a.var(ddof=1) + b.var(ddof=1)) / trials
            )
            assert abs(z) <= 5.0
            assert 0.8 <= a.var(ddof=1) / b.var(ddof=1) <= 1.25


class TestStatisticalSoundness:
    def test_bounds_hold_against_truth_across_sessions(self):
        # Module invariant at reduced scale: with estimation failure
        # budget 0.01 per intensity, the fraction of sessions where any
        # decoy bound contradicts the true channel stays within twice
        # the budget (empirically it is far below).
        scenario = parse_config("", preset="fig2c")
        config = scenario.sim_config(0.0, seed=5150, n_pulses=500_000)
        gamma1_true, kmu_true = true_quantities(
            config.intensities, config.phys, config.frame, 0.0
        )
        zeta_true = config.frame.zeta
        sessions = 300
        failures = 0
        for trial in range(sessions):
            tally = simulate_session(replace(config, seed=config.seed ^ trial))
            stats, _ = attach_fluctuation(
                empirical_stats(tally, zeta_true, 0.0),
                config.intensities,
                config.p_t,
                config.n_pulses,
                0.01,
                "hoeffding",
            )
            bounds = estimate_bounds(stats, config.intensities, config.frame.p_d)
            ok = (
                bounds.gamma1_lb <= gamma1_true
                and bounds.kmu_lb <= kmu_true
                and bounds.zeta_t_ub >= zeta_true
            )
            failures += not ok
        assert failures / sessions <= 0.02


class TestTallyDump:
    def test_format(self):
        config = make_config(n_pulses=5000)
        text = format_tally(simulate_session(config))
        lines = text.strip().split("\n")
        assert len(lines) == 9  # three intensities x three pairings
        first = lines[0].split()
        assert len(first) == 4
        assert first[0] == "0.1"
        assert first[1] == "TT"
        int(first[2]), int(first[3])
