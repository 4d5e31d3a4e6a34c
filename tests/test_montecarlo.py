"""Monte Carlo oracle tests: determinism, consistency, coverage, soundness."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from conftest import true_quantities
from hdqkd.decoy import IntensityConfig, attach_fluctuation, estimate_bounds
from hdqkd.errors import ConfigError, DomainError, EstimationImpossibleError
from hdqkd.montecarlo import (
    PAIRINGS,
    CellCount,
    SessionTally,
    SimConfig,
    coverage_experiment,
    empirical_stats,
    format_tally,
    simulate_session,
)
from hdqkd.physics import ChannelPoint, FrameParams, PhysicalParams
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
    def test_exact_method_always_covers(self):
        config = make_config(n_pulses=1000)
        assert coverage_experiment(config, 0.01, "exact", 100) == 1.0

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(make_config(), 0.01, "hoeffding", 10)

    def test_hoeffding_coverage_small_run(self):
        config = make_config(n_pulses=100_000, seed=31)
        assert coverage_experiment(config, 0.01, "hoeffding", 120) >= 0.98

    def test_parallel_matches_serial(self):
        config = make_config(n_pulses=50_000, seed=77)
        serial = coverage_experiment(config, 0.05, "hoeffding", 100)
        parallel = coverage_experiment(config, 0.05, "hoeffding", 100, parallel=2)
        assert serial == parallel


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
