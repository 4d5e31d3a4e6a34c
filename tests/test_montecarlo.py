"""Monte Carlo oracle tests: determinism, consistency, coverage, soundness."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import true_quantities
from hdqkd import fluctuation, montecarlo
from hdqkd.decoy import (
    IntensityConfig,
    attach_fluctuation,
    estimate_bounds,
    expected_stats,
)
from hdqkd.errors import (
    ChernoffInapplicableError,
    DomainError,
    EstimationImpossibleError,
)
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
from hdqkd.physics import (
    ChannelPoint,
    PhysicalParams,
    postselection_prob_closed,
    postselection_prob_series,
)
from hdqkd.scenario import parse_config, preset_names


def make_config(
    length_km: float = 0.0,
    n_pulses: int = 200_000,
    seed: int = 20240917,
    mu: float = 0.1,
    r_dc: float = 1000.0,
    eta: float = 0.93,
    p_t: float = 0.5,
) -> SimConfig:
    # r_dc = 1e12 is past 1/t_f, so it gives dark-count probability p_d = 1.
    phys = PhysicalParams(eta_alice=eta, eta_bob=eta, r_dc=r_dc)
    scenario = replace(
        parse_config(""),
        phys=phys,
        intensities=IntensityConfig.two_decoy(mu, mu / 2, mu / 20, 0.7, 0.2),
        p_t=p_t,
    )
    return SimConfig(
        scenario=scenario,
        channel=ChannelPoint.from_length(phys.alpha, length_km),
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

    @pytest.mark.parametrize("n_pulses", [10**12, 2**63 - 1])
    def test_frames_sum_to_pulses_at_any_size(self, n_pulses):
        tally = simulate_session(make_config(n_pulses=n_pulses))
        assert sum(c.frames for c in tally.cells.values()) == n_pulses
        assert all(c.coincidences <= c.frames for c in tally.cells.values())

    def test_every_frame_of_every_cell_counted(self):
        # With certain dark counts every frame is a coincidence (P = 1 in
        # every cell), so a cell whose binomial drew from another cell's
        # frames or probability would show.
        tally = simulate_session(make_config(r_dc=1e12, n_pulses=10**12))
        assert sum(c.frames for c in tally.cells.values()) == 10**12
        assert all(c.coincidences == c.frames for c in tally.cells.values())

    def test_no_frame_a_coincidence_without_detection(self):
        tally = simulate_session(make_config(eta=0.0, r_dc=0.0, n_pulses=10**12))
        assert sum(c.frames for c in tally.cells.values()) == 10**12
        assert all(c.coincidences == 0 for c in tally.cells.values())

    @pytest.mark.parametrize("n_pulses", [math.nan, 2.5, 0.5, 0, -1, math.inf])
    def test_pulse_count_must_be_finite_integer(self, n_pulses):
        with pytest.raises(DomainError, match="n_pulses"):
            replace(make_config(), n_pulses=n_pulses)

    @pytest.mark.parametrize("seed", [1.5, "7", None])
    def test_seed_must_be_integer(self, seed):
        # Checked with the config, not when the generator is keyed.
        with pytest.raises(DomainError, match="seed"):
            replace(make_config(), seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        config = replace(make_config(), seed=np.uint64(2**64 - 1))
        assert type(config.seed) is int and config.seed == 2**64 - 1
        assert simulate_session(config).cells == simulate_session(
            replace(config, seed=-1)
        ).cells

    def test_session_is_the_single_trial_of_the_draw(self):
        # A session is the draw with one trial and every cell.  The DD
        # selection keeps the same frame counts and draws coincidences for
        # the DD cells only (TestCountLevelSampler compares those).
        config = make_config()
        tally = simulate_session(config)
        ((frames, hits),) = montecarlo._draws(config, 1)
        assert frames.tolist() == [[c.frames for c in tally.cells.values()]]
        assert hits.tolist() == [[c.coincidences for c in tally.cells.values()]]
        ((frames, _hits),) = montecarlo._draws(config, 3)
        ((dd_frames, _hits),) = montecarlo._draws(config, 3, "DD")
        dd = PAIRINGS.index("DD")
        assert (dd_frames == frames[:, dd :: len(PAIRINGS)]).all()

    def test_blind_detectors_no_dark_counts(self):
        config = make_config(eta=0.0, r_dc=0.0)
        tally = simulate_session(config)
        assert all(c.coincidences == 0 for c in tally.cells.values())

    def test_certain_dark_counts(self):
        config = make_config(r_dc=1e12, n_pulses=10_000)
        tally = simulate_session(config)
        assert all(c.coincidences == c.frames for c in tally.cells.values())

    def test_empirical_matches_analytic_within_5_sigma(self):
        config = make_config(n_pulses=2_000_000)
        tally = simulate_session(config)
        for role, _lam, _p in config.scenario.intensities.roles():
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
                for role, _l, _p in config.scenario.intensities.roles()
            )
            sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
            assert abs(frames / 1_000_000 - expected) <= 5.0 * sigma

    def test_selection_probabilities_must_sum_to_one(self):
        # The sum is checked once, in IntensityConfig, so a session whose
        # selections leave 0.2 unassigned cannot be configured at all.
        phys = PhysicalParams()
        with pytest.raises(DomainError, match="sum to 1"):
            SimConfig(
                scenario=replace(
                    parse_config(""),
                    intensities=IntensityConfig.single_decoy(0.1, 0.05, 0.5, 0.2),
                ),
                channel=ChannelPoint.from_length(phys.alpha, 0.0),
                n_pulses=1000,
                seed=1,
            )


class TestMultiPairRegime:
    def test_every_cell_matches_series_within_5_sigma(self):
        # At mu = 2 about 60% of signal frames carry two or more pairs.
        # p_t = 0.3 makes TT and DD unequal, so a swapped pairing shows,
        # and every pairing's coincidence rate must match the same P.
        config = make_config(
            length_km=20.0, mu=2.0, eta=0.5, n_pulses=2_000_000, p_t=0.3
        )
        tally = simulate_session(config)
        n = config.n_pulses
        pairing_p = {"TT": 0.09, "DD": 0.49, "mismatch": 0.42}
        for role, lam, p_sel in config.scenario.intensities.roles():
            p_true = postselection_prob_series(
                lam,
                config.scenario.phys.eta_alice,
                config.scenario.phys.eta_bob,
                config.channel.eta_t,
                config.scenario.frame.p_d,
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
        stats = empirical_stats(tally)
        scenario = config.scenario
        zeta = scenario.frame.zeta
        gamma1, _ = true_quantities(
            scenario.intensities, scenario.phys, scenario.frame, 0.0
        )
        for role, lam, _p in scenario.intensities.roles():
            p_true = config.analytic_postselection(role)
            k_true = lam * math.exp(-lam) * gamma1 / p_true
            assert stats[role].phi_t == pytest.approx(k_true * (1 + zeta), rel=1e-12)
            assert stats[role].p_post == tally.empirical_p(role)
            assert stats[role].p_minus == stats[role].p_plus == stats[role].p_post

    def test_nonzero_noise_scales_multiplier(self):
        # The same counts under a scenario with no correlation-time change
        # (zeta = 0) keep p-hat and drop the factor 1 + zeta.
        config = make_config()
        tally = simulate_session(config)
        phys = replace(config.scenario.phys, delta_delta=0.0)
        quiet = replace(config, scenario=replace(config.scenario, phys=phys))
        assert quiet.scenario.frame.zeta == 0.0 < config.scenario.frame.zeta
        base = empirical_stats(replace(tally, config=quiet))
        noisy = empirical_stats(tally)
        for role in base:
            assert noisy[role].p_post == base[role].p_post
            assert noisy[role].phi_t == pytest.approx(
                base[role].phi_t * (1.0 + config.scenario.frame.zeta), rel=1e-12
            )

    def test_model_record_is_expected_stats(self):
        # A session's analytic values are the chain's expected statistics.
        config = make_config(length_km=40.0)
        s = config.scenario
        channel = config.channel
        model = expected_stats(s.intensities, s.phys, s.frame, channel, s.delta_phi)
        for role, _lam, _p in s.intensities.roles():
            assert config.analytic_postselection(role) == model[role].p_post
        with pytest.raises(DomainError, match="unknown intensity role"):
            config.analytic_postselection("v3")

    def test_empty_estimation_cell_rejected(self):
        config = make_config(n_pulses=1000)
        cells = {
            (role, pairing): CellCount(frames=10, coincidences=1)
            for role, _l, _p in config.scenario.intensities.roles()
            for pairing in PAIRINGS
        }
        cells[("v2", "DD")] = CellCount(frames=0, coincidences=0)
        tally = SessionTally(config=config, cells=cells)
        with pytest.raises(EstimationImpossibleError):
            empirical_stats(tally)


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

    @pytest.mark.parametrize(
        ("seed", "alpha_l"), [(78, "6.4769"), (210, "5.5648"), (309, "5.08632")]
    )
    def test_every_role_checked_in_every_trial(self, seed, alpha_l):
        # At eps 0.9 one trial of each seed has an interval that misses
        # before the v2 interval whose preconditions fail; the run must
        # still raise, naming the first failing check.
        scenario = parse_config("", preset="fig2c")
        config = scenario.sim_config(0.0, seed, n_pulses=450_000)
        with pytest.raises(ChernoffInapplicableError) as err:
            coverage_experiment(config, 0.9, "chernoff", 100)
        assert "'v2'" in str(err.value)
        assert f"alpha_l={alpha_l})" in str(err.value)

    def test_every_trial_of_every_slice_counted(self, monkeypatch):
        # With certain dark counts every interval covers P = 1, so a
        # slice that dropped or repeated trials would move the fraction
        # off 1.  Slices of 7 trials do not divide 100.
        monkeypatch.setattr(montecarlo, "_CHUNK", 7 * 9)
        config = make_config(r_dc=1e12, n_pulses=10_000)
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
        assert wilson_lb <= len(config.scenario.intensities.roles()) * eps_pe

    @pytest.mark.parametrize(
        ("preset", "method", "n_pulses", "eps_pe", "seed"),
        [
            # Loose eps: intervals miss, so the fraction lies inside (0, 1).
            ("fig2f", "hoeffding", 200_000, 0.9, 11),
            ("fig2f", "chernoff", 200_000, 0.9, 11),
            # The benchmark's coverage inputs (0 km, eps 0.01, 100 trials).
            *(
                (preset, method, n_pulses, 0.01, seed)
                for preset, method in (
                    ("fig2f", "hoeffding"),
                    ("fig2f", "chernoff"),
                    ("fig2c", "hoeffding"),
                )
                for n_pulses in (50_000, 200_000)
                for seed in (1, 2**62 + 7, 6_021_023)
            ),
        ],
    )
    def test_fraction_is_its_definition(self, preset, method, n_pulses, eps_pe, seed):
        # Coverage is the share of trials in which every role's interval,
        # built by fluctuation.interval around the trial's p-hat, holds the
        # closed-form value; recount it trial by trial over the same draws.
        scenario = parse_config("", preset=preset)
        config = scenario.sim_config(0.0, seed=seed, n_pulses=n_pulses)
        trials = 100
        roles = scenario.intensities.roles()
        phys, p_d = scenario.phys, scenario.frame.p_d
        eta_t = config.channel.eta_t
        p_true = [
            postselection_prob_closed(lam, phys.eta_alice, phys.eta_bob, eta_t, p_d)
            for _role, lam, _p in roles
        ]
        covered = 0
        for frames, hits in montecarlo._draws(config, trials, "DD"):
            for f_row, h_row in zip(frames.tolist(), hits.tolist()):
                trial_ok = True
                for f, h, (_role, _lam, p_sel), p in zip(f_row, h_row, roles, p_true):
                    iv = fluctuation.interval(
                        h / f, p_sel, scenario.p_t, n_pulses, eps_pe, method
                    )
                    assert iv.applicability is None or iv.applicability.ok
                    trial_ok &= iv.p_minus <= p <= iv.p_plus
                covered += trial_ok
        fraction = coverage_experiment(config, eps_pe, method, trials)
        assert fraction == covered / trials
        if eps_pe == 0.9:
            assert 0.0 < fraction < 1.0


class TestCoincidenceProbability:
    """The oracle's own per-role probability (lgamma pmf over 64 pair-number
    bins) against the postselection series, to 1e-12 relative; the
    absolute tolerance only matters where P = 0."""

    @staticmethod
    def assert_matches_series(config: SimConfig) -> None:
        s = config.scenario
        got = montecarlo._coincidence_probabilities(config)
        roles = s.intensities.roles()
        assert len(got) == len(roles)
        for p, (role, lam, _p) in zip(got, roles):
            series = postselection_prob_series(
                lam, s.phys.eta_alice, s.phys.eta_bob, config.channel.eta_t, s.frame.p_d
            )
            assert math.isclose(p, series, rel_tol=1e-12, abs_tol=1e-300), role

    @pytest.mark.parametrize("preset", preset_names())
    def test_every_preset(self, preset):
        scenario = parse_config("", preset=preset)
        for length in (0.0, 50.0, 150.0, 300.0):
            config = scenario.sim_config(length, seed=1, n_pulses=10**6)
            self.assert_matches_series(config)

    @pytest.mark.parametrize(
        "config",
        [
            # Multi-pair regime: about 60% of signal frames carry two or more.
            make_config(length_km=20.0, mu=2.0, eta=0.5, p_t=0.3),
            # Blind detectors without dark counts (P = 0) and certain dark
            # counts (P = 1).
            make_config(eta=0.0, r_dc=0.0),
            make_config(r_dc=1e12),
        ],
        ids=["multi_pair", "p_d_0", "p_d_1"],
    )
    def test_edge_configs(self, config):
        self.assert_matches_series(config)

    def test_vacuum_decoy(self):
        config = make_config(length_km=50.0)
        vacuum = IntensityConfig.two_decoy(0.1, 0.05, 0.0, 0.7, 0.2)
        config = replace(config, scenario=replace(config.scenario, intensities=vacuum))
        self.assert_matches_series(config)


class TestCountLevelSampler:
    def test_dd_coincidences_match_frame_level_sessions(self):
        # A session is the single trial of the one draw, with every cell,
        # and coverage keeps the DD cells of many trials of it.  Per role,
        # the DD coincidences of full sessions (one seed each) and of that
        # selection (one seed for all trials) must agree in distribution,
        # so a selection that took the wrong pairing or role would show.
        config = make_config(length_km=20.0, mu=2.0, eta=0.5, n_pulses=20_000, p_t=0.3)
        trials = 1000
        roles = [role for role, _lam, _p in config.scenario.intensities.roles()]
        sessions = (
            simulate_session(replace(config, seed=config.seed ^ i))
            for i in range(trials)
        )
        frame_level = np.array(
            [[tally.coincidences(role, "DD") for role in roles] for tally in sessions]
        )
        count_level = np.concatenate(
            [hits for _frames, hits in montecarlo._draws(config, trials, "DD")]
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
            scenario.intensities, scenario.phys, scenario.frame, 0.0
        )
        zeta_true = scenario.frame.zeta
        sessions = 300
        failures = 0
        for trial in range(sessions):
            tally = simulate_session(replace(config, seed=config.seed ^ trial))
            stats, _ = attach_fluctuation(
                empirical_stats(tally),
                scenario.intensities,
                scenario.p_t,
                config.n_pulses,
                0.01,
                "hoeffding",
            )
            bounds = estimate_bounds(stats, scenario.intensities, scenario.frame.p_d)
            ok = (
                bounds.gamma1_lb <= gamma1_true
                and bounds.kmu_lb <= kmu_true
                and bounds.zeta_t_ub >= zeta_true
            )
            failures += not ok
        assert failures / sessions <= 0.02

    @pytest.mark.parametrize(
        ("preset", "length_km", "method"),
        [("fig2b", 50.0, "hoeffding"), ("fig3b", 0.0, "chernoff")],
    )
    def test_bounds_hold_at_preset_block_size(self, preset, length_km, method):
        # The same invariant at the presets' own N = 1e10, on two-decoy
        # presets.  fig3b at 0 km lies inside the multiplicative bound's
        # checked reach, so no interval may fail its preconditions.
        scenario = parse_config("", preset=preset)
        config = scenario.sim_config(length_km, seed=5150, n_pulses=10**10)
        gamma1_true, kmu_true = true_quantities(
            scenario.intensities, scenario.phys, scenario.frame, length_km
        )
        zeta_true = scenario.frame.zeta
        sessions = 300
        failures = 0
        for trial in range(sessions):
            tally = simulate_session(replace(config, seed=config.seed ^ trial))
            stats, failed = attach_fluctuation(
                empirical_stats(tally),
                scenario.intensities,
                scenario.p_t,
                config.n_pulses,
                0.01,
                method,
            )
            assert not failed
            bounds = estimate_bounds(stats, scenario.intensities, scenario.frame.p_d)
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
