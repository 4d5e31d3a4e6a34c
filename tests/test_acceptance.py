"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they happen.  Expected wall time for the whole module is about 2 s.
Criterion 2's 100 frame-level sessions at 1e7 pulses take well under a
second, since a session's cost does not depend on its pulse count, and
criterion 3 draws its coverage trials at count level.

Criterion 6c (the distribution-free bound is tighter at zero distance,
the multiplicative bound beyond a finite crossover) depends on the
postselection probabilities p of the estimated intensities.  Both widths
scale as n**-1/2, so the pulse count does not decide the ordering; p
does.  At eps_pe = 1e-10 the distribution-free half-width
sqrt(ln(2/eps)/2n) is narrower than the multiplicative upper width
sqrt(8 p ln(6/eps)/n) only for p > ln(2/eps)/(16 ln(6/eps)) = 0.0597,
and narrower than its lower width sqrt(3 p ln(3/eps)/n) only for
p > ln(2/eps)/(6 ln(3/eps)) = 0.164.  On the single-decoy mu=0.25,
N=1e11 preset (fig4b) the signal's p at zero distance is 0.195, above
both thresholds, so both clauses are checked there.  On the mu=0.10,
N=1e12 preset (fig4a) the signal's p is 0.083 and the decoy's 0.042,
and p only falls with distance, so the multiplicative bound is tighter
at every length; the test asserts that reverse ordering and its premise.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import replace

import mpmath as mp
import pytest

from conftest import exact_stats, true_quantities
from hdqkd.decoy import IntensityConfig, estimate_bounds
from hdqkd.fluctuation import (
    EpsilonBudget,
    chernoff_deltas,
    frames_for_estimation,
    hoeffding_delta,
)
from hdqkd.keyrate import finite_key_terms
from hdqkd.montecarlo import coverage_experiment, simulate_session
from hdqkd.physics import (
    ChannelPoint,
    FrameParams,
    PhysicalParams,
    pair_yield,
    postselection_prob_closed,
    postselection_prob_series,
)
from hdqkd.scenario import parse_config, preset_names
from hdqkd.sweep import max_distance, run_point

mp.mp.dps = 50


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {cid}: {detail}"


def test_criterion_1_closed_form_series_equivalence():
    start = time.monotonic()
    efficiencies = (0.1, 0.5, 0.93)
    darks = (0.0, 1.5e-9, 1e-3)
    lams = [i / 12 for i in range(13)]
    points = 0
    worst = 0.0
    for ea in efficiencies:
        for eb in efficiencies:
            for et in efficiencies:
                for pd in darks:
                    for lam in lams:
                        closed = postselection_prob_closed(lam, ea, eb, et, pd)
                        series = postselection_prob_series(lam, ea, eb, et, pd)
                        worst = max(worst, abs(closed - series))
                        points += 1
    elapsed = time.monotonic() - start
    ok = points >= 1000 and worst <= 1e-12 and elapsed < 5.0
    _report(
        "1",
        ok,
        f"{points} grid points, worst |closed-series| = {worst:.3e}, "
        f"{elapsed:.2f} s",
    )


def _seed_within_5_sigma(seed: int) -> bool:
    scenario = parse_config("", preset="fig2b")
    config = scenario.sim_config(0.0, seed=seed, n_pulses=10_000_000)
    tally = simulate_session(config)
    for role, _lam, _p in scenario.intensities.roles():
        p_true = config.analytic_postselection(role)
        frames = tally.frames(role, "DD")
        sigma = math.sqrt(p_true * (1.0 - p_true) / frames)
        if abs(tally.empirical_p(role) - p_true) > 5.0 * sigma:
            return False
    return True


def test_criterion_2_monte_carlo_consistency():
    start = time.monotonic()
    base = 74_520_381
    seeds = [base ^ i for i in range(100)]
    passes = sum(_seed_within_5_sigma(seed) for seed in seeds)
    elapsed = time.monotonic() - start
    ok = passes >= 99 and elapsed < 120.0
    _report(
        "2",
        ok,
        f"{passes}/100 seeds within 5 sigma on all intensities, {elapsed:.1f} s",
    )


def test_criterion_3_interval_coverage():
    start = time.monotonic()
    scenario = parse_config("", preset="fig2c")
    config = scenario.sim_config(0.0, seed=90_210, n_pulses=2_000_000)
    coverages = {
        method: coverage_experiment(config, 0.01, method, 1000)
        for method in ("hoeffding", "chernoff")
    }
    elapsed = time.monotonic() - start
    ok = all(c >= 0.98 for c in coverages.values()) and elapsed < 600.0
    _report(
        "3",
        ok,
        f"hoeffding {coverages['hoeffding']:.3f}, "
        f"chernoff {coverages['chernoff']:.3f} over 1000 trials, {elapsed:.0f} s",
    )


def test_criterion_4_bound_soundness_zero_fluctuation():
    phys = PhysicalParams()
    frame = FrameParams.from_physical(phys)
    violations = 0
    points = 0
    for mu in (0.01, 0.1, 0.25):
        configs = [
            IntensityConfig.two_decoy(mu, mu / 2, mu / 20, 0.7, 0.2),
            IntensityConfig.single_decoy(mu, mu / 2, 0.8, 0.2),
        ]
        for cfg in configs:
            for length in range(0, 201, 25):
                stats = exact_stats(cfg, phys, frame, float(length))
                bounds = estimate_bounds(stats, cfg, frame.p_d)
                channel = ChannelPoint.from_length(phys.alpha, float(length))
                gamma1 = pair_yield(
                    1, phys.eta_alice, phys.eta_bob, channel.eta_t, frame.p_d
                )
                _, kmu = true_quantities(cfg, phys, frame, float(length))
                points += 1
                if not (
                    bounds.gamma1_lb <= gamma1 + 1e-15
                    and bounds.kmu_lb <= kmu + 1e-15
                    and bounds.zeta_t_ub >= frame.zeta - 1e-15
                    and bounds.zeta_w_ub >= frame.zeta - 1e-15
                ):
                    violations += 1
    _report("4", violations == 0, f"{violations} violations over {points} grid points")


def test_criterion_5_asymptotic_recovery():
    grid = (1e9, 1e10, 1e11, 1e12, 1e14, 1e16, 1e18)
    worst_gap = 0.0
    problems = []
    for name in preset_names():
        scenario = parse_config("", preset=name)
        for length in (0.0, 50.0):
            limit = run_point(
                scenario.with_overrides(n_pulses=math.inf), length
            ).delta_i
            previous = -math.inf
            for n in grid:
                row = run_point(scenario.with_overrides(n_pulses=n), length)
                if row.delta_i < previous - 1e-15:
                    problems.append(f"{name}@{length}km not monotone at N={n:g}")
                previous = row.delta_i
                if row.delta_i > limit + 1e-12:
                    problems.append(f"{name}@{length}km exceeds the limit at N={n:g}")
            # At N = 1e18 the finite-key penalties (the gap between the
            # row's capacity and its penalty-free rate) are < 1e-6 bpc.
            gap = row.r_hd - row.delta_i
            worst_gap = max(worst_gap, gap)
            if gap >= 1e-6:
                problems.append(f"{name}@{length}km gap {gap:.3e}")
    _report(
        "5",
        not problems,
        f"worst N=1e18 finite-key gap {worst_gap:.3e} bpc; "
        + (", ".join(problems) if problems else "monotone on all presets"),
    )


def test_criterion_6a_two_decoy_reaches_farther_asymptotically():
    two = max_distance(parse_config("", preset="fig2b"), tol_km=0.05)
    single = max_distance(parse_config("", preset="fig2e"), tol_km=0.05)
    ok = two >= single - 0.1
    _report("6a", ok, f"L_inf two-decoy {two} km >= single-decoy {single:.2f} km")


def test_criterion_6b_max_distance_grows_toward_asymptotic():
    scenario = parse_config("", preset="fig2e")
    limit = max_distance(scenario, tol_km=0.05)
    distances = [
        max_distance(scenario.with_overrides(n_pulses=n), tol_km=0.05)
        for n in (1e9, 1e10, 1e11, 1e12, 1e15, 1e18, 1e22)
    ]
    monotone = all(b >= a - 0.1 for a, b in zip(distances, distances[1:]))
    bounded = all(d <= limit + 0.1 for d in distances)
    converged = limit - distances[-1] <= 0.5
    ok = monotone and bounded and converged
    _report(
        "6b",
        ok,
        f"L(N) = {[round(d, 2) for d in distances]} km, L_inf = {limit:.2f} km",
    )


def _method_capacities(name: str, lengths: list[float]) -> tuple[list, list]:
    """Capacities with the multiplicative and distribution-free bounds."""
    scenario = parse_config("", preset=name)
    hoeffding = scenario.with_overrides(method="hoeffding")
    chern = [run_point(scenario, length).delta_i for length in lengths]
    hoeff = [run_point(hoeffding, length).delta_i for length in lengths]
    return chern, hoeff


def _crossover(lengths: list[float], chern: list, hoeff: list) -> float | None:
    """First length from which the multiplicative bound always dominates.

    The comparison runs until both scenarios are dead (-inf >= -inf).
    """
    for i, length in enumerate(lengths):
        if all(c >= h - 1e-12 for c, h in zip(chern[i:], hoeff[i:])):
            return length
    return None


def test_criterion_6c_method_ordering_with_distance():
    lengths = [float(length) for length in range(0, 201, 10)]
    # fig4b (single-decoy, mu=0.25, N=1e11): the signal's postselection
    # probability is above both width thresholds at zero distance.
    chern, hoeff = _method_capacities("fig4b", lengths)
    # Clause 1: beyond a finite, non-zero crossover the multiplicative
    # bound dominates.
    crossover = _crossover(lengths, chern, hoeff)
    clause1 = crossover is not None and crossover > 0.0
    # Clause 2: at zero distance the distribution-free bound dominates.
    clause2 = hoeff[0] >= chern[0]

    # fig4a (single-decoy, mu=0.10, N=1e12): reverse ordering, the
    # multiplicative bound is at least as tight at every length.
    chern_a, hoeff_a = _method_capacities("fig4a", lengths)
    reverse = _crossover(lengths, chern_a, hoeff_a) == 0.0
    # Premise: at zero distance the decoy's probability is so small that
    # both multiplicative widths are narrower than the distribution-free
    # one.
    scenario = parse_config("", preset="fig4a")
    phys = scenario.phys
    eta_t = ChannelPoint.from_length(phys.alpha, 0.0).eta_t
    roles = {role: (lam, p_sel) for role, lam, p_sel in scenario.intensities.roles()}
    lam, p_sel = roles["v"]
    p_decoy = postselection_prob_closed(
        lam, phys.eta_alice, phys.eta_bob, eta_t, scenario.frame.p_d
    )
    frames = frames_for_estimation(p_sel, scenario.p_t, scenario.n_pulses)
    eps_pe = scenario.budget.eps_pe
    width_h = hoeffding_delta(frames, eps_pe)
    width_plus, width_minus = chernoff_deltas(p_decoy, frames, eps_pe)
    premise = width_plus < width_h and width_minus < width_h

    ok = clause1 and clause2 and reverse and premise
    _report(
        "6c",
        ok,
        f"fig4b: crossover at {crossover} km, at L=0 hoeffding-chernoff = "
        f"{hoeff[0] - chern[0]:+.3e} bpc (clause1={clause1}, clause2={clause2}); "
        f"fig4a: at L=0 hoeffding-chernoff = {hoeff_a[0] - chern_a[0]:+.3e} bpc "
        f"(reverse={reverse}), decoy p={p_decoy:.4f} widths "
        f"{width_plus:.3e}/{width_minus:.3e} vs {width_h:.3e} (premise={premise})",
    )


def test_fig4_companion_preset_short_distance_ordering():
    # The short-distance qualitative claim is realizable on the
    # mu=0.25, N=1e11 companion preset: the distribution-free bound
    # wins at L=0 and the multiplicative bound takes over within a few
    # kilometres.
    scenario = parse_config("", preset="fig4b")
    hoeffding = scenario.with_overrides(method="hoeffding")
    at_zero_h = run_point(hoeffding, 0.0).delta_i
    at_zero_c = run_point(scenario, 0.0).delta_i
    assert at_zero_h >= at_zero_c
    beyond_h = run_point(hoeffding, 10.0).delta_i
    beyond_c = run_point(scenario, 10.0).delta_i
    assert beyond_c >= beyond_h


def test_criterion_6d_single_decoy_competitive_only_at_small_n():
    two = parse_config("", preset="fig3a")
    single = parse_config("", preset="fig3d")

    def separation(n: float) -> float:
        l_two = max_distance(two.with_overrides(n_pulses=n), tol_km=0.05)
        l_single = max_distance(single.with_overrides(n_pulses=n), tol_km=0.05)
        return abs(l_two - l_single) / max(l_two, l_single)

    small = separation(1e9)
    large = separation(1e12)
    ok = small <= 0.05 and large > 0.05
    _report(
        "6d",
        ok,
        f"max-distance separation {small:.3f} at N=1e9, {large:.3f} at N=1e12",
    )


def test_criterion_7_finite_key_term_spot_checks():
    budget = EpsilonBudget(1e-10, 1e-10, 1e-10, 1e-10)
    ec, pa, smooth = finite_key_terms(0.7, 0.5, 1e12, 8, budget)
    frames = mp.mpf("0.7") * mp.mpf("0.25") * mp.mpf("1e12")
    log2 = lambda x: mp.log(x) / mp.log(2)
    oracle = (
        float(log2(2 / mp.mpf("1e-10")) / frames),
        float(2 * log2(1 / mp.mpf("1e-10")) / frames),
        float(19 * mp.sqrt(log2(2 / mp.mpf("1e-10")) / frames)),
    )
    rel = max(
        abs(ec - oracle[0]) / oracle[0],
        abs(pa - oracle[1]) / oracle[1],
        abs(smooth - oracle[2]) / oracle[2],
    )
    ok = rel <= 1e-12 and abs(smooth - 2.657e-4) / 2.657e-4 < 1e-3
    _report(
        "7",
        ok,
        f"worst relative deviation {rel:.3e}; smooth term {smooth:.6e} bpc",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    outputs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "hdqkd.cli",
                "sweep",
                "--preset",
                "fig3b",
                "--n-pulses",
                "1e11",
                "--l-max",
                "60",
                "--step",
                "20",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        "8", ok, f"three runs, {len(outputs[0])} bytes each, byte-identical={ok}"
    )
