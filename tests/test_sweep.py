"""Sweep-engine tests: point evaluation, grids, search, CSV emission."""
from __future__ import annotations

import io
import math

import pytest

from hdqkd import fluctuation, keyrate, physics, sweep
from hdqkd.errors import DomainError
from hdqkd.scenario import parse_config, preset_names
from hdqkd.security import PINNED_DIMENSIONS, PINNED_ZETA_GRID
from hdqkd.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    _grid,
    format_rows,
    emit_csv,
    emit_plotdata,
    max_distance,
    run_point,
    sweep_distance,
)


@pytest.fixture(scope="module")
def fig2b():
    return parse_config("", preset="fig2b")


GRID_PULSES = (1e9, 1e10, 1e11, 1e12, 1e13, math.inf)


@pytest.fixture(scope="module", params=["table", "gaussian"])
def grid_curves(request):
    """Rows from 0 to 300 km at 25 km for every preset under one security
    model, one curve per pulse count in ``GRID_PULSES``."""
    curves = {}
    for name in preset_names():
        base = parse_config(f"[security_model]\nmodel = {request.param}\n", preset=name)
        curves[name] = [
            sweep_distance(base.with_overrides(n_pulses=n), 0.0, 300.0, 25.0)
            for n in GRID_PULSES
        ]
    return curves


class TestRunPoint:
    def test_infinite_pulses_collapse(self, fig2b):
        row = run_point(fig2b, 0.0)
        assert row.method == "exact"
        assert row.delta_i == row.r_hd
        assert row.positive
        assert row.ec_term == row.pa_term == row.smooth_term == 0.0

    def test_capacity_decreases_with_length(self, fig2b):
        values = [run_point(fig2b, length).delta_i for length in range(0, 151, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_finite_pulses_reduce_capacity(self, fig2b):
        asym = run_point(fig2b, 50.0)
        finite = run_point(fig2b.with_overrides(n_pulses=1e11), 50.0)
        assert finite.delta_i < asym.delta_i
        assert finite.method == "hoeffding"

    def test_no_key_row(self, fig2b):
        row = run_point(fig2b.with_overrides(n_pulses=1e9), 150.0)
        assert not row.positive
        assert row.delta_i == -math.inf
        assert math.isinf(row.zeta_t_ub)

    def test_chernoff_precondition_annotation(self):
        scenario = parse_config("", preset="fig3a").with_overrides(n_pulses=1e9)
        row = run_point(scenario, 0.0)
        assert row.method == "chernoff(unchecked:v2)"
        assert row.positive

    def test_bound_soundness_on_row(self, fig2b):
        row = run_point(fig2b, 25.0)
        assert row.kmu_lb <= 1.0
        assert row.zeta_t_ub >= fig2b.frame.zeta - 1e-12
        assert row.zeta_w_ub == row.zeta_t_ub


class TestCapacityNeverFallsWithPulses:
    """More pulses never cost key: every preset and security model, on a
    deterministic grid of pulse counts and lengths."""

    def test_every_preset(self, grid_curves):
        violations = []
        for name, curves in grid_curves.items():
            for n, fewer, more in zip(GRID_PULSES[1:], curves, curves[1:]):
                violations += [
                    (name, n, a.length_km, a.delta_i, b.delta_i)
                    for a, b in zip(fewer, more)
                    if not b.delta_i >= a.delta_i
                ]
        assert violations == []


class TestCapacityNeverRisesWithLength:
    """A longer channel never gains key, on the same grid, except in one
    known case: at infinitely many pulses the two-decoy capacity rises
    beyond about 178 km, because a single pair that Bob detects only
    through a dark count gets the correlated multiplier (ROADMAP item 5).
    The test asserts that the rise is there, so a fix shows up here."""

    RISES_AT_INFINITE_PULSES = frozenset(
        {"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig6a", "fig6b"}
    )

    def test_every_preset(self, grid_curves):
        rising = {
            (name, n)
            for name, curves in grid_curves.items()
            for n, rows in zip(GRID_PULSES, curves)
            if any(b.delta_i > a.delta_i for a, b in zip(rows, rows[1:]))
        }
        assert rising == {(name, math.inf) for name in self.RISES_AT_INFINITE_PULSES}


class TestOneEvaluationPerPoint:
    """Each point checks the multiplicative bound's preconditions once per
    intensity and computes the finite-key terms once.  Each layer the
    benchmark's tracer patches runs a fixed number of times per point, so
    inlining one of them fails here rather than zeroing its metric."""

    @pytest.mark.parametrize(
        "preset, method, n_pulses, length, keyed, checks",
        [
            ("fig3b", None, 1e12, 50.0, True, 3),
            ("fig2b", None, 1e9, 150.0, False, 0),
            ("fig2b", "chernoff", 1e9, 200.0, False, 3),
            ("fig3e", None, 1e12, 50.0, True, 2),
            ("fig2e", None, 1e9, 150.0, False, 0),
        ],
    )
    def test_call_counts(
        self, monkeypatch, preset, method, n_pulses, length, keyed, checks
    ):
        calls = {"applicable": 0, "terms": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        terms = counted("terms", keyrate.finite_key_terms)
        monkeypatch.setattr(
            fluctuation,
            "chernoff_applicable",
            counted("applicable", fluctuation.chernoff_applicable),
        )
        monkeypatch.setattr(sweep, "finite_key_terms", terms)
        monkeypatch.setattr(keyrate, "finite_key_terms", terms)
        layers = (
            (physics, "postselection_prob_closed"),
            (fluctuation, "interval"),
            (sweep, "attach_fluctuation"),
            (sweep, "estimate_bounds"),
            (sweep, "secure_key_capacity"),
        )
        for owner, name in layers:
            calls[name] = 0
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        scenario = parse_config("", preset=preset).with_overrides(
            method=method, n_pulses=n_pulses
        )
        row = run_point(scenario, length)
        roles = len(scenario.intensities.roles())
        assert {name: calls.pop(name) for _, name in layers} == {
            "postselection_prob_closed": roles,
            "interval": roles,
            "attach_fluctuation": 1,
            "estimate_bounds": 1,
            "secure_key_capacity": int(keyed),
        }
        assert math.isfinite(row.delta_i) == keyed
        assert calls == {"applicable": checks, "terms": 1}


class TestSweep:
    def test_single_point_grid_matches_run_point(self, fig2b):
        rows = sweep_distance(fig2b, 40.0, 40.0, 5.0)
        assert len(rows) == 1
        assert rows[0] == run_point(fig2b, 40.0)

    def test_grid_and_order(self, fig2b):
        rows = sweep_distance(fig2b, 0.0, 50.0, 10.0)
        assert [row.length_km for row in rows] == [0, 10, 20, 30, 40, 50]

    def test_bad_grid(self, fig2b):
        with pytest.raises(DomainError):
            sweep_distance(fig2b, 10.0, 0.0, 5.0)
        with pytest.raises(DomainError):
            sweep_distance(fig2b, 0.0, 10.0, 0.0)

    @pytest.mark.parametrize(
        "l_min, l_max, step",
        [
            (0.0, 300.0, 1e-9),
            (0.0, math.inf, 1.0),
            (0.0, 10.0, math.nan),
            (math.nan, 10.0, 1.0),
            (0.0, math.nan, 1.0),
        ],
    )
    def test_grid_capped_and_nan_rejected(self, l_min, l_max, step):
        # Rejected before any point is allocated.
        with pytest.raises(DomainError):
            _grid(l_min, l_max, step)

    def test_grid_at_the_cap(self):
        assert len(_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(DomainError, match="exceeds"):
            _grid(0.0, float(MAX_GRID_POINTS), 1.0)

    def test_higher_dimension_beats_asymptotic_low_dimension(self):
        # At matched signal intensity, a short 32-dimensional session
        # already clears the 8-dimensional infinite-pulse capacity at
        # short distances.
        d8_limit = parse_config("", preset="fig3c")
        d32_small = parse_config("", preset="fig6b").with_overrides(n_pulses=1e8)
        for length in (0.0, 10.0, 25.0):
            assert (
                run_point(d32_small, length).delta_i
                >= run_point(d8_limit, length).delta_i
            )


class TestMaxDistance:
    def test_non_monotone_falls_back_to_grid_scan(self, fig2b, monkeypatch, caplog):
        import hdqkd.sweep as sweep_module

        def bumpy(scenario, length, **kwargs):
            # Positive, dead, briefly positive again, then dead for good.
            alive = length <= 30.0 or 36.0 <= length <= 45.0
            row = run_point(scenario, 0.0)
            value = 1.0 if alive else -1.0
            return type(row)(**{**row.__dict__, "delta_i": value})

        monkeypatch.setattr(sweep_module, "run_point", bumpy)
        with caplog.at_level("WARNING"):
            result = sweep_module.max_distance(fig2b, tol_km=0.5)
        assert 44.5 <= result <= 45.0
        assert any("not monotone" in record.message for record in caplog.records)

    @pytest.mark.parametrize("preset, n_pulses", [("fig2b", 1e10), ("fig3e", None)])
    def test_each_length_evaluated_once(self, monkeypatch, preset, n_pulses):
        scenario = parse_config("", preset=preset).with_overrides(n_pulses=n_pulses)
        lengths = []

        def counted(asked, length):
            lengths.append(length)
            return run_point(asked, length)

        monkeypatch.setattr(sweep, "run_point", counted)
        result = max_distance(scenario)
        first = sorted(lengths)
        assert len(first) == len(set(first))
        # Nothing is cached across searches: a second one asks again.
        lengths.clear()
        assert max_distance(scenario) == result
        assert sorted(lengths) == first

    @pytest.mark.parametrize("tol_km", [0.0, -1.0, math.nan])
    def test_bad_tolerance_rejected(self, fig2b, tol_km):
        # NaN would end the bisection at once, at the coarse bracket's midpoint.
        with pytest.raises(DomainError, match="tol_km"):
            max_distance(fig2b, tol_km=tol_km)

    def test_dead_at_zero(self):
        # A tiny session drowns in the smoothing penalty already at L=0.
        scenario = parse_config("", preset="fig2a").with_overrides(n_pulses=1e4)
        assert max_distance(scenario) == 0.0

    def test_single_decoy_has_finite_cutoff(self):
        scenario = parse_config("", preset="fig2e")
        cutoff = max_distance(scenario)
        assert 200.0 < cutoff < 350.0
        assert run_point(scenario, cutoff - 0.5).positive
        assert not run_point(scenario, cutoff + 0.5).positive

    def test_two_decoy_unbounded_at_infinite_pulses(self):
        assert max_distance(parse_config("", preset="fig2b")) == math.inf

    def test_grows_with_pulse_count(self):
        scenario = parse_config("", preset="fig2e")
        distances = [
            max_distance(scenario.with_overrides(n_pulses=n))
            for n in (1e9, 1e10, 1e11)
        ]
        assert distances == sorted(distances)


class TestMaxDistanceMatchesScan:
    """On every preset at finite N, the last positive length of a 1 km
    scan lies within [d - 1.1, d + 0.1] km of the distance d that
    ``max_distance`` bisects to 0.1 km.  One pulse count per model keeps
    the test near half a second."""

    @pytest.mark.parametrize("model, n_pulses", [("table", 1e10), ("gaussian", 1e12)])
    def test_every_preset(self, model, n_pulses):
        disagreements = []
        for name in preset_names():
            scenario = parse_config(
                f"[security_model]\nmodel = {model}\n", preset=name
            ).with_overrides(n_pulses=n_pulses)
            d = max_distance(scenario)
            rows = sweep_distance(scenario, 0.0, math.floor(d) + 25.0, 1.0)
            last = max((r.length_km for r in rows if r.positive), default=0.0)
            if not d - 1.1 <= last <= d + 0.1:
                disagreements.append((name, d, last))
        assert disagreements == []


class TestRateDirection:
    """r_hd = beta * i_ab - i_r + k * (i_r - phi_ub), so a lower bound on
    the single-pair fraction k is conservative only where phi_ub <= i_r.
    With beta * i_ab <= i_r, a positive capacity already forces that;
    these tests state both halves on every preset row and grid node."""

    @pytest.mark.parametrize("model", ["table", "gaussian"])
    def test_rate_does_not_fall_as_k_rises_on_keyed_rows(self, model):
        keyed, violations = 0, []
        for name in preset_names():
            base = parse_config(f"[security_model]\nmodel = {model}\n", preset=name)
            d = base.phys.schmidt_d
            for n_pulses in (1e10, 1e12, math.inf):
                scenario = base.with_overrides(n_pulses=n_pulses)
                for row in sweep_distance(scenario, 0.0, 300.0, 10.0):
                    if not row.positive:
                        continue
                    keyed += 1
                    sq = base.security_model.quantities(d, row.zeta_t_ub, row.zeta_w_ub)
                    if not sq.phi_ub <= sq.i_r:
                        violations.append((name, n_pulses, row.length_km, sq))
        assert keyed > 0
        assert violations == []

    @pytest.mark.parametrize("model", ["table", "gaussian"])
    def test_mutual_information_within_shared_bits(self, model):
        model = parse_config(f"[security_model]\nmodel = {model}\n").security_model
        violations = [
            (d, zeta_t, zeta_w, sq.i_ab)
            for d in PINNED_DIMENSIONS
            for zeta_t in PINNED_ZETA_GRID
            for zeta_w in PINNED_ZETA_GRID
            for sq in [model.quantities(d, zeta_t, zeta_w)]
            if not sq.i_ab <= sq.i_r + 1e-12
        ]
        assert violations == []


class TestEmission:
    def test_header_and_row_count(self, fig2b):
        rows = sweep_distance(fig2b, 0.0, 10.0, 10.0)
        text = format_rows(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_deterministic_bytes(self, fig2b):
        rows = sweep_distance(fig2b, 0.0, 30.0, 15.0)
        assert format_rows(rows) == format_rows(rows)

    def test_out_of_order_rejected(self, fig2b):
        rows = sweep_distance(fig2b, 0.0, 10.0, 10.0)
        with pytest.raises(DomainError, match="ascending"):
            format_rows(list(reversed(rows)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            format_rows([])

    def test_no_key_row_rendering(self, fig2b):
        scenario = fig2b.with_overrides(n_pulses=1e9)
        row = run_point(scenario, 150.0)
        text = format_rows([row])
        payload = text.strip().split("\n")[1]
        fields = payload.split(",")
        assert fields[3] == "-inf"
        assert fields[-1] == "false"

    def test_twelve_significant_digits(self, fig2b):
        row = run_point(fig2b, 12.5)
        payload = format_rows([row]).strip().split("\n")[1]
        delta_field = payload.split(",")[3]
        assert float(delta_field) == pytest.approx(row.delta_i, rel=1e-12)

    def test_emit_csv_and_plotdata(self, fig2b):
        rows = sweep_distance(fig2b, 0.0, 10.0, 5.0)
        csv_buffer = io.StringIO()
        emit_csv(rows, csv_buffer)
        assert csv_buffer.getvalue().startswith(CSV_HEADER)
        plot_buffer = io.StringIO()
        emit_plotdata(rows, plot_buffer)
        lines = plot_buffer.getvalue().strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 4
        length, value = lines[1].split()
        assert float(length) == 0.0
        assert float(value) == pytest.approx(rows[0].delta_i, rel=1e-12)
