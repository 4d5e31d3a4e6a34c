"""Workload inputs, the calls they make, their output checks and metrics.

A workload gives most of its measured call time to its own *block* of
calls and the rest to the other two blocks at a small size, so that every
run reports every end-to-end metric.  The three blocks:

* ``sweep``: ``sweep_distance`` over 0-300 km, then ``format_rows``, for
  every preset x n_pulses in {1e10, 1e12, inf} x security model;
* ``query``: ``max_distance`` for every preset x n_pulses x model, mixed
  with ``run_point`` at (scenario, length) pairs drawn from the seed;
* ``mc``: ``simulate_session`` for fig2b at 10 km and fig6a at 50 km, and
  ``coverage_experiment`` (100 trials, eps 0.01) for fig2f at 0 km with
  both bounds and for fig2c at 0 km with the Hoeffding bound.

Library functions are looked up through their modules at call time, so
the traced run's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import math
import random
import statistics
from typing import NamedTuple

import checks
import hdqkd
import hdqkd.montecarlo
import hdqkd.physics
import hdqkd.scenario
import hdqkd.sweep

SWEEP_PULSES = ("1e10", "1e12", "inf")
SEARCH_PULSES = ("1e9", "1e10", "1e11", "1e12", "1e13", "inf")
MODELS = ("table", "gaussian")
L_MIN_KM, L_MAX_KM = 0.0, 300.0
SESSIONS = (("fig2b", 10.0), ("fig6a", 50.0))
COVERAGE = (("fig2f", "hoeffding"), ("fig2f", "chernoff"), ("fig2c", "hoeffding"))
COVERAGE_LENGTH_KM = 0.0
COVERAGE_EPS = 0.01
COVERAGE_TRIALS = 100
#: Default bisection tolerance of ``max_distance``.
SEARCH_TOL_KM = 0.1

PRESETS = tuple(sorted(hdqkd.scenario.PRESETS))

#: Block sizes: a workload runs its own block at ``full`` size and the
#: other two at ``small`` size.  Below about 3e4 pulses a fig2f trial can
#: fail the multiplicative bound's preconditions, so the small coverage
#: size stays above that.
SIZES = {
    "full": {
        "step_km": 1.0,
        "search_pulses": SEARCH_PULSES,
        "points": 2000,
        "frames": 10**7,
        "coverage_pulses": 2 * 10**5,
    },
    "small": {
        "step_km": 10.0,
        "search_pulses": SWEEP_PULSES,
        "points": 1000,
        "frames": 10**6,
        "coverage_pulses": 5 * 10**4,
    },
}

#: Each workload and the block it runs for the measured time.
WORKLOADS = {"sweep_dense": "sweep", "query_mix": "query", "mc_oracle": "mc"}
BLOCKS = ("sweep", "query", "mc")

#: End-to-end metrics of each block, with units.
UNITS = {
    "sweep_points_per_s": "points/s",
    "sweep_ms_p50": "ms",
    "sweep_ms_p90": "ms",
    "maxdist_ms_p50": "ms",
    "maxdist_ms_p90": "ms",
    "point_us_p50": "us",
    "point_us_p99": "us",
    "sim_mframes_per_s": "Mframes/s",
    "coverage_trials_per_s": "trials/s",
}


class Op(NamedTuple):
    """One call into the library: kind, scenario key and call arguments."""

    kind: str
    key: tuple[str, str]
    arg: object


def config_text(pulses: str, model: str) -> str:
    return f"[protocol]\nn_pulses = {pulses}\n[security_model]\nmodel = {model}\n"


def scenario_keys(block: str, size: dict, presets) -> list[tuple[str, str]]:
    """The (preset, config text) pairs a block parses."""
    if block == "mc":
        used = {name for name, _ in SESSIONS} | {name for name, _ in COVERAGE}
        return [(name, "") for name in sorted(used)]
    pulses = SWEEP_PULSES if block == "sweep" else size["search_pulses"]
    return [(p, config_text(n, m)) for p in presets for n in pulses for m in MODELS]


def make_pass(block: str, size: dict, presets, scenarios, rng: random.Random) -> list[Op]:
    """The calls of one pass of a block, drawn from ``rng``."""
    keys = scenario_keys(block, size, presets)
    if block == "sweep":
        ops = [Op("sweep", key, (L_MIN_KM, L_MAX_KM, size["step_km"])) for key in keys]
    elif block == "query":
        ops = [Op("maxdist", key, SEARCH_TOL_KM) for key in keys]
        ops += [
            Op("point", rng.choice(keys), rng.uniform(L_MIN_KM, L_MAX_KM))
            for _ in range(size["points"])
        ]
    else:
        ops = []
        for name, length in SESSIONS:
            config = scenarios[(name, "")].sim_config(
                length, rng.getrandbits(63), n_pulses=size["frames"]
            )
            ops.append(Op("session", (name, ""), config))
        for name, method in COVERAGE:
            config = scenarios[(name, "")].sim_config(
                COVERAGE_LENGTH_KM, rng.getrandbits(63), n_pulses=size["coverage_pulses"]
            )
            ops.append(Op("coverage", (name, ""), (config, method)))
    rng.shuffle(ops)
    return ops


def execute(op: Op, scenarios):
    """Make the call; the caller times it."""
    scenario = scenarios[op.key]
    if op.kind == "sweep":
        rows = hdqkd.sweep.sweep_distance(scenario, *op.arg)
        return rows, hdqkd.sweep.format_rows(rows)
    if op.kind == "maxdist":
        return hdqkd.sweep.max_distance(scenario, tol_km=op.arg)
    if op.kind == "point":
        return hdqkd.sweep.run_point(scenario, op.arg)
    if op.kind == "session":
        return hdqkd.montecarlo.simulate_session(op.arg)
    config, method = op.arg
    return hdqkd.montecarlo.coverage_experiment(config, COVERAGE_EPS, method, COVERAGE_TRIALS)


def work(op: Op, out) -> int:
    """Units of work a call did: points, frames or trials."""
    if op.kind == "sweep":
        return len(out[0])
    if op.kind == "session":
        return op.arg.n_pulses
    if op.kind == "coverage":
        return COVERAGE_TRIALS
    return 1


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(op: Op, out, scenarios, digests: dict) -> list[str]:
    """Problems with one call's output; ``digests`` remembers sweep CSVs."""
    scenario = scenarios[op.key]
    if op.kind == "sweep":
        rows, text = out
        problems = checks.check_sweep(rows, *op.arg)
        first = digests.setdefault((op.key, op.arg), csv_digest(text))
        if first != csv_digest(text):
            problems.append("CSV bytes differ from an earlier sweep of the same scenario")
        return problems
    if op.kind == "maxdist":
        return checks.check_max_distance(
            lambda length: hdqkd.sweep.run_point(scenario, length).delta_i,
            out,
            op.arg,
            hdqkd.sweep.MAX_SEARCH_KM,
        )
    if op.kind == "point":
        problems = checks.check_row(out)
        if out.length_km != op.arg:
            problems.append(f"row for {out.length_km} km, asked for {op.arg} km")
        return problems
    if op.kind == "session":
        return checks.check_session(out)
    return checks.check_coverage(out, COVERAGE_EPS, COVERAGE_TRIALS)


def physics_problems(scenarios, rng: random.Random, count: int) -> list[list[str]]:
    """Closed form against series at ``count`` points drawn from the scenarios."""
    physics = hdqkd.physics
    chosen = sorted(scenarios)
    results = []
    for _ in range(count):
        scenario = scenarios[rng.choice(chosen)]
        _role, lam, _p = rng.choice(scenario.intensities.roles())
        phys, p_d = scenario.phys, scenario.frame.p_d
        length = rng.uniform(L_MIN_KM, L_MAX_KM)
        eta_t = physics.transmittance(phys.alpha, length)
        args = (lam, phys.eta_alice, phys.eta_bob, eta_t, p_d)
        results.append(
            checks.check_postselection(
                physics.postselection_prob_closed(*args),
                physics.postselection_prob_series(*args),
                f"intensity {lam}, {length:.3f} km",
            )
        )
    return results


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile, ``q`` in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def block_metrics(block: str, samples: list[tuple[str, float, int]]) -> dict[str, float]:
    """End-to-end metrics of a block from ``(kind, seconds, work)`` samples."""
    times: dict[str, list[float]] = {}
    amounts: dict[str, int] = {}
    for kind, seconds, amount in samples:
        times.setdefault(kind, []).append(seconds)
        amounts[kind] = amounts.get(kind, 0) + amount

    def rate(kind: str) -> float:
        return amounts[kind] / math.fsum(times[kind])

    if block == "sweep":
        return {
            "sweep_points_per_s": rate("sweep"),
            "sweep_ms_p50": 1e3 * percentile(times["sweep"], 50),
            "sweep_ms_p90": 1e3 * percentile(times["sweep"], 90),
        }
    if block == "query":
        return {
            "maxdist_ms_p50": 1e3 * percentile(times["maxdist"], 50),
            "maxdist_ms_p90": 1e3 * percentile(times["maxdist"], 90),
            "point_us_p50": 1e6 * percentile(times["point"], 50),
            "point_us_p99": 1e6 * percentile(times["point"], 99),
        }
    return {
        "sim_mframes_per_s": rate("session") / 1e6,
        "coverage_trials_per_s": rate("coverage"),
    }
