"""Distance sweeps, maximum-distance search and CSV emission.

A sweep point evaluates the full chain at one channel length: analytic
postselection probabilities, fluctuation intervals of the configured
method, decoy-state bounds, worst-case security quantities and the
finite-size capacity.  The "measured" statistics of a sweep are the
model expectations (expected values plus fluctuation allowances); the
Monte Carlo path is a separate validation tool.  Points are evaluated
one after another in the calling process.

When the multiplicative bound's preconditions fail for an intensity,
the sweep proceeds with the stated widths and annotates the row's
method column (e.g. ``chernoff(unchecked:v2)``) instead of silently
switching methods.  Only the coverage experiment refuses such a check.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import IO, Iterable

from .decoy import attach_fluctuation, estimate_bounds, expected_stats
from .errors import DomainError
from .keyrate import finite_key_terms, secure_key_capacity
from .physics import ChannelPoint
from .scenario import Scenario

__all__ = [
    "CSV_HEADER",
    "ResultRow",
    "run_point",
    "sweep_distance",
    "max_distance",
    "emit_csv",
    "emit_plotdata",
]

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "length_km,n_pulses,method,delta_i_bpc,r_hd_bpc,kmu_lb,zeta_t_ub,"
    "zeta_w_ub,ec_term,pa_term,smooth_term,positive"
)

#: Ceiling for the maximum-distance search; a capacity still positive
#: here is reported as an unbounded transmission distance.
MAX_SEARCH_KM = 2000.0

#: Most points a distance grid may hold.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class ResultRow:
    """One evaluated channel point."""

    length_km: float
    n_pulses: float
    method: str
    delta_i: float
    r_hd: float
    kmu_lb: float
    zeta_t_ub: float
    zeta_w_ub: float
    ec_term: float
    pa_term: float
    smooth_term: float
    positive: bool


def run_point(scenario: Scenario, length_km: float) -> ResultRow:
    """Evaluate the secure-key capacity at one channel length.

    "No key" conditions (vanishing single-pair fraction bound, or an
    excess-noise bound beyond the cap) yield a row with ``positive``
    false and capacities of ``-inf`` rather than an exception.  Failed
    precondition checks of the multiplicative bound label the method
    column ``chernoff(unchecked:<roles>)``.
    """
    phys = scenario.phys
    frame = scenario.frame
    channel = ChannelPoint.from_length(phys.alpha, length_km)
    stats, failed = attach_fluctuation(
        expected_stats(
            scenario.intensities, phys, frame, channel, frame.zeta, scenario.delta_phi
        ),
        scenario.intensities,
        scenario.p_t,
        scenario.n_pulses,
        scenario.budget.eps_pe,
        scenario.method,
    )
    method = "exact" if math.isinf(scenario.n_pulses) else scenario.method
    if failed:
        method = f"{method}(unchecked:{';'.join(failed)})"
    bounds = estimate_bounds(stats, scenario.intensities, frame.p_d)

    if bounds.no_key:
        delta_i = r_hd = -math.inf
        positive = False
        ec, pa, smooth = finite_key_terms(
            scenario.intensities.p_mu,
            scenario.p_t,
            scenario.n_pulses,
            phys.schmidt_d,
            scenario.budget,
        )
    else:
        sq = scenario.security_model.quantities(
            phys.schmidt_d, bounds.zeta_t_ub, bounds.zeta_w_ub
        )
        result = secure_key_capacity(
            scenario.beta,
            sq,
            bounds.kmu_lb,
            scenario.intensities.p_mu,
            scenario.p_t,
            scenario.n_pulses,
            phys.schmidt_d,
            scenario.budget,
        )
        delta_i, r_hd, positive = result.delta_i, result.r_hd, result.positive
        terms = result.terms
        ec, pa, smooth = terms.ec_term, terms.pa_term, terms.smooth_term
    return ResultRow(
        length_km=length_km,
        n_pulses=scenario.n_pulses,
        method=method,
        delta_i=delta_i,
        r_hd=r_hd,
        kmu_lb=bounds.kmu_lb,
        zeta_t_ub=bounds.zeta_t_ub,
        zeta_w_ub=bounds.zeta_w_ub,
        ec_term=ec,
        pa_term=pa,
        smooth_term=smooth,
        positive=positive,
    )


def _grid(l_min: float, l_max: float, step: float) -> list[float]:
    if not step > 0.0:
        raise DomainError(f"step must be > 0, got {step}")
    if not l_min <= l_max:
        raise DomainError(f"need l_min <= l_max, got {l_min} and {l_max}")
    # The point count is checked before anything is allocated; an
    # infinite or NaN span fails the same comparison.
    span = (l_max - l_min) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise DomainError(
            f"grid from {l_min} to {l_max} km at step {step} km exceeds "
            f"{MAX_GRID_POINTS} points"
        )
    count = int(math.floor(span)) + 1
    return [l_min + i * step for i in range(count)]


def sweep_distance(
    scenario: Scenario,
    l_min: float,
    l_max: float,
    step: float,
) -> list[ResultRow]:
    """Evaluate a distance grid in ascending length order.

    Points are evaluated one after another in the calling process, so
    the output is deterministic.
    """
    return [run_point(scenario, length) for length in _grid(l_min, l_max, step)]


def max_distance(scenario: Scenario, *, tol_km: float = 0.1) -> float:
    """Largest channel length with a positive secure-key capacity.

    Returns 0 when the capacity is non-positive already at zero length,
    and ``inf`` when it is still positive at the search ceiling (with
    expected-value statistics and a zero multiplier baseline, two-decoy
    estimation can stay informative down to the dark-count floor, so an
    infinite-pulse two-decoy scenario may have no cutoff).  Otherwise
    the capacity is assumed non-increasing in length and the zero
    crossing is bisected to ``tol_km``; if the coarse bracketing scan
    shows a non-monotone sign pattern, the search falls back to a fine
    grid and reports it through the logger.
    """
    if not tol_km > 0.0:
        raise DomainError(f"tol_km must be > 0, got {tol_km}")

    def capacity(length: float) -> float:
        return run_point(scenario, length).delta_i

    if capacity(0.0) <= 0.0:
        return 0.0
    hi = 25.0
    while capacity(hi) > 0.0:
        hi *= 2.0
        if hi > MAX_SEARCH_KM:
            logger.info(
                "capacity still positive at %.0f km; reporting an unbounded "
                "transmission distance",
                MAX_SEARCH_KM,
            )
            return math.inf
    # Coarse scan of the bracket to detect non-monotone behaviour.
    samples = [(length, capacity(length)) for length in _grid(0.0, hi, hi / 16.0)]
    signs = [value > 0.0 for _, value in samples]
    first_dead = signs.index(False)
    if any(signs[first_dead:]):
        logger.warning(
            "capacity is not monotone in length; falling back to a fine grid scan"
        )
        last_alive = 0.0
        for length in _grid(0.0, hi, tol_km):
            if capacity(length) > 0.0:
                last_alive = length
        return last_alive
    lo = samples[first_dead - 1][0]
    hi = samples[first_dead][0]
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if capacity(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def format_rows(rows: Iterable[ResultRow]) -> str:
    """Render rows as the canonical CSV document (deterministic bytes)."""
    rows = list(rows)
    if not rows:
        raise DomainError("no rows to emit")
    for earlier, later in zip(rows, rows[1:]):
        if later.length_km < earlier.length_km:
            raise DomainError(
                "rows must be in ascending length order "
                f"({later.length_km} after {earlier.length_km})"
            )
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    format(row.length_km, ".12g"),
                    format(row.n_pulses, ".12g"),
                    row.method,
                    format(row.delta_i, ".12e"),
                    format(row.r_hd, ".12e"),
                    format(row.kmu_lb, ".12e"),
                    format(row.zeta_t_ub, ".12e"),
                    format(row.zeta_w_ub, ".12e"),
                    format(row.ec_term, ".12e"),
                    format(row.pa_term, ".12e"),
                    format(row.smooth_term, ".12e"),
                    "true" if row.positive else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows: Iterable[ResultRow], destination: IO[str]) -> None:
    """Write the CSV document to an open text stream."""
    destination.write(format_rows(rows))


def emit_plotdata(rows: Iterable[ResultRow], destination: IO[str]) -> None:
    """Two-column (length, capacity) variant for plotting tools."""
    rows = list(rows)
    if not rows:
        raise DomainError("no rows to emit")
    lines = ["# length_km delta_i_bpc"]
    for row in rows:
        lines.append(f"{row.length_km:.12g} {row.delta_i:.12e}")
    destination.write("\n".join(lines) + "\n")
