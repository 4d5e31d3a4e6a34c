"""Frame-level Monte Carlo oracle of the protocol.

Every frame gets its own intensity role, basis pairing and Poisson pair
number, and both parties detect it (photons or dark counts) independently
given that pair number.  The sampler draws only what the tally depends
on, in two steps that are exact in distribution up to 2**53 ≈ 9.0e15
pulses (above that, numpy's multinomial and binomial return counts
rounded to doubles, though totals stay exact; presets use at most 1e13):

1. Frames are iid and a frame's cell (intensity role, basis pairing) is
   categorical with probability ``p_role * pi_pairing``, where ``pi`` is
   ``(p_t**2, (1 - p_t)**2, 2 p_t (1 - p_t))`` for TT, DD and mismatch.
   So the frame counts of all cells are one multinomial draw.
2. The pair number depends on the intensity only, and the parties
   detect independently given it, so each of a cell's m frames is a
   coincidence independently with probability
   ``P_role = sum_n pmf(n) * P_alice(n) * P_bob(n)``, whatever its basis
   pairing.  A cell's coincidences are one Binomial(m, P_role) draw.

No draw is per frame, so a session costs the same at any pulse count.
Its tally validates the analytic model and shares no code with it: each
role's pair-number pmf is computed here from ``math.lgamma`` and summed
over 64 pair-number bins, not by :func:`~hdqkd.physics.poisson_pmf` or
a postselection series, and criterion 1 separately pins the closed form
against the series to 1e-12.

Coverage needs only each trial's estimation (DD) cells, so it draws step
1 as one multinomial per trial and step 2 for the DD cells only, at the
same ``P_role``.

A session (:class:`SimConfig`) is a :class:`~hdqkd.scenario.Scenario`
at one channel point, with its own pulse count and 64-bit seed; the seed
fully determines the session's tally and a coverage run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from . import fluctuation
from .decoy import IntensityConfig, IntensityStats, expected_stats
from .errors import ChernoffInapplicableError, DomainError, EstimationImpossibleError
from .physics import ChannelPoint
from .scenario import Scenario

__all__ = [
    "PAIRINGS",
    "SimConfig",
    "CellCount",
    "SessionTally",
    "simulate_session",
    "empirical_stats",
    "coverage_experiment",
    "format_tally",
]

PAIRINGS = ("TT", "DD", "mismatch")

_CHUNK = 1_000_000
#: Pair numbers 0 .. _PAIR_BINS - 2 have a bin each; the rest share the last.
_PAIR_BINS = 64
_SEED_MASK = (1 << 64) - 1
#: numpy's samplers take counts as C longs.
_MAX_PULSES = (1 << 63) - 1


@dataclass(frozen=True)
class SimConfig:
    """One simulated session: the scenario at one channel point, run for
    ``n_pulses`` pulses from a 64-bit ``seed``.  Every other setting is the
    scenario's, checked there; ``n_pulses`` must be a whole number in
    [1, 2**63 - 1] (numpy's samplers take C longs) and is stored as an int.
    The model statistics at the channel point
    (:func:`~hdqkd.decoy.expected_stats`) are built once per config and
    give both :meth:`analytic_postselection` and :func:`empirical_stats`.
    """

    scenario: Scenario
    channel: ChannelPoint
    n_pulses: int
    seed: int

    def __post_init__(self) -> None:
        n = self.n_pulses
        # Range first: int() cannot take the nan or inf that it rejects.
        if not 1 <= n <= _MAX_PULSES or n != int(n):
            raise DomainError(
                f"simulation needs a finite integer n_pulses in [1, 2^63 - 1], got {n}"
            )
        object.__setattr__(self, "n_pulses", int(n))

    @property
    def intensities(self) -> IntensityConfig:
        """The scenario's intensities, for readers of a tally's config."""
        return self.scenario.intensities

    @cached_property
    def _expected(self) -> dict[str, IntensityStats]:
        """The model statistics at this channel point, built once."""
        s = self.scenario
        return expected_stats(s.intensities, s.phys, s.frame, self.channel, s.delta_phi)

    def analytic_postselection(self, role: str) -> float:
        """Closed-form postselection probability for one intensity role."""
        if role not in self._expected:
            raise DomainError(f"unknown intensity role {role!r}")
        return self._expected[role].p_post


@dataclass(frozen=True)
class CellCount:
    frames: int
    coincidences: int


@dataclass(frozen=True)
class SessionTally:
    """Frame and coincidence counts per (intensity role, basis pairing)."""

    config: SimConfig
    cells: Mapping[tuple[str, str], CellCount]

    def frames(self, role: str, pairing: str) -> int:
        return self.cells[(role, pairing)].frames

    def coincidences(self, role: str, pairing: str) -> int:
        return self.cells[(role, pairing)].coincidences

    def empirical_p(self, role: str) -> float:
        """Empirical postselection probability from the estimation cells."""
        cell = self.cells[(role, "DD")]
        if cell.frames == 0:
            raise EstimationImpossibleError(
                f"estimation impossible: no DD frames for intensity {role!r}"
            )
        return cell.coincidences / cell.frames


def _cell_probabilities(config: SimConfig) -> np.ndarray:
    """Frame probability of every (role, pairing) cell, role-major."""
    p_t = config.scenario.p_t
    pairing_p = (p_t * p_t, (1.0 - p_t) ** 2, 2.0 * p_t * (1.0 - p_t))
    cell_p = np.array(
        [p * q for _, _, p in config.scenario.intensities.roles() for q in pairing_p]
    )
    # The roles' selection probabilities may sum to 1 +- 1e-9, and
    # multinomial rejects cell probabilities whose sum exceeds 1.
    return cell_p / cell_p.sum()


def _pair_pmf(lam: float) -> list[float]:
    """Poisson pmf of the pair number (``0.0**0 == 1`` makes λ = 0 a point mass)."""
    pmf = [lam**n * math.exp(-lam - math.lgamma(n + 1)) for n in range(_PAIR_BINS - 1)]
    return pmf + [max(0.0, 1.0 - math.fsum(pmf))]


def _coincidence_probabilities(config: SimConfig) -> list[float]:
    """Each role's per-frame coincidence probability, in role order: the
    mixture ``sum_n pmf(n) * P_alice(n) * P_bob(n)`` over the pair-number
    bins, with dark counts filling in for lost photons.  The last bin
    lumps every n >= 63 and has probability ~0 at any sane intensity."""
    s = config.scenario
    miss = 1.0 - s.frame.p_d
    lost_a, lost_b = 1.0 - s.phys.eta_alice, 1.0 - s.phys.eta_bob * config.channel.eta_t
    both = [
        (1.0 - lost_a**n * miss) * (1.0 - lost_b**n * miss) for n in range(_PAIR_BINS)
    ]
    return [
        math.fsum(p * q for p, q in zip(_pair_pmf(lam), both))
        for _, lam, _p in s.intensities.roles()
    ]


def simulate_session(config: SimConfig) -> SessionTally:
    """Run one protocol session of ``n_pulses`` frames.

    Per frame: the intensity is drawn by its selection probability, the
    pair number from a Poisson distribution at that intensity, both
    parties' bases independently (key basis with probability ``p_t``),
    and each party detects independently given the pair number, with the
    per-frame dark-count probability filling in for lost photons.  A
    coincidence is both parties detecting.  The draws follow the module's
    two steps: one multinomial for the cell counts, then one binomial per
    cell for its coincidences at its role's probability, so the cost does
    not depend on ``n_pulses``.  Identical configs (seed included)
    produce identical tallies.
    """
    roles = config.scenario.intensities.roles()
    p_cell = np.repeat(_coincidence_probabilities(config), len(PAIRINGS))
    rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))

    frames = rng.multinomial(config.n_pulses, _cell_probabilities(config))
    hits = rng.binomial(frames, p_cell)
    names = [(role, pairing) for role, _lam, _p in roles for pairing in PAIRINGS]
    cells = {
        name: CellCount(frames=count, coincidences=hit)
        for name, count, hit in zip(names, frames.tolist(), hits.tolist())
    }
    return SessionTally(config=config, cells=cells)


def empirical_stats(tally: SessionTally) -> dict[str, IntensityStats]:
    """Package a session tally as measured statistics.

    The postselection probabilities are the empirical estimation-basis
    values (interval ends degenerate until a fluctuation method is
    attached).  Everything else is the session's model record, i.e.
    :func:`~hdqkd.decoy.expected_stats` at its channel point with the
    scenario's excess noise and ``delta_phi``: the simulator knows the
    ground truth and simulates no microscopic timing model, so the
    average multipliers are the model's.
    """
    stats = {}
    for role, model in tally.config._expected.items():
        p_hat = tally.empirical_p(role)
        stats[role] = replace(model, p_post=p_hat, p_minus=p_hat, p_plus=p_hat)
    return stats


def _estimation_counts(
    config: SimConfig, trials: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(k, roles)`` arrays of DD frames and coincidences per slice.

    Slices of at most ``_CHUNK`` cell counts bound a long run's memory.
    """
    cell_p = _cell_probabilities(config)
    p_role = _coincidence_probabilities(config)
    rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))
    per_slice = max(1, _CHUNK // cell_p.size)
    for start in range(0, trials, per_slice):
        k = min(per_slice, trials - start)
        frames = rng.multinomial(config.n_pulses, cell_p, size=k)
        frames = frames[:, PAIRINGS.index("DD") :: len(PAIRINGS)]
        yield frames, rng.binomial(frames, p_role)


def coverage_experiment(
    config: SimConfig, eps_pe: float, method: str, trials: int
) -> float:
    """Empirical coverage of the fluctuation intervals.

    Draws the estimation cells of ``trials`` independent sessions at
    count level (see the module docstring), builds the interval of the
    chosen method around each empirical postselection probability, and
    returns the fraction of sessions in which every intensity's interval
    contains the analytic value.  A session without DD frames for some
    intensity raises :class:`EstimationImpossibleError`.  ``method`` must
    be one of :data:`fluctuation.METHODS`.  An interval whose
    multiplicative-bound preconditions fail makes the run meaningless, so
    every role's interval is built and checked in every trial, and the
    first failing check (in trial order, then role order) raises
    :class:`ChernoffInapplicableError` carrying it.
    """
    if not (100 <= trials < math.inf) or trials != int(trials):
        raise DomainError(f"need a whole number of at least 100 trials, got {trials}")
    trials = int(trials)
    if method not in fluctuation.METHODS:
        raise DomainError(f"unknown method {method!r}")
    roles = config.scenario.intensities.roles()
    p_true = [config.analytic_postselection(role) for role, _lam, _p in roles]

    def covers(k: int, p_hat: float) -> bool:
        p_sel = roles[k][2]
        iv = fluctuation.interval(
            p_hat, p_sel, config.scenario.p_t, config.n_pulses, eps_pe, method
        )
        check = iv.applicability
        if check is not None and not check.ok:
            raise ChernoffInapplicableError(
                f"multiplicative bound inapplicable for intensity "
                f"{roles[k][0]!r}: {check.reason} (alpha_l={check.alpha_l:.6g})",
                diagnostics=check,
            )
        return iv.p_minus <= p_true[k] <= iv.p_plus

    covered = 0
    for frames, hits in _estimation_counts(config, trials):
        empty = np.flatnonzero(frames.min(axis=0) == 0)
        if empty.size:
            raise EstimationImpossibleError(
                "estimation impossible: no DD frames for intensity "
                f"{roles[empty[0]][0]!r}"
            )
        for p_hat in (hits / frames).tolist():
            # A list, not a generator: a miss must not skip later checks.
            covered += all([covers(k, p) for k, p in enumerate(p_hat)])
    return covered / trials


def format_tally(tally: SessionTally) -> str:
    """Text dump: one ``lambda basis_pair frames coincidences`` line per cell."""
    lines = []
    for role, lam, _p in tally.config.scenario.intensities.roles():
        for pairing in PAIRINGS:
            cell = tally.cells[(role, pairing)]
            lines.append(f"{lam:.10g} {pairing} {cell.frames} {cell.coincidences}")
    return "\n".join(lines) + "\n"
