"""Frame-level Monte Carlo oracle of the protocol.

Every frame gets its own intensity role, basis pairing and Poisson pair
number, and both parties detect it (photons or dark counts) independently
given that pair number.  The sampler draws only what the tally depends
on, in three steps that are exact in distribution:

1. Frames are iid and a frame's cell (intensity role, basis pairing) is
   categorical with probability ``p_role * pi_pairing``, where ``pi`` is
   ``(p_t**2, (1 - p_t)**2, 2 p_t (1 - p_t))`` for TT, DD and mismatch.
   So the frame counts of all cells are one multinomial draw.
2. The pair number depends on the intensity only, so each cell draws one
   Poisson number per frame at its role's intensity.
3. The parties detect independently given the pair number n, so the
   coincidences among the m frames of a cell that share n are
   Binomial(m, P_alice(n) * P_bob(n)).

The empirical postselection probabilities validate the analytic model.
The session sampler never uses a summed postselection probability: each
frame's pair number comes from numpy's Poisson sampler, which keeps the
comparison with the closed form independent.

Coverage needs only each trial's estimation (DD) cells, so it draws
counts: step 1 as one multinomial per trial, then each role's DD
coincidences as one Binomial(frames, P_role), with ``P_role`` the Poisson
mixture of the yields (:func:`~hdqkd.physics.postselection_prob_series`).
This is exact in distribution as well: given the cell counts, steps 2
and 3 make each frame a coincidence independently with probability
P_role, whatever its basis pairing.

The 64-bit seed fully determines a session's tally and a coverage run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from . import fluctuation, physics
from .decoy import IntensityConfig, IntensityStats, expected_stats
from .errors import (
    ChernoffInapplicableError,
    ConfigError,
    DomainError,
    EstimationImpossibleError,
)
from .physics import ChannelPoint, FrameParams, PhysicalParams

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
_SEED_MASK = (1 << 64) - 1
#: numpy's samplers take counts as C longs.
_MAX_PULSES = (1 << 63) - 1


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulated session depends on, seed included."""

    phys: PhysicalParams
    frame: FrameParams
    channel: ChannelPoint
    intensities: IntensityConfig
    p_t: float
    n_pulses: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_t <= 1.0:
            raise DomainError(f"p_t must lie in [0, 1], got {self.p_t}")
        n = self.n_pulses
        if not (1 <= n < math.inf) or n != int(n):
            raise DomainError(
                f"simulation needs a finite integer n_pulses >= 1, got {n}"
            )
        if n > _MAX_PULSES:
            raise DomainError(f"n_pulses must be <= 2^63 - 1, got {n}")
        total = sum(p for _, _, p in self.intensities.roles())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"selection probabilities must sum to 1 for simulation, got {total}"
            )

    def analytic_postselection(self, role: str) -> float:
        """Closed-form postselection probability for one intensity role."""
        for r, lam, _p in self.intensities.roles():
            if r == role:
                return physics.postselection_prob_closed(
                    lam,
                    self.phys.eta_alice,
                    self.phys.eta_bob,
                    self.channel.eta_t,
                    self.frame.p_d,
                )
        raise DomainError(f"unknown intensity role {role!r}")


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
    p_t = config.p_t
    pairing_p = (p_t * p_t, (1.0 - p_t) ** 2, 2.0 * p_t * (1.0 - p_t))
    cell_p = np.array(
        [p * q for _, _, p in config.intensities.roles() for q in pairing_p]
    )
    # The roles' selection probabilities may sum to 1 +- 1e-9, and
    # multinomial rejects cell probabilities whose sum exceeds 1.
    return cell_p / cell_p.sum()


def simulate_session(config: SimConfig) -> SessionTally:
    """Run one protocol session of ``n_pulses`` frames.

    Per frame: the intensity is drawn by its selection probability, the
    pair number from a Poisson distribution at that intensity, both
    parties' bases independently (key basis with probability ``p_t``),
    and each party detects independently given the pair number, with the
    per-frame dark-count probability filling in for lost photons.  A
    coincidence is both parties detecting.  The draws follow the module's
    three steps: one multinomial for the cell counts, one Poisson pair
    number per frame, and one binomial per (cell, pair number) for the
    coincidences.  Identical configs (seed included) produce identical
    tallies.
    """
    roles = config.intensities.roles()
    cell_p = _cell_probabilities(config)
    p_d = config.frame.p_d
    # Detection probabilities depend only on the (small) pair number.
    # The table is long enough that Poisson draws above it have
    # probability ~0 at any sane intensity, and the last entry is exact
    # in that regime anyway.
    lut_n = 64
    grid = np.arange(lut_n)
    lut_alice = 1.0 - (1.0 - config.phys.eta_alice) ** grid * (1.0 - p_d)
    lut_bob = (
        1.0
        - (1.0 - config.phys.eta_bob * config.channel.eta_t) ** grid * (1.0 - p_d)
    )
    lut_both = lut_alice * lut_bob
    rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))

    frames = rng.multinomial(int(config.n_pulses), cell_p)
    cells = {}
    for k, count in enumerate(frames.tolist()):
        role, lam, _p = roles[k // len(PAIRINGS)]
        coincidences = 0
        # Slices of at most _CHUNK pair numbers bound a long session's memory.
        for start in range(0, count, _CHUNK):
            pairs = rng.poisson(lam, min(_CHUNK, count - start))
            np.minimum(pairs, lut_n - 1, out=pairs)
            per_n = np.bincount(pairs, minlength=lut_n)
            coincidences += int(rng.binomial(per_n, lut_both).sum())
        cells[(role, PAIRINGS[k % len(PAIRINGS)])] = CellCount(
            frames=count, coincidences=coincidences
        )
    return SessionTally(config=config, cells=cells)


def empirical_stats(
    tally: SessionTally, eve_zeta: float, delta_phi: float
) -> dict[str, IntensityStats]:
    """Package a session tally as measured statistics.

    The postselection probabilities are the empirical estimation-basis
    values (interval ends degenerate until a fluctuation method is
    attached).  The average multipliers are those of
    :func:`~hdqkd.decoy.expected_stats` at the configured channel, since
    the simulator knows the ground truth and no microscopic timing model
    is simulated.
    """
    config = tally.config
    roles = config.intensities.roles()
    p_hat = {role: tally.empirical_p(role) for role, _lam, _p in roles}
    expected = expected_stats(
        config.intensities,
        config.phys,
        config.frame,
        config.channel,
        eve_zeta,
        delta_phi,
    )
    return {
        role: replace(s, p_post=p_hat[role], p_minus=p_hat[role], p_plus=p_hat[role])
        for role, s in expected.items()
    }


def _estimation_counts(
    config: SimConfig, trials: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(k, roles)`` arrays of DD frames and coincidences per slice.

    Slices of at most ``_CHUNK`` cell counts bound a long run's memory.
    """
    cell_p = _cell_probabilities(config)
    p_role = [
        physics.postselection_prob_series(
            lam,
            config.phys.eta_alice,
            config.phys.eta_bob,
            config.channel.eta_t,
            config.frame.p_d,
        )
        for _, lam, _p in config.intensities.roles()
    ]
    rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))
    per_slice = max(1, _CHUNK // cell_p.size)
    for start in range(0, trials, per_slice):
        k = min(per_slice, trials - start)
        frames = rng.multinomial(int(config.n_pulses), cell_p, size=k)
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
    it raises :class:`ChernoffInapplicableError` carrying the check.
    """
    if not (100 <= trials < math.inf) or trials != int(trials):
        raise DomainError(f"need a whole number of at least 100 trials, got {trials}")
    trials = int(trials)
    if method not in fluctuation.METHODS:
        raise DomainError(f"unknown method {method!r}")
    roles = config.intensities.roles()
    p_true = [config.analytic_postselection(role) for role, _lam, _p in roles]

    def covers(k: int, p_hat: float) -> bool:
        p_sel = roles[k][2]
        iv = fluctuation.interval(
            p_hat, p_sel, config.p_t, config.n_pulses, eps_pe, method
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
            covered += all(covers(k, p) for k, p in enumerate(p_hat))
    return covered / trials


def format_tally(tally: SessionTally) -> str:
    """Text dump: one ``lambda basis_pair frames coincidences`` line per cell."""
    lines = []
    for role, lam, _p in tally.config.intensities.roles():
        for pairing in PAIRINGS:
            cell = tally.cells[(role, pairing)]
            lines.append(f"{lam:.10g} {pairing} {cell.frames} {cell.coincidences}")
    return "\n".join(lines) + "\n"
