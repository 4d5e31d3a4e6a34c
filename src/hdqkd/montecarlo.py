"""Frame-level Monte Carlo oracle of the protocol.

Samples, frame by frame, the intensity choice, the Poisson pair number,
both parties' basis choices and their detections (photons or dark
counts), and tallies coincidences per intensity and basis pairing.  The
empirical postselection probabilities validate the analytic model, and
repeated sessions validate the coverage of the fluctuation intervals.

Sessions are reproducible: the 64-bit seed fully determines the tally,
and per-trial seeds are derived as ``seed XOR trial_index`` so trials
can run in any order or in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import fluctuation, physics
from .decoy import IntensityConfig, IntensityStats, expected_stats
from .errors import ConfigError, DomainError, EstimationImpossibleError
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
        if self.n_pulses < 1 or math.isinf(self.n_pulses):
            raise DomainError(
                f"simulation needs a finite n_pulses >= 1, got {self.n_pulses}"
            )
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


def simulate_session(config: SimConfig) -> SessionTally:
    """Run one protocol session frame by frame.

    Per frame: the intensity is drawn by its selection probability, the
    pair number from a Poisson distribution at that intensity, both
    parties' bases independently (key basis with probability ``p_t``),
    and each party detects independently given the pair number, with the
    per-frame dark-count probability filling in for lost photons.  A
    coincidence is both parties detecting.  Identical configs (seed
    included) produce identical tallies.
    """
    roles = config.intensities.roles()
    lams = np.array([lam for _, lam, _ in roles])
    cum = np.cumsum([p for _, _, p in roles])
    cum[-1] = 1.0  # guard against float round-off in the last bin
    p_d = config.frame.p_d
    # Detection probabilities depend only on the (small) pair number;
    # tabulating them avoids a per-frame power evaluation.  The table is
    # long enough that Poisson draws above it have probability ~0 at any
    # sane intensity, and the last entry is exact in that regime anyway.
    lut_n = 64
    grid = np.arange(lut_n)
    lut_alice = 1.0 - (1.0 - config.phys.eta_alice) ** grid * (1.0 - p_d)
    lut_bob = (
        1.0
        - (1.0 - config.phys.eta_bob * config.channel.eta_t) ** grid * (1.0 - p_d)
    )
    rng = np.random.Generator(np.random.Philox(key=config.seed & _SEED_MASK))

    n_cells = len(roles) * len(PAIRINGS)
    frames = np.zeros(n_cells, dtype=np.int64)
    coinc = np.zeros(n_cells, dtype=np.int64)
    remaining = int(config.n_pulses)
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        which = np.searchsorted(cum, rng.random(n), side="right")
        pairs = np.minimum(rng.poisson(lams[which]), lut_n - 1)
        alice_t = rng.random(n) < config.p_t
        bob_t = rng.random(n) < config.p_t
        hit = (rng.random(n) < np.take(lut_alice, pairs)) & (
            rng.random(n) < np.take(lut_bob, pairs)
        )
        pairing = np.where(alice_t & bob_t, 0, np.where(~alice_t & ~bob_t, 1, 2))
        cell = which * len(PAIRINGS) + pairing
        frames += np.bincount(cell, minlength=n_cells)
        coinc += np.bincount(cell[hit], minlength=n_cells)

    cells = {}
    for i, (role, _lam, _p) in enumerate(roles):
        for j, pairing_name in enumerate(PAIRINGS):
            k = i * len(PAIRINGS) + j
            cells[(role, pairing_name)] = CellCount(
                frames=int(frames[k]), coincidences=int(coinc[k])
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


def _trial_covered(
    config: SimConfig, eps_pe: float, method: str, trial: int
) -> bool:
    """Whether one reseeded session's intervals all cover the analytic values."""
    tally = simulate_session(replace(config, seed=config.seed ^ trial))
    for role, _lam, p_sel in config.intensities.roles():
        iv = fluctuation.interval(
            tally.empirical_p(role),
            p_sel,
            config.p_t,
            config.n_pulses,
            eps_pe,
            method,
        )
        if not iv.p_minus <= config.analytic_postselection(role) <= iv.p_plus:
            return False
    return True


def _coverage_chunk(args: tuple[SimConfig, float, str, int, int]) -> int:
    config, eps_pe, method, start, stop = args
    return sum(
        _trial_covered(config, eps_pe, method, trial) for trial in range(start, stop)
    )


def coverage_experiment(
    config: SimConfig,
    eps_pe: float,
    method: str,
    trials: int,
    *,
    parallel: int = 1,
) -> float:
    """Empirical coverage of the fluctuation intervals.

    Runs independent sessions (trial ``i`` reseeded as ``seed XOR i``),
    builds the interval of the chosen method around each empirical
    postselection probability, and returns the fraction of sessions in
    which every intensity's interval contains the analytic value.  The
    exact method models the infinite-sample limit, where the measured
    value is the analytic one, so its interval always covers.  Trials
    are independent and may run across ``parallel`` worker processes;
    the per-trial seed derivation keeps the result identical either way.
    """
    if trials < 100:
        raise DomainError(f"need at least 100 trials, got {trials}")
    if method == "exact":
        return 1.0
    if parallel <= 1:
        covered = _coverage_chunk((config, eps_pe, method, 0, trials))
        return covered / trials
    from concurrent.futures import ProcessPoolExecutor

    bounds = [
        (trials * k // parallel, trials * (k + 1) // parallel)
        for k in range(parallel)
    ]
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        counts = pool.map(
            _coverage_chunk,
            [(config, eps_pe, method, start, stop) for start, stop in bounds],
        )
        return sum(counts) / trials


def format_tally(tally: SessionTally) -> str:
    """Text dump: one ``lambda basis_pair frames coincidences`` line per cell."""
    lines = []
    for role, lam, _p in tally.config.intensities.roles():
        for pairing in PAIRINGS:
            cell = tally.cells[(role, pairing)]
            lines.append(f"{lam:.10g} {pairing} {cell.frames} {cell.coincidences}")
    return "\n".join(lines) + "\n"
