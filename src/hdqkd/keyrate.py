"""Secure-key capacity assembly.

Combines the reconciled mutual information, the leakage of shared
randomness through multi-pair events, the eavesdropper's Holevo bound
and the three finite-key penalties into the secure-key capacity in bits
per coincidence.  Negative capacities are reported, not clipped: the
abort decision belongs to the protocol layer, not the arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ComputationError, DomainError
from .fluctuation import EpsilonBudget
from .security import SecurityQuantities

__all__ = [
    "RateTerms",
    "KeyRateResult",
    "r_hd",
    "finite_key_terms",
    "secure_key_capacity",
]


@dataclass(frozen=True)
class RateTerms:
    """Per-term breakdown of the capacity.

    ``beta_iab - leak_ir - holevo`` is the rate before finite-key
    penalties; ``ec_term``, ``pa_term`` and ``smooth_term`` are the
    error-correction, privacy-amplification and smoothing costs.
    """

    beta_iab: float
    leak_ir: float
    holevo: float
    ec_term: float
    pa_term: float
    smooth_term: float


@dataclass(frozen=True)
class KeyRateResult:
    """Secure-key capacity with its breakdown."""

    r_hd: float
    delta_i: float
    terms: RateTerms
    positive: bool


def r_hd(beta: float, sq: SecurityQuantities, kmu: float) -> float:
    """Rate in bits per coincidence before finite-key penalties.

    Reconciliation recovers ``beta * i_ab``; the fraction of postselected
    events not attributable to single pairs forfeits the shared random
    bits, and the single-pair fraction pays the Holevo bound:

        beta * i_ab - (1 - kmu) * i_r - kmu * phi_ub
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if not 0.0 <= kmu <= 1.0:
        raise DomainError(f"kmu must lie in [0, 1], got {kmu}")
    return beta * sq.i_ab - (1.0 - kmu) * sq.i_r - kmu * sq.phi_ub


def finite_key_terms(
    p_mu: float,
    p_t: float,
    n_pulses: float,
    schmidt_d: int,
    budget: EpsilonBudget,
) -> tuple[float, float, float]:
    """The three finite-size penalties (error correction, privacy
    amplification, smoothing), each in bits per coincidence.

    All scale with the inverse of the key-frame count
    ``p_mu * p_t^2 * n_pulses`` (signal intensity, both parties in the
    key basis); the smoothing term additionally carries the dimension
    factor ``2 d + 3`` and a square-root scaling.  The infinite-pulse
    sentinel zeroes all three.
    """
    if not 0.0 < p_mu <= 1.0:
        raise DomainError(f"p_mu must lie in (0, 1], got {p_mu}")
    if not 0.0 < p_t <= 1.0:
        raise DomainError(f"p_t must lie in (0, 1], got {p_t}")
    if not n_pulses >= 0:
        raise DomainError(f"n_pulses must be >= 0, got {n_pulses}")
    if math.isinf(n_pulses):
        return (0.0, 0.0, 0.0)
    key_frames = p_mu * p_t * p_t * n_pulses
    if key_frames <= 0.0:
        raise ComputationError("no key frames: p_mu * p_t^2 * n_pulses is 0")
    ec = math.log2(2.0 / budget.eps_ec) / key_frames
    pa = 2.0 * math.log2(1.0 / budget.eps_pa) / key_frames
    smooth = (2.0 * schmidt_d + 3.0) * math.sqrt(
        math.log2(2.0 / budget.eps_bar) / key_frames
    )
    return (ec, pa, smooth)


def secure_key_capacity(
    beta: float,
    sq: SecurityQuantities,
    kmu_lb: float,
    p_mu: float,
    p_t: float,
    n_pulses: float,
    schmidt_d: int,
    budget: EpsilonBudget,
) -> KeyRateResult:
    """Finite-size secure-key capacity with its per-term breakdown.

    The security quantities are expected to be evaluated at the
    worst-case (upper-bounded) excess noise, and ``kmu_lb`` is the
    estimated lower bound on the single-pair fraction.
    """
    rate = r_hd(beta, sq, kmu_lb)
    ec, pa, smooth = finite_key_terms(p_mu, p_t, n_pulses, schmidt_d, budget)
    delta_i = rate - ec - pa - smooth
    terms = RateTerms(
        beta_iab=beta * sq.i_ab,
        leak_ir=(1.0 - kmu_lb) * sq.i_r,
        holevo=kmu_lb * sq.phi_ub,
        ec_term=ec,
        pa_term=pa,
        smooth_term=smooth,
    )
    return KeyRateResult(
        r_hd=rate, delta_i=delta_i, terms=terms, positive=delta_i > 0.0
    )
