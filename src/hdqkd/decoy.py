"""Decoy-state parameter-estimation bounds.

Given fluctuation-adjusted postselection probabilities for the signal
and decoy intensities, these functions bound the vacuum yield, the
single-pair fraction of the postselected signal events and the
excess-noise factors; the single-pair yield follows from the fraction
bound.  One estimator serves single- and two-decoy operation: each bound
iterates the intensities of an :class:`IntensityConfig`, the one place
where the intensity ordering and the selection probabilities are
checked, and no bound depends on the number of decoys.  Lower bounds are
computed from the pessimistic ends of the intervals, upper bounds from
the optimistic ends, so every bound stays conservative as the intervals
widen.

Probability-like bounds clamp to [0, 1].  Excess-noise bounds clamp
below at 0 and are reported as "no key", both infinite, once either
exceeds ``EXCESS_NOISE_CAP``, since nothing useful can be certified
after the estimate diverges.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping

from . import fluctuation, physics
from .errors import DomainError
from .fluctuation import ChernoffApplicability
from .physics import ChannelPoint, FrameParams, PhysicalParams

__all__ = [
    "EXCESS_NOISE_CAP",
    "IntensityConfig",
    "IntensityStats",
    "VacuumYieldBounds",
    "DecoyBounds",
    "multiplier_forward",
    "expected_stats",
    "vacuum_yield_bounds",
    "single_pair_fraction_lower",
    "excess_noise_upper",
    "attach_fluctuation",
    "estimate_bounds",
]

#: Excess-noise bounds above this value are reported as "no key".
EXCESS_NOISE_CAP = 1e3

#: Largest intensity whose e^lam is a finite float.
_MAX_INTENSITY = math.log(sys.float_info.max)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class IntensityConfig:
    """Signal/decoy intensities and their selection probabilities.

    With two decoys (``v2`` set) the intensities must satisfy
    ``mu > v1 + v2`` and ``v1 > v2 >= 0``, and the weakest selection
    probability is implied as the remainder.  With one decoy (``v2 is
    None``) ``v1`` holds the lone decoy intensity, which must satisfy
    ``mu > v1 > 0``, and the two selection probabilities must sum to 1
    within 1e-9.  Both must also keep the estimators' denominator
    ``mu*v1 - mu*v2 - v1^2 + v2^2`` (``v2 = 0`` with one decoy) positive
    in floating point, which rejects infinite intensities.  A non-zero
    intensity must be a normal float: a subnormal one makes ``lam * p``
    underflow to 0 in the excess-noise bound.  ``mu`` must keep ``e^mu``
    finite, i.e. stay below ln(max float) = 709.78.
    """

    mu: float
    v1: float
    v2: float | None
    p_mu: float
    p_v1: float

    def __post_init__(self) -> None:
        for name in ("mu", "v1", "v2"):
            value = getattr(self, name)
            if value and abs(value) < sys.float_info.min:
                raise DomainError(
                    f"{name} must be 0 or >= {sys.float_info.min}, got {value!r}"
                )
        if self.mu <= 0.0:
            raise DomainError(f"mu must be > 0, got {self.mu}")
        if not 0.0 < self.p_mu < 1.0 or not 0.0 < self.p_v1 < 1.0:
            raise DomainError("selection probabilities must lie in (0, 1)")
        if self.v2 is not None:
            if not self.v1 > self.v2 >= 0.0:
                raise DomainError(
                    f"decoy intensities must satisfy v1 > v2 >= 0, "
                    f"got v1={self.v1}, v2={self.v2}"
                )
            if not self.mu > self.v1 + self.v2:
                raise DomainError(
                    f"signal intensity must satisfy mu > v1 + v2, "
                    f"got mu={self.mu}, v1={self.v1}, v2={self.v2}"
                )
            if self.p_v2 <= 0.0:
                raise DomainError(
                    "selection probabilities must leave a positive remainder "
                    f"for v2, got p_mu={self.p_mu}, p_v1={self.p_v1}"
                )
        else:
            if not self.mu > self.v1 > 0.0:
                raise DomainError(
                    f"single-decoy intensities must satisfy mu > v > 0, "
                    f"got mu={self.mu}, v={self.v1}"
                )
            if abs(self.p_mu + self.p_v1 - 1.0) > 1e-9:
                raise DomainError(
                    "selection probabilities must sum to 1, "
                    f"got {self.p_mu + self.p_v1}"
                )
        # An infinite mu makes den NaN (inf - inf, or inf * 0 with one decoy).
        v2 = self.v2 or 0.0
        den = self.mu * self.v1 - self.mu * v2 - self.v1 * self.v1 + v2 * v2
        if not (den > 0.0):
            raise DomainError(
                "intensities must be finite with mu*v1 - mu*v2 - v1^2 + v2^2 > 0, "
                f"got {den} (mu={self.mu}, v1={self.v1}, v2={self.v2})"
            )
        # mu is the largest intensity; the bounds evaluate e^mu.
        if self.mu > _MAX_INTENSITY:
            raise DomainError(
                f"mu must be <= ln(max float) = {_MAX_INTENSITY:.6g}, got {self.mu!r}"
            )

    @classmethod
    def two_decoy(
        cls, mu: float, v1: float, v2: float, p_mu: float, p_v1: float
    ) -> "IntensityConfig":
        return cls(mu=mu, v1=v1, v2=v2, p_mu=p_mu, p_v1=p_v1)

    @classmethod
    def single_decoy(
        cls, mu: float, v: float, p_mu: float, p_v: float
    ) -> "IntensityConfig":
        return cls(mu=mu, v1=v, v2=None, p_mu=p_mu, p_v1=p_v)

    @property
    def p_v2(self) -> float:
        if self.v2 is None:
            return 0.0
        return 1.0 - self.p_mu - self.p_v1

    def roles(self) -> tuple[tuple[str, float, float], ...]:
        """(role, intensity, selection probability) triples, signal first
        and strictly descending in intensity.  Every call returns the same
        shared tuple, built once per config."""
        return self._roles

    @cached_property
    def _roles(self) -> tuple[tuple[str, float, float], ...]:
        signal = ("mu", self.mu, self.p_mu)
        if self.v2 is None:
            return (signal, ("v", self.v1, self.p_v1))
        return (signal, ("v1", self.v1, self.p_v1), ("v2", self.v2, self.p_v2))


@dataclass(frozen=True)
class IntensityStats:
    """Measured statistics for one intensity.

    ``p_post`` is the measured postselection probability, ``p_minus`` /
    ``p_plus`` its fluctuation-adjusted bounds (clamped to [0, 1]), and
    ``phi_t`` / ``phi_w`` the measured average multipliers of the timing
    and frequency correlations.
    """

    p_post: float
    p_minus: float
    p_plus: float
    phi_t: float
    phi_w: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_minus <= self.p_post <= self.p_plus <= 1.0:
            raise DomainError(
                "stats must satisfy 0 <= p_minus <= p_post <= p_plus <= 1, got "
                f"[{self.p_minus}, {self.p_post}, {self.p_plus}]"
            )
        if self.phi_t < 0.0 or self.phi_w < 0.0:
            raise DomainError("average multipliers must be >= 0")


MeasuredStats = Mapping[str, IntensityStats]


@dataclass(frozen=True)
class VacuumYieldBounds:
    """Interval for the vacuum (zero-pair) yield.

    ``degenerate`` flags the pathological case where the computed lower
    bound exceeded the upper bound; the interval then collapses onto the
    upper bound.
    """

    lower: float
    upper: float
    degenerate: bool = False


@dataclass(frozen=True)
class DecoyBounds:
    """All decoy-state estimation outputs for one channel point."""

    gamma0_lb: float
    gamma0_ub: float
    gamma1_lb: float
    kmu_lb: float
    zeta_t_ub: float
    zeta_w_ub: float
    gamma0_degenerate: bool = False

    @property
    def no_key(self) -> bool:
        return (
            self.kmu_lb <= 0.0
            or not math.isfinite(self.zeta_t_ub)
            or not math.isfinite(self.zeta_w_ub)
        )


def multiplier_forward(k_lambda: float, zeta_x: float, delta_phi_x: float) -> float:
    """Forward model of the measured average multiplier.

    Postselected frames containing a genuine pair contribute the
    noise-scaled multiplier, the remainder a baseline offset:

        k_lambda * (1 + zeta_x) + (1 - k_lambda) * delta_phi_x
    """
    if not 0.0 <= k_lambda <= 1.0:
        raise DomainError(f"k_lambda must lie in [0, 1], got {k_lambda}")
    if zeta_x < 0.0:
        raise DomainError(f"zeta_x must be >= 0, got {zeta_x}")
    return k_lambda * (1.0 + zeta_x) + (1.0 - k_lambda) * delta_phi_x


def expected_stats(
    intensities: IntensityConfig,
    phys: PhysicalParams,
    frame: FrameParams,
    channel: ChannelPoint,
    delta_phi: float,
) -> dict[str, IntensityStats]:
    """Model expectation of the measured statistics at one channel point.

    Each intensity's postselection probability is the closed-form value
    (interval ends degenerate until a fluctuation method is attached);
    its average multipliers come from :func:`multiplier_forward` at the
    true single-pair fraction ``lam e^{-lam} gamma_1 / p_post`` with the
    frame's excess-noise factor ``frame.zeta`` in both correlation bases.
    """
    gamma1 = physics.pair_yield(
        1, phys.eta_alice, phys.eta_bob, channel.eta_t, frame.p_d
    )
    stats: dict[str, IntensityStats] = {}
    for role, lam, _p_sel in intensities.roles():
        p_post = physics.postselection_prob_closed(
            lam, phys.eta_alice, phys.eta_bob, channel.eta_t, frame.p_d
        )
        k_true = lam * math.exp(-lam) * gamma1 / p_post if p_post > 0.0 else 0.0
        phi = multiplier_forward(min(k_true, 1.0), frame.zeta, delta_phi)
        stats[role] = IntensityStats(
            p_post=p_post, p_minus=p_post, p_plus=p_post, phi_t=phi, phi_w=phi
        )
    return stats


def vacuum_yield_bounds(
    stats: MeasuredStats, intensities: IntensityConfig, p_d: float
) -> VacuumYieldBounds:
    """Bound the vacuum yield.

    The upper bound is ``p_d`` and the lower bound the dark-count-only
    value ``p_d**2``.  A pair of decoys raises the lower bound to their
    linear combination where that is larger; with one decoy the floor
    stands.
    """
    if not 0.0 <= p_d <= 1.0:
        raise DomainError(f"p_d must lie in [0, 1], got {p_d}")
    lower = p_d * p_d
    for (r1, v1, _p1), (r2, v2, _p2) in combinations(intensities.roles()[1:], 2):
        s1, s2 = stats[r1], stats[r2]
        combination = (
            v1 * s2.p_minus * math.exp(v2) - v2 * s1.p_plus * math.exp(v1)
        ) / (v1 - v2)
        lower = max(combination, p_d * p_d)
    lower, upper = _clamp01(lower), _clamp01(p_d)
    if lower > upper:
        return VacuumYieldBounds(lower=upper, upper=upper, degenerate=True)
    return VacuumYieldBounds(lower=lower, upper=upper)


def single_pair_fraction_lower(
    stats: MeasuredStats, intensities: IntensityConfig, gamma0: VacuumYieldBounds
) -> float:
    """Lower-bound the single-pair fraction of postselected signal events.

    Takes the best of two kinds of route: each pair of decoys combined
    (with the vacuum-yield lower bound), and each non-vacuum decoy alone,
    directly (with the vacuum-yield upper bound).  Two decoys give one
    pair and up to two direct routes; one decoy gives its direct route
    only.
    """
    (_r, mu, _p), *decoys = intensities.roles()
    p_mu_plus = stats["mu"].p_plus
    if p_mu_plus <= 0.0:
        return 0.0
    mu2 = mu * mu
    branches = [
        (mu2 / (mu * v1 - mu * v2 - v1 * v1 + v2 * v2))
        * (
            (stats[r1].p_minus / p_mu_plus) * math.exp(v1 - mu)
            - (stats[r2].p_plus / p_mu_plus) * math.exp(v2 - mu)
            - ((v1 * v1 - v2 * v2) / mu2)
            * (1.0 - gamma0.lower * math.exp(-mu) / p_mu_plus)
        )
        for (r1, v1, _p1), (r2, v2, _p2) in combinations(decoys, 2)
    ]
    for role, lam, _p in decoys:
        direct_den = mu * lam - lam * lam
        if direct_den <= 0.0:  # a vacuum decoy
            continue
        branches.append(
            (mu2 / direct_den)
            * (
                (stats[role].p_minus / p_mu_plus) * math.exp(lam - mu)
                - (lam * lam) / mu2
                - ((mu2 - lam * lam) / mu2)
                * gamma0.upper
                * math.exp(-mu)
                / p_mu_plus
            )
        )
    return _clamp01(max(branches))


def excess_noise_upper(
    stats: MeasuredStats,
    intensities: IntensityConfig,
    kmu_lb: float,
) -> tuple[float, float]:
    """Upper-bound both excess-noise factors.

    Minimizes, per correlation basis, over every pair of the configured
    intensities (the pairwise route differences the stronger and the
    weaker one) and over every single-intensity route (vacuum excluded
    from the latter), then subtracts the unit baseline.  "No key" is
    ``(inf, inf)``: a vanishing single-pair fraction or signal
    postselection certifies nothing, and neither does a basis whose bound
    exceeds ``EXCESS_NOISE_CAP``.
    """
    p_top = stats["mu"].p_plus
    if kmu_lb <= 0.0 or p_top <= 0.0:
        return math.inf, math.inf
    mu = intensities.mu
    # Each route's basis-free leading factor is computed once.  `c < best` skips
    # a NaN route (inf - inf from overflowing multipliers): it certifies nothing.
    best_t = best_w = math.inf
    # roles() is strictly descending in intensity, so lam1 > lam2 below.
    for (r1, lam1, _p1), (r2, lam2, _p2) in combinations(intensities.roles(), 2):
        a, b = stats[r1], stats[r2]
        lead = mu * math.exp(-mu) / ((lam1 - lam2) * kmu_lb)
        e1, e2 = math.exp(lam1), math.exp(lam2)
        c = lead * (a.phi_t * a.p_plus * e1 / p_top - b.phi_t * b.p_minus * e2 / p_top)
        if c < best_t:
            best_t = c
        c = lead * (a.phi_w * a.p_plus * e1 / p_top - b.phi_w * b.p_minus * e2 / p_top)
        if c < best_w:
            best_w = c
    for role, lam, _p in intensities.roles():
        if lam > 0.0:
            s = stats[role]
            lead = math.exp(lam - mu) * (mu * s.p_plus) / (lam * p_top)
            c = lead * s.phi_t / kmu_lb
            if c < best_t:
                best_t = c
            c = lead * s.phi_w / kmu_lb
            if c < best_w:
                best_w = c
    zeta_t, zeta_w = max(0.0, best_t - 1.0), max(0.0, best_w - 1.0)
    if max(zeta_t, zeta_w) > EXCESS_NOISE_CAP:
        return math.inf, math.inf
    return zeta_t, zeta_w


def attach_fluctuation(
    stats: MeasuredStats,
    intensities: IntensityConfig,
    p_t: float,
    n_pulses: float,
    eps_pe: float,
    method: str,
) -> tuple[dict[str, IntensityStats], dict[str, ChernoffApplicability]]:
    """Replace the interval ends of measured stats with method-derived ones.

    The centers and multipliers are preserved; only ``p_minus`` and
    ``p_plus`` are recomputed for the chosen concentration method, with
    the stated widths even where the multiplicative bound's preconditions
    fail.  Returns the adjusted stats and, by role, every failed
    precondition check; the caller decides what a failure means.
    """
    adjusted: dict[str, IntensityStats] = {}
    failed: dict[str, ChernoffApplicability] = {}
    for role, _lam, p_sel in intensities.roles():
        s = stats[role]
        iv = fluctuation.interval(s.p_post, p_sel, p_t, n_pulses, eps_pe, method)
        if iv.applicability is not None and not iv.applicability.ok:
            failed[role] = iv.applicability
        adjusted[role] = IntensityStats(
            p_post=s.p_post,
            p_minus=iv.p_minus,
            p_plus=iv.p_plus,
            phi_t=s.phi_t,
            phi_w=s.phi_w,
        )
    return adjusted, failed


def estimate_bounds(
    stats: MeasuredStats,
    intensities: IntensityConfig,
    p_d: float,
) -> DecoyBounds:
    """Run the full estimation chain for one channel point.

    Composes the vacuum-yield, single-pair-fraction and excess-noise
    bounds; no bound depends on the decoy mode.  The single-pair yield is
    the fraction bound times P_mu e^mu / mu (K = mu e^{-mu} gamma_1 / P_mu),
    which turns each route into a bound on gamma_1.  "No key" shows in the
    result as a zero fraction bound or infinite noise bounds, so sweep
    drivers can emit an explicit no-key row.
    """
    g0 = vacuum_yield_bounds(stats, intensities, p_d)
    kmu_lb = single_pair_fraction_lower(stats, intensities, g0)
    zeta_t_ub, zeta_w_ub = excess_noise_upper(stats, intensities, kmu_lb)
    mu = intensities.mu
    return DecoyBounds(
        gamma0_lb=g0.lower,
        gamma0_ub=g0.upper,
        gamma1_lb=_clamp01(kmu_lb * stats["mu"].p_plus * math.exp(mu) / mu),
        kmu_lb=kmu_lb,
        zeta_t_ub=zeta_t_ub,
        zeta_w_ub=zeta_w_ub,
        gamma0_degenerate=g0.degenerate,
    )
