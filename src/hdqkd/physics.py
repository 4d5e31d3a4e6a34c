"""Detection statistics of an entangled-pair source behind a lossy channel.

Everything here is an analytic property of the physical model: Poisson
pair emission, per-frame dark counts, the coincidence yield conditioned
on the emitted pair number, and the resulting postselection probability
at a given source intensity.  All functions are pure and safe to call
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ComputationError, DomainError

__all__ = [
    "GAUSSIAN_FWHM_FACTOR",
    "PhysicalParams",
    "FrameParams",
    "ChannelPoint",
    "transmittance",
    "poisson_pmf",
    "pair_yield",
    "postselection_prob_closed",
    "postselection_prob_series",
    "excess_noise_from_time_shift",
]

#: Ratio between a Gaussian's full width at half maximum and its standard
#: deviation; the measurement frame is one FWHM of the coherence envelope.
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: Truncation bound for the postselection-probability series: the
#: summation stops once the remaining Poisson tail mass falls below this.
DEFAULT_SERIES_TOL = 1e-15

#: Hard limit on the number of series terms before giving up.
MAX_SERIES_TERMS = 100_000


def transmittance(alpha: float, length_km: float) -> float:
    """Transmittance of ``length_km`` km of fiber with ``alpha`` dB/km loss.

    Returns ``10**(-alpha * length_km / 10)``, in ``(0, 1]``.
    """
    if not alpha >= 0.0:
        raise DomainError(f"fiber loss must be >= 0 dB/km, got {alpha}")
    if not length_km >= 0.0:
        raise DomainError(f"channel length must be >= 0 km, got {length_km}")
    return 10.0 ** (-alpha * length_km / 10.0)


def poisson_pmf(n: int, mean_pairs: float) -> float:
    """Probability of emitting exactly ``n`` photon pairs in one frame.

    The pair number of the down-conversion source is Poisson distributed
    with mean ``mean_pairs``.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"pair number must be a non-negative integer, got {n}")
    if mean_pairs < 0.0:
        raise DomainError(f"mean pair number must be >= 0, got {mean_pairs}")
    if mean_pairs == 0.0:
        return 1.0 if n == 0 else 0.0
    # exp(n ln lambda - lambda - ln n!) avoids overflow for large n.
    return math.exp(n * math.log(mean_pairs) - mean_pairs - math.lgamma(n + 1))


def _check_unit_interval(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {value}")


def pair_yield(
    n: int, eta_alice: float, eta_bob: float, eta_t: float, p_d: float
) -> float:
    """Coincidence probability given ``n`` photon pairs in the frame.

    Both sides must register at least one detection, from a photon or a
    dark count:

        [1 - (1-eta_alice)^n (1-p_d)] * [1 - (1-eta_bob*eta_t)^n (1-p_d)]

    Alice keeps her photon, so only Bob's arm sees the channel
    transmittance ``eta_t``.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"pair number must be a non-negative integer, got {n}")
    if not (0.0 <= eta_alice <= 1.0 and 0.0 <= eta_bob <= 1.0) or not (
        0.0 <= eta_t <= 1.0 and 0.0 <= p_d <= 1.0
    ):
        _check_unit_interval(eta_alice=eta_alice, eta_bob=eta_bob, eta_t=eta_t, p_d=p_d)
    miss = 1.0 - p_d
    p_alice = 1.0 - (1.0 - eta_alice) ** n * miss
    p_bob = 1.0 - (1.0 - eta_bob * eta_t) ** n * miss
    return p_alice * p_bob


def postselection_prob_closed(
    intensity: float,
    eta_alice: float,
    eta_bob: float,
    eta_t: float,
    p_d: float,
) -> float:
    """Probability that a frame at the given intensity is postselected.

    Closed form of the Poisson mixture of per-pair-number yields, using
    the generating function of the Poisson distribution:

        1 - (1-p_d) e^{-lam*a} - (1-p_d) e^{-lam*b}
          + (1-p_d)^2 e^{-lam*(a + b - a*b)}

    with ``a = eta_alice`` and ``b = eta_bob*eta_t``.  This is the default
    evaluation path; the series form exists as an independent cross-check.
    """
    if intensity < 0.0:
        raise DomainError(f"intensity must be >= 0, got {intensity}")
    if not (0.0 <= eta_alice <= 1.0 and 0.0 <= eta_bob <= 1.0) or not (
        0.0 <= eta_t <= 1.0 and 0.0 <= p_d <= 1.0
    ):
        _check_unit_interval(eta_alice=eta_alice, eta_bob=eta_bob, eta_t=eta_t, p_d=p_d)
    a = eta_alice
    b = eta_bob * eta_t
    miss = 1.0 - p_d
    return (
        1.0
        - miss * math.exp(-intensity * a)
        - miss * math.exp(-intensity * b)
        + miss * miss * math.exp(-intensity * (a + b - a * b))
    )


def postselection_prob_series(
    intensity: float,
    eta_alice: float,
    eta_bob: float,
    eta_t: float,
    p_d: float,
) -> float:
    """Series evaluation of the postselection probability.

    Sums ``Pr[n pairs] * yield(n)`` over the pair number and truncates
    once the remaining Poisson tail mass drops below
    ``DEFAULT_SERIES_TOL``; since every yield is <= 1, the tail mass
    bounds the truncation error.  Raises :class:`ComputationError` after
    ``MAX_SERIES_TERMS`` terms.
    """
    if intensity < 0.0:
        raise DomainError(f"intensity must be >= 0, got {intensity}")
    _check_unit_interval(eta_alice=eta_alice, eta_bob=eta_bob, eta_t=eta_t, p_d=p_d)
    total = 0.0
    pmf = math.exp(-intensity)  # Pr[0 pairs]
    cumulative = 0.0
    for n in range(MAX_SERIES_TERMS):
        total += pmf * pair_yield(n, eta_alice, eta_bob, eta_t, p_d)
        cumulative += pmf
        if 1.0 - cumulative < DEFAULT_SERIES_TOL:
            return total
        pmf *= intensity / (n + 1)
    raise ComputationError(
        f"postselection series did not converge within {MAX_SERIES_TERMS} terms "
        f"(intensity={intensity})"
    )


def excess_noise_from_time_shift(delta_delta: float, delta_cor: float) -> float:
    """Excess-noise factor implied by a correlation-time change.

    An eavesdropper broadening the correlation time from ``delta_cor`` to
    ``sqrt(1+zeta) * delta_cor`` shifts it by ``delta_delta``; inverting
    that relation gives ``zeta = (1 + delta_delta/delta_cor)^2 - 1``.
    """
    if delta_cor <= 0.0:
        raise DomainError(f"correlation time must be > 0, got {delta_cor}")
    if delta_delta < 0.0:
        raise DomainError(f"correlation-time change must be >= 0, got {delta_delta}")
    ratio = 1.0 + delta_delta / delta_cor
    return ratio * ratio - 1.0


@dataclass(frozen=True)
class PhysicalParams:
    """Source, detector and channel constants.

    Defaults match a fiber system with superconducting detectors: 0.2
    dB/km propagation loss, 93% detector efficiencies, a 1 kHz dark-count
    rate, 20 ps timing jitter and a 30 ps coherence time.  ``delta_j`` is
    carried for configuration fidelity but enters no formula here.
    """

    alpha: float = 0.2  # fiber loss, dB/km
    eta_alice: float = 0.93  # Alice's detector efficiency
    eta_bob: float = 0.93  # Bob's detector efficiency
    r_dc: float = 1000.0  # dark-count rate, counts/s
    delta_j: float = 20e-12  # detector timing jitter, s (inert)
    delta_coh: float = 30e-12  # coherence time, s
    schmidt_d: int = 8  # Schmidt number / alphabet dimensionality
    delta_delta: float = 10e-12  # eavesdropper-induced correlation-time change, s

    def __post_init__(self) -> None:
        if not self.alpha >= 0.0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        _check_unit_interval(eta_alice=self.eta_alice, eta_bob=self.eta_bob)
        if not self.r_dc >= 0.0:
            raise DomainError(f"r_dc must be >= 0, got {self.r_dc}")
        if not 0.0 < self.delta_coh < math.inf:
            raise DomainError(
                f"delta_coh must be finite and > 0, got {self.delta_coh}"
            )
        if not 2 <= self.schmidt_d < math.inf or int(self.schmidt_d) != self.schmidt_d:
            raise DomainError(f"schmidt_d must be an integer >= 2, got {self.schmidt_d}")
        if not self.delta_delta >= 0.0:
            raise DomainError(f"delta_delta must be >= 0, got {self.delta_delta}")
        if not self.delta_j >= 0.0:
            raise DomainError(f"delta_j must be >= 0, got {self.delta_j}")


@dataclass(frozen=True)
class FrameParams:
    """Per-frame quantities derived from the physical constants.

    ``t_f`` is one FWHM of the coherence envelope, ``delta_cor`` the
    correlation time ``schmidt_d * delta_coh``, ``p_d`` the dark-count
    probability within one frame and ``zeta`` the true excess-noise
    factor implied by the configured correlation-time change.
    """

    t_f: float
    delta_cor: float
    p_d: float
    zeta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t_f < math.inf:
            raise DomainError(f"t_f must be finite and > 0, got {self.t_f}")
        if not 0.0 < self.delta_cor < math.inf:
            raise DomainError(f"delta_cor must be finite and > 0, got {self.delta_cor}")
        _check_unit_interval(p_d=self.p_d)
        if not self.zeta >= 0.0:
            raise DomainError(f"zeta must be >= 0, got {self.zeta}")

    @classmethod
    def from_physical(cls, phys: PhysicalParams) -> "FrameParams":
        t_f = GAUSSIAN_FWHM_FACTOR * phys.delta_coh
        delta_cor = phys.schmidt_d * phys.delta_coh
        p_d = min(1.0, phys.r_dc * t_f)
        zeta = excess_noise_from_time_shift(phys.delta_delta, delta_cor)
        return cls(t_f=t_f, delta_cor=delta_cor, p_d=p_d, zeta=zeta)


@dataclass(frozen=True)
class ChannelPoint:
    """A single evaluation point along the fiber."""

    length_km: float
    eta_t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.length_km < math.inf:
            raise DomainError(
                f"length_km must be finite and >= 0, got {self.length_km}"
            )
        if not 0.0 < self.eta_t <= 1.0:
            raise DomainError(f"eta_t must lie in (0, 1], got {self.eta_t}")

    @classmethod
    def from_length(cls, alpha: float, length_km: float) -> "ChannelPoint":
        return cls(length_km=length_km, eta_t=transmittance(alpha, length_km))
