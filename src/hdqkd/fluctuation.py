"""Failure-probability budget and finite-sample fluctuation intervals.

Two concentration methods turn a measured postselection probability into
a confidence interval: a distribution-free (Hoeffding-type) bound with a
symmetric width, and a multiplicative (Chernoff-type) bound whose widths
scale with the measured probability and which therefore wins when that
probability is small.  These are the two ``METHODS``; at infinitely
many pulses both give the degenerate interval labelled ``exact``.  Each
intensity's interval spends the whole ``eps_pe``, so parameter estimation
can fail with probability up to ``|roles| * eps_pe`` and
:attr:`EpsilonBudget.total` undercounts the protocol's failure budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, EstimationImpossibleError

__all__ = [
    "EpsilonBudget",
    "FluctuationInterval",
    "ChernoffApplicability",
    "METHODS",
    "frames_for_estimation",
    "hoeffding_delta",
    "chernoff_deltas",
    "chernoff_applicable",
    "interval",
]

METHODS = ("hoeffding", "chernoff")

# First applicability condition: (2/eps_c)^(1/alpha_l) <= e^((3/(4*sqrt(2)))^2).
_FIRST_CONDITION_EXPONENT = (3.0 / (4.0 * math.sqrt(2.0))) ** 2  # 9/32
# Second applicability condition: (1/eps_hat)^(1/alpha_l) < e^(1/3).
_SECOND_CONDITION_EXPONENT = 1.0 / 3.0


@dataclass(frozen=True)
class EpsilonBudget:
    """Additive failure-probability budget of the protocol.

    ``eps_pe`` covers parameter estimation, ``eps_ec`` error correction,
    ``eps_bar`` the smoothing of the min-entropy and ``eps_pa`` privacy
    amplification.  Each component must lie in (0, 1) and the sum below 1.
    ``total`` counts ``eps_pe`` once, yet every intensity's interval
    spends all of it: by the union bound the protocol can fail with
    probability up to ``total + (|roles| - 1) * eps_pe``, which is 6e-10
    against the stated 4e-10 on two-decoy presets (ROADMAP item 11, a
    failure budget that adds up).
    """

    eps_pe: float = 1e-10
    eps_ec: float = 1e-10
    eps_bar: float = 1e-10
    eps_pa: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("eps_pe", "eps_ec", "eps_bar", "eps_pa"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {value}")
        if self.total >= 1.0:
            raise DomainError(
                f"total failure probability must be < 1, got {self.total}"
            )

    @property
    def total(self) -> float:
        return self.eps_pe + self.eps_ec + self.eps_bar + self.eps_pa


@dataclass(frozen=True)
class FluctuationInterval:
    """Confidence interval around a measured postselection probability.

    ``method`` is one of ``METHODS``, or ``exact`` for the degenerate
    interval of the infinite-pulse limit.  ``applicability`` is the
    multiplicative bound's precondition check for a finite-sample
    ``chernoff`` interval, and ``None`` otherwise.
    """

    p_center: float
    p_minus: float
    p_plus: float
    method: str
    n_frames: float
    applicability: ChernoffApplicability | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS and self.method != "exact":
            raise DomainError(f"unknown method {self.method!r}")
        if not 0.0 <= self.p_minus <= self.p_center <= self.p_plus <= 1.0:
            raise DomainError(
                "interval must satisfy 0 <= p_minus <= p_center <= p_plus <= 1, "
                f"got [{self.p_minus}, {self.p_center}, {self.p_plus}]"
            )
        if self.method == "exact" and self.p_minus != self.p_plus:
            raise DomainError("exact intervals must be degenerate")


@dataclass(frozen=True)
class ChernoffApplicability:
    """Outcome of the multiplicative bound's precondition check.

    ``margin_first`` and ``margin_second`` are the slack of the two
    conditions (non-negative means satisfied).
    """

    ok: bool
    alpha_l: float
    margin_first: float
    margin_second: float
    reason: str | None = None


def frames_for_estimation(p_lambda: float, p_t: float, n_pulses: float) -> float:
    """Expected frame count available for estimating one intensity.

    Only frames where the intensity was selected and both parties chose
    the estimation basis contribute: ``p_lambda * (1 - p_t)^2 * n_pulses``.
    The infinite-pulse sentinel propagates.
    """
    if not 0.0 <= p_lambda <= 1.0:
        raise DomainError(f"p_lambda must lie in [0, 1], got {p_lambda}")
    if not 0.0 <= p_t <= 1.0:
        raise DomainError(f"p_t must lie in [0, 1], got {p_t}")
    if not n_pulses >= 0:
        raise DomainError(f"n_pulses must be >= 0, got {n_pulses}")
    if math.isinf(n_pulses):
        return math.inf if p_lambda > 0.0 and p_t < 1.0 else 0.0
    return p_lambda * (1.0 - p_t) ** 2 * n_pulses


def _check_eps_pe(eps_pe: float) -> None:
    if not 0.0 < eps_pe < 1.0:
        raise DomainError(f"eps_pe must lie in (0, 1), got {eps_pe}")


def hoeffding_delta(n_frames: float, eps_pe: float) -> float:
    """Symmetric interval half-width of the distribution-free bound.

    Splitting the estimation budget evenly between the two sides gives
    ``sqrt(ln(2/eps_pe) / (2 * n_frames))`` for each.
    """
    _check_eps_pe(eps_pe)
    if n_frames <= 0:
        raise EstimationImpossibleError("estimation impossible: no frames available")
    if math.isinf(n_frames):
        return 0.0
    return math.sqrt(math.log(2.0 / eps_pe) / (2.0 * n_frames))


def chernoff_deltas(
    p_center: float, n_frames: float, eps_pe: float
) -> tuple[float, float]:
    """Upper and lower widths of the multiplicative bound.

    The estimation budget is split in thirds (one third guards the
    observed-count floor used by the applicability check):

        delta_plus  = sqrt(2 p / N * ln(16 / (eps_pe/3)^4))
        delta_minus = sqrt(2 p / N * ln(1 / (eps_pe/3)^(3/2)))

    Both scale with ``sqrt(p_center)``; the upper width always exceeds
    the lower one.
    """
    _check_eps_pe(eps_pe)
    if not 0.0 <= p_center <= 1.0:
        raise DomainError(f"p_center must lie in [0, 1], got {p_center}")
    if n_frames <= 0:
        raise EstimationImpossibleError("estimation impossible: no frames available")
    if math.isinf(n_frames) or p_center == 0.0:
        return (0.0, 0.0)
    eps = eps_pe / 3.0
    if eps**4 == 0.0:
        raise DomainError(
            f"eps_pe = {eps_pe!r} is too small for the multiplicative bound: "
            "(eps_pe/3)^4 underflows to 0"
        )
    scale = 2.0 * p_center / n_frames
    delta_plus = math.sqrt(scale * (math.log(16.0) - 4.0 * math.log(eps)))
    delta_minus = math.sqrt(scale * 1.5 * math.log(1.0 / eps))
    return (delta_plus, delta_minus)


def chernoff_applicable(
    beta_observed: float, n_frames: float, eps_pe: float
) -> ChernoffApplicability:
    """Check the preconditions of the multiplicative bound.

    With the budget split in thirds, a lower confidence bound on the
    observed count is ``alpha_l = beta - sqrt(N/2 * ln(3/eps_pe))``; the
    bound applies when

        ln(6/eps_pe) / alpha_l <= (3/(4*sqrt(2)))^2   and
        ln(3/eps_pe) / alpha_l <  1/3.

    Returns the verdict together with ``alpha_l`` and the slack of each
    condition.
    """
    _check_eps_pe(eps_pe)
    if n_frames <= 0:
        return ChernoffApplicability(
            ok=False,
            alpha_l=-math.inf,
            margin_first=-math.inf,
            margin_second=-math.inf,
            reason="no frames available",
        )
    eps = eps_pe / 3.0
    if math.isinf(n_frames):
        return ChernoffApplicability(
            ok=True,
            alpha_l=math.inf,
            margin_first=_FIRST_CONDITION_EXPONENT,
            margin_second=_SECOND_CONDITION_EXPONENT,
        )
    alpha_l = beta_observed - math.sqrt(n_frames / 2.0 * math.log(1.0 / eps))
    if alpha_l <= 0.0:
        return ChernoffApplicability(
            ok=False,
            alpha_l=alpha_l,
            margin_first=-math.inf,
            margin_second=-math.inf,
            reason="sample too small",
        )
    margin_first = _FIRST_CONDITION_EXPONENT - math.log(2.0 / eps) / alpha_l
    margin_second = _SECOND_CONDITION_EXPONENT - math.log(1.0 / eps) / alpha_l
    ok = margin_first >= 0.0 and margin_second > 0.0
    return ChernoffApplicability(
        ok=ok,
        alpha_l=alpha_l,
        margin_first=margin_first,
        margin_second=margin_second,
        reason=None if ok else "condition exponents too large",
    )


def interval(
    p_center: float,
    p_lambda: float,
    p_t: float,
    n_pulses: float,
    eps_pe: float,
    method: str,
) -> FluctuationInterval:
    """Build the fluctuation interval for one intensity.

    Takes the widths of the chosen method (one of ``METHODS``) from
    :func:`hoeffding_delta` or :func:`chernoff_deltas`, at the estimation
    frame count derived from the selection and basis probabilities.  The
    infinite-pulse sentinel yields the degenerate interval labelled
    ``exact`` whatever the method.  A ``chernoff`` interval always
    carries the multiplicative bound's precondition check on
    ``applicability`` and keeps the stated widths when the check fails;
    each caller decides what a failed check means.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")
    if not 0.0 <= p_center <= 1.0:
        raise DomainError(f"p_center must lie in [0, 1], got {p_center}")
    n_frames = frames_for_estimation(p_lambda, p_t, n_pulses)
    if math.isinf(n_frames):
        return FluctuationInterval(
            p_center=p_center,
            p_minus=p_center,
            p_plus=p_center,
            method="exact",
            n_frames=n_frames,
        )
    if n_frames <= 0:
        raise EstimationImpossibleError(
            "estimation impossible: no estimation frames "
            f"(p_lambda={p_lambda}, p_t={p_t}, n_pulses={n_pulses})"
        )
    check = None
    if method == "hoeffding":
        delta_plus = delta_minus = hoeffding_delta(n_frames, eps_pe)
    else:
        check = chernoff_applicable(p_center * n_frames, n_frames, eps_pe)
        delta_plus, delta_minus = chernoff_deltas(p_center, n_frames, eps_pe)
    return FluctuationInterval(
        p_center=p_center,
        p_minus=max(0.0, p_center - delta_minus),
        p_plus=min(1.0, p_center + delta_plus),
        method=method,
        n_frames=n_frames,
        applicability=check,
    )
