"""Finite-key secure-key capacities for decoy-state high-dimensional QKD.

The package is organized bottom-up: :mod:`hdqkd.physics` holds the
analytic detection model, :mod:`hdqkd.fluctuation` the failure budget
and concentration intervals, :mod:`hdqkd.decoy` the decoy-state
parameter-estimation bounds, :mod:`hdqkd.security` the pluggable
security models, :mod:`hdqkd.keyrate` the capacity assembly,
:mod:`hdqkd.montecarlo` the frame-level simulation oracle, and
:mod:`hdqkd.scenario`/:mod:`hdqkd.sweep`/:mod:`hdqkd.cli` the
configuration, sweep and command-line layers.
"""

from .decoy import (
    DecoyBounds,
    IntensityConfig,
    IntensityStats,
    estimate_bounds,
    multiplier_forward,
)
from .errors import (
    ChernoffInapplicableError,
    ComputationError,
    ConfigError,
    DomainError,
    EstimationImpossibleError,
    HdqkdError,
    SecurityModelError,
)
from .fluctuation import EpsilonBudget, FluctuationInterval, interval
from .keyrate import KeyRateResult, finite_key_terms, r_hd, secure_key_capacity
from .physics import (
    ChannelPoint,
    FrameParams,
    PhysicalParams,
    pair_yield,
    poisson_pmf,
    postselection_prob_closed,
    postselection_prob_series,
    transmittance,
)
from .scenario import PRESETS, Scenario, parse_config
from .security import (
    GaussianSecurityModel,
    SecurityQuantities,
    TableSecurityModel,
    load_pinned_table,
)
from .sweep import ResultRow, emit_csv, max_distance, run_point, sweep_distance

__version__ = "0.1.0"

# The Monte Carlo oracle needs numpy; it loads on first use, so the
# analytic chain and the CLI start without it.
_MONTECARLO_NAMES = frozenset(
    {"SimConfig", "SessionTally", "coverage_experiment", "simulate_session"}
)


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ChannelPoint",
    "ChernoffInapplicableError",
    "ComputationError",
    "ConfigError",
    "coverage_experiment",
    "DecoyBounds",
    "DomainError",
    "EpsilonBudget",
    "EstimationImpossibleError",
    "FluctuationInterval",
    "FrameParams",
    "GaussianSecurityModel",
    "HdqkdError",
    "IntensityConfig",
    "IntensityStats",
    "KeyRateResult",
    "PRESETS",
    "PhysicalParams",
    "ResultRow",
    "Scenario",
    "SecurityModelError",
    "SecurityQuantities",
    "SessionTally",
    "SimConfig",
    "TableSecurityModel",
    "emit_csv",
    "estimate_bounds",
    "finite_key_terms",
    "interval",
    "load_pinned_table",
    "max_distance",
    "multiplier_forward",
    "pair_yield",
    "parse_config",
    "poisson_pmf",
    "postselection_prob_closed",
    "postselection_prob_series",
    "r_hd",
    "run_point",
    "secure_key_capacity",
    "simulate_session",
    "sweep_distance",
    "transmittance",
]
