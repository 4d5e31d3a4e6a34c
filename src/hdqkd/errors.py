"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 1, computation failures with 2 and I/O problems with 3.
"""


class HdqkdError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HdqkdError, ValueError):
    """An argument is outside the physically or mathematically valid range."""


class ConfigError(HdqkdError, ValueError):
    """A configuration document or preset is malformed or inconsistent."""


class ComputationError(HdqkdError, RuntimeError):
    """A computation cannot be carried out (non-convergence, dead branches...)."""


class EstimationImpossibleError(ComputationError):
    """No frames are available for parameter estimation."""


class ChernoffInapplicableError(ComputationError):
    """The multiplicative concentration bound's preconditions fail.

    Raised by the coverage experiment, which cannot score an interval
    whose preconditions fail; carries the failed check as ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SecurityModelError(HdqkdError, ValueError):
    """A security-model table is malformed or queried outside its hull."""
