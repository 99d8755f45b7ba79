"""Exception types raised across the package."""


class CptsimError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CptsimError, ValueError):
    """A model or configuration parameter violates its invariants."""


class SingularSystem(CptsimError):
    """The steady-state linear system could not be solved."""


class InvariantViolation(CptsimError):
    """A solution violates a physical invariant (trace, positivity, residual).

    ``invariant`` names the broken check, ``value`` and ``bound`` give
    its measured value and limit, and ``delta_raman`` the detuning
    (rad/s) of the offending sample, or of a certificate's worst value
    (inf for the limit); the package's solvers set all four.
    """

    def __init__(self, message, invariant=None, value=None, bound=None,
                 delta_raman=None):
        self.invariant = invariant
        self.value = value
        self.bound = bound
        self.delta_raman = delta_raman
        super().__init__(message)


class NoResonance(CptsimError):
    """No resonance dip/peak could be identified in the data."""


class Unbracketed(CptsimError):
    """A half-depth crossing lies outside the sampled range."""


class NotBracketed(CptsimError):
    """A root-finding target is unreachable within the allowed bracket."""


class InvalidSpin(CptsimError, ValueError):
    """Nuclear spin is not a valid half-integer."""


class OutOfRange(CptsimError, ValueError):
    """Input lies outside the validity window of an empirical relation."""


class ScanFormatError(CptsimError):
    """Base class for scan-file format problems."""


class ParseError(ScanFormatError):
    """A scan file line could not be parsed.

    Carries the 1-based line number in ``line``.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MonotonicityError(ScanFormatError):
    """Scan frequencies are not strictly increasing after sorting."""


class TooFewSamples(ScanFormatError):
    """Scan contains fewer samples than the minimum required."""


class ConfigError(CptsimError):
    """Command-line or config-file input is invalid."""
