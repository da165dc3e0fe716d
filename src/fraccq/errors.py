"""Exception hierarchy shared across the library."""


class FracCQError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FracCQError):
    """Invalid configuration value or combination of values."""


class DomainError(FracCQError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(FracCQError):
    """Evaluation at (or numerically too close to) a pole."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class DecompositionError(FracCQError):
    """Eigendecomposition failed (defective or near-defective matrix)."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class BranchCutError(FracCQError):
    """Fractional power requested on the principal branch cut."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class AccuracyError(FracCQError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class SupportError(FracCQError):
    """Initial data support reaches the artificial boundary."""


class SolverError(FracCQError):
    """An operator backend failed to solve a resolvent system."""

    def __init__(self, message, frequency=None):
        super().__init__(message)
        self.frequency = frequency


class ParameterRangeError(FracCQError):
    """A parameter left the representable floating-point range."""
