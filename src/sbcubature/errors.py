"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class EvaluationError(RuntimeError):
    """Raised when an integrand produces a non-finite value.

    Carries the offending physical point in ``point``, a tuple of floats.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotFoundError(KeyError):
    """Raised when a registry lookup fails."""
