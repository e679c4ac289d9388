"""Exception and warning types shared across the package."""


class EvaluationError(ArithmeticError):
    """A function was evaluated at a declared singular point or pole, or its value overflowed."""


class TruncationWarning(UserWarning):
    """Series truncation is large enough to dominate the requested tolerance."""


class DivergenceWarning(UserWarning):
    """A series value was requested where the series does not converge."""
