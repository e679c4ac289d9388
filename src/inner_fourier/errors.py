"""Exception and warning types shared across the package, and the one reader of counts.

A count is a size the caller gives: a node count M, a harmonic count K,
a term count N, a derivative order, a window end. Every layer reads one
through ``count``, which takes what ``operator.index`` takes (Python and
numpy integers, and bools as 0 and 1) and refuses anything else, a
fraction included, with a one-line ValueError naming the count, so a
fractional size is never rounded or truncated into a plausible result.
"""

import operator


class EvaluationError(ArithmeticError):
    """A function was evaluated at a declared singular point or pole, or its value overflowed."""


class TruncationWarning(UserWarning):
    """Series truncation is large enough to dominate the requested tolerance."""


class DivergenceWarning(UserWarning):
    """A series value was requested where the series does not converge."""


def count(name: str, value, least: int | None = None) -> int:
    """value as a Python int; ValueError naming name when it is not an integer, or is below least."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n
