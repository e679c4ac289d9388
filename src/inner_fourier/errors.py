"""Exception and warning types shared across the package, and the one reader of counts and of real parameters.

A count is a size the caller gives: a node count M, a harmonic count K,
a term count N, a derivative order, a window end. Every layer reads one
through ``count``, which takes what ``operator.index`` takes (Python and
numpy integers, and bools as 0 and 1) and refuses anything else, a
fraction included, with a one-line ValueError naming the count, so a
fractional size is never rounded or truncated into a plausible result.

A real parameter is a scalar that must lie in an interval: a radius rho,
rho0, rho1 or r, or a tolerance. Every layer reads one through ``real``,
with the interval written as the docstrings write it, such as "[0, 1)",
"(0, 1]" or "(0, inf)" and parsed once. It takes Python and numpy real
scalars and 0-d real arrays, and returns the value as a Python float. A
str, a complex, an array with an axis, NaN, an infinity, a value outside
the interval and an integer past the double range raise a one-line
ValueError naming the parameter; a value outside reads
``need 0 <= rho < 1, got 1.5``. Radius grids, arrays of radii, keep
their own checks.
"""

import functools
import numbers
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


_BOUND = {"(": ("<", operator.lt), "[": ("<=", operator.le), ")": ("<", operator.lt), "]": ("<=", operator.le)}


@functools.cache  # a handful of intervals, each written as a literal at its site
def _interval(text: str):
    """The ends of the interval text, its two comparisons and its refusal form."""
    lo, hi = (end.strip() for end in text[1:-1].split(","))
    (lo_sign, lo_ok), (hi_sign, hi_ok) = _BOUND[text[0]], _BOUND[text[-1]]
    return float(lo), float(hi), lo_ok, hi_ok, f"need {lo} {lo_sign} {{}} {hi_sign} {hi}, got {{}}"


def real(name: str, value, interval: str) -> float:
    """value as a Python float; ValueError naming name when it is not one real number inside interval."""
    lo, hi, lo_ok, hi_ok, form = _interval(interval)
    if type(value) is not float:
        if getattr(value, "ndim", 0):
            raise ValueError(f"{name} must be a real number, got an array of shape {value.shape}")
        value = value.item() if hasattr(value, "item") else value  # a numpy scalar or 0-d array
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer or a fraction
        raise ValueError(f"{name} is past the double range") from None
    if not (lo_ok(lo, x) and hi_ok(x, hi)):
        raise ValueError(form.format(name, value))
    return x
