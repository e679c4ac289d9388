"""Named periodic functions, each with a generator of its Taylor coefficients.

``CatalogEntry.taylor(K)`` returns c_0..c_K of the entry's inner function;
``coefficients(K)`` refuses K < 1 and reads them back by ``from_taylor``.
Entries: trigonometric polynomials held as a ``TaylorSeries`` (zero, const,
cos_k, sin_k), jump functions (square, sawtooth: one builder from an odd
function and its sine series), the triangle, and the point-mass family
``delta_inner(theta1, order)``, one closed form for every derivative order
(``distributions`` states its accuracy relative to |w| and the circle rule
for its pole of order ``order`` + 1). "delta" and "delta_derivative" (order
1 by default) are its ``taylor``, with no pointwise samples; "poisson" is
the point mass at radius r < 1, damped by r**k and sampled as
``delta_inner(theta1).polar(theta, r).real``. These refuse theta1 outside
[-pi, pi).

Jump-discontinuous samplers return the midpoint of the one-sided limits
at the jump angles, which is the value the damped sums converge to and
keeps the coefficient quadrature spectrally accurate.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, TaylorCoefficients, from_taylor, to_taylor
from .distributions import delta_inner
from .errors import count, real
from .quadrature import disk_points
from .series import TaylorSeries

_COS_SIN = re.compile(r"^(cos|sin)_(\d+)$")


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    function: PeriodicFunction | None
    taylor: Callable[[int], TaylorCoefficients]

    def coefficients(self, K: int) -> FourierCoefficients:
        return from_taylor(self.taylor(count("K", K, 1)))


def _jump_entry(id: str, f, beta) -> CatalogEntry:
    """An odd function f with a jump at the +-pi seam, sampled as 0 there, and its sine series beta(k)."""

    def fn(theta):
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, f(theta))

    def taylor(K):
        return TaylorCoefficients(np.r_[0.0, -1j * beta(np.arange(1, count("K", K, 1) + 1))])

    return CatalogEntry(PeriodicFunction(id, fn=fn), taylor)


def _entry_triangle():
    def taylor(K):
        k = np.arange(1, count("K", K, 1) + 1)
        return TaylorCoefficients(np.r_[0.5 * math.pi, (2.0 / (math.pi * k * k)) * ((-1.0) ** k - 1.0)])

    return CatalogEntry(PeriodicFunction("triangle", fn=np.abs), taylor)


def _entry_poisson(r: float = 0.5, theta1: float = 0.0):
    r = real("r", r, "[0, 1)")
    w = delta_inner(theta1)
    function = PeriodicFunction("poisson", fn=lambda theta: w.polar(theta, r).real)
    return CatalogEntry(function, lambda K: TaylorCoefficients(w.taylor(K).c * r ** np.arange(K + 1.0)))


def _trig_poly(id: str, degree: int, coefficients: Callable[[], FourierCoefficients]) -> CatalogEntry:
    """The trigonometric polynomial coefficients() of the given degree; its series is built on first use."""
    series = cache(lambda: TaylorSeries(to_taylor(coefficients())))

    def fn(theta):
        return series()(disk_points(theta, 1.0)).real

    def taylor(K):
        K = count("K", K)
        if K < degree:
            raise ValueError(f"{id} has degree {degree}; need K >= {degree}")
        return series().taylor(K)

    return CatalogEntry(PeriodicFunction(id, fn=fn), taylor)


def trig_poly_entry(alpha0: float, alpha, beta) -> CatalogEntry:
    """A trigonometric polynomial from explicit coefficient arrays."""
    fc = FourierCoefficients(alpha0, np.asarray(alpha, float), np.asarray(beta, float))
    return _trig_poly("trig_poly", fc.K, lambda: fc)


def _entry_harmonic(kind: str, k: int) -> CatalogEntry:
    def coefficients():
        unit = np.zeros(k)
        unit[k - 1] = 1.0
        alpha, beta = (unit, np.zeros(k)) if kind == "cos" else (np.zeros(k), unit)
        return FourierCoefficients(0.0, alpha, beta)

    return _trig_poly(f"{kind}_{k}", k, coefficients)


_BUILDERS = {
    "zero": partial(_trig_poly, "zero", 1, partial(FourierCoefficients, 0.0, np.zeros(1), np.zeros(1))),
    "const": partial(_trig_poly, "const", 1, partial(FourierCoefficients, 2.0, np.zeros(1), np.zeros(1))),
    # sign(theta) is the midpoint 0 at its other jump, theta = 0
    "square": partial(_jump_entry, "square", np.sign, lambda k: 2.0 * (1.0 - (-1.0) ** k) / (math.pi * k)),
    "sawtooth": partial(_jump_entry, "sawtooth", lambda theta: theta, lambda k: 2.0 * (-1.0) ** (k + 1) / k),
    "triangle": _entry_triangle,
    "delta": lambda theta1=0.0: CatalogEntry(None, delta_inner(theta1).taylor),
    "delta_derivative": lambda theta1=0.0, order=1: CatalogEntry(None, delta_inner(theta1, order).taylor),
    "poisson": _entry_poisson,
}


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS)) + ("cos_<k>", "sin_<k>")


def resolve(name: str, **params) -> CatalogEntry:
    """Look up a catalog entry by id, e.g. "square", "delta" or "cos_3".

    An unknown id raises ValueError listing the known ids, and so does a
    parameter the entry does not take, such as theta1 for "square".
    """
    m = _COS_SIN.match(name)
    if m and int(m.group(2)) >= 1:
        builder = partial(_entry_harmonic, m.group(1), int(m.group(2)))
    else:
        builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown catalog id {name!r}; known: {', '.join(catalog_ids())}")
    unknown = sorted(params.keys() - inspect.signature(builder).parameters.keys())
    if unknown:
        raise ValueError(f"catalog entry {name!r} takes no parameter {', '.join(unknown)}")
    return builder(**params)
