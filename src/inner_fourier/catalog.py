"""Named periodic functions with known coefficient generators.

Entries span the cases the library is exercised on: smooth functions
(constant, single harmonics, and "poisson", the point mass seen at radius
r: ``delta_inner(theta1).polar(theta, r).real`` sampled, its Taylor
coefficients damped by r**k and read back by ``from_taylor``), functions
with jump discontinuities (square, sawtooth: one builder from an odd
function and its sine series) and the point mass and its derivatives,
"delta" and "delta_derivative": one builder that applies
``angular_derivative`` to ``delta_inner(theta1).taylor(K)``, with no
pointwise samples. These three refuse theta1 outside [-pi, pi). Every
generator refuses K < 1.

Jump-discontinuous samplers return the midpoint of the one-sided limits
at the jump angles, which is the value the damped sums converge to and
keeps the coefficient quadrature spectrally accurate.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, TaylorCoefficients, from_taylor, to_taylor
from .distributions import delta_inner
from .quadrature import disk_points, power_series
from .series import angular_derivative

_COS_SIN = re.compile(r"^(cos|sin)_(\d+)$")


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    id: str
    function: PeriodicFunction | None
    known_coefficients: Callable[[int], FourierCoefficients]

    def coefficients(self, K: int) -> FourierCoefficients:
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        return self.known_coefficients(K)


class UnknownCatalogId(ValueError):
    """A catalog id that names no entry; the message lists the known ids."""

    def __init__(self, name: str):
        super().__init__(f"unknown catalog id {name!r}; known: {', '.join(catalog_ids())}")


def _jump_entry(id: str, f, beta) -> CatalogEntry:
    """An odd function f with a jump at the +-pi seam, sampled as 0 there, and its sine series beta(k)."""

    def fn(theta):
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, f(theta))

    def gen(K):
        return FourierCoefficients(0.0, np.zeros(K), beta(np.arange(1, K + 1)))

    return CatalogEntry(id, PeriodicFunction.from_callable(id, fn), gen)


def _entry_triangle():
    def gen(K):
        k = np.arange(1, K + 1)
        alpha = (2.0 / (math.pi * k * k)) * ((-1.0) ** k - 1.0)
        return FourierCoefficients(math.pi, alpha, np.zeros(K))

    return CatalogEntry("triangle", PeriodicFunction.from_callable("triangle", np.abs), gen)


def _entry_point_mass(id: str, theta1: float, order: int) -> CatalogEntry:
    """The order-th angular derivative of the point mass at theta1, from its exact Taylor coefficients."""
    w = delta_inner(theta1)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")

    def gen(K):
        tc = w.taylor(K)
        for _ in range(order):
            tc = angular_derivative(tc)
        return from_taylor(tc)

    return CatalogEntry(id, None, gen)


def _entry_poisson(r: float = 0.5, theta1: float = 0.0):
    if not 0.0 <= r < 1.0:
        raise ValueError(f"poisson entry needs 0 <= r < 1, got {r}")
    w = delta_inner(theta1)

    def fn(theta):
        return w.polar(theta, r).real

    def gen(K):
        return from_taylor(TaylorCoefficients(w.taylor(K).c * r ** np.arange(K + 1.0)))

    return CatalogEntry("poisson", PeriodicFunction.from_callable("poisson", fn), gen)


def _trig_poly(id: str, fc: FourierCoefficients) -> CatalogEntry:
    c = to_taylor(fc).c

    def fn(theta):
        return power_series(c, disk_points(theta, 1.0)).real

    def gen(K):
        if K < fc.K:
            raise ValueError(f"{id} has degree {fc.K}; need K >= {fc.K}")
        a, b = np.zeros(K), np.zeros(K)
        a[: fc.K] = fc.alpha
        b[: fc.K] = fc.beta
        return FourierCoefficients(fc.alpha0, a, b)

    return CatalogEntry(id, PeriodicFunction.from_callable(id, fn), gen)


def trig_poly_entry(alpha0: float, alpha, beta) -> CatalogEntry:
    """A trigonometric polynomial from explicit coefficient arrays."""
    fc = FourierCoefficients(alpha0, np.asarray(alpha, float), np.asarray(beta, float))
    return _trig_poly("trig_poly", fc)


def _entry_harmonic(kind: str, k: int) -> CatalogEntry:
    unit = np.zeros(k)
    unit[k - 1] = 1.0
    alpha, beta = (unit, np.zeros(k)) if kind == "cos" else (np.zeros(k), unit)
    return _trig_poly(f"{kind}_{k}", FourierCoefficients(0.0, alpha, beta))


_BUILDERS = {
    "zero": partial(_trig_poly, "zero", FourierCoefficients.zeros(1)),
    "const": partial(_trig_poly, "const", FourierCoefficients(2.0, np.zeros(1), np.zeros(1))),
    # sign(theta) is the midpoint 0 at its other jump, theta = 0
    "square": partial(_jump_entry, "square", np.sign, lambda k: 2.0 * (1.0 - (-1.0) ** k) / (math.pi * k)),
    "sawtooth": partial(_jump_entry, "sawtooth", lambda theta: theta, lambda k: 2.0 * (-1.0) ** (k + 1) / k),
    "triangle": _entry_triangle,
    "delta": lambda theta1=0.0: _entry_point_mass("delta", theta1, 0),
    "delta_derivative": lambda theta1=0.0, order=1: _entry_point_mass("delta_derivative", theta1, order),
    "poisson": _entry_poisson,
}


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS)) + ("cos_<k>", "sin_<k>")


def resolve(name: str, **params) -> CatalogEntry:
    """Look up a catalog entry by id, e.g. "square", "delta" or "cos_3".

    A parameter the entry does not take, such as theta1 for "square",
    raises ValueError.
    """
    m = _COS_SIN.match(name)
    if m and int(m.group(2)) >= 1:
        builder = partial(_entry_harmonic, m.group(1), int(m.group(2)))
    else:
        builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownCatalogId(name)
    unknown = sorted(params.keys() - inspect.signature(builder).parameters.keys())
    if unknown:
        raise ValueError(f"catalog entry {name!r} takes no parameter {', '.join(unknown)}")
    return builder(**params)
