"""Named periodic functions with known coefficient generators.

Entries span the cases the library is exercised on: smooth functions
(constant, single harmonics, the damped point-mass kernel), functions
with jump discontinuities (square, sawtooth) and genuinely distributional
objects (point mass and its derivatives), which have coefficient
generators but no pointwise samples.

Jump-discontinuous samplers return the midpoint of the one-sided limits
at the jump angles, which is the value the damped sums converge to and
keeps the coefficient quadrature spectrally accurate. Entries carrying
both a sampler and a generator self-test to 1e-8 agreement at the stated
grid size.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, to_taylor
from .distributions import DeltaSpec, delta_coefficients, poisson_kernel
from .quadrature import disk_points, power_series

_COS_SIN = re.compile(r"^(cos|sin)_(\d+)$")


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    id: str
    function: PeriodicFunction | None
    known_coefficients: Callable[[int], FourierCoefficients] | None
    self_test_M: int | None = None

    def coefficients(self, K: int) -> FourierCoefficients:
        if self.known_coefficients is None:
            raise ValueError(f"catalog entry {self.id!r} has no coefficient generator")
        return self.known_coefficients(K)


class UnknownCatalogId(ValueError):
    """A catalog id that names no entry; the message lists the known ids."""

    def __init__(self, name: str):
        super().__init__(f"unknown catalog id {name!r}; known: {', '.join(catalog_ids())}")


def _entry_square():
    def fn(theta):
        # midpoint value 0 at the jumps (0 and the +-pi seam)
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, np.sign(theta))

    def gen(K):
        k = np.arange(1, K + 1)
        beta = 2.0 * (1.0 - (-1.0) ** k) / (math.pi * k)
        return FourierCoefficients(0.0, np.zeros(K), beta)

    return CatalogEntry("square", PeriodicFunction.from_callable("square", fn), gen, 262144)


def _entry_sawtooth():
    def fn(theta):
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, theta)

    def gen(K):
        k = np.arange(1, K + 1)
        beta = 2.0 * (-1.0) ** (k + 1) / k
        return FourierCoefficients(0.0, np.zeros(K), beta)

    return CatalogEntry("sawtooth", PeriodicFunction.from_callable("sawtooth", fn), gen, 262144)


def _entry_triangle():
    def gen(K):
        k = np.arange(1, K + 1)
        alpha = (2.0 / (math.pi * k * k)) * ((-1.0) ** k - 1.0)
        return FourierCoefficients(math.pi, alpha, np.zeros(K))

    return CatalogEntry("triangle", PeriodicFunction.from_callable("triangle", np.abs), gen, 65536)


def _entry_delta(theta1: float = 0.0):
    return CatalogEntry("delta", None, partial(delta_coefficients, DeltaSpec(theta1, 0)))


def _entry_delta_derivative(theta1: float = 0.0, order: int = 1):
    spec = DeltaSpec(theta1, order)
    return CatalogEntry("delta_derivative", None, partial(delta_coefficients, spec))


def _entry_poisson(r: float = 0.5, theta1: float = 0.0):
    if not 0.0 <= r < 1.0:
        raise ValueError(f"poisson entry needs 0 <= r < 1, got {r}")

    def fn(theta):
        return poisson_kernel(theta, theta1, r)

    def gen(K):
        k = np.arange(1, K + 1)
        damp = r ** k.astype(float)
        return FourierCoefficients(
            1.0 / math.pi,
            damp * np.cos(k * theta1) / math.pi,
            damp * np.sin(k * theta1) / math.pi,
        )

    return CatalogEntry("poisson", PeriodicFunction.from_callable("poisson", fn), gen, 2048)


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

    return CatalogEntry(id, PeriodicFunction.from_callable(id, fn), gen, 4 * fc.K + 256)


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
    "square": _entry_square,
    "sawtooth": _entry_sawtooth,
    "triangle": _entry_triangle,
    "delta": _entry_delta,
    "delta_derivative": _entry_delta_derivative,
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
