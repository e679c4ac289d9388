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

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, to_taylor
from .distributions import DeltaSpec, delta_coefficients, delta_derivative_coefficients, poisson_kernel
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


class UnknownCatalogId(KeyError):
    pass


def _entry_zero(**_):
    def gen(K):
        return FourierCoefficients.zeros(K)

    return CatalogEntry("zero", PeriodicFunction.from_callable("zero", np.zeros_like), gen, 1024)


def _entry_const(**_):
    def gen(K):
        return FourierCoefficients(2.0, np.zeros(K), np.zeros(K))

    return CatalogEntry("const", PeriodicFunction.from_callable("const", np.ones_like), gen, 1024)


def _entry_harmonic(kind: str, k: int):
    trig = np.cos if kind == "cos" else np.sin

    def fn(theta):
        return trig(k * theta)

    def gen(K):
        if K < k:
            raise ValueError(f"{kind}_{k} needs K >= {k}")
        fc = FourierCoefficients.zeros(K)
        alpha, beta = fc.alpha.copy(), fc.beta.copy()
        (alpha if kind == "cos" else beta)[k - 1] = 1.0
        return FourierCoefficients(0.0, alpha, beta)

    return CatalogEntry(f"{kind}_{k}", PeriodicFunction.from_callable(f"{kind}_{k}", fn), gen, max(4 * k + 256, 512))


def _entry_square(**_):
    def fn(theta):
        # midpoint value 0 at the jumps (0 and the +-pi seam)
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, np.sign(theta))

    def gen(K):
        k = np.arange(1, K + 1)
        beta = 2.0 * (1.0 - (-1.0) ** k) / (math.pi * k)
        return FourierCoefficients(0.0, np.zeros(K), beta)

    return CatalogEntry("square", PeriodicFunction.from_callable("square", fn), gen, 262144)


def _entry_sawtooth(**_):
    def fn(theta):
        return np.where(np.abs(np.abs(theta) - math.pi) < 1e-12, 0.0, theta)

    def gen(K):
        k = np.arange(1, K + 1)
        beta = 2.0 * (-1.0) ** (k + 1) / k
        return FourierCoefficients(0.0, np.zeros(K), beta)

    return CatalogEntry("sawtooth", PeriodicFunction.from_callable("sawtooth", fn), gen, 262144)


def _entry_triangle(**_):
    def gen(K):
        k = np.arange(1, K + 1)
        alpha = (2.0 / (math.pi * k * k)) * ((-1.0) ** k - 1.0)
        return FourierCoefficients(math.pi, alpha, np.zeros(K))

    return CatalogEntry("triangle", PeriodicFunction.from_callable("triangle", np.abs), gen, 65536)


def _entry_delta(theta1: float = 0.0, **_):
    spec = DeltaSpec(theta1, 0)

    def gen(K):
        return delta_coefficients(spec, K)

    return CatalogEntry("delta", None, gen)


def _entry_delta_derivative(theta1: float = 0.0, order: int = 1, **_):
    spec = DeltaSpec(theta1, order)

    def gen(K):
        return delta_derivative_coefficients(spec, K)

    return CatalogEntry("delta_derivative", None, gen)


def _entry_poisson(r: float = 0.5, theta1: float = 0.0, **_):
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


def trig_poly_entry(alpha0: float, alpha, beta) -> CatalogEntry:
    """A trigonometric polynomial from explicit coefficient arrays."""
    fc = FourierCoefficients(alpha0, np.asarray(alpha, float), np.asarray(beta, float))

    def fn(theta):
        return power_series(to_taylor(fc).c, disk_points(theta, 1.0)).real

    def gen(K):
        if K < fc.K:
            raise ValueError(f"trig_poly has degree {fc.K}; need K >= {fc.K}")
        a, b = np.zeros(K), np.zeros(K)
        a[: fc.K] = fc.alpha
        b[: fc.K] = fc.beta
        return FourierCoefficients(fc.alpha0, a, b)

    return CatalogEntry("trig_poly", PeriodicFunction.from_callable("trig_poly", fn), gen, 4 * fc.K + 256)


_BUILDERS = {
    "zero": _entry_zero,
    "const": _entry_const,
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
    """Look up a catalog entry by id, e.g. "square", "delta" or "cos_3"."""
    m = _COS_SIN.match(name)
    if m:
        k = int(m.group(2))
        if k < 1:
            raise UnknownCatalogId(name)
        return _entry_harmonic(m.group(1), k)
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownCatalogId(name)
    return builder(**params)
