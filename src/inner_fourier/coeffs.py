"""Fourier coefficients of periodic real functions and the complex coefficient map.

A real function f on [-pi, pi) has Fourier coefficients

    alpha_0 = (1/pi) * integral f(theta) dtheta
    alpha_k = (1/pi) * integral cos(k*theta) f(theta) dtheta
    beta_k  = (1/pi) * integral sin(k*theta) f(theta) dtheta

and the equivalent complex sequence

    c_0 = alpha_0 / 2,    c_k = alpha_k - i*beta_k   (k >= 1),

which is the Taylor coefficient sequence of an analytic function on the
open unit disk whose real part recovers f on the circle.

Integrals are approximated by the uniform trapezoidal rule, which is exact
(to roundoff) for trigonometric polynomials of degree at most M - 1 - K on
an M point grid. Callers are responsible for the usual integrability
assumptions; sampled input is accepted only on the uniform grid, and
functions with declared singular points must be integrated on grids that
avoid those points exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError
from .quadrature import (
    TWO_PI,
    circle_samples,
    compensated_csum,
    grid_coefficients,
    phase_powers,
    theta_grid,
)

_SINGULAR_HIT_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PeriodicFunction:
    """A real function on [-pi, pi): a callable or a uniform sample grid.

    ``singular_points`` lists angles where the function is not defined;
    evaluation on a grid that hits one of them raises EvaluationError.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    samples: np.ndarray | None = None
    singular_points: tuple[float, ...] = ()

    def __post_init__(self):
        if (self.fn is None) == (self.samples is None):
            raise ValueError("provide exactly one of fn or samples")
        if self.samples is not None:
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 1 or s.size < 2:
                raise ValueError("sample grid needs at least 2 values")
            if not np.all(np.isfinite(s)):
                raise ValueError("sample values must be finite")
            object.__setattr__(self, "samples", _readonly(s))

    @classmethod
    def from_callable(cls, name, fn, singular_points=()) -> "PeriodicFunction":
        return cls(name=name, fn=fn, singular_points=tuple(singular_points))

    @classmethod
    def from_samples(cls, values, name="samples") -> "PeriodicFunction":
        return cls(name=name, samples=np.asarray(values, dtype=float))

    @property
    def is_sampled(self) -> bool:
        return self.samples is not None

    def on_grid(self, m: int, *, half_offset: bool = False) -> np.ndarray:
        """Values at the m uniform grid angles.

        Sampled functions are bound to their own grid: m must equal the
        sample count and no offset is available.
        """
        if self.samples is not None:
            if half_offset:
                raise ValueError("sampled functions live on the standard grid")
            if m != self.samples.size:
                raise ValueError(
                    f"sampled function has {self.samples.size} points, requested {m}"
                )
            return self.samples
        grid = theta_grid(m, half_offset=half_offset)
        for s in self.singular_points:
            d = np.abs(np.remainder(grid - s + math.pi, TWO_PI) - math.pi)
            if np.any(d < _SINGULAR_HIT_TOL):
                raise EvaluationError(
                    f"grid point hits declared singular point theta={s!r} of {self.name}"
                )
        vals = np.asarray(self.fn(grid), dtype=float)
        if vals.shape != grid.shape:
            raise ValueError(f"{self.name} did not return one value per grid point")
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"{self.name} returned non finite values on the grid")
        return vals


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Real coefficient triple (alpha_0, alpha_1..K, beta_1..K)."""

    alpha0: float
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if a.ndim != 1 or b.shape != a.shape:
            raise ValueError("alpha and beta must be 1d arrays of equal length")
        if a.size < 1:
            raise ValueError("need K >= 1 harmonic coefficients")
        if not (np.isfinite(self.alpha0) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "alpha", _readonly(a))
        object.__setattr__(self, "beta", _readonly(b))

    @property
    def K(self) -> int:
        return self.alpha.size

    @classmethod
    def zeros(cls, K: int) -> "FourierCoefficients":
        return cls(0.0, np.zeros(K), np.zeros(K))


@dataclass(frozen=True, eq=False)
class TaylorCoefficients:
    """Complex coefficients c_0..c_K of a power series around the origin."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need coefficients c_0..c_K with K >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "c", _readonly(c))

    @property
    def K(self) -> int:
        return self.c.size - 1

    @classmethod
    def zeros(cls, K: int) -> "TaylorCoefficients":
        return cls(np.zeros(K + 1, dtype=complex))


def default_quadrature_points(K: int) -> int:
    """Default grid size max(4K, 256), comfortably past the aliasing bound."""
    return max(4 * K, 256)


def fourier_coefficients(
    f: PeriodicFunction, K: int, M: int | None = None
) -> FourierCoefficients:
    """Trapezoidal approximation of the coefficient integrals up to order K.

    Requires M >= 2K + 2 so that no retained harmonic is aliased. The
    result is exact to roundoff when f is a trigonometric polynomial of
    degree at most M - 1 - K.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if M is None:
        M = f.samples.size if f.is_sampled else default_quadrature_points(K)
    if M < 2 * K + 2:
        raise ValueError(f"need M >= 2K + 2 = {2 * K + 2} grid points, got {M}")
    c = grid_coefficients(f.on_grid(M), K)
    return FourierCoefficients(2.0 * c[0].real, c[1:].real, -c[1:].imag)


def to_taylor(fc: FourierCoefficients) -> TaylorCoefficients:
    """c_0 = alpha_0/2 and c_k = alpha_k - i*beta_k."""
    c = np.empty(fc.K + 1, dtype=complex)
    c[0] = 0.5 * fc.alpha0
    c[1:] = fc.alpha - 1j * fc.beta
    return TaylorCoefficients(c)


def from_taylor(tc: TaylorCoefficients, *, imag_tol: float = 1e-12) -> FourierCoefficients:
    """Inverse of the coefficient map: alpha_0 = 2*Re c_0, alpha_k = Re c_k, beta_k = -Im c_k.

    A nonzero imaginary part of c_0 has no real function counterpart and
    is rejected.
    """
    if abs(tc.c[0].imag) > imag_tol:
        raise ValueError(
            f"Im(c_0) = {tc.c[0].imag!r} exceeds {imag_tol}; no real mean term"
        )
    return FourierCoefficients(2.0 * tc.c[0].real, tc.c[1:].real, -tc.c[1:].imag)


def coefficients_by_cauchy(w, k: int, rho: float, M: int = 4096) -> complex:
    """Contour-integral value of c_k: (1/(2*pi*i)) * loop of w(z)/z**(k+1) dz.

    The contour is the circle of radius rho, 0 < rho <= 1, discretized at
    M uniform angles. The value is independent of rho up to quadrature
    error as long as w has no pole on or inside the contour radius; a
    circle on a declared pole, or one whose aliasing scale (rho/R)**M
    exceeds eps, is refused (see ``quadrature.circle_samples``).
    """
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"need 0 < rho <= 1, got {rho}")
    if M < 2 * k + 2:
        raise ValueError(f"need M >= 2k + 2 = {2 * k + 2} nodes, got {M}")
    _, vals = circle_samples(w, rho, M)
    # (1/2*pi*i) loop w/z^{k+1} dz = (1/M) sum w(z_j) * exp(-i*k*theta_j) / rho^k
    s = compensated_csum(vals * phase_powers(M, -k))
    return s / (M * rho**k)
