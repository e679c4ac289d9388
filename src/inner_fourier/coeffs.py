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
assumptions; sampled input is accepted only on the uniform grid, and a
callable that is not finite at some grid angle is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, count
from .quadrature import circle_coefficients, grid_coefficients, theta_grid

_IMAG_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    """a, which the caller built as its own copy, made read-only."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PeriodicFunction:
    """A real function on [-pi, pi): ``PeriodicFunction(name, fn=f)`` or ``PeriodicFunction(name, samples=s)``.

    The samples are on the uniform grid from -pi, copied and read-only.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if (self.fn is None) == (self.samples is None):
            raise ValueError("provide exactly one of fn or samples")
        if self.samples is not None:
            s = np.array(self.samples, dtype=float)
            if s.ndim != 1 or s.size < 2:
                raise ValueError("sample grid needs at least 2 values")
            if not np.all(np.isfinite(s)):
                raise ValueError("sample values must be finite")
            object.__setattr__(self, "samples", _readonly(s))

    def on_grid(self, m: int) -> np.ndarray:
        """Values at the m uniform grid angles; non-finite values raise EvaluationError.

        Sampled functions are bound to their own grid: m must equal the
        sample count.
        """
        m = count("m", m)
        if self.samples is not None:
            if m != self.samples.size:
                raise ValueError(
                    f"sampled function has {self.samples.size} points, requested {m}"
                )
            return self.samples
        grid = theta_grid(m)
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
        a = np.array(self.alpha, dtype=float)
        b = np.array(self.beta, dtype=float)
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


@dataclass(frozen=True, eq=False)
class TaylorCoefficients:
    """Complex coefficients c_0..c_K of a power series around the origin."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need coefficients c_0..c_K with K >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "c", _readonly(c))

    @property
    def K(self) -> int:
        return self.c.size - 1


def fourier_coefficients(
    f: PeriodicFunction, K: int, M: int | None = None
) -> FourierCoefficients:
    """Trapezoidal approximation of the coefficient integrals up to order K.

    Requires M >= 2K + 2 so that no retained harmonic is aliased. The
    result is exact to roundoff when f is a trigonometric polynomial of
    degree at most M - 1 - K. M defaults to the sample count of a sampled
    f and to max(4K, 256) otherwise. When the sums behind the coefficients
    overflow, the transform is redone on the samples scaled by 1/M; a
    coefficient that still overflows a double raises EvaluationError.
    """
    K = count("K", K, 1)
    if M is None:
        # max(4K, 256) is comfortably past the aliasing bound 2K + 2
        M = f.samples.size if f.samples is not None else max(4 * K, 256)
    M = count("m", M)
    if M < 2 * K + 2:
        raise ValueError(f"need M >= 2K + 2 = {2 * K + 2} grid points, got {M}")
    values = f.on_grid(M)
    with np.errstate(over="ignore", invalid="ignore"):
        c = grid_coefficients(values, K)
        if not np.all(np.isfinite(c)):  # the unnormalised sums overflowed; the coefficients need not
            c = grid_coefficients(values / M, K) * M
        finite = np.all(np.isfinite(c)) and np.isfinite(2.0 * c[0].real)  # and alpha_0 = 2*Re c_0
    if not finite:
        raise EvaluationError(f"the coefficients of {f.name} overflow a double")
    return from_taylor(TaylorCoefficients(c))


def to_taylor(fc: FourierCoefficients) -> TaylorCoefficients:
    """c_0 = alpha_0/2, c_k = alpha_k - i*beta_k; ``from_taylor`` reads it back exactly but an odd subnormal alpha_0."""
    c = np.empty(fc.K + 1, dtype=complex)
    c[0] = 0.5 * fc.alpha0
    c[1:] = fc.alpha - 1j * fc.beta
    return TaylorCoefficients(c)


def from_taylor(tc: TaylorCoefficients) -> FourierCoefficients:
    """Inverse of the coefficient map: alpha_0 = 2*Re c_0, alpha_k = Re c_k, beta_k = -Im c_k.

    A zero reads back as +0.0, never -0.0: Re c + 0.0 and 0.0 - Im c. A
    nonzero imaginary part of c_0 (above 1e-12) has no real function
    counterpart and is rejected.
    """
    if abs(tc.c[0].imag) > _IMAG_TOL:
        raise ValueError(f"Im(c_0) = {float(tc.c[0].imag)!r} exceeds {_IMAG_TOL}; no real mean term")
    return FourierCoefficients(2.0 * tc.c[0].real + 0.0, tc.c[1:].real + 0.0, 0.0 - tc.c[1:].imag)


def coefficients_by_cauchy(w, k: int, rho: float, M: int = 4096) -> complex:
    """Contour-integral value of c_k: (1/(2*pi*i)) * loop of w(z)/z**(k+1) dz.

    Entry k of ``quadrature.circle_coefficients`` on the circle of radius
    rho, 0 < rho <= 1, at M uniform angles: independent of rho up to an
    error of order eps * max|w(z_j)| * rho**-k. A circle on a declared
    pole, an aliasing scale (rho/R)**M above eps and an amplification
    rho**-k above 1/sqrt(eps) are refused, naming the radii or the M that
    pass.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"need 0 < rho <= 1, got {rho}")
    return complex(circle_coefficients(w, k, rho, M)[k])
