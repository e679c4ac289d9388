"""Numerical witnesses for orthogonality and completeness of the circle basis.

The basis {1, cos(k*theta), sin(k*theta)} is orthogonal under the scalar
product (f|g) = integral of f*g over [-pi, pi], with squared norms 2*pi
for the constant and pi for every harmonic. Both facts reduce to the
residue identity

    (1/(2*pi*i)) * loop of z**(p-1) dz = 1 if p == 0 else 0

on any circle centered at the origin. Completeness is probed through the
damped expansion of the point mass: integrating a test function against
it reproduces the function value in the rho -> 1 limit at continuity
points, and annihilates any function whose coefficients vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicFunction
from .distributions import regulated_delta_on_grid
from .quadrature import (
    compensated_csum,
    phase_powers,
    theta_grid,
    trapezoid_periodic,
)


@dataclass(frozen=True, eq=False)
class GramReport:
    """Pairwise products of basis elements with deviation summaries.

    ``max_diag_error`` is measured against the expected diagonal and
    ``max_offdiag_error`` against zero; any imaginary leakage of a complex
    product is folded into both.
    """

    size: int
    max_offdiag_error: float
    max_diag_error: float
    matrix: np.ndarray

    @classmethod
    def of(cls, g: np.ndarray, expected: np.ndarray, leak: float = 0.0) -> "GramReport":
        """Report on the real Gram matrix g against the expected diagonal, leak folded in."""
        diag = np.diag(g)
        diag_err = max(float(np.max(np.abs(diag - expected))), leak)
        off_err = max(float(np.max(np.abs(g - np.diag(diag)))), leak)
        return cls(g.shape[0], off_err, diag_err, g)

    @property
    def passed(self) -> bool:
        return self.max_offdiag_error <= 1e-12 and self.max_diag_error <= 1e-12


def residue_identity_check(p: int, rho: float) -> complex:
    """Contour quadrature of (1/(2*pi*i)) * loop of z**(p-1) dz at radius rho.

    Returns a value close to the indicator of p == 0, independent of the
    radius. The M = max(64, 4|p| + 8) nodes keep the table divisible by 4
    and the integrand power is evaluated through the exact root of unity
    table, so the cancellation survives the rho**p scaling even for
    strongly negative p.
    """
    if rho <= 0.0:
        raise ValueError(f"need rho > 0, got {rho}")
    M = max(64, 4 * abs(p) + 8)
    # z^p on the circle: rho^p times the exact phase table
    s = compensated_csum(phase_powers(M, p))
    return (rho**p) * s / M


def fourier_gram(K: int) -> GramReport:
    """Gram matrix of {1, cos(1..K), sin(1..K)} under (f|g)/pi on M = 4K + 2 nodes.

    Expected: diagonal (2, 1, ..., 1) and vanishing off-diagonal entries,
    both within 1e-12; M = 4K + 2 resolves every product of two basis
    elements. Basis ordering is constant first, then cosines by k, then
    sines by k.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    M = 4 * K + 2
    b = np.empty((2 * K + 1, M))  # first, so that numpy refuses a size it cannot hold before any work
    kt = np.multiply.outer(np.arange(1, K + 1), theta_grid(M), out=b[K + 1 :])
    b[0], b[1 : K + 1], b[K + 1 :] = 1.0, np.cos(kt), np.sin(kt)
    return GramReport.of((2.0 / M) * (b @ b.T), np.r_[2.0, np.ones(2 * K)])


def completeness_probe(
    psi: PeriodicFunction, theta1: float, rho: float, K: int, M: int = 2048
) -> float:
    """Integral of psi against the K-term damped point-mass expansion.

    Converges to psi(theta1) as rho -> 1 and K grows, at continuity
    points. With psi = 1 the value is 1 at every rho (the unit mass);
    with psi = cos(k*theta) it is rho**k * cos(k*theta1) for K >= k; a
    function with vanishing coefficients up to K is annihilated to
    roundoff. The grid must resolve every kernel harmonic, hence M > K.
    """
    if M <= K:
        raise ValueError(f"need M > K to resolve the kernel harmonics, got M={M}, K={K}")
    vals = psi.on_grid(M)
    kernel = regulated_delta_on_grid(theta_grid(M), theta1, rho, K)
    return trapezoid_periodic(vals * kernel)

