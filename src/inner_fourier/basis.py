"""Numerical witnesses for orthogonality and completeness of the circle basis.

The basis {1, cos(k*theta), sin(k*theta)} is orthogonal under the scalar
product (f|g) = integral of f*g over [-pi, pi], with squared norms 2*pi
for the constant and pi for every harmonic. Both facts reduce to the
residue identity

    (1/(2*pi*i)) * loop of z**(p-1) dz = 1 if p == 0 else 0

on any circle centered at the origin. ``fourier_gram`` reads cos(k*theta)
and sin(k*theta) on the grid as the parts of z**k in the exact table of
``quadrature.phase_powers``, as the residue identity does. Completeness is
probed by integrating a test function psi against Re w(rho*exp(i*theta)) for any
inner analytic kernel w, sampled by ``quadrature.circle_samples`` under
its circle rule (``completeness_probe``). With the point mass as kernel
this is the Poisson integral of psi, which tends to psi(theta1) as
rho -> 1 at continuity points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicFunction
from .errors import count
from .quadrature import circle_samples, compensated_csum, phase_powers, trapezoid_periodic
from .series import InnerAnalytic


@dataclass(frozen=True, eq=False)
class GramReport:
    """Pairwise products of basis elements with deviation summaries.

    ``max_diag_error`` is measured against the expected diagonal and
    ``max_offdiag_error`` against zero; any imaginary leakage of a complex
    product is folded into both.
    """

    max_offdiag_error: float
    max_diag_error: float
    matrix: np.ndarray

    @classmethod
    def of(cls, g: np.ndarray, expected: np.ndarray, leak: float = 0.0) -> "GramReport":
        """Report on the real Gram matrix g against the expected diagonal, leak folded in."""
        diag = np.diag(g)
        diag_err = max(float(np.max(np.abs(diag - expected))), leak)
        off_err = max(float(np.max(np.abs(g - np.diag(diag)))), leak)
        return cls(off_err, diag_err, g)


def residue_identity_check(p: int, rho: float) -> complex:
    """Contour quadrature of (1/(2*pi*i)) * loop of z**(p-1) dz at radius rho.

    Returns a value close to the indicator of p == 0, independent of the
    radius. The M = max(64, 4|p| + 8) nodes keep the table divisible by 4
    and the integrand power is evaluated through the exact root of unity
    table, so the cancellation survives the rho**p scaling even for
    strongly negative p. A p that is not an integer (numpy integers are),
    and a rho that is not finite, or 0 or below, raise ValueError.
    """
    p = count("p", p)
    if not math.isfinite(rho):
        raise ValueError(f"need a finite rho, got {rho}")
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
    K = count("K", K, 1)
    M = 4 * K + 2
    b = np.empty((2 * K + 1, M))  # first, so that numpy refuses a size it cannot hold before any work
    z = phase_powers(M, np.arange(1, K + 1))  # exp(i*k*theta_j): cos(k*theta_j) + i*sin(k*theta_j)
    b[0], b[1 : K + 1], b[K + 1 :] = 1.0, z.real, z.imag
    del z  # the product below needs b alone
    return GramReport.of((2.0 / M) * (b @ b.T), np.r_[2.0, np.ones(2 * K)])


def completeness_probe(psi: PeriodicFunction, kernel: InnerAnalytic, rho: float, M: int = 2048) -> float:
    """Trapezoid value on M nodes of the integral of psi(theta) * Re kernel(rho*exp(i*theta)).

    With kernel = ``delta_inner(theta1)`` this is the Poisson integral of
    psi: 1 at every rho for psi = 1 (the unit mass), rho**k * cos(k*theta1)
    for psi = cos(k*theta), and psi(theta1) in the rho -> 1 limit at
    continuity points. The K-term kernel
    ``TaylorSeries(delta_inner(theta1).taylor(K))`` gives the same values
    for harmonics up to K and annihilates the rest to roundoff. The kernel
    is sampled on the nodes of ``theta_grid(M)`` by
    ``quadrature.circle_samples``, under its circle rule: a kernel of
    degree >= M, a pole on the circle of radius rho and an aliasing scale
    (rho/R)**M above eps are refused. rho outside [0, 1) raises
    ValueError, and so does rho = 0, which is no circle.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    return trapezoid_periodic(psi.on_grid(M) * circle_samples(kernel, rho, M).real)
