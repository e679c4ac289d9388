"""Partial sums, their contour-integral forms, and the remainder integral.

The N-term partial sum S_N(z) = sum_{k=0}^{N-1} c_k z**k is entire, so it
can be evaluated anywhere, including on the unit circle where the full
series may diverge. Substituting the contour form of the coefficients and
summing the finite geometric progression yields the two-term identity

    S_N(z) = (1/(2*pi*i)) loop w(z1)/(z1 - z) dz1
           - (z**N/(2*pi*i)) loop w(z1)/(z1**N (z1 - z)) dz1

on any circle |z1| = rho1 with rho1 != |z|. For |z| < rho1 the first term
is the Cauchy value w(z) and the second is the remainder R_N(z) = w(z) -
S_N(z); for |z| > rho1 the first term vanishes and the second alone
carries -S_N(z). On M nodes first - second is exactly sum_{k<N} c^_k z**k
with c^_k the trapezoid Cauchy coefficients, so only the aliasing of w is
left, and the routines refuse (``quadrature.circle_samples``) rather than
degrade when it exceeds eps; ``remainder`` also refuses when its pole at
z aliases, at scale (|z|/rho1)**M. The second term amplifies the rounding
of the samples by A = (|z|/rho1)**N / rho1, and the routines refuse when
A exceeds 1/sqrt(eps) (``quadrature.check_amplification``). The boundary
partial sum on |z| = 1 is the exterior case; it is computed as
``quadrature.power_series`` over ``quadrature.circle_coefficients``, the
same sum without the two contour terms. Direct partial sums go through
``power_series`` too, with its error bound 2N * eps * sum |c_k| |z|**k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import TaylorCoefficients
from .quadrature import _EPS, check_aliasing, check_amplification, circle_coefficients, circle_samples
from .quadrature import compensated_csum, phase_powers, power_series
from .series import InnerAnalytic, PolarPoint

_RADIUS_CLASH_TOL = 1e-12


@dataclass(frozen=True)
class PartialSumReport:
    """Direct and contour values of one partial sum, with their distance.

    ``roundoff_bound`` bounds the error of ``contour``: eps * max|w_j| *
    max(1, A), the sample rounding amplified by A = (|z|/rho1)**N / rho1,
    or near the circle (N + 1) * eps * max summand / M if larger.
    ``discrepancy`` also carries the error of ``direct``, the
    ``quadrature.power_series`` bound 2N * eps * sum_{k<N} |c_k| |z|**k.
    """

    N: int
    direct: complex
    contour: complex
    discrepancy: float
    roundoff_bound: float


def partial_sum(tc: TaylorCoefficients, z: PolarPoint, N: int) -> complex:
    """The first N terms at any finite point, by ``quadrature.power_series``."""
    if not 1 <= N <= tc.K + 1:
        raise ValueError(f"need 1 <= N <= K + 1 = {tc.K + 1}, got N={N}")
    return complex(power_series(tc.c[:N], z.z))


def _contour_terms(w: InnerAnalytic, z: complex, N: int, rho1: float, M: int):
    """The two quadrature terms of the contour identity at radius rho1, and their roundoff bound."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    nodes, vals = circle_samples(w, rho1, M)
    log_zn = N * math.log(abs(z)) if z else -math.inf
    amp = check_amplification(log_zn, N + 1, rho1, M, getattr(w, "pole_set", ()))
    terms1 = vals * nodes / (nodes - z)
    first = compensated_csum(terms1) / M
    # z1^{-(N-1)} through the exact phase table keeps the strong rho1
    # scaling out of the cancellation.
    inv_pow = phase_powers(M, -(N - 1)) / rho1 ** (N - 1)
    terms2 = vals * inv_pow / (nodes - z)
    second = (z**N / M) * compensated_csum(terms2)
    # near the circle one summand can dwarf the samples: its rounding and the
    # (N - 1) eps by which the table power misses the rounded node's dominate
    near = (N + 1) * float(np.max(np.abs(terms1) + abs(z**N) * np.abs(terms2))) / M
    return first, second, _EPS * max(float(np.max(np.abs(vals))) * max(1.0, amp), near)


def contour_partial_sum(
    w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096
) -> PartialSumReport:
    """Contour-integral value of S_N(z) compared against the direct sum.

    Requires rho1 != |z| strictly: inside (|z| < rho1) the first contour
    term reproduces w(z) and the difference of terms is S_N; outside
    (|z| > rho1) the first term vanishes by analyticity and the negated
    second term is S_N. Both branches reduce to first - second, the sum of
    the first N trapezoid Cauchy coefficients; N > M is refused, since
    c_k for k >= M aliases onto c_{k-M} * rho1**-M.
    """
    if not 0.0 < rho1 <= 1.0:
        raise ValueError(f"need 0 < rho1 <= 1, got {rho1}")
    if abs(rho1 - z.rho) < _RADIUS_CLASH_TOL:
        raise ValueError(f"ill posed: |z| = rho1 = {rho1}; the identity needs |z| != rho1")
    if N > M:
        raise ValueError(f"{N} terms alias on {M} nodes; need M >= {N}")
    first, second, bound = _contour_terms(w, z.z, N, rho1, M)
    contour = first - second
    direct = partial_sum(w.taylor(N), z, N)
    return PartialSumReport(N, direct, contour, abs(direct - contour), bound)


def remainder(w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096) -> complex:
    """Contour value of R_N(z) = w(z) - S_N(z), valid for |z| < rho1 <= 1.

    The magnitude decays like |z|**N for large N, which is what makes the
    convergence of the power series inside the disk easy to control; no
    analogous closed form survives on the circle itself. Accuracy: the
    error is about ``PartialSumReport.roundoff_bound``, which the bare
    value does not carry, but near the aliasing limit (|z|/rho1)**M ~ eps
    it can exceed it (1.11x for 1/(1 - z) at |z| = 0.892, rho1 = 0.9,
    N = 10, M = 4096).
    """
    if not 0.0 < rho1 <= 1.0:
        raise ValueError(f"need 0 < rho1 <= 1, got {rho1}")
    if z.rho >= rho1 - _RADIUS_CLASH_TOL:
        raise ValueError(f"remainder integral needs |z| < rho1, got |z|={z.rho}, rho1={rho1}")
    check_aliasing(z.rho / rho1, M)
    return _contour_terms(w, z.z, N, rho1, M)[1]


def boundary_partial_sum(
    w: InnerAnalytic, theta: float, N: int, rho1: float, M: int = 4096
) -> complex:
    """S_N at the boundary point exp(i*theta) from an integral over radius rho1 < 1.

    The exterior case of the contour identity: ``quadrature.power_series``
    over the first N trapezoid Cauchy coefficients
    (``quadrature.circle_coefficients``) at z = exp(i*theta). A circle
    whose aliasing scale (rho1/R)**M exceeds eps, or whose amplification
    rho1**-(N-1) exceeds 1/sqrt(eps), is refused with ValueError naming
    the M or the radii that pass; the value is never returned degraded. A
    non-finite theta raises ValueError.
    """
    if not 0.0 < rho1 < 1.0:
        raise ValueError(f"need 0 < rho1 < 1 strictly, got {rho1}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    z = PolarPoint(1.0, theta).z
    return complex(power_series(circle_coefficients(w, N - 1, rho1, M), z))
