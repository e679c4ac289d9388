"""Partial sums, their contour-integral forms, and the remainder integral.

The N-term partial sum S_N(z) = sum_{k=0}^{N-1} c_k z**k is entire, so it
can be evaluated anywhere, including on the unit circle where the full
series may diverge. Substituting the contour form of the coefficients and
summing the finite geometric progression yields the two-term identity

    S_N(z) = (1/(2*pi*i)) loop w(z1)/(z1 - z) dz1
           - (z**N/(2*pi*i)) loop w(z1)/(z1**N (z1 - z)) dz1

on any circle |z1| = rho1 != |z|. For |z| < rho1 the first term is the
Cauchy value w(z) and the second the remainder R_N(z) = w(z) - S_N(z);
for |z| > rho1 the first term vanishes. Under the M-node trapezoid rule,
with c~_k the trapezoid Cauchy coefficients of w on the circle
(``quadrature.circle_dft``), first - second is exactly the direct sum
sum_{k<N} (c~_k * rho1**k) * (z/rho1)**k, and second is the same sum over
N <= k < M, up to the aliasing (|z|/rho1)**M of its pole at z: each one
``quadrature.power_series``. The boundary partial sum on |z| = 1 is the
exterior case, |z| > rho1, of the same sum.

The sample rounding eps * max|w_j|, amplified by A = (|z|/rho1)**N /
rho1, is the far-field estimate of these sums' error; A above
1/sqrt(eps) is refused. It is an estimate, not a bound: random sweeps
exceed it up to 25 times where |z| is near rho1 and N is large, for
simple poles and point masses alike. A w whose ``pole_order`` exceeds 1
is refused, as no contract is stated for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import TaylorCoefficients
from .errors import count, real
from .quadrature import _EPS, check_aliasing, check_amplification, circle_dft, circle_samples, power_series
from .series import InnerAnalytic, PolarPoint

_RADIUS_CLASH_TOL = 1e-12


@dataclass(frozen=True)
class PartialSumReport:
    """Direct and contour values of the partial sum S_N(z) a caller asked for, with their distance.

    ``roundoff_bound`` is the far-field estimate eps * max|w_j| * max(1, A)
    of the error of ``contour``, not a bound: random sweeps exceed it up to
    25 times. ``discrepancy`` also carries the error of ``direct``, which
    ``quadrature.power_series`` bounds.
    """

    direct: complex
    contour: complex
    discrepancy: float
    roundoff_bound: float


def partial_sum(tc: TaylorCoefficients, z: PolarPoint, N: int) -> complex:
    """The first N terms at any finite point, by ``quadrature.power_series``."""
    N = count("N", N)
    if not 1 <= N <= tc.K + 1:
        raise ValueError(f"need 1 <= N <= K + 1 = {tc.K + 1}, got N={N}")
    return complex(power_series(tc.c[:N], z.z))


def _circle_fft(w: InnerAnalytic, z: complex, N: int, rho1: float, M: int):
    """c~_k * rho1**k for k < M on the circle of radius rho1, z/rho1, and the far-field estimate of the sums."""
    N, M = count("N", N, 1), count("M", M)
    if N > M:
        raise ValueError(f"{N} terms alias on {M} nodes; need M >= {N}")
    if w.pole_order > 1:
        raise ValueError(f"{w.label} has a pole of order {w.pole_order}; the contour sums take simple poles only")
    vals = circle_samples(w, rho1, M)
    log_zn = N * math.log(abs(z)) if z else -math.inf
    amp = check_amplification(log_zn, N + 1, rho1, M, w)
    # Python scalars: numpy divides a complex by a real through its reciprocal, one rounding more
    return circle_dft(vals) / M, complex(z) / float(rho1), _EPS * float(np.max(np.abs(vals))) * max(1.0, amp)


def contour_partial_sum(
    w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096
) -> PartialSumReport:
    """Contour-integral value of S_N(z) compared against the direct sum.

    Requires rho1 != |z|: inside, the first contour term is w(z) and the
    difference of terms is S_N; outside, the first term vanishes and the
    negated second is S_N. On M nodes both are the direct sum of the
    trapezoid Cauchy coefficients; N > M is refused, since c~_k for k >= M
    aliases onto c~_{k-M}.
    """
    rho1 = real("rho1", rho1, "(0, 1]")
    if abs(rho1 - z.rho) < _RADIUS_CLASH_TOL:
        raise ValueError(f"ill posed: |z| = rho1 = {rho1}; the identity needs |z| != rho1")
    F, zeta, bound = _circle_fft(w, z.z, N, rho1, M)
    contour = complex(power_series(F[:N], zeta))
    direct = partial_sum(w.taylor(N), z, N)
    return PartialSumReport(direct, contour, abs(direct - contour), bound)


def remainder(w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096) -> complex:
    """Contour value of R_N(z) = w(z) - S_N(z), valid for |z| < rho1 <= 1.

    It decays like |z|**N. On M nodes it is the sum of c~_k * z**k over
    N <= k < M, 0 at N = M; N > M is refused. Accuracy: within the
    far-field estimate eps * max|w_j| * max(1, A) of ``PartialSumReport``,
    which the bare value does not carry, times 1/(1 - |z|/rho1), the
    length of the tail. Measured for 1/(1 - z) and point masses: at most
    0.40 of the far-field estimate with |z| uniform up to the aliasing
    limit (M <= 4096); on the ray to the pole near that limit, where the
    tail is about M/36 terms, up to 17x it for M <= 4096 and 153x for M
    up to 65536, and at most 0.29 of the stated contract.
    """
    rho1 = real("rho1", rho1, "(0, 1]")
    if z.rho >= rho1 - _RADIUS_CLASH_TOL:
        raise ValueError(f"remainder integral needs |z| < rho1, got |z|={z.rho}, rho1={rho1}")
    check_aliasing(z.rho / rho1, count("M", M))
    F, zeta, _ = _circle_fft(w, z.z, N, rho1, M)
    if N == M:
        return 0j
    return complex(zeta**N * power_series(F[N:], zeta))


def boundary_partial_sum(
    w: InnerAnalytic, theta: float, N: int, rho1: float, M: int = 4096
) -> complex:
    """S_N at the boundary point exp(i*theta) from an integral over radius rho1 < 1.

    The exterior case of the contour identity: bit for bit the ``contour``
    of ``contour_partial_sum`` at ``PolarPoint(1.0, theta)``, under its
    rules. N > M, an aliasing scale (rho1/R)**M above eps and an
    amplification rho1**-(N+1) above 1/sqrt(eps) raise ValueError naming
    the M or the radii that pass; the value is never returned degraded.
    Accuracy: about the far-field estimate eps * max|w_j| * rho1**-(N+1)
    of ``PartialSumReport``, which random sweeps exceed up to 25 times. A
    non-finite theta raises ValueError.
    """
    rho1 = real("rho1", rho1, "(0, 1)")
    F, zeta, _ = _circle_fft(w, PolarPoint(1.0, theta).z, N, rho1, M)
    return complex(power_series(F[:N], zeta))
