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
carries -S_N(z). The boundary form rewrites the |z| > rho1 case for z on
the unit circle as an angular integral against w on the circle rho1 < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import TaylorCoefficients, _require_poles_off_circle
from .quadrature import TWO_PI, circle_nodes, compensated_csum, phase_powers, power_series, theta_grid
from .series import InnerAnalytic, PolarPoint

_RADIUS_CLASH_TOL = 1e-12
_NODE_CLASH_TOL = 1e-9


@dataclass(frozen=True)
class PartialSumReport:
    """Direct and contour values of one partial sum, with their distance."""

    N: int
    direct: complex
    contour: complex
    discrepancy: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "direct_re": self.direct.real,
            "direct_im": self.direct.imag,
            "contour_re": self.contour.real,
            "contour_im": self.contour.imag,
            "discrepancy": self.discrepancy,
        }


def partial_sum(tc: TaylorCoefficients, z: PolarPoint, N: int) -> complex:
    """Horner evaluation of the first N terms at any finite point."""
    if not 1 <= N <= tc.K + 1:
        raise ValueError(f"need 1 <= N <= K + 1 = {tc.K + 1}, got N={N}")
    return complex(power_series(tc.c[:N], z.z))


def _contour_terms(w: InnerAnalytic, z: complex, N: int, rho1: float, M: int):
    """The two quadrature terms of the contour identity at radius rho1."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _require_poles_off_circle(w, rho1)
    nodes = circle_nodes(rho1, M)
    vals = np.asarray(w(nodes), dtype=complex)
    first = compensated_csum(vals * nodes / (nodes - z)) / M
    # z1^{-(N-1)} through the exact phase table keeps the strong rho1
    # scaling out of the cancellation.
    inv_pow = phase_powers(M, -(N - 1)) / rho1 ** (N - 1)
    second = (z**N / M) * compensated_csum(vals * inv_pow / (nodes - z))
    return first, second


def contour_partial_sum(
    w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096
) -> PartialSumReport:
    """Contour-integral value of S_N(z) compared against the direct sum.

    Requires rho1 != |z| strictly: inside (|z| < rho1) the first contour
    term reproduces w(z) and the difference of terms is S_N; outside
    (|z| > rho1) the first term vanishes by analyticity and the negated
    second term is S_N. Both branches reduce to first - second.
    """
    if not 0.0 < rho1 <= 1.0:
        raise ValueError(f"need 0 < rho1 <= 1, got {rho1}")
    if abs(rho1 - z.rho) < _RADIUS_CLASH_TOL:
        raise ValueError(f"ill posed: |z| = rho1 = {rho1}; the identity needs |z| != rho1")
    first, second = _contour_terms(w, z.z, N, rho1, M)
    contour = first - second
    direct = partial_sum(w.taylor(N - 1), z, N)
    return PartialSumReport(N, direct, contour, abs(direct - contour))


def remainder(w: InnerAnalytic, z: PolarPoint, N: int, rho1: float, M: int = 4096) -> complex:
    """Contour value of R_N(z) = w(z) - S_N(z), valid for |z| < rho1 <= 1.

    The magnitude decays like |z|**N for large N, which is what makes the
    convergence of the power series inside the disk easy to control; no
    analogous closed form survives on the circle itself.
    """
    if not 0.0 < rho1 <= 1.0:
        raise ValueError(f"need 0 < rho1 <= 1, got {rho1}")
    if z.rho >= rho1 - _RADIUS_CLASH_TOL:
        raise ValueError(f"remainder integral needs |z| < rho1, got |z|={z.rho}, rho1={rho1}")
    _, second = _contour_terms(w, z.z, N, rho1, M)
    return second


def boundary_partial_sum(
    w: InnerAnalytic, theta: float, N: int, rho1: float, M: int = 4096
) -> complex:
    """S_N at the boundary point exp(i*theta) from an integral over radius rho1 < 1.

    Evaluates

        -(1/(2*pi*rho1**(N-1))) * integral exp(-i*N*d) w(rho1, theta1)
                                   / (rho1 - exp(-i*d)) dtheta1,

    with d = theta1 - theta. Agrees with the direct partial sum up to
    quadrature error; at fixed M that error scales like rho1**M, so radii
    very close to 1 need correspondingly large M.
    """
    if not 0.0 < rho1 < 1.0:
        raise ValueError(f"need 0 < rho1 < 1 strictly, got {rho1}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _require_poles_off_circle(w, rho1)
    d = theta_grid(M) - theta
    vals = np.asarray(w(circle_nodes(rho1, M)), dtype=complex)
    integrand = np.exp(-1j * N * d) * vals / (rho1 - np.exp(-1j * d))
    return -compensated_csum(integrand) / (M * rho1 ** (N - 1))


def dirichlet_form(f_samples, g_samples, theta: float, N: int) -> complex:
    """Dirichlet-type angular integral built from boundary samples.

    Evaluates integral of [f + i*g] * [sin((N - 1/2) d) + i cos((N - 1/2) d)]
    / sin(d/2) dtheta1 with d = theta1 - theta, where f and g are sampled
    on the half-offset grid so the d = 0 node is never hit. This is the
    structural boundary reduction of the partial-sum integral with the
    radius set to 1 inside the integrand; it is a diagnostic object, not
    an equality for S_N.
    """
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    if f.shape != g.shape or f.ndim != 1 or f.size < 2:
        raise ValueError("f and g must be equal-length 1d sample arrays")
    M = f.size
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = theta_grid(M, half_offset=True) - theta
    half_sin = np.sin(d / 2.0)
    if np.min(np.abs(half_sin)) < _NODE_CLASH_TOL:
        raise ValueError("theta collides with a sample node (d = 0 on the grid)")
    n1 = N - 0.5
    kernel = (np.sin(n1 * d) + 1j * np.cos(n1 * d)) / half_sin
    return (TWO_PI / M) * compensated_csum((f + 1j * g) * kernel)
