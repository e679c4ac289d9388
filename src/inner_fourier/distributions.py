"""Dirac delta and delta-derivative representations on the unit circle.

The point mass at angle theta1 is carried by the analytic function

    w(z) = 1/(2*pi) - (1/pi) * z / (z - z1),    z1 = exp(i*theta1),

whose real part at radius rho is the Poisson kernel. Its coefficients are

    alpha_0 = 1/pi,  alpha_k = cos(k*theta1)/pi,  beta_k = sin(k*theta1)/pi,

manifestly non decaying, so the rho = 1 trigonometric series diverges
everywhere; the damped sums converge for every rho < 1 and recover the
point mass in the rho -> 1 limit everywhere except at theta1.

Derivative coefficients follow the distributional integration by parts
convention and coincide with repeated angular differentiation of the
delta coefficients; the latter is taken as the defining route here and
the former is kept as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, from_taylor, to_taylor
from .quadrature import TWO_PI, disk_points, power_series
from .series import ClosedForm, angular_derivative


@dataclass(frozen=True)
class DeltaSpec:
    """A point mass at theta1 (order 0) or its order-th angular derivative."""

    theta1: float
    order: int = 0

    def __post_init__(self):
        if not -math.pi <= self.theta1 < math.pi:
            raise ValueError(f"theta1 must lie in [-pi, pi), got {self.theta1}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")


def poisson_kernel(theta, theta1: float, rho: float):
    """(1/2pi) * (1 - rho**2) / ((1 - rho)**2 + 4*rho*sin((theta - theta1)/2)**2).

    The denominator is the expanded form of |z - z1|**2 written to avoid
    cancellation near theta = theta1 for rho close to 1.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    s = np.sin((np.asarray(theta, dtype=float) - theta1) / 2.0)
    den = (1.0 - rho) ** 2 + 4.0 * rho * s * s
    out = (1.0 - rho * rho) / (TWO_PI * den)
    return float(out) if np.ndim(theta) == 0 else out


def delta_inner(theta1: float) -> ClosedForm:
    """The point mass at theta1 as the closed form w above, with Taylor coefficients ``delta_coefficients``."""
    spec = DeltaSpec(theta1)
    z1 = complex(math.cos(spec.theta1), math.sin(spec.theta1))
    return ClosedForm(
        lambda z: 1.0 / TWO_PI - (z / (z - z1)) / math.pi,
        pole_set=(z1,),
        taylor_fn=lambda K: to_taylor(delta_coefficients(spec, K)),
        label=f"delta inner function (theta1={spec.theta1})",
    )


def delta_coefficients(spec: DeltaSpec, K: int) -> FourierCoefficients:
    """Exact coefficients of the point mass at spec.theta1, orders 1..K."""
    if spec.order != 0:
        raise ValueError("delta_coefficients requires order 0; see delta_derivative_coefficients")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(1, K + 1)
    return FourierCoefficients(
        1.0 / math.pi,
        np.cos(k * spec.theta1) / math.pi,
        np.sin(k * spec.theta1) / math.pi,
    )


def delta_derivative_coefficients(spec: DeltaSpec, K: int) -> FourierCoefficients:
    """Coefficients of the order-th derivative of the point mass.

    Computed as ``order`` applications of the angular derivative to the
    delta coefficients, so the chain identity with the series module holds
    bitwise. Magnitudes grow as k**order / pi.
    """
    if spec.order < 1:
        raise ValueError("delta_derivative_coefficients requires order >= 1")
    tc = to_taylor(delta_coefficients(DeltaSpec(spec.theta1, 0), K))
    for _ in range(spec.order):
        tc = angular_derivative(tc)
    return from_taylor(tc)


def regulated_delta_on_grid(theta, theta1: float, rho: float, K: int) -> np.ndarray:
    """The K-term damped delta expansion evaluated on an array of angles.

    1/(2*pi) + (1/pi) * sum_{k=1..K} rho**k cos(k*(theta - theta1)),
    the real part of the power series with c = (1/(2*pi), 1/pi, ..., 1/pi)
    at rho*exp(i*(theta - theta1)), evaluated by Horner's rule within the
    bound stated in ``quadrature``. Non-finite angles raise ValueError.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    c = np.r_[1.0 / TWO_PI, np.full(K, 1.0 / math.pi)]
    return power_series(c, disk_points(np.asarray(theta, dtype=float) - theta1, rho)).real
