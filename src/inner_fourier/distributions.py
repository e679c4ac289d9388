"""Dirac delta and delta-derivative representations on the unit circle.

The point mass at angle theta1 is carried by the analytic function

    w(z) = 1/(2*pi) - (1/pi) * z / (z - z1),    z1 = exp(i*theta1),

whose real part at radius rho is the Poisson kernel. Its coefficients are

    alpha_0 = 1/pi,  alpha_k = cos(k*theta1)/pi,  beta_k = sin(k*theta1)/pi,

manifestly non decaying, so the rho = 1 trigonometric series diverges
everywhere; the damped sums converge for every rho < 1 and recover the
point mass in the rho -> 1 limit everywhere except at theta1.

Derivative coefficients are repeated angular differentiation of the
delta coefficients. They agree with the distributional integration by
parts formula, which the test suite's sympy oracle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, from_taylor, to_taylor
from .quadrature import TWO_PI
from .series import ClosedForm, angular_derivative, regulated_sum


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
    """Exact coefficients, orders 1..K, of the point mass at spec.theta1 or its derivative.

    The derivative is ``spec.order`` applications of ``angular_derivative``
    to the point-mass coefficients, so the chain identity with the series
    module holds bitwise. Magnitudes grow as k**order / pi.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(1, K + 1)
    fc = FourierCoefficients(
        1.0 / math.pi,
        np.cos(k * spec.theta1) / math.pi,
        np.sin(k * spec.theta1) / math.pi,
    )
    if spec.order == 0:
        # the round trip through from_taylor would turn a zero beta_k into -0.0
        return fc
    tc = to_taylor(fc)
    for _ in range(spec.order):
        tc = angular_derivative(tc)
    return from_taylor(tc)


def regulated_delta_on_grid(theta, theta1: float, rho: float, K: int) -> np.ndarray:
    """The K-term damped delta expansion evaluated on an array of angles.

    1/(2*pi) + (1/pi) * sum_{k=1..K} rho**k cos(k*(theta - theta1)): the
    regulated sum of the point mass at 0, at the angles theta - theta1.
    Non-finite angles raise ValueError.
    """
    fc = delta_coefficients(DeltaSpec(0.0), K)
    return regulated_sum(fc, np.asarray(theta, dtype=float) - theta1, rho)
