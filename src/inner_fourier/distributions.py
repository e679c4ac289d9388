"""The point mass on the unit circle as one inner analytic function.

The point mass at theta1 is w(z) = 1/(2*pi) - (1/pi) * z/(z - z1) =
(1/(2*pi)) * (1 + u)/(1 - u), z1 = exp(i*theta1), u = z/z1; its real part
at radius rho is the Poisson kernel. Its coefficients c_0 = 1/(2*pi),
c_k = (cos(k*theta1) - i*sin(k*theta1))/pi do not decay: the rho = 1 series
diverges everywhere, the damped sums converge for every rho < 1 and recover
the point mass as rho -> 1 everywhere except at theta1. ``delta_inner(theta1)``
is that one object: ``taylor(K)`` builds c_0..c_K, a point z takes the z
formula, and ``polar``, called by the regulated sums and ``rho_limit``,
takes the Herglotz form (phi = theta - theta1), in which nothing cancels;
so does ``circle``, the samples of every contour integral and of
``basis.completeness_probe``, on ``theta_grid(M)``:

    w = ((1 - rho)*(1 + rho) + 2i*rho*sin(phi)) / (2*pi*((1 - rho)**2 + 4*rho*sin(phi/2)**2)).

Re w and |w| are within 1e-15 relative of w at the double phi for rho up to
1 - 2**-30; the z formula loses about eps/(1 - rho). Both refuse a point
within 1e-12 of z1. The Poisson kernel is
``delta_inner(theta1).polar(theta, rho).real``, the only form of it here:
the catalog's "poisson" entry samples it. The catalog's "delta_derivative"
differentiates ``taylor(K)`` with ``angular_derivative``, which agrees with
the distributional integration by parts formula (the tests' sympy oracle).
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import TaylorCoefficients
from .errors import EvaluationError
from .quadrature import TWO_PI, theta_grid
from .series import _POLE_TOL, ClosedForm, TaylorSeries, regulated_sum


class _PointMass(ClosedForm):
    """The point mass at theta1 in [-pi, pi): the closed form w above, its coefficients and its polar form."""

    def __init__(self, theta1: float):
        if not -math.pi <= theta1 < math.pi:
            raise ValueError(f"theta1 must lie in [-pi, pi), got {theta1}")
        z1 = complex(math.cos(theta1), math.sin(theta1))
        label = f"delta inner function (theta1={theta1})"
        super().__init__(lambda z: 1.0 / TWO_PI - (z / (z - z1)) / math.pi, pole_set=(z1,), label=label)
        self.theta1 = theta1

    def taylor(self, K: int) -> TaylorCoefficients:
        """c_0 = 1/(2*pi) and c_k = (cos(k*theta1) - i*sin(k*theta1))/pi for k = 1..K."""
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        kt = np.arange(1, K + 1) * self.theta1
        c = np.full(K + 1, 1.0 / TWO_PI, dtype=complex)
        c.real[1:] = np.cos(kt) / math.pi
        # -sin, not 0 - sin: a zero beta_k = -Im c_k stays 0.0, never -0.0
        c.imag[1:] = -np.sin(kt) / math.pi
        return TaylorCoefficients(c)

    def polar(self, theta, rho):
        """w in the Herglotz form on the theta x rho grid; non-finite angles raise ValueError."""
        phi = np.asarray(theta, dtype=float) - self.theta1
        if not np.all(np.isfinite(phi)):
            raise ValueError("angles must be finite")
        rho = np.asarray(rho, dtype=float)
        q = 1.0 - rho
        # |1 - u|**2, the squared distance to the pole that __call__ measures
        den = np.multiply.outer(np.sin(0.5 * phi) ** 2, 4.0 * rho) + q * q
        if np.any(den < _POLE_TOL**2):
            raise EvaluationError(f"{self.label} evaluated at pole {self.pole_set[0]!r}")
        out = q * (1.0 + rho) / (TWO_PI * den) + 1j * (np.multiply.outer(np.sin(phi), rho) / (math.pi * den))
        return complex(out) if out.ndim == 0 else out

    def circle(self, rho: float, m: int):
        """w at the m circle nodes, in the Herglotz form on ``theta_grid(m)``."""
        return self.polar(theta_grid(m), rho)


def delta_inner(theta1: float) -> ClosedForm:
    """The point mass at theta1 in [-pi, pi), a ``ClosedForm`` with exact ``taylor`` and a Herglotz ``polar``."""
    return _PointMass(theta1)


def regulated_delta_on_grid(theta, theta1: float, rho: float, K: int) -> np.ndarray:
    """The K-term damped delta expansion evaluated on an array of angles: the benchmark's entry point.

    1/(2*pi) + (1/pi) * sum_{k=1..K} rho**k cos(k*(theta - theta1)): the
    regulated sum of the point mass at 0, at the angles theta - theta1.
    Non-finite angles raise ValueError. The library's K-term kernel is
    ``TaylorSeries(delta_inner(theta1).taylor(K))``, which
    ``basis.completeness_probe`` takes like any other inner function.
    """
    return regulated_sum(TaylorSeries(delta_inner(0.0).taylor(K)), np.asarray(theta, dtype=float) - theta1, rho)
