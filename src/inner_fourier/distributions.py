"""The point mass on the unit circle and its angular derivatives, one family of inner analytic functions.

The point mass at theta1 is w_0 = (1 + u)/(2*pi*(1 - u)), u = z/z1, z1 =
exp(i*theta1): c_0 = 1/(2*pi), c_k = exp(-i*k*theta1)/pi, and Re w_0 at
radius rho is the Poisson kernel. Its m-th angular derivative, c_k times
(i*k)**m, is w_m = (i**m/pi) * u * A_m(u)/(1 - u)**(m + 1), A_m the
Eulerian polynomial. ``delta_inner(theta1, m)`` is that one object (the
catalog's "delta", "delta_derivative" and, damped, "poisson"): ``taylor(K)``
applies ``angular_derivative`` m times, and one evaluator serves a point,
``polar`` and ``circle``. It forms |1 - u|**2, 1 - conj(u) and, split off
A_m at even m, 1 + u from sin(phi/2)**2, cos(phi/2)**2 and sin(phi), phi =
theta - theta1, where nothing cancels; order 0 is the Herglotz form.

Accuracy is relative to |w|, as Re w_m -> 0 off theta1: up to rho = 1 -
2**-30, w_0 is within 1e-15 and w_1..w_5 within 4e-15 of |w| (or the least
subnormal) at the double phi and rho, except near a zero u = -a of A_m
(a = 0.27 at order 3, 0.10 at 4, 0.04 and 0.43 at 5), where the error is
about eps*a/|u + a| of |w|. A point within 1e-12 of z1, a value past the
double range and a circle on which the pole of order m + 1 aliases
(``quadrature.check_circle``) are refused.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .coeffs import TaylorCoefficients
from .errors import EvaluationError
from .quadrature import TWO_PI, theta_grid
from .series import _POLE_TOL, InnerAnalytic, TaylorSeries, angular_derivative, regulated_sum


class _PointMass(InnerAnalytic):
    """The order-th angular derivative of the point mass at theta1 in [-pi, pi): coefficients and one evaluator."""

    def __init__(self, theta1: float, order: int):
        if not -math.pi <= theta1 < math.pi:
            raise ValueError(f"theta1 must lie in [-pi, pi), got {theta1}")
        try:
            order = operator.index(order)
        except TypeError:
            raise ValueError(f"order must be an integer, got {order!r}") from None
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.theta1, self.order, self.pole_order = theta1, order, order + 1
        self.pole_set = (complex(math.cos(theta1), math.sin(theta1)),)
        self.label = f"delta inner function (theta1={theta1}" + (f", order={order})" if order else ")")

    @functools.cached_property
    def _eulerian(self) -> np.ndarray:
        """A_m's coefficients, the Eulerian numbers (a palindrome); at even m those of A_m/(1 + u)."""
        m = self.order
        a = [sum((-1) ** i * math.comb(m + 1, i) * (j + 1 - i) ** m for i in range(j + 1)) for j in range(m)]
        try:
            a = np.array(a, dtype=float)
        except OverflowError:
            raise EvaluationError(f"the Eulerian numbers of order {m} overflow a double") from None
        return np.polydiv(a, [1.0, 1.0])[0] if m % 2 == 0 else a

    def taylor(self, K: int) -> TaylorCoefficients:
        """c_0 = 1/(2*pi), c_k = (cos(k*theta1) - i*sin(k*theta1))/pi, then ``angular_derivative`` order times."""
        if K < 1:
            raise ValueError(f"K must be >= 1, got {K}")
        kt = np.arange(1, K + 1) * self.theta1
        c = np.full(K + 1, 1.0 / TWO_PI, dtype=complex)
        c.real[1:] = np.cos(kt) / math.pi
        # -sin, not 0 - sin: a zero beta_k = -Im c_k stays 0.0, never -0.0
        c.imag[1:] = -np.sin(kt) / math.pi
        tc = TaylorCoefficients(c)
        for _ in range(self.order):
            tc = angular_derivative(tc)
        return tc

    def _at(self, phi, rho):
        """w at u = rho*exp(i*phi), elementwise over the broadcast arrays phi and rho; a Python complex at one point."""
        q = 1.0 - rho
        s2 = np.sin(0.5 * phi) ** 2
        den = s2 * (4.0 * rho) + q * q  # |1 - u|**2
        if np.any(den < _POLE_TOL**2):
            raise EvaluationError(f"{self.label} evaluated at pole {self.pole_set[0]!r}")
        im = np.sin(phi) * rho
        if not self.order:
            w = q * (1.0 + rho) / (TWO_PI * den) + 1j * (im / (math.pi * den))
        else:
            u = rho * np.exp(1j * phi)
            with np.errstate(over="ignore", invalid="ignore"):
                w = u * np.polyval(self._eulerian, u) * ((q + 2.0 * rho * s2 + 1j * im) / den) ** (self.order + 1)
                if self.order % 2 == 0:
                    w = w * (q + 2.0 * rho * np.cos(0.5 * phi) ** 2 + 1j * im)
                w = w * (1j**self.order / math.pi)
            finite = np.isfinite(w)
            if not np.all(finite):
                radius = float(np.broadcast_to(rho, np.shape(w))[~finite][0])
                raise EvaluationError(f"{self.label} overflows a double at radius {radius!r}")
        return complex(w) if np.ndim(w) == 0 else w

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return self._at(np.angle(z) - self.theta1, np.abs(z))

    def polar(self, theta, rho):
        """w on the theta x rho grid; non-finite angles raise ValueError."""
        phi = np.asarray(theta, dtype=float) - self.theta1
        if not np.all(np.isfinite(phi)):
            raise ValueError("angles must be finite")
        rho = np.asarray(rho, dtype=float)
        return self._at(phi.reshape(phi.shape + (1,) * rho.ndim), rho)

    def circle(self, rho: float, m: int):
        """w at the m circle nodes of ``theta_grid(m)``."""
        return self._at(theta_grid(m) - self.theta1, float(rho))


def delta_inner(theta1: float, order: int = 0) -> InnerAnalytic:
    """The order-th angular derivative of the point mass at theta1 in [-pi, pi), with exact ``taylor``."""
    return _PointMass(theta1, order)


def regulated_delta_on_grid(theta, theta1: float, rho: float, K: int) -> np.ndarray:
    """The K-term damped delta expansion evaluated on an array of angles: the benchmark's entry point.

    1/(2*pi) + (1/pi) * sum_{k=1..K} rho**k cos(k*(theta - theta1)): the
    regulated sum of the point mass at 0, at the angles theta - theta1.
    Non-finite angles raise ValueError. The library's K-term kernel is
    ``TaylorSeries(delta_inner(theta1).taylor(K))``, which
    ``basis.completeness_probe`` takes like any other inner function.
    """
    return regulated_sum(TaylorSeries(delta_inner(0.0).taylor(K)), np.asarray(theta, dtype=float) - theta1, rho)
