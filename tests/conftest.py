"""Shared oracle helpers for the test suite.

Expected values for derived cases are produced by routes independent of
the implementation under test: symbolic integration for coefficient
integrals, adaptive numerical quadrature for kernel integrals, and closed
forms entered directly from elementary identities.

Every hypothesis property test runs under one profile: derandomized, with
no example database and no deadline, so runs repeat exactly.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import settings

settings.register_profile("inner_fourier", derandomize=True, deadline=None, database=None, max_examples=60)
settings.load_profile("inner_fourier")

_THETA = sp.symbols("theta", real=True)


def oracle_cos_coefficient(expr, k: int) -> float:
    """(1/pi) * integral of cos(k*theta) * expr over [-pi, pi], symbolically."""
    mode = sp.cos(k * _THETA) if k else sp.Integer(1)
    return float(sp.integrate(mode * expr, (_THETA, -sp.pi, sp.pi)) / sp.pi)


def oracle_sin_coefficient(expr, k: int) -> float:
    """(1/pi) * integral of sin(k*theta) * expr over [-pi, pi], symbolically."""
    return float(sp.integrate(sp.sin(k * _THETA) * expr, (_THETA, -sp.pi, sp.pi)) / sp.pi)


def sawtooth_expr():
    return _THETA


def square_wave_expr():
    return sp.sign(_THETA)


def triangle_expr():
    return sp.Abs(_THETA)


def oracle_delta_derivative_alpha(n: int, theta1: float, k: int) -> float:
    """Integration by parts: (1/pi) * (-1)**n * d^n/dtheta^n cos(k*theta) at theta1."""
    d = sp.diff(sp.cos(k * _THETA), _THETA, n)
    return float((-1) ** n * d.subs(_THETA, theta1) / sp.pi)


def oracle_delta_derivative_beta(n: int, theta1: float, k: int) -> float:
    d = sp.diff(sp.sin(k * _THETA), _THETA, n)
    return float((-1) ** n * d.subs(_THETA, theta1) / sp.pi)


def oracle_poisson_kernel(theta: float, theta1: float, rho: float) -> float:
    """(1/(2*pi)) * (1 - rho**2)/(1 - 2*rho*cos(phi) + rho**2) to 40 digits, at the double phi = theta - theta1."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rho)
        return float((1 - r * r) / (2 * mpmath.pi * (1 - 2 * r * mpmath.cos(theta - theta1) + r * r)))


def oracle_point_mass_derivative(theta: float, theta1: float, rho: float, m: int) -> mpmath.mpc:
    """Order-m point mass i**m * Li_{-m}(u)/pi, u = rho*exp(i*(theta - theta1)), to 40 digits at the double angle."""
    with mpmath.workdps(40):
        u = mpmath.mpf(rho) * mpmath.expj(mpmath.mpf(theta - theta1))
        return mpmath.mpc(0, 1) ** m * mpmath.polylog(-m, u) / mpmath.pi


def oracle_poisson_integral(psi, theta1: float, rho: float) -> float:
    """Adaptive quadrature of psi against the closed-form Poisson kernel."""

    def integrand(t):
        t = float(t)
        num = 1.0 - rho * rho
        den = (1.0 - rho) ** 2 + 4.0 * rho * math.sin((t - theta1) / 2.0) ** 2
        return psi(t) * num / (2.0 * math.pi * den)

    return float(mpmath.quad(integrand, [-math.pi, theta1, math.pi]))


def abel_square_wave(theta: float, rho: float) -> float:
    """Closed form of the damped square-wave sum: (2/pi)*atan(2 rho sin(theta)/(1 - rho^2))."""
    return (2.0 / math.pi) * math.atan2(2.0 * rho * math.sin(theta), 1.0 - rho * rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
