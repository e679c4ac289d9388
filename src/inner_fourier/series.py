"""Series evaluation in the unit disk and the regulated summation rule.

The complex sequence c_k of a real function defines the power series
S(z) = sum c_k z**k, convergent on the open unit disk. Writing
z = rho*exp(i*theta), the real part of S is the damped trigonometric sum

    u(rho, theta) = alpha_0/2 + sum rho**k [alpha_k cos(k theta) + beta_k sin(k theta)]

and the imaginary part is the conjugate sum with cos and sin exchanged
(cos -> sin, sin -> -cos). Taking rho -> 1 from below recovers the
function at every angle where the boundary behavior is regular, even when
the plain (rho = 1) trigonometric series diverges, and the imaginary part
tends to its Fourier conjugate. ``regulated_sum`` is the real part at one
radius and ``w.polar(theta, rho).imag`` the conjugate sum; ``rho_limit``
walks both along a finite radius schedule and reports convergence
empirically; it does not classify the boundary singularity at the probed
angle.

``regulated_sum`` and ``rho_limit`` evaluate any ``InnerAnalytic``: a
truncated series, or a closed form such as the point mass, which has no
cutoff. Coefficients fc are read as ``TaylorSeries(to_taylor(fc))``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, TaylorCoefficients, to_taylor
from .errors import EvaluationError, TruncationWarning, count
from .quadrature import _POLE_CLASH_TOL, TWO_PI, check_circle, circle_nodes, circle_series, disk_points
from .quadrature import grid_power_series, power_series

_POLE_TOL = 1e-12


def _wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi)."""
    t = math.remainder(float(theta), TWO_PI)
    return -math.pi if t >= math.pi else t


@dataclass(frozen=True)
class PolarPoint:
    """A point rho*exp(i*theta) given in polar form, theta in [-pi, pi)."""

    rho: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    @property
    def z(self) -> complex:
        return self.rho * complex(math.cos(self.theta), math.sin(self.theta))


class InnerAnalytic:
    """A complex function analytic on the open unit disk.

    Instances are callables on complex points (scalars or arrays). The
    ``pole_set`` lists known poles, all on or outside the unit circle, so
    that contour routines can refuse circles through or around them and
    size their aliasing, and ``pole_order`` bounds their order (1 unless declared);
    ``degree`` is the polynomial degree when w is a polynomial, else None.
    ``taylor(K)`` returns c_0..c_K when known. ``polar(theta, rho)`` is w on the
    theta x rho grid of ``disk_points``, the one entry point of synthesis,
    and ``circle(rho, m)`` is w at the m nodes of a contour integral, the
    one entry point of ``quadrature.circle_samples``; a representation
    with a faster or more accurate evaluator overrides either.
    """

    label: str = "inner analytic function"
    pole_set: tuple[complex, ...] = ()
    pole_order: int = 1
    degree: int | None = None

    def __call__(self, z):
        raise NotImplementedError

    def polar(self, theta, rho):
        """w(rho*exp(i*theta)) with the shape of ``disk_points(theta, rho)``."""
        return self(disk_points(theta, rho))

    def circle(self, rho: float, m: int):
        """w at the m ``circle_nodes`` of radius rho."""
        return self(circle_nodes(rho, m))

    def taylor(self, K: int) -> TaylorCoefficients:
        raise NotImplementedError(f"{self.label} has no coefficient generator")

    def _finite(self, w, rho):
        """w, a Python complex at one point, when finite; else EvaluationError naming its first overflow's radius."""
        finite = np.isfinite(w)
        if not np.all(finite):
            radius = float(np.broadcast_to(np.asarray(rho, dtype=float), np.shape(w))[~finite][0])
            raise EvaluationError(f"{self.label} overflows at radius {radius!r}")
        return complex(w) if np.ndim(w) == 0 else w


class TaylorSeries(InnerAnalytic):
    """Truncated power series sum c_k z**k.

    Points are evaluated by ``power_series``, one point to a Python
    complex; ``polar`` by ``grid_power_series`` where it applies, and
    ``circle`` by ``circle_series``. Each states its error. A value past
    the double range raises EvaluationError naming its radius.
    """

    def __init__(self, tc: TaylorCoefficients):
        self.tc = tc
        self.degree = tc.K
        self.label = f"taylor series (K={tc.K})"

    def _sum(self, z, rho):
        """``power_series`` of c at z, checked by ``_finite`` against the radii rho of z."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._finite(power_series(self.tc.c, z), rho)

    def __call__(self, z):
        return self._sum(z, np.abs(z))

    def polar(self, theta, rho):
        """w on the theta x rho grid.

        On a full-period uniform theta grid the values come from
        ``grid_power_series``, elsewhere from ``power_series`` bit for bit.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            out = grid_power_series(self.tc.c, theta, rho)
        return self._sum(disk_points(theta, rho), rho) if out is None else self._finite(out, rho)

    def circle(self, rho: float, m: int):
        """``circle_series`` of c at the m circle nodes; a degree K >= m is refused by ``check_circle``."""
        check_circle(self, rho, m)
        return circle_series(self.tc.c, rho, m)

    def taylor(self, K: int) -> TaylorCoefficients:
        K = count("K", K, 1)
        c = np.zeros(K + 1, dtype=complex)
        n = min(K, self.tc.K) + 1
        c[:n] = self.tc.c[:n]
        return TaylorCoefficients(c)


class ClosedForm(InnerAnalytic):
    """A closed-form inner analytic function with a declared pole set.

    A pole that is not finite, or inside the unit disk, |p| < 1 - 1e-9,
    raises ValueError; the tolerance admits poles on the circle that carry
    roundoff, such as exp(i*theta1) computed from theta1. A point within
    1e-12 of a pole, or a value past the double range, raises
    EvaluationError.
    """

    def __init__(self, fn, *, pole_set=(), taylor_fn=None, label="closed form"):
        self._fn = fn
        self._taylor_fn = taylor_fn
        self.pole_set = tuple(complex(p) for p in pole_set)
        for p in self.pole_set:
            # a NaN pole would fail every comparison of the circle rule and switch it off
            if not math.isfinite(abs(p)):
                raise ValueError(f"{label} declares pole {p!r}, which is not finite")
            if abs(p) < 1.0 - _POLE_CLASH_TOL:
                raise ValueError(f"{label} declares pole {p!r} inside the unit disk")
        self.label = label

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        for p in self.pole_set:
            if np.any(np.abs(zz - p) < _POLE_TOL):
                raise EvaluationError(f"{self.label} evaluated at pole {p!r}")
        with np.errstate(all="ignore"):
            return self._finite(np.asarray(self._fn(zz), dtype=complex), np.abs(zz))

    def taylor(self, K: int) -> TaylorCoefficients:
        if self._taylor_fn is None:
            return super().taylor(K)
        return self._taylor_fn(K)


@dataclass(frozen=True)
class RhoSchedule:
    """Strictly ascending radii in (0, 1) realizing the rho -> 1 limit."""

    rhos: tuple[float, ...]
    tol: float = 1e-6

    def __post_init__(self):
        r = tuple(float(x) for x in self.rhos)
        if len(r) < 2:
            raise ValueError("schedule needs at least 2 radii")
        if any(not 0.0 < x < 1.0 for x in r):
            raise ValueError("all radii must lie in (0, 1)")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be strictly ascending")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "rhos", r)

    @classmethod
    def geometric(cls, j_start: int = 1, j_stop: int = 14, tol: float = 1e-6) -> "RhoSchedule":
        """rho_j = 1 - 2**(-j) for j = j_start..j_stop <= 53: 1 - 2**-54 rounds to 1."""
        j_start, j_stop = count("j_start", j_start), count("j_stop", j_stop)
        if not 1 <= j_start < j_stop <= 53:
            raise ValueError(f"need 1 <= j_start < j_stop <= 53, got {j_start}..{j_stop}")
        return cls(tuple(1.0 - 2.0 ** (-j) for j in range(j_start, j_stop + 1)), tol)


@dataclass(frozen=True)
class RhoLimitResult:
    """Outcome of ``rho_limit``, which states what each field holds."""

    value: float | np.ndarray
    converged: bool | np.ndarray
    history: tuple[float, ...] | np.ndarray
    truncation_suspect: bool
    conjugate: tuple[float, ...] | np.ndarray


def _inner(w: InnerAnalytic | FourierCoefficients) -> InnerAnalytic:
    """w itself, or the truncated series ``TaylorSeries(to_taylor(w))`` of coefficients w."""
    return TaylorSeries(to_taylor(w)) if isinstance(w, FourierCoefficients) else w


def regulated_sum(w: InnerAnalytic | FourierCoefficients, theta, rho: float):
    """Re w(rho*exp(i*theta)) for 0 <= rho < 1, at one angle or an array of angles.

    For coefficients fc this is alpha_0/2 + sum rho**k [alpha_k cos(k theta)
    + beta_k sin(k theta)], evaluated through ``w.polar``. A non-finite
    theta raises ValueError.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    return _inner(w).polar(theta, rho).real


def truncation_bound(rho: float, K: int) -> float:
    """rho**(K+1) / (1 - rho), the discarded tail at radius rho of coefficients bounded by 1."""
    return rho ** (K + 1) / (1.0 - rho)


def rho_limit(w: InnerAnalytic | FourierCoefficients, theta, sched: RhoSchedule) -> RhoLimitResult:
    """w(rho*exp(i*theta)) along a radius schedule, at one angle or an array of angles.

    All radii are evaluated in one call of ``w.polar``; a non-finite theta
    raises ValueError. ``history`` holds Re w and ``conjugate`` Im w at each
    radius, ``value`` Re w at the last; ``converged`` holds when the last
    two values differ by less than ``sched.tol`` (reported, never raised).
    At an array of angles each is a per-angle array, radius last, with
    ``history`` and ``conjugate`` the two views of one complex array; at one
    angle they are floats, a bool and tuples. ``truncation_suspect``, with
    one warning per call, holds when a series' cutoff may dominate tol at
    the last radius: ``truncation_bound`` scaled by the largest |c_k| over
    K/2 <= k <= K, a window that the square wave's zero even-index
    coefficients leave full. It is False for a closed form.
    """
    w = _inner(w)
    suspect = False
    if isinstance(w, TaylorSeries):
        tc, rho = w.tc, sched.rhos[-1]
        bound = float(np.max(np.abs(tc.c[(tc.K + 1) // 2 :]))) * truncation_bound(rho, tc.K)
        suspect = bound > sched.tol
        if suspect:
            msg = f"K={tc.K} truncation bound {bound:.3g} exceeds schedule tol {sched.tol:.3g} at rho={rho}"
            warnings.warn(msg, TruncationWarning, stacklevel=2)
    values = w.polar(theta, sched.rhos)
    history, conjugate = values.real, values.imag
    converged = np.abs(history[..., -1] - history[..., -2]) < sched.tol
    if np.ndim(theta) == 0:
        history, conjugate = tuple(history.tolist()), tuple(conjugate.tolist())
        return RhoLimitResult(history[-1], bool(converged), history, suspect, conjugate)
    return RhoLimitResult(history[..., -1], converged, history, suspect, conjugate)


def angular_derivative(tc: TaylorCoefficients) -> TaylorCoefficients:
    """Coefficients of i*z*w'(z): c_k -> i*k*c_k (the theta derivative).

    The result always vanishes at the origin, so it is a proper sequence.
    A k*c_k that overflows a double raises EvaluationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = 1j * np.arange(tc.K + 1) * tc.c
    if not np.all(np.isfinite(c)):
        raise EvaluationError(f"the angular derivative k*c_k of c_0..c_{tc.K} overflows a double")
    return TaylorCoefficients(c)


def angular_primitive(tc: TaylorCoefficients) -> TaylorCoefficients:
    """Inverse of the angular derivative on k >= 1; the k = 0 term is dropped.

    Realizes -i * integral of (w(z') - w(0))/z' from 0 to z, i.e. the
    theta antiderivative with zero mean term.
    """
    c = np.zeros(tc.K + 1, dtype=complex)
    k = np.arange(1, tc.K + 1)
    c[1:] = tc.c[1:] / (1j * k)
    return TaylorCoefficients(c)
