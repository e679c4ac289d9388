"""Series evaluation in the unit disk and the regulated summation rule.

The complex sequence c_k of a real function defines the power series
S(z) = sum c_k z**k, convergent on the open unit disk. Writing
z = rho*exp(i*theta), the real part of S is the damped trigonometric sum

    u(rho, theta) = alpha_0/2 + sum rho**k [alpha_k cos(k theta) + beta_k sin(k theta)]

and the imaginary part is the conjugate sum with cos and sin exchanged
(cos -> sin, sin -> -cos). Taking rho -> 1 from below recovers the
function at every angle where the boundary behavior is regular, even when
the plain (rho = 1) trigonometric series diverges. ``rho_limit`` realizes
that limit along a finite radius schedule and reports convergence
empirically; it does not classify the boundary singularity at the probed
angle.

The regulated sums and ``rho_limit`` evaluate any ``InnerAnalytic``: a
truncated series, or a closed form such as the point mass, which has no
cutoff. Coefficients fc are read as ``TaylorSeries(to_taylor(fc))``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, TaylorCoefficients, to_taylor
from .errors import EvaluationError, TruncationWarning
from .quadrature import _POLE_CLASH_TOL, TWO_PI, disk_points, grid_power_series, power_series

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
    that contour routines can refuse circles through them and size their
    aliasing; ``degree`` is the polynomial degree when w is a polynomial,
    else None. ``taylor(K)`` returns the coefficients c_0..c_K when the
    representation knows them. ``polar(theta, rho)`` is w on the
    theta x rho grid of ``disk_points``, the one entry point of synthesis;
    a representation with a faster evaluator there overrides it.
    """

    label: str = "inner analytic function"
    pole_set: tuple[complex, ...] = ()
    degree: int | None = None

    def __call__(self, z):
        raise NotImplementedError

    def polar(self, theta, rho):
        """w(rho*exp(i*theta)) with the shape of ``disk_points(theta, rho)``."""
        return self(disk_points(theta, rho))

    def taylor(self, K: int) -> TaylorCoefficients:
        raise NotImplementedError(f"{self.label} has no coefficient generator")


class TaylorSeries(InnerAnalytic):
    """Truncated power series sum c_k z**k.

    Points are evaluated by Horner's scheme; ``polar`` on a full-period
    uniform angle grid by one folded inverse FFT per radius
    (``grid_power_series``).
    """

    def __init__(self, tc: TaylorCoefficients):
        self.tc = tc
        self.degree = tc.K
        self.label = f"taylor series (K={tc.K})"

    def __call__(self, z):
        out = power_series(self.tc.c, z)
        return complex(out) if out.ndim == 0 else out

    def polar(self, theta, rho):
        """w on the theta x rho grid; a non-finite value raises EvaluationError naming its radius.

        On a full-period uniform theta grid the values come from
        ``grid_power_series``, elsewhere from Horner's rule bit for bit.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            out = grid_power_series(self.tc.c, theta, rho)
            if out is None:
                out = super().polar(theta, rho)
        finite = np.isfinite(out)
        if not np.all(finite):
            radius = float(np.broadcast_to(np.asarray(rho, dtype=float), np.shape(out))[~finite][0])
            raise EvaluationError(f"{self.label} overflows at radius {radius!r}")
        return out

    def taylor(self, K: int) -> TaylorCoefficients:
        c = np.zeros(K + 1, dtype=complex)
        n = min(K, self.tc.K) + 1
        c[:n] = self.tc.c[:n]
        return TaylorCoefficients(c)


class ClosedForm(InnerAnalytic):
    """A closed-form inner analytic function with a declared pole set.

    A pole inside the unit disk, |p| < 1 - 1e-9, raises ValueError; the
    tolerance admits poles on the circle that carry roundoff, such as
    exp(i*theta1) computed from theta1.
    """

    def __init__(self, fn, *, pole_set=(), taylor_fn=None, label="closed form"):
        self._fn = fn
        self._taylor_fn = taylor_fn
        self.pole_set = tuple(complex(p) for p in pole_set)
        inside = [p for p in self.pole_set if abs(p) < 1.0 - _POLE_CLASH_TOL]
        if inside:
            raise ValueError(f"{label} declares pole {inside[0]!r} inside the unit disk")
        self.label = label

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        for p in self.pole_set:
            if np.any(np.abs(zz - p) < _POLE_TOL):
                raise EvaluationError(f"{self.label} evaluated at pole {p!r}")
        out = np.asarray(self._fn(zz), dtype=complex)
        return complex(out) if zz.ndim == 0 else out

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
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "rhos", r)

    def converged(self, values):
        """Whether the last two values along the last (radius) axis differ by less than tol."""
        return np.abs(np.diff(values)[..., -1]) < self.tol

    def truncation_suspect(self, tc: TaylorCoefficients) -> bool:
        """Whether the cutoff of c_0..c_K may dominate tol at the last radius; warns when it does.

        ``truncation_bound`` is scaled by the largest |c_k| over K/2 <= k <= K,
        a window that the square wave's zero even-index coefficients leave full.
        """
        scale = float(np.max(np.abs(tc.c[(tc.K + 1) // 2 :])))
        bound = scale * truncation_bound(self.rhos[-1], tc.K)
        if bound > self.tol:
            msg = f"K={tc.K} truncation bound {bound:.3g} exceeds schedule tol {self.tol:.3g}"
            warnings.warn(f"{msg} at rho={self.rhos[-1]}", TruncationWarning, stacklevel=3)
        return bound > self.tol

    @classmethod
    def geometric(cls, j_start: int = 1, j_stop: int = 14, tol: float = 1e-6) -> "RhoSchedule":
        """rho_j = 1 - 2**(-j) for j = j_start..j_stop."""
        if not 1 <= j_start < j_stop:
            raise ValueError("need 1 <= j_start < j_stop")
        return cls(tuple(1.0 - 2.0 ** (-j) for j in range(j_start, j_stop + 1)), tol)


@dataclass(frozen=True)
class RhoLimitResult:
    """Outcome of a radius-schedule evaluation.

    ``converged`` holds when the last two schedule values differ by less
    than the schedule tolerance; non convergence is reported, never
    raised. ``truncation_suspect`` flags radii where the K-term cutoff may
    dominate the tolerance. ``extrapolated`` holds the Richardson steps
    of consecutive history values, one fewer than the history.
    """

    value: float
    converged: bool
    history: tuple[float, ...]
    truncation_suspect: bool
    extrapolated: tuple[float, ...]


def _inner(w: InnerAnalytic | FourierCoefficients) -> InnerAnalytic:
    """w itself, or the truncated series ``TaylorSeries(to_taylor(w))`` of coefficients w."""
    return TaylorSeries(to_taylor(w)) if isinstance(w, FourierCoefficients) else w


def _disk_values(w: InnerAnalytic | FourierCoefficients, theta, rho: float):
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    return _inner(w).polar(theta, rho)


def regulated_sum(w: InnerAnalytic | FourierCoefficients, theta, rho: float):
    """Re w(rho*exp(i*theta)) for 0 <= rho < 1, at one angle or an array of angles.

    For coefficients fc this is alpha_0/2 + sum rho**k [alpha_k cos(k theta)
    + beta_k sin(k theta)], evaluated through ``w.polar``: for a series on
    a full-period uniform angle grid by one folded inverse FFT, elsewhere
    by Horner's rule, each within the bound stated in ``quadrature``. A
    non-finite theta raises ValueError.
    """
    return _disk_values(w, theta, rho).real


def conjugate_sum(w: InnerAnalytic | FourierCoefficients, theta, rho: float):
    """Im w(rho*exp(i*theta)) for 0 <= rho < 1, at one angle or an array of angles.

    For coefficients fc this is sum rho**k [alpha_k sin(k theta) - beta_k
    cos(k theta)]; its rho -> 1 limit is the Fourier conjugate of the
    function behind fc.
    """
    return _disk_values(w, theta, rho).imag


def truncation_bound(rho: float, K: int) -> float:
    """rho**(K+1) / (1 - rho), the discarded tail at radius rho of coefficients bounded by 1."""
    return rho ** (K + 1) / (1.0 - rho)


def rho_limit(
    w: InnerAnalytic | FourierCoefficients, theta: float, sched: RhoSchedule
) -> RhoLimitResult:
    """Evaluate Re w(rho*exp(i*theta)) along a radius schedule.

    The returned value is the evaluation at the last radius; the full
    history is kept for diagnostics. All radii are evaluated in one call
    of ``w.polar``; a non-finite theta raises ValueError.
    ``truncation_suspect`` (and its warning) weighs a series' cutoff by its
    coefficients and is False for a closed form. A first order Richardson step 2*v[j+1] - v[j]
    (valid for schedules that halve 1 - rho) is returned alongside as
    ``extrapolated``, leaving the plain values untouched.
    """
    w = _inner(w)
    values = w.polar(theta, sched.rhos).real
    history = tuple(values.tolist())
    converged = bool(sched.converged(values))
    suspect = isinstance(w, TaylorSeries) and sched.truncation_suspect(w.tc)
    extrapolated = tuple((2.0 * values[1:] - values[:-1]).tolist())
    return RhoLimitResult(history[-1], converged, history, suspect, extrapolated)


def angular_derivative(tc: TaylorCoefficients) -> TaylorCoefficients:
    """Coefficients of i*z*w'(z): c_k -> i*k*c_k (the theta derivative).

    The result always vanishes at the origin, so it is a proper sequence.
    """
    k = np.arange(tc.K + 1)
    return TaylorCoefficients(1j * k * tc.c)


def angular_primitive(tc: TaylorCoefficients) -> TaylorCoefficients:
    """Inverse of the angular derivative on k >= 1; the k = 0 term is dropped.

    Realizes -i * integral of (w(z') - w(0))/z' from 0 to z, i.e. the
    theta antiderivative with zero mean term.
    """
    c = np.zeros(tc.K + 1, dtype=complex)
    k = np.arange(1, tc.K + 1)
    c[1:] = tc.c[1:] / (1j * k)
    return TaylorCoefficients(c)
