"""Uniform grids, trapezoidal quadrature and the spectral core.

All integrals in this package are taken over [-pi, pi) on uniform grids.
On a periodic domain the trapezoidal rule collapses to the plain average
of the node values times the period; it is spectrally accurate for
integrands analytic in a strip around the real axis, and it is exactly a
discrete Fourier transform. Analysis (samples to coefficients) is
therefore one real FFT, ``grid_coefficients``, with error a small multiple
of eps * log2(M) times the largest sample.

Synthesis (coefficients to values of sum c_k z**k) has two evaluators.
At arbitrary points it is Horner's rule, ``power_series``, O(K) per
point, with error at most 2(K+1) * eps * sum |c_k| |z|**k for the
floating-point z given. On a full-period uniform angle grid,
theta_j = theta_0 + 2*pi*j/n for j = 0..n-1 to within 8 eps of the
largest angle, ``grid_power_series`` folds c_k * rho**k * exp(i*k*theta_0)
modulo n and takes one inverse FFT per radius, O(K + n log n), then
moves each value from the exact angle theta_0 + 2*pi*j/n to the double
theta_j given by a first-order correction from a second folded FFT. Its
error at the angles given is at most (2K/n + 2 log2(n) + 4) * eps *
sum |c_k| rho**k; the phase exp(i*k*theta_0) is an exact root-of-unity
table entry times exp(i*k*s) with |s| <= pi/n, so it carries no error
growing with k*|theta_0|. Any other angle array goes to Horner's rule.

Contour integrals over a circle |z| = rho <= 1 sample w through
``circle_samples``, the one place circle nodes are built and checked. The
M-node trapezoid rule there aliases with error of order (rho/R)**M when w
is analytic out to radius R (Trefethen & Weideman, SIAM Review 2014).
With R the nearest declared pole outside the circle, the helper refuses a
circle where that scale exceeds eps, naming the smallest M that passes,
and a circle within 1e-9 of a declared pole. ``check_aliasing`` applies
the same rule to a pole of the integrand itself. The rule is exact for a
polynomial of degree below M, which has nothing to alias; a w with a
declared degree at or above M is refused, naming M = degree + 1.

The trapezoid Cauchy coefficients c_0..c_K of w on such a circle all come
from one complex FFT of the samples, ``circle_coefficients``;
``grid_coefficients`` is its real rho = 1 case and shares its (-1)**k
shift. Their error is of order eps * max|w_j| * rho**-k: the rounding of
the samples, amplified by the division by rho**k. A second rule,
``check_amplification``, refuses a contour value whose amplification A
exceeds 1/sqrt(eps), where more than half the digits of max|w_j| are
lost, and names the window of radii that passes both rules, or the M
that opens it. ``circle_coefficients`` applies it with A = rho**-K.

Results are bitwise reproducible for identical inputs. Compensated
(exactly rounded) sums, ``compensated_csum``, are kept only where
cancellation needs them: the residue identity and the two contour terms
of the kernels, both over the exact phase tables of ``phase_powers``.
Every other sum is a plain numpy sum, dot product or FFT.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError

TWO_PI = 2.0 * math.pi
_TWO_PI_TAIL = 2.4492935982947064e-16  # 2*pi - TWO_PI, to double precision
_EPS = float(np.finfo(float).eps)
_POLE_CLASH_TOL = 1e-9
_LOG_AMP_MAX = -0.5 * math.log(_EPS)


def theta_grid(m: int) -> np.ndarray:
    """Uniform angles on [-pi, pi): theta_j = -pi + 2*pi*j/m."""
    if m < 2:
        raise ValueError(f"need at least 2 grid points, got {m}")
    return -math.pi + (TWO_PI / m) * np.arange(m)


def compensated_csum(values) -> complex:
    """Compensated sum of a complex sequence (real and imaginary parts)."""
    a = np.asarray(values, dtype=complex)
    return complex(math.fsum(a.real), math.fsum(a.imag))


def trapezoid_periodic(values) -> float:
    """(2*pi/M) times the sum of real samples on the grid."""
    values = np.asarray(values, dtype=float)
    return (TWO_PI / values.size) * float(np.sum(values))


def _from_minus_pi(dft: np.ndarray, K: int) -> np.ndarray:
    """DFT terms 0..K times (-1)**k, in place: sums against exp(-i*k*theta_j) on the grid that starts at -pi."""
    c = dft[: K + 1]
    c[1::2] *= -1.0
    return c


def grid_coefficients(values, K: int) -> np.ndarray:
    """Trapezoidal c_0..c_K of real samples on the standard grid, K < M/2.

    c_0 = (1/M) sum f_j and c_k = (2/M) sum f_j exp(-i*k*theta_j), which is
    (2/M) * (-1)**k times the k-th DFT term because the grid starts at -pi.
    """
    c = _from_minus_pi(np.fft.rfft(values), K) * (2.0 / len(values))
    c[0] *= 0.5
    return c


def power_series(c, z) -> np.ndarray:
    """sum_k c[k] * z**k at every point of the array z, by Horner's rule."""
    c = np.asarray(c, dtype=complex)
    out = np.full(np.shape(z), c[-1])
    for ck in c[-2::-1]:
        out *= z
        out += ck
    return out


def _two_sum(a, b):
    """s, e with s = fl(a + b) and s + e == a + b exactly (Knuth's TwoSum), elementwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _step_parts(n: int) -> tuple[float, float, float]:
    """2*pi/n as a + b + t: a and b short enough that j*a and j*b are exact for j < 2**26, t the tail."""
    h = TWO_PI / n
    mant, exp = math.frexp(h)
    a = math.ldexp(math.floor(math.ldexp(mant, 26)), exp - 26)
    b = h - a
    # n*a, n*b and both differences are exact: each is a multiple of ulp(h) below 2**53 ulp(h)
    t = ((TWO_PI - n * a) - n * b + _TWO_PI_TAIL) / n
    return a, b, t


def _minus_steps(x, x_lo, j, parts):
    """(x + x_lo) - j * 2*pi/n to about eps of the result, for j*2*pi/n close to x."""
    a, b, t = parts
    x1, e1 = _two_sum(x, -j * a)
    x2, e2 = _two_sum(x1, -j * b)
    return x2 + (((x_lo + e1) + e2) - j * t)


def _full_period(theta):
    """(q, s, delta) with theta_j = 2*pi*q/n + s + 2*pi*j/n + delta_j and |s| <= pi/n, or None.

    None unless theta is a finite 1-D array of n angles whose offsets
    delta_j from the exact full-period grid are within 8 eps of the
    largest angle. s and every delta_j are accurate to about eps of
    themselves: 2*pi/n enters split into exact pieces and each difference
    is carried by TwoSum.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    if theta.ndim != 1 or not 1 <= n < 2**26 or not np.all(np.isfinite(theta)):
        return None
    parts = _step_parts(n)
    q = round(theta[0] * n / TWO_PI)
    if abs(q) >= 2**26:
        return None
    s = float(_minus_steps(theta[0], 0.0, q, parts))
    d, d_lo = _two_sum(theta, -theta[0])
    delta = _minus_steps(d, d_lo, np.arange(n, dtype=float), parts)
    if np.max(np.abs(delta)) > 8.0 * _EPS * np.max(np.abs(theta)):
        return None
    return q, s, delta


def _folded_sum(terms: np.ndarray, n: int) -> np.ndarray:
    """sum_k terms[k] * exp(2*pi*i*k*j/n) for j = 0..n-1: terms folded modulo n, one inverse FFT."""
    folds = -(-terms.size // n)
    padded = np.zeros(folds * n, dtype=complex)
    padded[: terms.size] = terms
    return np.fft.ifft(padded.reshape(folds, n).sum(axis=0), norm="forward")


def grid_power_series(c, theta, rho):
    """sum_k c[k] * (rho*exp(i*theta_j))**k on a full-period uniform grid, or None off one.

    theta must be a 1-D grid theta_j = theta_0 + 2*pi*j/n to within a few
    ulps (see ``_full_period``); otherwise the result is None and the
    caller falls back to ``power_series``. The result has the shape of
    ``disk_points(theta, rho)``. Per radius, c_k * rho**k * exp(i*k*theta_0)
    is folded modulo n and summed by one inverse FFT, at the exact angles
    theta_0 + 2*pi*j/n; a second folded FFT of i*k times the same terms,
    times the offsets delta_j of the given angles, moves each value to the
    angle given. The phase exp(i*k*theta_0) is the exact table entry of
    ``unit_phasors`` at k*q times exp(i*k*s) with |s| <= pi/n.
    """
    grid = _full_period(theta)
    if grid is None:
        return None
    q, s, delta = grid
    c = np.asarray(c, dtype=complex)
    n, k = delta.size, np.arange(c.size)
    phased = c * unit_phasors(n)[(k * q) % n] * np.exp(1j * s * k)
    radii = np.asarray(rho, dtype=float)
    out = np.empty((n, radii.size), dtype=complex)
    for r, radius in enumerate(radii.ravel()):
        terms = phased * radius ** k.astype(float)
        out[:, r] = _folded_sum(terms, n)
        if np.any(delta):
            out[:, r] += delta * _folded_sum(1j * k * terms, n)
    return out.reshape((n,) + radii.shape)


def disk_points(theta, rho) -> np.ndarray:
    """rho*exp(i*theta) on the theta x rho grid; non-finite angles raise ValueError."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    return np.multiply.outer(np.exp(1j * theta), np.asarray(rho, dtype=float))


def unit_phasors(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2*pi*i*j/m), j = 0..m-1.

    When m is divisible by 4 the table is assembled from one quadrant by
    exact rotations (multiplication by i and -1), so the identity
    ``table[j + m//2] == -table[j]`` holds bitwise. Sums over full orbits
    of the table then cancel exactly, which keeps contour quadrature of
    pure powers exact even after scaling by large rho**(-k) factors.
    """
    if m % 4 == 0:
        quarter = np.exp(2j * math.pi * np.arange(m // 4) / m)
        return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])
    return np.exp(2j * math.pi * np.arange(m) / m)


def check_aliasing(ratio: float, m: int) -> None:
    """Refuse an m-node rule whose aliasing scale ratio**m exceeds eps; 0 <= ratio < 1."""
    if ratio**m > _EPS:
        need = math.ceil(math.log(_EPS) / math.log(ratio))
        raise ValueError(f"aliasing scale {ratio:.6g}**M = {ratio**m:.3g} exceeds eps at M={m}; need M >= {need}")


def check_amplification(log_scale: float, power: int, rho: float, m: int, poles) -> float:
    """Refuse a roundoff amplification A = exp(log_scale) * rho**-power above 1/sqrt(eps); return A.

    The ValueError names the radii that pass both this rule and the
    aliasing rule for the given poles at m nodes, or, when no radius does,
    the smallest M that opens that window.
    """
    log_amp = log_scale - power * math.log(rho)
    if log_amp <= _LOG_AMP_MAX:
        return math.exp(log_amp)
    msg = f"roundoff amplification 10**{log_amp / math.log(10.0):.1f} exceeds 1/sqrt(eps) at radius {rho:.6g}"
    lo = math.exp((log_scale - _LOG_AMP_MAX) / power)
    nearest = min((abs(p) for p in poles if abs(p) > rho), default=math.inf)
    hi = min(1.0, nearest * _EPS ** (1.0 / m))
    if lo <= hi:
        # rounded inward, so that both printed ends pass
        raise ValueError(f"{msg}; use a radius in [{math.ceil(lo * 1e6) / 1e6:.6f}, {math.floor(hi * 1e6) / 1e6:.6f}]")
    if lo >= min(1.0, nearest):
        raise ValueError(f"{msg}; no radius up to {min(1.0, nearest):.6g} passes")
    need = math.ceil(math.log(_EPS) / math.log(lo / nearest))
    raise ValueError(f"{msg}; no radius passes at M={m}; need M >= {need}")


def circle_samples(w, rho: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes rho*exp(i*theta_j) on the standard grid and w at them, after the checks.

    A declared pole of w within 1e-9 of the circle raises EvaluationError;
    a circle whose aliasing scale (rho/R)**m, R the nearest declared pole
    outside it, exceeds eps raises ValueError, and so does a declared
    polynomial degree of w at or above m.
    """
    if rho <= 0.0:
        raise ValueError(f"circle radius must be positive, got {rho}")
    degree = getattr(w, "degree", None)
    if degree is not None and degree >= m:
        raise ValueError(f"polynomial of degree {degree} aliases on {m} nodes; need M >= {degree + 1}")
    poles = getattr(w, "pole_set", ())
    for p in poles:
        if abs(abs(p) - rho) < _POLE_CLASH_TOL:
            raise EvaluationError(f"pole at {p!r} lies on the integration circle of radius {rho}")
    outside = [abs(p) for p in poles if abs(p) > rho]
    if outside:
        check_aliasing(rho / min(outside), m)
    nodes = -rho * unit_phasors(m)
    return nodes, np.asarray(w(nodes), dtype=complex)


def circle_coefficients(w, K: int, rho: float, m: int) -> np.ndarray:
    """Trapezoid Cauchy coefficients c_0..c_K of w on the circle of radius rho, from one FFT.

    c_k = (1/m) sum_j w(z_j) z_j**-k at the nodes z_j = rho*exp(i*theta_j)
    of the standard grid, that is (-1)**k times the k-th DFT term over
    m * rho**k. The circle is checked by ``circle_samples``, and the
    amplification rho**-K by ``check_amplification``; error of order
    eps * max|w_j| * rho**-k.
    """
    if not 0 <= K <= m // 2 - 1:
        raise ValueError(f"need 0 <= K and M >= 2K + 2, got K={K}, M={m}")
    _, vals = circle_samples(w, rho, m)
    check_amplification(0.0, K, rho, m, getattr(w, "pole_set", ()))
    return _from_minus_pi(np.fft.fft(vals), K) / (m * rho ** np.arange(K + 1.0))


def phase_powers(m: int, p) -> np.ndarray:
    """exp(i*p*theta_j) on the standard grid, shape p.shape + (m,), by exact table lookup.

    Evaluating the power through the root-of-unity table avoids the noise
    of complex exponentiation and preserves the cancellation structure of
    the table.
    """
    p = np.asarray(p)[..., None]
    tab = unit_phasors(m)
    return np.where(p % 2, -1.0, 1.0) * tab[(p * np.arange(m)) % m]
