"""Uniform grids, trapezoidal quadrature and the spectral core.

All integrals in this package are taken over [-pi, pi) on uniform grids.
On a periodic domain the trapezoidal rule collapses to the plain average
of the node values times the period; it is spectrally accurate for
integrands analytic in a strip around the real axis, and it is exactly a
discrete Fourier transform. Analysis (samples to coefficients) is
therefore one real FFT, ``grid_coefficients``, with error a small multiple
of eps * log2(M) times the largest sample. Synthesis (coefficients to
values of sum c_k z**k) is Horner's rule, ``power_series``, with error at
most 2(K+1) * eps * sum |c_k| |z|**k for the floating-point z given.

Contour integrals over a circle |z| = rho <= 1 sample w through
``circle_samples``, the one place circle nodes are built and checked. The
M-node trapezoid rule there aliases with error of order (rho/R)**M when w
is analytic out to radius R (Trefethen & Weideman, SIAM Review 2014).
With R the nearest declared pole outside the circle, the helper refuses a
circle where that scale exceeds eps, naming the smallest M that passes,
and a circle within 1e-9 of a declared pole. ``check_aliasing`` applies
the same rule to a pole of the integrand itself.

Results are bitwise reproducible for identical inputs. Compensated
(exactly rounded) sums are kept only where cancellation needs them: single
integrals in ``trapezoid_periodic``, and the contour sums of the Cauchy
coefficients, the residue identity, the disk product and the kernels
(``compensated_csum``), often over the exact phase tables of
``phase_powers``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_POLE_CLASH_TOL = 1e-9


def theta_grid(m: int, *, half_offset: bool = False) -> np.ndarray:
    """Uniform angles on [-pi, pi): theta_j = -pi + 2*pi*(j + off)/m.

    With ``half_offset`` the grid is shifted by half a step, which keeps
    every node strictly between the standard nodes. Used by integrands
    with a singularity pinned on a standard node.
    """
    if m < 2:
        raise ValueError(f"need at least 2 grid points, got {m}")
    off = 0.5 if half_offset else 0.0
    return -math.pi + (TWO_PI / m) * (np.arange(m) + off)


def compensated_csum(values) -> complex:
    """Compensated sum of a complex sequence (real and imaginary parts)."""
    a = np.asarray(values, dtype=complex)
    return complex(math.fsum(a.real), math.fsum(a.imag))


def trapezoid_periodic(values) -> float:
    """(2*pi/M) times the exactly rounded sum of real samples on the grid."""
    values = np.asarray(values, dtype=float)
    return (TWO_PI / values.size) * math.fsum(values)


def grid_coefficients(values, K: int) -> np.ndarray:
    """Trapezoidal c_0..c_K of real samples on the standard grid, K < M/2.

    c_0 = (1/M) sum f_j and c_k = (2/M) sum f_j exp(-i*k*theta_j), which is
    (2/M) * (-1)**k times the k-th DFT term because the grid starts at -pi.
    """
    c = np.fft.rfft(values)[: K + 1] * (2.0 / len(values))
    c[1::2] *= -1.0
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


def circle_samples(w, rho: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes rho*exp(i*theta_j) on the standard grid and w at them, after the checks.

    A declared pole of w within 1e-9 of the circle raises EvaluationError;
    a circle whose aliasing scale (rho/R)**m, R the nearest declared pole
    outside it, exceeds eps raises ValueError.
    """
    if rho <= 0.0:
        raise ValueError(f"circle radius must be positive, got {rho}")
    poles = getattr(w, "pole_set", ())
    for p in poles:
        if abs(abs(p) - rho) < _POLE_CLASH_TOL:
            raise EvaluationError(f"pole at {p!r} lies on the integration circle of radius {rho}")
    outside = [abs(p) for p in poles if abs(p) > rho]
    if outside:
        check_aliasing(rho / min(outside), m)
    nodes = -rho * unit_phasors(m)
    return nodes, np.asarray(w(nodes), dtype=complex)


def phase_powers(m: int, p) -> np.ndarray:
    """exp(i*p*theta_j) on the standard grid, shape p.shape + (m,), by exact table lookup.

    Evaluating the power through the root-of-unity table avoids the noise
    of complex exponentiation and preserves the cancellation structure of
    the table.
    """
    p = np.asarray(p)[..., None]
    tab = unit_phasors(m)
    return np.where(p % 2, -1.0, 1.0) * tab[(p * np.arange(m)) % m]
