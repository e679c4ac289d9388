"""Known answers the benchmark checks the program's outputs against.

Nothing here imports inner_fourier. Every value comes from a closed form
or from a direct sum written out below with numpy and math alone, so a
fault in the program cannot hide in its own oracle. test_oracles.py
checks each formula against mpmath.

Conventions follow the program: c_0 = alpha_0/2, c_k = alpha_k - i*beta_k,
the uniform grid theta_j = -pi + 2*pi*j/M, and the damped sum at
z = rho*exp(i*theta) is Re sum c_k z**k (value) and Im sum c_k z**k
(conjugate).
"""

from __future__ import annotations

import math

import numpy as np


def grid(M: int) -> np.ndarray:
    """theta_j = -pi + 2*pi*j/M, j = 0..M-1."""
    return -math.pi + (2.0 * math.pi / M) * np.arange(M)


# -- samples on the uniform grid ------------------------------------------
# Jump samplers take the midpoint of the one-sided limits at the jumps:
# theta = -pi (node 0) for both, and theta = 0 (node M/2) for the square.


def square_samples(M: int) -> np.ndarray:
    s = np.sign(grid(M))
    s[0] = 0.0
    return s


def sawtooth_samples(M: int) -> np.ndarray:
    s = grid(M)
    s[0] = 0.0
    return s


def triangle_samples(M: int) -> np.ndarray:
    return np.abs(grid(M))


# -- trapezoid (aliasing-folded) coefficients -----------------------------
# The M-point trapezoid rule returns the continuous coefficients folded
# over every alias k + j*M. For these three functions the fold sums to a
# cotangent or cosecant (Trefethen & Weideman, SIAM Review 2014), valid
# for 1 <= k < M/2. Each returns (alpha0, alpha_1..K, beta_1..K).


def square_trapezoid(K: int, M: int):
    k = np.arange(1, K + 1)
    beta = np.where(k % 2 == 1, (4.0 / M) / np.tan(math.pi * k / M), 0.0)
    return 0.0, np.zeros(K), beta


def sawtooth_trapezoid(K: int, M: int):
    k = np.arange(1, K + 1)
    sign = np.where(k % 2 == 1, 1.0, -1.0)
    beta = 2.0 * sign * (math.pi / M) / np.tan(math.pi * k / M)
    return 0.0, np.zeros(K), beta


def triangle_trapezoid(K: int, M: int):
    k = np.arange(1, K + 1)
    alpha = np.where(
        k % 2 == 1, -(4.0 / math.pi) * (math.pi / M) ** 2 / np.sin(math.pi * k / M) ** 2, 0.0
    )
    return math.pi, alpha, np.zeros(K)


def poisson_coefficients(K: int, r: float, theta1: float):
    """Continuous coefficients of the Poisson kernel P_r(theta - theta1).

    The M-point trapezoid values differ by the aliases r**(M - k), which
    are below 1e-300 at the sizes the benchmark uses.
    """
    k = np.arange(1, K + 1)
    damp = r ** k.astype(float) / math.pi
    return 1.0 / math.pi, damp * np.cos(k * theta1), damp * np.sin(k * theta1)


# -- inner analytic functions in closed form ------------------------------
# Each returns w(z) = sum c_k z**k summed in full (harmonic extensions) or
# up to K in closed form (geometric sums); Re w is the damped sum and
# Im w the conjugate sum.


def square_extension(rho, theta):
    """Square wave: w = -(2i/pi) log((1 + z)/(1 - z)); Re w = (2/pi) atan2(2 rho sin, 1 - rho^2)."""
    rho, theta = np.asarray(rho, float), np.asarray(theta, float)
    re = (2.0 / math.pi) * np.arctan2(2.0 * rho * np.sin(theta), 1.0 - rho * rho)
    num = 1.0 + 2.0 * rho * np.cos(theta) + rho * rho
    den = 1.0 - 2.0 * rho * np.cos(theta) + rho * rho
    return re - 1j * (1.0 / math.pi) * np.log(num / den)


def sawtooth_extension(rho, theta):
    """Sawtooth: w = -2i log(1 + z); Re w = 2 atan2(rho sin, 1 + rho cos)."""
    rho, theta = np.asarray(rho, float), np.asarray(theta, float)
    re = 2.0 * np.arctan2(rho * np.sin(theta), 1.0 + rho * np.cos(theta))
    return re - 1j * np.log(1.0 + 2.0 * rho * np.cos(theta) + rho * rho)


def square_tail_bound(rho: float, K: int) -> float:
    """Bound on |w - (K-term sum)| for the square: (4/pi) rho^(K+1) / ((K+1)(1 - rho))."""
    return (4.0 / math.pi) * rho ** (K + 1) / ((K + 1) * (1.0 - rho))


def sawtooth_tail_bound(rho: float, K: int) -> float:
    """Bound on |w - (K-term sum)| for the sawtooth: 2 rho^(K+1) / ((K+1)(1 - rho))."""
    return 2.0 * rho ** (K + 1) / ((K + 1) * (1.0 - rho))


# The closed forms below lose about eps/|1 - zeta| near zeta = 1, which is
# where the damped point mass is probed. They are evaluated in long double
# (64-bit mantissa on x86) so that this loss stays below the program's own
# roundoff.


def geometric_sum(zeta, K: int):
    """sum_{k=1..K} zeta**k = zeta (1 - zeta^K) / (1 - zeta), for zeta != 1."""
    zeta = np.asarray(zeta, np.clongdouble)
    return (zeta * (1 - zeta**K) / (1 - zeta)).astype(complex)


def weighted_geometric_sum(zeta, K: int):
    """sum_{k=1..K} k zeta**k = zeta (1 - (K+1) zeta^K + K zeta^(K+1)) / (1 - zeta)^2."""
    zeta = np.asarray(zeta, np.clongdouble)
    zk = zeta**K
    return (zeta * (1 - (K + 1) * zk + K * zk * zeta) / (1 - zeta) ** 2).astype(complex)


def _zeta(rho, theta, theta1: float):
    """rho exp(i(theta - theta1)) in long double."""
    phase = np.asarray(theta, np.longdouble) - np.longdouble(theta1)
    return np.asarray(rho, np.longdouble) * (np.cos(phase) + 1j * np.sin(phase))


def delta_truncated(rho, theta, theta1: float, K: int, r: float = 1.0):
    """K-term w of the point mass at theta1, or of the Poisson kernel P_r with r < 1.

    c_0 = 1/(2 pi), c_k = r^k exp(-i k theta1)/pi, so
    w = 1/(2 pi) + (1/pi) sum_{k=1..K} zeta^k with zeta = r rho exp(i(theta - theta1)).
    """
    return 1.0 / (2.0 * math.pi) + geometric_sum(r * _zeta(rho, theta, theta1), K) / math.pi


def delta_derivative_truncated(rho, theta, theta1: float, K: int):
    """K-term w of the first derivative of the point mass: c_k = i k exp(-i k theta1)/pi."""
    return 1j * weighted_geometric_sum(_zeta(rho, theta, theta1), K) / math.pi


def delta_taylor(theta1: float, K: int) -> np.ndarray:
    """c_0..c_K of the point mass at theta1."""
    c = np.exp(-1j * np.arange(K + 1) * theta1) / math.pi
    c[0] = 1.0 / (2.0 * math.pi)
    return c


def horner(c, z):
    """Direct sum of c_k z**k by Horner's rule, at one point or an array of points."""
    z = np.asarray(z, complex)
    out = np.zeros_like(z)
    for ck in np.asarray(c, complex)[::-1]:
        out = out * z + ck
    return out


def abs_sum(c, r) -> np.ndarray:
    """sum |c_k| r**k, the size against which a sum's roundoff is measured."""
    r = np.asarray(r, float)
    out = np.zeros_like(r)
    for ck in np.abs(np.asarray(c, complex))[::-1]:
        out = out * r + ck
    return out


def geometric_remainder(z: complex, N: int) -> complex:
    """R_N(z) = 1/(1 - z) - sum_{k<N} z^k = z^N / (1 - z)."""
    return z**N / (1.0 - z)


# -- Gram matrices and disk products --------------------------------------


def fourier_gram_exact(K: int) -> np.ndarray:
    """(f|g)/pi over {1, cos 1..K, sin 1..K}: diag(2, 1, ..., 1)."""
    e = np.eye(2 * K + 1)
    e[0, 0] = 2.0
    return e


def taylor_gram_exact(K: int, rho0: float) -> np.ndarray:
    """Disk product of z^0..z^K on the circle rho0: diag(rho0^(2k))."""
    return np.diag(rho0 ** (2.0 * np.arange(K + 1)))


def disk_product(c1, c2, rho0: float) -> complex:
    """sum rho0^(2k) conj(c1_k) c2_k over the common length, summed exactly."""
    n = min(len(c1), len(c2))
    terms = rho0 ** (2.0 * np.arange(n)) * np.conj(c1[:n]) * c2[:n]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))
