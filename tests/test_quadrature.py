"""The spectral core against independent oracles.

Analysis (one real FFT) is checked against the trapezoid sums written out
directly with exactly rounded summation, and synthesis (Horner's rule)
against an mpmath sum at the same floating-point points, within the error
bounds stated in the quadrature module.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from inner_fourier import PeriodicFunction, fourier_coefficients
from inner_fourier.quadrature import disk_points, power_series

EPS = np.finfo(float).eps
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def direct_trapezoid(f: np.ndarray, K: int) -> tuple[float, np.ndarray, np.ndarray]:
    """alpha_0, alpha_k, beta_k as (2/M) * fsum of f * cos/sin(k*theta_j), k = 1..K.

    k*theta_j = -k*pi + 2*pi*((k*j) mod M)/M, so each node phase is formed
    from an exact integer residue rather than a rounded product.
    """
    m = f.size
    j = np.arange(m)
    alpha = np.empty(K + 1)
    beta = np.empty(K + 1)
    for k in range(K + 1):
        phase = 2.0 * math.pi * ((k * j) % m) / m
        sign = -1.0 if k % 2 else 1.0
        alpha[k] = sign * (2.0 / m) * math.fsum(f * np.cos(phase))
        beta[k] = sign * (2.0 / m) * math.fsum(f * np.sin(phase))
    return alpha[0], alpha[1:], beta[1:]


@_SETTINGS
@given(
    m=st.integers(4, 512),
    data=st.data(),
)
def test_analysis_matches_direct_trapezoid_sums(m, data):
    K = data.draw(st.integers(1, m // 2 - 1), label="K")
    f = np.array(
        data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m), label="samples")
    )
    fc = fourier_coefficients(PeriodicFunction.from_samples(f), K)
    alpha0, alpha, beta = direct_trapezoid(f, K)
    tol = 4.0 * EPS * math.log2(m) * float(np.max(np.abs(f)))
    assert abs(fc.alpha0 - alpha0) <= tol
    assert np.max(np.abs(fc.alpha - alpha)) <= tol
    assert np.max(np.abs(fc.beta - beta)) <= tol


def _complex_lists(n_min, n_max):
    part = st.floats(-1e3, 1e3)
    return st.lists(st.builds(complex, part, part), min_size=n_min, max_size=n_max)


@_SETTINGS
@given(
    c=_complex_lists(1, 65),
    thetas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4),
    rho=st.floats(0.0, 1.0),
)
def test_synthesis_matches_mpmath_within_stated_bound(c, thetas, rho):
    z = disk_points(np.array(thetas), rho)
    values = power_series(np.array(c), z)
    assert values.shape == z.shape
    K = len(c) - 1
    mpmath.mp.dps = 60
    for zi, vi in zip(z, values):
        exact = mpmath.fsum(
            mpmath.mpc(ck.real, ck.imag) * mpmath.mpc(zi.real, zi.imag) ** k
            for k, ck in enumerate(c)
        )
        bound = 2 * (K + 1) * EPS * math.fsum(abs(ck) * abs(zi) ** k for k, ck in enumerate(c))
        assert abs(complex(exact) - vi) <= bound


def test_synthesis_shapes_follow_the_theta_by_rho_grid():
    c = np.array([1.0, 2.0, 3.0])
    assert power_series(c, disk_points(0.3, 0.5)).shape == ()
    assert power_series(c, disk_points(np.zeros(5), [0.1, 0.2])).shape == (5, 2)
    assert power_series(c, disk_points(0.0, 0.5)) == 1.0 + 2.0 * 0.5 + 3.0 * 0.25
