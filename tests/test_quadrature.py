"""The spectral core against independent oracles.

Analysis (one real FFT) is checked against the trapezoid sums written out
directly with exactly rounded summation, and both synthesis evaluators
(Horner's rule, and the folded inverse FFT on full-period grids) against
an mpmath sum at the same floating-point angles, within the error bounds
stated in the quadrature module.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from inner_fourier import PeriodicFunction, TaylorCoefficients, TaylorSeries, fourier_coefficients
from inner_fourier.quadrature import (
    TWO_PI,
    circle_coefficients,
    disk_points,
    grid_power_series,
    phase_powers,
    power_series,
)

EPS = np.finfo(float).eps


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


@given(
    c=_complex_lists(2, 40),
    rho=st.floats(0.7, 1.0),  # 0.7**-39 keeps the amplification below 1/sqrt(eps)
    m=st.sampled_from([64, 96, 128, 256]),
)
def test_circle_transform_matches_direct_cauchy_sums(c, rho, m):
    # (1/m) * sum_j w(z_j) * exp(-i*k*theta_j) / rho**k, summed exactly for each k
    w = TaylorSeries(TaylorCoefficients(np.array(c)))
    K = len(c) - 1
    got = circle_coefficients(w, K, rho, m)
    vals = w(rho * phase_powers(m, 1))
    for k in range(K + 1):
        terms = vals * phase_powers(m, -k)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag)) / (m * rho**k)
        bound = 4.0 * EPS * math.log2(m) * float(np.max(np.abs(vals))) * rho**-k
        assert abs(got[k] - want) <= bound


def test_synthesis_shapes_follow_the_theta_by_rho_grid():
    c = np.array([1.0, 2.0, 3.0])
    assert power_series(c, disk_points(0.3, 0.5)).shape == ()
    assert power_series(c, disk_points(np.zeros(5), [0.1, 0.2])).shape == (5, 2)
    assert power_series(c, disk_points(0.0, 0.5)) == 1.0 + 2.0 * 0.5 + 3.0 * 0.25
    grid = np.linspace(-math.pi, math.pi, 5, endpoint=False)
    assert grid_power_series(c, grid, 0.5).shape == (5,)
    assert grid_power_series(c, grid, [0.1, 0.2]).shape == (5, 2)


@pytest.mark.parametrize("K, m", [(5, 11), (-1, 64)])
def test_circle_transform_needs_2k_plus_2_nodes(K, m):
    w = TaylorSeries(TaylorCoefficients(np.array([1.0, 2.0], dtype=complex)))
    with pytest.raises(ValueError, match="M >= 2K \\+ 2"):
        circle_coefficients(w, K, 0.5, m)


@given(
    c=_complex_lists(1, 65),
    n=st.integers(1, 96),
    theta0=st.floats(-20.0, 20.0),
    radii=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
@example(c=[1 + 2j, 3 - 1j, 0.5j, -2.0], n=8, theta0=-math.pi, radii=[0.0])  # rho = 0
@example(c=[1.0 + 1j] * 41, n=7, theta0=12.5, radii=[0.5, 0.99, 1.0])  # n <= K, theta0 past pi
@example(c=[0.25 - 1j, 2.0, -1j], n=64, theta0=-9.0, radii=[0.3])  # n > K + 1
@example(c=[1.0 - 0.5j] * 65, n=96, theta0=-19.7, radii=[1.0])  # angles ulps off the exact grid, k up to 64
def test_grid_synthesis_matches_mpmath_within_stated_bound(c, n, theta0, radii):
    theta = theta0 + (TWO_PI / n) * np.arange(n)
    values = grid_power_series(np.array(c), theta, np.array(radii))
    assert values.shape == (n, len(radii))
    K = len(c) - 1
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(ck.real, ck.imag) for ck in reversed(c)]
        for r, rho in enumerate(radii):
            scale = math.fsum(abs(ck) * rho**k for k, ck in enumerate(c))
            bound = (2.0 * K / n + 2.0 * math.log2(n) + 4.0) * EPS * scale
            for t, v in zip(theta.tolist(), values[:, r]):
                exact = mpmath.polyval(coeffs, mpmath.mpf(rho) * mpmath.expj(mpmath.mpf(t)))
                assert abs(complex(exact) - v) <= bound


@pytest.mark.parametrize(
    "theta",
    [
        np.linspace(-math.pi, math.pi, 16, endpoint=False)[:-1],  # one node short of the period
        np.linspace(0.0, 1.0, 8),
        np.linspace(-math.pi, math.pi, 16, endpoint=False) + 1e-12 * np.arange(16),
        np.linspace(-math.pi, math.pi, 16, endpoint=False).reshape(4, 4),
        np.r_[np.linspace(-math.pi, math.pi, 7, endpoint=False), math.nan],
        np.array(0.3),
    ],
    ids=["short", "partial_arc", "perturbed", "two_dimensional", "nan", "scalar"],
)
def test_grid_synthesis_declines_other_angles(theta):
    assert grid_power_series(np.array([1.0, 2.0, 3.0]), theta, 0.5) is None

