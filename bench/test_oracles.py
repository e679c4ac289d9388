"""Each oracle of the benchmark against mpmath at a few points.

A wrong oracle would let a wrong program pass, so every formula in
oracles.py is checked here against an independent evaluation at 30
digits: a trapezoid sum, a long direct sum or a quadrature.

Run: python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

import oracles as O

mp.mp.dps = 30


def _mp_grid(M):
    return [-mp.pi + 2 * mp.pi * j / M for j in range(M)]


def _mp_trapezoid(samples, M, k, trig):
    return 2 * mp.fsum(f * trig(k * t) for f, t in zip(samples, _mp_grid(M))) / M


@pytest.mark.parametrize("M", [64, 4096])
def test_trapezoid_coefficients(M):
    grid = _mp_grid(M)
    square = [mp.mpf(0) if j in (0, M // 2) else mp.sign(t) for j, t in enumerate(grid)]
    sawtooth = [mp.mpf(0)] + grid[1:]
    triangle = [abs(t) for t in grid]
    K = 31
    for k in (1, 2, 3, 10, K):
        _, sq_a, sq_b = O.square_trapezoid(K, M)
        _, sw_a, sw_b = O.sawtooth_trapezoid(K, M)
        tr_a0, tr_a, tr_b = O.triangle_trapezoid(K, M)
        assert abs(sq_b[k - 1] - _mp_trapezoid(square, M, k, mp.sin)) < 1e-15
        assert abs(sw_b[k - 1] - _mp_trapezoid(sawtooth, M, k, mp.sin)) < 1e-15
        assert abs(tr_a[k - 1] - _mp_trapezoid(triangle, M, k, mp.cos)) < 1e-15
        assert sq_a[k - 1] == sw_a[k - 1] == tr_b[k - 1] == 0.0
        assert abs(_mp_trapezoid(square, M, k, mp.cos)) < 1e-25
        assert abs(_mp_trapezoid(triangle, M, k, mp.sin)) < 1e-25
    assert abs(tr_a0 - _mp_trapezoid(triangle, M, 0, mp.cos)) < 1e-15


def test_poisson_coefficients():
    r, theta1 = 0.5, 0.9
    a0, alpha, beta = O.poisson_coefficients(8, r, theta1)

    def kernel(t):
        return (1 - r * r) / (2 * mp.pi * (1 - 2 * r * mp.cos(t - theta1) + r * r))

    assert abs(a0 - mp.quad(kernel, [-mp.pi, mp.pi]) / mp.pi) < 1e-15
    for k in (1, 5, 8):
        a = mp.quad(lambda t: kernel(t) * mp.cos(k * t), [-mp.pi, mp.pi]) / mp.pi
        b = mp.quad(lambda t: kernel(t) * mp.sin(k * t), [-mp.pi, mp.pi]) / mp.pi
        assert abs(alpha[k - 1] - a) < 1e-15 and abs(beta[k - 1] - b) < 1e-15


def _mp_series(coef, rho, theta, K):
    z = mp.mpf(rho) * mp.expj(theta)
    return mp.fsum(coef(k) * z**k for k in range(1, K + 1))


SQUARE = lambda k: -1j * 4 / (mp.pi * k) if k % 2 else 0  # noqa: E731
SAWTOOTH = lambda k: -1j * 2 * (-1) ** (k + 1) / mp.mpf(k)  # noqa: E731


@pytest.mark.parametrize("rho,theta", [(0.5, 0.7), (0.9, -2.0), (0.3, 3.0)])
def test_extensions_and_tail_bounds(rho, theta):
    K_full = 900  # rho**900 < 1e-40
    for ext, coef, bound in (
        (O.square_extension, SQUARE, O.square_tail_bound),
        (O.sawtooth_extension, SAWTOOTH, O.sawtooth_tail_bound),
    ):
        full = _mp_series(coef, rho, theta, K_full)
        assert abs(complex(ext(rho, theta)) - complex(full)) < 1e-14
        for K in (5, 20):
            tail = abs(full - _mp_series(coef, rho, theta, K))
            assert tail <= bound(rho, K)


@pytest.mark.parametrize("rho,phi", [(0.5, 1.0), (0.999, 0.01), (1.0, 2.5), (0.25, -3.0)])
def test_geometric_closed_forms(rho, phi):
    K = 50
    zeta = mp.mpf(rho) * mp.expj(phi)
    direct = mp.fsum(zeta**k for k in range(1, K + 1))
    weighted = mp.fsum(k * zeta**k for k in range(1, K + 1))
    z = complex(zeta)
    assert abs(complex(O.geometric_sum(z, K)) - complex(direct)) < 1e-12 * max(1.0, abs(direct))
    assert abs(complex(O.weighted_geometric_sum(z, K)) - complex(weighted)) < 1e-12 * max(1.0, abs(weighted))


def test_delta_families_match_their_coefficients():
    K, theta1, rho, theta = 40, 0.7, 0.95, -0.4
    c = O.delta_taylor(theta1, K)
    z = mp.mpf(rho) * mp.expj(theta)
    direct = mp.fsum(mp.mpc(c[k]) * z**k for k in range(K + 1))
    assert abs(complex(O.delta_truncated(rho, theta, theta1, K)) - complex(direct)) < 1e-13
    r = 0.5
    poisson = mp.fsum(mp.mpc(c[k]) * mp.mpf(r) ** k * z**k for k in range(K + 1))
    assert abs(complex(O.delta_truncated(rho, theta, theta1, K, r)) - complex(poisson)) < 1e-13
    derivative = mp.fsum(1j * k * mp.mpc(c[k]) * z**k for k in range(K + 1))
    assert abs(complex(O.delta_derivative_truncated(rho, theta, theta1, K)) - complex(derivative)) < 1e-12
    assert abs(c[0] - 1 / (2 * math.pi)) < 1e-17
    assert abs(c[3] - complex(mp.expj(-3 * theta1) / mp.pi)) < 1e-16


def test_direct_sums_and_remainder():
    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
    z = 0.6 * np.exp(1.1j)
    direct = mp.fsum(mp.mpc(ck) * mp.mpc(z) ** k for k, ck in enumerate(c))
    assert abs(complex(O.horner(c, z)) - complex(direct)) < 1e-14
    assert abs(float(O.abs_sum(c, 0.6)) - float(mp.fsum(abs(ck) * mp.mpf(0.6) ** k for k, ck in enumerate(c)))) < 1e-14
    for N in (1, 7, 24):
        zz = mp.mpc(z)
        exact = 1 / (1 - zz) - mp.fsum(zz**k for k in range(N))
        assert abs(O.geometric_remainder(z, N) - complex(exact)) < 1e-15


def test_gram_and_disk_products():
    K, rho0 = 3, 0.8
    basis = [lambda t: 1] + [lambda t, k=k: mp.cos(k * t) for k in range(1, K + 1)]
    basis += [lambda t, k=k: mp.sin(k * t) for k in range(1, K + 1)]
    exact = O.fourier_gram_exact(K)
    for i, j in ((0, 0), (1, 1), (K + 2, K + 2), (0, 2), (1, K + 1), (2, 5)):
        g = mp.quad(lambda t: basis[i](t) * basis[j](t), [-mp.pi, mp.pi]) / mp.pi
        assert abs(exact[i, j] - g) < 1e-15
    tg = O.taylor_gram_exact(K, rho0)
    for k1, k2 in ((0, 0), (2, 2), (1, 3)):
        g = mp.quad(
            lambda t: mp.conj((rho0 * mp.expj(t)) ** k1) * (rho0 * mp.expj(t)) ** k2, [-mp.pi, mp.pi]
        ) / (2 * mp.pi)
        assert abs(tg[k1, k2] - g) < 1e-15
    rng = np.random.default_rng(5)
    c1 = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    c2 = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    w1 = lambda t: mp.fsum(mp.mpc(c) * (rho0 * mp.expj(t)) ** k for k, c in enumerate(c1))  # noqa: E731
    w2 = lambda t: mp.fsum(mp.mpc(c) * (rho0 * mp.expj(t)) ** k for k, c in enumerate(c2))  # noqa: E731
    g = mp.quad(lambda t: mp.conj(w1(t)) * w2(t), [-mp.pi, mp.pi]) / (2 * mp.pi)
    assert abs(O.disk_product(c1, c2, rho0) - complex(g)) < 1e-14
