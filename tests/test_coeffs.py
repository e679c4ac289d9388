import math

import numpy as np
import pytest
from conftest import oracle_cos_coefficient, oracle_sin_coefficient, sawtooth_expr
from hypothesis import given
from hypothesis import strategies as st

from inner_fourier import (
    EvaluationError,
    FourierCoefficients,
    PeriodicFunction,
    TaylorCoefficients,
    TaylorSeries,
    coefficients_by_cauchy,
    delta_inner,
    fourier_coefficients,
    from_taylor,
    resolve,
    to_taylor,
    trig_poly_entry,
)
from inner_fourier.quadrature import theta_grid


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_stored_arrays_are_read_only_copies(as_list):
    a, b, c, f = np.arange(1.0, 4.0), np.arange(4.0, 7.0), np.arange(3.0) + 1j, np.linspace(0.0, 1.0, 4)
    wrap = (lambda x: x.tolist()) if as_list else (lambda x: x)
    fc = FourierCoefficients(0.5, wrap(a), wrap(b))
    tc = TaylorCoefficients(wrap(c))
    pf = PeriodicFunction(name="f", samples=wrap(f))
    for stored, given_array in [(fc.alpha, a), (fc.beta, b), (tc.c, c), (pf.samples, f)]:
        assert not stored.flags.writeable and stored.flags.owndata
        assert not np.shares_memory(stored, given_array)
        with pytest.raises(ValueError):
            stored[0] = 9.0
    # the caller's arrays stay writable, and writing to them leaves the stored copies alone
    a[0] = c[0] = f[0] = 9.0
    assert fc.alpha[0] == 1.0 and tc.c[0] == 1j and pf.samples[0] == 0.0


def test_constant_function_coefficients():
    fc = fourier_coefficients(resolve("const").function, 4)
    assert fc.alpha0 == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(fc.alpha)) < 1e-14
    assert np.max(np.abs(fc.beta)) < 1e-14


def test_single_harmonic_coefficients():
    fc = fourier_coefficients(resolve("cos_3").function, 4, 32)
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.max(np.abs(fc.alpha - expected)) < 1e-14
    assert np.max(np.abs(fc.beta)) < 1e-14
    assert abs(fc.alpha0) < 1e-14


def test_sawtooth_coefficients_match_symbolic_integrals():
    fc = fourier_coefficients(resolve("sawtooth").function, 3, 4096)
    for k in range(1, 4):
        assert fc.beta[k - 1] == pytest.approx(oracle_sin_coefficient(sawtooth_expr(), k), abs=1e-5)
        assert abs(fc.alpha[k - 1]) < 1e-12
    assert abs(fc.alpha0) < 1e-12


def test_quadrature_point_precondition():
    with pytest.raises(ValueError, match="2K"):
        fourier_coefficients(resolve("const").function, 8, 17)


def test_singular_point_on_grid_raises():
    f = PeriodicFunction("recip", fn=lambda t: 1.0 / t)
    with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match="non finite"):
        f.on_grid(64)  # even grid hits theta = 0
    vals = f.on_grid(63)  # odd grid avoids it
    assert np.all(np.isfinite(vals))


def test_sampled_function_requires_matching_grid():
    f = PeriodicFunction("samples", samples=np.ones(32))
    with pytest.raises(ValueError, match="32"):
        fourier_coefficients(f, 4, 64)
    fc = fourier_coefficients(f, 4, 32)
    assert fc.alpha0 == pytest.approx(2.0, abs=1e-14)


def test_to_taylor_examples():
    fc = FourierCoefficients(2.0, np.zeros(3), np.zeros(3))
    tc = to_taylor(fc)
    assert tc.c[0] == 1.0 + 0.0j
    assert np.all(tc.c[1:] == 0.0)

    theta1 = 0.7
    dc = delta_inner(theta1).taylor(8)
    k = np.arange(1, 9)
    assert np.max(np.abs(dc.c[1:] - np.exp(-1j * k * theta1) / math.pi)) < 1e-15

    fc = FourierCoefficients(0.0, np.array([1.0]), np.array([1.0]))
    assert to_taylor(fc).c[1] == 1.0 - 1.0j


def test_from_taylor_examples():
    tc = TaylorCoefficients(np.array([1.0, 0.0], dtype=complex))
    assert from_taylor(tc).alpha0 == 2.0

    tc = TaylorCoefficients(np.array([0.0, 1.0 - 1.0j]))
    fc = from_taylor(tc)
    assert fc.alpha[0] == 1.0 and fc.beta[0] == 1.0

    with pytest.raises(ValueError, match="c_0"):
        from_taylor(TaylorCoefficients(np.array([1.0j, 0.0])))


def test_roundtrips_are_exact(rng):
    for _ in range(20):
        K = int(rng.integers(1, 40))
        fc = FourierCoefficients(
            float(rng.standard_normal()), rng.standard_normal(K), rng.standard_normal(K)
        )
        back = from_taylor(to_taylor(fc))
        assert back.alpha0 == fc.alpha0
        assert np.array_equal(back.alpha, fc.alpha)
        assert np.array_equal(back.beta, fc.beta)

        tc = TaylorCoefficients(rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1))
        tc = TaylorCoefficients(np.concatenate([[tc.c[0].real], tc.c[1:]]))  # real c_0
        again = to_taylor(from_taylor(tc))
        assert np.array_equal(again.c, tc.c)


def test_quadrature_exact_for_trig_polynomials(rng):
    for _ in range(10):
        d = int(rng.integers(1, 9))
        entry = trig_poly_entry(
            float(rng.uniform(-2, 2)), rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        )
        K = d + int(rng.integers(0, 4))
        want = entry.coefficients(K)
        got = fourier_coefficients(entry.function, K, max(K + d + 2, 2 * K + 2))
        assert abs(got.alpha0 - want.alpha0) < 1e-12
        assert np.max(np.abs(got.alpha - want.alpha)) < 1e-12
        assert np.max(np.abs(got.beta - want.beta)) < 1e-12


def test_linearity_on_shared_grids(rng):
    M, K = 128, 8
    f = resolve("triangle").function.on_grid(M)
    g = resolve("cos_2").function.on_grid(M)
    a, b = 1.7, -0.4
    combo = PeriodicFunction("samples", samples=a * f + b * g)
    fc = fourier_coefficients(combo, K, M)
    ff = fourier_coefficients(PeriodicFunction("samples", samples=f), K, M)
    fg = fourier_coefficients(PeriodicFunction("samples", samples=g), K, M)
    assert fc.alpha0 == pytest.approx(a * ff.alpha0 + b * fg.alpha0, abs=1e-13)
    assert np.allclose(fc.alpha, a * ff.alpha + b * fg.alpha, atol=1e-13)
    assert np.allclose(fc.beta, a * ff.beta + b * fg.beta, atol=1e-13)


def test_cauchy_coefficients_monomial():
    w = TaylorSeries(TaylorCoefficients(np.array([0, 0, 1], dtype=complex)))
    assert abs(coefficients_by_cauchy(w, 2, 0.5, 64) - 1.0) < 1e-12
    assert abs(coefficients_by_cauchy(w, 1, 0.5, 64)) < 1e-12


def test_cauchy_coefficients_point_mass():
    # geometric expansion of the closed form: z/(z - z1) = -sum (z/z1)^k,
    # so c_k = exp(-i k theta1)/pi for k >= 1, here +1/pi at theta1 = 0
    w = delta_inner(0.0)
    got = coefficients_by_cauchy(w, 1, 0.9, 4096)
    assert abs(got - 1.0 / math.pi) < 1e-8


def test_cauchy_coefficients_radius_independent(rng):
    c = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    tc = TaylorCoefficients(c)
    w = TaylorSeries(tc)
    for rho in (0.3, 0.7, 0.999):
        for k in range(7):
            assert abs(coefficients_by_cauchy(w, k, rho, 256) - c[k]) < 1e-10


def test_cauchy_pole_on_circle_rejected():
    with pytest.raises(EvaluationError, match="pole"):
        coefficients_by_cauchy(delta_inner(0.0), 1, 1.0, 256)


@pytest.mark.parametrize("rho", [0.0, -0.5, 1.5])
def test_cauchy_radius_outside_its_range_refused(rho):
    w = TaylorSeries(TaylorCoefficients(np.array([1.0, 2.0], dtype=complex)))
    with pytest.raises(ValueError, match="need 0 < rho <= 1"):
        coefficients_by_cauchy(w, 0, rho, 64)


_REAL = st.floats(-1e6, 1e6)


@st.composite
def fourier_triples(draw, K=None):
    K = K if K is not None else draw(st.integers(1, 32))
    arrays = [draw(st.lists(_REAL, min_size=K, max_size=K)) for _ in range(2)]
    return FourierCoefficients(draw(_REAL), np.array(arrays[0]), np.array(arrays[1]))


@given(fc=fourier_triples(), c=st.lists(st.builds(complex, _REAL, _REAL), min_size=2, max_size=33))
def test_coefficient_map_round_trips(fc, c):
    back = from_taylor(to_taylor(fc))
    # alpha_0 passes through c_0 = alpha_0/2, which can lose the last bit of a subnormal
    assert abs(back.alpha0 - fc.alpha0) <= np.finfo(float).smallest_subnormal
    assert np.array_equal(back.alpha, fc.alpha)
    assert np.array_equal(back.beta, fc.beta)
    tc = TaylorCoefficients(np.r_[c[0].real, c[1:]])  # a real c_0, as from_taylor requires
    assert np.array_equal(to_taylor(from_taylor(tc)).c, tc.c)


@given(data=st.data(), K=st.integers(1, 32), a=_REAL, b=_REAL)
def test_coefficient_map_is_linear(data, K, a, b):
    f, g = data.draw(fourier_triples(K), label="f"), data.draw(fourier_triples(K), label="g")
    combo = FourierCoefficients(
        a * f.alpha0 + b * g.alpha0, a * f.alpha + b * g.alpha, a * f.beta + b * g.beta
    )
    want = a * to_taylor(f).c + b * to_taylor(g).c
    scale = abs(a) * np.abs(to_taylor(f).c) + abs(b) * np.abs(to_taylor(g).c)
    assert np.all(np.abs(to_taylor(combo).c - want) <= 4 * np.finfo(float).eps * scale)


def test_coefficients_whose_unnormalised_sums_overflow_are_returned():
    # the FFT sums 2a, but c_1 = (2/M) * sum f_j exp(-i*theta_j) = a*(i - 1) on the grid from -pi
    a = 1.79e308
    fc = fourier_coefficients(PeriodicFunction("samples", samples=[a, a, -a, -a]), 1)
    assert fc.alpha0 == 0.0
    assert to_taylor(fc).c[1] == complex(-a, a)


def test_coefficient_past_the_double_range_is_still_refused():
    a = 1.79e308
    # alpha_0 = 2 * mean = 2a
    with pytest.raises(EvaluationError, match="overflow a double"):
        fourier_coefficients(PeriodicFunction("samples", samples=[a, a, a, a]), 1)
    # a * sign(cos(theta_j)) on 8 nodes: alpha_1 = (1 + sqrt(2)) * a / 2 = 1.21a
    samples = a * np.sign(np.round(np.cos(theta_grid(8)), 12))
    with pytest.raises(EvaluationError, match="overflow a double"):
        fourier_coefficients(PeriodicFunction("samples", samples=samples), 1)
    fc = fourier_coefficients(PeriodicFunction("samples", samples=samples / 2.0), 1)
    assert fc.alpha[0] == pytest.approx((1.0 + math.sqrt(2.0)) / 4.0 * a, rel=1e-15)
