import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    oracle_cos_coefficient,
    oracle_poisson_kernel,
    oracle_sin_coefficient,
    square_wave_expr,
    triangle_expr,
)

from inner_fourier import (
    ClosedForm,
    catalog_ids,
    delta_inner,
    fourier_coefficients,
    from_taylor,
    resolve,
    to_taylor,
)
from inner_fourier.quadrature import circle_coefficients, theta_grid

# grid sizes M at which the trapezoid rule meets 1e-8; a trig polynomial of degree d takes 4*d + 256
SELF_TESTABLE = [
    ("zero", 260),
    ("const", 260),
    ("cos_3", 268),
    ("sin_5", 276),
    ("square", 262144),
    ("sawtooth", 262144),
    ("triangle", 65536),
    ("poisson", 2048),
]


@pytest.mark.parametrize("name, M", SELF_TESTABLE, ids=[name for name, _ in SELF_TESTABLE])
def test_generator_agrees_with_quadrature(name, M):
    entry = resolve(name)
    K = 8
    want = entry.coefficients(K)
    got = fourier_coefficients(entry.function, K, M)
    assert abs(got.alpha0 - want.alpha0) <= 1e-8
    assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-8
    assert np.max(np.abs(got.beta - want.beta)) <= 1e-8


def _delta_derivative_inner(theta1: float) -> ClosedForm:
    # i*z*d/dz of the point mass's inner function
    z1 = complex(math.cos(theta1), math.sin(theta1))
    return ClosedForm(lambda z: 1j * z * z1 / (math.pi * (z - z1) ** 2), pole_set=(z1,))


@pytest.mark.parametrize(
    "name, params, inner",
    [
        ("delta", {}, delta_inner),
        ("delta_derivative", {}, _delta_derivative_inner),
        ("delta_derivative", {}, lambda theta1: delta_inner(theta1, 1)),
        ("delta_derivative", {"order": 3}, lambda theta1: delta_inner(theta1, 3)),
    ],
    ids=[
        "delta-delta_inner",
        "delta_derivative-_delta_derivative_inner",
        "delta_derivative-order1",
        "delta_derivative-order3",
    ],
)
def test_distribution_generator_agrees_with_cauchy_coefficients(name, params, inner):
    # the paper defines these coefficients as Taylor coefficients of w, read on a circle rho < 1;
    # the hand-written derivative is the oracle that delta_inner(theta1, 1) must match
    theta1, K, rho, M = 0.7, 64, 0.9, 4096
    w = inner(theta1)
    want = to_taylor(resolve(name, theta1=theta1, **params).coefficients(K)).c
    got = circle_coefficients(w, K, rho, M)
    bound = np.finfo(float).eps * float(np.max(np.abs(w(rho * np.exp(1j * theta_grid(M)))))) * rho**-K
    assert np.max(np.abs(got - want)) <= bound


def test_square_generator_matches_symbolic_integrals():
    fc = resolve("square").coefficients(6)
    for k in range(1, 7):
        assert fc.beta[k - 1] == pytest.approx(oracle_sin_coefficient(square_wave_expr(), k), abs=1e-15)


def test_triangle_generator_matches_symbolic_integrals():
    fc = resolve("triangle").coefficients(6)
    assert fc.alpha0 == pytest.approx(oracle_cos_coefficient(triangle_expr(), 0), abs=1e-15)
    for k in range(1, 7):
        assert fc.alpha[k - 1] == pytest.approx(oracle_cos_coefficient(triangle_expr(), k), abs=1e-15)


def test_poisson_entry_is_damped_point_mass():
    entry = resolve("poisson", r=0.7, theta1=0.3)
    fc = entry.coefficients(5)
    k = np.arange(1, 6)
    assert np.allclose(fc.alpha, 0.7**k * np.cos(k * 0.3) / math.pi, atol=1e-15)
    assert fc.alpha0 == pytest.approx(1.0 / math.pi)


@pytest.mark.parametrize("theta", [0.5, 2.0, 1e-6])
def test_poisson_sampler_matches_mpmath_near_the_circle(theta):
    # r**2 needs more than 53 bits here, so a kernel formed with 1 - r*r is 4.7e-10 off
    r = 1.0 - 2.0**-30
    got = resolve("poisson", r=r, theta1=0.0).function.fn(np.array([theta]))[0]
    want = oracle_poisson_kernel(theta, 0.0, r)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("name", [{"cos_<k>": "cos_3", "sin_<k>": "sin_5"}.get(i, i) for i in catalog_ids()])
def test_coefficients_are_the_taylor_sequence_read_back(name):
    # every entry generates Taylor coefficients; from_taylor is the one conversion
    entry = resolve(name)
    for K in (5, 64):
        want, got = from_taylor(entry.taylor(K)), entry.coefficients(K)
        assert got.alpha0 == want.alpha0
        assert got.alpha.tobytes() == want.alpha.tobytes() and got.beta.tobytes() == want.beta.tobytes()


@pytest.mark.parametrize("r", [1.0, -0.1, math.nan])
def test_poisson_entry_refuses_a_radius_off_the_open_disk(r):
    with pytest.raises(ValueError) as exc:
        resolve("poisson", r=r)
    assert str(exc.value) == f"need 0 <= r < 1, got {r}"


def test_distribution_entries_have_no_sampler():
    entry = resolve("delta", theta1=0.1)
    assert entry.function is None
    assert entry.coefficients(4).alpha0 == pytest.approx(1.0 / math.pi)


@pytest.mark.parametrize("name, params", [("square", {"theta1": 1.0}), ("cos_3", {"order": 2}), ("delta", {"r": 0.5})])
def test_parameter_the_entry_does_not_take_is_refused(name, params):
    with pytest.raises(ValueError, match=f"takes no parameter {next(iter(params))}"):
        resolve(name, **params)


def test_unknown_id():
    for name in ("parabola", "cos_0"):
        with pytest.raises(ValueError) as exc:
            resolve(name)
        assert str(exc.value) == f"unknown catalog id {name!r}; known: {', '.join(catalog_ids())}"


@pytest.mark.parametrize("name", ["cos_2000000", "sin_2000000"])
def test_harmonic_above_K_is_refused_before_its_series_is_built(name):
    # building the 2,000,001-entry series first took about 94 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{name} has degree 2000000; need K >= 2000000$"):
            resolve(name).coefficients(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_id_listing():
    ids = catalog_ids()
    assert "square" in ids and "delta" in ids and "cos_<k>" in ids
