import math

import numpy as np
import pytest
from conftest import (
    oracle_cos_coefficient,
    oracle_sin_coefficient,
    square_wave_expr,
    triangle_expr,
)

from inner_fourier import ClosedForm, UnknownCatalogId, catalog_ids, delta_inner, fourier_coefficients, resolve, to_taylor
from inner_fourier.quadrature import circle_coefficients, theta_grid

SELF_TESTABLE = ("zero", "const", "cos_3", "sin_5", "square", "sawtooth", "triangle", "poisson")


@pytest.mark.parametrize("name", SELF_TESTABLE)
def test_generator_agrees_with_quadrature(name):
    entry = resolve(name)
    K = 8
    want = entry.coefficients(K)
    got = fourier_coefficients(entry.function, K, entry.self_test_M)
    assert abs(got.alpha0 - want.alpha0) <= 1e-8
    assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-8
    assert np.max(np.abs(got.beta - want.beta)) <= 1e-8


def _delta_derivative_inner(theta1: float) -> ClosedForm:
    # i*z*d/dz of the point mass's inner function
    z1 = complex(math.cos(theta1), math.sin(theta1))
    return ClosedForm(lambda z: 1j * z * z1 / (math.pi * (z - z1) ** 2), pole_set=(z1,))


@pytest.mark.parametrize(
    "name, inner",
    [("delta", delta_inner), ("delta_derivative", _delta_derivative_inner)],
)
def test_distribution_generator_agrees_with_cauchy_coefficients(name, inner):
    # the paper defines these coefficients as Taylor coefficients of w, read on a circle rho < 1
    theta1, K, rho, M = 0.7, 64, 0.9, 4096
    w = inner(theta1)
    want = to_taylor(resolve(name, theta1=theta1).coefficients(K)).c
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


def test_distribution_entries_have_no_sampler():
    entry = resolve("delta", theta1=0.1)
    assert entry.function is None
    assert entry.coefficients(4).alpha0 == pytest.approx(1.0 / math.pi)


def test_entry_without_generator_reports_it():
    from inner_fourier.catalog import CatalogEntry

    bare = CatalogEntry("bare", resolve("const").function, None)
    with pytest.raises(ValueError, match="generator"):
        bare.coefficients(4)


def test_unknown_id():
    with pytest.raises(UnknownCatalogId):
        resolve("parabola")
    with pytest.raises(UnknownCatalogId):
        resolve("cos_0")


def test_id_listing():
    ids = catalog_ids()
    assert "square" in ids and "delta" in ids and "cos_<k>" in ids
