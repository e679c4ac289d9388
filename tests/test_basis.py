import math

import numpy as np
import pytest
from conftest import oracle_poisson_integral

from inner_fourier import (
    GramReport,
    PeriodicFunction,
    completeness_probe,
    fourier_gram,
    residue_identity_check,
    resolve,
    scalar_product,
)


class TestScalarProduct:
    def test_constant_norm(self):
        one = resolve("const").function
        assert scalar_product(one, one, 256) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_cos_sin_orthogonal(self):
        for k in (1, 3, 7):
            c = resolve(f"cos_{k}").function
            s = resolve(f"sin_{k}").function
            assert abs(scalar_product(c, s, 256)) < 1e-12

    def test_harmonic_norm(self):
        for k in (1, 4):
            c = resolve(f"cos_{k}").function
            assert scalar_product(c, c, 256) == pytest.approx(math.pi, abs=1e-12)


class TestResidueIdentity:
    def test_unit_at_zero_power(self):
        assert abs(residue_identity_check(0, 0.5) - 1.0) < 1e-14

    def test_positive_power_vanishes(self):
        assert abs(residue_identity_check(3, 1.0)) < 1e-14

    def test_negative_power_vanishes(self):
        assert abs(residue_identity_check(-2, 0.25)) < 1e-14

    def test_full_range_all_radii(self):
        for p in range(-8, 9):
            want = 1.0 if p == 0 else 0.0
            for rho in (0.25, 0.5, 1.0):
                assert abs(residue_identity_check(p, rho) - want) <= 1e-13


class TestFourierGram:
    def test_constant_entry(self):
        g = fourier_gram(1)
        assert g.matrix[0, 0] == pytest.approx(2.0, abs=1e-13)

    def test_harmonic_entries(self):
        g = fourier_gram(3)
        # ordering: [1, cos1, cos2, cos3, sin1, sin2, sin3]
        assert g.matrix[2, 2] == pytest.approx(1.0, abs=1e-13)
        assert abs(g.matrix[2, 6]) < 1e-13

    def test_bounds_at_k64(self):
        g = fourier_gram(64)
        assert g.size == 129
        assert g.max_diag_error <= 1e-12
        assert g.max_offdiag_error <= 1e-12
        assert g.passed

    def test_bounds_at_k128(self):
        g = fourier_gram(128)
        assert g.max_diag_error <= 1e-12
        assert g.max_offdiag_error <= 1e-12

    def test_symmetric(self):
        g = fourier_gram(16)
        assert np.max(np.abs(g.matrix - g.matrix.T)) <= 1e-12

    def test_leak_folds_into_both_errors(self):
        g = np.array([[2.0, 1e-13], [1e-13, 1.0 + 2e-13]])
        plain = GramReport.of(g, np.array([2.0, 1.0]))
        assert plain.max_offdiag_error == 1e-13
        assert plain.max_diag_error == pytest.approx(2e-13, rel=1e-3)
        leaky = GramReport.of(g, np.array([2.0, 1.0]), leak=3e-13)
        assert (leaky.max_offdiag_error, leaky.max_diag_error) == (3e-13, 3e-13)
        assert leaky.size == 2 and not GramReport.of(g, np.array([2.0, 1.0]), leak=1e-9).passed


class TestCompletenessProbe:
    def test_unit_test_function(self):
        one = resolve("const").function
        for rho in (0.2, 0.9):
            assert completeness_probe(one, 0.3, rho, 64, 512) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_against_adaptive_poisson_oracle(self):
        psi = resolve("cos_1").function
        rho = 0.999
        got = completeness_probe(psi, 0.0, rho, 10000, 16384)
        want = oracle_poisson_integral(math.cos, 0.0, rho)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(0.999, abs=1e-6)

    def test_jump_function_at_continuity_point(self):
        psi = resolve("square").function
        got = completeness_probe(psi, math.pi / 2, 0.99, 2000, 8192)
        assert abs(got - 1.0) < 0.02

    def test_eigenrelation(self):
        theta1, rho = 0.7, 0.9
        for k in range(1, 9):
            psi = resolve(f"cos_{k}").function
            got = completeness_probe(psi, theta1, rho, 512, 4096)
            assert abs(got - rho**k * math.cos(k * theta1)) <= 1e-10

    def test_annihilates_functions_with_vanishing_coefficients(self):
        K = 8
        for name in ("cos_12", "sin_12"):
            psi = resolve(name).function
            assert abs(completeness_probe(psi, 0.4, 0.97, K, 2048)) <= 1e-10
