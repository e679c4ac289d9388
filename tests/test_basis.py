import math
import tracemalloc

import numpy as np
import pytest
from conftest import oracle_poisson_integral

from inner_fourier import (
    EvaluationError,
    GramReport,
    PeriodicFunction,
    TaylorSeries,
    completeness_probe,
    delta_inner,
    fourier_gram,
    residue_identity_check,
    resolve,
)


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

    @pytest.mark.parametrize(
        "rho, message",
        [(math.nan, "need 0 < rho < inf, got nan"), (math.inf, "need 0 < rho < inf, got inf"), (0.0, "need 0 < rho < inf, got 0.0")],
    )
    def test_radius_that_is_no_circle_is_refused(self, rho, message):
        with pytest.raises(ValueError) as exc:
            residue_identity_check(2, rho)
        assert str(exc.value) == message

    @pytest.mark.parametrize("p", [1.5, 2.0, "2"])
    def test_power_that_is_no_integer_is_refused(self, p):
        with pytest.raises(ValueError) as exc:
            residue_identity_check(p, 0.5)
        assert str(exc.value) == f"p must be an integer, got {p!r}"

    def test_numpy_integer_power_is_read(self):
        assert residue_identity_check(np.int64(0), 0.5) == residue_identity_check(0, 0.5)
        assert residue_identity_check(np.int32(-3), 0.5) == residue_identity_check(-3, 0.5)


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
        assert g.matrix.shape == (129, 129)
        assert g.max_diag_error <= 1e-12
        assert g.max_offdiag_error <= 1e-12

    def test_bounds_at_k128(self):
        g = fourier_gram(128)
        assert g.max_diag_error <= 1e-12
        assert g.max_offdiag_error <= 1e-12

    def test_k128_within_two_units_of_eps(self):
        # the cos and sin rows are the parts of the exact phase table; np.cos and np.sin of k*theta_j gave
        # 1.4e-14 off and 8.0e-15 on the diagonal
        g = fourier_gram(128)
        assert g.max_offdiag_error <= 2e-15
        assert g.max_diag_error <= 2e-15

    def test_k128_traced_peak(self):
        # the basis, the phase table and its index: no second K x M table lives beside them
        fourier_gram(128)
        tracemalloc.start()
        try:
            fourier_gram(128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.53 * 2**20

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
        assert leaky.matrix is g
        large = GramReport.of(g, np.array([2.0, 1.0]), leak=1e-9)
        assert (large.max_offdiag_error, large.max_diag_error) == (1e-9, 1e-9)


def _series_kernel(theta1, K):
    # the K-term damped point mass at theta1
    return TaylorSeries(delta_inner(theta1).taylor(K))


class TestCompletenessProbe:
    def test_unit_test_function(self):
        one = resolve("const").function
        for rho in (0.2, 0.9):
            assert completeness_probe(one, _series_kernel(0.3, 64), rho, 512) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_against_adaptive_poisson_oracle(self):
        psi = resolve("cos_1").function
        rho = 0.999
        got = completeness_probe(psi, _series_kernel(0.0, 10000), rho, 16384)
        want = oracle_poisson_integral(math.cos, 0.0, rho)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(0.999, abs=1e-6)

    def test_jump_function_at_continuity_point(self):
        psi = resolve("square").function
        got = completeness_probe(psi, _series_kernel(math.pi / 2, 2000), 0.99, 8192)
        assert abs(got - 1.0) < 0.02

    def test_eigenrelation(self):
        theta1, rho = 0.7, 0.9
        kernel = _series_kernel(theta1, 512)
        for k in range(1, 9):
            psi = resolve(f"cos_{k}").function
            got = completeness_probe(psi, kernel, rho, 4096)
            assert abs(got - rho**k * math.cos(k * theta1)) <= 1e-10

    def test_annihilates_functions_with_vanishing_coefficients(self):
        K = 8
        for name in ("cos_12", "sin_12"):
            psi = resolve(name).function
            assert abs(completeness_probe(psi, _series_kernel(0.4, K), 0.97, 2048)) <= 1e-10
            assert abs(completeness_probe(psi, _series_kernel(0.7, K), 0.9, 4096)) <= 1e-10

    def test_exact_kernel_keeps_every_harmonic(self):
        # the point mass itself has no cutoff: cos(12 theta) and sin(12 theta) are damped, not annihilated
        delta, rho = delta_inner(0.7), 0.9
        for name, part in (("cos_12", math.cos), ("sin_12", math.sin)):
            got = completeness_probe(resolve(name).function, delta, rho, 4096)
            assert abs(got - rho**12 * part(12 * 0.7)) <= 1e-12

    @pytest.mark.parametrize("theta1", [math.pi / 2, 0.7, -2.0])
    @pytest.mark.parametrize("rho", [0.9, 0.99])
    def test_exact_kernel_square_is_its_poisson_integral(self, theta1, rho):
        # the Poisson integral of the square wave in closed form
        want = (2.0 / math.pi) * math.atan2(2.0 * rho * math.sin(theta1), 1.0 - rho * rho)
        got = completeness_probe(resolve("square").function, delta_inner(theta1), rho, 4096)
        assert abs(got - want) <= 1e-7

    def test_series_kernel_of_degree_at_least_M_is_refused(self):
        one = resolve("const").function
        assert completeness_probe(one, _series_kernel(0.7, 511), 0.5, 512) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError) as exc:
            completeness_probe(one, _series_kernel(0.7, 512), 0.5, 512)
        assert str(exc.value) == "polynomial of degree 512 aliases on 512 nodes; need M >= 513"

    def test_exact_kernel_that_aliases_is_refused(self):
        with pytest.raises(ValueError) as exc:
            completeness_probe(resolve("const").function, delta_inner(0.7), 0.999, 4096)
        assert "need M >= 36026" in str(exc.value) and "\n" not in str(exc.value)

    def test_exact_kernel_with_its_pole_on_the_circle_is_refused(self):
        with pytest.raises(EvaluationError, match="lies on the integration circle"):
            completeness_probe(resolve("const").function, delta_inner(0.7), 1.0 - 1e-10, 4096)

    @pytest.mark.parametrize("kernel", [delta_inner(0.7), _series_kernel(0.7, 8)], ids=["exact", "series"])
    def test_radius_one_is_refused(self, kernel):
        with pytest.raises(ValueError) as exc:
            completeness_probe(resolve("const").function, kernel, 1.0, 4096)
        assert str(exc.value) == "need 0 < rho < 1, got 1.0"

    @pytest.mark.parametrize("kernel", [delta_inner(0.7), _series_kernel(0.7, 8)], ids=["exact", "series"])
    def test_radius_zero_is_no_circle(self, kernel):
        # the kernel is sampled on a circle, and rho = 0 is none
        with pytest.raises(ValueError) as exc:
            completeness_probe(resolve("const").function, kernel, 0.0, 4096)
        assert str(exc.value) == "need 0 < rho < 1, got 0.0"
