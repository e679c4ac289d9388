import math

import mpmath
import numpy as np
import pytest
from conftest import oracle_delta_derivative_alpha, oracle_delta_derivative_beta

from inner_fourier import (
    EvaluationError,
    angular_derivative,
    completeness_probe,
    delta_coefficients,
    delta_inner,
    from_taylor,
    poisson_kernel,
    regulated_delta_on_grid,
    regulated_sum,
    resolve,
    scalar_product,
    to_taylor,
    trig_poly_entry,
)
from inner_fourier.coeffs import PeriodicFunction
from inner_fourier.distributions import DeltaSpec
from inner_fourier.quadrature import disk_points, power_series, theta_grid, trapezoid_periodic


class TestDeltaClosedForm:
    def test_value_at_origin(self):
        assert delta_inner(0.0)(0.0 + 0.0j) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_value_on_real_axis(self):
        w = delta_inner(0.0)
        want = 1.0 / (2.0 * math.pi) - (0.5 / (0.5 - 1.0)) / math.pi
        assert w(0.5 + 0.0j) == pytest.approx(want)
        assert want == pytest.approx(1.0 / (2.0 * math.pi) + 1.0 / math.pi)

    def test_pole_guard(self):
        with pytest.raises(EvaluationError, match="pole"):
            delta_inner(0.0)(1.0 + 0.0j)

    def test_real_part_is_poisson_kernel(self, rng):
        theta1 = 0.4
        w = delta_inner(theta1)
        for _ in range(30):
            rho = float(rng.uniform(0.0, 0.99))
            theta = float(rng.uniform(-math.pi, math.pi))
            z = rho * complex(math.cos(theta), math.sin(theta))
            assert w(z).real == pytest.approx(poisson_kernel(theta, theta1, rho), abs=1e-12)

    def test_real_part_matches_regulated_expansion(self):
        theta1 = -1.1
        w = delta_inner(theta1)
        fc = delta_coefficients(DeltaSpec(theta1), 10000)
        for theta, rho in [(0.3, 0.5), (theta1, 0.9), (2.5, 0.8)]:
            z = rho * complex(math.cos(theta), math.sin(theta))
            assert w(z).real == pytest.approx(regulated_sum(fc, theta, rho), abs=1e-12)


class TestDeltaCoefficients:
    def test_centered_at_zero(self):
        fc = delta_coefficients(DeltaSpec(0.0), 6)
        assert np.allclose(fc.alpha, 1.0 / math.pi, atol=0)
        assert np.all(fc.beta == 0.0)

    def test_centered_at_half_pi(self):
        fc = delta_coefficients(DeltaSpec(math.pi / 2), 4)
        assert abs(fc.alpha[0]) < 1e-16
        assert fc.beta[0] == pytest.approx(1.0 / math.pi)

    def test_zero_sines_keep_their_sign(self):
        # the coefficient files print beta_k = 0 as "0.0", never "-0.0"
        assert not np.any(np.signbit(delta_coefficients(DeltaSpec(0.0), 6).beta))

    def test_mean_term(self):
        for theta1 in (-2.0, 0.0, 1.3):
            assert delta_coefficients(DeltaSpec(theta1), 3).alpha0 == 1.0 / math.pi


class TestDeltaDerivativeCoefficients:
    def test_first_derivative_at_zero(self):
        fc = delta_coefficients(DeltaSpec(0.0, 1), 6)
        k = np.arange(1, 7)
        assert np.max(np.abs(fc.beta - (-k / math.pi))) < 1e-15
        assert np.max(np.abs(fc.alpha)) < 1e-15
        assert fc.alpha0 == 0.0

    def test_second_derivative_at_zero(self):
        fc = delta_coefficients(DeltaSpec(0.0, 2), 6)
        k = np.arange(1, 7)
        assert np.max(np.abs(fc.alpha - (-(k**2) / math.pi))) < 1e-15
        assert np.max(np.abs(fc.beta)) < 1e-15

    def test_against_integration_by_parts_oracle(self):
        for n in (1, 2, 3):
            for theta1 in (0.0, 0.9, -2.2):
                fc = delta_coefficients(DeltaSpec(theta1, n), 5)
                for k in range(1, 6):
                    assert fc.alpha[k - 1] == pytest.approx(
                        oracle_delta_derivative_alpha(n, theta1, k), abs=1e-12 * k**n
                    )
                    assert fc.beta[k - 1] == pytest.approx(
                        oracle_delta_derivative_beta(n, theta1, k), abs=1e-12 * k**n
                    )

    def test_equals_repeated_angular_derivative_exactly(self):
        for n in range(1, 6):
            spec = DeltaSpec(0.33, n)
            direct = delta_coefficients(spec, 32)
            tc = to_taylor(delta_coefficients(DeltaSpec(0.33), 32))
            for _ in range(n):
                tc = angular_derivative(tc)
            chained = from_taylor(tc)
            assert direct.alpha0 == chained.alpha0
            assert np.array_equal(direct.alpha, chained.alpha)
            assert np.array_equal(direct.beta, chained.beta)

    def test_taylor_route_first_derivative(self):
        tc = to_taylor(delta_coefficients(DeltaSpec(0.0, 1), 6))
        k = np.arange(1, 7)
        assert np.max(np.abs(tc.c[1:] - 1j * k / math.pi)) < 1e-15

    def test_growth_scale(self):
        fc = delta_coefficients(DeltaSpec(0.5, 3), 64)
        mags = np.hypot(fc.alpha, fc.beta)
        k = np.arange(1, 65)
        assert np.max(np.abs(mags - k**3 / math.pi)) < 1e-9


class TestRegulatedDeltaKernel:
    def test_matches_pointwise_sums(self):
        theta1, rho, K = 0.8, 0.95, 300
        grid = theta_grid(64)
        kern = regulated_delta_on_grid(grid, theta1, rho, K)
        fc = delta_coefficients(DeltaSpec(theta1), K)
        np.testing.assert_allclose(kern, regulated_sum(fc, grid, rho), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("theta1, rho, K", [(0.8, 0.95, 300), (-2.9, 0.5, 1), (3.0, 0.999, 2000)])
    def test_equals_explicit_kernel_series(self, theta1, rho, K):
        # 1/(2 pi) + (1/pi) sum_{k=1..K} rho**k cos(k phi) at the double angles phi = theta - theta1,
        # summed in closed form by mpmath at 40 digits; Horner's rule meets the same bound
        grid = theta_grid(128)
        phi = grid - theta1
        with mpmath.workdps(40):
            c0, ck = mpmath.mpf(1.0 / (2.0 * math.pi)), mpmath.mpf(1.0 / math.pi)

            def kernel(p):
                zeta = mpmath.mpf(rho) * mpmath.expj(mpmath.mpf(float(p)))
                return float(c0 + ck * mpmath.re(zeta * (1 - zeta**K) / (1 - zeta)))

            want = np.array([kernel(p) for p in phi])
        scale = 1.0 / (2.0 * math.pi) + math.fsum(rho ** np.arange(1.0, K + 1)) / math.pi
        got = regulated_delta_on_grid(grid, theta1, rho, K)
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
        horner = power_series(np.r_[1.0 / (2.0 * math.pi), np.full(K, 1.0 / math.pi)], disk_points(phi, rho)).real
        assert np.max(np.abs(horner - want)) <= 1e-15 * scale

    def test_unit_mass_at_every_radius(self):
        const = resolve("const").function
        for rho in (0.1, 0.5, 0.9, 0.99, 0.999):
            assert abs(completeness_probe(const, 0.7, rho, 2000, 4096) - 1.0) < 1e-12

    def test_sifting_against_smooth_functions(self):
        rho, K, M = 0.999, 64, 1024
        grid = theta_grid(M)
        # first moment sum k(|alpha_k| + |beta_k|) below 1 keeps the
        # damping error within (1 - rho)
        entry = trig_poly_entry(0.6, [0.5, 0.1], [0.0, 0.1])
        for psi in (entry.function, resolve("cos_1").function):
            for theta1 in (0.7, -2.1):
                kern = regulated_delta_on_grid(grid, theta1, rho, K)
                probe = trapezoid_periodic(psi.on_grid(M) * kern)
                target = psi.fn(np.array([theta1]))[0]
                assert abs(probe - target) < 1e-3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regulated_delta_on_grid(theta_grid(16), 0.0, 1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            regulated_delta_on_grid(np.array([0.0, math.nan]), 0.0, 0.5, 10)
        with pytest.raises(ValueError, match="finite"):
            regulated_delta_on_grid(theta_grid(16), math.inf, 0.5, 10)
        with pytest.raises(ValueError):
            poisson_kernel(0.0, 0.0, 1.0)


def test_catalog_ids_route_to_distribution_generators():
    fc = resolve("delta", theta1=0.5).coefficients(8)
    want = delta_coefficients(DeltaSpec(0.5), 8)
    assert np.array_equal(fc.alpha, want.alpha)
    fc = resolve("delta_derivative", theta1=0.5, order=2).coefficients(8)
    want = delta_coefficients(DeltaSpec(0.5, 2), 8)
    assert np.array_equal(fc.alpha, want.alpha)
    assert np.array_equal(fc.beta, want.beta)


@pytest.mark.parametrize(
    "theta1, order, match",
    [(math.pi, 0, "theta1"), (4.0, 0, "theta1"), (-3.5, 1, "theta1"), (0.3, -1, "order")],
)
def test_delta_spec_refuses_out_of_range(theta1, order, match):
    with pytest.raises(ValueError, match=match):
        DeltaSpec(theta1, order)


@pytest.mark.parametrize("theta1, K", [(0.0, 1), (-1.1, 16), (2.9, 300)])
def test_point_mass_taylor_is_its_exact_coefficients(theta1, K):
    got = delta_inner(theta1).taylor(K).c
    assert np.array_equal(got, to_taylor(delta_coefficients(DeltaSpec(theta1), K)).c)
