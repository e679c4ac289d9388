import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from conftest import (
    oracle_delta_derivative_alpha,
    oracle_delta_derivative_beta,
    oracle_point_mass_derivative,
    oracle_poisson_kernel,
)
from hypothesis import example, given
from hypothesis import strategies as st

import inner_fourier
from inner_fourier import (
    EvaluationError,
    RhoSchedule,
    TaylorSeries,
    TruncationWarning,
    angular_derivative,
    completeness_probe,
    delta_inner,
    from_taylor,
    regulated_delta_on_grid,
    regulated_sum,
    resolve,
    rho_limit,
    to_taylor,
    trig_poly_entry,
)
from inner_fourier.quadrature import disk_points, power_series, theta_grid

EPS = np.finfo(float).eps


def _delta(theta1, order=0, K=8):
    # the catalog's coefficients of the order-th derivative of the point mass at theta1
    return resolve("delta_derivative", theta1=theta1, order=order).coefficients(K)


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
            assert w(z).real == pytest.approx(oracle_poisson_kernel(theta, theta1, rho), abs=1e-12)

    def test_real_part_matches_regulated_expansion(self):
        theta1 = -1.1
        w = delta_inner(theta1)
        fc = _delta(theta1, K=10000)
        for theta, rho in [(0.3, 0.5), (theta1, 0.9), (2.5, 0.8)]:
            z = rho * complex(math.cos(theta), math.sin(theta))
            assert w(z).real == pytest.approx(regulated_sum(fc, theta, rho), abs=1e-12)


class TestDeltaCoefficients:
    def test_centered_at_zero(self):
        fc = _delta(0.0, K=6)
        assert np.allclose(fc.alpha, 1.0 / math.pi, atol=0)
        assert np.all(fc.beta == 0.0)

    def test_centered_at_half_pi(self):
        fc = _delta(math.pi / 2, K=4)
        assert abs(fc.alpha[0]) < 1e-16
        assert fc.beta[0] == pytest.approx(1.0 / math.pi)

    def test_zero_sines_keep_their_sign(self):
        # the coefficient files print beta_k = 0 as "0.0", never "-0.0"
        assert not np.any(np.signbit(_delta(0.0, K=6).beta))

    def test_mean_term(self):
        for theta1 in (-2.0, 0.0, 1.3):
            assert _delta(theta1, K=3).alpha0 == 1.0 / math.pi


class TestDeltaDerivativeCoefficients:
    def test_first_derivative_at_zero(self):
        fc = _delta(0.0, 1, 6)
        k = np.arange(1, 7)
        assert np.max(np.abs(fc.beta - (-k / math.pi))) < 1e-15
        assert np.max(np.abs(fc.alpha)) < 1e-15
        assert fc.alpha0 == 0.0

    def test_second_derivative_at_zero(self):
        fc = _delta(0.0, 2, 6)
        k = np.arange(1, 7)
        assert np.max(np.abs(fc.alpha - (-(k**2) / math.pi))) < 1e-15
        assert np.max(np.abs(fc.beta)) < 1e-15

    def test_against_integration_by_parts_oracle(self):
        for n in (1, 2, 3):
            for theta1 in (0.0, 0.9, -2.2):
                fc = _delta(theta1, n, 5)
                for k in range(1, 6):
                    assert fc.alpha[k - 1] == pytest.approx(
                        oracle_delta_derivative_alpha(n, theta1, k), abs=1e-12 * k**n
                    )
                    assert fc.beta[k - 1] == pytest.approx(
                        oracle_delta_derivative_beta(n, theta1, k), abs=1e-12 * k**n
                    )

    def test_equals_repeated_angular_derivative_exactly(self):
        for n in range(1, 6):
            direct = _delta(0.33, n, 32)
            tc = delta_inner(0.33).taylor(32)
            for _ in range(n):
                tc = angular_derivative(tc)
            chained = from_taylor(tc)
            assert direct.alpha0 == chained.alpha0
            assert np.array_equal(direct.alpha, chained.alpha)
            assert np.array_equal(direct.beta, chained.beta)

    def test_taylor_route_first_derivative(self):
        tc = to_taylor(_delta(0.0, 1, 6))
        k = np.arange(1, 7)
        assert np.max(np.abs(tc.c[1:] - 1j * k / math.pi)) < 1e-15

    def test_growth_scale(self):
        fc = _delta(0.5, 3, 64)
        mags = np.hypot(fc.alpha, fc.beta)
        k = np.arange(1, 65)
        assert np.max(np.abs(mags - k**3 / math.pi)) < 1e-9


class TestRegulatedDeltaKernel:
    def test_matches_pointwise_sums(self):
        theta1, rho, K = 0.8, 0.95, 300
        grid = theta_grid(64)
        kern = regulated_delta_on_grid(grid, theta1, rho, K)
        fc = _delta(theta1, K=K)
        np.testing.assert_allclose(kern, regulated_sum(fc, grid, rho), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("theta1, rho, K", [(0.8, 0.95, 300), (-2.9, 0.5, 1), (3.0, 0.999, 2000)])
    def test_equals_explicit_kernel_series(self, theta1, rho, K):
        # 1/(2 pi) + (1/pi) sum_{k=1..K} rho**k cos(k phi) at the double angles phi = theta - theta1,
        # summed in closed form by mpmath at 40 digits; power_series meets the same bound
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
        direct = power_series(np.r_[1.0 / (2.0 * math.pi), np.full(K, 1.0 / math.pi)], disk_points(phi, rho)).real
        assert np.max(np.abs(direct - want)) <= 1e-15 * scale

    def test_unit_mass_at_every_radius(self):
        const = resolve("const").function
        kernel = TaylorSeries(delta_inner(0.7).taylor(2000))
        for rho in (0.1, 0.5, 0.9, 0.99, 0.999):
            assert abs(completeness_probe(const, kernel, rho, 4096) - 1.0) < 1e-12

    def test_sifting_against_smooth_functions(self):
        rho, K, M = 0.999, 64, 1024
        # first moment sum k(|alpha_k| + |beta_k|) below 1 keeps the
        # damping error within (1 - rho)
        entry = trig_poly_entry(0.6, [0.5, 0.1], [0.0, 0.1])
        for psi in (entry.function, resolve("cos_1").function):
            for theta1 in (0.7, -2.1):
                probe = completeness_probe(psi, TaylorSeries(delta_inner(theta1).taylor(K)), rho, M)
                target = psi.fn(np.array([theta1]))[0]
                assert abs(probe - target) < 1e-3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regulated_delta_on_grid(theta_grid(16), 0.0, 1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            regulated_delta_on_grid(np.array([0.0, math.nan]), 0.0, 0.5, 10)
        with pytest.raises(ValueError, match="finite"):
            regulated_delta_on_grid(theta_grid(16), math.inf, 0.5, 10)
        with pytest.raises(ValueError, match="0 <= r < 1"):
            resolve("poisson", r=1.0)


def test_catalog_ids_route_to_distribution_generators():
    tc = delta_inner(0.5).taylor(8)
    fc = resolve("delta", theta1=0.5).coefficients(8)
    assert np.array_equal(to_taylor(fc).c, tc.c)
    fc = resolve("delta_derivative", theta1=0.5, order=2).coefficients(8)
    assert np.array_equal(to_taylor(fc).c, angular_derivative(angular_derivative(tc)).c)


@pytest.mark.parametrize(
    "theta1, order, match",
    [(math.pi, 0, "theta1"), (4.0, 0, "theta1"), (-3.5, 1, "theta1"), (0.3, -1, "order")],
)
def test_delta_spec_refuses_out_of_range(theta1, order, match):
    with pytest.raises(ValueError, match=match):
        resolve("delta_derivative", theta1=theta1, order=order)
    if match == "theta1":
        with pytest.raises(ValueError, match=r"theta1 must lie in \[-pi, pi\)"):
            delta_inner(theta1)


@pytest.mark.parametrize("theta1, K", [(0.0, 1), (-1.1, 16), (2.9, 300)])
def test_point_mass_taylor_is_its_exact_coefficients(theta1, K):
    # c_k = exp(-i*k*theta1)/pi at the double angle k*theta1 the code forms, to 40 digits
    got = delta_inner(theta1).taylor(K).c
    assert got[0] == 1.0 / (2.0 * math.pi)
    with mpmath.workdps(40):
        want = [complex(mpmath.expj(-mpmath.mpf(k * theta1)) / mpmath.pi) for k in range(1, K + 1)]
    assert np.max(np.abs(got[1:] - want)) <= 2 * EPS / math.pi


def _herglotz_oracle(phi: float, rho: float) -> mpmath.mpc:
    # (1/(2 pi)) (1 + u)/(1 - u) with u = rho*exp(i*phi), at the double phi and rho given
    with mpmath.workdps(40):
        u = mpmath.mpf(rho) * mpmath.expj(mpmath.mpf(phi))
        return (1 + u) / (1 - u) / (2 * mpmath.pi)


@given(
    theta1=st.floats(-math.pi, math.pi, exclude_max=True),
    theta=st.floats(-20.0, 20.0),
    rho=st.integers(1, 30).map(lambda j: 1.0 - 2.0**-j) | st.floats(0.0, 1.0, exclude_max=True),
)
@example(theta1=0.7, theta=-1.0, rho=1.0 - 2.0**-14)  # 3.4e-12 relative through the z formula
@example(theta1=-math.pi, theta=-math.pi, rho=1.0 - 2.0**-30)  # at the pole's angle
@example(theta1=0.0, theta=math.pi, rho=1.0 - 2.0**-30)  # Im w = 0 at the opposite angle
def test_polar_matches_mpmath_up_to_the_circle(theta1, theta, rho):
    got = delta_inner(theta1).polar(theta, rho)
    want = _herglotz_oracle(theta - theta1, rho)
    with mpmath.workdps(40):
        assert abs(got.real - want.real) <= 1e-15 * want.real
        assert abs(got - want) <= 1e-15 * abs(want)


def test_polar_grid_is_the_scalar_calls():
    w = delta_inner(-1.1)
    theta, rho = np.linspace(-7.0, 7.0, 9), np.array([0.0, 0.5, 1.0 - 2.0**-30])
    grid = w.polar(theta, rho)
    assert grid.shape == (9, 3)
    scalars = [[w.polar(t, r) for r in rho] for t in theta]
    np.testing.assert_allclose(grid, scalars, rtol=4 * EPS, atol=0)


def test_polar_refuses_the_pole_and_non_finite_angles():
    w = delta_inner(0.4)
    with pytest.raises(EvaluationError, match="pole"):
        w(w.pole_set[0])
    with pytest.raises(EvaluationError, match="pole"):
        w.polar(0.4, 1.0)
    with pytest.raises(EvaluationError, match="pole"):
        w.polar(np.array([0.0, 0.4]), [0.5, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angles must be finite"):
            w.polar(np.array([0.0, bad]), 0.5)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@given(
    theta1=st.floats(-math.pi, math.pi, exclude_max=True),
    theta=st.floats(-20.0, 20.0),
    rho=st.integers(1, 30).map(lambda j: 1.0 - 2.0**-j) | st.floats(0.0, 1.0 - 2.0**-30),
)
@example(theta1=0.7, theta=0.7 + 1e-6, rho=1.0 - 2.0**-30)  # beside the pole of order m + 1
@example(theta1=0.7, theta=0.7 - 1e-6, rho=1.0 - 2.0**-30)
@example(theta1=-math.pi, theta=1e-3, rho=1.0 - 2.0**-30)  # beside u = -1, where A_m vanishes at even m
def test_derivative_polar_matches_mpmath_up_to_the_circle(order, theta1, theta, rho):
    # relative to |w|: Re w of a derivative tends to 0 away from theta1; w ~ u near 0 may be subnormal
    got = delta_inner(theta1, order).polar(theta, rho)
    want = oracle_point_mass_derivative(theta, theta1, rho, order)
    with mpmath.workdps(40):
        assert abs(got - want) <= 4e-15 * abs(want) + 2.0**-1074


@pytest.mark.parametrize("order, root", [(3, -0.2679491924311227), (4, -0.10102051443364381), (5, -0.4305753470999737)])
@pytest.mark.parametrize("distance", [1e-2, 1e-4])
def test_derivative_near_a_zero_inside_the_disk_within_eps_a_over_distance(order, root, distance):
    # A_m vanishes at u = -a inside the disk; there the error is about eps * a / |u + a| of |w|
    rho = -root + distance
    got = delta_inner(0.0, order).polar(math.pi, rho)
    want = oracle_point_mass_derivative(math.pi, 0.0, rho, order)
    with mpmath.workdps(40):
        assert abs(got - want) <= 4.0 * EPS * (-root / distance) * abs(want)


@pytest.mark.parametrize("order", [1, 2, 5])
def test_one_evaluator_serves_points_polar_and_circle(order):
    w = delta_inner(-1.1, order)
    m, rho = 64, 0.8
    circle = w.circle(rho, m)
    assert circle.tobytes() == w.polar(theta_grid(m), rho).tobytes()
    np.testing.assert_allclose(w(rho * np.exp(1j * theta_grid(m))), circle, rtol=1e-14, atol=0)
    assert w(0.0) == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_rho_limit_has_no_cutoff(order):
    # the closed form reaches rho = 1 - 2**-30 with no K-term series behind it
    w = delta_inner(0.7, order)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        res = rho_limit(w, 2.0, RhoSchedule.geometric(1, 30, 1e-9))
    assert not res.truncation_suspect
    want = oracle_point_mass_derivative(2.0, 0.7, 1.0 - 2.0**-30, order)
    with mpmath.workdps(40):
        assert abs(res.value - want.real) <= 4e-15 * abs(want)


def test_derivative_past_the_double_range_refused_naming_order_and_radius():
    # near theta1 at rho = 1 - 2**-30, |w_40| ~ 40!/|1 - u|**41 is far past the largest double
    w = delta_inner(0.7, 40)
    rho = 1.0 - 2.0**-30
    want = rf"^delta inner function \(theta1=0.7, order=40\) overflows at radius {rho!r}$"
    with pytest.raises(EvaluationError, match=want):
        w.polar(np.array([0.1, 0.7]), np.array([0.5, rho]))
    with pytest.raises(EvaluationError, match="order=40.*overflows at radius"):
        w(rho * np.exp(0.7j))
    assert np.all(np.isfinite(w.polar(0.7, 0.5)))


def test_eulerian_numbers_past_the_double_range_refused():
    with pytest.raises(EvaluationError, match="^the Eulerian numbers of order 200 overflow a double$"):
        delta_inner(0.0, 200).polar(1.0, 0.5)
    assert delta_inner(0.0, 200).taylor(4).K == 4


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    # a timeout of a few seconds: the work that these tests bound took minutes to hours
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=10)


def test_eulerian_overflow_is_refused_before_the_numbers_are_summed():
    # the inclusion-exclusion sum took 266 s at order 2000 before finding the overflow
    code = (
        "from inner_fourier import EvaluationError, delta_inner\n"
        "try:\n"
        "    delta_inner(0.0, 2000).polar(0.5, 0.5)\n"
        "except EvaluationError as exc:\n"
        "    print(exc)\n"
    )
    assert _run_python("-c", code).stdout == "the Eulerian numbers of order 2000 overflow a double\n"


def test_first_harmonic_derivative_repeats_with_period_four():
    # at K = 1 nothing overflows, and one pass per order made order 10**6 take 12 s
    for theta1 in (0.0, -math.pi, 0.5 * math.pi, -0.5 * math.pi, 0.7, -2.3, 3.0):
        for order in range(41):
            tc = delta_inner(theta1).taylor(1)
            for _ in range(order):
                tc = angular_derivative(tc)
            assert delta_inner(theta1, order).taylor(1).c.tobytes() == tc.c.tobytes()
    argv = ("-m", "inner_fourier", "coeffs", "--fn", "delta_derivative", "--K", "1", "--order")
    runs = [_run_python(*argv, order) for order in ("1000000000", "4")]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_order_that_is_not_an_integer_refused_where_it_is_given():
    for make in (lambda: delta_inner(0.0, 1.5), lambda: resolve("delta_derivative", order=1.5)):
        with pytest.raises(ValueError, match=r"^order must be an integer, got 1\.5$"):
            make()
    with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
        delta_inner(0.0, -1)
    w = delta_inner(0.0, np.int64(2))
    assert type(w.order) is int and w.pole_order == 3
    assert np.array_equal(w.taylor(6).c, delta_inner(0.0, 2).taylor(6).c)
