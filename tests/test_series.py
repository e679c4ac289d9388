import math
import warnings

import numpy as np
import pytest
from conftest import abel_square_wave
from hypothesis import given
from hypothesis import strategies as st

from inner_fourier import (
    EvaluationError,
    FourierCoefficients,
    PolarPoint,
    RhoSchedule,
    TaylorCoefficients,
    TaylorSeries,
    TruncationWarning,
    angular_derivative,
    angular_primitive,
    conjugate_sum,
    delta_coefficients,
    delta_inner,
    fourier_coefficients,
    poisson_kernel,
    regulated_sum,
    resolve,
    rho_limit,
    to_taylor,
)
from inner_fourier.distributions import DeltaSpec

EPS = np.finfo(float).eps


def _fc(alpha0=0.0, alpha=(), beta=(), K=None):
    K = K or max(len(alpha), len(beta), 1)
    a, b = np.zeros(K), np.zeros(K)
    a[: len(alpha)] = alpha
    b[: len(beta)] = beta
    return FourierCoefficients(alpha0, a, b)


class TestEvalInner:
    def test_constant_series(self):
        w = TaylorSeries(TaylorCoefficients(np.array([1.0, 0.0], dtype=complex)))
        assert regulated_sum(w, 2.0, 0.3) == pytest.approx(1.0)
        assert conjugate_sum(w, 2.0, 0.3) == 0.0

    def test_identity_series(self):
        w = TaylorSeries(TaylorCoefficients(np.array([0.0, 1.0], dtype=complex)))
        assert regulated_sum(w, math.pi / 2, 0.5) == pytest.approx(0.0, abs=1e-16)
        assert conjugate_sum(w, math.pi / 2, 0.5) == pytest.approx(0.5)

    def test_point_mass_at_origin(self):
        assert regulated_sum(delta_inner(0.0), 1.3, 0.0) == pytest.approx(1 / (2 * math.pi))

    def test_outside_disk_rejected(self):
        w = TaylorSeries(TaylorCoefficients(np.array([1.0, 0.0], dtype=complex)))
        with pytest.raises(ValueError, match="rho < 1"):
            regulated_sum(w, 0.0, 1.0)
        with pytest.raises(ValueError, match="rho < 1"):
            conjugate_sum(delta_inner(0.0), 0.0, 1.0)


class TestRegulatedSum:
    def test_constant(self):
        assert regulated_sum(_fc(alpha0=2.0), 1.1, 0.9) == pytest.approx(1.0)

    def test_point_mass_poisson_value(self):
        fc = delta_coefficients(DeltaSpec(0.0), 400)
        got = regulated_sum(fc, 0.0, 0.5)
        assert got == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-12)
        assert got == pytest.approx(poisson_kernel(0.0, 0.0, 0.5), abs=1e-12)

    def test_single_cosine(self):
        assert regulated_sum(_fc(alpha=(1.0,)), 0.0, 0.99) == pytest.approx(0.99)

    def test_radius_domain(self):
        with pytest.raises(ValueError):
            regulated_sum(_fc(alpha=(1.0,)), 0.0, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        fc = _fc(alpha=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            regulated_sum(fc, theta, 0.5)
        with pytest.raises(ValueError, match="finite"):
            conjugate_sum(fc, theta, 0.5)
        with pytest.raises(ValueError, match="finite"):
            rho_limit(fc, theta, RhoSchedule.geometric(1, 4))
        with pytest.raises(ValueError, match="finite"):
            PolarPoint(0.5, theta)


class TestConjugateSum:
    def test_cosine_conjugates_to_sine(self):
        assert conjugate_sum(_fc(alpha=(1.0,)), math.pi / 2, 0.9) == pytest.approx(0.9)

    def test_constant_has_zero_conjugate(self):
        assert conjugate_sum(_fc(alpha0=2.0, K=3), 0.7, 0.9) == 0.0

    def test_sine_conjugates_to_negative_cosine(self):
        assert conjugate_sum(_fc(beta=(1.0,)), 0.0, 0.5) == pytest.approx(-0.5)


def test_sums_match_series_evaluation(rng):
    for _ in range(25):
        K = int(rng.integers(1, 60))
        fc = FourierCoefficients(
            float(rng.standard_normal()), rng.standard_normal(K), rng.standard_normal(K)
        )
        theta = float(rng.uniform(-math.pi, math.pi))
        rho = float(rng.uniform(0.0, 0.999))
        w = TaylorSeries(to_taylor(fc))(PolarPoint(rho, theta).z)
        scale = max(1.0, abs(w))
        assert abs(regulated_sum(fc, theta, rho) - w.real) < 1e-12 * scale
        assert abs(conjugate_sum(fc, theta, rho) - w.imag) < 1e-12 * scale


@pytest.mark.parametrize("w", [_fc(alpha0=0.5, alpha=(1.0, -0.25), beta=(0.5,)), delta_inner(0.7)])
def test_sums_on_an_angle_array_equal_the_scalar_calls(w):
    rho = 0.9
    # a partial arc (Horner's rule for a series) and a full period (the folded FFT)
    for thetas in (np.linspace(-3.0, 3.0, 41), np.linspace(-math.pi, math.pi, 40, endpoint=False) + 0.3):
        for f in (regulated_sum, conjugate_sum):
            got = f(w, thetas, rho)
            want = np.array([f(w, float(t), rho) for t in thetas])
            assert got.shape == thetas.shape
            # numpy's vectorised complex product may round differently from its
            # one-element path, so the two agree to a few ulps, not bitwise
            np.testing.assert_allclose(got, want, rtol=0, atol=8 * EPS * np.max(np.abs(want)))


@pytest.mark.parametrize(
    "theta", [np.linspace(-math.pi, math.pi, 64, endpoint=False), np.linspace(0.0, 1.0, 64)], ids=["grid", "arc"]
)
def test_overflow_is_refused_at_its_radius(theta):
    w = TaylorSeries(TaylorCoefficients(np.full(5, 1e308 - 1e308j)))
    with pytest.raises(EvaluationError, match=r"taylor series \(K=4\) overflows at radius 0.9$"):
        w.polar(theta, [0.1, 0.9])
    with pytest.raises(EvaluationError, match="overflows at radius 0.95"):
        rho_limit(w, 0.0, RhoSchedule((0.1, 0.95)))
    assert np.all(np.isfinite(w.polar(theta, 0.1)))


def test_poisson_closed_form_within_truncation(rng):
    K = 800
    for _ in range(20):
        theta1 = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-math.pi, math.pi))
        rho = float(rng.uniform(0.0, 0.97))
        fc = delta_coefficients(DeltaSpec(theta1), K)
        bound = rho ** (K + 1) / (math.pi * (1.0 - rho)) + 1e-12
        assert abs(regulated_sum(fc, theta, rho) - poisson_kernel(theta, theta1, rho)) <= bound


class TestRhoLimit:
    def test_square_wave_recovery(self):
        entry = resolve("square")
        fc = entry.coefficients(2000)
        sched = RhoSchedule.geometric(1, 14, tol=1e-3)
        with pytest.warns(TruncationWarning):
            res = rho_limit(fc, math.pi / 2, sched)
        assert res.converged
        assert abs(res.value - 1.0) < 0.02
        assert res.value == pytest.approx(abel_square_wave(math.pi / 2, sched.rhos[-1]), abs=5e-3)
        assert len(res.history) == len(sched.rhos)

    def test_point_mass_vanishes_away_from_its_angle(self):
        fc = delta_coefficients(DeltaSpec(0.0), 10000)
        with pytest.warns(TruncationWarning):
            res = rho_limit(fc, math.pi, RhoSchedule.geometric(1, 10, tol=1e-3))
        assert res.converged
        assert abs(res.value) < 1e-3
        rho = 1.0 - 2.0**-10
        assert res.value == pytest.approx((1 - rho) / (2 * math.pi * (1 + rho)), abs=1e-4)

    def test_point_mass_diverges_at_its_angle(self):
        fc = delta_coefficients(DeltaSpec(0.0), 10000)
        with pytest.warns(TruncationWarning):
            res = rho_limit(fc, 0.0, RhoSchedule.geometric(1, 10, tol=1e-3))
        assert not res.converged
        assert res.history[-1] > res.history[-2] > res.history[-3]

    def test_monotone_recovery_on_continuous_entries(self, rng):
        sched = RhoSchedule.geometric(1, 8, tol=1e-3)
        for name in ("triangle", "cos_2", "const"):
            entry = resolve(name)
            fc = entry.coefficients(4000)
            f_vals = lambda t: entry.function.fn(np.array([t]))[0]
            for theta in rng.uniform(-math.pi, math.pi, 34):
                res = rho_limit(fc, float(theta), sched)
                errs = [abs(v - f_vals(float(theta))) for v in res.history]
                for a, b in zip(errs, errs[1:]):
                    assert b <= a + 1e-9

    def test_extrapolation_diagnostics(self):
        fc = resolve("triangle").coefficients(4000)
        sched = RhoSchedule.geometric(1, 8, tol=1e-3)
        res = rho_limit(fc, 0.5, sched)
        assert len(res.extrapolated) == len(res.history) - 1
        # first order error in (1 - rho) cancels, so the extrapolant is closer
        assert abs(res.extrapolated[-1] - 0.5) < abs(res.history[-1] - 0.5)

    @pytest.mark.parametrize("theta1", [0.7, -3.0])
    def test_point_mass_closed_form_is_its_poisson_kernel(self, theta1):
        sched = RhoSchedule.geometric(1, 14)
        for theta in theta1 + np.array([0.5, 1.0, 2.0, math.pi, -0.5, -2.5]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = rho_limit(delta_inner(theta1), float(theta), sched)
            want = [poisson_kernel(float(theta), theta1, rho) for rho in sched.rhos]
            # Re w = 1/(2 pi) - Re(z/(z - z1))/pi cancels to ~1e-5 at the last
            # radius, so the closed form agrees to ~1e-16 absolute, ~4e-12 relative
            np.testing.assert_allclose(res.history, want, rtol=1e-12, atol=1e-15)
            assert not res.truncation_suspect

    def test_truncation_warning_condition(self):
        fc = delta_coefficients(DeltaSpec(0.0), 50)
        with pytest.warns(TruncationWarning):
            res = rho_limit(fc, 2.0, RhoSchedule.geometric(1, 12, tol=1e-6))
        assert res.truncation_suspect

    def test_truncation_bound_scales_with_the_coefficients(self):
        # |c_k| = k**3 / pi: a unit-coefficient bound (6.2e-13) would pass a cutoff that
        # is 2.7e-5 off the K = 8192 value at rho = 1 - 2**-6, against tol 1e-6
        sched = RhoSchedule.geometric(1, 6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = rho_limit(delta_coefficients(DeltaSpec(0.0, 3), 2048), 1.0, sched)
        assert res.truncation_suspect
        assert [type(w.message) for w in caught] == [TruncationWarning]
        assert "truncation bound 0.00169 " in str(caught[0].message)
        longer = rho_limit(delta_coefficients(DeltaSpec(0.0, 3), 8192), 1.0, sched)
        assert abs(res.value - longer.value) > sched.tol


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            RhoSchedule((0.9,))
        with pytest.raises(ValueError):
            RhoSchedule((0.5, 0.5))
        with pytest.raises(ValueError):
            RhoSchedule((0.5, 1.0))
        with pytest.raises(ValueError):
            RhoSchedule((0.5, 0.9), tol=0.0)

    def test_geometric(self):
        s = RhoSchedule.geometric(1, 3)
        assert s.rhos == (0.5, 0.75, 0.875)


class TestAngularCalculus:
    def test_derivative_of_identity(self):
        tc = TaylorCoefficients(np.array([0.0, 1.0], dtype=complex))
        assert angular_derivative(tc).c[1] == 1.0j

    def test_derivative_annihilates_constants(self):
        tc = TaylorCoefficients(np.array([5.0, 0.0, 0.0], dtype=complex))
        assert np.all(angular_derivative(tc).c == 0.0)

    def test_primitive_of_rotated_identity(self):
        tc = TaylorCoefficients(np.array([0.0, 1.0j], dtype=complex))
        assert angular_primitive(tc).c[1] == 1.0 + 0.0j

    def test_primitive_drops_constant(self):
        tc = TaylorCoefficients(np.array([5.0, 2.0], dtype=complex))
        assert angular_primitive(tc).c[0] == 0.0

    def test_roundtrip_on_proper_part(self, rng):
        for _ in range(10):
            K = int(rng.integers(2, 50))
            c = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
            tc = TaylorCoefficients(c)
            back = angular_derivative(angular_primitive(tc))
            assert np.max(np.abs(back.c[1:] - tc.c[1:])) < 1e-15 * np.max(np.abs(c))
            assert back.c[0] == 0.0

    def test_chain_returns_proper_part(self, rng):
        c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        tc = TaylorCoefficients(c)
        n = 3
        out = tc
        for _ in range(n):
            out = angular_derivative(out)
        for _ in range(n):
            out = angular_primitive(out)
        assert np.max(np.abs(out.c[1:] - tc.c[1:])) <= 1e-14 * np.max(np.abs(c))
        assert out.c[0] == 0.0


@given(c=st.lists(st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=65))
def test_primitive_inverts_derivative_on_proper_part(c):
    tc = TaylorCoefficients(np.array(c))
    back = angular_primitive(angular_derivative(tc))
    # i*k*c_k and its division by i*k round each part twice
    assert np.all(np.abs(back.c[1:] - tc.c[1:]) <= 4 * np.finfo(float).eps * np.abs(tc.c[1:]))
    assert back.c[0] == 0.0


def test_polar_point_normalizes_angle():
    p = PolarPoint(0.5, 3 * math.pi / 2)
    assert -math.pi <= p.theta < math.pi
    assert p.z == pytest.approx(0.5 * np.exp(1j * 3 * math.pi / 2))
    with pytest.raises(ValueError):
        PolarPoint(-0.1, 0.0)
