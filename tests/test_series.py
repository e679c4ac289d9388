import math
import warnings

import numpy as np
import pytest
from conftest import abel_square_wave, oracle_poisson_kernel
from hypothesis import given
from hypothesis import strategies as st

from inner_fourier import (
    ClosedForm,
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
    delta_inner,
    fourier_coefficients,
    regulated_sum,
    resolve,
    rho_limit,
    to_taylor,
)

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
        fc = resolve("delta").coefficients(400)
        got = regulated_sum(fc, 0.0, 0.5)
        assert got == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-12)
        assert got == pytest.approx(oracle_poisson_kernel(0.0, 0.0, 0.5), abs=1e-12)

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
        # rho_limit weighs a series' K = 1 cutoff, and warns, before it reads the angle
        with pytest.raises(ValueError, match="finite"), pytest.warns(TruncationWarning):
            rho_limit(fc, theta, RhoSchedule.geometric(1, 4))
        with pytest.raises(ValueError, match="finite"), pytest.warns(TruncationWarning):
            rho_limit(fc, np.array([0.0, theta, 1.0]), RhoSchedule.geometric(1, 4))
        with pytest.raises(ValueError, match="finite"):
            rho_limit(delta_inner(0.7), np.array([0.0, theta, 1.0]), RhoSchedule.geometric(1, 4))
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
    # a partial arc (power_series for a series) and a full period (the folded FFT)
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
    with pytest.raises(EvaluationError, match="overflows at radius 0.95"), pytest.warns(TruncationWarning):
        rho_limit(w, 0.0, RhoSchedule((0.1, 0.95)))
    assert np.all(np.isfinite(w.polar(theta, 0.1)))


def test_overflowing_closed_form_is_refused_at_its_radius():
    # pytest turns a RuntimeWarning into an error: the overflow is raised, not warned
    w = ClosedForm(lambda z: np.exp(1.0 / (1.0 - z)), pole_set=(1.0,))
    # exp(2**j) on the ray theta = 0 is 2.3e222 at j = 9 and past the double range at j = 10
    with pytest.raises(EvaluationError, match=rf"^closed form overflows at radius {1.0 - 2.0**-10!r}$"):
        rho_limit(w, 0.0, RhoSchedule.geometric(1, 30))
    pole40 = ClosedForm(lambda z: 1.0 / (1.0 - z) ** 40, pole_set=(1.0,))
    rho = 1.0 - 2.0**-30
    with pytest.raises(EvaluationError, match=rf"^closed form overflows at radius {rho!r}$"):
        regulated_sum(pole40, np.array([0.0, 1.0]), rho)
    assert np.isfinite(regulated_sum(pole40, 1.0, rho))


def test_poisson_closed_form_within_truncation(rng):
    K = 800
    for _ in range(20):
        theta1 = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-math.pi, math.pi))
        rho = float(rng.uniform(0.0, 0.97))
        fc = resolve("delta", theta1=theta1).coefficients(K)
        bound = rho ** (K + 1) / (math.pi * (1.0 - rho)) + 1e-12
        assert abs(regulated_sum(fc, theta, rho) - oracle_poisson_kernel(theta, theta1, rho)) <= bound


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
        fc = resolve("delta").coefficients(10000)
        with pytest.warns(TruncationWarning):
            res = rho_limit(fc, math.pi, RhoSchedule.geometric(1, 10, tol=1e-3))
        assert res.converged
        assert abs(res.value) < 1e-3
        rho = 1.0 - 2.0**-10
        assert res.value == pytest.approx((1 - rho) / (2 * math.pi * (1 + rho)), abs=1e-4)

    def test_point_mass_diverges_at_its_angle(self):
        fc = resolve("delta").coefficients(10000)
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

    @pytest.mark.parametrize("theta1", [0.7, -3.0])
    def test_point_mass_closed_form_is_its_poisson_kernel(self, theta1):
        sched = RhoSchedule.geometric(1, 14)
        for theta in theta1 + np.array([0.5, 1.0, 2.0, math.pi, -0.5, -2.5]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = rho_limit(delta_inner(theta1), float(theta), sched)
            want = [oracle_poisson_kernel(float(theta), theta1, rho) for rho in sched.rhos]
            np.testing.assert_allclose(res.history, want, rtol=1e-15, atol=0)
            assert not res.truncation_suspect

    def test_truncation_warning_condition(self):
        # one warning per call, at one angle or at 64
        fc = resolve("delta").coefficients(50)
        for theta in (2.0, np.linspace(-math.pi, math.pi, 64, endpoint=False)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = rho_limit(fc, theta, RhoSchedule.geometric(1, 12, tol=1e-6))
            assert [type(w.message) for w in caught] == [TruncationWarning]
            assert res.truncation_suspect

    def test_truncation_bound_scales_with_the_coefficients(self):
        # |c_k| = k**3 / pi: a unit-coefficient bound (6.2e-13) would pass a cutoff that
        # is 2.7e-5 off the K = 8192 value at rho = 1 - 2**-6, against tol 1e-6
        sched = RhoSchedule.geometric(1, 6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = rho_limit(resolve("delta_derivative", order=3).coefficients(2048), 1.0, sched)
        assert res.truncation_suspect
        assert [type(w.message) for w in caught] == [TruncationWarning]
        assert "truncation bound 0.00169 " in str(caught[0].message)
        longer = rho_limit(resolve("delta_derivative", order=3).coefficients(8192), 1.0, sched)
        assert abs(res.value - longer.value) > sched.tol


@pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
class TestRhoLimitOnAngleArrays:
    SCHED = RhoSchedule.geometric(1, 8, tol=1e-3)

    @pytest.mark.parametrize("w", [resolve("square").coefficients(64), delta_inner(0.7)], ids=["series", "point_mass"])
    def test_partial_arc_equals_the_scalar_calls_bit_for_bit(self, w):
        thetas = np.linspace(-3.0, 3.0, 41)
        res = rho_limit(w, thetas, self.SCHED)
        each = [rho_limit(w, float(t), self.SCHED) for t in thetas]
        assert res.history.shape == res.conjugate.shape == (thetas.size, len(self.SCHED.rhos))
        assert res.history.tobytes() == np.array([r.history for r in each]).tobytes()
        assert res.conjugate.tobytes() == np.array([r.conjugate for r in each]).tobytes()
        assert res.value.tobytes() == np.array([r.value for r in each]).tobytes()
        assert res.converged.tolist() == [r.converged for r in each]
        assert res.truncation_suspect == each[0].truncation_suspect

    def test_full_period_agrees_with_the_scalar_calls(self):
        fc = resolve("square").coefficients(64)
        thetas = np.linspace(-math.pi, math.pi, 40, endpoint=False) + 0.3
        res = rho_limit(fc, thetas, self.SCHED)
        each = [rho_limit(fc, float(t), self.SCHED) for t in thetas]
        for got, want in ((res.history, [r.history for r in each]), (res.conjugate, [r.conjugate for r in each])):
            want = np.array(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=8 * EPS * np.max(np.abs(want)))
        assert res.value.tolist() == res.history[:, -1].tolist()
        assert res.converged.tolist() == [r.converged for r in each]

    @pytest.mark.parametrize("theta", [0.7, np.linspace(-3.0, 3.0, 5), np.linspace(-math.pi, math.pi, 8, endpoint=False)])
    def test_conjugate_is_the_conjugate_sum_at_each_radius(self, theta):
        fc = _fc(alpha0=0.5, alpha=(1.0, -0.25), beta=(0.5,))
        res = rho_limit(fc, theta, self.SCHED)
        want = np.stack([conjugate_sum(fc, theta, rho) for rho in self.SCHED.rhos], axis=-1)
        np.testing.assert_allclose(res.conjugate, want, rtol=0, atol=8 * EPS * np.max(np.abs(want)))

    def test_scalar_angle_keeps_the_scalar_types(self):
        res = rho_limit(_fc(alpha=(1.0,)), 0.5, self.SCHED)
        assert type(res.value) is float and type(res.converged) is bool and type(res.truncation_suspect) is bool
        assert type(res.history) is type(res.conjugate) is tuple
        assert all(type(v) is float for v in res.history + res.conjugate)


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

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            RhoSchedule((0.5, 0.9), tol=tol)

    def test_geometric_stops_at_the_last_radius_below_one(self):
        assert RhoSchedule.geometric(1, 53).rhos[-1] == 1.0 - 2.0**-53 < 1.0
        with pytest.raises(ValueError) as exc:
            RhoSchedule.geometric(50, 54)
        assert str(exc.value) == "need 1 <= j_start < j_stop <= 53, got 50..54"


class TestAngularCalculus:
    def test_derivative_of_identity(self):
        tc = TaylorCoefficients(np.array([0.0, 1.0], dtype=complex))
        assert angular_derivative(tc).c[1] == 1.0j

    def test_derivative_annihilates_constants(self):
        tc = TaylorCoefficients(np.array([5.0, 0.0, 0.0], dtype=complex))
        assert np.all(angular_derivative(tc).c == 0.0)

    def test_overflowing_derivative_is_refused_without_a_warning(self):
        # pytest turns a RuntimeWarning into an error: the overflow is raised, not warned
        tc = TaylorCoefficients(np.array([0.0, 1e308, 1e308], dtype=complex))
        with pytest.raises(EvaluationError) as exc:
            angular_derivative(tc)
        assert str(exc.value) == "the angular derivative k*c_k of c_0..c_2 overflows a double"

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
