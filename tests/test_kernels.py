import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from inner_fourier import (
    ClosedForm,
    DiskProductConfig,
    EvaluationError,
    PolarPoint,
    TaylorCoefficients,
    TaylorSeries,
    boundary_partial_sum,
    coefficients_by_cauchy,
    contour_partial_sum,
    delta_inner,
    inner_product_disk,
    partial_sum,
    remainder,
    resolve,
    to_taylor,
)
from inner_fourier.quadrature import circle_samples, theta_grid


def geometric_series(K: int = 512) -> ClosedForm:
    def gen(k):
        return TaylorCoefficients(np.ones(k + 1, dtype=complex))

    return ClosedForm(
        lambda z: 1.0 / (1.0 - z), pole_set=(1.0 + 0.0j,), taylor_fn=gen, label="geometric"
    )


def test_pole_inside_disk_refused():
    with pytest.raises(ValueError, match="inside the unit disk"):
        ClosedForm(lambda z: 1.0 / (1.0 - 2.0 * z), pole_set=(0.5,))


def test_poles_on_circle_with_roundoff_accepted():
    # exp(i*theta1) computed from theta1 = -0.36 has modulus 1 - 1.1e-16
    assert abs(delta_inner(-0.36).pole_set[0]) < 1.0
    assert geometric_series().pole_set == (1.0 + 0.0j,)


def monomial(k: int) -> TaylorSeries:
    c = np.zeros(k + 1, dtype=complex)
    c[k] = 1.0
    return TaylorSeries(TaylorCoefficients(c))


class TestPartialSum:
    def test_geometric_three_terms(self):
        tc = TaylorCoefficients(np.ones(8, dtype=complex))
        assert partial_sum(tc, PolarPoint(0.5, 0.0), 3) == pytest.approx(1.75)

    def test_single_term(self):
        tc = TaylorCoefficients(np.array([2.5, 1.0, 3.0], dtype=complex))
        assert partial_sum(tc, PolarPoint(0.9, 1.0), 1) == 2.5

    def test_on_unit_circle(self):
        tc = TaylorCoefficients(np.ones(6, dtype=complex))
        assert partial_sum(tc, PolarPoint(1.0, 0.0), 5) == pytest.approx(5.0)

    def test_any_finite_point(self):
        # z**64 overflows at K = 4096; the trailing zeros must not turn that into NaN
        tc = TaylorCoefficients(np.r_[1.0, 3.0, np.zeros(4095)].astype(complex))
        assert partial_sum(tc, PolarPoint(1e5, 0.0), 4097) == 300001.0

    def test_length_precondition(self):
        tc = TaylorCoefficients(np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            partial_sum(tc, PolarPoint(0.5, 0.0), 4)


class TestContourPartialSum:
    def test_polynomial_inside(self):
        rep = contour_partial_sum(monomial(2), PolarPoint(0.3, 0.0), 3, 0.8)
        assert rep.direct == pytest.approx(0.09)
        assert rep.discrepancy < 1e-12

    def test_polynomial_outside(self):
        rep = contour_partial_sum(monomial(2), PolarPoint(0.9, 0.0), 3, 0.4)
        assert rep.direct == pytest.approx(0.81)
        assert rep.discrepancy < 1e-10

    def test_point_mass_inside(self):
        w = delta_inner(math.pi - 0.2)  # pole far from the evaluation point
        rep = contour_partial_sum(w, PolarPoint(0.5, 0.0), 8, 0.9, 8192)
        want = partial_sum(w.taylor(7), PolarPoint(0.5, 0.0), 8)
        assert abs(rep.contour - want) < 1e-8
        assert rep.discrepancy < 1e-8

    def test_point_mass_outside(self):
        w = delta_inner(math.pi / 3)
        rep = contour_partial_sum(w, PolarPoint(0.8, -1.0), 6, 0.4, 4096)
        assert rep.discrepancy < 1e-10

    def test_radius_clash_rejected(self):
        with pytest.raises(ValueError, match="ill posed"):
            contour_partial_sum(monomial(2), PolarPoint(0.5, 0.0), 2, 0.5)

    @pytest.mark.parametrize("N", [1, 5, 30])
    @pytest.mark.parametrize("z", [PolarPoint(0.4, 0.7), PolarPoint(0.85, -2.5)])
    @pytest.mark.parametrize(
        "w", [geometric_series(), monomial(3), delta_inner(2.0)], ids=["geometric", "cubic", "point_mass"]
    )
    def test_partial_sum_plus_remainder_is_the_cauchy_value(self, w, z, N):
        # inside the circle the first contour term, S_N + R_N, is w(z)
        rep = contour_partial_sum(w, z, N, 0.9, 4096)
        assert abs(rep.contour + remainder(w, z, N, 0.9, 4096) - w(z.z)) <= rep.roundoff_bound


class TestRemainder:
    def test_polynomial_exhausted(self):
        assert abs(remainder(monomial(2), PolarPoint(0.4, 1.0), 3, 0.9)) < 1e-12
        assert abs(remainder(monomial(2), PolarPoint(0.4, 1.0), 5, 0.9)) < 1e-12

    def test_geometric_tail_closed_form(self):
        w = geometric_series()
        z = PolarPoint(0.5, 0.0)
        got = remainder(w, z, 4, 0.9)
        assert abs(got - 0.5**4 / (1.0 - 0.5)) < 1e-10

    def test_matches_direct_difference(self):
        w = delta_inner(2.0)
        z = PolarPoint(0.45, -0.8)
        got = remainder(w, z, 10, 0.85, 8192)
        want = w(z.z) - partial_sum(w.taylor(9), z, 10)
        assert abs(got - want) < 1e-9

    def test_decay_slope_is_log_abs_z(self):
        w = geometric_series()
        z = PolarPoint(0.5, 0.0)
        ns = np.arange(2, 25)
        mags = [abs(remainder(w, z, int(n), 0.9)) for n in ns]
        slope = np.polyfit(ns, np.log(mags), 1)[0]
        assert abs(slope - math.log(0.5)) / abs(math.log(0.5)) < 0.02

    def test_doubling_ratio(self):
        w = geometric_series()
        z = PolarPoint(0.5, 0.0)
        r8 = abs(remainder(w, z, 8, 0.9))
        r16 = abs(remainder(w, z, 16, 0.9))
        assert r16 / r8 == pytest.approx(abs(z.z) ** 8, rel=1e-2)

    def test_domain_check(self):
        with pytest.raises(ValueError, match="rho1"):
            remainder(monomial(1), PolarPoint(0.9, 0.0), 2, 0.5)

    @pytest.mark.parametrize("rho1", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("N", [1, 5, 20, 80])
    def test_error_within_roundoff_contract(self, rho1, N):
        # the far-field bound eps * max|w_j| * max(1, A), A = (|z|/rho1)**N / rho1
        w, z, M = geometric_series(), PolarPoint(0.4 * rho1, 1.0), 4096
        assert abs(remainder(w, z, N, rho1, M) - _geometric_tail(z, N)) <= _far_field_bound(w, z, N, rho1, M)

    def test_near_the_aliasing_limit_within_the_far_field_bound(self):
        # (|z|/rho1)**M = 1.6e-16 here; the error was 2.51e-15 against a bound of 2.26e-15
        w, z, N, rho1, M = geometric_series(), PolarPoint(0.8919783833581677, 0.23822533441842797), 10, 0.9, 4096
        assert abs(remainder(w, z, N, rho1, M) - _geometric_tail(z, N)) <= _far_field_bound(w, z, N, rho1, M)

    def test_N_equal_to_M_leaves_an_empty_tail(self):
        assert remainder(geometric_series(), PolarPoint(0.2, 0.0), 64, 0.5, 64) == 0j


class TestBoundaryPartialSum:
    def test_identity_series(self):
        got = boundary_partial_sum(monomial(1), 0.0, 2, 0.99, 8192)
        assert abs(got - 1.0) < 1e-8

    def test_constant_series(self):
        w = TaylorSeries(TaylorCoefficients(np.array([0.7, 0.0], dtype=complex)))
        for n in (1, 2, 5):
            assert abs(boundary_partial_sum(w, 1.2, n, 0.9, 4096) - 0.7) < 1e-8

    def test_jump_function_partial_sums(self):
        fc = resolve("square").coefficients(4000)
        w = TaylorSeries(to_taylor(fc))
        theta, N = math.pi / 2, 64
        want = partial_sum(w.tc, PolarPoint(1.0, theta), N)
        got = boundary_partial_sum(w, theta, N, 0.999, 8192)
        assert abs(got - want) < 1e-3

    def test_quadrature_error_tracks_radius(self):
        # a polynomial of degree below M has no aliasing, so on M nodes the
        # contour identity reproduces its partial sum at every radius
        fc = resolve("square").coefficients(2000)
        w = TaylorSeries(to_taylor(fc))
        want = partial_sum(w.tc, PolarPoint(1.0, 0.6), 16)
        for rho1, bound in ((0.9, 1e-10), (0.99, 1e-10), (0.999, 1e-12)):
            got = boundary_partial_sum(w, 0.6, 16, rho1, 8192)
            assert abs(got - want) < bound

    def test_strict_radius_bound(self):
        with pytest.raises(ValueError, match="strict"):
            boundary_partial_sum(monomial(1), 0.0, 2, 1.0)

    def test_nan_angle_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            boundary_partial_sum(delta_inner(0.5), float("nan"), 4, 0.8, 256)

    def test_needed_m_restores_the_partial_sum(self):
        # the benchmark's known fault, rerun at the M its refusal names
        w = delta_inner(math.pi / 2)
        want = partial_sum(w.taylor(7), PolarPoint(1.0, 0.3), 8)
        assert abs(boundary_partial_sum(w, 0.3, 8, 0.9999, 360419) - want) < 1e-12

    @pytest.mark.parametrize(
        "w, theta, N, rho1, M",
        [
            (TaylorSeries(to_taylor(resolve("square").coefficients(300))), 0.6, 16, 0.9, 1024),
            (TaylorSeries(to_taylor(resolve("square").coefficients(300))), -2.5, 200, 0.99, 4096),
            (delta_inner(0.7), 0.3, 8, 0.8, 512),
            (delta_inner(0.7), -math.pi, 100, 0.9, 4096),
            (geometric_series(), 1.0, 1, 0.5, 64),
            (geometric_series(), 3.0, 40, 0.95, 2048),
        ],
        ids=["series", "series-far", "delta", "delta-seam", "geometric-one-term", "geometric"],
    )
    def test_is_the_exterior_contour_value_bit_for_bit(self, w, theta, N, rho1, M):
        want = contour_partial_sum(w, PolarPoint(1.0, theta), N, rho1, M).contour
        got = boundary_partial_sum(w, theta, N, rho1, M)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, -2.0, math.pi - 0.01])
    def test_polynomial_of_degree_below_m_within_the_far_field_bound(self, theta):
        # degree 59 on 64 nodes: the circle rule admits it, and S_60 = (1 - z**60)/(1 - z)
        w, N, rho1, M = TaylorSeries(TaylorCoefficients(np.ones(60, dtype=complex))), 60, 0.9, 64
        z = PolarPoint(1.0, theta)
        with mpmath.workdps(40):
            zz = mpmath.mpc(z.z.real, z.z.imag)
            want = complex(mpmath.fsum(zz**k for k in range(N)))
        assert abs(boundary_partial_sum(w, theta, N, rho1, M) - want) <= _far_field_bound(w, z, N, rho1, M)


def _needed_m(ratio: float) -> int:
    return math.ceil(math.log(np.finfo(float).eps) / math.log(ratio))


@pytest.mark.parametrize(
    "call, ratio",
    [
        (lambda: coefficients_by_cauchy(delta_inner(math.pi / 2), 3, 0.99, 64), 0.99),
        (lambda: contour_partial_sum(delta_inner(math.pi / 2), PolarPoint(0.5, 0.0), 4, 0.99, 64), 0.99),
        (lambda: remainder(delta_inner(math.pi / 2), PolarPoint(0.5, 0.0), 4, 0.99, 64), 0.99),
        (lambda: remainder(delta_inner(math.pi / 2), PolarPoint(0.49, 0.0), 4, 0.5, 256), 0.98),
        (lambda: boundary_partial_sum(delta_inner(math.pi / 2), 0.3, 8, 0.9999, 256), 0.9999),
        (
            lambda: inner_product_disk(delta_inner(0.0), delta_inner(1.0), DiskProductConfig(0.99, 64)),
            0.99,
        ),
    ],
    ids=["cauchy", "contour", "remainder", "remainder-z", "boundary-known-fault", "disk"],
)
def test_aliased_circle_refused_naming_needed_m(call, ratio):
    with pytest.raises(ValueError, match=f"need M >= {_needed_m(ratio)}$"):
        call()


def _c0_and_ck(k: int) -> TaylorSeries:
    # c_0 = c_k = 1: on M nodes, c_M folds onto c_0
    c = np.zeros(k + 1, dtype=complex)
    c[0] = c[k] = 1.0
    return TaylorSeries(TaylorCoefficients(c))


@pytest.mark.parametrize(
    "c0",
    [
        lambda w, m: coefficients_by_cauchy(w, 0, 1.0, m),
        lambda w, m: contour_partial_sum(w, PolarPoint(0.5, 0.0), 1, 1.0, m).contour,
        lambda w, m: inner_product_disk(_c0_and_ck(1), w, DiskProductConfig(1.0, m)),  # c_0 + c_1
    ],
    ids=["cauchy", "contour", "disk"],
)
def test_polynomial_of_degree_m_refused(c0):
    m = 256
    w = TaylorSeries(TaylorCoefficients(np.r_[_c0_and_ck(m).tc.c, np.zeros(44)]))
    with pytest.raises(ValueError, match="need M >= 301$"):
        c0(w, m)
    assert abs(c0(_c0_and_ck(m - 1), m) - 1.0) <= 1e-12


# Roundoff amplification: a contour value carries the rounding of its
# samples, about eps * max|w_j|, times rho**-k (Cauchy) or (|z|/rho1)**N
# / rho1 (contour, and boundary at |z| = 1). Past 1/sqrt(eps) the value is
# refused, and the message names the radii that pass both rules.
EPS = np.finfo(float).eps
THETA1 = 0.7


def _refusal(call) -> str:
    with pytest.raises(ValueError, match="exceeds 1/sqrt") as exc:
        call()
    return str(exc.value)


def _window(msg: str) -> tuple[float, float]:
    lo, hi = re.search(r"use a radius in \[([\d.]+), ([\d.]+)\]$", msg).groups()
    return float(lo), float(hi)


def _delta_scale(rho: float) -> float:
    w = delta_inner(THETA1)
    return EPS * float(np.max(np.abs(w(rho * np.exp(1j * theta_grid(4096))))))


def _delta_coefficient(k: int) -> complex:
    # c_k = z1**-k / pi of 1/(2*pi) - (1/pi) z/(z - z1), z1 as rounded in delta_inner, to 40 digits
    z1 = delta_inner(THETA1).pole_set[0]
    with mpmath.workdps(40):
        return complex(mpmath.mpc(z1.real, z1.imag) ** -k / mpmath.pi)


def _delta_partial_sum(z: complex, N: int) -> complex:
    # 1/(2*pi) + (1/pi) * sum_{k=1}^{N-1} (z/z1)**k, to 40 digits
    z1 = delta_inner(THETA1).pole_set[0]
    with mpmath.workdps(40):
        u = mpmath.mpc(z.real, z.imag) / mpmath.mpc(z1.real, z1.imag)
        return complex(1 / (2 * mpmath.pi) + u * (1 - u ** (N - 1)) / (1 - u) / mpmath.pi)


@pytest.mark.parametrize("k", [200, 300, 400])
def test_amplified_cauchy_coefficient_refused(k):
    w = delta_inner(THETA1)
    lo, hi = _window(_refusal(lambda: coefficients_by_cauchy(w, k, 0.9)))
    for rho in (lo, hi):
        err = abs(coefficients_by_cauchy(w, k, rho) - _delta_coefficient(k))
        assert err <= _delta_scale(rho) * rho**-k


def test_amplified_boundary_partial_sum_refused():
    w, theta, N = delta_inner(THETA1), 0.3, 100
    lo, hi = _window(_refusal(lambda: boundary_partial_sum(w, theta, N, 0.5)))
    exact = _delta_partial_sum(PolarPoint(1.0, theta).z, N)
    for rho1 in (lo, hi):
        err = abs(boundary_partial_sum(w, theta, N, rho1) - exact)
        assert err <= _delta_scale(rho1) * rho1 ** -(N - 1)


@pytest.mark.parametrize("z, N, M", [(PolarPoint(0.95, 0.3), 300, 4096), (PolarPoint(1.0, 0.3), 3000, None)])
def test_amplified_contour_partial_sum_refused(z, N, M):
    w = delta_inner(THETA1)
    if M is None:
        # on |z| = 1 no radius below the aliasing limit eps**(1/M) keeps (1/rho1)**(N+1) small
        msg = _refusal(lambda: contour_partial_sum(w, z, N, 0.5, 4096))
        M = int(re.search(r"no radius passes at M=4096; need M >= (\d+)$", msg).group(1))
    lo, hi = _window(_refusal(lambda: contour_partial_sum(w, z, N, 0.5, M)))
    exact = _delta_partial_sum(z.z, N)
    for rho1 in (lo, hi):
        rep = contour_partial_sum(w, z, N, rho1, M)
        bound = _far_field_bound(w, z, N, rho1, M)
        assert abs(rep.contour - exact) <= bound
        assert rep.discrepancy <= bound


def _geometric_tail(z: PolarPoint, N: int) -> complex:
    # R_N of 1/(1 - z) is z**N/(1 - z), to 40 digits
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.z.real, z.z.imag)
        return complex(zz**N / (1 - zz))


def _far_field_bound(w, z: PolarPoint, N: int, rho1: float, M: int) -> float:
    # eps * max|w_j| * max(1, A), A = (|z|/rho1)**N / rho1
    return EPS * float(np.max(np.abs(circle_samples(w, rho1, M)))) * max(1.0, (z.rho / rho1) ** N / rho1)


@st.composite
def remainder_cases(draw):
    M = draw(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), label="M")
    # the circle rule admits rho1 up to eps**(1/M) inside the pole at 1, and the
    # aliasing rule of the pole at z admits |z| up to rho1 * eps**(1/M)
    limit = EPS ** (1.0 / M)
    rho1 = draw(st.floats(0.5, 1.0), label="rho1 / limit") * limit
    r = draw(st.floats(0.0, 1.0), label="|z| / (rho1 * limit)") * rho1 * limit
    z = PolarPoint(r, draw(st.floats(-math.pi, math.pi), label="theta"))
    return z, draw(st.integers(1, M), label="N"), rho1, M


@given(case=remainder_cases())
def test_remainder_within_the_tail_length_bound_up_to_the_aliasing_limit(case):
    # the far-field bound times 1/(1 - |z|/rho1), the length of the tail, as the docstring states
    z, N, rho1, M = case
    w = geometric_series()
    try:
        got = remainder(w, z, N, rho1, M)
    except ValueError as exc:
        if not re.search(_REFUSED, str(exc)):
            raise
        reject()
    assert abs(got - _geometric_tail(z, N)) <= _far_field_bound(w, z, N, rho1, M) / (1.0 - z.rho / rho1)


_CUBIC = TaylorSeries(TaylorCoefficients(np.array([1.0, 2.0, 3.0], dtype=complex)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: contour_partial_sum(_CUBIC, PolarPoint(0.3, 0.0), 0, 0.8), "N must be >= 1"),
        (lambda: remainder(_CUBIC, PolarPoint(0.3, 0.0), 0, 0.8), "N must be >= 1"),
        (lambda: boundary_partial_sum(_CUBIC, 0.3, 0, 0.8), "N must be >= 1"),
        (lambda: contour_partial_sum(_CUBIC, PolarPoint(0.3, 0.0), 2, 0.0), "need 0 < rho1 <= 1"),
        (lambda: contour_partial_sum(_CUBIC, PolarPoint(0.3, 0.0), 2, 1.5), "need 0 < rho1 <= 1"),
        (lambda: remainder(_CUBIC, PolarPoint(0.3, 0.0), 2, -0.5), "need 0 < rho1 <= 1"),
        (lambda: remainder(_CUBIC, PolarPoint(0.3, 0.0), 2, 1.5), "need 0 < rho1 <= 1"),
        (lambda: contour_partial_sum(_CUBIC, PolarPoint(0.3, 0.0), 65, 0.8, 64), "need M >= 65"),
        (lambda: remainder(_CUBIC, PolarPoint(0.3, 0.0), 65, 0.8, 64), "65 terms alias on 64 nodes; need M >= 65"),
        (lambda: boundary_partial_sum(_CUBIC, 0.3, 65, 0.8, 64), "^65 terms alias on 64 nodes; need M >= 65$"),
        (
            lambda: remainder(_CUBIC, PolarPoint(0.3, 0.0), 1, 0.8, 0),
            r"^aliasing scale 0.375\*\*M = 1 exceeds eps at M=0; need M >= 37$",
        ),
    ],
    ids=[
        "contour_N0",
        "remainder_N0",
        "boundary_N0",
        "contour_rho1_0",
        "contour_rho1_above_1",
        "remainder_rho1_negative",
        "remainder_rho1_above_1",
        "contour_N_above_M",
        "remainder_N_above_M",
        "boundary_N_above_M",
        "remainder_M0",
    ],
)
def test_kernel_arguments_outside_their_range_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("order", range(1, 6))
def test_contour_sums_refuse_a_pole_of_higher_order(order):
    # the circle rule accepts this circle; the far-field bound does not hold there (2.6x at order 4)
    w, z, rho1 = delta_inner(0.7, order), PolarPoint(0.7427383720105426, 0.8044609718452742), 0.7736421183014592
    circle_samples(w, rho1, 256)
    match = f"^delta inner function \\(theta1=0.7, order={order}\\) has a pole of order {order + 1}; "
    for call in (
        lambda: contour_partial_sum(w, z, 29, rho1, 256),
        lambda: remainder(w, PolarPoint(0.5, 0.8), 29, rho1, 256),
        lambda: boundary_partial_sum(w, 0.8, 29, rho1, 256),
    ):
        with pytest.raises(ValueError, match=match + "the contour sums take simple poles only$"):
            call()


# refusals of the amplification and aliasing rules, of N > M and of |z| = rho1
_REFUSED = "exceeds 1/sqrt|aliasing scale|alias on|ill posed"


@st.composite
def contour_cases(draw):
    M = draw(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]), label="M")
    if draw(st.booleans(), label="point mass"):
        w = delta_inner(draw(st.floats(-math.pi, math.pi, exclude_max=True), label="theta1"))
        # the aliasing rule admits circles up to eps**(1/M) inside the pole on |z| = 1
        limit = EPS ** (1.0 / M)
    else:
        part = st.floats(-1e3, 1e3)
        c = draw(st.lists(st.builds(complex, part, part), min_size=2, max_size=40), label="c")
        w, limit = TaylorSeries(TaylorCoefficients(np.array(c))), 1.0
    rho1 = draw(st.floats(0.5, 1.0), label="rho1 / limit") * limit
    z = PolarPoint(draw(st.floats(0.0, 2.0), label="|z| / rho1") * rho1, draw(st.floats(-math.pi, math.pi)))
    return w, z, draw(st.integers(1, 80), label="N"), rho1, M


@given(case=contour_cases())
def test_contour_equals_direct_wherever_the_amplification_passes(case):
    w, z, N, rho1, M = case
    try:
        rep = contour_partial_sum(w, z, N, rho1, M)
    except ValueError as exc:
        if not re.search(_REFUSED, str(exc)):
            raise
        reject()
    # the contour value's roundoff plus the direct sum's power_series bound
    # 2N * eps * sum_{k<N} |c_k| |z|**k, as stated in quadrature; M * tiny
    # covers operands below the underflow threshold, where no relative bound holds
    c = w.taylor(N).c[:N]
    direct_bound = 2 * N * EPS * math.fsum(np.abs(c) * abs(z.z) ** np.arange(N))
    assert rep.discrepancy <= rep.roundoff_bound + direct_bound + M * np.finfo(float).tiny


def test_roundoff_bound_covers_a_point_near_the_circle():
    # z sits 1e-5 from the node z1 = 1, yet the sum over the FFT of the samples
    # keeps the constant i within the far-field bound eps * max|w_j| = eps
    w = TaylorSeries(TaylorCoefficients(np.array([1j, 0.0])))
    rep = contour_partial_sum(w, PolarPoint(0.99999, 0.0), 1, 1.0, 64)
    assert rep.roundoff_bound == EPS
    assert abs(rep.contour - 1j) <= rep.roundoff_bound


@pytest.mark.xfail(strict=True, reason="roundoff_bound is an estimate, which a simple pole exceeds too")
@pytest.mark.parametrize(
    "rho1, M, N, z",
    [
        (0.10425322487045695, 256, 56, PolarPoint(0.03285510562187334, -0.3029039079950135)),  # 1.79x
        (0.18169330261293384, 1024, 71, PolarPoint(0.020123241884282925, -0.0238213099475519)),  # 1.64x
        (0.32073756895090155, 64, 31, PolarPoint(0.21393229097402988, -0.5770278477099753)),  # 1.36x
    ],
)
def test_simple_pole_within_roundoff_bound(rho1, M, N, z):
    rep = contour_partial_sum(geometric_series(), z, N, rho1, M)
    # S_N of 1/(1 - z) is (1 - z**N)/(1 - z), to 50 digits
    with mpmath.workdps(50):
        zz = mpmath.mpc(z.z.real, z.z.imag)
        exact = complex((1 - zz**N) / (1 - zz))
    assert abs(rep.contour - exact) <= rep.roundoff_bound
