import math

import numpy as np
import pytest

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
from inner_fourier.kernels import _contour_terms


def geometric_series(K: int = 512) -> ClosedForm:
    def gen(k):
        return TaylorCoefficients(np.ones(k + 1, dtype=complex))

    return ClosedForm(
        lambda z: 1.0 / (1.0 - z), pole_set=(1.0 + 0.0j,), taylor_fn=gen, label="geometric"
    )


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

    def test_cauchy_value_inside(self):
        w = monomial(3)
        z = PolarPoint(0.4, 0.7)
        first, second = _contour_terms(w, z.z, 5, 0.9, 4096)
        assert abs(first - w(z.z)) < 1e-11
        assert abs(second) < 1e-11  # polynomial exhausted at N > degree

    def test_first_term_vanishes_outside(self):
        w = monomial(2)
        first, _ = _contour_terms(w, PolarPoint(0.9, 0.3).z, 3, 0.4, 4096)
        assert abs(first) < 1e-10

    def test_radius_clash_rejected(self):
        with pytest.raises(ValueError, match="ill posed"):
            contour_partial_sum(monomial(2), PolarPoint(0.5, 0.0), 2, 0.5)


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
