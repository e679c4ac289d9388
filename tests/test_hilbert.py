import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from inner_fourier import (
    DiskProductConfig,
    DivergenceWarning,
    TaylorCoefficients,
    TaylorSeries,
    delta_inner,
    inner_product_disk,
    inner_product_series,
    norm_disk,
    taylor_gram,
    to_taylor,
    trig_poly_entry,
)
from inner_fourier.quadrature import theta_grid, trapezoid_periodic


def monomial(k: int) -> TaylorSeries:
    c = np.zeros(max(k + 1, 2), dtype=complex)
    c[k] = 1.0
    return TaylorSeries(TaylorCoefficients(c))


class TestDiskProduct:
    def test_monomial_norms(self):
        for rho0 in (0.5, 1.0):
            cfg = DiskProductConfig(rho0, 256)
            for k in (1, 2, 3):
                got = inner_product_disk(monomial(k), monomial(k), cfg)
                assert got == pytest.approx(rho0 ** (2 * k), abs=1e-13)

    def test_distinct_monomials_orthogonal(self):
        for rho0 in (0.3, 0.9):
            got = inner_product_disk(monomial(1), monomial(2), DiskProductConfig(rho0, 256))
            assert abs(got) < 1e-13

    def test_constants(self):
        one = TaylorSeries(TaylorCoefficients(np.array([1.0, 0.0], dtype=complex)))
        assert inner_product_disk(one, one, DiskProductConfig(0.7, 128)) == pytest.approx(1.0)

    def test_hermitian_symmetry(self, rng):
        cfg = DiskProductConfig(0.8, 512)
        for _ in range(10):
            w1 = TaylorSeries(TaylorCoefficients(rng.standard_normal(9) + 1j * rng.standard_normal(9)))
            w2 = TaylorSeries(TaylorCoefficients(rng.standard_normal(9) + 1j * rng.standard_normal(9)))
            a = inner_product_disk(w1, w2, cfg)
            b = inner_product_disk(w2, w1, cfg)
            assert abs(a - b.conjugate()) <= 1e-13

    def test_positivity(self, rng):
        for rho0 in (0.3, 0.7, 1.0):
            cfg = DiskProductConfig(rho0, 256)
            for _ in range(5):
                c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
                assert norm_disk(TaylorSeries(TaylorCoefficients(c)), cfg) > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiskProductConfig(0.0, 128)
        with pytest.raises(ValueError):
            DiskProductConfig(1.2, 128)
        with pytest.raises(ValueError):
            DiskProductConfig(0.5, 32)


class TestSeriesProduct:
    def test_constant_term(self):
        tc = TaylorCoefficients(np.array([1.0, 0.0], dtype=complex))
        assert inner_product_series(tc, tc, 0.5).value == 1.0 + 0.0j

    def test_first_harmonic(self):
        tc = TaylorCoefficients(np.array([0.0, 1.0], dtype=complex))
        assert inner_product_series(tc, tc, 0.5).value == pytest.approx(0.25)

    @pytest.mark.parametrize("rho0, K1, K2", [(0.5, 8, 8), (0.9, 64, 16), (0.99, 200, 300)])
    def test_tail_bound_is_the_geometric_tail_of_the_peak_product(self, rho0, K1, K2):
        # max_k |c1_k * c2_k| * rho0**(2(K+1)) / (1 - rho0**2), K the shorter cutoff
        rng = np.random.default_rng(K1)
        tc1 = TaylorCoefficients(rng.standard_normal(K1 + 1) + 0j)
        tc2 = TaylorCoefficients(1j * rng.standard_normal(K2 + 1))
        n = min(K1, K2) + 1
        peak = float(np.max(np.abs(tc1.c[:n]) * np.abs(tc2.c[:n])))
        want = peak * rho0 ** (2 * n) / (1.0 - rho0 * rho0)
        assert inner_product_series(tc1, tc2, rho0).tail_bound == pytest.approx(want, rel=1e-13)

    def test_point_mass_flagged_divergent_on_circle(self):
        tc = delta_inner(0.0).taylor(512)
        with pytest.warns(DivergenceWarning):
            res = inner_product_series(tc, tc, 1.0)
        assert res.divergent
        assert res.tail_bound == math.inf

    def test_summable_products_not_flagged_on_circle(self):
        k = np.arange(1, 257, dtype=float)
        c = np.concatenate([[1.0], 1.0 / k**2]).astype(complex)
        tc = TaylorCoefficients(c)
        res = inner_product_series(tc, tc, 1.0)
        assert not res.divergent

    def test_products_decaying_into_roundoff_not_flagged(self):
        # 0.01**k drops below the classifier's roundoff floor after k = 7
        tc = TaylorCoefficients(0.1 ** np.arange(65.0) + 0j)
        res = inner_product_series(tc, tc, 1.0)
        assert not res.divergent

    def test_terminated_products_not_flagged(self):
        tc = TaylorCoefficients(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex))
        res = inner_product_series(tc, tc, 1.0)
        assert not res.divergent
        assert res.value == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "c",
        [
            np.ones(9),  # K < 32: too short to fit, flagged conservatively
            1.1 ** np.arange(65.0),  # products 1.21**k: the fit is unbounded
            np.r_[1.0, np.zeros(39), 1.0],  # one nonzero product in the window: the fit is refused
        ],
        ids=["short", "unbounded", "fit_refused"],
    )
    def test_nondecaying_products_flagged_on_circle(self, c):
        tc = TaylorCoefficients(c.astype(complex))
        with pytest.warns(DivergenceWarning):
            res = inner_product_series(tc, tc, 1.0)
        assert res.divergent

    def test_matches_contour_value(self, rng):
        worst = 0.0
        for _ in range(30):
            K = int(rng.integers(2, 65))
            t1 = TaylorCoefficients(rng.uniform(-1, 1, K + 1) + 1j * rng.uniform(-1, 1, K + 1))
            t2 = TaylorCoefficients(rng.uniform(-1, 1, K + 1) + 1j * rng.uniform(-1, 1, K + 1))
            cfg = DiskProductConfig(0.8, max(4 * K + 4, 64))
            a = inner_product_disk(TaylorSeries(t1), TaylorSeries(t2), cfg)
            res = inner_product_series(t1, t2, 0.8)
            worst = max(worst, abs(a - res.value))
        assert worst <= 1e-11


class TestNorm:
    def test_monomial_norm_scales_with_radius(self):
        for rho0 in (0.4, 1.0):
            assert norm_disk(monomial(3), DiskProductConfig(rho0, 256)) == pytest.approx(rho0**3)

    def test_zero_function(self):
        assert norm_disk(TaylorSeries(TaylorCoefficients(np.zeros(5))), DiskProductConfig(0.5, 128)) == 0.0


class TestTaylorGram:
    def test_identity_on_unit_circle(self):
        g = taylor_gram(3, DiskProductConfig(1.0, 256))
        assert np.max(np.abs(g.matrix - np.eye(4))) <= 1e-12

    def test_diagonal_at_half(self):
        g = taylor_gram(2, DiskProductConfig(0.5, 256))
        assert g.matrix[2, 2] == pytest.approx(0.0625, abs=1e-13)
        assert abs(g.matrix[0, 1]) <= 1e-13

    def test_error_summaries(self):
        g = taylor_gram(8, DiskProductConfig(0.9, 256))
        assert g.max_diag_error <= 1e-12
        assert g.max_offdiag_error <= 1e-12

    def test_point_count_precondition(self):
        with pytest.raises(ValueError):
            taylor_gram(64, DiskProductConfig(0.5, 64))


@given(
    c=st.lists(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=60),
    rho0=st.floats(0.2, 1.0),
)
def test_parseval_at_radius(c, rho0):
    # norm_disk**2 = sum rho0**(2k) |c_k|**2, within the log2(M) error of the inverse-FFT samples
    w = TaylorSeries(TaylorCoefficients(np.array(c)))
    got = norm_disk(w, DiskProductConfig(rho0, 64)) ** 2
    want = math.fsum(rho0 ** (2 * k) * abs(ck) ** 2 for k, ck in enumerate(c))
    scale = math.fsum(abs(ck) * rho0**k for k, ck in enumerate(c))
    assert abs(got - want) <= 8 * len(c) * np.finfo(float).eps * scale**2


def test_boundary_product_reduces_to_circle_scalar_products(rng):
    # on the unit circle, 2*pi*(w|w) equals (u|u) + (v|v) for the boundary
    # functions u, v of a trigonometric polynomial
    for _ in range(5):
        d = int(rng.integers(1, 6))
        alpha0 = float(rng.uniform(-1, 1))
        alpha, beta = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        fc_entry = trig_poly_entry(alpha0, alpha, beta)
        tc = to_taylor(fc_entry.coefficients(d))
        w = TaylorSeries(tc)
        m = 512
        grid = theta_grid(m)
        u, v = w(np.exp(1j * grid)).real, w(np.exp(1j * grid)).imag
        lhs = 2 * math.pi * inner_product_disk(w, w, DiskProductConfig(1.0, m)).real
        rhs = trapezoid_periodic(u * u) + trapezoid_periodic(v * v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
