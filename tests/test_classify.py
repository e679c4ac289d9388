import math

import numpy as np
import pytest

from inner_fourier import (
    FourierCoefficients,
    GrowthModel,
    TaylorCoefficients,
    classify_sequence,
    convergence_radius_check,
    delta_coefficients,
    equivalence_check,
    family_magnitudes,
    fourier_coefficients,
    resolve,
    to_taylor,
)
from inner_fourier.distributions import DeltaSpec

GRID_P = (0.0, 1.0, 2.0, 5.0)
GRID_B = (0.9, 1.0, 1.01, 1.1)


def random_family_fc(rng, K=512) -> FourierCoefficients:
    """A coefficient pair with family magnitudes split by a fixed rotation.

    The per-sequence rotation angle keeps both real views proportional to
    the magnitude law; sign flips add variety without touching magnitudes.
    """
    p = rng.choice(GRID_P)
    b = rng.choice(GRID_B)
    phase = rng.uniform(-math.pi, math.pi)
    signs = rng.choice([-1.0, 1.0], size=K)
    mags = family_magnitudes(p, b, K)[1:]
    return FourierCoefficients(
        float(rng.uniform(-1, 1)),
        signs * mags * math.cos(phase),
        signs * mags * math.sin(phase),
    )


class TestClassifySequence:
    def test_polynomial_growth_is_bounded(self):
        rep = classify_sequence(family_magnitudes(5.0, 1.0, 2048))
        assert rep.bounded
        assert abs(rep.fitted_rate) < 1e-6
        assert rep.fitted_power == pytest.approx(5.0, abs=1e-3)

    def test_exponential_growth_is_unbounded(self):
        rep = classify_sequence(family_magnitudes(0.0, 1.01, 2048))
        assert not rep.bounded
        assert rep.fitted_rate == pytest.approx(math.log(1.01), abs=1e-6)

    def test_decaying_sequence_is_bounded(self):
        rep = classify_sequence(family_magnitudes(-1.0, 1.0, 2048))
        assert rep.bounded
        assert rep.fitted_power == pytest.approx(-1.0, abs=1e-3)

    def test_family_grid_ground_truth(self):
        model = GrowthModel(window=(64, 4096))
        for p in GRID_P:
            for b in GRID_B:
                rep = classify_sequence(family_magnitudes(p, b, 4096), model)
                assert rep.bounded == (b <= 1.0), (p, b)

    def test_all_zero_is_degenerate(self):
        rep = classify_sequence(np.zeros(128))
        assert rep.bounded and rep.degenerate

    def test_decay_into_roundoff_is_degenerate(self):
        rep = classify_sequence(0.3 ** np.arange(101.0))
        assert rep.bounded and rep.degenerate

    def test_sparse_window_is_flagged(self):
        mags = np.zeros(129)
        mags[::4] = 1.0
        rep = classify_sequence(mags)
        assert rep.sparsity_flag and rep.bounded

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            classify_sequence(np.ones(6))
        with pytest.raises(ValueError):
            GrowthModel(window=(1, 4))

    def test_non_finite_window_rejected(self):
        mags = family_magnitudes(0.0, 2.0, 4096)  # 2**k overflows past k = 1023
        assert np.isinf(mags[-1])
        for seq in (mags, np.r_[np.ones(32), np.nan]):
            with pytest.raises(ValueError, match="non-finite"):
                classify_sequence(seq)


class TestPropertyOneEcho:
    def test_damped_polynomial_peak_is_interior(self):
        # k^p * exp(-C k) on a bounded sequence peaks at finite k and
        # decreases beyond it
        mags = family_magnitudes(5.0, 1.0, 4096)
        k = np.arange(1, 4097, dtype=float)
        for c in (0.1, 0.01):
            for p in (1.0, 2.0):
                damped = mags[1:] * k**p * np.exp(-c * k)
                peak = int(np.argmax(damped))
                assert 0 < peak < k.size - 1
                tail = damped[peak:]
                assert np.all(np.diff(tail) <= 0)


class TestEquivalence:
    def test_distributional_derivative_agrees(self):
        fc = delta_coefficients(DeltaSpec(0.4, 3), 512)
        rep = equivalence_check(fc)
        assert rep.c_bounded and rep.ab_bounded and rep.agree

    def test_roundoff_halves_do_not_decide(self):
        # the triangle's beta_k and even alpha_k are pure roundoff
        fc = fourier_coefficients(resolve("triangle").function, 64, 65536)
        c_view, ab_view = classify_sequence(to_taylor(fc)), classify_sequence(fc)
        assert c_view.bounded and ab_view.bounded
        assert equivalence_check(fc).agree
        assert ab_view.fitted_power == pytest.approx(-2.0, abs=1e-3)
        assert c_view.fitted_power == pytest.approx(-2.0, abs=1e-3)

    def test_exponential_sequences_agree(self):
        K = 256
        fc = FourierCoefficients(0.0, 2.0 ** np.arange(1, K + 1), np.zeros(K))
        rep = equivalence_check(fc)
        assert not rep.c_bounded and not rep.ab_bounded and rep.agree

    def test_zero_sequences_agree(self):
        fc = FourierCoefficients.zeros(64)
        rep = equivalence_check(fc)
        assert rep.c_bounded and rep.ab_bounded and rep.agree

    def test_randomized_battery(self, rng):
        for _ in range(200):
            assert equivalence_check(random_family_fc(rng)).agree


class TestConvergenceRadius:
    def test_polynomial_coefficients_rate(self):
        k = np.arange(1025, dtype=float)
        tc = TaylorCoefficients((k**2).astype(complex))
        est = convergence_radius_check(tc, 0.9)
        assert est.rate == pytest.approx(0.9, abs=0.05)

    def test_geometric_gaps_closed_form(self):
        tc = TaylorCoefficients(np.ones(1025, dtype=complex))
        est = convergence_radius_check(tc, 0.5)
        for n, gap in est.gaps:
            want = 2.0 * 0.5**n * (1.0 - 0.5**n)
            assert gap == pytest.approx(want, rel=1e-12)
        assert est.rate == pytest.approx(0.5, abs=0.05)

    def test_zero_radius_is_constant_after_first_term(self):
        tc = TaylorCoefficients(np.arange(64, dtype=complex))
        est = convergence_radius_check(tc, 0.0)
        assert all(gap == 0.0 for _, gap in est.gaps)
        assert est.rate is None

    def test_domain_validation(self):
        tc = TaylorCoefficients(np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            convergence_radius_check(tc, 1.0)


def test_short_fit_window_names_its_span():
    with pytest.raises(ValueError, match=r"fit window \(2, 8\) spans 7 indices; need 8"):
        classify_sequence(family_magnitudes(2.0, 1.0, 8))
    rep = classify_sequence(family_magnitudes(2.0, 1.0, 9))
    assert rep.window == (2, 9) and rep.bounded


def test_short_window_of_roundoff_stays_degenerate():
    rep = classify_sequence(np.r_[1.0, np.zeros(8)])
    assert rep.degenerate and rep.bounded and rep.window == (2, 8)
