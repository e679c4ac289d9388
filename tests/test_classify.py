import hashlib
import math

import numpy as np
import pytest

from inner_fourier import (
    FourierCoefficients,
    TaylorCoefficients,
    classify_sequence,
    convergence_radius_check,
    equivalence_check,
    equivalence_checks,
    family_magnitudes,
    fourier_coefficients,
    resolve,
    to_taylor,
)
from inner_fourier.classify import _fit_rows

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

    @pytest.mark.parametrize(
        "p, b", [(0.0, -1.1), (math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0), (0.0, [1.0, -0.5])]
    )
    def test_family_outside_its_range_is_refused(self, p, b):
        with pytest.raises(ValueError) as exc:
            family_magnitudes(p, b, 16)
        assert str(exc.value) == "the family k**p * b**k needs a finite p and 0 <= b < inf"

    def test_family_of_negative_size_is_refused(self):
        with pytest.raises(ValueError) as exc:
            family_magnitudes(0.0, 1.0, -1)
        assert str(exc.value) == "K must be >= 0, got -1"
        assert family_magnitudes(0.0, 1.0, 0).tolist() == [1.0]

    def test_family_of_base_zero_is_degenerate_and_bounded(self):
        rep = classify_sequence(family_magnitudes(0.0, 0.0, 64))
        assert rep.bounded and rep.degenerate

    def test_family_grid_ground_truth(self):
        for p in GRID_P:
            for b in GRID_B:
                rep = classify_sequence(family_magnitudes(p, b, 4096), window=(64, 4096))
                assert rep.bounded == (b <= 1.0), (p, b)

    def test_all_zero_is_degenerate(self):
        rep = classify_sequence(np.zeros(128))
        assert rep.bounded and rep.degenerate

    def test_decay_into_roundoff_is_degenerate(self):
        rep = classify_sequence(0.3 ** np.arange(101.0))
        assert rep.bounded and rep.degenerate

    def test_sparse_window_is_bounded(self):
        mags = np.zeros(129)
        mags[::4] = 1.0
        assert classify_sequence(mags).bounded

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            classify_sequence(np.ones(6))
        with pytest.raises(ValueError) as exc:
            classify_sequence(np.ones(64), window=(1, 4))
        assert str(exc.value) == "fit window (1, 4) spans 4 indices; need 8"

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
        fc = resolve("delta_derivative", theta1=0.4, order=3).coefficients(512)
        rep = equivalence_check(fc)
        assert rep.c_bounded and rep.agree

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
        assert not rep.c_bounded and rep.agree

    def test_zero_sequences_agree(self):
        fc = FourierCoefficients(0.0, np.zeros(64), np.zeros(64))
        rep = equivalence_check(fc)
        assert rep.c_bounded and rep.agree

    def test_randomized_battery(self, rng):
        for _ in range(200):
            assert equivalence_check(random_family_fc(rng)).agree


class TestConvergenceRadius:
    def test_polynomial_coefficients_rate(self):
        k = np.arange(1025, dtype=float)
        tc = TaylorCoefficients((k**2).astype(complex))
        assert convergence_radius_check(tc, 0.9) == pytest.approx(0.9, abs=0.05)

    @pytest.mark.parametrize("K, n", [(1024, 256), (7, 2)])
    def test_geometric_rate_closed_form(self, K, n):
        # the gaps of sum z**k at z = 1/2 are 2**(1-n) * (1 - 2**-n), so the rate of the
        # last pair (n, 2n) is (1/2) * (1 + 2**-n)**(1/n): 1/2 to the last bit at n = 256
        rate = convergence_radius_check(TaylorCoefficients(np.ones(K + 1, dtype=complex)), 0.5)
        assert rate == pytest.approx(0.5 * (1.0 + 0.5**n) ** (1.0 / n), rel=1e-12)

    def test_zero_radius_is_constant_after_first_term(self):
        tc = TaylorCoefficients(np.arange(64, dtype=complex))
        assert convergence_radius_check(tc, 0.0) is None

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


def test_empty_window_is_degenerate():
    # K = 0: the default window (1, 0) holds no index, so no magnitude is above roundoff
    rep = classify_sequence(np.ones(1))
    assert rep.degenerate and rep.bounded and rep.window == (1, 0)


def rotated_family(p, b, K, phase, alpha0=0.5) -> FourierCoefficients:
    """Family magnitudes split by one rotation; below 1e-16 of the peak they are noise off the law."""
    mags = family_magnitudes(p, b, K)[1:]
    tail = mags < 1e-16 * mags.max()
    mags[tail] = np.random.default_rng(K).uniform(1e-19, 1e-18, np.count_nonzero(tail)) * mags.max()
    return FourierCoefficients(alpha0, mags * math.cos(phase), mags * math.sin(phase))


def batch_mix(K=512) -> list[FourierCoefficients]:
    """Rows with full masks, prefix masks cut by roundoff, all zeros, and sparse ones."""
    sparse = np.zeros(K)
    sparse[3::4] = 1.0
    fcs = [rotated_family(p, b, K, phase) for p in (0.0, 2.0, 5.0) for b in (1.0, 1.01, 1.1) for phase in (0.3, -2.0)]
    # b = 0.9 falls below 64 eps of its peak inside the window [128, 512], at an index set by
    # the phase; a fit over another row's mask would take in the noise beyond that index
    fcs += [rotated_family(p, 0.9, K, phase) for p in (0.0, 1.0, 5.0) for phase in (0.05, 0.7, 1.5, -3.0)]
    fcs += [FourierCoefficients(0.0, np.zeros(K), np.zeros(K)), FourierCoefficients(1.0, np.zeros(K), np.zeros(K))]
    fcs += [FourierCoefficients(0.0, sparse, np.zeros(K)), FourierCoefficients(0.0, sparse, -2.0 * sparse)]
    return fcs


def reference_fit(mags, window, floor):
    """The fit of one row by its own lstsq: (rate, power, sparse), or None when degenerate."""
    lo, hi = window
    k = np.arange(lo, hi + 1, dtype=float)
    m = mags[lo : hi + 1]
    nz = m > floor
    if np.count_nonzero(nz) < 8 and not nz[-1]:
        return None
    design = np.column_stack([np.log(k[nz]), k[nz], np.ones(np.count_nonzero(nz))])
    power, rate, _ = np.linalg.lstsq(design, np.log(m[nz]), rcond=None)[0]
    return rate, power, np.count_nonzero(nz) < 0.5 * k.size


def batch_mix_stack():
    """The |c|, |alpha| and |beta| rows of ``batch_mix()``, with the floors ``equivalence_checks`` gives them."""
    rows, floors = [], []
    for fc in batch_mix():
        c = np.abs(to_taylor(fc).c)
        a, b = np.abs(np.r_[fc.alpha0, fc.alpha]), np.abs(np.r_[0.0, fc.beta])
        ab_floor = 64 * np.finfo(float).eps * max(a.max(), b.max())
        rows += [c, a, b]
        floors += [64 * np.finfo(float).eps * c.max(), ab_floor, ab_floor]
    return rows, floors


class TestBatchedFit:
    def test_batch_equals_one_by_one(self):
        fcs = batch_mix()
        assert equivalence_checks(fcs) == [equivalence_check(fc) for fc in fcs]

    def test_rates_match_per_row_lstsq(self):
        rows, floors = batch_mix_stack()
        window = (128, 512)
        reports = _fit_rows(np.array(rows), window, np.array(floors))
        kinds = {"degenerate": 0, "full": 0, "partial": 0, "sparse": 0}
        for row, floor, rep in zip(rows, floors, reports):
            want = reference_fit(row, window, floor)
            if want is None:
                kinds["degenerate"] += 1
                assert rep == classify_sequence(np.zeros(513))
                continue
            rate, power, sparse = want
            assert abs(rep.fitted_rate - rate) <= 1e-12 and abs(rep.fitted_power - power) <= 1e-12
            assert (rep.bounded, rep.degenerate) == (rate <= 1e-3, False)
            n = np.count_nonzero(row[128:] > floor)
            kinds["sparse" if sparse else "full" if n == 385 else "partial"] += 1
        assert all(kinds.values()), kinds

    def test_stack_of_many_masks_is_pinned_bit_for_bit(self):
        rows, floors = map(np.array, batch_mix_stack())
        masks = rows[:, 128:] > floors[:, None]
        assert (len(rows), len({mask.tobytes() for mask in masks})) == (102, 27)
        reports = _fit_rows(rows, (128, 512), floors)
        text = "\n".join(f"{rep.fitted_rate.hex()} {rep.fitted_power.hex()}" for rep in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == "6e9e78d4cc02b6c518893a2bd8fc32d29c4963dda241536520600b137f1da0b1"

    def test_fourier_view_is_its_two_rows(self):
        for fc in batch_mix():
            rep = classify_sequence(fc)
            a, b = np.abs(np.r_[fc.alpha0, fc.alpha]), np.abs(np.r_[0.0, fc.beta])
            floor = 64 * np.finfo(float).eps * max(a.max(), b.max())
            fits = [reference_fit(row, (128, 512), floor) for row in (a, b)]
            assert rep.degenerate == all(f is None for f in fits)
            assert rep.bounded == all(f is None or f[0] <= 1e-3 for f in fits)
            worst = max((f for f in fits if f is not None), default=(0.0, 0.0, False))
            assert abs(rep.fitted_rate - worst[0]) <= 1e-12

    def test_views_are_those_of_classify_sequence(self):
        # |alpha_k| rises from 64 eps to 1.4 * 64 eps times the largest |alpha|, |beta| in the
        # window: above the shared alpha-beta floor, below the floor of |c|, whose peak is sqrt(2)
        K = 64
        floor = 64 * np.finfo(float).eps
        alpha, beta = np.zeros(K), np.zeros(K)
        alpha[0] = beta[0] = 1.0
        alpha[15:] = floor * 1.4 ** np.linspace(0.01, 1.0, K - 15)
        band = FourierCoefficients(0.0, alpha, beta)
        # alpha_0 = 2 lifts the alpha-beta floor to 128 eps, and |c_0| = alpha_0/2 sets that of |c| to 64 eps
        alpha, beta = np.zeros(K), np.zeros(K)
        alpha[0] = beta[0] = 0.1
        alpha[15:] = floor * np.geomspace(1.01, 1.5, K - 15)
        mean_band = FourierCoefficients(2.0, alpha, beta)
        fcs = [band, mean_band, *batch_mix(K), band]
        want = [(classify_sequence(to_taylor(fc)).bounded, classify_sequence(fc).bounded) for fc in fcs]
        assert want[:2] == [(True, False), (False, True)]
        assert [(rep.c_bounded, rep.agree) for rep in equivalence_checks(fcs)] == [(c, c == ab) for c, ab in want]

    def test_empty_batch(self):
        assert equivalence_checks([]) == []

    def test_mixed_K_is_refused_in_one_line(self):
        with pytest.raises(ValueError) as exc:
            equivalence_checks([FourierCoefficients(0.0, np.zeros(K), np.zeros(K)) for K in (64, 128)])
        assert str(exc.value) == "equivalence_checks needs one K for every sequence, got K = 64, 128"

    def test_batch_raises_its_first_refusal(self):
        def bad(n):
            alpha = np.zeros(64)
            alpha[-n:] = 1.0
            return FourierCoefficients(0.0, alpha, np.zeros(64))

        for first, second in ((7, 6), (6, 7)):
            with pytest.raises(ValueError) as exc:
                equivalence_checks([rotated_family(1.0, 1.0, 64, 0.4), bad(first), bad(second)])
            assert str(exc.value) == f"only {first} magnitudes above roundoff in window (16, 64); need 8"

    @pytest.mark.parametrize(
        "mags, window, text",
        [
            (np.ones(513), (100, 600), "window end 600 exceeds last index 512"),
            (np.ones(65), (0, 64), "fit window (0, 64) starts at k = 0; need k >= 1"),
            (np.ones(65), (64, 10), "fit window (64, 10) ends before it starts"),
            (np.r_[np.ones(64), np.inf], None, "non-finite magnitude in fit window (16, 64)"),
            (np.ones(6), None, "fit window (1, 5) spans 5 indices; need 8"),
            (np.r_[np.zeros(58), np.ones(7)], None, "only 7 magnitudes above roundoff in window (16, 64); need 8"),
        ],
        ids=["window_end", "window_start", "window_reversed", "non_finite", "short_window", "few_points"],
    )
    def test_refusals_keep_their_text(self, mags, window, text):
        with pytest.raises(ValueError) as exc:
            classify_sequence(mags, window)
        assert str(exc.value) == text
        if window is None and mags.size > 7 and np.all(np.isfinite(mags)):
            # a batch, fitted on the default window, raises the message of its first member that a lone check refuses
            bad = FourierCoefficients(0.0, mags[1:], np.zeros(mags.size - 1))
            good = rotated_family(1.0, 1.0, mags.size - 1, 0.4)
            with pytest.raises(ValueError) as exc:
                equivalence_checks([good, bad, good])
            assert str(exc.value) == text
