"""Operational classification of coefficient growth.

A coefficient sequence a_k is exponentially bounded when |a_k| * exp(-C*k)
tends to zero for every C > 0. Polynomial growth of any power passes this
test, and any exponentially bounded complex sequence is the coefficient
sequence of a function analytic on the open unit disk, so its damped
trigonometric sums converge at every radius below 1.

The limit condition is undecidable from a finite prefix. The operational
semantics adopted here fits

    log |a_k|  ~  power * log k + rate * k + const

by least squares over a trailing index window and declares the sequence
bounded when the fitted rate does not exceed a small tolerance. Adversarial
sequences that turn exponential beyond the window are necessarily
misclassified; the window is the caller's statement of how far the
prefix is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, TaylorCoefficients, to_taylor

_MIN_FIT_POINTS = 8
_RATE_TOL = 1e-3


@dataclass(frozen=True)
class GrowthModel:
    """Fit configuration: the index window; the fitted rate is bounded at or below 1e-3."""

    window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.window is not None:
            lo, hi = self.window
            if lo < 1 or hi - lo + 1 < _MIN_FIT_POINTS:
                raise ValueError(f"window must start at k >= 1 and span >= {_MIN_FIT_POINTS}")


@dataclass(frozen=True)
class ClassificationReport:
    bounded: bool
    fitted_rate: float
    fitted_power: float
    window: tuple[int, int]
    sparsity_flag: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class EquivalenceReport:
    c_bounded: bool
    ab_bounded: bool
    agree: bool


@dataclass(frozen=True)
class TailEstimate:
    """Dyadic gaps |S_2N - S_N| at one radius and the implied decay rate."""

    rho: float
    gaps: tuple[tuple[int, float], ...]
    rate: float | None


def family_magnitudes(p: float, b: float, K: int) -> np.ndarray:
    """|a_k| = k**p * b**k for k = 0..K, with the k = 0 entry set to 1.

    Entries past the float range are inf or nan, without a warning.
    """
    k = np.arange(K + 1, dtype=float)
    k[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return k**p * b ** np.arange(K + 1, dtype=float)


def _default_window(K: int) -> tuple[int, int]:
    # trailing window [K/4, K] skips transient small-k behavior
    return (max(1, K // 4), K)


def _roundoff_floor(*mags: np.ndarray) -> float:
    # 64 eps times the largest finite magnitude; an overflowed one must not lift it to inf
    m = np.concatenate(mags)
    return 64.0 * np.finfo(float).eps * float(np.max(m, where=np.isfinite(m), initial=0.0))


def _fit_window(mags: np.ndarray, window: tuple[int, int], floor: float) -> ClassificationReport:
    lo, hi = window
    if hi > mags.size - 1:
        raise ValueError(f"window end {hi} exceeds last index {mags.size - 1}")
    k = np.arange(lo, hi + 1)
    m = mags[lo : hi + 1]
    if not np.all(np.isfinite(m)):
        raise ValueError(f"non-finite magnitude in fit window {window}")
    nz = m > floor
    n_nonzero = int(np.count_nonzero(nz))
    if n_nonzero < _MIN_FIT_POINTS and not nz[-1]:
        return ClassificationReport(True, 0.0, 0.0, window, False, True)
    if k.size < _MIN_FIT_POINTS:
        raise ValueError(f"fit window {window} spans {k.size} indices; need {_MIN_FIT_POINTS}")
    sparsity = n_nonzero < 0.5 * k.size
    if n_nonzero < _MIN_FIT_POINTS:
        raise ValueError(
            f"only {n_nonzero} magnitudes above roundoff in window {window}; need {_MIN_FIT_POINTS}"
        )
    k, m = k[nz], m[nz]
    design = np.column_stack([np.log(k.astype(float)), k.astype(float), np.ones(k.size)])
    sol, *_ = np.linalg.lstsq(design, np.log(m), rcond=None)
    power, rate = float(sol[0]), float(sol[1])
    return ClassificationReport(rate <= _RATE_TOL, rate, power, window, sparsity, False)


def classify_sequence(seq, model: GrowthModel | None = None) -> ClassificationReport:
    """Classify a coefficient sequence as exponentially bounded or not.

    Accepts TaylorCoefficients (magnitudes |c_k|), FourierCoefficients
    (both real sequences must pass; the reported fit is the worse of the
    two) or a plain magnitude array. Magnitudes at or below 64 eps times
    the largest magnitude of the whole sequence (alpha and beta together)
    are roundoff and count as zeros, which are excluded from the fit. A
    window that is all zeros, or ends in zeros with fewer than 8 nonzero
    magnitudes, classifies as bounded and degenerate. Any other window
    that spans fewer than 8 indices, and a window that holds a non-finite
    magnitude, raise ValueError.
    """
    model = model or GrowthModel()
    if isinstance(seq, FourierCoefficients):
        window = model.window or _default_window(seq.K)
        ma = np.abs(np.concatenate([[seq.alpha0], seq.alpha]))
        mb = np.abs(np.concatenate([[0.0], seq.beta]))
        floor = _roundoff_floor(ma, mb)
        ra = _fit_window(ma, window, floor)
        rb = _fit_window(mb, window, floor)
        worse = max((ra, rb), key=lambda r: r.fitted_rate if not r.degenerate else -math.inf)
        if ra.degenerate and rb.degenerate:
            worse = ra
        return ClassificationReport(
            ra.bounded and rb.bounded,
            worse.fitted_rate,
            worse.fitted_power,
            window,
            ra.sparsity_flag or rb.sparsity_flag,
            ra.degenerate and rb.degenerate,
        )
    if isinstance(seq, TaylorCoefficients):
        mags = np.abs(seq.c)
    else:
        mags = np.abs(np.asarray(seq, dtype=complex))
    window = model.window or _default_window(mags.size - 1)
    return _fit_window(mags, window, _roundoff_floor(mags))


def equivalence_check(fc: FourierCoefficients, model: GrowthModel | None = None) -> EquivalenceReport:
    """Boundedness of |c_k| versus boundedness of (alpha_k, beta_k).

    Since |c_k|**2 = alpha_k**2 + beta_k**2, either both views are
    exponentially bounded or neither is; the two classifications are
    expected to agree.
    """
    model = model or GrowthModel()
    c_view = classify_sequence(to_taylor(fc), model)
    ab_view = classify_sequence(fc, model)
    return EquivalenceReport(c_view.bounded, ab_view.bounded, c_view.bounded == ab_view.bounded)


def convergence_radius_check(tc: TaylorCoefficients, rho: float) -> TailEstimate:
    """Numerical Cauchy-property check of the partial sums inside the disk.

    Expects a bounded-classified sequence. At rho < 1 the dyadic gaps
    |S_2N - S_N| at z = rho shrink geometrically; the reported rate (gap
    ratio to the power 1/N) approaches rho itself, the polynomial factor
    washing out in the exponent.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    terms = tc.c * rho ** np.arange(tc.K + 1, dtype=float)
    gaps: list[tuple[int, float]] = []
    n = 1
    while 2 * n <= tc.K + 1:
        # S_2N - S_N summed directly over its block; a difference of
        # the two partial sums would cancel below their own ulp
        gaps.append((n, float(abs(np.sum(terms[n : 2 * n])))))
        n *= 2
    rate = None
    for prev, cur in zip(gaps, gaps[1:]):
        if prev[1] > 0.0 and cur[1] > 0.0:
            rate = (cur[1] / prev[1]) ** (1.0 / prev[0])
    return TailEstimate(float(rho), tuple(gaps), rate)
