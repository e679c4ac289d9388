"""Operational classification of coefficient growth.

A coefficient sequence a_k is exponentially bounded when |a_k| * exp(-C*k)
tends to zero for every C > 0. Polynomial growth of any power passes this
test, and any exponentially bounded complex sequence is the coefficient
sequence of a function analytic on the open unit disk, so its damped
trigonometric sums converge at every radius below 1.

The limit condition is undecidable from a finite prefix. The operational
semantics adopted here fits

    log |a_k|  ~  power * log k + rate * k + const

by least squares over an index window and declares the sequence bounded
when the fitted rate does not exceed 1e-3. Adversarial sequences that turn
exponential beyond the window are necessarily misclassified; the window is
the caller's statement of how far the prefix is trusted.
``classify_sequence`` takes it as the keyword ``window=(lo, hi)``, both
ends included, with 1 <= lo and hi at most the last index; the default
None, and the window of ``equivalence_checks``, is the trailing quarter
(max(1, K // 4), K).

Sequences are fitted as a stack of magnitude rows (``_fit_rows``): the
rows are grouped by their above-roundoff mask in row order, with one
least-squares solve per distinct mask, and a group of one is the lone
fit bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import FourierCoefficients, TaylorCoefficients
from .errors import count

_MIN_FIT_POINTS = 8
_RATE_TOL = 1e-3


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


def family_magnitudes(p, b, K: int) -> np.ndarray:
    """|a_k| = k**p * b**k for k = 0..K, with the k = 0 entry set to 1.

    p and b are numbers, or arrays of one shape that give one row per
    entry. A K below 0, a p that is not finite, or a b outside [0, inf),
    raises ValueError. Entries past the float range are inf or nan,
    without a warning.
    """
    K = count("K", K, 0)
    k = np.arange(K + 1, dtype=float)
    k[0] = 1.0
    p, b = np.asarray(p, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    if not (np.isfinite(p).all() and ((0.0 <= b) & (b < math.inf)).all()):
        raise ValueError("the family k**p * b**k needs a finite p and 0 <= b < inf")
    with np.errstate(over="ignore", invalid="ignore"):
        return k**p * b ** np.arange(K + 1, dtype=float)


def _default_window(K: int) -> tuple[int, int]:
    # trailing window [K/4, K] skips transient small-k behavior
    return (max(1, K // 4), K)


def _roundoff_floors(rows: np.ndarray) -> np.ndarray:
    # 64 eps times each row's largest finite magnitude; an overflowed one must not lift it to inf
    return 64.0 * np.finfo(float).eps * np.max(rows, axis=-1, where=np.isfinite(rows), initial=0.0)


@functools.lru_cache(maxsize=8)
def _design(lo: int, hi: int) -> np.ndarray:
    """Columns log k, k and 1 for k = lo..hi, read-only: one table for every fit over the window."""
    k = np.arange(lo, hi + 1, dtype=float)
    design = np.column_stack([np.log(k), k, np.ones(k.size)])
    design.setflags(write=False)
    return design


def _magnitude_rows(fcs, K: int) -> tuple[np.ndarray, np.ndarray]:
    """|c_k|, |alpha_k| and |beta_k| for k = 0..K of each sequence, shape (n, 3, K + 1), and their floors.

    c_0 = alpha_0/2 and beta_0 = 0; |c_k| = |alpha_k - i*beta_k| is
    hypot(alpha_k, beta_k), bit for bit as ``abs(to_taylor(fc).c)``. Of
    the floors, shape (n, 3), |c| has its own; |alpha| and |beta| share
    the larger of theirs.
    """
    rows = np.zeros((len(fcs), 3, K + 1))
    for row, fc in zip(rows, fcs):
        row[1, 0], row[1, 1:], row[2, 1:] = fc.alpha0, fc.alpha, fc.beta
    np.hypot(rows[:, 1], rows[:, 2], out=rows[:, 0])
    rows[:, 0, 0] *= 0.5
    np.abs(rows, out=rows)
    floors = _roundoff_floors(rows)
    floors[:, 1:] = floors[:, 1:].max(axis=1, keepdims=True)
    return rows, floors


def _fit_rows(rows: np.ndarray, window: tuple[int, int], floors: np.ndarray) -> list[ClassificationReport]:
    """One report per row of a 2-D stack of magnitudes, each row with its own roundoff floor.

    Refusals are those of fitting the rows one at a time, in row order:
    the first row that a lone fit would refuse raises its message. The
    rows that are fitted are grouped by their above-floor mask in one
    pass in row order, and each group takes one least-squares solve with
    a column per member, so a stack costs one ``lstsq`` per distinct
    mask. A group of one is the lone fit bit for bit; in a larger group
    LAPACK may round differently, which moves a rate by tens of ulps and
    a power by about 3e-14 on the family k**5 * b**k.
    """
    lo, hi = window
    lo, hi = window = count("lo", lo), count("hi", hi)
    if lo < 1:
        raise ValueError(f"fit window {window} starts at k = {lo}; need k >= 1")
    # (lo, lo - 1) holds no index, as the default (1, 0) of K = 0 does; an earlier end is a mistake
    if hi < lo - 1:
        raise ValueError(f"fit window {window} ends before it starts")
    if hi > rows.shape[1] - 1:
        raise ValueError(f"window end {hi} exceeds last index {rows.shape[1] - 1}")
    m = rows[:, lo : hi + 1]
    width = m.shape[1]
    finite = np.isfinite(m).all(axis=1)
    nz = m > floors[:, None]
    nonzeros = np.count_nonzero(nz, axis=1)
    # an empty window ends in no nonzero magnitude, so it is degenerate too
    degenerate = (nonzeros < _MIN_FIT_POINTS) & ~nz[:, -1:].any(axis=1)
    refused = ~finite | (~degenerate & ((width < _MIN_FIT_POINTS) | (nonzeros < _MIN_FIT_POINTS)))
    if refused.any():
        i = int(np.argmax(refused))
        if not finite[i]:
            raise ValueError(f"non-finite magnitude in fit window {window}")
        if width < _MIN_FIT_POINTS:
            raise ValueError(f"fit window {window} spans {width} indices; need {_MIN_FIT_POINTS}")
        raise ValueError(
            f"only {nonzeros[i]} magnitudes above roundoff in window {window}; need {_MIN_FIT_POINTS}"
        )
    power = np.zeros(len(rows))
    rate = np.zeros(len(rows))
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(~degenerate).tolist():
        groups.setdefault(nz[i].tobytes(), []).append(i)
    for members in groups.values():
        mask = nz[members[0]]
        sol = np.linalg.lstsq(_design(lo, hi)[mask], np.log(m[members][:, mask]).T, rcond=None)[0]
        power[members], rate[members] = sol[0], sol[1]
    sparse = nonzeros < 0.5 * width
    return [
        ClassificationReport(True, 0.0, 0.0, window, False, True)
        if degenerate[i]
        else ClassificationReport(bool(rate[i] <= _RATE_TOL), float(rate[i]), float(power[i]), window, bool(sparse[i]))
        for i in range(len(rows))
    ]


def classify_sequence(seq, window: tuple[int, int] | None = None) -> ClassificationReport:
    """Classify a coefficient sequence as exponentially bounded or not.

    Accepts TaylorCoefficients (magnitudes |c_k|), FourierCoefficients
    (both real sequences must pass; the reported fit is the worse of the
    two) or a plain magnitude array. Magnitudes at or below 64 eps times
    the largest magnitude of the whole sequence (alpha and beta together)
    are roundoff and count as zeros, which are excluded from the fit. A
    window that starts below k = 1, ends before it starts or ends past the
    last index raises ValueError. A window that is all zeros, or ends in
    zeros with fewer than 8 nonzero magnitudes, classifies as bounded and
    degenerate. Any other window that spans fewer than 8 indices, and a
    window that holds a non-finite magnitude, raise ValueError.

    The alpha and beta sequences are fitted as one stack of two rows
    (``_fit_rows``). A plain array or a Taylor sequence is a stack of one
    and fits exactly as alone.
    """
    if isinstance(seq, FourierCoefficients):
        window = window or _default_window(seq.K)
        rows, floors = _magnitude_rows([seq], seq.K)
        ra, rb = _fit_rows(rows[0, 1:], window, floors[0, 1:])
        # a degenerate view never is the worse; when both are, max keeps ra on the tie
        worse = max((ra, rb), key=lambda r: r.fitted_rate if not r.degenerate else -math.inf)
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
    window = window or _default_window(mags.size - 1)
    return _fit_rows(mags[None, :], window, _roundoff_floors(mags)[None])[0]


def equivalence_checks(fcs) -> list[EquivalenceReport]:
    """Boundedness of |c_k| versus boundedness of (alpha_k, beta_k), for sequences of one K.

    Since |c_k|**2 = alpha_k**2 + beta_k**2, either both views are
    exponentially bounded or neither is; the two classifications are
    expected to agree. The |c_k| view is ``classify_sequence`` of
    ``to_taylor(fc)`` and the other is ``classify_sequence(fc)``, both on
    the default trailing-quarter window, but all 3n magnitude rows of the
    n sequences (|c| with its own roundoff floor, |alpha| and |beta| with
    their shared one) are fitted in one stack: one least-squares solve
    per distinct mask instead of three per sequence. The masks and
    refusals are those of the one-by-one fits, and a refusal raises the
    message of the first sequence that would raise alone. The fitted
    rates agree with the one-by-one fits to ulps, so a classification
    could differ only for a rate within ulps of the 1e-3 tolerance. A
    batch whose sequences differ in K is refused.
    """
    fcs = list(fcs)
    Ks = sorted({fc.K for fc in fcs})
    if len(Ks) > 1:
        raise ValueError(f"equivalence_checks needs one K for every sequence, got K = {', '.join(map(str, Ks))}")
    if not fcs:
        return []
    rows, floors = _magnitude_rows(fcs, Ks[0])
    reps = _fit_rows(rows.reshape(-1, rows.shape[-1]), _default_window(Ks[0]), floors.ravel())
    out = []
    for c_view, a_view, b_view in zip(reps[0::3], reps[1::3], reps[2::3]):
        ab_bounded = a_view.bounded and b_view.bounded
        out.append(EquivalenceReport(c_view.bounded, ab_bounded, c_view.bounded == ab_bounded))
    return out


def equivalence_check(fc: FourierCoefficients) -> EquivalenceReport:
    """``equivalence_checks`` of the one sequence fc."""
    return equivalence_checks([fc])[0]


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
