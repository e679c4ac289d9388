"""Scalar product and norm for analytic functions on circles inside the disk.

For functions w1, w2 analytic on the open unit disk and a radius
0 < rho0 <= 1,

    (w1|w2) = (1/(2*pi)) * integral conj(w1(rho0, theta)) * w2(rho0, theta) dtheta

is a scalar product for every fixed rho0, inducing the positive norm
||w||**2 = (1/(2*pi)) * integral (u**2 + v**2) dtheta. The monomials z**k
are orthogonal with (z**k1 | z**k2) = rho0**(k1+k2) * delta(k1, k2), so on
the unit circle they are orthonormal. In coefficient form the product is
the exponentially convergent series sum rho0**(2k) * conj(c1_k) * c2_k,
which may diverge at rho0 = 1 for non decaying coefficient products; that
case is flagged, not masked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import GramReport
from .classify import classify_sequence
from .coeffs import TaylorCoefficients
from .errors import DivergenceWarning, count
from .quadrature import circle_samples, phase_powers, power_series
from .series import InnerAnalytic, truncation_bound


@dataclass(frozen=True)
class DiskProductConfig:
    """Integration circle radius and node count for the disk product."""

    rho0: float
    M: int = 2048

    def __post_init__(self):
        if not 0.0 < self.rho0 <= 1.0:
            raise ValueError(f"need 0 < rho0 <= 1, got {self.rho0}")
        object.__setattr__(self, "M", count("M", self.M, 64))


@dataclass(frozen=True)
class SeriesProductResult:
    """Truncated series product with its tail bound; complex-valued."""

    value: complex
    tail_bound: float
    divergent: bool


def inner_product_disk(w1: InnerAnalytic, w2: InnerAnalytic, cfg: DiskProductConfig) -> complex:
    """Trapezoidal value of (1/(2*pi)) * integral conj(w1) * w2 on the circle rho0.

    rho0 = 1 is allowed only when neither function has a pole there, and
    each function must pass the aliasing rule of ``quadrature.circle_samples``.
    """
    v1 = circle_samples(w1, cfg.rho0, cfg.M)
    v2 = circle_samples(w2, cfg.rho0, cfg.M)
    return complex(np.vdot(v1, v2)) / cfg.M


def series_tail_bound(tc1: TaylorCoefficients, tc2: TaylorCoefficients, rho0: float) -> float:
    """max_{k<=K} |c1_k * c2_k| times ``truncation_bound(rho0**2, K)``, K the shorter cutoff; infinite at rho0 = 1."""
    K = min(tc1.K, tc2.K)
    peak = float(np.max(np.abs(tc1.c[: K + 1]) * np.abs(tc2.c[: K + 1])))
    if rho0 >= 1.0:
        return math.inf if peak > 0.0 else 0.0
    return peak * truncation_bound(rho0 * rho0, K)


def _products_diverge_at_one(products: np.ndarray) -> bool:
    """Summability screen for |c1_k*c2_k| at rho0 = 1.

    A trailing quarter of exact zeros means the visible series has
    terminated. Otherwise the product growth is fitted: a positive rate,
    or a flat rate with polynomial power >= -1, cannot be absolutely
    summable. Sequences too short to fit are flagged conservatively.
    """
    K = products.size - 1
    tail_start = max(1, (3 * (K + 1)) // 4)
    if not np.any(products[tail_start:] > 0.0):
        return False
    if K >= 32:
        try:
            report = classify_sequence(products, window=(1, K))
        except ValueError:
            return True
        if report.degenerate:
            return False
        if not report.bounded:
            return True
        return report.fitted_rate > -1e-9 and report.fitted_power >= -1.0 - 1e-9
    return True


def inner_product_series(
    tc1: TaylorCoefficients, tc2: TaylorCoefficients, rho0: float
) -> SeriesProductResult:
    """Coefficient form of the disk product: sum rho0**(2k) * conj(c1_k) * c2_k.

    The sum is a power series in rho0**2, evaluated at the one point
    rho0**2 by ``quadrature.power_series`` within the bound stated there.
    For rho0 < 1 this matches the contour value up to the attached tail
    bound. At rho0 = 1 with non decaying coefficient products the partial
    value is returned with the divergent flag set and a warning emitted.
    """
    if not 0.0 < rho0 <= 1.0:
        raise ValueError(f"need 0 < rho0 <= 1, got {rho0}")
    n = min(tc1.K, tc2.K) + 1
    value = complex(power_series(np.conj(tc1.c[:n]) * tc2.c[:n], rho0 * rho0))
    divergent = False
    if rho0 >= 1.0:
        products = np.abs(tc1.c[:n]) * np.abs(tc2.c[:n])
        divergent = _products_diverge_at_one(products)
        if divergent:
            warnings.warn(
                "coefficient products do not decay; the rho0 = 1 product series diverges",
                DivergenceWarning,
                stacklevel=2,
            )
    return SeriesProductResult(value, series_tail_bound(tc1, tc2, rho0), divergent)


def norm_disk(w: InnerAnalytic, cfg: DiskProductConfig) -> float:
    """sqrt of (w|w) on the circle rho0, from one sampling of w; zero only for the zero function."""
    v = circle_samples(w, cfg.rho0, cfg.M)
    return math.sqrt(np.vdot(v, v).real / cfg.M)


def taylor_gram(Kmax: int, cfg: DiskProductConfig) -> GramReport:
    """Gram matrix of the monomials z**0..z**Kmax under the disk product.

    Expected: diagonal rho0**(2k), all off-diagonal entries zero, within
    1e-12 for M >= 4*Kmax + 2. Monomials on the circle are rho0**k times
    the exact phase table, and the matrix is their grid Gram V^H V / M;
    its imaginary part is folded into both error figures.
    """
    Kmax = count("Kmax", Kmax, 1)
    if cfg.M < 4 * Kmax + 2:
        raise ValueError(f"need M >= 4*Kmax + 2 = {4 * Kmax + 2}, got {cfg.M}")
    k = np.arange(Kmax + 1)
    # numpy refuses a table it cannot hold here, before the phase table is built; the untouched probe costs no memory
    np.empty((Kmax + 1, cfg.M), dtype=complex)
    v = cfg.rho0 ** k.astype(float)[:, None] * phase_powers(cfg.M, k)
    prod = (v.conj() @ v.T) / cfg.M
    return GramReport.of(prod.real, cfg.rho0 ** (2.0 * k), float(np.max(np.abs(prod.imag))))
