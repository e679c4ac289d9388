"""Fourier analysis on the unit circle through analytic functions on the unit disk.

A real function on [-pi, pi) maps to a complex coefficient sequence and
hence to a function analytic on the open unit disk. Damping each harmonic
by rho**k and letting rho approach 1 from below sums the trigonometric
series even when it diverges, extends it to singular objects such as the
point mass and its derivatives, and turns orthogonality, completeness and
partial-sum identities into contour-integral statements that the package
verifies numerically.
"""

from __future__ import annotations

from .basis import GramReport, completeness_probe, fourier_gram, residue_identity_check
from .catalog import CatalogEntry, UnknownCatalogId, catalog_ids, resolve, trig_poly_entry
from .classify import (
    ClassificationReport,
    EquivalenceReport,
    classify_sequence,
    convergence_radius_check,
    equivalence_check,
    equivalence_checks,
    family_magnitudes,
)
from .coeffs import (
    FourierCoefficients,
    PeriodicFunction,
    TaylorCoefficients,
    coefficients_by_cauchy,
    fourier_coefficients,
    from_taylor,
    to_taylor,
)
from .distributions import delta_inner, regulated_delta_on_grid
from .errors import DivergenceWarning, EvaluationError, TruncationWarning
from .hilbert import (
    DiskProductConfig,
    SeriesProductResult,
    inner_product_disk,
    inner_product_series,
    norm_disk,
    taylor_gram,
)
from .kernels import (
    PartialSumReport,
    boundary_partial_sum,
    contour_partial_sum,
    partial_sum,
    remainder,
)
from .series import (
    ClosedForm,
    InnerAnalytic,
    PolarPoint,
    RhoLimitResult,
    RhoSchedule,
    TaylorSeries,
    angular_derivative,
    angular_primitive,
    regulated_sum,
    rho_limit,
    truncation_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ClassificationReport",
    "ClosedForm",
    "DiskProductConfig",
    "DivergenceWarning",
    "EquivalenceReport",
    "EvaluationError",
    "FourierCoefficients",
    "GramReport",
    "InnerAnalytic",
    "PartialSumReport",
    "PeriodicFunction",
    "PolarPoint",
    "RhoLimitResult",
    "RhoSchedule",
    "SeriesProductResult",
    "TaylorCoefficients",
    "TaylorSeries",
    "TruncationWarning",
    "UnknownCatalogId",
    "angular_derivative",
    "angular_primitive",
    "boundary_partial_sum",
    "catalog_ids",
    "classify_sequence",
    "coefficients_by_cauchy",
    "completeness_probe",
    "contour_partial_sum",
    "convergence_radius_check",
    "delta_inner",
    "equivalence_check",
    "equivalence_checks",
    "family_magnitudes",
    "fourier_coefficients",
    "fourier_gram",
    "from_taylor",
    "inner_product_disk",
    "inner_product_series",
    "norm_disk",
    "partial_sum",
    "regulated_delta_on_grid",
    "regulated_sum",
    "remainder",
    "residue_identity_check",
    "resolve",
    "rho_limit",
    "taylor_gram",
    "to_taylor",
    "trig_poly_entry",
    "truncation_bound",
]
