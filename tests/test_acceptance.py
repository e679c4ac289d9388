"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import subprocess
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from conftest import oracle_poisson_kernel

from inner_fourier import (
    DiskProductConfig,
    FourierCoefficients,
    PolarPoint,
    RhoSchedule,
    TaylorCoefficients,
    TaylorSeries,
    classify_sequence,
    completeness_probe,
    contour_partial_sum,
    convergence_radius_check,
    delta_inner,
    equivalence_check,
    family_magnitudes,
    fourier_coefficients,
    fourier_gram,
    from_taylor,
    inner_product_disk,
    inner_product_series,
    norm_disk,
    partial_sum,
    regulated_sum,
    remainder,
    residue_identity_check,
    resolve,
    rho_limit,
    taylor_gram,
    to_taylor,
    trig_poly_entry,
)
from inner_fourier import cli
from inner_fourier.series import ClosedForm

_T0 = time.perf_counter()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_coefficient_map():
    rng = np.random.default_rng(11)
    worst = 0.0
    entries = [resolve("const"), resolve("zero")]
    entries += [resolve(f"cos_{k}") for k in range(1, 9)]
    entries += [resolve(f"sin_{k}") for k in range(1, 9)]
    for _ in range(5):
        d = int(rng.integers(1, 9))
        entries.append(trig_poly_entry(float(rng.uniform(-2, 2)), rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)))
    roundtrip_exact = True
    for entry in entries:
        K = 8
        want = entry.coefficients(K)
        got = fourier_coefficients(entry.function, K, 4 * K + 2)
        worst = max(
            worst,
            abs(got.alpha0 - want.alpha0),
            float(np.max(np.abs(got.alpha - want.alpha))),
            float(np.max(np.abs(got.beta - want.beta))),
        )
        back = from_taylor(to_taylor(got))
        roundtrip_exact = roundtrip_exact and (
            back.alpha0 == got.alpha0
            and np.array_equal(back.alpha, got.alpha)
            and np.array_equal(back.beta, got.beta)
        )
    _report(1, "coefficient-map", worst <= 1e-12 and roundtrip_exact, f"max_error={worst:.3g}")


def test_criterion_2_summation_rule_recovery():
    fc = resolve("square").coefficients(2000)
    sched = RhoSchedule.geometric(1, 14, tol=1e-3)
    worst = 0.0
    all_converged = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for theta in (math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4):
            res = rho_limit(fc, theta, sched)
            worst = max(worst, abs(res.value - math.copysign(1.0, theta)))
            all_converged = all_converged and res.converged
        at_jump = rho_limit(fc, 0.0, sched)
    jump_ok = (abs(at_jump.value) < 0.02) or (not at_jump.converged)
    _report(
        2,
        "summation-rule-recovery",
        worst <= 0.02 and all_converged and jump_ok,
        f"max_error={worst:.3g}, jump_value={at_jump.value:.3g}",
    )


def test_criterion_3_delta_poisson_identity():
    rng = np.random.default_rng(33)
    K = 10_000
    worst_excess = -math.inf
    for _ in range(100):
        theta = float(rng.uniform(-math.pi, math.pi))
        theta1 = float(rng.uniform(-math.pi, math.pi))
        rho = float(rng.uniform(0.0, 0.99))
        fc = resolve("delta", theta1=theta1).coefficients(K)
        err = abs(regulated_sum(fc, theta, rho) - oracle_poisson_kernel(theta, theta1, rho))
        bound = rho ** (K + 1) / (math.pi * (1.0 - rho)) + 1e-12
        worst_excess = max(worst_excess, err - bound)
    const = resolve("const").function
    mass_err = max(
        abs(completeness_probe(const, TaylorSeries(delta_inner(0.7).taylor(2000)), rho, 4096) - 1.0)
        for rho in (0.1, 0.5, 0.9, 0.99, 0.999)
    )
    _report(
        3,
        "delta-poisson-identity",
        worst_excess <= 0.0 and mass_err <= 1e-12,
        f"worst_excess={worst_excess:.3g}, unit_mass_error={mass_err:.3g}",
    )


def test_criterion_4_orthogonality():
    g = fourier_gram(64)
    residue_worst = 0.0
    for p in range(-8, 9):
        want = 1.0 if p == 0 else 0.0
        for rho in (0.25, 0.5, 1.0):
            residue_worst = max(residue_worst, abs(residue_identity_check(p, rho) - want))
    ok = g.max_diag_error <= 1e-12 and g.max_offdiag_error <= 1e-12 and residue_worst <= 1e-13
    _report(
        4,
        "orthogonality",
        ok,
        f"diag={g.max_diag_error:.3g}, offdiag={g.max_offdiag_error:.3g}, residue={residue_worst:.3g}",
    )


def test_criterion_5_completeness_probes():
    theta1 = 0.7
    kernel = TaylorSeries(delta_inner(theta1).taylor(512))
    eigen_worst = 0.0
    for rho in (0.5, 0.9, 0.99):
        for k in range(1, 9):
            got = completeness_probe(resolve(f"cos_{k}").function, kernel, rho, 4096)
            eigen_worst = max(eigen_worst, abs(got - rho**k * math.cos(k * theta1)))
    zero_worst = max(
        abs(completeness_probe(resolve(name).function, TaylorSeries(delta_inner(theta1).taylor(8)), 0.97, 2048))
        for name in ("cos_12", "sin_12")
    )
    _report(
        5,
        "completeness-probes",
        eigen_worst <= 1e-10 and zero_worst <= 1e-10,
        f"eigen={eigen_worst:.3g}, zero={zero_worst:.3g}",
    )


def test_criterion_6_kernels():
    M = 4096
    poly = TaylorSeries(TaylorCoefficients(np.array([0.0, 0.0, 1.0], dtype=complex)))
    delta = delta_inner(math.pi / 3)
    cases = [
        contour_partial_sum(poly, PolarPoint(0.3, 0.0), 3, 0.8, M),
        contour_partial_sum(poly, PolarPoint(0.9, 0.0), 3, 0.4, M),
        contour_partial_sum(delta, PolarPoint(0.5, -2.0), 8, 0.9, M),
        contour_partial_sum(delta, PolarPoint(0.8, -2.0), 8, 0.4, M),
    ]
    contour_worst = max(rep.discrepancy for rep in cases)

    geom = ClosedForm(
        lambda z: 1.0 / (1.0 - z),
        pole_set=(1.0 + 0.0j,),
        taylor_fn=lambda k: TaylorCoefficients(np.ones(k + 1, dtype=complex)),
        label="geometric",
    )
    z = PolarPoint(0.5, 0.0)
    tail_worst = 0.0
    mags = []
    ns = np.arange(2, 25)
    for n in ns:
        r = remainder(geom, z, int(n), 0.9, M)
        tail_worst = max(tail_worst, abs(r - z.z**n / (1.0 - z.z)))
        mags.append(abs(r))
    slope = float(np.polyfit(ns, np.log(mags), 1)[0])
    slope_err = abs(slope - math.log(0.5)) / abs(math.log(0.5))
    ok = contour_worst <= 1e-10 and tail_worst <= 1e-10 and slope_err <= 0.02
    _report(
        6,
        "kernels",
        ok,
        f"contour={contour_worst:.3g}, tail={tail_worst:.3g}, slope_err={slope_err:.2%}",
    )


def test_criterion_7_classification():
    grid_errors = 0
    for p in (0.0, 1.0, 2.0, 5.0):
        for b in (0.9, 1.0, 1.01, 1.1):
            rep = classify_sequence(family_magnitudes(p, b, 4096), window=(64, 4096))
            if rep.bounded != (b <= 1.0):
                grid_errors += 1

    rng = np.random.default_rng(77)
    disagreements = 0
    for _ in range(1000):
        p = rng.choice([0.0, 1.0, 2.0, 5.0])
        b = rng.choice([0.9, 1.0, 1.01, 1.1])
        phase = rng.uniform(-math.pi, math.pi)
        signs = rng.choice([-1.0, 1.0], size=512)
        mags = family_magnitudes(p, b, 512)[1:]
        fc = FourierCoefficients(
            float(rng.uniform(-1, 1)),
            signs * mags * math.cos(phase),
            signs * mags * math.sin(phase),
        )
        if not equivalence_check(fc).agree:
            disagreements += 1

    k = np.arange(1025, dtype=float)
    tail_err = abs(convergence_radius_check(TaylorCoefficients((k**2).astype(complex)), 0.9) - 0.9)
    ok = grid_errors == 0 and disagreements == 0 and tail_err <= 0.05
    _report(
        7,
        "classification",
        ok,
        f"grid_errors={grid_errors}, disagreements={disagreements}, tail_err={tail_err:.3g}",
    )


def test_criterion_8_hilbert():
    g_half = taylor_gram(16, DiskProductConfig(0.5, 4 * 16 + 4))
    g_one = taylor_gram(16, DiskProductConfig(1.0, 4 * 16 + 4))
    identity_err = float(np.max(np.abs(g_one.matrix - np.eye(17))))

    rng = np.random.default_rng(88)
    pair_worst = -math.inf
    herm_worst = 0.0
    min_norm = math.inf
    for _ in range(100):
        K = int(rng.integers(2, 257))
        t1 = TaylorCoefficients(rng.uniform(-1, 1, K + 1) + 1j * rng.uniform(-1, 1, K + 1))
        t2 = TaylorCoefficients(rng.uniform(-1, 1, K + 1) + 1j * rng.uniform(-1, 1, K + 1))
        rho0 = float(rng.uniform(0.3, 0.9))
        cfg = DiskProductConfig(rho0, max(4 * K + 4, 64))
        w1, w2 = TaylorSeries(t1), TaylorSeries(t2)
        a = inner_product_disk(w1, w2, cfg)
        res = inner_product_series(t1, t2, rho0)
        pair_worst = max(pair_worst, abs(a - res.value) - res.tail_bound)
        # (w2|w1) on twice the nodes: on the same nodes np.vdot makes the two exact conjugates
        swapped = inner_product_disk(w2, w1, DiskProductConfig(rho0, 2 * cfg.M))
        herm_worst = max(herm_worst, abs(a - swapped.conjugate()))
        min_norm = min(min_norm, norm_disk(w1, cfg))
    for rho0 in (0.3, 0.7, 1.0):
        min_norm = min(
            min_norm,
            norm_disk(
                TaylorSeries(TaylorCoefficients(np.array([0.0, 0.3, -0.1], dtype=complex)))
                , DiskProductConfig(rho0, 256)
            ),
        )
    ok = (
        g_half.max_diag_error <= 1e-12
        and g_half.max_offdiag_error <= 1e-12
        and identity_err <= 1e-12
        and pair_worst <= 1e-11
        and herm_worst <= 1e-13
        and min_norm > 0.0
    )
    _report(
        8,
        "hilbert",
        ok,
        f"gram_diag={g_half.max_diag_error:.3g}, identity={identity_err:.3g}, "
        f"pairs={pair_worst:.3g}, hermitian={herm_worst:.3g}",
    )


def test_criterion_9_cross_module_and_cli():
    # c_k of the n-th derivative of the point mass at theta1 is (i*k)**n * exp(-i*k*theta1)/pi, in 40 digits;
    # the worst error is 7.8 eps of k**n/pi (the rounding of k*theta1), so 64 eps leaves 8x
    mpmath.mp.dps = 40
    k = np.arange(1, 65)
    derivative_err = 0.0
    for n in range(1, 6):
        got = to_taylor(resolve("delta_derivative", theta1=0.33, order=n).coefficients(64)).c
        want = np.array([complex((1j * j) ** n * mpmath.exp(-1j * j * mpmath.mpf(0.33)) / mpmath.pi) for j in k])
        derivative_err = max(derivative_err, abs(got[0]), float(np.max(np.abs(got[1:] - want) / k**n)) * math.pi)

    failures = []
    for suite in ("ortho", "complete", "kernels", "hilbert", "classify"):
        proc = subprocess.run(
            [sys.executable, "-m", "inner_fourier", "verify", "--suite", suite],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            failures.append(f"{suite} (exit {proc.returncode}): {proc.stdout + proc.stderr}")

    elapsed = time.perf_counter() - _T0
    ok = derivative_err <= 64 * np.finfo(float).eps and not failures and elapsed <= 180.0
    _report(
        9,
        "cross-module-and-cli",
        ok,
        f"derivative_err={derivative_err:.3g}, suite_failures={failures or 'none'}, elapsed={elapsed:.1f}s",
    )


def test_criterion_10_extension():
    # the m-th derivative of the point mass, damped to radius rho, takes psi to (-1)**m times the m-th derivative
    # of its Poisson integral at theta1, and its c_k = (i*k)**m * exp(-i*k*theta1)/pi grow with power m;
    # verify --suite extend owns these checks and their measured worsts, so the criterion reads its records
    records = list(cli._suite_extend())
    failed = [name for name, err, tol in records if not err <= tol]
    excess = max(err / tol for name, err, tol in records if name.startswith("functional_"))
    power_err = next(err for name, err, _ in records if name == "growth_power")
    _report(
        10,
        "extension",
        len(records) == 12 and not failed,
        f"functional_excess={excess:.3g}, power_err={power_err:.3g}, failed={failed or 'none'}",
    )
