"""Command line frontend.

Three subcommands, each reading every option it accepts:

- ``coeffs (--fn ID [--theta1 A] [--order N] | --csv PATH) --K K [--out PATH]``
  writes coefficient JSON. A catalog entry that does not take --theta1
  (delta, delta_derivative and poisson do) or --order (delta_derivative)
  refuses it.
- ``reconstruct --coeffs PATH [--thetas lo:hi:n] (--rho R | --schedule
  j1..j2 [--tol T]) [--out PATH]`` sweeps the damped sums over a theta
  grid and writes curve CSV through ``fileio.dumps_curve``, whose module
  states the format; --tol with --rho is refused. --schedule goes
  through ``series.rho_limit``, --rho through ``TaylorSeries.polar``; both
  take one folded inverse FFT per radius when the grid spans one full
  period (the default -pi:pi:256), the blocked ``quadrature.power_series``
  on a partial arc.
- ``verify --suite NAME [--K K] [--rho0 R] [--p P] [--b B]`` runs one
  verification suite and exits 1 on any tolerance violation. Each suite
  reads the options its function takes: ortho and complete --K, hilbert
  --K and --rho0, kernels, classify and extend none; --p or --b makes
  classify check one family, which reads --p, --b and --K. It refuses the
  rest. The suites are ortho, complete, kernels, hilbert, classify and
  extend, which checks the point mass and its derivatives as
  distributions: as functionals, by their boundary values and growth,
  and along the angular primitive chain.

All output is deterministic: fixed evaluation order, fixed seeds, every
float printed as its shortest exact repr, so a file reads back as the
same doubles and identical inputs give identical bytes. Exit codes: 0
success, 1 verification failure, 2 usage error, 3 I/O error.

Every refusal, argparse's own included, is one stderr line
``error: <reason>`` with exit 2, and an I/O refusal is one line
``i/o error: <reason>`` with exit 3; ``main`` alone writes them. Only
--help prints usage.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
import warnings

import numpy as np

from . import basis, classify, hilbert, kernels
from .catalog import catalog_ids, resolve
from .coeffs import FourierCoefficients, TaylorCoefficients, fourier_coefficients, to_taylor
from .distributions import delta_inner
from .errors import EvaluationError, count, real
from .fileio import (
    dumps_coefficients,
    dumps_curve,
    read_coefficients_json,
    read_samples_csv,
    write_output,
)
from .quadrature import _EPS
from .series import ClosedForm, PolarPoint, RhoSchedule, TaylorSeries, angular_primitive, rho_limit

_USAGE, _IO = 2, 3


def _parse_angle(tok: str) -> float:
    tok = tok.strip().lower()
    scale = 1.0
    if tok.endswith("pi"):
        scale = math.pi
        tok = tok[:-2]
        if tok in ("", "+"):
            tok = "1"
        elif tok == "-":
            tok = "-1"
    return float(tok) * scale


def _parse_theta_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta grid spec must be lo:hi:n, got {spec!r}")
    lo, hi = _parse_angle(parts[0]), _parse_angle(parts[1])
    n = int(parts[2])
    # hi - lo is NaN or infinite when an end is, and NaN fails every comparison;
    # a finite (hi - lo)*(n - 1) keeps every (hi - lo)*j below from overflowing.
    # n is capped at sys.maxsize so that a larger int, which numpy refuses as an
    # array size, does not overflow its conversion to float here
    if n < 1 or not 0.0 < hi - lo < math.inf or not math.isfinite((hi - lo) * min(n - 1, sys.maxsize)):
        raise ValueError(f"theta grid spec needs n >= 1 and finite lo < hi, got {spec!r}")
    return lo + (hi - lo) * np.arange(n) / n


def _parse_schedule(spec: str, tol: float | None) -> RhoSchedule:
    try:
        j1, j2 = (int(j) for j in spec.split(".."))
    except ValueError:
        raise ValueError(f"schedule must be j1..j2 with integers 1 <= j1 < j2, got {spec!r}") from None
    # an absent --tol leaves the schedule's own default in force
    return RhoSchedule.geometric(j1, j2) if tol is None else RhoSchedule.geometric(j1, j2, tol)


def cmd_coeffs(args) -> int:
    params = {k: getattr(args, k) for k in ("theta1", "order") if getattr(args, k) is not None}
    if (args.fn is None) == (args.csv is None) or (args.csv is not None and params):
        raise ValueError("provide exactly one of --fn or --csv; --theta1 and --order need --fn")
    if args.fn is not None:
        fc = resolve(args.fn, **params).coefficients(args.K)
    else:
        fc = fourier_coefficients(read_samples_csv(args.csv), args.K)
    write_output(dumps_coefficients(fc), args.out)
    return 0


def cmd_reconstruct(args) -> int:
    if (args.rho is None) == (args.schedule is None):
        raise ValueError("provide exactly one of --rho or --schedule")
    if args.rho is not None and args.tol is not None:
        raise ValueError("--tol is read only with --schedule")
    tc = to_taylor(read_coefficients_json(args.coeffs))
    thetas = _parse_theta_grid(args.thetas)
    if args.rho is not None:
        rhos = np.array([real("rho", args.rho, "[0, 1)")])
        values = TaylorSeries(tc).polar(thetas, rhos)
        text = dumps_curve(thetas, rhos, values.real, values.imag)
    else:
        sched = _parse_schedule(args.schedule, args.tol)
        res = rho_limit(TaylorSeries(tc), thetas, sched)
        text = dumps_curve(thetas, np.array(sched.rhos), res.history, res.conjugate, res.converged)
    write_output(text, args.out)
    return 0


def _suite_ortho(K=32):
    g = basis.fourier_gram(K)
    yield "gram_offdiag", g.max_offdiag_error, 1e-12
    yield "gram_diag", g.max_diag_error, 1e-12
    worst = 0.0
    for p in range(-8, 9):
        for rho in (0.25, 0.5, 1.0):
            val = basis.residue_identity_check(p, rho)
            worst = max(worst, abs(val - (1.0 if p == 0 else 0.0)))
    yield "residue_identity", worst, 1e-13


def _suite_complete(K=512):
    theta1, M = 0.7, 4096
    if not 8 <= K < M:
        raise ValueError(f"--suite complete needs 8 <= K <= {M - 1}, got K={K}")
    delta = delta_inner(theta1)
    worst = 0.0
    for rho in (0.3, 0.9, 0.99):
        probe = basis.completeness_probe(resolve("const").function, delta, rho, M)
        worst = max(worst, abs(probe - 1.0))
    yield "unit_mass", worst, 1e-12
    rho = 0.9
    worst = 0.0
    kernel = TaylorSeries(delta.taylor(K))
    for k in range(1, 9):
        probe = basis.completeness_probe(resolve(f"cos_{k}").function, kernel, rho, M)
        worst = max(worst, abs(probe - rho**k * math.cos(k * theta1)))
    yield "poisson_eigenrelation", worst, 1e-10
    worst = 0.0
    kernel = TaylorSeries(delta.taylor(8))
    for name in ("cos_12", "sin_12"):
        probe = basis.completeness_probe(resolve(name).function, kernel, rho, M)
        worst = max(worst, abs(probe))
    yield "zero_coefficient_probe", worst, 1e-10


def _suite_kernels():
    M = 4096
    poly = TaylorSeries(TaylorCoefficients(np.array([0.0, 0.0, 1.0], dtype=complex)))
    inside = kernels.contour_partial_sum(poly, PolarPoint(0.3, 0.0), 3, 0.8, M)
    outside = kernels.contour_partial_sum(poly, PolarPoint(0.9, 0.0), 3, 0.4, M)
    yield "contour_polynomial", max(inside.discrepancy, outside.discrepancy), 1e-10
    w = delta_inner(math.pi / 2)
    din = kernels.contour_partial_sum(w, PolarPoint(0.5, 0.3), 8, 0.9, M)
    dout = kernels.contour_partial_sum(w, PolarPoint(0.8, 0.3), 8, 0.4, M)
    yield "contour_delta", max(din.discrepancy, dout.discrepancy), 1e-10
    geom = ClosedForm(lambda z: 1.0 / (1.0 - z), pole_set=(1.0,), label="geometric")
    z = PolarPoint(0.5, 0.0)
    ns = np.arange(2, 25)
    r = np.array([kernels.remainder(geom, z, int(N), 0.9, M) for N in ns])
    yield "remainder_closed_form", float(np.max(np.abs(r - z.z**ns / (1.0 - z.z)))), 1e-10
    slope = np.polyfit(ns, np.log(np.abs(r)), 1)[0]
    yield "remainder_slope", abs(slope - math.log(0.5)) / abs(math.log(0.5)), 0.02


def _suite_hilbert(K=16, rho0=0.5):
    cfg = hilbert.DiskProductConfig(rho0, max(4 * K + 2, 256))
    g = hilbert.taylor_gram(K, cfg)
    yield "taylor_gram_offdiag", g.max_offdiag_error, 1e-12
    yield "taylor_gram_diag", g.max_diag_error, 1e-12
    g1 = hilbert.taylor_gram(K, hilbert.DiskProductConfig(1.0, cfg.M))
    yield "taylor_gram_identity", float(np.max(np.abs(g1.matrix - np.eye(K + 1)))), 1e-12
    rng = np.random.default_rng(20260810)
    worst = 0.0
    min_norm = math.inf
    for _ in range(100):
        kk = int(rng.integers(2, 65))
        c1 = rng.uniform(-1, 1, kk + 1) + 1j * rng.uniform(-1, 1, kk + 1)
        c2 = rng.uniform(-1, 1, kk + 1) + 1j * rng.uniform(-1, 1, kk + 1)
        t1, t2 = TaylorCoefficients(c1), TaylorCoefficients(c2)
        w1, w2 = TaylorSeries(t1), TaylorSeries(t2)
        cfg_r = hilbert.DiskProductConfig(0.8, max(4 * kk + 4, 64))
        a = hilbert.inner_product_disk(w1, w2, cfg_r)
        worst = max(worst, abs(a - hilbert.inner_product_series(t1, t2, 0.8).value))
        min_norm = min(min_norm, hilbert.norm_disk(w1, cfg_r))
    yield "contour_vs_series", worst, 1e-11
    yield "positivity_margin", max(0.0, 1e-6 - min_norm), 0.0


def _suite_classify():
    errors = 0
    for p in (0.0, 1.0, 2.0, 5.0):
        for b in (0.9, 1.0, 1.01, 1.1):
            rep = classify.classify_sequence(classify.family_magnitudes(p, b, 4096), window=(64, 4096))
            if rep.bounded != (b <= 1.0):
                errors += 1
    yield "family_grid", float(errors), 0.0
    rng = np.random.default_rng(20260810)
    disagree = 0
    for _ in range(_FAMILIES // _FAMILY_BATCH):
        reports = classify.equivalence_checks(_random_families(rng, _FAMILY_BATCH, 512))
        disagree += sum(not rep.agree for rep in reports)
    yield "equivalence_agreement", float(disagree), 0.0
    k = np.arange(1025, dtype=float)
    tc = TaylorCoefficients((k**2).astype(complex))
    yield "tail_ratio", abs(classify.convergence_radius_check(tc, 0.9) - 0.9), 0.05


def _suite_family(p=0.0, b=1.0, K=4096):
    """``verify --suite classify`` given --p or --b: the one family |a_k| = k**p * b**k."""
    magnitudes = classify.family_magnitudes(p, b, K)
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError(f"the family k**p * b**k overflows a double for k <= K at p={p:g}, b={b:g}, K={K}")
    rep = classify.classify_sequence(magnitudes)
    print(
        f"family p={p:g} b={b:g}: bounded={'true' if rep.bounded else 'false'} "
        f"rate={rep.fitted_rate:.6g} power={rep.fitted_power:.6g}"
    )
    yield "family_matches_ground_truth", 0.0 if rep.bounded == (b <= 1.0) else 1.0, 0.5


# the classify suite checks 200 random families in batches of 40: one batch of 200
# saved about 10 ms a run but raised its traced peak memory from 1.2 MB to 8.3 MB
_FAMILIES, _FAMILY_BATCH = 200, 40


def _random_families(rng, n: int, K: int) -> list[FourierCoefficients]:
    """n coefficient pairs whose |c_k| follow the family k**p * b**k, each split by one rotation.

    p and b come from the suite's 4 x 4 grid; random signs vary the
    coefficients without touching their magnitudes.
    """
    p = rng.choice([0.0, 1.0, 2.0, 5.0], size=n)
    b = rng.choice([0.9, 1.0, 1.01, 1.1], size=n)
    phase = rng.uniform(-math.pi, math.pi, size=(n, 1))
    alpha0 = rng.uniform(-1, 1, size=n)
    signed = rng.choice([-1.0, 1.0], size=(n, K)) * classify.family_magnitudes(p, b, K)[:, 1:]
    alpha, beta = signed * np.cos(phase), signed * np.sin(phase)
    return [FourierCoefficients(float(a0), a, bb) for a0, a, bb in zip(alpha0, alpha, beta)]


# the point mass and its derivatives m = 0..3 at theta1 = 0.7 as functionals at (rho, M): the worst
# |probe - rho**k * k**m * cos|sin(k*theta1 - m*pi/2)| / k**m over k = 1..8, measured, by m; each tolerance is 10x
_FUNCTIONAL_WORST = {
    (0.5, 256): (6.3e-17, 5.6e-17, 2.3e-16, 1.2e-16),
    (0.9, 1024): (3.4e-16, 7.8e-16, 7.2e-15, 1.7e-13),
}


def _suite_extend():
    """The point mass at theta1 and its angular derivatives, the singular distributions of the extension.

    Records, each with its measured worst: the functionals, one per (rho, M, m), within 10x the table above; the
    boundary values -pi * Im w of delta(.; 0) and delta'(.; 0) at rho = 1 - 2**-30, -cot(theta/2)/2 and
    1/(4 sin**2(theta/2)), relative 4.4e-16 against 4 eps; the ambiguity, |Re w| there, which is the Abel distance
    1.30 (m = 0) and 5.09 (m = 1) times 1 - rho at theta = 0.5, against 10 * (1 - rho); the growth, a fitted power
    within 4.9e-15 of m, against 1e-9; and the primitive chain, angular_primitive of order m + 1 against order m,
    relative 2.1e-16 against 4 eps.
    """
    theta1 = 0.7
    for (rho, M), worsts in _FUNCTIONAL_WORST.items():
        for m, worst in enumerate(worsts):
            w, err = delta_inner(theta1, m), 0.0
            for k in range(1, 9):
                phase = k * theta1 - m * math.pi / 2
                for kind, want in (("cos", math.cos(phase)), ("sin", math.sin(phase))):
                    got = basis.completeness_probe(resolve(f"{kind}_{k}").function, w, rho, M)
                    err = max(err, abs(got - rho**k * k**m * want) / k**m)
            yield f"functional_m{m}_rho{round(100 * rho)}", err, 10 * worst
    thetas, sched = np.array([0.5, 1.0, 2.5]), RhoSchedule.geometric(1, 30)
    boundary = ambiguity = 0.0
    for m, want in enumerate((-0.5 / np.tan(thetas / 2), 0.25 / np.sin(thetas / 2) ** 2)):
        res = rho_limit(delta_inner(0.0, m), thetas, sched)
        boundary = max(boundary, float(np.max(np.abs(-math.pi * res.conjugate[:, -1] - want) / np.abs(want))))
        ambiguity = max(ambiguity, float(np.max(np.abs(res.value))))
    yield "boundary_value", boundary, 4 * _EPS
    yield "ambiguity", ambiguity, 10 * (1.0 - sched.rhos[-1])
    power_err = chain = 0.0
    for m in range(4):
        rep = classify.classify_sequence(delta_inner(theta1, m).taylor(4096))
        power_err = max(power_err, abs(rep.fitted_power - m) if rep.bounded and not rep.degenerate else math.inf)
        want = delta_inner(theta1, m).taylor(64).c[1:]
        got = angular_primitive(delta_inner(theta1, m + 1).taylor(64)).c[1:]
        chain = max(chain, float(np.max(np.abs(got - want) / np.abs(want))))
    yield "growth_power", power_err, 1e-9
    yield "primitive_chain", chain, 4 * _EPS


# each suite yields (name, max_error, tol) records; its keyword parameters are the options it reads
_SUITES = {
    "ortho": _suite_ortho,
    "complete": _suite_complete,
    "kernels": _suite_kernels,
    "hilbert": _suite_hilbert,
    "classify": _suite_classify,
    "extend": _suite_extend,
}


def cmd_verify(args) -> int:
    given = {k: getattr(args, k) for k in ("K", "rho0", "p", "b") if getattr(args, k) is not None}
    count("K", given.get("K", 1), 1)
    suite = _SUITES[args.suite]
    if suite is _suite_classify and given.keys() & {"p", "b"}:
        suite = _suite_family
    unread = [f"--{k}" for k in given if k not in inspect.signature(suite).parameters]
    if unread:
        raise ValueError(f"--suite {args.suite} does not read {', '.join(unread)}")
    failed = []
    for name, err, tol in suite(**given):
        ok = err <= tol
        print(f"{name}: {'PASS' if ok else 'FAIL'} (max_error={err:.3g}, tol={tol:g})")
        if not ok:
            failed.append(name)
    print(f"FAILED: {', '.join(failed)}" if failed else "all checks passed")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise ValueError for ``main`` to print; its subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="inner-fourier", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="compute coefficients of a catalog function or CSV samples")
    pc.add_argument("--fn", help=f"catalog id ({', '.join(catalog_ids())})")
    pc.add_argument("--csv", help="sample CSV path (header theta,value)")
    pc.add_argument("--K", type=int, required=True, help="number of harmonics")
    pc.add_argument("--theta1", type=float, default=None, help="angle of delta, delta_derivative and poisson (default 0)")
    pc.add_argument("--order", type=int, default=None, help="derivative order of delta_derivative (default 1)")
    pc.add_argument("--out", help="output JSON path (default stdout)")
    pc.set_defaults(func=cmd_coeffs)

    pr = sub.add_parser("reconstruct", help="sweep the damped sums over a theta grid")
    pr.add_argument("--coeffs", required=True, help="coefficient JSON path")
    pr.add_argument("--thetas", default="-pi:pi:256", help="theta grid spec lo:hi:n (pi literals allowed)")
    pr.add_argument("--rho", type=float, default=None, help="single radius in [0, 1)")
    pr.add_argument("--schedule", default=None, help="radius schedule j1..j2 meaning rho = 1 - 2^-j")
    pr.add_argument("--tol", type=float, default=None, help="schedule convergence tolerance (with --schedule only)")
    pr.add_argument("--out", help="output CSV path (default stdout)")
    pr.set_defaults(func=cmd_reconstruct)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(_SUITES), help="suite name")
    pv.add_argument("--K", type=int, default=None, help="size for ortho, complete, hilbert and a classify family")
    pv.add_argument("--rho0", type=float, default=None, help="circle radius for the hilbert suite")
    pv.add_argument("--p", type=float, default=None, help="classify the one family k**p * b**k (default p = 0)")
    pv.add_argument("--b", type=float, default=None, help="classify the one family k**p * b**k (default b = 1)")
    pv.set_defaults(func=cmd_verify)
    return ap


def _glue_thetas(argv: list[str]) -> list[str]:
    # argparse reads a separate "-pi:pi:256" as an option; "--thetas=-pi:pi:256" it takes
    out, it = [], iter(argv)
    for tok in it:
        out.append(f"--thetas={next(it, '')}" if tok == "--thetas" else tok)
    return out


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # one stderr line per warning, instead of Python's two naming this file
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(_glue_thetas(sys.argv[1:] if argv is None else argv))
            return args.func(args)
        # a MemoryError is numpy refusing an array size, such as the Gram basis of a huge verify --K
        except (ValueError, EvaluationError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _USAGE
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return _IO


if __name__ == "__main__":
    sys.exit(main())
