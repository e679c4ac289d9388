"""Command line frontend.

Three subcommands: ``coeffs`` turns a catalog function or a sample CSV
into coefficient JSON, ``reconstruct`` sweeps the damped sums over a
theta grid and writes curve CSV, and ``verify`` runs the named numerical
verification suite and exits nonzero on any tolerance violation.

All output is deterministic: fixed evaluation order, fixed seeds, floats
printed with 17 significant digits. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import basis, classify, hilbert, kernels
from .catalog import UnknownCatalogId, resolve
from .coeffs import (
    FourierCoefficients,
    TaylorCoefficients,
    fourier_coefficients,
    from_taylor,
    to_taylor,
)
from .distributions import delta_inner
from .errors import EvaluationError
from .fileio import (
    coefficients_payload,
    dumps_csv,
    dumps_json,
    read_coefficients_json,
    read_samples_csv,
    write_curve_csv,
    write_json,
)
from .quadrature import disk_points, power_series
from .series import ClosedForm, PolarPoint, RhoSchedule, TaylorSeries

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
    if n < 1 or hi <= lo:
        raise ValueError(f"bad theta grid spec {spec!r}")
    return lo + (hi - lo) * np.arange(n) / n


def _parse_schedule(spec: str, tol: float) -> RhoSchedule:
    j1, j2 = spec.split("..")
    return RhoSchedule.geometric(int(j1), int(j2), tol)


def cmd_coeffs(args) -> int:
    if (args.fn is None) == (args.csv is None):
        print("coeffs: provide exactly one of --fn or --csv", file=sys.stderr)
        return _USAGE
    K = args.K
    if args.fn is not None:
        entry = resolve(args.fn, theta1=args.theta1, order=args.order)
        # closed-form generators are exact; quadrature covers the rest
        if entry.known_coefficients is not None:
            fc = entry.coefficients(K)
        else:
            fc = fourier_coefficients(entry.function, K, args.M)
    else:
        f = read_samples_csv(args.csv)
        fc = fourier_coefficients(f, K, args.M)
    payload = coefficients_payload(fc, to_taylor(fc))
    if args.out:
        write_json(args.out, payload)
    else:
        sys.stdout.write(dumps_json(payload))
    return 0


def cmd_reconstruct(args) -> int:
    if (args.rho is None) == (args.schedule is None):
        print("reconstruct: provide exactly one of --rho or --schedule", file=sys.stderr)
        return _USAGE
    fc, tc = read_coefficients_json(args.coeffs)
    if fc is None:
        fc = from_taylor(tc)
    thetas = _parse_theta_grid(args.thetas)
    if args.rho is not None:
        if not 0.0 <= args.rho < 1.0:
            print(f"reconstruct: need 0 <= rho < 1, got {args.rho}", file=sys.stderr)
            return _USAGE
        rhos = np.array([args.rho])
    else:
        sched = _parse_schedule(args.schedule, args.tol)
        sched.truncation_suspect(fc.K)
        rhos = np.array(sched.rhos)
    # one row per (theta, rho), theta major; value and conjugate are Re and Im
    values = power_series(to_taylor(fc).c, disk_points(thetas, rhos))
    flags = np.full(values.shape, "", dtype=object)
    if args.rho is None:
        flags[:, -1] = np.where(sched.converged(values.real), "true", "false")
    cols = [*np.meshgrid(thetas, rhos, indexing="ij"), values.real, values.imag, flags]
    rows = zip(*(col.ravel() for col in cols))
    header = ["theta", "rho", "value", "conjugate", "converged"]
    if args.out:
        write_curve_csv(args.out, header, rows)
    else:
        sys.stdout.write(dumps_csv(header, rows))
    return 0


class _Suite:
    """Collects named checks and prints one pass/fail line each."""

    def __init__(self):
        self.failed: list[str] = []

    def check(self, name: str, err: float, tol: float) -> None:
        ok = err <= tol
        print(f"{name}: {'PASS' if ok else 'FAIL'} (max_error={err:.3g}, tol={tol:g})")
        if not ok:
            self.failed.append(name)

    def finish(self) -> int:
        if self.failed:
            print(f"FAILED: {', '.join(self.failed)}")
            return 1
        print("all checks passed")
        return 0


def _suite_ortho(args) -> int:
    K = args.K or 32
    suite = _Suite()
    g = basis.fourier_gram(K, args.M)
    suite.check("gram_offdiag", g.max_offdiag_error, args.tol or 1e-12)
    suite.check("gram_diag", g.max_diag_error, args.tol or 1e-12)
    worst = 0.0
    for p in range(-8, 9):
        for rho in (0.25, 0.5, 1.0):
            val = basis.residue_identity_check(p, rho)
            worst = max(worst, abs(val - (1.0 if p == 0 else 0.0)))
    suite.check("residue_identity", worst, 1e-13)
    return suite.finish()


def _suite_complete(args) -> int:
    suite = _Suite()
    theta1 = 0.7
    worst = 0.0
    for rho in (0.3, 0.9, 0.99):
        worst = max(worst, abs(basis.delta_unit_mass(theta1, rho, 2000, 4096) - 1.0))
    suite.check("unit_mass", worst, 1e-12)
    rho, K, M = 0.9, args.K or 512, 4096
    worst = 0.0
    for k in range(1, 9):
        probe = basis.completeness_probe(resolve(f"cos_{k}").function, theta1, rho, K, M)
        worst = max(worst, abs(probe - rho**k * math.cos(k * theta1)))
    suite.check("poisson_eigenrelation", worst, 1e-10)
    worst = 0.0
    for name in ("cos_12", "sin_12"):
        probe = basis.completeness_probe(resolve(name).function, theta1, rho, 8, M)
        worst = max(worst, abs(probe))
    suite.check("zero_coefficient_probe", worst, 1e-10)
    return suite.finish()


def _suite_kernels(args) -> int:
    suite = _Suite()
    M = args.M or 4096
    poly = TaylorSeries(TaylorCoefficients(np.array([0.0, 0.0, 1.0], dtype=complex)))
    inside = kernels.contour_partial_sum(poly, PolarPoint(0.3, 0.0), 3, 0.8, M)
    outside = kernels.contour_partial_sum(poly, PolarPoint(0.9, 0.0), 3, 0.4, M)
    suite.check("contour_polynomial", max(inside.discrepancy, outside.discrepancy), 1e-10)
    w = delta_inner(math.pi / 2)
    din = kernels.contour_partial_sum(w, PolarPoint(0.5, 0.3), 8, 0.9, M)
    dout = kernels.contour_partial_sum(w, PolarPoint(0.8, 0.3), 8, 0.4, M)
    suite.check("contour_delta", max(din.discrepancy, dout.discrepancy), 1e-10)
    geom = _geometric_form(256)
    z = PolarPoint(0.5, 0.0)
    sweep = []
    worst = 0.0
    for N in range(2, 25):
        r = kernels.remainder(geom, z, N, 0.9, M)
        exact = z.z**N / (1.0 - z.z)
        worst = max(worst, abs(r - exact))
        sweep.append((N, abs(r)))
    suite.check("remainder_closed_form", worst, 1e-10)
    ns = np.array([n for n, _ in sweep], dtype=float)
    slope = np.polyfit(ns, np.log([v for _, v in sweep]), 1)[0]
    suite.check("remainder_slope", abs(slope - math.log(0.5)) / abs(math.log(0.5)), 0.02)
    if args.out:
        write_curve_csv(args.out, ["N", "discrepancy"], [(n, v) for n, v in sweep])
    return suite.finish()


def _geometric_form(K: int):
    def gen(k):
        return TaylorCoefficients(np.ones(k + 1, dtype=complex))

    return ClosedForm(lambda z: 1.0 / (1.0 - z), pole_set=(1.0 + 0.0j,), taylor_fn=gen, label="geometric")


def _suite_hilbert(args) -> int:
    suite = _Suite()
    K = args.K or 16
    rho0 = args.rho0 if args.rho0 is not None else 0.5
    cfg = hilbert.DiskProductConfig(rho0, max(4 * K + 2, 256))
    g = hilbert.taylor_gram(K, cfg)
    suite.check("taylor_gram_offdiag", g.max_offdiag_error, 1e-12)
    suite.check("taylor_gram_diag", g.max_diag_error, 1e-12)
    g1 = hilbert.taylor_gram(K, hilbert.DiskProductConfig(1.0, cfg.M))
    suite.check("taylor_gram_identity", float(np.max(np.abs(g1.matrix - np.eye(K + 1)))), 1e-12)
    rng = np.random.default_rng(20260810)
    worst = herm = 0.0
    min_norm = math.inf
    for _ in range(100):
        kk = int(rng.integers(2, 65))
        c1 = rng.uniform(-1, 1, kk + 1) + 1j * rng.uniform(-1, 1, kk + 1)
        c2 = rng.uniform(-1, 1, kk + 1) + 1j * rng.uniform(-1, 1, kk + 1)
        t1, t2 = TaylorCoefficients(c1), TaylorCoefficients(c2)
        w1, w2 = TaylorSeries(t1), TaylorSeries(t2)
        cfg_r = hilbert.DiskProductConfig(0.8, max(4 * kk + 4, 64))
        a = hilbert.inner_product_disk(w1, w2, cfg_r)
        b = hilbert.inner_product_series(t1, t2, 0.8)
        worst = max(worst, abs(a - b.value) - b.tail_bound)
        herm = max(herm, abs(a - hilbert.inner_product_disk(w2, w1, cfg_r).conjugate()))
        min_norm = min(min_norm, hilbert.norm_disk(w1, cfg_r))
    suite.check("contour_vs_series", worst, 1e-11)
    suite.check("hermitian_symmetry", herm, 1e-13)
    suite.check("positivity_margin", max(0.0, 1e-6 - min_norm), 0.0)
    return suite.finish()


def _suite_classify(args) -> int:
    suite = _Suite()
    if args.family:
        p = args.p or 0.0
        b = args.b if args.b is not None else 1.0
        if args.family == "poly":
            b = 1.0
        mags = classify.family_magnitudes(p, b, args.K or 4096)
        rep = classify.classify_sequence(mags)
        print(
            f"family={args.family} p={p:g} b={b:g}: bounded={'true' if rep.bounded else 'false'} "
            f"rate={rep.fitted_rate:.6g} power={rep.fitted_power:.6g}"
        )
        suite.check("family_matches_ground_truth", 0.0 if rep.bounded == (b <= 1.0) else 1.0, 0.5)
        return suite.finish()
    errors = 0
    model = classify.GrowthModel(window=(64, 4096))
    for p in (0.0, 1.0, 2.0, 5.0):
        for b in (0.9, 1.0, 1.01, 1.1):
            rep = classify.classify_sequence(classify.family_magnitudes(p, b, 4096), model)
            if rep.bounded != (b <= 1.0):
                errors += 1
    suite.check("family_grid", float(errors), 0.0)
    rng = np.random.default_rng(20260810)
    disagree = 0
    for _ in range(200):
        fc = _random_family_fc(rng, 512)
        if not classify.equivalence_check(fc).agree:
            disagree += 1
    suite.check("equivalence_agreement", float(disagree), 0.0)
    k = np.arange(1025, dtype=float)
    tc = TaylorCoefficients((k**2).astype(complex))
    rep = classify.convergence_radius_check(tc, [0.9]).for_rho(0.9)
    suite.check("tail_ratio", abs(rep.rate - 0.9), 0.05)
    return suite.finish()


def _random_family_fc(rng, K: int) -> FourierCoefficients:
    p = rng.choice([0.0, 1.0, 2.0, 5.0])
    b = rng.choice([0.9, 1.0, 1.01, 1.1])
    phase = rng.uniform(-math.pi, math.pi)
    signs = rng.choice([-1.0, 1.0], size=K)
    mags = classify.family_magnitudes(p, b, K)[1:]
    return FourierCoefficients(
        float(rng.uniform(-1, 1)),
        signs * mags * math.cos(phase),
        signs * mags * math.sin(phase),
    )


_SUITES = {
    "ortho": _suite_ortho,
    "complete": _suite_complete,
    "kernels": _suite_kernels,
    "hilbert": _suite_hilbert,
    "classify": _suite_classify,
}


def cmd_verify(args) -> int:
    runner = _SUITES.get(args.suite)
    if runner is None:
        print(f"verify: unknown suite {args.suite!r}", file=sys.stderr)
        return _USAGE
    return runner(args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="inner-fourier", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="compute coefficients of a catalog function or CSV samples")
    pc.add_argument("--fn", help="catalog id (zero, const, square, sawtooth, triangle, delta, delta_derivative, poisson, cos_<k>, sin_<k>)")
    pc.add_argument("--csv", help="sample CSV path (header theta,value)")
    pc.add_argument("--K", type=int, required=True, help="number of harmonics")
    pc.add_argument("--M", type=int, default=None, help="quadrature points (default max(4K, 256))")
    pc.add_argument("--theta1", type=float, default=0.0, help="angle parameter for delta/poisson")
    pc.add_argument("--order", type=int, default=1, help="derivative order for delta_derivative")
    pc.add_argument("--out", help="output JSON path (default stdout)")
    pc.set_defaults(func=cmd_coeffs)

    pr = sub.add_parser("reconstruct", help="sweep the damped sums over a theta grid")
    pr.add_argument("--coeffs", required=True, help="coefficient JSON path")
    pr.add_argument("--thetas", default="-pi:pi:256", help="theta grid spec lo:hi:n (pi literals allowed)")
    pr.add_argument("--rho", type=float, default=None, help="single radius in [0, 1)")
    pr.add_argument("--schedule", default=None, help="radius schedule j1..j2 meaning rho = 1 - 2^-j")
    pr.add_argument("--tol", type=float, default=1e-6, help="schedule convergence tolerance")
    pr.add_argument("--out", help="output CSV path (default stdout)")
    pr.set_defaults(func=cmd_reconstruct)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(_SUITES), help="suite name")
    pv.add_argument("--K", type=int, default=None)
    pv.add_argument("--M", type=int, default=None)
    pv.add_argument("--rho0", type=float, default=None, help="circle radius for the hilbert suite")
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--family", choices=["poly", "exp", "polyexp"], default=None, help="classify one generated family")
    pv.add_argument("--p", type=float, default=None, help="polynomial power of the family")
    pv.add_argument("--b", type=float, default=None, help="exponential base of the family")
    pv.add_argument("--out", help="optional sweep CSV path (kernels suite)")
    pv.set_defaults(func=cmd_verify)
    return ap


def _glue_thetas(argv: list[str]) -> list[str]:
    # argparse reads a separate "-pi:pi:256" as an option; "--thetas=-pi:pi:256" it takes
    out, it = [], iter(argv)
    for tok in it:
        out.append(f"--thetas={next(it, '')}" if tok == "--thetas" else tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_thetas(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UnknownCatalogId as exc:
        print(f"unknown catalog id: {exc}", file=sys.stderr)
        return _USAGE
    except (ValueError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO


if __name__ == "__main__":
    sys.exit(main())
