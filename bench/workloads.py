"""The benchmark's three workloads, each a fixed list of jobs built from a seed.

A job is one call into the program, timed on its own, and a check that
compares its output with an answer from oracles.py or with a property
the method must have. The seed sets amplitudes, angles, radii and random
coefficients; it never changes how many jobs a pass holds or their
sizes, so every pass of every run does the same amount of work.

A check returns (error, tolerance) pairs and passes when each error is at
most its tolerance. Errors are scaled to the size of the quantity: for
coefficients the largest sample magnitude, for series values the sum of
the terms' magnitudes sum |c_k| rho**k, where roundoff lives.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O
from inner_fourier import (
    basis,
    catalog,
    classify,
    cli,
    coeffs,
    distributions,
    hilbert,
    kernels,
    series,
)

# Tolerances: coefficients against the aliasing oracle, relative to the
# largest sample; series, contour and Cauchy values relative to sum |terms|;
# Gram and disk-product entries absolute, as in the program's own gates.
TOL_COEFFS = 1e-12
TOL_SERIES = 1e-11
TOL_CONTOUR = 1e-12
TOL_GRAM = 1e-12
TOL_DISK = 1e-12


@dataclass
class Job:
    name: str
    kind: str  # jobs of one kind share code path and sizes; set-up runs the first of each
    layer: str  # the layer whose accuracy the check speaks for
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


def build(workload: str, seed: int, work: str) -> list[Job]:
    """The job list of one pass. Input files go under the directory ``work``."""
    return _BUILDERS[workload](np.random.default_rng(seed), work)


def _cli(argv: list[str]):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _require_ok(result) -> str:
    rc, out, err = result
    if rc != 0:
        raise AssertionError(f"exit code {rc}: {err.strip()[-300:]}")
    return out


def _flag(ok: bool) -> tuple[float, float]:
    """A property check as an (error, tolerance) pair."""
    return (0.0 if ok else 1.0, 0.5)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- analysis: samples -> coefficients ------------------------------------

M_CSV, K_CSV = 4096, 1024
K_TALL, M_TALL = 64, 65536
K_WIDE, M_WIDE, R_POISSON = 256, 2048, 0.5


def _coeff_errors(alpha0, alpha, beta, expected, scale) -> list:
    e0, ea, eb = expected
    err = max(abs(alpha0 - e0), _max_abs(alpha, ea), _max_abs(beta, eb)) / scale
    return [(err, TOL_COEFFS)]


def _analysis(rng, work) -> list[Job]:
    jobs: list[Job] = []
    results: dict[str, tuple] = {}
    theta = O.grid(M_CSV)
    for name, samples, trapezoid in (
        ("square", O.square_samples, O.square_trapezoid),
        ("sawtooth", O.sawtooth_samples, O.sawtooth_trapezoid),
        ("triangle", O.triangle_samples, O.triangle_trapezoid),
    ):
        amp, shift = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        values = amp * samples(M_CSV) + shift
        src = os.path.join(work, f"{name}.csv")
        with open(src, "w", encoding="utf-8") as fp:
            fp.write("theta,value\n")
            fp.writelines(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(theta, values))
        a0, al, be = trapezoid(K_CSV, M_CSV)
        expected = (amp * a0 + 2.0 * shift, amp * al, amp * be)
        dst = os.path.join(work, f"{name}.json")

        def check(result, dst=dst, expected=expected, scale=float(np.max(np.abs(values))), name=name):
            _require_ok(result)
            with open(dst, encoding="utf-8") as fp:
                doc = json.load(fp)
            alpha0, alpha, beta = doc["alpha0"], np.array(doc["alpha"]), np.array(doc["beta"])
            results[name] = (alpha0, alpha, beta)
            # the Taylor view in the same file: c_0 = alpha_0/2, c_k = alpha_k - i beta_k
            c = np.array(doc["c_re"]) + 1j * np.array(doc["c_im"])
            taylor_err = _max_abs(c, np.concatenate([[alpha0 / 2], alpha - 1j * beta])) / scale
            return _coeff_errors(alpha0, alpha, beta, expected, scale) + [
                _flag(doc["K"] == K_CSV and alpha.size == K_CSV),
                (taylor_err, TOL_COEFFS),
            ]

        argv = ["coeffs", "--csv", src, "--K", str(K_CSV), "--out", dst]
        jobs.append(Job(f"coeffs_csv:{name}", "coeffs_csv", "coeffs", lambda argv=argv: _cli(argv), check))

    def tall():
        return coeffs.fourier_coefficients(catalog.resolve("triangle").function, K_TALL, M_TALL)

    def check_tall(fc):
        results["triangle_tall"] = (fc.alpha0, fc.alpha, fc.beta)
        return _coeff_errors(fc.alpha0, fc.alpha, fc.beta, O.triangle_trapezoid(K_TALL, M_TALL), math.pi)

    jobs.append(Job("fourier_coefficients:triangle", "fourier_coefficients_tall", "coeffs", tall, check_tall))

    theta1 = rng.uniform(-math.pi, math.pi)

    def wide():
        entry = catalog.resolve("poisson", r=R_POISSON, theta1=theta1)
        return coeffs.fourier_coefficients(entry.function, K_WIDE, M_WIDE)

    def check_wide(fc):
        results["poisson"] = (fc.alpha0, fc.alpha, fc.beta)
        peak = (1.0 + R_POISSON) / (2.0 * math.pi * (1.0 - R_POISSON))
        expected = O.poisson_coefficients(K_WIDE, R_POISSON, theta1)
        return _coeff_errors(fc.alpha0, fc.alpha, fc.beta, expected, peak)

    jobs.append(Job("fourier_coefficients:poisson", "fourier_coefficients_wide", "coeffs", wide, check_wide))

    # Coefficients of bounded functions are bounded, so the |c_k| view must
    # classify as bounded. The (alpha, beta) view is not checked: it fits
    # roundoff noise where one of the two sequences vanishes (CHANGES.md).
    for name in ("square", "sawtooth", "triangle", "triangle_tall", "poisson"):

        def classify_result(name=name):
            fc = coeffs.FourierCoefficients(*results[name])
            return classify.classify_sequence(fc), classify.equivalence_check(fc)

        def check_classify(out, name=name):
            report, equivalence = out
            K = results[name][1].size
            return [_flag(equivalence.c_bounded), _flag(tuple(report.window) == (max(1, K // 4), K))]

        jobs.append(Job(f"classify:{name}", "classify", "classify", classify_result, check_classify))
    return jobs


# -- synthesis: coefficients -> dense curves ------------------------------

K_SCHED, K_DENSE, N_THETA, SCHEDULE = 1024, 4096, 256, (1, 14)
M_GRID, R_SYNTH, THETA1_DELTA = 4096, 0.5, 0.7


def _taylor_of(name: str, K: int, amp: float, theta1: float) -> np.ndarray:
    """c_0..c_K of the closed-form families, written by the benchmark itself."""
    k = np.arange(K + 1)
    c = np.zeros(K + 1, complex)
    if name == "square":
        c[1::2] = -1j * amp * 4.0 / (math.pi * k[1::2])
    elif name == "sawtooth":
        c[1:] = -1j * amp * 2.0 * np.where(k[1:] % 2 == 1, 1.0, -1.0) / k[1:]
    elif name == "delta":
        c = O.delta_taylor(theta1, K)
    elif name == "delta_derivative":
        c = 1j * k * O.delta_taylor(theta1, K)
    elif name == "poisson":
        c = O.delta_taylor(theta1, K) * R_SYNTH ** k.astype(float)
    return c


def _oracle_w(name, c, rho, theta, amp, theta1):
    """w at (rho, theta) for the K-term series with coefficients c.

    Closed forms where they hold; the square and sawtooth extensions are
    used only where their tail bound is negligible, and a direct Horner
    sum of the same K terms elsewhere.
    """
    K = c.size - 1
    if name in ("delta", "poisson"):
        return O.delta_truncated(rho, theta, theta1, K, R_SYNTH if name == "poisson" else 1.0)
    if name == "delta_derivative":
        return O.delta_derivative_truncated(rho, theta, theta1, K)
    extension, tail = {
        "square": (O.square_extension, O.square_tail_bound),
        "sawtooth": (O.sawtooth_extension, O.sawtooth_tail_bound),
    }[name]
    rho, theta = np.broadcast_arrays(np.asarray(rho, float), np.asarray(theta, float))
    out = amp * extension(rho, theta)
    far = np.array([tail(r, K) > 1e-16 for r in rho.ravel()]).reshape(rho.shape)
    if np.any(far):
        out[far] = O.horner(c, rho[far] * np.exp(1j * theta[far]))
    return out


def _read_curve(path: str):
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    if rows[0] != ["theta", "rho", "value", "conjugate", "converged"]:
        raise AssertionError(f"unexpected header {rows[0]}")
    body = rows[1:]
    num = np.array([[float(x) for x in r[:4]] for r in body])
    return num[:, 0], num[:, 1], num[:, 2], num[:, 3], [r[4] for r in body]


def _series_errors(c, rho, theta, value, conjugate, expected) -> float:
    scale = O.abs_sum(c, rho)
    return float(np.max(np.maximum(np.abs(value - expected.real), np.abs(conjugate - expected.imag)) / scale))


def _synthesis(rng, work) -> list[Job]:
    jobs: list[Job] = []
    shift = rng.uniform(0.0, 2.0 * math.pi / N_THETA)
    thetas = f"{-math.pi + shift!r}:{math.pi + shift!r}:{N_THETA}"
    rho_dense = rng.uniform(0.9, 0.99)
    families = []
    for name in ("square", "sawtooth", "delta", "delta_derivative", "poisson"):
        amp = rng.uniform(0.5, 2.0) if name in ("square", "sawtooth") else 1.0
        theta1 = rng.uniform(-math.pi, math.pi) if name == "poisson" else THETA1_DELTA
        families.append((name, amp, theta1))

    sched_rhos = [1.0 - 2.0**-j for j in range(SCHEDULE[0], SCHEDULE[1] + 1)]
    for mode, K in (("schedule", K_SCHED), ("rho", K_DENSE)):
        for name, amp, theta1 in families:
            c = _taylor_of(name, K, amp, theta1)
            src = os.path.join(work, f"{name}_{K}.json")
            with open(src, "w", encoding="utf-8") as fp:
                json.dump(
                    {"K": K, "alpha0": 2.0 * c[0].real, "alpha": c[1:].real.tolist(), "beta": (-c[1:].imag).tolist()},
                    fp,
                )
            dst = os.path.join(work, f"{name}_{K}_{mode}.csv")
            # "--thetas=" form: argparse takes a separate "-3.1:..." for an option
            argv = ["reconstruct", "--coeffs", src, f"--thetas={thetas}", "--out", dst]
            argv += ["--schedule", f"{SCHEDULE[0]}..{SCHEDULE[1]}"] if mode == "schedule" else ["--rho", repr(rho_dense)]

            def check(result, c=c, dst=dst, name=name, amp=amp, theta1=theta1, mode=mode):
                _require_ok(result)
                theta, rho, value, conjugate, flags = _read_curve(dst)
                radii = sched_rhos if mode == "schedule" else [rho_dense]
                checks = [_flag(theta.size == N_THETA * len(radii) and np.array_equal(rho[: len(radii)], radii))]
                expected = _oracle_w(name, c, rho, theta, amp, theta1)
                checks.append((_series_errors(c, rho, theta, value, conjugate, expected), TOL_SERIES))
                if mode == "schedule":
                    # the flag on each angle's last radius reports |h_last - h_prev| < tol
                    n = len(radii)
                    last, prev = value[n - 1 :: n], value[n - 2 :: n]
                    want = ["true" if d < 1e-6 else "false" for d in np.abs(last - prev)]
                    checks.append(_flag(flags[n - 1 :: n] == want))
                return checks

            jobs.append(
                Job(f"reconstruct_{mode}:{name}", f"reconstruct_{mode}", "series", lambda argv=argv: _cli(argv), check)
            )

    grid = O.grid(M_GRID) + rng.uniform(0.0, 2.0 * math.pi / M_GRID)
    theta1 = rng.uniform(-math.pi, math.pi)
    rho = rng.uniform(0.9, 0.99)

    def check_grid(out):
        expected = O.delta_truncated(rho, grid, theta1, K_DENSE).real
        scale = 1.0 / (2.0 * math.pi) + O.abs_sum(np.full(K_DENSE + 1, 1.0 / math.pi), rho) - 1.0 / math.pi
        return [_flag(out.shape == grid.shape), (_max_abs(out, expected) / scale, TOL_SERIES)]

    jobs.append(
        Job(
            "regulated_delta_on_grid",
            "regulated_delta_on_grid",
            "distributions",
            lambda: distributions.regulated_delta_on_grid(grid, theta1, rho, K_DENSE),
            check_grid,
        )
    )
    return jobs


# -- point evaluation and contour identities, one point at a time ---------
# These run inside witness, not as a workload of their own: alone, their
# pass time jumped between two levels 35 % apart as this shared machine's
# speed changed, and the ten-run spread of pass_s reached 0.34.

K_PROBE, M_CONTOUR = 4096, 4096
K_RANDOM, K_DISK = 24, 48  # fixed, so that only coefficients, not work, change with the seed
FAULT = dict(theta1=math.pi / 2, theta=0.3, N=8, rho1=0.9999, M=256)


def _random_taylor(rng, K: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, K + 1) + 1j * rng.uniform(-1.0, 1.0, K + 1)


def _point(rng, lo: float, hi: float):
    return rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)


def _pointwise(rng) -> list[Job]:
    jobs: list[Job] = []
    sched = series.RhoSchedule.geometric(*SCHEDULE)
    radii = np.array(sched.rhos)

    # rho_limit: three scattered angles per function and one beside its
    # singular point (the delta's theta1, the square's jump at 0)
    theta1 = rng.uniform(-math.pi, math.pi)
    for name, amp, special in (("square", rng.uniform(0.5, 2.0), 0.0), ("delta", 1.0, theta1)):
        c = _taylor_of(name, K_PROBE, amp, theta1)
        fc = coeffs.FourierCoefficients(2.0 * c[0].real, c[1:].real, -c[1:].imag)
        near = special + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-2)
        for theta in [rng.uniform(-math.pi, math.pi) for _ in range(3)] + [near]:
            expected = _oracle_w(name, c, radii, np.full(radii.size, theta), amp, theta1).real
            scale = O.abs_sum(c, radii)

            def check(res, expected=expected, scale=scale):
                history = np.array(res.history)
                err = float(np.max(np.abs(history - expected) / scale))
                return [_flag(history.size == radii.size and res.value == history[-1]), (err, TOL_SERIES)]

            jobs.append(
                Job(
                    f"rho_limit:{name}@{theta:.4f}",
                    "rho_limit",
                    "series",
                    lambda fc=fc, theta=theta: series.rho_limit(fc, theta, sched),
                    check,
                )
            )

    # contour identities on the point mass and on random Taylor series,
    # at points inside and outside the contour circle
    delta_w = distributions.delta_inner(theta1)
    delta_c = O.delta_taylor(theta1, 64)
    targets = [("delta", delta_w, delta_c)]
    for i in range(2):
        c = _random_taylor(rng, K_RANDOM)
        w = series.TaylorSeries(coeffs.TaylorCoefficients(c))
        targets.append((f"taylor{i}", w, c))
    for label, w, c in targets:
        for side in ("inside", "outside"):
            for _ in range(2):
                if side == "inside":
                    rz, tz = _point(rng, 0.2, 0.6)
                    rho1 = rz + rng.uniform(0.2, 0.3)
                else:
                    # the contour term scales by (|z|/rho1)**N; keep it below 1e3
                    rz, tz = _point(rng, 0.7, 0.95)
                    rho1 = rz * rng.uniform(0.75, 0.9)
                N = int(rng.integers(4, K_RANDOM + 1))
                z = complex(rz * math.cos(tz), rz * math.sin(tz))
                want = complex(O.horner(c[:N], z))
                scale = float(O.abs_sum(c[:N], rz))

                def check(rep, want=want, scale=scale):
                    err = max(abs(rep.contour - want), abs(rep.direct - want)) / scale
                    return [(err, TOL_CONTOUR)]

                jobs.append(
                    Job(
                        f"contour_partial_sum:{label}:{side}",
                        "contour_partial_sum",
                        "kernels",
                        lambda w=w, rz=rz, tz=tz, N=N, rho1=rho1: kernels.contour_partial_sum(
                            w, series.PolarPoint(rz, tz), N, rho1, M_CONTOUR
                        ),
                        check,
                    )
                )

    # remainder of the geometric series 1/(1 - z) against z**N/(1 - z)
    geometric = series.ClosedForm(
        lambda z: 1.0 / (1.0 - z),
        pole_set=(1.0,),
        taylor_fn=lambda K: coeffs.TaylorCoefficients(np.ones(K + 1, complex)),
        label="geometric",
    )
    for _ in range(6):
        rz, tz = _point(rng, 0.2, 0.7)
        rho1 = rng.uniform(rz + 0.1, 0.95)
        N = int(rng.integers(2, 25))
        z = complex(rz * math.cos(tz), rz * math.sin(tz))
        want = O.geometric_remainder(z, N)
        # roundoff scale of the contour term: (|z|/rho1)**N max|w| / min|z1 - z|
        scale = (rz / rho1) ** N / ((1.0 - rho1) * (rho1 - rz))

        def check(value, want=want, scale=scale):
            return [(abs(value - want) / scale, TOL_CONTOUR)]

        jobs.append(
            Job(
                "remainder:geometric",
                "remainder",
                "kernels",
                lambda rz=rz, tz=tz, N=N, rho1=rho1: kernels.remainder(
                    geometric, series.PolarPoint(rz, tz), N, rho1, M_CONTOUR
                ),
                check,
            )
        )

    # S_N on the unit circle from an integral over a smaller circle
    for _ in range(4):
        theta = rng.uniform(-math.pi, math.pi)
        rho1 = rng.uniform(0.6, 0.9)
        N = int(rng.integers(4, 13))
        want = complex(O.delta_truncated(1.0, theta, theta1, N - 1))
        scale = float(O.abs_sum(delta_c[:N], 1.0))

        def check(value, want=want, scale=scale):
            return [(abs(value - want) / scale, TOL_CONTOUR)]

        jobs.append(
            Job(
                "boundary_partial_sum:delta",
                "boundary_partial_sum",
                "kernels",
                lambda theta=theta, rho1=rho1, N=N: kernels.boundary_partial_sum(
                    delta_w, theta, N, rho1, M_CONTOUR
                ),
                check,
            )
        )

    # The known fault: at rho1 = 0.9999 and M = 256 the quadrature error
    # scale rho1**M is about 0.97, and the result misses S_N by about 10.
    # The inputs are fixed, so this job fails once in every witness pass.
    fault_w = distributions.delta_inner(FAULT["theta1"])
    fault_want = complex(O.delta_truncated(1.0, FAULT["theta"], FAULT["theta1"], FAULT["N"] - 1))
    fault_scale = float(O.abs_sum(O.delta_taylor(FAULT["theta1"], FAULT["N"] - 1), 1.0))
    jobs.append(
        Job(
            "boundary_partial_sum:rho1=0.9999,M=256",
            "boundary_partial_sum",
            "kernels",
            lambda: kernels.boundary_partial_sum(fault_w, FAULT["theta"], FAULT["N"], FAULT["rho1"], FAULT["M"]),
            lambda value: [(abs(value - fault_want) / fault_scale, TOL_CONTOUR)],
            known_fault=True,
        )
    )

    # single Taylor coefficients by the Cauchy integral
    for label, w, c in targets:
        for _ in range(2):
            k = int(rng.integers(0, 17))
            rho = rng.uniform(0.8, 0.95)

            def check(value, want=c[k], scale=float(np.max(np.abs(c)))):
                return [(abs(value - want) / scale, TOL_CONTOUR)]

            jobs.append(
                Job(
                    f"coefficients_by_cauchy:{label}",
                    "coefficients_by_cauchy",
                    "coeffs",
                    lambda w=w, k=k, rho=rho: coeffs.coefficients_by_cauchy(w, k, rho, M_CONTOUR),
                    check,
                )
            )

    # the disk scalar product as a contour integral and as a series
    for _ in range(6):
        c1, c2 = _random_taylor(rng, K_DISK), _random_taylor(rng, K_DISK)
        rho0 = rng.uniform(0.5, 0.9)
        t1, t2 = coeffs.TaylorCoefficients(c1), coeffs.TaylorCoefficients(c2)
        w1, w2 = series.TaylorSeries(t1), series.TaylorSeries(t2)
        cfg = hilbert.DiskProductConfig(rho0, 4 * K_DISK + 4)
        want = O.disk_product(c1, c2, rho0)
        scale = O.disk_product(np.abs(c1), np.abs(c2), rho0).real

        def run(w1=w1, w2=w2, t1=t1, t2=t2, cfg=cfg, rho0=rho0):
            return hilbert.inner_product_disk(w1, w2, cfg), hilbert.inner_product_series(t1, t2, rho0)

        def check(out, want=want, scale=scale):
            disk, ser = out
            return [(abs(disk - want) / scale, TOL_DISK), (abs(ser.value - want) / scale, TOL_DISK), _flag(not ser.divergent)]

        jobs.append(Job("inner_product:disk_vs_series", "inner_product", "hilbert", run, check))
    return jobs


# -- witness: orthogonality, completeness and the pointwise identities -----

K_GRAM, K_TAYLOR_GRAM, M_TAYLOR_GRAM = 128, 128, 514
_CHECK_LINE = re.compile(r"^(\w+): (PASS|FAIL) \(max_error=([^,]+), tol=([^)]+)\)$", re.M)
SUITE_LAYERS = {"ortho": "basis", "complete": "distributions", "kernels": "kernels", "hilbert": "hilbert", "classify": "classify"}


def _check_suite(result) -> list:
    out = _require_ok(result)
    lines = _CHECK_LINE.findall(out)
    checks = [_flag(bool(lines) and out.rstrip().endswith("all checks passed"))]
    return checks + [(float(err), float(tol)) for _, _, err, tol in lines]


def _witness(rng, work) -> list[Job]:
    jobs: list[Job] = []
    for suite, layer in SUITE_LAYERS.items():
        argv = ["verify", "--suite", suite]
        if suite == "hilbert":
            argv += ["--rho0", repr(rng.uniform(0.3, 0.8))]
        jobs.append(Job(f"verify:{suite}", f"verify:{suite}", layer, lambda argv=argv: _cli(argv), _check_suite))

    jobs.append(
        Job(
            "fourier_gram",
            "fourier_gram",
            "basis",
            lambda: basis.fourier_gram(K_GRAM),
            lambda rep: [(_max_abs(rep.matrix, O.fourier_gram_exact(K_GRAM)), TOL_GRAM)],
        )
    )
    rho0 = rng.uniform(0.85, 0.95)
    jobs.append(
        Job(
            "taylor_gram",
            "taylor_gram",
            "hilbert",
            lambda: hilbert.taylor_gram(K_TAYLOR_GRAM, hilbert.DiskProductConfig(rho0, M_TAYLOR_GRAM)),
            lambda rep: [(_max_abs(rep.matrix, O.taylor_gram_exact(K_TAYLOR_GRAM, rho0)), TOL_GRAM)],
        )
    )
    return jobs + _pointwise(rng)


_BUILDERS = {"analysis": _analysis, "synthesis": _synthesis, "witness": _witness}
