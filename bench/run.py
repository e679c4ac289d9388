#!/usr/bin/env python3
"""Benchmark of inner-fourier: one workload per run, checked against oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analysis --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --repeat 10 [--workload witness] [--seed 1] [--trace 0]

A run imports the package from ./src, builds the workload's job list from
the seed, and repeats that list (a pass) in one process, one job at a
time, for --seconds. Every job's output is checked. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. README.md in this directory says what each
metric means and which layer should move which.

--repeat N runs each workload N times in fresh processes, with seeds
seed .. seed+N-1, and prints each end-to-end metric's median and quartile
spread next to its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("analysis", "synthesis", "witness")
LAYERS = (
    "catalog", "quadrature", "coeffs", "series", "distributions", "basis",
    "hilbert", "kernels", "classify", "fileio", "cli",
)
DIGIT_LAYERS = ("coeffs", "series", "distributions", "basis", "hilbert", "kernels")
DIGITS_CAP = 16.0  # log10(tol/err) when no error is seen: err taken as tol * 1e-16
SETUP_SAMPLES = 3  # fresh processes timed for setup_s: this one and two children


def _pin_threads() -> None:
    """One thread for the numeric libraries; the package's own pool stays off.

    One is within nproc on any machine. With two BLAS threads on a shared
    two-core machine, regulated_delta_on_grid alone varied 0.45-1.2 s
    between fresh processes, as the second core came and went.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("INNER_FOURIER_THREADS", None)


def _import_package():
    """Import inner_fourier from this checkout's src, never from anywhere else."""
    init = os.path.join(SRC, "inner_fourier", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: package source not found at {init}")
    sys.path.insert(0, SRC)
    import inner_fourier

    if os.path.abspath(inner_fourier.__file__) != init:
        raise SystemExit(f"bench: imported {inner_fourier.__file__}, expected {init}")
    import warnings

    # rho_limit warns on every angle of a schedule that outruns K; the
    # result carries the same flag, so the message adds only stderr noise
    warnings.simplefilter("ignore", inner_fourier.TruncationWarning)
    return inner_fourier


class Tally:
    """Counts jobs attempted and failed, and the worst error of each layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.worst: dict[str, float] = {}  # layer -> max error/tolerance, known faults left out

    def record(self, job, out, exc, count: bool) -> None:
        ok, why = False, repr(exc)
        if exc is None:
            try:
                pairs = job.check(out)
                ok = all(math.isfinite(e) and e <= t for e, t in pairs)
                why = f"errors {pairs}" if not ok else ""
                for e, t in pairs:
                    if t > 0 and not job.known_fault:
                        ratio = max(e / t, 1e-16) if math.isfinite(e) else math.inf
                        self.worst[job.layer] = max(self.worst.get(job.layer, 0.0), ratio)
            except Exception as check_exc:
                why = f"check raised {check_exc!r}"
        if not ok and not job.known_fault:
            if self.correct:
                print(f"bench: {job.name} failed: {why[:500]}", file=sys.stderr)
            self.correct = False
        if count:
            self.attempted += 1
            self.failed += 0 if ok else 1

    def digits(self, layer: str) -> float:
        worst = self.worst.get(layer)
        return DIGITS_CAP if worst is None else -math.log10(worst)


def _run_jobs(jobs, tally: Tally, count: bool = True) -> tuple[float, float]:
    """Run jobs once each; returns their summed wall and CPU seconds. Checks are not timed."""
    wall = cpu = 0.0
    for job in jobs:
        exc = out = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = job.run()
        except Exception as e:
            exc = e
        t1, c1 = time.perf_counter(), time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        tally.record(job, out, exc, count)
    return wall, cpu


def _first_of_each_kind(jobs):
    seen, firsts = set(), []
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            firsts.append(job)
    return firsts


def _setup(workload: str, seed: int, work: str, tally: Tally):
    """Import the package, build the inputs and run the first job of each kind.

    Returns (package, jobs, set-up seconds). Set-up seconds cover the
    import and those first jobs; making inputs and checking are excluded.
    """
    t0 = time.perf_counter()
    pkg = _import_package()
    import_s = time.perf_counter() - t0
    import workloads

    jobs = workloads.build(workload, seed, work)
    first_s, _ = _run_jobs(_first_of_each_kind(jobs), tally, count=False)
    return pkg, jobs, import_s + first_s


def _setup_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, work: str) -> dict:
    tally = Tally()
    _, jobs, setup_s = _setup(args.workload, args.seed, work, tally)
    if args.setup_only:
        return {"setup_s": setup_s}
    # the children are started between passes, so that the samples are
    # spread over the run rather than bunched where the machine is in one state
    setups, walls, cpus = [setup_s], [], []
    measured = 0.0
    while not walls or measured < args.seconds:
        t0 = time.perf_counter()
        wall, cpu = _run_jobs(jobs, tally)
        measured += time.perf_counter() - t0
        walls.append(wall)
        cpus.append(cpu)
        if len(setups) < SETUP_SAMPLES:
            setups.append(_setup_child(args))
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_child(args))
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(statistics.median(walls), "s"),
        "cpu_pass_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    print(f"bench: {args.workload} seed {args.seed}: {len(walls)} passes of {len(jobs)} jobs", file=sys.stderr)
    return _result(tally, metrics)


def trace(args, work: str) -> dict:
    """Alternate untraced and traced passes; report the traced per-layer breakdown."""
    from tracer import Tracer

    tally = Tally()
    pkg, jobs, _ = _setup(args.workload, args.seed, work, tally)
    tracer = Tracer(pkg)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(_run_jobs(jobs, tally)[0])
        tracer.install()
        try:
            traced.append(_run_jobs(jobs, tally)[0])
        finally:
            tracer.uninstall()
    n = len(traced)
    seconds, counts = tracer.by_layer()
    inside = sum(seconds.values())
    if abs(inside - tracer.outer_s) > 1e-6 * max(1.0, tracer.outer_s):
        raise SystemExit(f"bench: layer self times {inside} do not add up to {tracer.outer_s}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = _metric(1e3 * seconds.get(layer, 0.0) / n, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(counts.get(layer, 0) / n, "count")
    for layer in DIGIT_LAYERS:
        metrics[f"{layer}.err_digits"] = _metric(tally.digits(layer), "digits")
    metrics["bench.self_ms"] = _metric(1e3 * (sum(traced) - tracer.outer_s) / n, "ms")
    metrics["trace.pass_ms"] = _metric(1e3 * sum(traced) / n, "ms")
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    _save_trace(args, tracer, n)
    return _result(tally, metrics)


def _save_trace(args, tracer, n: int) -> None:
    """Per-function self time and calls of one traced run, for reading by hand."""
    rows = sorted(tracer.self_s, key=tracer.self_s.get, reverse=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_passes": n,
        "functions": [
            {"name": k, "self_ms": 1e3 * tracer.self_s[k] / n, "calls": tracer.calls[k] / n} for k in rows
        ],
    }
    out = os.path.join(BENCH_DIR, "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1)


def _result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def repeat(args) -> int:
    """Steadiness mode: N runs per workload in fresh processes, then median and spread per metric."""
    spec = _spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    summary = {}
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            run["seed"] = seed
            runs.append(run)
            print(f"{workload} seed {seed}: " + json.dumps(run), flush=True)
        with open(os.path.join(out_dir, f"repeat-{workload}-trace{args.trace}-{stamp}.json"), "w", encoding="utf-8") as fp:
            json.dump(runs, fp, indent=1)
        summary[workload] = _spread_table(workload, runs, bounds)
    print(json.dumps(summary))
    return 0


def _spread_table(workload: str, runs: list, bounds: dict) -> dict:
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed/attempted shares={sorted(shares)}")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else math.inf
        bound = bounds.get(name)
        print(f"  {name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {'' if bound is None else bound:>6}")
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    ap.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs per workload")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        ap.error("--workload is required unless --repeat is given")
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    _pin_threads()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        result = (trace if args.trace else measure)(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
