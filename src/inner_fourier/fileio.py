"""Deterministic JSON and CSV serialization through the standard library.

Every float is written as its shortest exact repr (``0.1``, not
``0.10000000000000001``), which reads back as the same double, in a fixed
order, so identical inputs give identical bytes. A non-finite float
raises ValueError.

Coefficient JSON carries the real triple as {"K", "alpha0", "alpha",
"beta"} and the complex sequence as {"K", "c_re", "c_im"}; one file may
hold both key groups if c is exactly ``to_taylor`` of the triple, and a
"K" key must equal the harmonic count of the arrays. Either group alone
reads as the same ``FourierCoefficients``; every entry must be a JSON
number. Sample CSV is two columns "theta,value" with a required header,
on the uniform grid starting at -pi.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, TaylorCoefficients, from_taylor, to_taylor
from .quadrature import theta_grid


def dumps_json(obj) -> str:
    """Serialize with the standard library; a non-finite float raises ValueError."""
    return json.dumps(obj, allow_nan=False) + "\n"


def coefficients_payload(fc: FourierCoefficients) -> dict:
    """Both key groups of fc: the real triple and its Taylor form c = ``to_taylor(fc)``."""
    c = to_taylor(fc).c
    return {
        "K": fc.K,
        "alpha0": float(fc.alpha0),
        "alpha": fc.alpha.tolist(),
        "beta": fc.beta.tolist(),
        "c_re": c.real.tolist(),
        "c_im": c.imag.tolist(),
    }


def _numbers(doc: dict, *keys: str) -> list[np.ndarray]:
    for k in keys:
        if k not in doc:
            raise ValueError(f"coefficient JSON has {keys[0]!r} but lacks {k!r}")
    entries = [x for k in keys for x in (doc[k] if isinstance(doc[k], list) else [doc[k]])]
    # bool is an int, and numpy would also read the string "1.5" as a number
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entries):
        raise ValueError(f"coefficient JSON keys {', '.join(keys)} must hold numbers")
    return [np.asarray(doc[k], dtype=float) for k in keys]


def parse_coefficients(doc: dict) -> FourierCoefficients:
    """The alpha group of doc, or ``from_taylor`` of its c group; both groups must agree."""
    if not isinstance(doc, dict):
        raise ValueError("coefficient JSON must be an object")
    fc = tc = None
    if "alpha" in doc:
        alpha, alpha0, beta = _numbers(doc, "alpha", "alpha0", "beta")
        fc = FourierCoefficients(alpha0.item(), alpha, beta)
    if "c_re" in doc:
        c_re, c_im = _numbers(doc, "c_re", "c_im")
        tc = TaylorCoefficients(c_re + 1j * c_im)
    if fc is None and tc is None:
        raise ValueError("no coefficient keys found (expected alpha/beta or c_re/c_im)")
    if fc is None:
        fc = from_taylor(tc)
    elif tc is not None and not np.array_equal(tc.c, to_taylor(fc).c):
        raise ValueError("coefficient JSON c_re/c_im is not the Taylor form of its alpha0/alpha/beta")
    if "K" in doc and doc["K"] != fc.K:
        raise ValueError(f"coefficient JSON says K = {doc['K']!r} but holds {fc.K} harmonics")
    return fc


def read_coefficients_json(path) -> FourierCoefficients:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_coefficients(json.load(fp))


def read_samples_csv(path) -> PeriodicFunction:
    """Load "theta,value" rows into a uniform-grid sampled function."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    if not rows or [c.strip() for c in rows[0][:2]] != ["theta", "value"]:
        raise ValueError(f"{path}: expected header 'theta,value'")
    body = [r for r in rows[1:] if r]
    if len(body) < 2:
        raise ValueError(f"{path}: need at least 2 sample rows")
    if any(len(r) < 2 for r in body):
        raise ValueError(f"{path}: every sample row needs two columns, theta and value")
    theta = np.array([float(r[0]) for r in body])
    vals = np.array([float(r[1]) for r in body])
    # written so that a NaN angle fails the comparison and is refused
    if not np.all(np.abs(theta - theta_grid(theta.size)) <= 1e-9):
        raise ValueError(f"{path}: samples are not on the uniform grid starting at -pi")
    return PeriodicFunction.from_samples(vals, name=str(path))


def dumps_csv(header: list[str], columns) -> str:
    """One row per index of the equal-length columns of floats or strings, under header."""
    cols = [np.asarray(col).tolist() for col in columns]
    bad = [v for col in cols for v in col if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"cannot serialize non finite value {bad[0]!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*cols))
    return buf.getvalue()


def write_output(text: str, path) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)
