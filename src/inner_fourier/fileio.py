"""Deterministic JSON and CSV serialization through the standard library.

Every float is written as its shortest exact repr (``0.1``, not
``0.10000000000000001``), which reads back as the same double, in a fixed
order, so identical inputs give identical bytes. A non-finite float
raises ValueError.

Coefficient JSON carries the real triple as {"K", "alpha0", "alpha",
"beta"} and the complex sequence as {"K", "c_re", "c_im"}; one file may
hold both key groups if c is exactly ``to_taylor`` of the triple, and a
"K" key must be an integer, not a bool, equal to the harmonic count of
the arrays. Either group alone reads as the same ``FourierCoefficients``;
every entry must be a JSON number, and "alpha0" one number. Sample CSV
is "theta,value" with a required header, on the uniform grid starting at
-pi, and finite values; columns after value are ignored.

Curve CSV (``dumps_curve``) has a header naming its columns theta, rho,
value, conjugate and converged, then one angle-major row per (angle,
radius): value and conjugate are Re w and Im w at rho*exp(i*theta), and
converged is "true" or "false" at each angle's last radius when a radius
schedule was walked, empty elsewhere.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager

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
    # bool is an int, and numpy would also read the string "1.5" as a number. JSON yields
    # exact ints and floats, checked in one pass; other subclasses are checked one by one
    if not set(map(type, entries)) <= {int, float} and not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in entries
    ):
        raise ValueError(f"coefficient JSON keys {', '.join(keys)} must hold numbers")
    return [np.asarray(doc[k], dtype=float) for k in keys]


def parse_coefficients(doc: dict) -> FourierCoefficients:
    """The alpha group of doc, or ``from_taylor`` of its c group; both groups must agree."""
    if not isinstance(doc, dict):
        raise ValueError("coefficient JSON must be an object")
    fc = tc = None
    if "alpha" in doc:
        if isinstance(doc.get("alpha0"), list):
            raise ValueError(f"coefficient JSON key 'alpha0' must be one number, got {doc['alpha0']!r}")
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
    if "K" in doc and (not isinstance(doc["K"], int) or isinstance(doc["K"], bool)):
        raise ValueError(f"coefficient JSON key 'K' must be an integer, got {doc['K']!r}")
    if "K" in doc and doc["K"] != fc.K:
        raise ValueError(f"coefficient JSON says K = {doc['K']!r} but holds {fc.K} harmonics")
    return fc


@contextmanager
def _reading(path):
    """The text file at path, open for reading; a ValueError raised inside names the file."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        try:
            yield fp
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_coefficients_json(path) -> FourierCoefficients:
    """``parse_coefficients`` of the JSON file at path; a refusal names the file."""
    with _reading(path) as fp:
        return parse_coefficients(json.load(fp))


def read_samples_csv(path) -> PeriodicFunction:
    """Load "theta,value" rows (later columns ignored) into a uniform-grid sampled function; a refusal names the file."""
    with _reading(path) as fp:
        rows = list(csv.reader(fp))
        if not rows or [c.strip() for c in rows[0][:2]] != ["theta", "value"]:
            raise ValueError("expected header 'theta,value'")
        body = [r for r in rows[1:] if r]
        if len(body) < 2:
            raise ValueError("need at least 2 sample rows")
        if any(len(r) < 2 for r in body):
            raise ValueError("every sample row needs two columns, theta and value")
        theta = np.array([float(r[0]) for r in body])
        vals = np.array([float(r[1]) for r in body])
        # written so that a NaN angle fails the comparison and is refused
        if not np.all(np.abs(theta - theta_grid(theta.size)) <= 1e-9):
            raise ValueError("samples are not on the uniform grid starting at -pi")
        return PeriodicFunction.from_samples(vals, name=str(path))


def dumps_curve(theta, rho, value, conjugate, converged=None) -> str:
    """Curve CSV of the (angles x radii) arrays value = Re w and conjugate = Im w over the axes theta and rho.

    Both are written as computed, so -0.0 keeps its sign; converged holds one bool per angle, or None.
    """
    bad = [x for a in (theta, rho, value, conjugate) for x in a[~np.isfinite(a)].tolist()]
    if bad:
        raise ValueError(f"cannot serialize non finite value {bad[0]!r}")
    radii = list(map(repr, rho.tolist()))
    flags = [""] * len(theta) if converged is None else ["true" if c else "false" for c in converged.tolist()]
    lines = ["theta,rho,value,conjugate,converged"]
    for t, vs, cs, flag in zip(map(repr, theta.tolist()), value.tolist(), conjugate.tolist(), flags):
        rows = [f"{t},{r},{v!r},{c!r}," for r, v, c in zip(radii, vs, cs)]
        rows[-1] += flag
        lines += rows
    return "\n".join(lines) + "\n"


def write_output(text: str, path) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)
