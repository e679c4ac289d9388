"""Deterministic JSON and CSV serialization.

Floats are written with 17 significant digits, enough to round-trip any
double exactly, and emission order is fixed, so identical inputs produce
byte-identical files.

Coefficient JSON carries the real triple as {"K", "alpha0", "alpha",
"beta"} and the complex sequence as {"K", "c_re", "c_im"}; one file may
hold both key groups if c is exactly ``to_taylor`` of the triple, and a
"K" key must equal the harmonic count of the arrays. Sample CSV is two
columns "theta,value" with a required header, on the uniform grid
starting at -pi.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, TaylorCoefficients, to_taylor
from .quadrature import theta_grid


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non finite value {x!r}")
    s = f"{x:.17g}"
    if "e" not in s and "." not in s:
        s += ".0"
    return s


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(f'"{k}": ')
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize with fixed key order and 17-significant-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(dumps_json(obj))


def coefficients_payload(
    fc: FourierCoefficients | None, tc: TaylorCoefficients | None = None
) -> dict:
    if fc is None and tc is None:
        raise ValueError("nothing to serialize")
    payload: dict = {}
    if fc is not None:
        payload.update(
            {
                "K": fc.K,
                "alpha0": fc.alpha0,
                "alpha": list(fc.alpha),
                "beta": list(fc.beta),
            }
        )
    if tc is not None:
        payload.setdefault("K", tc.K)
        payload["c_re"] = list(tc.c.real)
        payload["c_im"] = list(tc.c.imag)
    return payload


def _numbers(doc: dict, *keys: str) -> list[np.ndarray]:
    for k in keys:
        if k not in doc:
            raise ValueError(f"coefficient JSON has {keys[0]!r} but lacks {k!r}")
    try:
        return [np.asarray(doc[k], dtype=float) for k in keys]
    except TypeError:
        raise ValueError(f"coefficient JSON keys {', '.join(keys)} must hold numbers") from None


def parse_coefficients(doc: dict) -> tuple[FourierCoefficients | None, TaylorCoefficients | None]:
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
    if fc is not None and tc is not None and not np.array_equal(tc.c, to_taylor(fc).c):
        raise ValueError("coefficient JSON c_re/c_im is not the Taylor form of its alpha0/alpha/beta")
    K = fc.K if fc is not None else tc.K
    if "K" in doc and doc["K"] != K:
        raise ValueError(f"coefficient JSON says K = {doc['K']!r} but holds {K} harmonics")
    return fc, tc


def read_coefficients_json(path) -> tuple[FourierCoefficients | None, TaylorCoefficients | None]:
    import json

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
    if np.max(np.abs(theta - theta_grid(theta.size))) > 1e-9:
        raise ValueError(f"{path}: samples are not on the uniform grid starting at -pi")
    return PeriodicFunction.from_samples(vals, name=str(path))


def dumps_csv(header: list[str], rows) -> str:
    """Serialize rows of floats/strings with fixed float formatting."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = [
            format_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row
        ]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def write_curve_csv(path, header: list[str], rows) -> None:
    """Write ``dumps_csv(header, rows)`` to path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(dumps_csv(header, rows))
