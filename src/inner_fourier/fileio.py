"""Deterministic JSON and CSV serialization through the standard library.

Every float is written as its shortest exact repr (``0.1``, not
``0.10000000000000001``), which reads back as the same double, in a fixed
order, so identical inputs give identical bytes. A non-finite float
raises ValueError: ``dumps_curve`` refuses it, and ``FourierCoefficients``
refuses it before ``dumps_coefficients`` can see it.

Coefficient JSON carries the real triple as {"K", "alpha0", "alpha",
"beta"} and the complex sequence as {"K", "c_re", "c_im"}; one file may
hold both key groups if c is exactly ``to_taylor`` of the triple, and a
"K" key must be an integer, not a bool, equal to the harmonic count of
the arrays. Either group alone reads as the same ``FourierCoefficients``;
every entry must be a JSON number, "alpha0" one number, and "c_re" and
"c_im" two lists of one length. Sample CSV is "theta,value" with a
required header, on the uniform grid starting at -pi, and finite values;
columns after value are ignored. Rows end in LF, CRLF or CR, blank rows
are skipped, and a cell may be double-quoted and padded with spaces; a
quoted cell may span lines. A cell is a decimal number that ``float``
reads, written in ASCII and without underscores: ``1_0`` and non-ASCII
digits are refused. Each input is read once, so a pipe such as /dev/stdin
reads as a file does. A refusal names the file, a bad byte its line and
offset, and a bad row the line where the row starts: the header is line
1, and blank lines count.

Curve CSV (``dumps_curve``) has a header naming its columns theta, rho,
value, conjugate and converged, then one angle-major row per (angle,
radius): value and conjugate are Re w and Im w at rho*exp(i*theta), and
converged is "true" or "false" at each angle's last radius when a radius
schedule was walked, empty elsewhere.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from .coeffs import FourierCoefficients, PeriodicFunction, TaylorCoefficients, from_taylor, to_taylor
from .quadrature import theta_grid


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
        if c_re.ndim == 0 or c_re.shape != c_im.shape:
            held = " and ".join(f"a list of {x.size}" if x.ndim else f"the number {x.item()!r}" for x in (c_re, c_im))
            raise ValueError(f"coefficient JSON keys 'c_re' and 'c_im' must be lists of one length, got {held}")
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


def _text(path) -> str:
    """The file at path, read once and decoded as UTF-8; a bad byte raises ValueError naming its line and offset."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a line ends at LF, CRLF or CR; the bad byte is on the line after the last end before it
        line = len((data[: exc.start] + b".").splitlines())
        where = f"byte 0x{data[exc.start]:02x} on line {line} at offset {exc.start}"
        raise ValueError(f"'utf-8' codec can't decode {where}: {exc.reason}") from None


@contextmanager
def _naming(path):
    """A ValueError or csv.Error raised inside, restated as a ValueError that names the file at path."""
    try:
        yield
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_coefficients_json(path) -> FourierCoefficients:
    """``parse_coefficients`` of the JSON file at path; a refusal names the file."""
    with _naming(path):
        return parse_coefficients(json.loads(_text(path)))


def _cells(lines) -> np.ndarray:
    """The first two cells of each CSV row in lines as floats; blank rows are skipped."""
    with warnings.catch_warnings():
        # a body without rows is refused by its caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", usecols=(0, 1), comments=None, quotechar='"', ndmin=2)


def _refusal(lines) -> ValueError | None:
    """The ValueError with which ``_cells`` refuses lines, or None."""
    try:
        _cells(lines)
    except ValueError as exc:
        return exc
    return None


def _bad_row(lines, reader, exc: ValueError) -> str:
    """exc restated at the line where the first CSV record after reader's header that numpy refuses alone starts."""
    cuts = [reader.line_num, *(reader.line_num for _ in reader)]  # record j is lines[cuts[j] : cuts[j + 1]]
    # one call per block of records finds the block refused, then one call per record the record
    for start in range(0, len(cuts) - 1, 1024):
        block = cuts[start : start + 1025]
        if _refusal(lines[block[0] : block[-1]]) is None:
            continue
        for a, b in zip(block, block[1:]):
            bad = _refusal(lines[a:b])
            if bad:
                # numpy counts rows from the first line it is given and skips blank ones; lines[a] is line a + 1
                msg, named = re.subn(r"\bat row \d+", f"at line {a + 1}", str(bad))
                return msg if named else f"line {a + 1}: {msg}"
    return str(exc)


def read_samples_csv(path) -> PeriodicFunction:
    """Load "theta,value" rows (later columns ignored) into a uniform-grid sampled function."""
    with _naming(path):
        # the lines end where the text layer ends them with newline="": at LF, CRLF or CR
        lines = io.StringIO(_text(path), newline="").readlines()
        reader = csv.reader(lines)
        header = next(reader, [])
        if [c.strip() for c in header[:2]] != ["theta", "value"]:
            raise ValueError("expected header 'theta,value'")
        try:
            body = _cells(lines[reader.line_num :])
        except ValueError as exc:
            raise ValueError(_bad_row(lines, reader, exc)) from None
        if len(body) < 2:
            raise ValueError("need at least 2 sample rows")
        theta, vals = body.T
        # written so that a NaN angle fails the comparison and is refused
        if not np.all(np.abs(theta - theta_grid(theta.size)) <= 1e-9):
            raise ValueError("samples are not on the uniform grid starting at -pi")
        return PeriodicFunction(str(path), samples=vals)


def dumps_coefficients(fc: FourierCoefficients) -> str:
    """Coefficient JSON of fc with both key groups: the real triple and its Taylor form c = ``to_taylor(fc)``.

    ``to_taylor`` gives |Re c_k| = |alpha_k| and |Im c_k| = |beta_k| bit for bit (k >= 1), so the repr of each
    magnitude is formatted once and each entry takes its own sign. Only the sign of a zero can differ between
    the groups: alpha_k = -0.0 with a negative beta_k, or beta_k = -0.0, has Re c_k = +0.0.
    """
    c = to_taylor(fc).c
    c0 = complex(c[0])
    alpha, beta = (list(map(repr, np.abs(a).tolist())) for a in (fc.alpha, fc.beta))

    def signed(mags, x):
        return ", ".join([f"-{m}" if neg else m for m, neg in zip(mags, np.signbit(x).tolist())])

    return (
        f'{{"K": {fc.K}, "alpha0": {float(fc.alpha0)!r}, '
        f'"alpha": [{signed(alpha, fc.alpha)}], "beta": [{signed(beta, fc.beta)}], '
        f'"c_re": [{c0.real!r}, {signed(alpha, c.real[1:])}], "c_im": [{c0.imag!r}, {signed(beta, c.imag[1:])}]}}\n'
    )


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
