import csv
import io
import json
import math
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from inner_fourier import FourierCoefficients, to_taylor
from inner_fourier.cli import main
from inner_fourier.fileio import (
    dumps_coefficients,
    dumps_curve,
    parse_coefficients,
    read_coefficients_json,
    read_samples_csv,
    write_output,
)
from inner_fourier.quadrature import theta_grid


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _curve(theta, rho, value, conjugate, converged=None) -> str:
    return dumps_curve(*(np.array(a, dtype=float) for a in (theta, rho, value, conjugate)), converged)


def _payload(fc: FourierCoefficients) -> dict:
    """Both key groups of fc as Python floats, in the order the coefficient writer emits them."""
    c = to_taylor(fc).c
    return {
        "K": fc.K,
        "alpha0": float(fc.alpha0),
        "alpha": fc.alpha.tolist(),
        "beta": fc.beta.tolist(),
        "c_re": c.real.tolist(),
        "c_im": c.imag.tolist(),
    }


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_floats_read_back_bitwise(x):
    doc = json.loads(dumps_coefficients(FourierCoefficients(x, [x], [x])))
    cells = _curve([x], [x], [[x]], [[x]]).splitlines()[1].split(",")
    assert all(_bits(v) == _bits(x) for v in (doc["alpha0"], *doc["alpha"], *doc["beta"]))
    assert cells[4] == "" and all(_bits(float(c)) == _bits(x) for c in cells[:4])


_COEFFICIENT_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@given(
    alpha0=_COEFFICIENT_FLOATS,
    pairs=st.lists(st.tuples(_COEFFICIENT_FLOATS, _COEFFICIENT_FLOATS), min_size=1, max_size=8),
)
@example(alpha0=0.0, pairs=[(0.0, 0.0)])
@example(alpha0=-0.0, pairs=[(-0.0, -0.0)])
@example(alpha0=5e-324, pairs=[(5e-324, -5e-324), (-5e-324, 5e-324)])
@example(alpha0=2.2250738585072014e-308, pairs=[(2.2250738585072014e-308, -2.2250738585072014e-308)])
@example(alpha0=1.7976931348623157e308, pairs=[(1.7976931348623157e308, -1.7976931348623157e308)])
@example(alpha0=-1.7976931348623157e308, pairs=[(-1.7976931348623157e308, 1.7976931348623157e308)])
@example(alpha0=1.5, pairs=[(-0.0, -2.5)])  # Re c_1 = +0.0 although alpha_1 = -0.0
@example(alpha0=1.5, pairs=[(-0.0, -2.5), (-0.0, 2.5), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_coefficient_writer_equals_json_dumps(alpha0, pairs):
    fc = FourierCoefficients(alpha0, [a for a, _ in pairs], [b for _, b in pairs])
    assert dumps_coefficients(fc) == json.dumps(_payload(fc), allow_nan=False) + "\n"


@pytest.mark.parametrize("where", range(4), ids=["theta", "rho", "value", "conjugate"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_refused(x, where):
    arrays = [[1.0, 2.0], [0.5], [[0.5], [1.5]], [[0.5], [1.5]]]
    arrays[where] = [[0.5], [x]] if where >= 2 else [0.5, x]
    with pytest.raises(ValueError, match=f"^cannot serialize non finite value {x!r}$"):
        _curve(*arrays)


@pytest.mark.parametrize("where", ["alpha0", "alpha", "beta"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_coefficients_refused_before_the_writer(x, where):
    # the coefficient writer never sees a non-finite entry: the type refuses it
    args = {"alpha0": 1.0, "alpha": [1.0, 2.0], "beta": [0.5, 1.5]}
    args[where] = x if where == "alpha0" else [0.5, x]
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        FourierCoefficients(**args)


def test_json_emitter_is_valid_json():
    text = dumps_coefficients(FourierCoefficients(0.2, [0.1, -0.0], [0.5, -1e-9]))
    parsed = json.loads(text)
    assert parsed["beta"] == [0.5, -1e-9]
    assert text == (
        '{"K": 2, "alpha0": 0.2, "alpha": [0.1, -0.0], "beta": [0.5, -1e-09], '
        '"c_re": [0.1, 0.1, 0.0], "c_im": [0.0, -0.5, 1e-09]}\n'
    )


def test_coefficient_payload_roundtrip(tmp_path, rng):
    fc = FourierCoefficients(1.25, rng.standard_normal(5), rng.standard_normal(5))
    tc = to_taylor(fc)
    path = tmp_path / "c.json"
    write_output(dumps_coefficients(fc), path)
    fc2 = read_coefficients_json(path)
    assert fc2.alpha0 == fc.alpha0
    assert np.array_equal(fc2.alpha, fc.alpha)
    assert np.array_equal(fc2.beta, fc.beta)
    assert np.array_equal(to_taylor(fc2).c, tc.c)


def test_partial_payloads():
    fc = FourierCoefficients(2.0, np.zeros(2), np.zeros(2))
    doc = json.loads(dumps_coefficients(fc))
    del doc["c_re"], doc["c_im"]
    fc2 = parse_coefficients(doc)
    assert fc2.alpha0 == 2.0
    assert np.array_equal(to_taylor(fc2).c, to_taylor(fc).c)
    with pytest.raises(ValueError):
        parse_coefficients({"K": 2})


def test_sample_csv_roundtrip(tmp_path):
    m = 32
    grid = theta_grid(m)
    rows = ["theta,value"] + [f"{t:.17g},{math.cos(t):.17g}" for t in grid]
    path = tmp_path / "s.csv"
    path.write_text("\n".join(rows) + "\n")
    f = read_samples_csv(path)
    assert f.samples.size == m
    assert np.max(np.abs(f.samples - np.cos(grid))) < 1e-16


def test_sample_csv_validation(tmp_path, capsys):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,y\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_samples_csv(bad_header)
    bad_grid = tmp_path / "g.csv"
    bad_grid.write_text("theta,value\n0.0,1.0\n0.5,1.0\n1.0,1.0\n")
    with pytest.raises(ValueError, match="uniform"):
        read_samples_csv(bad_grid)
    one_row = tmp_path / "r.csv"
    one_row.write_text("theta,value\n-3.141592653589793,1.0\n")
    with pytest.raises(ValueError, match="at least 2 sample rows"):
        read_samples_csv(one_row)
    # a NaN angle makes every comparison with the grid false, so it must not pass as on the grid
    for name, nan_rows in (("all_nan.csv", range(8)), ("one_nan.csv", [3])):
        theta = theta_grid(8).tolist()
        for j in nan_rows:
            theta[j] = math.nan
        path = tmp_path / name
        path.write_text("theta,value\n" + "".join(f"{t!r},1.0\n" for t in theta))
        assert main(["coeffs", "--csv", str(path), "--K", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err and "uniform grid" in captured.err
    values = ["1.0"] * 8
    values[2] = "nan"
    path = tmp_path / "nan_value.csv"
    path.write_text("theta,value\n" + "".join(f"{t!r},{v}\n" for t, v in zip(theta_grid(8).tolist(), values)))
    assert main(["coeffs", "--csv", str(path), "--K", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: sample values must be finite\n"


_CELL_FLOATS = st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e-300, 5e-324, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 6))
def test_curve_csv_equals_csv_writer_over_repr_cells(data, n, m):
    pool = data.draw(st.lists(_CELL_FLOATS, min_size=1, max_size=5), label="pool")  # few values: repeats
    theta, rho = (np.array(data.draw(st.lists(_CELL_FLOATS, min_size=k, max_size=k))) for k in (n, m))
    pick = st.lists(st.sampled_from(pool), min_size=n * m, max_size=n * m)
    value, conjugate = (np.array(data.draw(pick)).reshape(n, m) for _ in range(2))
    flag = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    converged = data.draw(st.none() | flag, label="converged")
    flags = np.full((n, m), "", dtype=object)
    if converged is not None:
        flags[:, -1] = np.where(converged, "true", "false")
    columns = [*np.meshgrid(theta, rho, indexing="ij"), value, conjugate]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "rho", "value", "conjugate", "converged"])
    cells = [[repr(v) for v in col.ravel().tolist()] for col in columns]
    writer.writerows(zip(*cells, flags.ravel().tolist()))
    assert dumps_curve(theta, rho, value, conjugate, converged) == buf.getvalue()


def test_curve_csv_keeps_the_sign_of_zero():
    zeros = [[0.0, -0.0], [-0.0, 0.0]]
    assert _curve([-0.0, 0.0], [0.0, -0.0], zeros, zeros[::-1]) == (
        "theta,rho,value,conjugate,converged\n"
        "-0.0,0.0,0.0,-0.0,\n-0.0,-0.0,-0.0,0.0,\n0.0,0.0,-0.0,0.0,\n0.0,-0.0,0.0,-0.0,\n"
    )


def test_curve_csv_formatting(tmp_path):
    path = tmp_path / "curve.csv"
    value = [[1.0 / 3.0, 2.0], [0.1, -1e-300]]
    write_output(_curve([0.5, 1.5], [0.25, 0.75], value, [[0.0] * 2] * 2, np.array([True, False])), path)
    assert path.read_text() == (
        "theta,rho,value,conjugate,converged\n"
        "0.5,0.25,0.3333333333333333,0.0,\n0.5,0.75,2.0,0.0,true\n"
        "1.5,0.25,0.1,0.0,\n1.5,0.75,-1e-300,0.0,false\n"
    )

@pytest.mark.parametrize(
    "doc, match",
    [
        ([1.0, 2.0], "must be an object"),
        ("alpha", "must be an object"),
        ({"alpha0": 1.0, "alpha": [{"re": 1.0}], "beta": [0.0]}, "must hold numbers"),
        ({"c_re": [0.0, 1.0], "c_im": [0.0, [1.0, 2.0]]}, "must hold numbers"),
        ({"c_re": [0.0, "one"], "c_im": [0.0, 0.0]}, "must hold numbers"),
        ({"c_re": [0.0, None], "c_im": [0.0, 0.0]}, "must hold numbers"),
        ({"alpha0": 1.0, "alpha": [[0.5], 1.0], "beta": [0.0, 0.0]}, "must hold numbers"),
        # numpy reads the string "1.5" and the booleans as numbers; JSON does not
        ({"alpha0": "1.5", "alpha": ["0.5", True], "beta": [False, "2"]}, "must hold numbers"),
        ({"alpha0": 1.5, "alpha": [0.5, 1.0], "beta": [0.0, "2"]}, "must hold numbers"),
        ({"alpha0": True, "alpha": [0.5, 1.0], "beta": [0.0, 2.0]}, "must hold numbers"),
        ({"c_re": [0.0, False], "c_im": [0.0, 0.0]}, "must hold numbers"),
        # True == 1 and 2.0 == 2, so an equality test alone would let both pass
        ({"K": True, "alpha0": 1.0, "alpha": [1.0], "beta": [0.0]}, "'K' must be an integer"),
        ({"K": 2.0, "alpha0": 1.0, "alpha": [1.0, 0.5], "beta": [0.0, 0.0]}, "'K' must be an integer"),
    ],
    ids=[
        "list", "string", "dict_entry", "ragged", "text_entry", "null_entry", "nested_alpha",
        "strings_and_bools", "one_string", "bool_alpha0", "bool_c", "bool_K", "float_K",
    ],
)
def test_malformed_coefficient_documents_refused(doc, match):
    with pytest.raises(ValueError, match=match):
        parse_coefficients(doc)


def test_numpy_scalars_in_a_document_are_numbers():
    doc = {"alpha0": np.float64(1.0), "alpha": [np.float64(0.5), 2], "beta": [0.0, 1]}
    fc = parse_coefficients(doc)
    assert fc.alpha0 == 1.0 and fc.alpha.tolist() == [0.5, 2.0] and fc.beta.tolist() == [0.0, 1.0]


_BAD_COEFFICIENT_FILES = {
    "not_json": (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    "not_utf8": (
        b'{"K": 1, "alpha0": \xff}',
        "'utf-8' codec can't decode byte 0xff on line 1 at offset 19: invalid start byte",
    ),
    "not_an_object": (b"[1.0, 2.0]", "coefficient JSON must be an object"),
    "no_keys": (b'{"K": 1}', "no coefficient keys found (expected alpha/beta or c_re/c_im)"),
    "missing_key": (b'{"alpha0": 0.5, "alpha": [1, 0]}', "coefficient JSON has 'alpha' but lacks 'beta'"),
    "text_entry": (b'{"c_re": [0.0, "one"], "c_im": [0.0, 0.0]}', "coefficient JSON keys c_re, c_im must hold numbers"),
    "nan_entry": (b'{"alpha0": NaN, "alpha": [1.0], "beta": [0.0]}', "coefficients must be finite"),
    "imaginary_mean": (b'{"c_re": [0.0, 1.0], "c_im": [1.0, 0.0]}', "Im(c_0) = 1.0 exceeds 1e-12; no real mean term"),
    "disagreeing_groups": (
        b'{"alpha0": 1.0, "alpha": [1.0], "beta": [0.0], "c_re": [0.5, 2.0], "c_im": [0.0, 0.0]}',
        "coefficient JSON c_re/c_im is not the Taylor form of its alpha0/alpha/beta",
    ),
    "bool_K": (b'{"K": true, "alpha0": 1.0, "alpha": [1.0], "beta": [0.0]}', "coefficient JSON key 'K' must be an integer, got True"),
    "wrong_K": (b'{"K": 3, "alpha0": 1.0, "alpha": [1.0], "beta": [0.0]}', "coefficient JSON says K = 3 but holds 1 harmonics"),
    "list_alpha0": (b'{"alpha0": [1.0], "alpha": [1.0], "beta": [0.0]}', "coefficient JSON key 'alpha0' must be one number, got [1.0]"),
    "two_alpha0": (
        b'{"alpha0": [1.0, 2.0], "alpha": [1.0], "beta": [0.0]}',
        "coefficient JSON key 'alpha0' must be one number, got [1.0, 2.0]",
    ),
    "short_c_im": (
        b'{"c_re": [0.0, 1.0, 2.0], "c_im": [0.0]}',
        "coefficient JSON keys 'c_re' and 'c_im' must be lists of one length, got a list of 3 and a list of 1",
    ),
    "unequal_c_lists": (
        b'{"c_re": [0.0, 1.0, 2.0], "c_im": [0.0, 0.0]}',
        "coefficient JSON keys 'c_re' and 'c_im' must be lists of one length, got a list of 3 and a list of 2",
    ),
    "number_c_re": (
        b'{"c_re": 0.5, "c_im": [0.0, 1.0]}',
        "coefficient JSON keys 'c_re' and 'c_im' must be lists of one length, got the number 0.5 and a list of 2",
    ),
}


@pytest.mark.parametrize("content, message", _BAD_COEFFICIENT_FILES.values(), ids=_BAD_COEFFICIENT_FILES.keys())
def test_coefficient_file_refusal_names_the_file(tmp_path, content, message):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        read_coefficients_json(path)
    assert str(exc.value) == f"{path}: {message}"


_ROWS = [f"{t!r},{math.cos(t)!r}\n" for t in theta_grid(1024).tolist()]


def _deep_bad_byte() -> tuple[bytes, str]:
    """A 1024-row sample file with 0xff at offset 20000, and the refusal naming that byte's line."""
    data = bytearray(f"theta,value\n{''.join(_ROWS)}".encode())
    data[20000] = 0xFF
    line = data[:20000].count(b"\n") + 1
    return bytes(data), f"'utf-8' codec can't decode byte 0xff on line {line} at offset 20000: invalid start byte"


def _quoted_row_across_the_block_edge() -> bytes:
    """A 2048-row sample file whose row on lines 1025-1026 holds a quoted cell with a line end inside."""
    theta = theta_grid(2048).tolist()
    rows = [f"{t!r},{math.cos(t)!r}\n" for t in theta]
    rows[1023] = f'{theta[1023]!r},"1.0\n2"\n'
    return f"theta,value\n{''.join(rows)}".encode()


_BAD_SAMPLE_FILES = {
    "text_value": (
        b"theta,value\n-3.141592653589793,abc\n0.0,1.0\n",
        "could not convert string 'abc' to float64 at line 2, column 2.",
    ),
    "text_theta": (
        b"theta,value\nabc,1.0\n0.0,1.0\n",
        "could not convert string 'abc' to float64 at line 2, column 1.",
    ),
    "empty_cell": (
        b"theta,value\n-3.141592653589793,\n0.0,1.0\n",
        "could not convert string '' to float64 at line 2, column 2.",
    ),
    "not_utf8": (
        b"theta,value\n\xff,1.0\n",
        "'utf-8' codec can't decode byte 0xff on line 2 at offset 12: invalid start byte",
    ),
    "no_header": (b"", "expected header 'theta,value'"),
    "one_column": (b"theta,value\n-3.141592653589793,1.0\n0.0\n", "invalid column index 1 at line 3 with 1 columns"),
    "whitespace_row": (
        b"theta,value\n-3.141592653589793,1.0\n  \n0.0,2.0\n",
        "could not convert string '  ' to float64 at line 3, column 1.",
    ),
    "comment_row": (
        b"theta,value\n# samples\n-3.141592653589793,1.0\n0.0,2.0\n",
        "could not convert string '# samples' to float64 at line 2, column 1.",
    ),
    "header_only": (b"theta,value\n", "need at least 2 sample rows"),
    "header_and_blank_rows": (b"theta,value\n\n\r\n", "need at least 2 sample rows"),
    "one_row": (b"theta,value\n-3.141592653589793,1.0\n", "need at least 2 sample rows"),
    # float() reads both of these; the sample grammar does not
    "underscore": (
        b"theta,value\n-3.141592653589793,1_0\n0.0,2.0\n",
        "could not convert string '1_0' to float64 at line 2, column 2.",
    ),
    "non_ascii_digit": (
        "theta,value\n-3.141592653589793,\u0661.5\n0.0,2.0\n".encode(),
        "could not convert string '\u0661.5' to float64 at line 2, column 2.",
    ),
    # numpy counts rows from the line after the header and skips blank ones; the file's lines count both
    "cell_after_blank_lines": (
        b"theta,value\r\n\r\n-3.141592653589793,1.0\r\n\n0.0,abc\r\n",
        "could not convert string 'abc' to float64 at line 5, column 2.",
    ),
    "one_column_after_a_blank_line": (
        b"theta,value\r-3.141592653589793,1.0\r\r0.0\r",
        "invalid column index 1 at line 4 with 1 columns",
    ),
    "cell_past_a_thousand_lines": (
        f"theta,value\n{''.join(_ROWS[:1000])}\n{''.join(_ROWS[1000:])}0.0,abc\n".encode(),
        "could not convert string 'abc' to float64 at line 1027, column 2.",
    ),
    # the text layer counts from the start of the 8 KiB block it decoded
    "bad_byte_past_the_first_block": _deep_bad_byte(),
    # numpy reads a quoted cell across a line end; the row is named at the line where it starts
    "quoted_cell_across_lines": (
        b'theta,value\n-3.141592653589793,"1.0\n2"\n0.0,1.0\n',
        "could not convert string '1.0\\n2' to float64 at line 2, column 2.",
    ),
    "quoted_row_across_the_block_edge": (
        _quoted_row_across_the_block_edge(),
        "could not convert string '1.0\\n2' to float64 at line 1025, column 2.",
    ),
    "oversized_quoted_header": (b'"' + b"0" * 131073 + b"\n", "field larger than field limit (131072)"),
}

# each cell and row case again with its line ends written as CRLF and as CR; a bad byte's offset would move
_NEWLINES = {"crlf": (b"\r\n", "\\r\\n"), "cr": (b"\r", "\\r")}
_SAMPLE_REFUSALS = [pytest.param(c, m, None, id=k) for k, (c, m) in _BAD_SAMPLE_FILES.items()] + [
    pytest.param(c, m, n, id=f"{k}-{n}")
    for k, (c, m) in _BAD_SAMPLE_FILES.items()
    if "codec" not in m
    for n in _NEWLINES
]


@pytest.mark.parametrize("content, message, newline", _SAMPLE_REFUSALS)
def test_sample_file_refusal_names_the_file(tmp_path, capsys, content, message, newline):
    if newline:
        # CRLF and CR each end one line, and a quoted cell keeps the line end it holds
        end, escaped = _NEWLINES[newline]
        content, message = re.sub(rb"\r\n|\r|\n", end, content), message.replace("\\n", escaped)
    path = tmp_path / "s.csv"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            read_samples_csv(path)
        code = main(["coeffs", "--csv", str(path), "--K", "1"])
    assert str(exc.value) == f"{path}: {message}"
    assert (code, *capsys.readouterr()) == (2, "", f"error: {path}: {message}\n")
    assert caught == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
@pytest.mark.parametrize(
    "read, content, message",
    [
        (read_samples_csv, *_BAD_SAMPLE_FILES["text_value"]),
        (read_samples_csv, *_BAD_SAMPLE_FILES["bad_byte_past_the_first_block"]),
        (read_coefficients_json, *_BAD_COEFFICIENT_FILES["not_utf8"]),
    ],
    ids=["bad_cell", "bad_byte", "bad_coefficient_byte"],
)
def test_a_pipe_is_refused_as_a_file_is(read, content, message):
    # a pipe can be read only once: naming a bad cell or byte must not read it again
    assert len(content) < 2**16  # the pipe holds it all, so the write does not block
    r, w = os.pipe()
    try:
        os.write(w, content)
        os.close(w)
        path = f"/dev/fd/{r}"
        with pytest.raises(ValueError) as exc:
            read(path)
    finally:
        os.close(r)
    assert str(exc.value) == f"{path}: {message}"


_T = [repr(t) for t in theta_grid(4).tolist()]
_GOOD_SAMPLE_FILES = {
    "crlf": f"theta,value\r\n{_T[0]},1.0\r\n{_T[1]},-2.5\r\n{_T[2]},0.5\r\n{_T[3]},3.0\r\n",
    "lone_cr": f"theta,value\r{_T[0]},1.0\r{_T[1]},-2.5\r{_T[2]},0.5\r{_T[3]},3.0\r",
    "blank_rows": f"theta,value\n\n{_T[0]},1.0\n\n\n{_T[1]},-2.5\n\r\n{_T[2]},0.5\n{_T[3]},3.0\n\n",
    "extra_columns": f"theta,value,note\n{_T[0]},1.0,a\n{_T[1]},-2.5,b\n{_T[2]},0.5,c\n{_T[3]},3.0,d\n",
    "ragged_extra_columns": f"theta,value\n{_T[0]},1.0,a,b\n{_T[1]},-2.5\n{_T[2]},0.5,\n{_T[3]},3.0,x,,y,z\n",
    "double_quoted": f'"theta","value"\n"{_T[0]}","1.0"\n{_T[1]},"-2.5"\n"{_T[2]}",0.5\n{_T[3]},3.0\n',
    "spaces": f" theta , value\n {_T[0]} , 1.0 \n{_T[1]},\t-2.5\n{_T[2]}  ,0.5\t\n{_T[3]}, 3.0\n",
    "no_final_newline": f"theta,value\n{_T[0]},1.0\n{_T[1]},-2.5\n{_T[2]},0.5\n{_T[3]},3.0",
    "seventeen_digits": (
        f"theta,value\n{_T[0]},0.10000000000000001\n{_T[1]},-2.9999999999999996\n"
        f"{_T[2]},1.2345678901234567e-300\n{_T[3]},4.9406564584124654e-324\n"
    ),
    "halfway_and_long_digits": (
        "theta,value\n-3.14159265358979323846264338327950288,2.2250738585072011e-308\n"
        f"{_T[1]},0.1000000000000000055511151231257827\n"
        f"{_T[2]},1.00000000000000011102230246251565404236316680908203125\n"
        f"{_T[3]},9007199254740993\n"
    ),
}


@pytest.mark.parametrize("text", _GOOD_SAMPLE_FILES.values(), ids=_GOOD_SAMPLE_FILES.keys())
def test_sample_file_reads_as_float_reads_its_cells(tmp_path, text):
    # the oracle: float() of the value cell of every non-blank csv row after the header
    want = [float(row[1]) for row in list(csv.reader(io.StringIO(text, newline="")))[1:] if row]
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = read_samples_csv(path).samples.tolist()
    assert [_bits(x) for x in got] == [_bits(x) for x in want] and len(want) == 4
    assert caught == []
