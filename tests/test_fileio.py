import csv
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from inner_fourier import FourierCoefficients, to_taylor
from inner_fourier.cli import main
from inner_fourier.fileio import (
    coefficients_payload,
    dumps_curve,
    dumps_json,
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


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_floats_read_back_bitwise(x):
    (from_json,) = json.loads(dumps_json([x]))
    cells = _curve([x], [x], [[x]], [[x]]).splitlines()[1].split(",")
    assert _bits(from_json) == _bits(x)
    assert cells[4] == "" and all(_bits(float(c)) == _bits(x) for c in cells[:4])


@pytest.mark.parametrize("where", range(4), ids=["theta", "rho", "value", "conjugate"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_refused(x, where):
    with pytest.raises(ValueError):
        dumps_json({"a": [1.0, x]})
    arrays = [[1.0, 2.0], [0.5], [[0.5], [1.5]], [[0.5], [1.5]]]
    arrays[where] = [[0.5], [x]] if where >= 2 else [0.5, x]
    with pytest.raises(ValueError, match=f"^cannot serialize non finite value {x!r}$"):
        _curve(*arrays)


def test_json_emitter_is_valid_json():
    doc = {"a": 1, "b": [0.5, 2.0, -1e-9], "c": "x\"y", "d": True, "e": None}
    parsed = json.loads(dumps_json(doc))
    assert parsed["b"] == [0.5, 2.0, -1e-9]
    assert parsed["c"] == 'x"y'
    assert dumps_json({"K": 2, "b": [0.1, -0.0]}) == '{"K": 2, "b": [0.1, -0.0]}\n'


def test_coefficient_payload_roundtrip(tmp_path, rng):
    fc = FourierCoefficients(1.25, rng.standard_normal(5), rng.standard_normal(5))
    tc = to_taylor(fc)
    path = tmp_path / "c.json"
    write_output(dumps_json(coefficients_payload(fc)), path)
    fc2 = read_coefficients_json(path)
    assert fc2.alpha0 == fc.alpha0
    assert np.array_equal(fc2.alpha, fc.alpha)
    assert np.array_equal(fc2.beta, fc.beta)
    assert np.array_equal(to_taylor(fc2).c, tc.c)


def test_partial_payloads():
    fc = FourierCoefficients(2.0, np.zeros(2), np.zeros(2))
    doc = coefficients_payload(fc)
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
    "not_utf8": (b'{"K": 1, "alpha0": \xff}', "'utf-8' codec can't decode byte 0xff in position 19: invalid start byte"),
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
}


@pytest.mark.parametrize("content, message", _BAD_COEFFICIENT_FILES.values(), ids=_BAD_COEFFICIENT_FILES.keys())
def test_coefficient_file_refusal_names_the_file(tmp_path, content, message):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        read_coefficients_json(path)
    assert str(exc.value) == f"{path}: {message}"


_BAD_SAMPLE_FILES = {
    "text_value": (b"theta,value\n-3.141592653589793,abc\n0.0,1.0\n", "could not convert string to float: 'abc'"),
    "text_theta": (b"theta,value\nabc,1.0\n0.0,1.0\n", "could not convert string to float: 'abc'"),
    "empty_cell": (b"theta,value\n-3.141592653589793,\n0.0,1.0\n", "could not convert string to float: ''"),
    "not_utf8": (b"theta,value\n\xff,1.0\n", "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    "no_header": (b"", "expected header 'theta,value'"),
    "one_column": (b"theta,value\n-3.141592653589793,1.0\n0.0\n", "every sample row needs two columns, theta and value"),
}


@pytest.mark.parametrize("content, message", _BAD_SAMPLE_FILES.values(), ids=_BAD_SAMPLE_FILES.keys())
def test_sample_file_refusal_names_the_file(tmp_path, content, message):
    path = tmp_path / "s.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        read_samples_csv(path)
    assert str(exc.value) == f"{path}: {message}"
