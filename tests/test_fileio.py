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
    dumps_csv,
    dumps_json,
    parse_coefficients,
    read_coefficients_json,
    read_samples_csv,
    write_output,
)
from inner_fourier.quadrature import theta_grid


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_floats_read_back_bitwise(x):
    (from_json,) = json.loads(dumps_json([x]))
    from_csv = float(dumps_csv(["x"], [[x]]).splitlines()[1])
    assert _bits(from_json) == _bits(x)
    assert _bits(from_csv) == _bits(x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_refused(x):
    with pytest.raises(ValueError):
        dumps_json({"a": [1.0, x]})
    with pytest.raises(ValueError):
        dumps_csv(["a", "b"], [[1.0, 2.0], [0.5, x]])


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


@given(data=st.data(), rows=st.integers(0, 40))
def test_curve_csv_equals_csv_writer_over_repr_cells(data, rows):
    pool = data.draw(st.lists(_CELL_FLOATS, min_size=1, max_size=5), label="pool")  # few values: repeats
    pick = st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)
    words = st.lists(st.sampled_from(["", "true", "false", "a,b", 'q"']), min_size=rows, max_size=rows)
    columns = [np.array(data.draw(pick), dtype=float), np.array(data.draw(pick), dtype=float)]
    columns.append(np.array(data.draw(words), dtype=object))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "flag"])
    writer.writerows(zip(*[[repr(v) if isinstance(v, float) else v for v in col.tolist()] for col in columns]))
    assert dumps_csv(["x", "y", "flag"], columns) == buf.getvalue()


def test_curve_csv_keeps_the_sign_of_zero():
    assert dumps_csv(["x"], [np.array([0.0, -0.0, 0.0, -0.0])]) == "x\n0.0\n-0.0\n0.0\n-0.0\n"


def test_curve_csv_formatting(tmp_path):
    path = tmp_path / "curve.csv"
    write_output(dumps_csv(["theta", "value", "flag"], [[0.5], [1.0 / 3.0], ["true"]]), path)
    assert path.read_text() == "theta,value,flag\n0.5,0.3333333333333333,true\n"

@pytest.mark.parametrize(
    "doc, match",
    [
        ([1.0, 2.0], "must be an object"),
        ("alpha", "must be an object"),
        ({"alpha0": 1.0, "alpha": [{"re": 1.0}], "beta": [0.0]}, "must hold numbers"),
        ({"c_re": [0.0, 1.0], "c_im": [0.0, [1.0, 2.0]]}, "must hold numbers"),
        ({"c_re": [0.0, "one"], "c_im": [0.0, 0.0]}, "must hold numbers"),
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
        "list", "string", "dict_entry", "ragged", "text_entry",
        "strings_and_bools", "one_string", "bool_alpha0", "bool_c", "bool_K", "float_K",
    ],
)
def test_malformed_coefficient_documents_refused(doc, match):
    with pytest.raises(ValueError, match=match):
        parse_coefficients(doc)
