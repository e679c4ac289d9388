import json
import math

import numpy as np
import pytest

from inner_fourier import FourierCoefficients, to_taylor
from inner_fourier.fileio import (
    coefficients_payload,
    dumps_csv,
    dumps_json,
    format_float,
    parse_coefficients,
    read_coefficients_json,
    read_samples_csv,
    write_output,
)
from inner_fourier.quadrature import theta_grid


def test_float_formatting_roundtrips():
    for x in (0.1, -1.0 / 3.0, 2.0, 1e-300, math.pi, -0.0):
        assert float(format_float(x)) == x
    assert format_float(2.0) == "2.0"
    with pytest.raises(ValueError):
        format_float(math.inf)


def test_json_emitter_is_valid_json():
    doc = {"a": 1, "b": [0.5, 2.0, -1e-9], "c": "x\"y", "d": True, "e": None}
    parsed = json.loads(dumps_json(doc))
    assert parsed["b"] == [0.5, 2.0, -1e-9]
    assert parsed["c"] == 'x"y'


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


def test_sample_csv_validation(tmp_path):
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


def test_curve_csv_formatting(tmp_path):
    path = tmp_path / "curve.csv"
    write_output(dumps_csv(["theta", "value", "flag"], [(0.5, 1.0 / 3.0, "true")]), path)
    text = path.read_text()
    assert text.splitlines()[0] == "theta,value,flag"
    assert "0.33333333333333331" in text

@pytest.mark.parametrize(
    "doc, match",
    [
        ([1.0, 2.0], "must be an object"),
        ("alpha", "must be an object"),
        ({"alpha0": 1.0, "alpha": [{"re": 1.0}], "beta": [0.0]}, "must hold numbers"),
        # numpy's own ValueError, whose wording is numpy's
        ({"c_re": [0.0, 1.0], "c_im": [0.0, [1.0, 2.0]]}, None),
        ({"c_re": [0.0, "one"], "c_im": [0.0, 0.0]}, None),
    ],
    ids=["list", "string", "dict_entry", "ragged", "text_entry"],
)
def test_malformed_coefficient_documents_refused(doc, match):
    with pytest.raises(ValueError, match=match):
        parse_coefficients(doc)
