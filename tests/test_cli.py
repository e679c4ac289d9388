import argparse
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import oracle_poisson_kernel

import inner_fourier
from inner_fourier import catalog_ids, cli, resolve
from inner_fourier.cli import main
from inner_fourier.quadrature import theta_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCoeffsCommand:
    def test_square_wave_pattern(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--fn", "square", "--K", "64")
        assert code == 0
        doc = json.loads(out)
        beta = np.array(doc["beta"])
        k = np.arange(1, 65)
        want = 2.0 * (1.0 - (-1.0) ** k) / (math.pi * k)
        assert np.max(np.abs(beta - want)) < 1e-8
        assert np.max(np.abs(np.array(doc["alpha"]))) < 1e-8
        assert doc["c_re"][1] == pytest.approx(doc["alpha"][0])

    def test_point_mass(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--fn", "delta", "--theta1", "0", "--K", "8")
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["alpha"], 1.0 / math.pi, atol=0)

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--fn", "zero", "--K", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha0"] == 0.0 and all(v == 0.0 for v in doc["alpha"] + doc["beta"])

    def test_unknown_catalog_id(self, capsys):
        code, _, err = run(capsys, "coeffs", "--fn", "nope", "--K", "4")
        assert code == 2
        assert "unknown catalog id" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'nope'" in err and "delta_derivative" in err and "cos_<k>" in err

    def test_missing_csv_file(self, capsys):
        code, _, err = run(capsys, "coeffs", "--csv", "/nonexistent/x.csv", "--K", "4")
        assert code == 3

    @pytest.mark.parametrize("argv", [("coeffs", "--K", "4", "--csv"), ("reconstruct", "--rho", "0.5", "--coeffs")])
    @pytest.mark.parametrize("target, errno_", [("missing.csv", errno.ENOENT), ("", errno.EISDIR)], ids=["missing", "directory"])
    def test_unreadable_input_exits_three(self, capsys, tmp_path, argv, target, errno_):
        path = str(tmp_path / target)
        assert run(capsys, *argv, path) == (3, "", f"i/o error: [Errno {errno_}] {os.strerror(errno_)}: {path!r}\n")

    def test_csv_input(self, capsys, tmp_path):
        m = 64
        grid = theta_grid(m)
        path = tmp_path / "s.csv"
        path.write_text(
            "theta,value\n" + "\n".join(f"{t:.17g},{math.cos(2 * t):.17g}" for t in grid) + "\n"
        )
        code, out, _ = run(capsys, "coeffs", "--csv", str(path), "--K", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"][1] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("value", ["1.0", "0.0"], ids=["constant", "zero"])
    def test_csv_zero_coefficients_print_without_sign(self, capsys, tmp_path, value):
        # the coefficient files print a zero as "0.0", never "-0.0"
        path = tmp_path / "s.csv"
        path.write_text("theta,value\n" + "".join(f"{t!r},{value}\n" for t in theta_grid(64).tolist()))
        code, out, _ = run(capsys, "coeffs", "--csv", str(path), "--K", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha0"] == 2.0 * float(value)
        assert doc["alpha"] == doc["beta"] == [0.0] * 8
        assert "-0.0" not in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--fn", "square"), "8dae4f0b6ac7bb49ed888340830f42e1f94b5432120773ce30b942a145a2b44f"),
            (("--fn", "sawtooth"), "0412f5c7aa0ce4fdbbf333ad783b574b036c88a6181a66dccada68d1be393442"),
            (("--fn", "poisson"), "ecc7ab758d23deb6f8dde482cec3ba541876cba7d3630ce1ac198775fbc27779"),
            (("--fn", "poisson", "--theta1", "0.3"), "84a41d334455967bf7df1ce0011a4d5c3e6587239411e08e75dff2be8dc8c94a"),
            (("--fn", "poisson", "--theta1=-3.14159"), "02419d4e2355de5d95050ecdf895ad2906508dfe4b06152c03e539906571f4a3"),
            (("--fn", "zero"), "049dda68aabba7b4e1e48fe3c682a291395dd0e773d94af5ca9d41f7e4f97096"),
            (("--fn", "const"), "aff4380203436548504ee76244783ef0b52bd69fc5782658b99c6f8b0af2d5a9"),
            (("--fn", "cos_3"), "5bf750989ae2ee2e82ef82980d638fcf6705096da84f5c850b8e9c30d2a6344f"),
            (("--fn", "sin_5"), "7462d24e704365a7d66bffa216b5467d50445ef89a446eb8695b44d8d8c11f19"),
            (("--fn", "triangle"), "c58f99cf5e93f1bb9b30e055302ab76a3fea159023d7569b2ea168a7737b422c"),
            (("--fn", "delta"), "7d5ebe45b661e2fad2c723322026ce37d4100eabea6d9538ada5fea4ec06c08c"),
            (("--fn", "delta", "--theta1", "0.3"), "893c4eae33a0dd49481510e1eb941f3348b500eaac5eee932eb256c9c9b4e8f8"),
            (("--fn", "delta", "--theta1=-3.14159"), "be8a91913729f0f3cba0ffcacb354494019c102397d429368309ad0dfd78ba6f"),
            (("--fn", "delta_derivative", "--order", "1"), "c49f830da8304aaa7efc9b987ed168a30bcf48d14f7b725c643ca2e9d3483b98"),
            (("--fn", "delta_derivative", "--order", "2"), "710d3a97e3c895346ff140c0e292f8182d9dd17c1d493754d1fb6cf8da920d4a"),
            (("--fn", "delta_derivative", "--order", "5"), "70a8c5752fde786b4994f61c7020ec338e20914dbef9980a4b44af6d01bee3e9"),
        ],
        ids=[
            "square", "sawtooth", "poisson", "poisson-0.3", "poisson-near-seam", "zero", "const", "cos_3", "sin_5",
            "triangle", "delta", "delta-0.3", "delta-near-seam", "delta_derivative-1", "delta_derivative-2",
            "delta_derivative-5",
        ],
    )
    def test_catalog_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "coeffs", *argv, "--K", "64")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "wave, amp, shift, digest",
        [
            ("square", 1.5, -0.25, "43cbf1da4c414f26fb1cdc7223e51debae7760e28b564b0c256d31bcfb5496b0"),
            ("sawtooth", 0.75, 0.3, "1f38182e4d93d68b567a9acca4ecb93cf820744411672c06de475465c837fdbe"),
            ("triangle", 2.0, -1.1, "f5422ef05a2dcd5a7f43716b84231deac0dac0c3091105577fab88f02b25276e"),
        ],
        ids=["square", "sawtooth", "triangle"],
    )
    def test_csv_output_bytes_are_pinned(self, capsys, tmp_path, wave, amp, shift, digest):
        # samples with the midpoint at each jump, as repr cells: the pins cover the reader and the writer
        theta = theta_grid(256)
        samples = {"square": np.sign(theta), "sawtooth": theta.copy(), "triangle": np.abs(theta)}[wave]
        if wave != "triangle":
            samples[0] = 0.0
        path = tmp_path / f"{wave}.csv"
        rows = zip(theta.tolist(), (amp * samples + shift).tolist())
        path.write_text("theta,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        code, out, _ = run(capsys, "coeffs", "--csv", str(path), "--K", "64")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ("--fn", "square", "--theta1", "1"),
            ("--fn", "cos_3", "--order", "2"),
            ("--csv", "samples.csv", "--theta1", "1"),
        ],
    )
    def test_parameter_the_entry_does_not_take_is_refused(self, capsys, argv):
        code, out, err = run(capsys, "coeffs", *argv, "--K", "8")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and ("theta1" in err or "order" in err)

    def test_no_quadrature_size_option(self, capsys):
        code, out, err = run(capsys, "coeffs", "--fn", "square", "--K", "8", "--M", "8")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --M 8\n")

    @pytest.mark.parametrize(
        "name, option, params",
        [("delta", ("--theta1", "0.5"), {"theta1": 0.5}), ("delta_derivative", ("--order", "2"), {"order": 2})],
    )
    def test_parameters_reach_the_entry(self, capsys, name, option, params):
        code, out, _ = run(capsys, "coeffs", "--fn", name, *option, "--K", "8")
        assert code == 0
        alpha = json.loads(out)["alpha"]
        assert alpha == resolve(name, **params).coefficients(8).alpha.tolist()
        assert alpha != resolve(name).coefficients(8).alpha.tolist()

    @pytest.mark.parametrize("theta1", ["7", "-3.2", "3.141592653589793", "nan"])
    @pytest.mark.parametrize("name", ["delta", "delta_derivative", "poisson"])
    def test_theta1_outside_one_period_is_refused(self, capsys, name, theta1):
        code, out, err = run(capsys, "coeffs", "--fn", name, "--theta1", theta1, "--K", "2")
        assert code == 2 and out == ""
        assert err == f"error: theta1 must lie in [-pi, pi), got {float(theta1)}\n"

    @pytest.mark.parametrize("K", [0, -2])
    @pytest.mark.parametrize("name", [{"cos_<k>": "cos_3", "sin_<k>": "sin_5"}.get(i, i) for i in catalog_ids()])
    def test_fewer_than_one_coefficient_is_refused(self, capsys, name, K):
        code, out, err = run(capsys, "coeffs", "--fn", name, "--K", str(K))
        assert code == 2 and out == ""
        assert err == f"error: K must be >= 1, got {K}\n"

    def test_output_file_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "coeffs", "--fn", "triangle", "--K", "16", "--out", str(a))[0] == 0
        assert run(capsys, "coeffs", "--fn", "triangle", "--K", "16", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestReconstructCommand:
    def _coeff_file(self, capsys, tmp_path, name, K, **flags):
        path = tmp_path / f"{name}.json"
        argv = ["coeffs", "--fn", name, "--K", str(K), "--out", str(path)]
        for key, val in flags.items():
            argv += [f"--{key}", str(val)]
        assert main(argv) == 0
        capsys.readouterr()
        return path

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    def test_square_schedule_recovery(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "square", 2000)
        out = tmp_path / "sq.csv"
        code, _, _ = run(
            capsys,
            "reconstruct",
            "--coeffs",
            str(path),
            "--thetas=-pi:pi:8",
            "--schedule",
            "1..12",
            "--tol",
            "1e-3",
            "--out",
            str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "theta,rho,value,conjugate,converged"
        final = [r.split(",") for r in rows[1:] if r.split(",")[4] != ""]
        assert len(final) == 8
        for cells in final:
            theta, value = float(cells[0]), float(cells[2])
            if min(abs(theta), abs(abs(theta) - math.pi)) > 0.3:
                assert abs(value - math.copysign(1.0, theta)) < 0.02
                assert cells[4] == "true"

    def test_truncation_warning_is_one_stderr_line(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "square", 64)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
        env.pop("PYTHONWARNINGS", None)
        argv = ["reconstruct", "--coeffs", str(path), "--thetas=-pi:pi:4", "--schedule", "1..12"]
        cmd = [sys.executable, "-m", "inner_fourier", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: K=64 truncation bound 156 exceeds schedule tol 1e-06 at rho=0.999755859375\n"
        )

    def test_point_mass_poisson_curve(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "delta", 2000, theta1=0.0)
        code, out, _ = run(
            capsys, "reconstruct", "--coeffs", str(path), "--thetas=-pi:pi:16", "--rho", "0.99"
        )
        assert code == 0
        truncation = 0.99**2001 / (math.pi * 0.01) + 1e-12
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[2]) == pytest.approx(
                oracle_poisson_kernel(float(cells[0]), 0.0, 0.99), abs=truncation
            )

    def test_zero_curve(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "zero", 8)
        code, out, _ = run(
            capsys, "reconstruct", "--coeffs", str(path), "--thetas", "0:1:4", "--rho", "0.5"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_thetas_value_as_separate_argument(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "square", 16)
        forms = ([], ["--thetas", "-pi:pi:256"], ["--thetas=-pi:pi:256"])
        outs = [run(capsys, "reconstruct", "--coeffs", str(path), *form, "--rho", "0.5") for form in forms]
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    @pytest.mark.parametrize("mode", [("--rho", "0.5"), ("--schedule", "1..6")])
    def test_c_group_alone_reads_as_both_groups(self, capsys, tmp_path, mode):
        both = self._coeff_file(capsys, tmp_path, "square", 12)
        doc = json.loads(both.read_text())
        c_only = tmp_path / "c_only.json"
        c_only.write_text(json.dumps({k: doc[k] for k in ("K", "c_re", "c_im")}))
        outs = [run(capsys, "reconstruct", "--coeffs", str(p), "--thetas=-pi:pi:8", *mode) for p in (both, c_only)]
        assert outs[0][0] == 0 and outs[0][1].count("\n") == 1 + 8 * (1 if mode[0] == "--rho" else 6)
        assert outs[0] == outs[1]

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    def test_tol_reaches_the_schedule_only_when_given(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "square", 8)
        argv = ["reconstruct", "--coeffs", str(path), "--thetas=0.5:1:2", "--schedule", "1..4"]

        def converged(*extra):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            return [row.split(",")[4] for row in out.splitlines()[1:] if row.split(",")[4]]

        assert converged() == ["false", "false"]  # the schedule's own 1e-6
        assert converged("--tol", "5") == ["true", "true"]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["--rho", "0.5", "--tol", "5"], "--tol is read only with --schedule"),
            (["--rho", "0.5", "--schedule", "1..4"], "provide exactly one of --rho or --schedule"),
            ([], "provide exactly one of --rho or --schedule"),
        ],
        ids=["tol_with_rho", "rho_and_schedule", "neither"],
    )
    def test_radius_options_misused_are_refused(self, capsys, tmp_path, argv, text):
        path = self._coeff_file(capsys, tmp_path, "square", 8)
        code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), "--thetas=0:1:2", *argv)
        assert (code, out, err) == (2, "", f"error: {text}\n")

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    def test_partial_arc_is_power_series_bit_for_bit(self, capsys, tmp_path):
        from inner_fourier.quadrature import disk_points, power_series

        path = self._coeff_file(capsys, tmp_path, "sawtooth", 64)
        code, out, _ = run(capsys, "reconstruct", "--coeffs", str(path), "--thetas=0:1:16", "--schedule", "1..6")
        assert code == 0
        doc = json.loads(path.read_text())
        c = np.array(doc["c_re"]) + 1j * np.array(doc["c_im"])
        # the angles as --thetas lo:hi:n builds them, lo + (hi - lo) * j / n
        thetas, rhos = 0.0 + 1.0 * np.arange(16) / 16, [1.0 - 2.0**-j for j in range(1, 7)]
        want = power_series(c, disk_points(thetas, rhos)).ravel()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[2] for r in rows] == [repr(v) for v in want.real.tolist()]
        assert [r[3] for r in rows] == [repr(v) for v in want.imag.tolist()]

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    @pytest.mark.parametrize(
        "name, flags, argv, digest",
        [
            ("square", {}, ["--schedule", "1..12"], "1cac53daf45b7b1b9f6d87e3cbc2b63a6e497c86a07ab838f0fa2547898bbfe5"),
            ("delta", {}, ["--thetas=0:2pi:64", "--rho", "0.9"], "a920f3363f4847fb6f5c32704bfb38e525480460a8f9d4d1fe11cb83c34d4397"),
            (
                "triangle",
                {},
                ["--thetas=0:1:17", "--schedule", "3..8", "--tol", "1e-3"],
                "1cc6be8294d187727b90f94a3ef1a4488ba6d2a9d20c2689df670b63e4065921",
            ),
            # three value cells print as -0.0
            (
                "delta_derivative",
                {"order": 2},
                ["--thetas=-3:2:7", "--rho", "0"],
                "471e3be5cecb13059f2826cd9e8420df0f861c89b42a9a7333c2588a5fea7969",
            ),
        ],
        ids=["square-schedule", "delta-shifted-period", "triangle-arc", "delta_derivative-2-signed-zeros"],
    )
    def test_curve_output_bytes_are_pinned(self, capsys, tmp_path, name, flags, argv, digest):
        path = self._coeff_file(capsys, tmp_path, name, 64, **flags)
        code, out, _ = run(capsys, "reconstruct", "--coeffs", str(path), *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_radius_domain_error(self, capsys, tmp_path):
        path = self._coeff_file(capsys, tmp_path, "zero", 8)
        code, _, err = run(
            capsys, "reconstruct", "--coeffs", str(path), "--thetas", "0:1:4", "--rho", "1.0"
        )
        assert code == 2


class TestInputErrors:
    """Malformed input exits 2 with one line on stderr, never a traceback."""

    def _one_line_usage_error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"K": 2, "alpha": [1, 0], "beta": [0, 1]},
            {"K": 2, "alpha0": 0.5, "alpha": [1, 0]},
            {"K": 2, "c_re": [0, 1, 0]},
        ],
    )
    def test_coefficient_json_missing_keys(self, capsys, tmp_path, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")

    @pytest.mark.parametrize("edit", [{"c_re": [5.0] * 9}, {"K": 99}])
    def test_coefficient_file_that_disagrees_with_itself(self, capsys, tmp_path, edit):
        path = tmp_path / "c.json"
        assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(path)]) == 0
        assert run(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")[0] == 0
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")

    @pytest.mark.parametrize("spec", ["3", "1..x", "1..2..3"])
    def test_schedule_spec_names_its_form(self, capsys, tmp_path, spec):
        path = tmp_path / "c.json"
        assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(path)]) == 0
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), "--schedule", spec)
        assert "j1..j2" in run(capsys, "reconstruct", "--coeffs", str(path), "--schedule", spec)[2]

    @pytest.mark.parametrize(
        "extra, text",
        [
            (("--schedule", "1..3", "--tol", "inf"), "tol must be positive and finite, got inf"),
            (("--schedule", "50..54"), "need 1 <= j_start < j_stop <= 53, got 50..54"),
        ],
        ids=["infinite_tol", "radius_rounds_to_one"],
    )
    def test_schedule_out_of_range_is_refused(self, capsys, tmp_path, extra, text):
        # an infinite tol would mark every angle converged; 1 - 2**-54 rounds to 1
        path = tmp_path / "c.json"
        assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(path)]) == 0
        code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), *extra)
        assert code == 2 and out == ""
        assert err == f"error: {text}\n"

    @pytest.mark.parametrize(
        "argv",
        [("--b", "-1.1", "--K", "512"), ("--p", "nan"), ("--b", "inf")],
        ids=["negative_base", "nan_power", "infinite_base"],
    )
    def test_family_outside_its_range_is_refused(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--suite", "classify", *argv)
        assert code == 2 and out == ""
        assert err == "error: the family k**p * b**k needs a finite p and 0 <= b < inf\n"

    def test_c_group_with_imaginary_mean_term(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"K": 2, "c_re": [0.0, 1.0, 0.0], "c_im": [1.0, 0.0, 0.0]}))
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")

    def test_sample_csv_one_column_row(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("theta,value\n-3.141592653589793,1.0\n0.0\n")
        self._one_line_usage_error(capsys, "coeffs", "--csv", str(path), "--K", "1")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("-3.141592653589793,abc\n0.0,1.0\n", "could not convert string 'abc' to float64 at line 2, column 2."),
            ("abc,1.0\n0.0,1.0\n", "could not convert string 'abc' to float64 at line 2, column 1."),
        ],
        ids=["value", "theta"],
    )
    def test_sample_cell_that_is_not_a_number_names_the_file(self, capsys, tmp_path, rows, message):
        path = tmp_path / "s.csv"
        path.write_text("theta,value\n" + rows)
        code, out, err = run(capsys, "coeffs", "--csv", str(path), "--K", "0")
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_coefficient_file_that_is_not_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json")
        code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: {path}: Expecting value: line 1 column 1 (char 0)\n"

    # the last two: a span that overflows, and a finite span whose steps (hi - lo)*j overflow
    @pytest.mark.parametrize("thetas", ["0:inf:4", "-inf:0:4", "nan:1:4", "0:nan:4", "-1e308:1e308:4", "-1e308:7e307:4"])
    def test_theta_grid_without_finite_span_is_refused(self, capsys, tmp_path, thetas):
        path = tmp_path / "c.json"
        assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(path)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), f"--thetas={thetas}", "--rho", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: theta grid spec needs n >= 1 and finite lo < hi, got {thetas!r}\n"

    def test_theta_grid_with_more_points_than_a_float_holds_is_refused(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(path)]) == 0
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), f"--thetas=0:1:{10**400}", "--rho", "0.5")

    # the default full-period grid takes the folded FFT, the partial arc power_series
    @pytest.mark.parametrize("thetas", ["-pi:pi:256", "0:1:4"], ids=["full_period", "partial_arc"])
    def test_overflowing_synthesis_is_refused_by_radius(self, capsys, tmp_path, thetas):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"K": 4, "alpha0": 1e308, "alpha": [1e308] * 4, "beta": [1e308] * 4}))
        code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), f"--thetas={thetas}", "--rho", "0.9")
        assert code == 2 and out == ""
        assert err == "error: taylor series (K=4) overflows at radius 0.9\n"


def test_outputs_are_byte_identical_across_processes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
    csv_path, coeffs_path = tmp_path / "s.csv", tmp_path / "c.json"
    rows = "".join(f"{t!r},{math.exp(math.cos(t)) + t * t!r}\n" for t in theta_grid(256).tolist())
    csv_path.write_text("theta,value\n" + rows)

    def cli(*argv):
        cmd = [sys.executable, "-W", "ignore", "-m", "inner_fourier", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, check=True).stdout

    coeffs = cli("coeffs", "--csv", str(csv_path), "--K", "100")
    assert coeffs == cli("coeffs", "--csv", str(csv_path), "--K", "100")
    coeffs_path.write_bytes(coeffs)
    sweep = ["reconstruct", "--coeffs", str(coeffs_path), "--thetas=-pi:pi:64", "--schedule", "1..14"]
    assert cli(*sweep) == cli(*sweep)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("coeffs", "--csv", "{csv}", "--K", "4"),
            "error: the coefficients of {csv} overflow a double\n",
        ),
        (
            ("coeffs", "--fn", "delta_derivative", "--order", "400", "--K", "400"),
            "error: the angular derivative k*c_k of c_0..c_400 overflows a double\n",
        ),
    ],
    ids=["csv", "delta_derivative"],
)
def test_overflow_is_one_error_line(tmp_path, argv, message):
    # in a subprocess: pytest's error::RuntimeWarning filter would raise numpy's warnings inside main
    csv = tmp_path / "big.csv"
    csv.write_text("theta,value\n" + "".join(f"{t!r},1.7e308\n" for t in theta_grid(64).tolist()))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
    env.pop("PYTHONWARNINGS", None)
    cmd = [sys.executable, "-m", "inner_fourier", *(a.format(csv=csv) for a in argv)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message.format(csv=csv))


def _choice_refusal(option, value, choices):
    # whether argparse quotes the choices depends on the Python release (3.13.0 does, 3.13.13 does not)
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument(option, choices=choices)
    with pytest.raises(argparse.ArgumentError) as exc:
        probe.parse_args([option, value])
    return str(exc.value)


# every kind of usage refusal, argparse's own included: argv ({dir} holds the files that
# _refusal_inputs writes) and the reason main prints as its one stderr line
REFUSALS = {
    "unknown_option": (("verify", "--suite", "ortho", "--tol", "1"), "unrecognized arguments: --tol 1"),
    "bad_int": (("coeffs", "--fn", "square", "--K", "x"), "argument --K: invalid int value: 'x'"),
    "missing_option": (("coeffs", "--fn", "square"), "the following arguments are required: --K"),
    "bad_choice": (
        ("verify", "--suite", "nope"),
        _choice_refusal("--suite", "nope", ["classify", "complete", "hilbert", "kernels", "ortho"]),
    ),
    "no_command": ((), "the following arguments are required: command"),
    "fn_and_csv": (
        ("coeffs", "--fn", "square", "--csv", "{dir}/s.csv", "--K", "4"),
        "provide exactly one of --fn or --csv; --theta1 and --order need --fn",
    ),
    "rho_and_schedule": (
        ("reconstruct", "--coeffs", "{dir}/square.json", "--rho", "0.5", "--schedule", "1..4"),
        "provide exactly one of --rho or --schedule",
    ),
    "tol_with_rho": (
        ("reconstruct", "--coeffs", "{dir}/square.json", "--rho", "0.5", "--tol", "5"),
        "--tol is read only with --schedule",
    ),
    "rho_one": (("reconstruct", "--coeffs", "{dir}/square.json", "--rho", "1"), "need 0 <= rho < 1, got 1.0"),
    "verify_K_zero": (("verify", "--suite", "ortho", "--K", "0"), "K must be >= 1, got 0"),
    "unread_option": (("verify", "--suite", "kernels", "--K", "5"), "--suite kernels does not read --K"),
    "alpha_beta_lengths": (
        ("reconstruct", "--coeffs", "{dir}/lengths.json", "--rho", "0.5"),
        "{dir}/lengths.json: alpha and beta must be 1d arrays of equal length",
    ),
    "empty_alpha_beta": (
        ("reconstruct", "--coeffs", "{dir}/empty.json", "--rho", "0.5"),
        "{dir}/empty.json: need K >= 1 harmonic coefficients",
    ),
    "one_entry_c": (
        ("reconstruct", "--coeffs", "{dir}/one.json", "--rho", "0.5"),
        "{dir}/one.json: need coefficients c_0..c_K with K >= 1",
    ),
    "nan_c_re": (
        ("reconstruct", "--coeffs", "{dir}/nan.json", "--rho", "0.5"),
        "{dir}/nan.json: coefficients must be finite",
    ),
    "csv_K_zero": (("coeffs", "--csv", "{dir}/s.csv", "--K", "0"), "K must be >= 1, got 0"),
    "thetas_two_fields": (
        ("reconstruct", "--coeffs", "{dir}/square.json", "--rho", "0.5", "--thetas=0:1"),
        "theta grid spec must be lo:hi:n, got '0:1'",
    ),
}


def _refusal_inputs(tmp_path):
    assert main(["coeffs", "--fn", "square", "--K", "8", "--out", str(tmp_path / "square.json")]) == 0
    (tmp_path / "s.csv").write_text("theta,value\n" + "".join(f"{t!r},1.0\n" for t in theta_grid(4).tolist()))
    docs = {
        "lengths": {"K": 2, "alpha0": 0.5, "alpha": [1.0, 0.0], "beta": [0.0]},
        "empty": {"K": 0, "alpha0": 0.5, "alpha": [], "beta": []},
        "one": {"K": 0, "c_re": [1.0], "c_im": [0.0]},
        "nan": {"K": 1, "c_re": [math.nan, 1.0], "c_im": [0.0, 0.0]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("argv, text", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_is_one_error_line(capsys, tmp_path, argv, text):
    _refusal_inputs(tmp_path)
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {text.format(dir=tmp_path)}\n")


@pytest.mark.parametrize("argv, usage", [(("--help",), "inner-fourier [-h]"), (("verify", "--help"), "inner-fourier verify [-h]")])
def test_help_alone_prints_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith(f"usage: {usage} ")


def test_one_parser_serves_every_call_after_a_usage_error():
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
    after_error = (
        "import sys\n"
        "from inner_fourier.cli import main\n"
        "assert main(['verify', '--suite', 'ortho', '--tol', '1']) == 2\n"
        "sys.exit(main(['verify', '--suite', 'ortho']))\n"
    )
    procs = [
        subprocess.run([sys.executable, *cmd], env=env, capture_output=True, check=True)
        for cmd in (["-c", after_error], ["-m", "inner_fourier", "verify", "--suite", "ortho"])
    ]
    assert procs[0].stderr == b"error: unrecognized arguments: --tol 1\n" and procs[1].stderr == b""
    runs = [proc.stdout for proc in procs]
    assert runs[0] == runs[1]
    assert runs[0].endswith(b"all checks passed\n")


def test_every_float_token_is_its_shortest_repr(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(inner_fourier.__file__)))
    csv_path, coeffs_path = tmp_path / "s.csv", tmp_path / "c.json"
    rows = "".join(f"{t!r},{math.exp(math.cos(t))!r}\n" for t in theta_grid(64).tolist())
    csv_path.write_text("theta,value\n" + rows)

    def cli(*argv):
        cmd = [sys.executable, "-W", "ignore", "-m", "inner_fourier", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, check=True, text=True).stdout

    outputs = [
        cli("coeffs", "--csv", str(csv_path), "--K", "16"),
        cli("coeffs", "--fn", "delta_derivative", "--order", "2", "--theta1", "0.3", "--K", "16"),
    ]
    coeffs_path.write_text(cli("coeffs", "--fn", "square", "--K", "16"))
    for mode in (["--rho", "0.9"], ["--schedule", "1..6"]):
        outputs.append(cli("reconstruct", "--coeffs", str(coeffs_path), "--thetas=-pi:pi:16", *mode))
    for text in outputs:
        # JSON keys are quoted and CSV words start with a letter, so number tokens start with - or a digit
        tokens = [t for t in re.split(r"[\s,:\[\]{}]+", text) if t[:1] in tuple("-0123456789")]
        floats = [t for t in tokens if not t.isdigit()]
        assert len(floats) >= 64
        assert [t for t in floats if t != repr(float(t))] == []


class TestVerifyCommand:
    def test_no_tolerance_option(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "ortho", "--tol", "1")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --tol 1\n")

    @pytest.mark.parametrize("option", [("--M", "64"), ("--out", "sweep.csv")])
    def test_removed_options_refused(self, capsys, option):
        code, out, err = run(capsys, "verify", "--suite", "kernels", *option)
        assert (code, out, err) == (2, "", f"error: unrecognized arguments: {' '.join(option)}\n")

    @pytest.mark.parametrize("suite", ["ortho", "complete", "hilbert", "classify"])
    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_nonpositive_K_is_a_usage_error(self, capsys, suite, K):
        code, out, err = run(capsys, "verify", "--suite", suite, "--K", K)
        assert code == 2
        assert err == f"error: K must be >= 1, got {K}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "ortho", "--K", "16"),
            ("verify", "--suite", "kernels"),
            ("verify", "--suite", "hilbert", "--K", "8", "--rho0", "0.5"),
        ],
    )
    def test_suites_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_classify_family_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classify", "--p", "5")
        assert code == 0
        assert "bounded=true" in out

    def test_classify_family_reads_K(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classify", "--b", "0.9", "--K", "512")
        assert code == 0
        assert out.splitlines()[0].startswith("family p=0 b=0.9: bounded=true")

    @pytest.mark.parametrize(
        "suite, option",
        [
            ("kernels", ("--K", "5")),
            ("ortho", ("--rho0", "0.3")),
            ("complete", ("--p", "1")),
            ("hilbert", ("--b", "2")),
            ("classify", ("--K", "64")),
            ("classify", ("--p", "1", "--rho0", "0.3")),
        ],
    )
    def test_option_the_suite_does_not_read_is_refused(self, capsys, suite, option):
        code, out, err = run(capsys, "verify", "--suite", suite, *option)
        assert code == 2
        assert out == ""
        assert err == f"error: --suite {suite} does not read {option[-2]}\n"

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["ortho"], ["gram_offdiag", "gram_diag", "residue_identity"]),
            (["complete"], ["unit_mass", "poisson_eigenrelation", "zero_coefficient_probe"]),
            (["kernels"], ["contour_polynomial", "contour_delta", "remainder_closed_form", "remainder_slope"]),
            (["classify"], ["family_grid", "equivalence_agreement", "tail_ratio"]),
            (
                ["hilbert", "--rho0", "0.37", "--K", "8"],
                ["taylor_gram_offdiag", "taylor_gram_diag", "taylor_gram_identity",
                 "contour_vs_series", "positivity_margin"],
            ),
        ],
    )
    def test_report_lines_keep_their_format(self, capsys, argv, names):
        # the line format scripts parse, one line per check, then the summary
        line = re.compile(r"^(\w+): (PASS|FAIL) \(max_error=([^,]+), tol=([^)]+)\)$")
        code, out, _ = run(capsys, "verify", "--suite", *argv)
        *checks, summary = out.splitlines()
        assert code == 0 and summary == "all checks passed"
        assert [line.match(c).group(1) for c in checks] == names
        for c in checks:
            assert float(line.match(c).group(3)) <= float(line.match(c).group(4))

    @pytest.mark.parametrize("suite", ["ortho", "hilbert"])
    def test_size_numpy_cannot_allocate_is_a_usage_error(self, capsys, suite):
        # the Gram basis for K = 1e8 needs 568 PiB, which numpy refuses before touching any memory
        code, out, err = run(capsys, "verify", "--suite", suite, "--K", "100000000")
        assert code == 2 and out == ""
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    @pytest.mark.parametrize("K", ["1", "7", "4096"])
    def test_complete_K_outside_its_range_is_a_usage_error(self, capsys, K):
        # the kernel needs the harmonics 1..8 it is checked on and a degree below M = 4096
        code, out, err = run(capsys, "verify", "--suite", "complete", "--K", K)
        assert code == 2 and out == ""
        assert err == f"error: --suite complete needs 8 <= K <= 4095, got K={K}\n"

    @pytest.mark.parametrize("K, eigen", [("8", "2.22e-16"), ("4095", "1.11e-16")])
    def test_complete_K_at_the_ends_of_its_range(self, capsys, K, eigen):
        code, out, _ = run(capsys, "verify", "--suite", "complete", "--K", K)
        assert code == 0
        assert out.splitlines()[1] == f"poisson_eigenrelation: PASS (max_error={eigen}, tol=1e-10)"

    def test_classify_family_window_too_short_is_named(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "classify", "--p", "2", "--K", "8")
        assert code == 2 and out == ""
        assert err == "error: fit window (2, 8) spans 7 indices; need 8\n"

    def test_classify_family_at_the_shortest_window(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classify", "--p", "2", "--K", "9")
        assert code == 0
        assert out.splitlines()[0].startswith("family p=2 b=1: bounded=true")

    def test_classify_overflow_is_a_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--suite", "classify", "--b", "2")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "PASS" not in out

    @pytest.mark.parametrize(
        "argv, family",
        [
            (("--b", "2"), "p=0, b=2, K=4096"),
            (("--p", "1e300"), "p=1e+300, b=1, K=4096"),
            (("--p", "200", "--b", "2", "--K", "64"), "p=200, b=2, K=64"),
        ],
        ids=["base", "power", "both"],
    )
    def test_classify_family_overflow_names_the_family(self, capsys, argv, family):
        code, out, err = run(capsys, "verify", "--suite", "classify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: the family k**p * b**k overflows a double for k <= K at {family}\n"

    def test_classify_suite_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classify")
        assert code == 0
        assert out == (
            "family_grid: PASS (max_error=0, tol=0)\n"
            "equivalence_agreement: PASS (max_error=0, tol=0)\n"
            "tail_ratio: PASS (max_error=0.00476, tol=0.05)\n"
            "all checks passed\n"
        )

    SUITE_OUTPUT = {
        "ortho": (
            "gram_offdiag: PASS (max_error=2.7e-16, tol=1e-12)\n"
            "gram_diag: PASS (max_error=4.44e-16, tol=1e-12)\n"
            "residue_identity: PASS (max_error=0, tol=1e-13)\n"
        ),
        "kernels": (
            "contour_polynomial: PASS (max_error=2.22e-16, tol=1e-10)\n"
            "contour_delta: PASS (max_error=1.69e-16, tol=1e-10)\n"
            "remainder_closed_form: PASS (max_error=4.32e-17, tol=1e-10)\n"
            "remainder_slope: PASS (max_error=0, tol=0.02)\n"
        ),
        "hilbert": (
            "taylor_gram_offdiag: PASS (max_error=5.04e-18, tol=1e-12)\n"
            "taylor_gram_diag: PASS (max_error=5.55e-17, tol=1e-12)\n"
            "taylor_gram_identity: PASS (max_error=2.22e-16, tol=1e-12)\n"
            "contour_vs_series: PASS (max_error=6.68e-16, tol=1e-11)\n"
            "positivity_margin: PASS (max_error=0, tol=0)\n"
        ),
        "complete": (
            "unit_mass: PASS (max_error=2.22e-16, tol=1e-12)\n"
            "poisson_eigenrelation: PASS (max_error=1.11e-16, tol=1e-10)\n"
            "zero_coefficient_probe: PASS (max_error=1.55e-16, tol=1e-10)\n"
        ),
    }

    @pytest.mark.parametrize("suite", sorted(SUITE_OUTPUT))
    def test_suite_output_is_pinned(self, capsys, suite):
        # every printed max_error, at the default options
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert out == self.SUITE_OUTPUT[suite] + "all checks passed\n"

    # the family line prints rate and power to 6 significant digits, so a fit
    # that rounds differently in the last digits shows up here
    FAMILY_LINES = [
        "family p=0 b=0.9: bounded=true rate=0 power=0",
        "family p=0 b=1: bounded=true rate=0 power=0",
        "family p=0 b=1.01: bounded=false rate=0.00995033 power=1.0977e-14",
        "family p=0 b=1.1: bounded=false rate=0.0953102 power=3.55495e-11",
        "family p=1 b=0.9: bounded=true rate=0 power=0",
        "family p=1 b=1: bounded=true rate=-1.07723e-16 power=1",
        "family p=1 b=1.01: bounded=false rate=0.00995033 power=1",
        "family p=1 b=1.1: bounded=false rate=0.0953102 power=1",
        "family p=2 b=0.9: bounded=true rate=0 power=0",
        "family p=2 b=1: bounded=true rate=-2.15446e-16 power=2",
        "family p=2 b=1.01: bounded=false rate=0.00995033 power=2",
        "family p=2 b=1.1: bounded=false rate=0.0953102 power=2",
        "family p=5 b=0.9: bounded=true rate=0 power=0",
        "family p=5 b=1: bounded=true rate=-5.44118e-16 power=5",
        "family p=5 b=1.01: bounded=false rate=0.00995033 power=5",
        "family p=5 b=1.1: bounded=false rate=0.0953102 power=5",
    ]

    @pytest.mark.parametrize("line", FAMILY_LINES)
    def test_classify_family_output_is_pinned(self, capsys, line):
        p, b = re.match(r"family p=(\S+) b=(\S+):", line).groups()
        code, out, _ = run(capsys, "verify", "--suite", "classify", "--p", p, "--b", b)
        assert code == 0
        assert out == (
            f"{line}\n"
            "family_matches_ground_truth: PASS (max_error=0, tol=0.5)\n"
            "all checks passed\n"
        )

    def test_classify_suite_memory_stays_small(self):
        # checking all 200 families in one batch raised this peak from 1.2 MB to 8.3 MB
        tracemalloc.start()
        try:
            list(cli._suite_classify())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_exit_one_on_violation(self, capsys, monkeypatch):
        import inner_fourier.basis as basis_mod

        real = basis_mod.residue_identity_check
        monkeypatch.setattr(
            basis_mod, "residue_identity_check", lambda p, rho: real(p, rho) + 1e-9
        )
        code, out, _ = run(capsys, "verify", "--suite", "ortho", "--K", "4")
        assert code == 1
        assert "FAIL" in out
