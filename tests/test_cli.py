import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import inner_fourier
from inner_fourier import resolve
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
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--fn", "square", "--K", "8", "--M", "8"])
        assert exc.value.code == 2

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
        from inner_fourier import poisson_kernel

        path = self._coeff_file(capsys, tmp_path, "delta", 2000, theta1=0.0)
        code, out, _ = run(
            capsys, "reconstruct", "--coeffs", str(path), "--thetas=-pi:pi:16", "--rho", "0.99"
        )
        assert code == 0
        truncation = 0.99**2001 / (math.pi * 0.01) + 1e-12
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[2]) == pytest.approx(
                poisson_kernel(float(cells[0]), 0.0, 0.99), abs=truncation
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
        "argv",
        [["--rho", "0.5", "--tol", "5"], ["--rho", "0.5", "--schedule", "1..4"], []],
        ids=["tol_with_rho", "rho_and_schedule", "neither"],
    )
    def test_radius_options_misused_are_refused(self, capsys, tmp_path, argv):
        path = self._coeff_file(capsys, tmp_path, "square", 8)
        code, out, err = run(capsys, "reconstruct", "--coeffs", str(path), "--thetas=0:1:2", *argv)
        assert code == 2 and out == ""
        assert err.startswith("reconstruct: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::inner_fourier.errors.TruncationWarning")
    def test_partial_arc_is_horner_bit_for_bit(self, capsys, tmp_path):
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

    def test_c_group_with_imaginary_mean_term(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"K": 2, "c_re": [0.0, 1.0, 0.0], "c_im": [1.0, 0.0, 0.0]}))
        self._one_line_usage_error(capsys, "reconstruct", "--coeffs", str(path), "--rho", "0.5")

    def test_sample_csv_one_column_row(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("theta,value\n-3.141592653589793,1.0\n0.0\n")
        self._one_line_usage_error(capsys, "coeffs", "--csv", str(path), "--K", "1")

    # the default full-period grid takes the folded FFT, the partial arc Horner's rule
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
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "ortho", "--tol", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [("--M", "64"), ("--out", "sweep.csv")])
    def test_removed_options_refused(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "kernels", *option])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["ortho", "complete", "hilbert", "classify"])
    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_nonpositive_K_is_a_usage_error(self, capsys, suite, K):
        code, out, err = run(capsys, "verify", "--suite", suite, "--K", K)
        assert code == 2
        assert err == f"verify: K must be >= 1, got {K}\n"
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
        assert err == f"verify: --suite {suite} does not read {option[-2]}\n"

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
                 "contour_vs_series", "hermitian_symmetry", "positivity_margin"],
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

    def test_exit_one_on_violation(self, capsys, monkeypatch):
        import inner_fourier.basis as basis_mod

        real = basis_mod.residue_identity_check
        monkeypatch.setattr(
            basis_mod, "residue_identity_check", lambda p, rho: real(p, rho) + 1e-9
        )
        code, out, _ = run(capsys, "verify", "--suite", "ortho", "--K", "4")
        assert code == 1
        assert "FAIL" in out
