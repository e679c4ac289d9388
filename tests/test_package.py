import argparse
import ast
import dataclasses
import importlib
import math
import pkgutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import inner_fourier
from inner_fourier import (
    CatalogEntry,
    ClassificationReport,
    DiskProductConfig,
    EquivalenceReport,
    FourierCoefficients,
    GramReport,
    InnerAnalytic,
    PartialSumReport,
    PeriodicFunction,
    PolarPoint,
    RhoLimitResult,
    RhoSchedule,
    SeriesProductResult,
    TaylorCoefficients,
    TaylorSeries,
    boundary_partial_sum,
    classify_sequence,
    coefficients_by_cauchy,
    completeness_probe,
    contour_partial_sum,
    convergence_radius_check,
    delta_inner,
    family_magnitudes,
    fourier_coefficients,
    fourier_gram,
    inner_product_disk,
    inner_product_series,
    partial_sum,
    regulated_delta_on_grid,
    regulated_sum,
    remainder,
    residue_identity_check,
    resolve,
    taylor_gram,
    to_taylor,
)
from inner_fourier.cli import cmd_reconstruct
from inner_fourier.errors import real
from inner_fourier.fileio import dumps_coefficients
from inner_fourier.quadrature import circle_samples, theta_grid


def test_imported_names_are_the_export_list():
    tree = ast.parse(Path(inner_fourier.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert sorted(imported) == sorted(inner_fourier.__all__)


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # "import a.b" binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


@pytest.mark.parametrize("path", sorted(Path(inner_fourier.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # the package re-exports what it imports through __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = {name: line for name, line in _bound_imports(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"


@pytest.mark.parametrize("path", sorted(Path(inner_fourier.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_private_function_crosses_modules(path):
    # private constants such as _EPS may be shared; a private function stays in its module
    crossing = [
        f"{node.module}.{alias.name}: {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
        and callable(getattr(importlib.import_module(f"inner_fourier.{node.module}"), alias.name))
    ]
    assert crossing == [], f"{path.name} imports private functions of its siblings"


def test_only_main_writes_to_stderr():
    # every CLI refusal is one line that main prints and exits on; no command prints its own
    tree = ast.parse((Path(inner_fourier.__file__).parent / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = set(map(id, ast.walk(main)))
    outside = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "stderr" and id(node) not in in_main
    ]
    assert outside == [], "cli.py writes to sys.stderr outside main (lines)"


def _names_read(path: Path) -> set[str]:
    """Every name and attribute that the module at path reads."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


_ROOT = Path(__file__).resolve().parents[1]
# an export is read by the library or its CLI, by the benchmark, or by the acceptance tests
_READERS = [
    *(p for p in Path(inner_fourier.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    *(_ROOT / "bench").glob("*.py"),
    _ROOT / "tests" / "test_acceptance.py",
]
_READ = set().union(*map(_names_read, _READERS))


@pytest.mark.parametrize("name", inner_fourier.__all__)
def test_every_export_has_a_reader(name):
    assert name in _READ, f"{name} is exported but no src module, bench script or acceptance test reads it"


# what a routine returns: each field needs a reader outside the module that defines it
_RESULT_TYPES = (
    ClassificationReport,
    EquivalenceReport,
    SeriesProductResult,
    PartialSumReport,
    RhoLimitResult,
    GramReport,
    CatalogEntry,
)
# what a caller builds and hands in; its fields are read by the routines that take it
_INPUT_TYPES = (PeriodicFunction, FourierCoefficients, TaylorCoefficients, PolarPoint, RhoSchedule, DiskProductConfig)
# a field whose reader is still to come; when it lands, the mark goes
_WAITING = {
    "PartialSumReport.roundoff_bound": "waits for one stated contract for every contour sum",
    "RhoLimitResult.truncation_suspect": "waits for the extrapolated Abel limit with its error estimate",
    "CatalogEntry.taylor": "waits for the entry's inner function, whose w.taylor replaces it",
}


def _own_fields(cls) -> set[str]:
    """The fields of cls that no other result or input type, no InnerAnalytic and no ndarray has."""
    others = [c for c in (*_RESULT_TYPES, *_INPUT_TYPES, InnerAnalytic, np.ndarray) if c is not cls]
    # dir misses a dataclass field that has no default
    taken = {a for c in others for a in (*dir(c), *getattr(c, "__dataclass_fields__", ()))}
    return set(cls.__dataclass_fields__) - taken


def _reads_by_receiver(path: Path) -> dict[str, set[str]]:
    """Attributes read in the file at path, by receiver: a name x for x.f, the function g for g(...).f."""
    reads: dict[str, set[str]] = {}
    for n in ast.walk(ast.parse(path.read_text())):
        # attribute reads only: the builtin id(...) is no read of a field named id
        if isinstance(n, ast.Attribute):
            receiver = f"{ast.unparse(n.value.func)}()" if isinstance(n.value, ast.Call) else ast.unparse(n.value)
            reads.setdefault(receiver, set()).add(n.attr)
    return reads


_READS_BY_RECEIVER = {path: _reads_by_receiver(path) for path in _READERS}


def _field_case(cls, field: dataclasses.Field):
    key = f"{cls.__name__}.{field.name}"
    marks = [pytest.mark.xfail(reason=_WAITING[key], strict=True)] if key in _WAITING else []
    return pytest.param(cls, field.name, id=key, marks=marks)


@pytest.mark.parametrize("cls, field", [_field_case(cls, f) for cls in _RESULT_TYPES for f in dataclasses.fields(cls)])
def test_every_result_field_has_a_reader(cls, field):
    # x.field counts only where the same file reads, on the same x, a field that is cls's alone:
    # numpy's .size is no read of a report's size
    home = Path(sys.modules[cls.__module__].__file__)
    own = _own_fields(cls)
    readers = [
        path.name
        for path, reads in _READS_BY_RECEIVER.items()
        if path != home and any(field in attrs and attrs & own for attrs in reads.values())
    ]
    assert readers, f"no src module but {home.name}, bench script or acceptance test reads {field} on a {cls.__name__}"


def test_every_dataclass_is_a_gated_result_or_an_input():
    # a new dataclass is classified before it lands: a result gets the field gate above
    submodules = pkgutil.iter_modules(inner_fourier.__path__)
    modules = [inner_fourier, *(importlib.import_module(f"inner_fourier.{m.name}") for m in submodules)]
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("inner_fourier")
    }
    assert sorted(cls.__name__ for cls in found) == sorted(cls.__name__ for cls in _RESULT_TYPES + _INPUT_TYPES)


def test_operator_index_is_read_only_by_errors():
    # every count is read by errors.count; a module that reads its own sizes drifts from the one rule
    readers = sorted(
        path.name
        for path in Path(inner_fourier.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator")
        or (isinstance(node, ast.ImportFrom) and node.module == "operator")
    )
    assert set(readers) == {"errors.py"}


_W = TaylorSeries(TaylorCoefficients([1.0, 0.5, 0.25, 0.125]))
_Z = PolarPoint(0.3, 0.1)
_SQUARE = resolve("square").function
_DELTA = delta_inner(0.3)

# each call takes a count that is not an integer; every one returned a wrong number or leaked a TypeError
_FRACTIONAL_COUNTS = {
    "completeness_probe M": (lambda: completeness_probe(resolve("const").function, _DELTA, 0.5, 100.5), "m", 100.5),
    "DiskProductConfig M": (lambda: inner_product_disk(_W, _W, DiskProductConfig(0.5, 300.5)), "M", 300.5),
    "contour_partial_sum M": (lambda: contour_partial_sum(_DELTA, _Z, 4, 0.8, 256.5), "M", 256.5),
    "coefficients_by_cauchy M": (lambda: coefficients_by_cauchy(_DELTA, 2, 0.8, 256.5), "m", 256.5),
    "fourier_coefficients M": (lambda: fourier_coefficients(_SQUARE, 8, 40.5), "m", 40.5),
    "square coefficients": (lambda: resolve("square").coefficients(2.5), "K", 2.5),
    "triangle coefficients": (lambda: resolve("triangle").coefficients(2.5), "K", 2.5),
    "square taylor": (lambda: resolve("square").taylor(2.5), "K", 2.5),
    "triangle taylor": (lambda: resolve("triangle").taylor(2.5), "K", 2.5),
    "theta_grid": (lambda: theta_grid(4.5), "m", 4.5),
    "family_magnitudes": (lambda: family_magnitudes(0, 1, 2.5), "K", 2.5),
    "fourier_coefficients K": (lambda: fourier_coefficients(_SQUARE, 2.5), "K", 2.5),
    "fourier_gram": (lambda: fourier_gram(2.5), "K", 2.5),
    "taylor_gram": (lambda: taylor_gram(2.5, DiskProductConfig(0.5, 256)), "Kmax", 2.5),
    "contour_partial_sum N": (lambda: contour_partial_sum(_DELTA, _Z, 2.5, 0.8, 256), "N", 2.5),
    "remainder N": (lambda: remainder(_DELTA, _Z, 2.5, 0.8, 256), "N", 2.5),
    "remainder M": (lambda: remainder(_DELTA, _Z, 4, 0.8, "256"), "M", "256"),
    "partial_sum N": (lambda: partial_sum(_W.tc, _Z, 2.5), "N", 2.5),
    "coefficients_by_cauchy k": (lambda: coefficients_by_cauchy(_W, 2.5, 0.8, 256), "K", 2.5),
    "delta taylor": (lambda: delta_inner(0.0).taylor(2.5), "K", 2.5),
    "TaylorSeries taylor": (lambda: _W.taylor(2.5), "K", 2.5),
    "RhoSchedule.geometric": (lambda: RhoSchedule.geometric(1, 14.5), "j_stop", 14.5),
    "regulated_delta_on_grid": (lambda: regulated_delta_on_grid(np.zeros(3), 0.0, 0.5, K=2.5), "K", 2.5),
    "classify_sequence window": (lambda: classify_sequence(np.ones(64), window=(1.5, 63)), "lo", 1.5),
    "family_magnitudes text": (lambda: family_magnitudes(0, 1, "3"), "K", "3"),
    "fourier_coefficients M text": (lambda: fourier_coefficients(_SQUARE, 8, "300"), "m", "300"),
    "sampled on_grid": (lambda: PeriodicFunction("s", samples=np.ones(64)).on_grid(64.0), "m", 64.0),
    "sampled fourier_coefficients M": (
        lambda: fourier_coefficients(PeriodicFunction("s", samples=np.ones(64)), 8, 64.0),
        "m",
        64.0,
    ),
    "cos_2 taylor text": (lambda: resolve("cos_2").taylor("3"), "K", "3"),
    "cos_2 taylor": (lambda: resolve("cos_2").taylor(1.5), "K", 1.5),
    "coefficients_by_cauchy M text": (lambda: coefficients_by_cauchy(_W, 2, 0.5, "64"), "m", "64"),
}


@pytest.mark.parametrize("call, name, value", _FRACTIONAL_COUNTS.values(), ids=_FRACTIONAL_COUNTS.keys())
def test_a_count_that_is_not_an_integer_is_refused(call, name, value):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: theta_grid(1), "m must be >= 2, got 1"),
        (lambda: DiskProductConfig(0.5, 10), "M must be >= 64, got 10"),
        (lambda: fourier_gram(0), "K must be >= 1, got 0"),
    ],
    ids=["theta_grid", "DiskProductConfig", "fourier_gram"],
)
def test_a_count_below_its_least_is_refused(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == text


# each call with its counts given as numpy integers reads exactly as with Python ints
_NUMPY_COUNTS = {
    "fourier_gram": lambda n: fourier_gram(n(8)).matrix,
    "taylor_gram": lambda n: taylor_gram(n(8), DiskProductConfig(0.5, n(64))).matrix,
    "fourier_coefficients": lambda n: to_taylor(fourier_coefficients(_SQUARE, n(8), n(64))).c,
    "catalog coefficients": lambda n: to_taylor(resolve("triangle").coefficients(n(5))).c,
    "residue_identity_check": lambda n: residue_identity_check(n(-3), 0.5),
    "completeness_probe": lambda n: completeness_probe(_SQUARE, _DELTA, 0.5, n(128)),
    "inner_product_disk": lambda n: inner_product_disk(_W, _DELTA, DiskProductConfig(0.5, n(300))),
    "contour_partial_sum": lambda n: contour_partial_sum(_DELTA, _Z, n(4), 0.8, n(256)).contour,
    "remainder": lambda n: remainder(_DELTA, _Z, n(4), 0.8, n(256)),
    "partial_sum": lambda n: partial_sum(_W.tc, _Z, n(3)),
    "coefficients_by_cauchy": lambda n: coefficients_by_cauchy(_DELTA, n(2), 0.8, n(256)),
    "delta_inner": lambda n: delta_inner(0.3, n(2)).taylor(n(6)).c,
    "TaylorSeries taylor": lambda n: _W.taylor(n(6)).c,
    "RhoSchedule.geometric": lambda n: np.array(RhoSchedule.geometric(n(2), n(9)).rhos),
    "regulated_delta_on_grid": lambda n: regulated_delta_on_grid(theta_grid(n(16)), 0.3, 0.5, n(8)),
    "family_magnitudes": lambda n: family_magnitudes(1.0, 0.9, n(64)),
    "classify_sequence": lambda n: classify_sequence(np.arange(1.0, 65.0), window=(n(8), n(63))).fitted_rate,
}


@pytest.mark.parametrize("call", _NUMPY_COUNTS.values(), ids=_NUMPY_COUNTS.keys())
def test_numpy_integer_counts_read_as_python_ints(call):
    assert np.asarray(call(np.int64)).tobytes() == np.asarray(call(int)).tobytes()


def _reconstruct_at(rho):
    """``inner-fourier reconstruct --rho rho`` on the square wave's coefficients, past argparse's float()."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "square.json")
        path.write_text(dumps_coefficients(resolve("square").coefficients(8)))
        args = argparse.Namespace(coeffs=str(path), thetas="-pi:pi:8", rho=rho, schedule=None, tol=None, out=None)
        return cmd_reconstruct(args)


# each scalar radius or tolerance a caller gives: the call, its name, its interval, a value inside and one outside
_RADII = {
    "residue_identity_check": (lambda x: residue_identity_check(1, x), "rho", "0 < rho < inf", 0.5, -0.5),
    "completeness_probe": (lambda x: completeness_probe(_SQUARE, _DELTA, x, 128), "rho", "0 < rho < 1", 0.5, 1.5),
    "poisson r": (lambda x: resolve("poisson", r=x).taylor(8).c, "r", "0 <= r < 1", 0.5, 1.5),
    "convergence_radius_check": (lambda x: convergence_radius_check(_W.tc, x), "rho", "0 <= rho < 1", 0.5, 1.5),
    "reconstruct --rho": (_reconstruct_at, "rho", "0 <= rho < 1", 0.5, 1.5),
    "coefficients_by_cauchy": (lambda x: coefficients_by_cauchy(_DELTA, 2, x, 256), "rho", "0 < rho <= 1", 0.75, 1.5),
    "DiskProductConfig": (lambda x: DiskProductConfig(x, 256), "rho0", "0 < rho0 <= 1", 0.5, 1.5),
    "inner_product_series": (lambda x: inner_product_series(_W.tc, _W.tc, x).value, "rho0", "0 < rho0 <= 1", 0.5, 1.5),
    "contour_partial_sum": (
        lambda x: contour_partial_sum(_DELTA, _Z, 4, x, 256).contour, "rho1", "0 < rho1 <= 1", 0.75, 1.5
    ),
    "remainder": (lambda x: remainder(_DELTA, _Z, 4, x, 256), "rho1", "0 < rho1 <= 1", 0.75, 1.5),
    "boundary_partial_sum": (lambda x: boundary_partial_sum(_DELTA, 0.1, 4, x, 256), "rho1", "0 < rho1 < 1", 0.75, 1.5),
    "circle_samples": (lambda x: circle_samples(_W, x, 64), "rho", "0 < rho < inf", 0.5, -0.5),
    "PolarPoint": (lambda x: PolarPoint(x, 0.1), "rho", "0 <= rho < inf", 0.5, -0.5),
    "RhoSchedule rhos": (lambda x: RhoSchedule((x, 0.9)), "rhos[0]", "0 < rhos[0] < 1", 0.5, 1.5),
    "RhoSchedule tol": (lambda x: RhoSchedule((0.5, 0.9), x), "tol", "0 < tol < inf", 0.5, -0.5),
    "regulated_sum": (lambda x: regulated_sum(_W, np.array([0.1, 0.2]), x), "rho", "0 <= rho < 1", 0.5, 1.5),
}
# each value that is not one real number inside any interval; the sites' own outside values join them
_NOT_A_RADIUS = {"str": "0.5", "complex": 0.5 + 0.5j, "array": np.array([0.5]), "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("kind", [*_NOT_A_RADIUS, "outside"])
@pytest.mark.parametrize("site", _RADII)
def test_a_radius_that_is_not_one_real_number_is_refused(site, kind):
    # a str or a complex leaked a TypeError from the comparisons errors.real replaced, and a one-element array was kept
    call, name, need, _, outside = _RADII[site]
    value = _NOT_A_RADIUS.get(kind, outside)
    with pytest.raises(ValueError) as exc:
        call(value)
    if kind == "array":
        assert str(exc.value) == f"{name} must be a real number, got an array of shape (1,)"
    elif kind in ("str", "complex"):
        assert str(exc.value) == f"{name} must be a real number, got {value!r}"
    else:
        assert str(exc.value) == f"need {need}, got {value}"


def _bits(out):
    """The bytes of a returned number or array, or of each field of a returned dataclass."""
    if dataclasses.is_dataclass(out):
        return [_bits(getattr(out, f.name)) for f in dataclasses.fields(out)]
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("site", _RADII)
def test_numpy_radii_read_as_python_floats(site):
    call, _, _, inside, _ = _RADII[site]
    want = _bits(call(inside))
    for numpy_value in (np.float64(inside), np.float32(inside), np.array(inside)):
        assert _bits(call(numpy_value)) == want


def test_a_real_past_the_double_range_is_refused():
    with pytest.raises(ValueError) as exc:
        real("rho", 10**400, "(0, inf)")
    assert str(exc.value) == "rho is past the double range"
