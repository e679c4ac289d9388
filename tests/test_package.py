import ast
import importlib
from pathlib import Path

import pytest

import inner_fourier


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


@pytest.mark.parametrize(
    "name",
    [
        # angular_primitive waits for its caller, the log atom's exact angular primitive; then this mark goes
        pytest.param(name, marks=pytest.mark.xfail(reason="no reader yet", strict=True))
        if name == "angular_primitive"
        else name
        for name in inner_fourier.__all__
    ],
)
def test_every_export_has_a_reader(name):
    assert name in _READ, f"{name} is exported but no src module, bench script or acceptance test reads it"
