import ast
from pathlib import Path

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
