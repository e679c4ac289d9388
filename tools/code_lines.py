"""Size of a Python source tree: its line count and its code lines.

Run ``python tools/code_lines.py [DIR]`` (DIR defaults to ``src``) from
the repository root. It prints the total line count of every ``*.py``
file under DIR, as ``wc -l`` reads it, and the lines that hold code: not
blank, not only a comment, and not inside a docstring (the string that
opens a module, class or function body). The lines are found with
``tokenize`` and the docstrings with ``ast``.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    text = path.read_text()
    with path.open("rb") as fp:
        code = {
            line
            for tok in tokenize.tokenize(fp.readline)
            if tok.type not in _NOT_CODE and tok.type != tokenize.ENCODING
            for line in range(tok.start[0], tok.end[0] + 1)
        }
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src")
    per_file = [sizes(p) for p in sorted(root.rglob("*.py"))]
    lines, code = (sum(col) for col in zip(*per_file)) if per_file else (0, 0)
    print(f"{root}: {lines:,} lines (wc -l), {code:,} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
