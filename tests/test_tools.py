import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# a module docstring, a comment, a blank line, a function docstring and two code lines
_FIXTURE = '''"""Module docstring,
on two lines."""
# a comment

def f():
    """Function docstring."""
    return 1
'''


def test_only_code_lines_count(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(_FIXTURE)
    assert code_lines.sizes(path) == (7, 2)


def test_prints_each_file_then_the_total_last(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == (
        f"{tmp_path / 'a.py'}: 7 lines, 2 code lines\n"
        f"{tmp_path / 'b.py'}: 1 lines, 1 code lines\n"
        f"{tmp_path}: 8 lines (wc -l), 3 code lines\n"
    )
