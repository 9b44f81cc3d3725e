"""The repository's scripts under ``tools/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# A comment line.
x = (1,
     2)  # a statement over two lines, with a trailing comment


def f():
    """A function docstring."""
    return """a string
that is not a docstring"""
'''


def test_counting_rules():
    # x = (1, / 2): two lines; def f(): one; the returned string: two.
    assert code_lines.code_lines(SOURCE) == 5
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('def g(): """A docstring on the line of its def."""\n') == 1


def test_package_total(capsys):
    code_lines.main(["code_lines.py", str(ROOT / "src" / "kitefusion")])
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(count.replace(",", "")) for name, count in map(str.split, lines)}
    total = counts.pop("total")
    assert {"evalio", "cli", "__init__"} <= counts.keys()
    assert total == sum(counts.values()) > 0
