"""Count the code lines of the package's modules.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (module, class and function) are not
counted.  Prints one line per module, largest first, and the total.

Run from the repository root::

    python tools/code_lines.py [package-dir]

The package directory defaults to ``src/kitefusion``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code: a comment, line ends, and the indentation
# and encoding bookkeeping.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set[tuple[int, int]]:
    """The start, ``(line, column)``, of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[1] if len(argv) > 1 else "src/kitefusion")
    counts = {path.stem: code_lines(path.read_text()) for path in package.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12}{count:>6,}")
    print(f"{'total':<12}{sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv)
