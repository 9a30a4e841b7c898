"""Count the code lines of a Python package.

A code line holds a token other than a comment; docstrings (the leading
string of a module, class or function body) are left out.  Prints one
line per module and the total.

    python3 tests/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/minkval next to this file's parent.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "minkval"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one module."""
    source = path.read_text()
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else DEFAULT
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<20} {n:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
