"""Lines of the `rissim` package, per module and in total: the yardstick of
ROADMAP aim 2.

A code line holds a token that is not a comment, a line break or part of a
docstring (the string that opens a module, class or function body). Blank
lines therefore do not count either. Stdlib only:

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/rissim next to this tools/ directory.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python source file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "rissim"
    total = code = 0
    for path in sorted(package.glob("*.py")):
        lines, code_lines = count(path)
        total, code = total + lines, code + code_lines
        print(f"{path.stem:<12} {lines:>5} {code_lines:>5}")
    print(f"{'total':<12} {total:>5} {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
