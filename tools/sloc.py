"""Count the code lines of each module under src/pbmkit, and their total.

A code line holds at least one token that is not a comment, a line break
or indentation, and is not part of a docstring (the leading string
statement of a module, class or function).  Blank lines, comment lines
and docstrings therefore do not count.  Stdlib only:

    python3 tools/sloc.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "pbmkit"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root.parent).as_posix()}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
