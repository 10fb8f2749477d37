#!/usr/bin/env python3
"""Code-line count of Python sources: lines that are not blank, not
comment-only and not part of a docstring.

``python scripts/count_code_lines.py DIR_OR_FILE...`` prints one line per
file (with ``-v``) and the total.  ``scripts/check.sh`` runs it over
``src/repro/core`` + ``src/repro/runtime`` so ROADMAP's "net negative
line count" metric has a number in every CI log.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
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


def code_lines(source: str) -> int:
    """Number of lines of ``source`` carrying at least one code token
    outside a docstring."""
    doc = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    total = 0
    for arg in (a for a in argv if a != "-v"):
        root = Path(arg)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            if verbose:
                print(f"{n:6d}  {path}")
    print(f"{total:6d}  total code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
