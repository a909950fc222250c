"""Code lines per module: the size measure CHANGES.md quotes.

A code line is a line that holds a token other than a comment, a newline
or an indent, and that is not part of a docstring.  Tokens come from
``tokenize``; a token that spans lines (a triple-quoted string) counts on
every line it spans.  Docstrings are the module, class and function ones
that ``ast`` finds, each from its first line to its last.

Run from the repository root with ``python tests/code_lines.py`` for the
package under src/, or name the files or directories to count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/sdtp")]
    files = sorted(p for r in roots for p in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for p in files:
        n = code_lines(p)
        total += n
        print(f"{n:6d}  {p}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
