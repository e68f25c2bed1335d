"""Count the code lines of Python sources: the lines that hold a token,
less comments and the module, class and function docstrings.

A line counts when a token other than a comment, a line break or an
indentation change starts on it or spans it (the lines of a multi-line
string inside an expression count).  Docstrings are found by ``ast`` as the
first statement of a module, class or function when that statement is a
string constant, so an implicitly concatenated string inside a call still
counts: a heuristic on tokens alone cannot tell the two apart.

    python tests/codelines.py src/quatinv

prints a Markdown table of the files under the directory (or the files
named) with their counts, and the total in its last row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(args) -> list:
    files = []
    for arg in map(Path, args):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    return files


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows = [(str(f), code_lines(f.read_text(encoding="utf-8")))
            for f in _files(argv)]
    print("| file | code lines |\n| --- | ---: |")
    for name, count in rows:
        print(f"| `{name}` | {count} |")
    print(f"| total | {sum(count for _, count in rows)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
