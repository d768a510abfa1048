"""Count the lines of each module of the ssg package.

    python3 tools/loc.py [DIR]

Prints, for every .py file in DIR (default: the checkout's src/ssg),
its total lines and its code lines, then the sums. A code line holds
at least one token that is neither a comment nor part of a docstring
(the leading string of a module, class or function body); blank
lines count only in the total. Removing a comment or a docstring
leaves the code count as it was, but splitting a statement over more
lines or joining it onto fewer still moves it, so compare code counts
of code formatted alike.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "ssg")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=default, help="package directory")
    args = parser.parse_args()
    rows = []
    for name in sorted(os.listdir(args.dir)):
        if name.endswith(".py"):
            with open(os.path.join(args.dir, name), encoding="utf-8") as fh:
                rows.append((name, *count(fh.read())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")


if __name__ == "__main__":
    main()
