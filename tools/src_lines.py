"""Count the lines of a source tree by kind: code, docstring, comment, blank.

Usage::

    python3 tools/src_lines.py SRC_DIR

Every ``.py`` file under ``SRC_DIR`` gets one row, named by its path below
``SRC_DIR``, and a last row sums them.  Each line counts once, as the first
of these kinds that fits it:

- docstring: a line of a module, class or function docstring, found with
  :mod:`ast` (every line from its opening quotes to its closing ones, blank
  ones included);
- comment: a line that holds only a comment;
- blank: an empty line, or one of white space only;
- code: any other line.

Deleting a docstring or a comment moves only its own column, so the code
column is the one that measures how much program a change adds or removes.
The exit code is 2 when ``SRC_DIR`` holds no ``.py`` file, else 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

KINDS = ("code", "docstring", "comment", "blank")

#: the nodes whose first statement may be a docstring
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Numbers (from 1) of the lines of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """The number of lines of each kind of :data:`KINDS` in ``source``."""
    counts = dict.fromkeys(KINDS, 0)
    docstrings = docstring_lines(source)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def python_files(src: str) -> list:
    """Paths below ``src`` of its ``.py`` files, sorted."""
    found = []
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found += [
            os.path.relpath(os.path.join(root, name), src)
            for name in sorted(files)
            if name.endswith(".py")
        ]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", metavar="SRC_DIR", help="directory to count")
    args = parser.parse_args(argv)
    paths = python_files(args.src)
    if not paths:
        print(f"no .py file under {args.src}", file=sys.stderr)
        return 2
    rows = []
    for path in paths:
        with open(os.path.join(args.src, path), encoding="utf-8") as handle:
            rows.append((path, count_lines(handle.read())))
    rows.append(("total", {kind: sum(row[kind] for _, row in rows) for kind in KINDS}))
    width = max(len(path) for path, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in (*KINDS, "total")))
    for path, row in rows:
        cells = [row[kind] for kind in KINDS] + [sum(row.values())]
        print(f"{path:<{width}}" + "".join(f"{cell:>11,}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
