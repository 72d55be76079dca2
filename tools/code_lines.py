"""Count the lines of Python source that carry code.

A line counts when it holds at least one token that is not a comment, and
is not part of a docstring (the first string statement of a module, class
or function).  Blank lines, comment lines and docstrings do not count.

    python tools/code_lines.py src/orlicz_risk      # per file, then the total
    python tools/code_lines.py path/to/module.py
    python tools/code_lines.py OLD_DIR NEW_DIR      # both sides, per file and total

Given two directories, each `.py` file under either is listed by its path
relative to its directory, with its count on both sides and the difference
(new minus old); a file missing on one side counts 0 there.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of `path` that carry code."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def _counts(root: Path, count) -> dict[str, int]:
    """`count` of each `.py` file under `root`, keyed by relative path."""
    return {path.relative_to(root).as_posix(): count(path) for path in root.rglob("*.py")}


def compare(old: Path, new: Path, count) -> None:
    """Print each file's `count` under `old` and `new`, the difference, then
    the totals."""
    before, after = _counts(old, count), _counts(new, count)
    print(f"{'old':>6}  {'new':>6}  {'diff':>6}  file")
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name, 0), after.get(name, 0)
        print(f"{a:6d}  {b:6d}  {b - a:+6d}  {name}")
    a, b = sum(before.values()), sum(after.values())
    print(f"{a:6d}  {b:6d}  {b - a:+6d}  total")


def main(argv: list[str], count=code_lines) -> int:
    """The command line of this tool, or of another that counts with `count`
    and is named after it."""
    if len(argv) == 2 and all(Path(arg).is_dir() for arg in argv):
        compare(Path(argv[0]), Path(argv[1]), count)
        return 0
    if len(argv) != 1 or not Path(argv[0]).exists():
        print(f"usage: python tools/{count.__name__}.py <directory or .py file> | OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    root = Path(argv[0])
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
