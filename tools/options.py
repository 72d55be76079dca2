"""Count the options of a Python package: the knobs a caller can set.

An option is one of:

- a parameter with a default, of a public function or method;
- a field with a default, of a public dataclass or NamedTuple;
- a `--` option of a command-line parser (an `add_argument` call).

A name is public unless it starts with one underscore (`__init__` is
public).  The functions counted are those at module level and the methods
of public classes at module level; a nested function is no caller's knob.

    python tools/options.py src/orlicz_risk       # per file, then the total
    python tools/options.py path/to/module.py
    python tools/options.py OLD_DIR NEW_DIR       # both sides, per file and total

Given two directories, the table is the one `tools/code_lines.py` prints:
each `.py` file under either, its count on both sides and the difference
(new minus old), then the totals.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import main as count_main  # noqa: E402

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _name(node: ast.AST) -> str:
    """The last name of a decorator or base: `dataclass` for
    `@dataclasses.dataclass(frozen=True)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _record_fields(cls: ast.ClassDef) -> int:
    """Fields with a default, if `cls` is a dataclass or a NamedTuple."""
    if not ("dataclass" in map(_name, cls.decorator_list)
            or "NamedTuple" in map(_name, cls.bases)):
        return 0
    return sum(isinstance(item, ast.AnnAssign) and item.value is not None for item in cls.body)


def _cli_option(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and _name(node.func) == "add_argument"
            and any(isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
                    for arg in node.args))


def options(path: Path) -> int:
    """The number of options `path` defines."""
    tree = ast.parse(path.read_bytes())
    total = sum(map(_cli_option, ast.walk(tree)))
    for node in tree.body:
        if isinstance(node, _FUNCTIONS) and _public(node.name):
            total += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            total += _record_fields(node) + sum(
                _defaults(item) for item in node.body
                if isinstance(item, _FUNCTIONS) and _public(item.name))
    return total


def main(argv: list[str]) -> int:
    return count_main(argv, options)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
