"""Mutation testing: plant one small fault at a time and see whether the tests
catch it.

    python tools/mutants.py --label NAME MODULE[:N] ... [--timeout 300]
                            [--root DIR] [--out-dir DIR] [-- PYTEST_ARGS ...]

MODULE is the path of a Python file relative to the root (default: this
repository), such as `src/orlicz_risk/verification.py`.  Its sites are
found with `ast`, in source order:

- comparison flips: `<` and `<=`, `>` and `>=`, `==` and `!=`;
- arithmetic swaps, in expressions and augmented assignments: `+` and `-`,
  `*` and `/`;
- changed numeric constants: an int plus 1, a float doubled (a float that
  doubling leaves unchanged, 0.0 or inf, is not a site).

`MODULE:N` runs a sample of N of the module's unfiltered sites, drawn by
`random.Random` seeded with the path alone, so a module's sample depends
on nothing else; a bare MODULE runs all of them.  Sites that a filter rule
takes are listed with the rule and not run.  There is one rule, for
mutants that are near-equivalent by construction:

- `message`: the site is in the arguments of a `raise` statement, so it
  changes the text of a message, not a result.

Default argument values and the trial counts and seeds of random probes
are sites like any other: they change the rows a check prints.

An expression inside an f-string is message text as well; it is not a site,
since before Python 3.12 an f-string is a single token.

Flips of `<` and `<=` at a float boundary that no test can reach are
near-equivalent too, but no rule can tell them from the rest; they run, and
a survivor is judged by reading it.

The root is copied to a temporary directory once (without `.git`, caches
and `perfbench/out`).  In the copy, the unmutated tests run first as a
control, and the tool stops if they do not pass.  Then each mutant is
written into the copy's file, which is restored after its run:
`python -m pytest -x -q -p no:cacheprovider` (plus PYTEST_ARGS) in the copy,
with `src` on `PYTHONPATH`, no bytecode written and the Hypothesis database
removed before each run, so each run depends only on its mutant.  One test
process runs at a time, under `--timeout` seconds, after which its process
group is killed; so is it when the tool is interrupted or sent SIGTERM,
and the copy is removed.  A mutant is `killed` when the tests fail (exit code not
0), `survived` when they pass, `timeout` when they run out of time.

The tool writes `MUTANTS_<label>.json` into `--out-dir` (default: the
root): the arguments, the control run, per module the number of sites,
filtered sites and runs, and per mutant its path, line (1-based) and column
(0-based, in characters), its operator (`<= -> <`), its source line, and
its outcome with the rule, seconds, exit code and first failing test.  It
prints one line per mutant and a summary per module.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}
_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# a mutant's outcome by its test run's
_OUTCOME = {"passed": "survived", "failed": "killed"}


def _char_col(lines: list[str], lineno: int, byte_col: int) -> int:
    """The character column of an `ast` byte offset on line `lineno`."""
    return len(lines[lineno - 1].encode("utf-8")[:byte_col].decode("utf-8"))


def _filter_rules(tree: ast.AST) -> dict[int, str]:
    """The filter rule of every node it takes, by `id` of the node."""
    rules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            roots, rule = [n for n in (node.exc, node.cause) if n], "message"
        elif isinstance(node, ast.JoinedStr):
            roots, rule = node.values, "f-string"
        else:
            continue
        for root in roots:
            for inner in ast.walk(root):
                if rules.get(id(inner)) != "f-string":
                    rules[id(inner)] = rule
    return rules


def find_sites(source: str) -> list[dict]:
    """Every site of `source` in source order: line, col, old and new text
    of its token, and the filter rule that takes it (None if none does)."""
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    rules = _filter_rules(tree)
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NUMBER)]

    def token_between(text, start, end):
        return next(t for t in tokens if t.string == text and start <= t.start < end)

    def start(node):
        return node.lineno, _char_col(lines, node.lineno, node.col_offset)

    def end(node):
        return node.end_lineno, _char_col(lines, node.end_lineno, node.end_col_offset)

    found = []
    for node in ast.walk(tree):
        if rules.get(id(node)) == "f-string":
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(_COMPARE.get(type(op)), a, b) for op, a, b in
                     zip(node.ops, operands, operands[1:])]
        elif isinstance(node, ast.BinOp):
            pairs = [(_ARITH.get(type(node.op)), node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            op = _ARITH.get(type(node.op))
            pairs = [(op and op + "=", node.target, node.value)]
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and (new := node.value + 1 if type(node.value) is int else 2.0 * node.value)
                != node.value):
            token = next(t for t in tokens if t.type == tokenize.NUMBER and t.start == start(node))
            found.append((token, repr(new), rules.get(id(node))))
            continue
        else:
            continue
        for text, a, b in pairs:
            if text:
                found.append((token_between(text, end(a), start(b)), SWAPS[text],
                               rules.get(id(node))))
    return [{"line": t.start[0], "col": t.start[1], "old": t.string, "new": new, "filter": rule}
            for t, new, rule in sorted(found, key=lambda f: f[0].start)]


def mutate(source: str, site: dict) -> str:
    """`source` with the token of `site` replaced by its new text."""
    lines = source.splitlines(keepends=True)
    line, col = lines[site["line"] - 1], site["col"]
    assert line[col:col + len(site["old"])] == site["old"], site
    lines[site["line"] - 1] = line[:col] + site["new"] + line[col + len(site["old"]):]
    return "".join(lines)


def _ignore(directory: str, names: list[str]) -> list[str]:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if Path(directory).name == "perfbench":
        skip.add("out")
    return [name for name in names if name in skip]


def run_tests(copy: Path, pytest_args: list[str], timeout: float) -> dict:
    """One run of the tests in `copy`: outcome (`passed`, `failed` or
    `timeout`), seconds, exit code and the first failing test."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"outcome": "timeout", "seconds": round(perf_counter() - t0, 2), "exit": None,
                "failed_test": None}
    failed = next((line.split(" ", 1)[1].split(" - ")[0] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), None)
    return {"outcome": "passed" if proc.returncode == 0 else "failed",
            "seconds": round(perf_counter() - t0, 2), "exit": proc.returncode,
            "failed_test": failed}


def _module_arg(text: str) -> tuple[str, int | None]:
    path, _, count = text.partition(":")
    if count and not (count.isdigit() and int(count) > 0):
        raise argparse.ArgumentTypeError(f"expected MODULE or MODULE:N with N >= 1, got {text!r}")
    return path, int(count) if count else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = argv[argv.index("--") + 1:] if "--" in argv else []
    argv = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(prog="python tools/mutants.py",
                                     description="Run the tests on one mutant at a time.")
    parser.add_argument("modules", nargs="+", type=_module_arg, metavar="MODULE[:N]")
    parser.add_argument("--label", required=True, help="the file written is MUTANTS_<label>.json")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    plan, modules = [], {}
    for path, count in args.modules:
        if not (root / path).is_file():
            parser.error(f"no file {path} under {root}")
        source = (root / path).read_text(encoding="utf-8")
        sites = find_sites(source)
        open_sites = [s for s in sites if s["filter"] is None]
        chosen = open_sites if count is None else random.Random(path).sample(
            open_sites, min(count, len(open_sites)))
        modules[path] = {"sites": len(sites), "filtered": len(sites) - len(open_sites),
                         "run": len(chosen)}
        chosen_ids = set(map(id, chosen))
        for site in sites:
            if site["filter"] is not None or id(site) in chosen_ids:
                text = source.splitlines()[site["line"] - 1].strip()
                plan.append((path, source, {"path": path, **site, "text": text}))
    result = {"label": args.label, "timeout_s": args.timeout,
              "pytest_args": pytest_args, "modules": modules, "mutants": []}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=_ignore)
        result["control"] = run_tests(copy, pytest_args, args.timeout)
        if result["control"]["outcome"] != "passed":
            print(f"the unmutated tests do not pass: {result['control']}", file=sys.stderr)
            return 2
        for path, source, site in plan:
            if site["filter"] is None:
                (copy / path).write_text(mutate(source, site), encoding="utf-8")
                try:
                    site.update(run_tests(copy, pytest_args, args.timeout))
                finally:
                    (copy / path).write_text(source, encoding="utf-8")
                site["outcome"] = _OUTCOME.get(site["outcome"], site["outcome"])
            else:
                site.update(outcome="filtered", seconds=None, exit=None, failed_test=None)
            result["mutants"].append(site)
            print(f"{path}:{site['line']}:{site['col']} {site['old']} -> {site['new']}"
                  f"  {site['filter'] or site['outcome']}  {site['failed_test'] or ''}", flush=True)
    out = (args.out_dir or root) / f"MUTANTS_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for path in modules:
        outcomes = [m["outcome"] for m in result["mutants"] if m["path"] == path]
        print(f"{path}: " + ", ".join(f"{outcomes.count(o)} {o}" for o in
                                      ("killed", "timeout", "survived", "filtered")))
    return 0


if __name__ == "__main__":
    # a SIGTERM unwinds like an exception: the test process and the copy go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
