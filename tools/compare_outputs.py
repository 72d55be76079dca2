"""Run two source trees on the same operations and compare what they print
and write, byte for byte.

    python tools/compare_outputs.py PARENT CHANGE [--seed N]

PARENT and CHANGE are checkouts of this repository.  The scenarios are
generated once, by PARENT's `perfbench/gen.py` at benchmark seed N (default
5).  The operations are every bundled scenario of PARENT under each of the
five commands (with `--seed N`), then every operation of the generated
`norm`, `dual`, `verify` and `cli` workloads, in cycle order.  Each tree
runs all of them in one interpreter of its own, importing its own
`src/orlicz_risk`, with every operation writing into a directory of its own.
Then each tree runs every bundled operation a second time, in a second
interpreter, into the directory that operation first wrote: this exercises
the path that replaces existing report files.

After each pass, exit codes, stdout and stderr are compared with each
tree's output directory replaced by `OUT`; then every written file.  Each
difference is printed, then the operation, rerun and file counts.  Under a
differing CSV table, each (check, quantity) pair whose rows differ is
printed with its number of differing rows, its largest relative value
change and the number of its `passed` flags that changed; a renamed check
or quantity reads `old -> new`.  The exit code is 1 on any difference,
else 0.  Everything is written to a temporary directory, which is removed
afterwards; neither tree is written to.
Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("norm", "risk", "dual", "verify", "dynamic")
WORKLOADS = ("norm", "dual", "verify", "cli")

# runs in each tree's interpreter: argv[1] holds the operations' CLI
# arguments, argv[2] receives [exit code, stdout, stderr] per operation
RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
import orlicz_risk
from orlicz_risk.cli import main
results = []
for argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
Path(sys.argv[2]).write_text(json.dumps({"package": orlicz_risk.__file__, "results": results}))
"""


def load_gen(tree: Path):
    """`perfbench/gen.py` of `tree` as a module, leaving no bytecode there."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("compared_gen", tree / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def operations(parent: Path, seed: int, scenario_dir: Path) -> tuple[list, int]:
    """(description, CLI arguments without `--out-dir`) of every operation,
    the bundled ones first, and the number of bundled ones."""
    gen = load_gen(parent)
    ops = [(f"{cmd} {path.name}", [cmd, str(path), "--seed", str(seed)])
           for path in sorted((parent / "scenarios").glob("*.json")) for cmd in COMMANDS]
    n_bundled = len(ops)
    for workload in WORKLOADS:
        generated = gen.generate(workload, seed, scenario_dir / workload, parent / "scenarios")
        for op in generated.ops:
            args = [op["command"], op["path"], "--seed", str(op["seed"])]
            ops.append((f"{workload}: {op['command']} {Path(op['path']).name}", args))
    return ops, n_bundled


def start(tree: Path, argvs: list[list[str]], work: Path, name: str) -> subprocess.Popen:
    """Run `argvs` in a fresh interpreter that imports `tree`'s package."""
    (work / f"{name}.ops.json").write_text(json.dumps(argvs))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(work / f"{name}.ops.json"),
         str(work / f"{name}.results.json")],
        cwd=work, env=env,
    )


def run_pass(trees: list[Path], works: list[Path], ops: list, name: str) -> list | None:
    """Each tree's [exit code, stdout, stderr] per (description, index, CLI
    arguments) of `ops`, operation i writing into `out/op<i>` of the tree's
    work directory; None after printing why a runner failed."""
    procs = []
    for tree, work in zip(trees, works):
        argvs = [[*op, "--out-dir", str(work / "out" / f"op{i:03d}")] for _, i, op in ops]
        procs.append(start(tree, argvs, work, name))
    codes = [proc.wait() for proc in procs]
    if any(codes):
        print(f"error: a runner exited {codes}", file=sys.stderr)
        return None
    runs = []
    for tree, work in zip(trees, works):
        run = json.loads((work / f"{name}.results.json").read_text())
        if not Path(run["package"]).is_relative_to(tree):
            print(f"error: imported {run['package']}, not the package of {tree}", file=sys.stderr)
            return None
        runs.append(run["results"])
    return runs


def _relative_change(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two value cells; inf when either is not
    a finite number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def csv_changes(a: Path, b: Path) -> list[str]:
    """One line per (check, quantity) pair whose rows differ between two
    tables, matched row by row."""
    tables = [list(csv.DictReader(io.StringIO(path.read_text()))) for path in (a, b)]
    if len(tables[0]) != len(tables[1]):
        return [f"  {len(tables[0])} rows != {len(tables[1])} rows"]
    changes = {}
    for row_a, row_b in zip(*tables):
        if row_a != row_b:
            key = tuple(row_a[c] if row_a[c] == row_b[c] else f"{row_a[c]} -> {row_b[c]}"
                        for c in ("check", "quantity"))
            count, worst, flips = changes.get(key, (0, 0.0, 0))
            changes[key] = (count + 1, max(worst, _relative_change(row_a["value"], row_b["value"])),
                            flips + (row_a["passed"] != row_b["passed"]))
    return [f"  {check}, {quantity}: {count} rows, largest relative value change {worst:.3g}, "
            f"{flips} passed flags changed"
            for (check, quantity), (count, worst, flips) in changes.items()]


def compare(ops: list, outs: list[Path], runs: list) -> tuple[list, int]:
    """The differences between the two trees' runs of `ops`, as in
    `run_pass`, and the file count."""
    diffs, n_files = [], 0
    for j, (desc, i, _) in enumerate(ops):
        dirs = [out / f"op{i:03d}" for out in outs]
        streams = []
        for run, d in zip(runs, dirs):
            code, out, err = run[j]
            streams.append((code, out.replace(str(d), "OUT"), err.replace(str(d), "OUT")))
        for name, a, b in zip(("exit code", "stdout", "stderr"), *streams):
            if a != b:
                diffs.append(f"{desc}: {name}: {a!r} != {b!r}")
        files = [{p.relative_to(d): p for p in d.rglob("*") if p.is_file()} for d in dirs]
        for rel in sorted(files[0].keys() | files[1].keys()):
            n_files += 1
            if rel not in files[0] or rel not in files[1]:
                diffs.append(f"{desc}: {rel} written by one tree only")
            elif files[0][rel].read_bytes() != files[1][rel].read_bytes():
                lines = csv_changes(files[0][rel], files[1][rel]) if rel.suffix == ".csv" else []
                diffs.append("\n".join([f"{desc}: {rel} differs", *lines]))
    return diffs, n_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=5, help="benchmark seed (default 5)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        ops, n_bundled = operations(trees[0], args.seed, tmp / "scenarios")
        works = [tmp / "parent", tmp / "change"]
        for work in works:
            work.mkdir()
        numbered = [(desc, i, op) for i, (desc, op) in enumerate(ops)]
        passes = (("first", numbered),
                  ("rerun", [(f"rerun {desc}", i, op) for desc, i, op in numbered[:n_bundled]]))
        diffs, n_files = [], 0
        for name, selected in passes:
            runs = run_pass(trees, works, selected, name)
            if runs is None:
                return 2
            pass_diffs, pass_files = compare(selected, [work / "out" for work in works], runs)
            diffs += pass_diffs
            n_files += pass_files
    for line in diffs:
        print(line)
    print(f"{len(ops)} operations and {n_bundled} reruns, {n_files} files: "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
