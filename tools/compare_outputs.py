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

Exit codes, stdout and stderr are compared with each tree's output
directory replaced by `OUT`; then every written file.  Each difference is
printed, then the operation and file counts.  The exit code is 1 on any
difference, else 0.  Everything is written to a temporary directory, which
is removed afterwards; neither tree is written to.  Standard library plus
numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
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


def operations(parent: Path, seed: int, scenario_dir: Path) -> list[tuple[str, list[str]]]:
    """(description, CLI arguments without `--out-dir`) of every operation."""
    gen = load_gen(parent)
    ops = [(f"{cmd} {path.name}", [cmd, str(path), "--seed", str(seed)])
           for path in sorted((parent / "scenarios").glob("*.json")) for cmd in COMMANDS]
    for workload in WORKLOADS:
        generated = gen.generate(workload, seed, scenario_dir / workload, parent / "scenarios")
        for op in generated.ops:
            args = [op["command"], op["path"], "--seed", str(op["seed"])]
            ops.append((f"{workload}: {op['command']} {Path(op['path']).name}", args))
    return ops


def start(tree: Path, argvs: list[list[str]], work: Path) -> subprocess.Popen:
    """Run `argvs` in a fresh interpreter that imports `tree`'s package."""
    (work / "ops.json").write_text(json.dumps(argvs))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(work / "ops.json"), str(work / "results.json")],
        cwd=work, env=env,
    )


def compare(descriptions: list[str], outs: list[Path], works: list[Path]) -> tuple[list, int]:
    """The differences between the two trees' runs, and the file count."""
    runs = [json.loads((work / "results.json").read_text())["results"] for work in works]
    diffs, n_files = [], 0
    for i, desc in enumerate(descriptions):
        dirs = [out / f"op{i:03d}" for out in outs]
        streams = []
        for run, d in zip(runs, dirs):
            code, out, err = run[i]
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
                diffs.append(f"{desc}: {rel} differs")
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
        ops = operations(trees[0], args.seed, tmp / "scenarios")
        works = [tmp / "parent", tmp / "change"]
        outs = [work / "out" for work in works]
        procs = []
        for tree, work, out in zip(trees, works, outs):
            work.mkdir()
            argvs = [[*op, "--out-dir", str(out / f"op{i:03d}")] for i, (_, op) in enumerate(ops)]
            procs.append(start(tree, argvs, work))
        codes = [proc.wait() for proc in procs]
        if any(codes):
            print(f"error: a runner exited {codes}", file=sys.stderr)
            return 2
        for tree, work in zip(trees, works):
            package = json.loads((work / "results.json").read_text())["package"]
            if not Path(package).is_relative_to(tree):
                print(f"error: imported {package}, not the package of {tree}", file=sys.stderr)
                return 2
        diffs, n_files = compare([desc for desc, _ in ops], outs, works)
    for line in diffs:
        print(line)
    print(f"{len(ops)} operations, {n_files} files: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
