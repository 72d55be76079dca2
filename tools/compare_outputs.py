"""Run two source trees on the same operations and compare what they print
and write, byte for byte.

    python tools/compare_outputs.py PARENT CHANGE [--seed N] [--env NAME=VALUE ...]

PARENT and CHANGE are checkouts of this repository.  The scenarios are
generated once, by PARENT's `perfbench/gen.py` at benchmark seed N (default
5).  The operations are every bundled scenario of PARENT under each of the
five commands (with `--seed N`), then every operation of the generated
`norm`, `dual`, `verify` and `cli` workloads, in cycle order, then
`verify` on the scenario of `blocked_scenario`, whose locality and extension
probes go to the measure in blocks, then `dual` on malformed copies of
PARENT's bundled scenarios: each copy has one fault of `FAULTS` planted (an
unknown, repeated or missing label in an algebra, a bad probability or sum,
a NaN position value, a duplicate key, an unknown filtration algebra, an
unknown name in `young.params`, `risk.params` of {"gamma": "x"}), so the
trees' refusals, exit codes and stderr, are compared too.  Each tree runs
all of them in one interpreter of its own, importing its own
`src/orlicz_risk`, with every operation writing into a directory of its
own.
Then each tree runs every bundled operation a second time, in a second
interpreter, into the directory that operation first wrote: this exercises
the path that replaces existing report files.

Each `--env NAME=VALUE` (repeatable) sets NAME to VALUE in CHANGE's
interpreters only, so that a tree given as both PARENT and CHANGE can be
compared with itself under another BLAS kernel:

    python tools/compare_outputs.py . . --env OPENBLAS_CORETYPE=Prescott

After each pass, exit codes, stdout and stderr are compared with each
tree's output directory replaced by `OUT`; then every written file.  Each
difference is printed, then the operation, rerun and file counts.  Under a
differing CSV table, each (check, quantity) pair whose rows differ is
printed with its number of differing rows, its largest absolute and
relative value changes and the number of its `passed` flags that changed; a
renamed check or quantity reads `old -> new`.  Under a differing report
JSON, each JSON path whose values differ is printed, array indices
collapsed to `[*]`, with its number of differing values and their largest
absolute change.  A change involving a value that is not a finite number
(a string, a missing key, "inf") counts as inf.  The exit code is 1 on any
difference, else 0.  Everything is written to a temporary directory, which is removed
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

import numpy as np

COMMANDS = ("norm", "risk", "dual", "verify", "dynamic")
WORKLOADS = ("norm", "dual", "verify", "cli")


# outcomes of the generated scenario that `verify` runs with a trivial and a
# discrete algebra: on the discrete one, 3 trials of 161 positions of 160
# outcomes exceed the 2**16 position entries that the locality and extension
# probes send to the measure in one call, so they go in blocks
BLOCKED_N = 160


def _edited(edit):
    """A fault that applies `edit` to the parsed scenario."""
    def plant(text: str) -> str:
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return plant


def _atoms(data: dict) -> list:
    return next(iter(data["algebras"].values()))


# name -> a function from a scenario's JSON text to a copy with one fault
FAULTS = {
    "unknown_label": _edited(lambda d: _atoms(d)[0].append("zz")),
    "label_repeated_within_atom": _edited(lambda d: _atoms(d)[-1].append(_atoms(d)[-1][0])),
    "label_repeated_across_atoms": _edited(lambda d: _atoms(d).append([_atoms(d)[0][0]])),
    "uncovered_outcome": _edited(lambda d: max(_atoms(d), key=len).pop()),
    "zero_prob": _edited(lambda d: d["outcomes"][-1].update(prob=0.0)),
    "negative_prob": _edited(lambda d: d["outcomes"][0].update(prob=-0.25)),
    "inf_prob": _edited(lambda d: d["outcomes"][1].update(prob=math.inf)),
    "nan_prob": _edited(lambda d: d["outcomes"][0].update(prob=math.nan)),
    "probs_sum_0.9": _edited(lambda d: [o.update(prob=0.9 * o["prob"]) for o in d["outcomes"]]),
    "nan_position": _edited(
        lambda d: next(iter(d["positions"].values())).update({d["outcomes"][-1]["label"]: math.nan})),
    "duplicate_key": lambda text: text.replace("{", '{"name": "again", ', 1),
    "unknown_filtration_algebra": _edited(
        lambda d: d.update(filtration=[*d.get("filtration", []), "zz"])),
    "unknown_young_param": _edited(lambda d: d["young"].setdefault("params", {}).update(zz=1.0)),
    "risk_param_not_a_number": _edited(lambda d: d["risk"].update(params={"gamma": "x"})),
}


def malformed_scenarios(scenarios: Path, out_dir: Path) -> list[Path]:
    """Write a copy of each scenario in `scenarios` for each fault of
    `FAULTS` into `out_dir`, as `<scenario>.<fault>.json`; their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for source in sorted(scenarios.glob("*.json")):
        for fault, plant in FAULTS.items():
            path = out_dir / f"{source.stem}.{fault}.json"
            path.write_text(plant(source.read_text()))
            paths.append(path)
    return paths


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


def blocked_scenario(gen, seed: int, directory: Path) -> Path:
    """Write the worst-case scenario of `BLOCKED_N` outcomes, with a trivial
    and a discrete algebra, through `gen` at benchmark seed `seed`; its
    path."""
    n = BLOCKED_N
    rng = np.random.default_rng([seed, 5])
    doc = gen.scenario(f"blocked{n}_worst_case", gen._probs(rng, n),
                       {"F0": [list(range(n))], "F1": [[i] for i in range(n)]},
                       {"x": rng.normal(size=n)}, {"family": "power", "params": {"p": 2.0}},
                       {"measure": "worst_case"}, filtration=["F0", "F1"])
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return path


def operations(parent: Path, seed: int, scenario_dir: Path) -> tuple[list, int, int]:
    """(description, CLI arguments without `--out-dir`) of every operation,
    the bundled ones first and the malformed ones last, with the number of
    bundled ones and of malformed ones."""
    gen = load_gen(parent)
    ops = [(f"{cmd} {path.name}", [cmd, str(path), "--seed", str(seed)])
           for path in sorted((parent / "scenarios").glob("*.json")) for cmd in COMMANDS]
    n_bundled = len(ops)
    for workload in WORKLOADS:
        generated = gen.generate(workload, seed, scenario_dir / workload, parent / "scenarios")
        for op in generated.ops:
            args = [op["command"], op["path"], "--seed", str(op["seed"])]
            ops.append((f"{workload}: {op['command']} {Path(op['path']).name}", args))
    path = blocked_scenario(gen, seed, scenario_dir)
    ops.append((f"blocked: verify {path.name}", ["verify", str(path), "--seed", str(seed)]))
    malformed = malformed_scenarios(parent / "scenarios", scenario_dir / "malformed")
    ops += [(f"malformed: dual {path.name}", ["dual", str(path), "--seed", str(seed)])
            for path in malformed]
    return ops, n_bundled, len(malformed)


def start(tree: Path, argvs: list[list[str]], work: Path, name: str,
          extra_env: dict[str, str]) -> subprocess.Popen:
    """Run `argvs` in a fresh interpreter that imports `tree`'s package, with
    `extra_env` added to its environment."""
    (work / f"{name}.ops.json").write_text(json.dumps(argvs))
    env = {**os.environ, **extra_env, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(work / f"{name}.ops.json"),
         str(work / f"{name}.results.json")],
        cwd=work, env=env,
    )


def run_pass(trees: list[Path], works: list[Path], ops: list, name: str,
             envs: list[dict[str, str]]) -> list | None:
    """Each tree's [exit code, stdout, stderr] per (description, index, CLI
    arguments) of `ops`, operation i writing into `out/op<i>` of the tree's
    work directory, each tree's runner with its `envs` entry added to its
    environment; None after printing why a runner failed."""
    procs = []
    for tree, work, env in zip(trees, works, envs):
        argvs = [[*op, "--out-dir", str(work / "out" / f"op{i:03d}")] for _, i, op in ops]
        procs.append(start(tree, argvs, work, name, env))
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


def _value_change(a, b) -> tuple[float, float]:
    """|a - b| and |a - b| / max(|a|, |b|) of two CSV value cells or JSON
    values; both inf when either is not a finite number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf, math.inf
    if x == y:
        return 0.0, 0.0
    if not math.isfinite(x - y):
        return math.inf, math.inf
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


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
            count, worst_abs, worst_rel, flips = changes.get(key, (0, 0.0, 0.0, 0))
            change_abs, change_rel = _value_change(row_a["value"], row_b["value"])
            changes[key] = (count + 1, max(worst_abs, change_abs), max(worst_rel, change_rel),
                            flips + (row_a["passed"] != row_b["passed"]))
    return [f"  {check}, {quantity}: {count} rows, largest absolute value change "
            f"{worst_abs:.3g}, largest relative value change {worst_rel:.3g}, "
            f"{flips} passed flags changed"
            for (check, quantity), (count, worst_abs, worst_rel, flips) in changes.items()]


def _json_differences(a, b, path: str = "$"):
    """(path, value in a, value in b) of every place where two JSON values
    differ, walking dicts key by key and lists of one length item by item;
    array indices in the path are collapsed to `[*]`."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _json_differences(a.get(key), b.get(key), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for item_a, item_b in zip(a, b):
            yield from _json_differences(item_a, item_b, f"{path}[*]")
    elif a != b:
        yield path, a, b


def json_changes(a: Path, b: Path) -> list[str]:
    """One line per JSON path whose values differ between two reports."""
    changes = {}
    try:
        docs = [json.loads(path.read_text()) for path in (a, b)]
    except ValueError as exc:
        return [f"  not valid JSON: {exc}"]
    for path, value_a, value_b in _json_differences(*docs):
        count, worst = changes.get(path, (0, 0.0))
        changes[path] = (count + 1, max(worst, _value_change(value_a, value_b)[0]))
    return [f"  {path}: {count} values, largest absolute change {worst:.3g}"
            for path, (count, worst) in changes.items()]


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
                explain = {".csv": csv_changes, ".json": json_changes}.get(rel.suffix)
                lines = explain(files[0][rel], files[1][rel]) if explain else []
                diffs.append("\n".join([f"{desc}: {rel} differs", *lines]))
    return diffs, n_files


def env_pair(text: str) -> tuple[str, str]:
    """NAME=VALUE as (NAME, VALUE), NAME not empty."""
    name, sep, value = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=5, help="benchmark seed (default 5)")
    parser.add_argument("--env", type=env_pair, action="append", default=[],
                        metavar="NAME=VALUE", help="set NAME in CHANGE's interpreters only "
                        "(repeatable)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    envs = [{}, dict(args.env)]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        ops, n_bundled, n_malformed = operations(trees[0], args.seed, tmp / "scenarios")
        works = [tmp / "parent", tmp / "change"]
        for work in works:
            work.mkdir()
        numbered = [(desc, i, op) for i, (desc, op) in enumerate(ops)]
        passes = (("first", numbered),
                  ("rerun", [(f"rerun {desc}", i, op) for desc, i, op in numbered[:n_bundled]]))
        diffs, n_files = [], 0
        for name, selected in passes:
            runs = run_pass(trees, works, selected, name, envs)
            if runs is None:
                return 2
            pass_diffs, pass_files = compare(selected, [work / "out" for work in works], runs)
            diffs += pass_diffs
            n_files += pass_files
    for line in diffs:
        print(line)
    print(f"{len(ops)} operations ({n_malformed} on malformed scenarios) and {n_bundled} "
          f"reruns, {n_files} files: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
