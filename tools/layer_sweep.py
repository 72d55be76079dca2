"""Time the norm layer of two source trees side by side, on a size sweep.

    python tools/layer_sweep.py PARENT CHANGE --label NAME [--rounds 5] [--repeat 7]
                                [--only TEXT] [--out-dir DIR]

PARENT and CHANGE are trees of this repository (a checkout, or a copy made
with `git archive`).  A row is one primitive, `luxemburg_norm`,
`amemiya_norm` or `pairing_operator_norm`, under one Young function,
`power(2)`, `exp(1)` or `piecewise([0.5, 1.5], [0, 1, 2.5])`, at one size
n / k: a uniform space of n outcomes cut into k atoms of n/k consecutive
outcomes, and a seed-0 N(0,1) position.  Sizes run 8 / 2, 64 / 4,
256 / 8, 1024 / 16 and 4096 / 64.  `--only` keeps the rows whose name
(`luxemburg_norm power(2) 8/2`) holds TEXT.

Each round runs every row in one fresh interpreter per tree, importing that
tree's `src/orlicz_risk`; the tree that runs first alternates from round to
round.  In it, a row records its best time per call over `--repeat`
repeats of enough calls to last about 50 ms, `perfbench/hostref.py`'s
`reference()` timed just before (best of 3), and its solver work: the
`iterations` of every `solvers.bisect_monotone` report of one call, read
by wrapping the function.  Each tree also records its `git rev-parse HEAD`
where it is a checkout (null for a copy), whether that checkout has
uncommitted changes, and the Python and numpy versions and the BLAS numpy
was built with.

The sweep writes `BENCH_<label>.json` into DIR (default: this repository's
root) and prints, per row, each tree's median over the rounds, the change's
median relative to the parent's, and the distance between the quartiles of
the parent's rounds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("luxemburg_norm", "amemiya_norm", "pairing_operator_norm")
YOUNG = ("power(2)", "exp(1)", "piecewise([0.5, 1.5], [0, 1, 2.5])")
SIZES = ((8, 2), (64, 4), (256, 8), (1024, 16), (4096, 64))
# seconds one repeat of a row lasts, about
REPEAT_S = 0.05


def row_names(only: str = "") -> list[str]:
    names = [f"{layer} {young} {n}/{k}" for layer in LAYERS for young in YOUNG for n, k in SIZES]
    return [name for name in names if only in name]


def _parse(name: str) -> tuple[str, str, int, int]:
    """The layer, Young function, n and k of a row name."""
    layer, rest = name.split(" ", 1)
    young, size = rest.rsplit(" ", 1)
    n, k = map(int, size.split("/"))
    return layer, young, n, k


def _young(name: str):
    from orlicz_risk import make_exp, make_piecewise, make_power
    return {"power(2)": lambda: make_power(2), "exp(1)": lambda: make_exp(1.0),
            "piecewise([0.5, 1.5], [0, 1, 2.5])":
                lambda: make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])}[name]()


def _best(call, number: int, repeat: int) -> float:
    """Best time per call of `call` over `repeat` runs of `number` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            call()
        best = min(best, (perf_counter() - t0) / number)
    return best


def child(names: list[str], repeat: int) -> dict:
    """Time each row in this interpreter, on the tree PYTHONPATH names."""
    import numpy as np
    import orlicz_risk
    from orlicz_risk import FiniteProbSpace, SubAlgebra, solvers

    spec = importlib.util.spec_from_file_location("hostref", ROOT / "perfbench" / "hostref.py")
    hostref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hostref)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rows = {}
    for name in names:
        layer, young, n, k = _parse(name)
        space = FiniteProbSpace.uniform(n)
        alg = SubAlgebra.from_atoms([tuple(range(i * n // k, (i + 1) * n // k))
                                     for i in range(k)], n)
        x = space.var(np.random.default_rng(0).normal(size=n))
        phi = _young(young)
        norm = getattr(orlicz_risk, layer)

        def call():
            return norm(x, alg, phi)

        reports, bisect = [], solvers.bisect_monotone
        solvers.bisect_monotone = lambda *a, **kw: reports.append(bisect(*a, **kw)) or reports[-1]
        try:
            call()
        finally:
            solvers.bisect_monotone = bisect
        number = max(1, round(REPEAT_S / _best(call, 1, 3)))
        ref = _best(hostref.reference, 1, 3)
        rows[name] = {"best_s": _best(call, number, repeat),
                      "ref_s": ref, "iterations": [rep.iterations for rep in reports]}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "package": orlicz_risk.__file__, "rows": rows}


def _git(tree: Path) -> dict:
    """HEAD of `tree` and whether it has uncommitted changes, where `tree`
    is the top of a checkout; else nulls."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(tree):
        return {"sha": None, "dirty": None}
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_child(tree: Path, names: list[str], repeat: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, __file__, "--child", json.dumps(names),
                          "--repeat", str(repeat)],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    if not Path(result.pop("package")).resolve().is_relative_to(tree / "src"):
        raise RuntimeError(f"the child for {tree} did not import that tree's package")
    return result


def _quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def sweep(trees: dict[str, Path], names: list[str], rounds: int, repeat: int) -> dict:
    runs = {side: [] for side in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for side in order:
            runs[side].append(run_child(trees[side], names, repeat))
    meta = {side: {**_git(trees[side]), **{key: runs[side][0][key]
                                           for key in ("python", "numpy", "blas")}}
            for side in trees}
    rows = []
    for name in names:
        layer, young, n, k = _parse(name)
        best = {side: [run["rows"][name]["best_s"] for run in runs[side]] for side in trees}
        rows.append({
            "row": name, "layer": layer, "young": young, "n": n, "k": k,
            "iterations": {side: runs[side][0]["rows"][name]["iterations"] for side in trees},
            "best_s": best,
            "ref_s": {side: [run["rows"][name]["ref_s"] for run in runs[side]] for side in trees},
            "median_s": {side: statistics.median(best[side]) for side in trees},
            "quartile_distance_s": {side: _quartile_distance(best[side]) for side in trees},
        })
    return {"trees": meta, "rounds": rounds, "repeat": repeat, "repeat_s": REPEAT_S,
            "host": {"machine": platform.machine(), "cpus": os.cpu_count()}, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/layer_sweep.py",
                                     description="Time the norm layer of two trees.")
    parser.add_argument("trees", nargs="*", metavar="TREE", help="PARENT and CHANGE")
    parser.add_argument("--label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--only", default="", help="keep the rows whose name holds this text")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    # the rows one interpreter of a sweep times, as a JSON list of names
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(json.loads(args.child), args.repeat)))
        return 0
    names = row_names(args.only)
    if len(args.trees) != 2 or not args.label or not names or min(args.rounds, args.repeat) < 1:
        parser.error("need PARENT, CHANGE, --label, rounds and repeats >= 1, and a row to run")
    trees = dict(zip(("parent", "change"), (Path(t).resolve() for t in args.trees)))
    result = {"label": args.label, **sweep(trees, names, args.rounds, args.repeat)}
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    width = max(len(name) for name in names)
    print(f"{'row':{width}} {'parent ms':>10} {'change ms':>10} {'change':>8} {'parent IQR':>10}"
          "  evals")
    for row in result["rows"]:
        p, c = row["median_s"]["parent"], row["median_s"]["change"]
        evals = row["iterations"]["parent"]
        same = "" if evals == row["iterations"]["change"] else f" -> {row['iterations']['change']}"
        print(f"{row['row']:{width}} {p * 1e3:10.4f} {c * 1e3:10.4f} {c / p - 1:+8.1%} "
              f"{row['quartile_distance_s']['parent'] * 1e3:10.4f}  {evals}{same}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
