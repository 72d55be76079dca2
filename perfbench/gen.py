"""Seeded scenario generators, one per workload.

Every generator writes scenario files into a directory and returns a
`Workload`: the cycle of operations the closed loop runs, in order, and how
to run it.  An operation is a dict with the CLI command, the scenario path,
the `--seed` flag passed to the program and, for the one operation that is
expected to fail, the message of the fault.  The same benchmark seed gives
the same files byte for byte.

Within a workload the inputs are sized so that every operation costs about
the same (within roughly 2x); inputs of very different cost live in
different workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("power", "exp", "piecewise", "linf")
MEASURES = ("entropic", "worst_case", "linear")

# `dual` includes one operation that fails on every run: an atom of more
# than 64 outcomes hits the coordinate cap of `solvers.simplex_max`.
SIMPLEX_CAP_FAULT = "simplex_max handles at most 64 coordinates"

# Outcomes per `norm` scenario.  Luxemburg for `linf` is a closed form, so
# that family gets twice the outcomes to cost about the same as the others.
NORM_N = {"power": 1280, "exp": 1280, "piecewise": 1024, "linf": 2560}

# `verify` sizes per measure and family: (outcomes, atoms of the finer
# algebra, positions), measured to cost 0.2-0.5 s each.  The entropic dual
# and the numeric conjugate of the piecewise family are the expensive parts
# of the suite, so those inputs are smaller; the locality probe enumerates
# every union of atoms, so the cheap measures get more atoms.
VERIFY_SIZES = {
    ("entropic", "power"): (6, 3, 1),
    ("entropic", "exp"): (6, 3, 1),
    ("entropic", "piecewise"): (6, 3, 1),
    ("entropic", "linf"): (6, 3, 1),
    ("worst_case", "power"): (16, 8, 2),
    ("worst_case", "exp"): (16, 8, 2),
    ("worst_case", "piecewise"): (8, 2, 1),
    ("worst_case", "linf"): (16, 9, 2),
    ("linear", "power"): (16, 8, 3),
    ("linear", "exp"): (16, 9, 3),
    ("linear", "piecewise"): (8, 2, 1),
    ("linear", "linf"): (16, 10, 2),
}

BUNDLED = ("entropic4", "power2", "supnorm3", "worstcase6")
COMMANDS = ("norm", "risk", "dual", "verify", "dynamic")


def _labels(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def _probs(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.5, 1.5, n)
    return p / p.sum()


def _blocks(order: np.ndarray, sizes) -> list[list[int]]:
    """Split a permutation of outcome indices into consecutive blocks."""
    out, start = [], 0
    for size in sizes:
        out.append(order[start:start + size].tolist())
        start += size
    return out


def _young(rng, family: str) -> dict:
    if family == "power":
        return {"family": "power", "params": {"p": round(float(rng.uniform(1.5, 3.5)), 3)}}
    if family == "exp":
        return {"family": "exp", "params": {"scale": round(float(rng.uniform(0.5, 2.0)), 3)}}
    if family == "piecewise":
        k1 = round(float(rng.uniform(0.2, 0.8)), 3)
        k2 = round(k1 + float(rng.uniform(0.5, 1.5)), 3)
        s0 = 0.0 if rng.uniform() < 0.5 else round(float(rng.uniform(0.1, 0.5)), 3)
        s1 = round(s0 + float(rng.uniform(0.5, 1.5)), 3)
        s2 = round(s1 + float(rng.uniform(0.5, 2.0)), 3)
        return {"family": "piecewise", "params": {"knots": [k1, k2], "slopes": [s0, s1, s2]}}
    return {"family": "linf"}


def _risk(rng, measure: str) -> dict:
    if measure == "entropic":
        return {"measure": "entropic", "params": {"gamma": round(float(rng.uniform(0.4, 0.6)), 3)}}
    return {"measure": measure}


def scenario(name: str, probs, atoms_by_alg: dict, positions: dict, young: dict,
             risk: dict, filtration=None) -> dict:
    """A scenario document in the program's JSON format; atoms and
    positions are given by outcome index and written by label."""
    labels = _labels(len(probs))
    doc = {
        "name": name,
        "outcomes": [{"label": lab, "prob": float(p)} for lab, p in zip(labels, probs)],
        "algebras": {
            alg: [[labels[i] for i in atom] for atom in atoms]
            for alg, atoms in atoms_by_alg.items()
        },
        "positions": {
            pos: dict(zip(labels, (float(v) for v in values)))
            for pos, values in positions.items()
        },
        "young": young,
        "risk": risk,
    }
    if filtration is not None:
        doc["filtration"] = list(filtration)
    return doc


def _write(directory: Path, doc: dict) -> str:
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _op(command: str, path: str, seed: int = 0, fault: str | None = None) -> dict:
    return {"command": command, "path": path, "seed": seed, "fault": fault}


def cli_args(op: dict, out_dir) -> list[str]:
    """The `orlicz-risk` arguments of an operation."""
    return [op["command"], op["path"], "--out-dir", str(out_dir), "--seed", str(op["seed"])]


@dataclass(frozen=True)
class Workload:
    """A workload's operations and how the loop runs them.

    ops        the cycle, in order; it holds many distinct inputs, so a
               run's median stands for the seed's input distribution, not
               for a handful of inputs
    round      the clock is read only after whole rounds, so every run has
               the same mix of inputs and, where a round holds an expected
               failure, fails the same share of its operations
    warm       warm-up repeats ops[:warm] until their times stop falling
    trace_ops  a traced run times ops[:trace_ops] untraced, then traced
    setup      the scenario files a fresh interpreter loads for `setup_s`
    """

    ops: list
    round: int
    warm: int
    trace_ops: int
    setup: list


def gen_norm(seed: int, directory: Path) -> Workload:
    """Rounds of one scenario per Young family, each with three algebras:
    one atom, 32 atoms, and n/4 atoms of 4 outcomes."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for r in range(4):
        for family in FAMILIES:
            n = NORM_N[family]
            order = rng.permutation(n)
            quads = _blocks(order, [4] * (n // 4))
            per_tens = len(quads) // 32
            tens = [sum(quads[j:j + per_tens], []) for j in range(0, len(quads), per_tens)]
            x = rng.normal(0.0, float(rng.uniform(0.5, 2.0)), n)
            doc = scenario(
                f"norm{r}_{family}", _probs(rng, n),
                {"one": [list(range(n))], "tens": tens, "quads": quads},
                {"x": x}, _young(rng, family), {"measure": "linear"},
            )
            ops.append(_op("norm", _write(directory, doc)))
    return Workload(ops, round=4, warm=4, trace_ops=8, setup=[op["path"] for op in ops[:4]])


def _dual_atoms(rng, n: int):
    """A coarse algebra of atoms of 32 or 64 outcomes and a refinement of it
    into atoms of 8 or 16 outcomes."""
    order = rng.permutation(n)
    coarse_sizes = [64, 32, 32] if rng.uniform() < 0.5 else [32, 64, 32]
    coarse = _blocks(order, coarse_sizes)
    fine = []
    for atom in coarse:
        sizes = []
        while sum(sizes) < len(atom):
            left = len(atom) - sum(sizes)
            sizes.append(8 if left == 8 or rng.uniform() < 0.5 else 16)
        fine += _blocks(np.asarray(atom), sizes)
    return coarse, fine


def gen_dual(seed: int, directory: Path) -> Workload:
    """Rounds of seven entropic scenarios, with atoms of 8 to 64 outcomes
    and gamma in [0.4, 0.6], and the fixed scenario whose single atom of 80
    outcomes is over the solver's coordinate cap."""
    rng = np.random.default_rng([seed, 2])
    # seed-independent inputs, so this operation fails the same way in every run
    fixed = np.random.default_rng(64)
    over_cap = _write(directory, scenario(
        "dual_over_cap", _probs(fixed, 80), {"one": [list(range(80))]},
        {"x": fixed.normal(size=80)}, {"family": "power", "params": {"p": 2}},
        {"measure": "entropic", "params": {"gamma": 0.5}},
    ))
    n = 128
    ops = []
    for r in range(16):
        for i in range(7):
            coarse, fine = _dual_atoms(rng, n)
            doc = scenario(
                f"dual{r:02d}_{i}", _probs(rng, n), {"coarse": coarse, "fine": fine},
                {"x": rng.normal(size=n)}, _young(rng, FAMILIES[i % 4]),
                _risk(rng, "entropic"), filtration=["coarse", "fine"],
            )
            ops.append(_op("dual", _write(directory, doc)))
        ops.append(_op("dual", over_cap, fault=SIMPLEX_CAP_FAULT))
    return Workload(ops, round=8, warm=8, trace_ops=32, setup=[op["path"] for op in ops[:8]])


def gen_verify(seed: int, directory: Path) -> Workload:
    """Rounds of every measure with every Young family, on small spaces
    with a trivial algebra and a finer one; sizes from VERIFY_SIZES."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for r in range(4):
        for measure, family in sorted(VERIFY_SIZES):
            n, k, n_pos = VERIFY_SIZES[(measure, family)]
            order = rng.permutation(n)
            fine = _blocks(order, [n // k + (j < n % k) for j in range(k)])
            doc = scenario(
                f"verify{r}_{measure}_{family}", _probs(rng, n),
                {"F0": [list(range(n))], "F1": fine},
                {f"x{j}": rng.normal(size=n) for j in range(n_pos)},
                _young(rng, family), _risk(rng, measure), filtration=["F0", "F1"],
            )
            ops.append(_op("verify", _write(directory, doc), seed=int(rng.integers(0, 2**31))))
    return Workload(ops, round=12, warm=12, trace_ops=24, setup=[op["path"] for op in ops[:12]])


def gen_cli(seed: int, directory: Path, bundled_dir: Path) -> Workload:
    """Every command on the bundled scenarios and on two small generated
    ones.  `dynamic` on power2 is left out: that scenario has no
    filtration, so the command exits 2 by design."""
    rng = np.random.default_rng([seed, 4])
    paths = [str(bundled_dir / f"{name}.json") for name in BUNDLED]
    for i in range(2):
        n = 6
        order = rng.permutation(n)
        measure = MEASURES[int(rng.integers(0, 3))]
        doc = scenario(
            f"cli{i}_{measure}", _probs(rng, n),
            {"F0": [list(range(n))], "F1": _blocks(order, [3, 3]), "F2": _blocks(order, [2, 1, 2, 1])},
            {"x": rng.normal(size=n), "z": rng.normal(size=n)},
            _young(rng, FAMILIES[int(rng.integers(0, 4))]), _risk(rng, measure),
            filtration=["F0", "F1", "F2"],
        )
        paths.append(_write(directory, doc))
    ops = [
        _op(command, path)
        for path in paths
        for command in COMMANDS
        if not (command == "dynamic" and Path(path).stem == "power2")
    ]
    # warm up on the first scenario's five commands; measure whole cycles,
    # since the commands differ in cost
    return Workload(ops, round=len(ops), warm=5, trace_ops=len(ops), setup=paths)


def generate(workload: str, seed: int, directory: Path, bundled_dir: Path) -> Workload:
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "cli":
        return gen_cli(seed, directory, bundled_dir)
    return {"norm": gen_norm, "dual": gen_dual, "verify": gen_verify}[workload](seed, directory)
