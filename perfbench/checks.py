"""Correctness checks made apart from the program.

Each check reads the scenario document and the report the program wrote,
and recomputes what it can with numpy: closed forms for the norms and risk
values, the Gibbs density for the entropic dual.  Where no closed form
exists, it checks a property the method must have (the modular equals 1 at
the Luxemburg norm, the factor-2 equivalence).  Nothing is compared with a
stored copy of an earlier output, except that `verify` must write the same
bytes when the same scenario and seed run again.

`Checker.check_op` gives each operation its status.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

NORM_RTOL = 1e-8
MODULAR_TOL = 1e-7
RISK_TOL = 1e-9
FEAS_SIGN_TOL = 1e-12
FEAS_MEAN_TOL = 1e-9
GAP_TOL = 1e-6
DENSITY_TOL = 1e-4
POWER2 = {"luxemburg": 3.5355339, "amemiya": 7.0710678}


class Space:
    """Outcome probabilities, positions and atoms of a scenario document."""

    def __init__(self, doc: dict):
        self.doc = doc
        labels = [o["label"] for o in doc["outcomes"]]
        index = {lab: i for i, lab in enumerate(labels)}
        self.probs = np.array([o["prob"] for o in doc["outcomes"]], dtype=float)
        self.positions = {
            name: np.array([values[lab] for lab in labels], dtype=float)
            for name, values in doc["positions"].items()
        }
        self.atoms = {
            name: [np.array([index[lab] for lab in atom]) for atom in atoms]
            for name, atoms in doc["algebras"].items()
        }

    def weights(self, atom: np.ndarray) -> np.ndarray:
        p = self.probs[atom]
        return p / p.sum()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def young_phi(spec: dict, t: np.ndarray) -> np.ndarray:
    """The Young function of a scenario, written again in numpy."""
    params = spec.get("params", {})
    family = spec["family"]
    if family == "power":
        return t ** float(params["p"])
    if family == "exp":
        return np.expm1(float(params.get("scale", 1.0)) * t)
    if family == "piecewise":
        bounds = [0.0] + [float(k) for k in params["knots"]] + [math.inf]
        out = np.zeros_like(t)
        for slope, lo, hi in zip(params["slopes"], bounds, bounds[1:]):
            out += float(slope) * np.clip(t - lo, 0.0, hi - lo)
        return out
    return np.where(t < 1.0, 0.0, math.inf)


def risk_closed_form(spec: dict, x: np.ndarray, w: np.ndarray) -> float:
    """Risk of x on one atom with weights w: log-sum-exp for entropic,
    max(-x) for worst case, -E[x] for linear."""
    if spec["measure"] == "entropic":
        gamma = float(spec["params"]["gamma"])
        a = -gamma * x
        shift = a.max()
        return float((shift + math.log(np.dot(w, np.exp(a - shift)))) / gamma)
    if spec["measure"] == "worst_case":
        return float(np.max(-x))
    return float(-np.dot(w, x))


def check_norm(space: Space, results: dict) -> str | None:
    young = space.doc["young"]
    family = young["family"]
    for pos, x in space.positions.items():
        for alg, atoms in space.atoms.items():
            got = results[pos][alg]
            for k, atom in enumerate(atoms):
                lux, ame = float(got["luxemburg"][k]), float(got["amemiya"][k])
                a = np.abs(x[atom])
                w = space.weights(atom)
                where = f"{pos}/{alg}/atom {k}"
                if a.max() == 0.0:
                    if lux != 0.0 or ame != 0.0:
                        return f"{where}: norms of zero are {lux}, {ame}"
                    continue
                if not (lux <= ame * (1 + NORM_RTOL) and ame <= 2.0 * lux * (1 + NORM_RTOL)):
                    return f"{where}: Luxemburg {lux} and Amemiya {ame} break the factor-2 bound"
                if family == "power":
                    p = float(young["params"]["p"])
                    m = float(np.dot(w, a ** p)) ** (1.0 / p)
                    if not _close(lux, m, NORM_RTOL):
                        return f"{where}: Luxemburg {lux}, closed form {m}"
                    amem = p * (p - 1.0) ** ((1.0 - p) / p) * m
                    if not _close(ame, amem, NORM_RTOL):
                        return f"{where}: Amemiya {ame}, closed form {amem}"
                elif family == "linf":
                    if not _close(lux, float(a.max()), NORM_RTOL):
                        return f"{where}: Luxemburg {lux}, max|x| {a.max()}"
                else:
                    modular = float(np.dot(w, young_phi(young, a / lux)))
                    if abs(modular - 1.0) > MODULAR_TOL:
                        return f"{where}: modular at the Luxemburg norm is {modular}"
    if space.doc["name"] == "power2":
        got = results["x"]["full"]
        for key, value in POWER2.items():
            if abs(float(got[key][0]) - value) > 1e-7:
                return f"power2: {key} is {got[key][0]}, expected {value}"
    return None


def _atom_values(space: Space, results: dict, stage_key) -> str | None:
    spec = space.doc["risk"]
    for pos, x in space.positions.items():
        for key, alg in stage_key:
            got = results[pos][key]
            for k, atom in enumerate(space.atoms[alg]):
                want = risk_closed_form(spec, x[atom], space.weights(atom))
                if abs(float(got[k]) - want) > RISK_TOL * max(1.0, abs(want)):
                    return f"{pos}/{key}/atom {k}: risk {got[k]}, closed form {want}"
    return None


def check_risk(space: Space, results: dict) -> str | None:
    return _atom_values(space, results, [(alg, alg) for alg in space.atoms])


def check_dynamic(space: Space, results: dict) -> str | None:
    stages = [(f"stage{t}:{alg}", alg) for t, alg in enumerate(space.doc["filtration"])]
    return _atom_values(space, results, stages)


def check_dual(space: Space, results: dict) -> str | None:
    """Feasibility of y, a gap recomputed from the primal closed form and
    the penalty of y, and for entropic measures the Gibbs density
    q = exp(-gamma x) / E[exp(-gamma x)|A]."""
    spec = space.doc["risk"]
    for pos, x in space.positions.items():
        for alg, atoms in space.atoms.items():
            got = results[pos][alg]
            y = np.array(got["y"], dtype=float)
            for k, atom in enumerate(atoms):
                w = space.weights(atom)
                xa, ya = x[atom], y[atom]
                where = f"{pos}/{alg}/atom {k}"
                if ya.max() > FEAS_SIGN_TOL or abs(float(np.dot(w, ya)) + 1.0) > FEAS_MEAN_TOL:
                    return f"{where}: density is not dual feasible"
                q = -ya
                if spec["measure"] == "entropic":
                    gamma = float(spec["params"]["gamma"])
                    qlogq = np.where(q > 0.0, q * np.log(np.maximum(q, 1e-300)), 0.0)
                    penalty = float(np.dot(w, qlogq)) / gamma
                    gibbs = np.exp(-gamma * (xa - xa.min()))
                    gibbs /= float(np.dot(w, gibbs))
                    dev = float(np.max(np.abs(q - gibbs)))
                    if dev > DENSITY_TOL:
                        return f"{where}: density is {dev:.3g} away from the Gibbs density"
                elif spec["measure"] == "linear" and np.max(np.abs(q - 1.0)) > FEAS_MEAN_TOL:
                    return f"{where}: linear risk has the single density 1"
                else:
                    penalty = 0.0
                gap = risk_closed_form(spec, xa, w) - (float(np.dot(w, xa * ya)) - penalty)
                if abs(gap) > GAP_TOL or abs(float(got["gap"][k])) > GAP_TOL:
                    return f"{where}: gap {gap:.3g} (reported {got['gap'][k]})"
    return None


def check_verify(report: dict) -> str | None:
    if report["passed"] is not True:
        return "verify reports a failed tolerance"
    failed = {name: info["failed"] for name, info in report["results"]["summary"].items()
              if info["failed"]}
    return f"verify has failed rows: {failed}" if failed else None


_CHECKS = {"norm": check_norm, "risk": check_risk, "dynamic": check_dynamic, "dual": check_dual}


class Checker:
    """Checks operations' outputs; keeps the bytes of each scenario's first
    `verify` report.  Scenario files are parsed again for every check, so
    the checker holds no copy of them in the worker's memory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._verify_bytes: dict[tuple, bytes] = {}

    def check_op(self, op: dict, rc, stderr: str) -> tuple[str, str | None]:
        """Status of one operation and a message: "ok", "fault" for the
        named fault the workload expects, "error" for any other exit that is
        not 0, "wrong" for output that fails its check."""
        if rc != 0:
            if op["fault"] is not None and rc == 2 and op["fault"] in stderr:
                return "fault", op["fault"]
            return "error", f"exit {rc}: {stderr.strip()[-300:]}"
        report_path = self.out_dir / f"{Path(op['path']).stem}.report.json"
        raw = report_path.read_bytes()
        report = json.loads(raw)
        if report["command"] != op["command"]:
            message = f"report is for {report['command']!r}"
        elif op["command"] == "verify":
            before = self._verify_bytes.setdefault((op["path"], op["seed"]), raw)
            if before != raw:
                message = "verify report differs from the previous run of the same scenario and seed"
            else:
                message = check_verify(report)
        else:
            doc = json.loads(Path(op["path"]).read_text(encoding="utf-8"))
            message = _CHECKS[op["command"]](Space(doc), report["results"])
        return ("ok", None) if message is None else ("wrong", message)
