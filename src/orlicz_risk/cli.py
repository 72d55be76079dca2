"""Batch front door: `orlicz-risk <command> <scenario.json> [flags]`.

Commands
  norm     Luxemburg and Amemiya norms per position, algebra, and atom
  risk     risk measure values per position and algebra
  dual     robust-representation certificates (density, penalty, gap)
  verify   the full invariant suite; exit 0 iff every tolerance passes
  dynamic  stage-wise evaluation along the scenario filtration

Each run writes `<scenario>.report.json` and `<scenario>.atoms.csv` into the
output directory.  Reports are byte-deterministic for a fixed scenario, seed,
and flag set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema

from .errors import OrliczRiskError
from .orlicz import amemiya_norm, luxemburg_norm
from .report import write_atoms_csv, write_report_json
from .risk import DynamicRiskMeasure, dynamic_evaluate, robust_representation
from .scenario import Scenario
from .verification import verify_scenario

__all__ = ["main"]


def _cmd_norm(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    results = {}
    rows = []
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            lux = luxemburg_norm(x, alg, sc.young, rel_tol=1e-10)
            ame = amemiya_norm(x, alg, sc.young, rel_tol=1e-10)
            results[pos_name][alg_name] = {
                "luxemburg": lux.atom_values.tolist(),
                "amemiya": ame.atom_values.tolist(),
                "luxemburg_attained": list(lux.attained),
                "amemiya_attained": list(ame.attained),
            }
            for k in range(alg.n_atoms):
                rows.append({
                    "check": "norm", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": "luxemburg",
                    "value": float(lux.atom_values[k]), "allowed": "", "passed": "",
                })
                rows.append({
                    "check": "norm", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": "amemiya",
                    "value": float(ame.atom_values[k]), "allowed": "", "passed": "",
                })
    return results, rows, True


def _cmd_risk(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    results = {}
    rows = []
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            value = sc.risk.evaluate(x, alg)
            per_atom = [float(value.values[list(atom)[0]]) for atom in alg.atoms]
            results[pos_name][alg_name] = per_atom
            for k, v in enumerate(per_atom):
                rows.append({
                    "check": "risk", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": sc.risk.tag,
                    "value": v, "allowed": "", "passed": "",
                })
    return results, rows, True


def _cmd_dual(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    results = {}
    rows = []
    ok = True
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            cert = robust_representation(sc.risk, x, alg)
            gap = [float(cert.gap.values[list(atom)[0]]) for atom in alg.atoms]
            pen = [float(cert.penalty.values[list(atom)[0]]) for atom in alg.atoms]
            results[pos_name][alg_name] = {
                "y": cert.y.values.tolist(),
                "penalty": pen,
                "gap": gap,
            }
            for k in range(alg.n_atoms):
                passed = abs(gap[k]) <= args.tol_gap
                ok = ok and passed
                rows.append({
                    "check": "dual", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": "gap",
                    "value": gap[k], "allowed": args.tol_gap, "passed": passed,
                })
                rows.append({
                    "check": "dual", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": "penalty",
                    "value": pen[k], "allowed": "", "passed": "",
                })
            for i, lab in enumerate(sc.labels):
                rows.append({
                    "check": "dual", "algebra": alg_name,
                    "atom": int(alg.atom_of[i]), "position": pos_name,
                    "quantity": f"y[{lab}]", "value": float(cert.y.values[i]),
                    "allowed": "", "passed": "",
                })
    return results, rows, ok


def _cmd_verify(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    rows, passed = verify_scenario(
        sc, seed=args.seed, tol_gap=args.tol_gap, tol_norm=args.tol_norm
    )
    checks = sorted({r["check"] for r in rows})
    summary = {
        name: {
            "rows": sum(1 for r in rows if r["check"] == name),
            "failed": sum(1 for r in rows if r["check"] == name and not r["passed"]),
        }
        for name in checks
    }
    return {"summary": summary, "passed": passed}, rows, passed


def _cmd_dynamic(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    if sc.filtration_names is None:
        raise OrliczRiskError("scenario has no filtration; `dynamic` needs one")
    stages = tuple((sc.algebras[n], sc.risk) for n in sc.filtration_names)
    dyn = DynamicRiskMeasure(stages)
    results = {}
    rows = []
    for pos_name, x in sc.positions.items():
        stage_values = dynamic_evaluate(dyn, x, check_stages=True, seed=args.seed)
        results[pos_name] = {}
        for t, (alg_name, value) in enumerate(zip(sc.filtration_names, stage_values)):
            alg = sc.algebras[alg_name]
            per_atom = [float(value.values[list(atom)[0]]) for atom in alg.atoms]
            results[pos_name][f"stage{t}:{alg_name}"] = per_atom
            for k, v in enumerate(per_atom):
                rows.append({
                    "check": "dynamic", "algebra": alg_name, "atom": k,
                    "position": pos_name, "quantity": f"stage{t}",
                    "value": v, "allowed": "", "passed": "",
                })
    return results, rows, True


_COMMANDS = {
    "norm": _cmd_norm,
    "risk": _cmd_risk,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "dynamic": _cmd_dynamic,
}

_HELP = {
    "norm": "Luxemburg and Amemiya norms per position, algebra, and atom",
    "risk": "risk measure values per position and algebra",
    "dual": "robust-representation certificates (density, penalty, gap)",
    "verify": "full invariant suite; exit 0 iff every tolerance passes",
    "dynamic": "stage-wise evaluation along the scenario filtration",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-risk",
        description="Conditional Orlicz norms and risk measures on scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("scenario", type=Path, help="scenario JSON file")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for report files (default: cwd)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property sweeps")
        p.add_argument("--tol-gap", type=float, default=1e-6,
                       help="duality-gap and scalarization tolerance")
        p.add_argument("--tol-norm", type=float, default=1e-8,
                       help="norm inequality tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = Scenario.from_file(args.scenario)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.scenario}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except jsonschema.ValidationError as exc:
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in exc.absolute_path
        )
        print(f"error: {args.scenario}: {path}: {exc.message}", file=sys.stderr)
        return 2
    except OrliczRiskError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2

    try:
        results, rows, passed = _COMMANDS[args.command](sc, args)
    except OrliczRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "flags": {
            "seed": args.seed,
            "tol_gap": args.tol_gap,
            "tol_norm": args.tol_norm,
        },
        "inputs": sc.raw,
        "results": results,
        "passed": passed,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.scenario.stem
    write_report_json(args.out_dir / f"{stem}.report.json", report)
    write_atoms_csv(args.out_dir / f"{stem}.atoms.csv", rows)

    if args.command == "verify":
        for name, info in results["summary"].items():
            status = "PASS" if info["failed"] == 0 else "FAIL"
            print(f"{status} {name}: {info['rows'] - info['failed']}/{info['rows']} rows")
    failures = [r for r in rows if r["passed"] is False]
    for r in failures[:20]:
        print(
            f"FAIL {r['check']}/{r['quantity']} algebra={r['algebra']} atom={r['atom']}"
            f" observed={r['value']:.6g} allowed={r['allowed']:.6g}",
            file=sys.stderr,
        )
    print(f"{'ok' if passed else 'FAILED'}: report at {args.out_dir / (stem + '.report.json')}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
