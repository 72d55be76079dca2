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

from .errors import ContractError, OrliczRiskError
from .orlicz import amemiya_norm, luxemburg_norm
from .report import CSV_COLUMNS, atom_rows, write_atoms_csv, write_report_json
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
            lux = luxemburg_norm(x, alg, sc.young)
            ame = amemiya_norm(x, alg, sc.young)
            lux_values = lux.atom_values.tolist()
            ame_values = ame.atom_values.tolist()
            results[pos_name][alg_name] = {
                "luxemburg": lux_values,
                "amemiya": ame_values,
                "luxemburg_attained": list(lux.attained),
                "amemiya_attained": list(ame.attained),
            }
            blank = [""] * alg.n_atoms
            rows += atom_rows("norm", alg_name, pos_name, ("luxemburg", lux_values, "", blank),
                              ("amemiya", ame_values, "", blank))
    return results, rows, True


def _cmd_risk(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    results = {}
    rows = []
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            value = sc.risk.evaluate(x, alg)
            per_atom = value.values[alg.first].tolist()
            results[pos_name][alg_name] = per_atom
            rows += atom_rows("risk", alg_name, pos_name,
                              (sc.risk.tag, per_atom, "", [""] * alg.n_atoms))
    return results, rows, True


def _cmd_dual(sc: Scenario, args) -> tuple[dict, list[dict], bool]:
    results = {}
    rows = []
    ok = True
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            cert = robust_representation(sc.risk, x, alg)
            gap = cert.gap.values[alg.first].tolist()
            pen = cert.penalty.values[alg.first].tolist()
            y = cert.y.values.tolist()
            results[pos_name][alg_name] = {"y": y, "penalty": pen, "gap": gap}
            passed = [abs(gap_k) <= args.tol_gap for gap_k in gap]
            ok = ok and all(passed)
            rows += atom_rows("dual", alg_name, pos_name, ("gap", gap, args.tol_gap, passed),
                              ("penalty", pen, "", [""] * alg.n_atoms))
            rows += [
                dict(zip(CSV_COLUMNS, ("dual", alg_name, atom, pos_name, f"y[{lab}]", y_i, "", "")))
                for lab, atom, y_i in zip(sc.labels, alg.atom_of.tolist(), y)
            ]
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
        stage_values = dynamic_evaluate(dyn, x, seed=args.seed)
        results[pos_name] = {}
        for t, (alg_name, value) in enumerate(zip(sc.filtration_names, stage_values)):
            alg = sc.algebras[alg_name]
            per_atom = value.values[alg.first].tolist()
            results[pos_name][f"stage{t}:{alg_name}"] = per_atom
            rows += atom_rows("dynamic", alg_name, pos_name,
                              (f"stage{t}", per_atom, "", [""] * alg.n_atoms))
    return results, rows, True


# command -> (function, its line in `--help`)
_COMMANDS = {
    "norm": (_cmd_norm, "Luxemburg and Amemiya norms per position, algebra, and atom"),
    "risk": (_cmd_risk, "risk measure values per position and algebra"),
    "dual": (_cmd_dual, "robust-representation certificates (density, penalty, gap)"),
    "verify": (_cmd_verify, "full invariant suite; exit 0 iff every tolerance passes"),
    "dynamic": (_cmd_dynamic, "stage-wise evaluation along the scenario filtration"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-risk",
        description="Conditional Orlicz norms and risk measures on scenario files.",
        epilog="commands:\n" + "".join(
            f"  {name:8} {text}\n" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("scenario", type=Path, help="scenario JSON file")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for report files (default: cwd)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property sweeps")
    parser.add_argument("--tol-gap", type=float, default=1e-6,
                        help="duality-gap and scalarization tolerance")
    parser.add_argument("--tol-norm", type=float, default=1e-8,
                        help="norm inequality tolerance")
    return parser


# built once: parsing leaves it unchanged, and building it costs more than parsing
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        sc = Scenario.from_file(args.scenario)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.scenario}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except OrliczRiskError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2

    try:
        results, rows, passed = _COMMANDS[args.command][0](sc, args)
        report = {
            "command": args.command,
            "flags": {"seed": args.seed, "tol_gap": args.tol_gap, "tol_norm": args.tol_norm},
            "inputs": sc.raw,
            "results": results,
            "passed": passed,
        }
        args.out_dir.mkdir(parents=True, exist_ok=True)
        stem = args.scenario.stem
        paths = (args.out_dir / f"{stem}.report.json", args.out_dir / f"{stem}.atoms.csv")
        try:
            write_report_json(paths[0], report)
            write_atoms_csv(paths[1], rows)
        except ContractError:
            # a refused file leaves neither, so no report sits beside a table
            # from another run
            for path in paths:
                path.unlink(missing_ok=True)
            raise
    except OrliczRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
    print(f"{'ok' if passed else 'FAILED'}: report at {paths[0]}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
