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
import contextlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

from .errors import ContractError, OrliczRiskError
from .orlicz import amemiya_norm, luxemburg_norm
from .report import add_rows, atom_rows, new_table, write_atoms_csv, write_report_json
from .risk import DynamicRiskMeasure, dynamic_evaluate, robust_representation
from .scenario import Scenario
from .verification import TOL_GAP, TOL_NORM, verify_scenario

__all__ = ["main"]


def _cmd_norm(sc: Scenario, args) -> tuple[dict, dict, bool]:
    results = {}
    table = new_table()
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
            atom_rows(table, "norm", alg_name, pos_name, ("luxemburg", lux_values, "", blank),
                      ("amemiya", ame_values, "", blank))
    return results, table, True


def _cmd_risk(sc: Scenario, args) -> tuple[dict, dict, bool]:
    results = {}
    table = new_table()
    for pos_name, x in sc.positions.items():
        results[pos_name] = {}
        for alg_name, alg in sc.algebras.items():
            value = sc.risk.evaluate(x, alg)
            per_atom = value.values[alg.first].tolist()
            results[pos_name][alg_name] = per_atom
            atom_rows(table, "risk", alg_name, pos_name,
                      (sc.risk.tag, per_atom, "", [""] * alg.n_atoms))
    return results, table, True


def _cmd_dual(sc: Scenario, args) -> tuple[dict, dict, bool]:
    results = {}
    table = new_table()
    ok = True
    n = sc.space.n_outcomes
    y_names, blank = [f"y[{lab}]" for lab in sc.labels], [""] * n
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
            atom_rows(table, "dual", alg_name, pos_name, ("gap", gap, args.tol_gap, passed),
                      ("penalty", pen, "", blank[:alg.n_atoms]))
            add_rows(table, ["dual"] * n, [alg_name] * n, alg.atom_of.tolist(), [pos_name] * n,
                     y_names, y, blank, blank)
    return results, table, ok


def _cmd_verify(sc: Scenario, args) -> tuple[dict, dict, bool]:
    table, passed = verify_scenario(sc, seed=args.seed, tol_gap=args.tol_gap,
                                    tol_norm=args.tol_norm)
    rows = Counter(table["check"])
    failed = Counter(name for name, ok in zip(table["check"], table["passed"]) if not ok)
    summary = {name: {"rows": rows[name], "failed": failed[name]} for name in sorted(rows)}
    return {"summary": summary, "passed": passed}, table, passed


def _cmd_dynamic(sc: Scenario, args) -> tuple[dict, dict, bool]:
    if sc.filtration_names is None:
        raise OrliczRiskError("scenario has no filtration; `dynamic` needs one")
    stages = tuple((sc.algebras[n], sc.risk) for n in sc.filtration_names)
    dyn = DynamicRiskMeasure(stages)
    results = {}
    table = new_table()
    for pos_name, x in sc.positions.items():
        stage_values = dynamic_evaluate(dyn, x)
        results[pos_name] = {}
        for t, (alg_name, value) in enumerate(zip(sc.filtration_names, stage_values)):
            alg = sc.algebras[alg_name]
            per_atom = value.values[alg.first].tolist()
            results[pos_name][f"stage{t}:{alg_name}"] = per_atom
            atom_rows(table, "dynamic", alg_name, pos_name,
                      (f"stage{t}", per_atom, "", [""] * alg.n_atoms))
    return results, table, True


# command -> (function, its line in `--help`)
_COMMANDS = {
    "norm": (_cmd_norm, "Luxemburg and Amemiya norms per position, algebra, and atom"),
    "risk": (_cmd_risk, "risk measure values per position and algebra"),
    "dual": (_cmd_dual, "robust-representation certificates (density, penalty, gap)"),
    "verify": (_cmd_verify, "full invariant suite; exit 0 iff every tolerance passes"),
    "dynamic": (_cmd_dynamic, "stage-wise evaluation along the scenario filtration"),
}


def _nonnegative(parse, kind: str):
    """An argparse type: `parse(text)` when that is finite and >= 0, else a
    usage error that names `kind`."""

    def convert(text: str):
        with contextlib.suppress(ValueError):
            if 0 <= (value := parse(text)) < math.inf:
                return value
        raise argparse.ArgumentTypeError(f"must be {kind} >= 0, got {text!r}")

    return convert


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
    tolerance = _nonnegative(float, "a finite number")
    parser.add_argument("--seed", type=_nonnegative(int, "an integer"), default=0,
                        help="seed for the randomized property sweeps of verify; "
                             "the other commands draw none")
    parser.add_argument("--tol-gap", type=tolerance, default=TOL_GAP,
                        help="duality-gap and scalarization tolerance")
    parser.add_argument("--tol-norm", type=tolerance, default=TOL_NORM,
                        help="norm inequality tolerance")
    return parser


# built once: parsing leaves it unchanged, and building it costs more than parsing
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        sc = Scenario.from_file(args.scenario)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {args.scenario}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    except OrliczRiskError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2

    try:
        results, table, passed = _COMMANDS[args.command][0](sc, args)
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
            write_atoms_csv(paths[1], table)
        except (ContractError, OSError):
            # a refused or failed file leaves neither, so no report sits beside
            # a table from another run
            for path in paths:
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
            raise
    except (OrliczRiskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        for name, info in results["summary"].items():
            status = "PASS" if info["failed"] == 0 else "FAIL"
            print(f"{status} {name}: {info['rows'] - info['failed']}/{info['rows']} rows")
    columns = [table[col] for col in ("check", "quantity", "algebra", "atom", "value", "allowed")]
    for i in [i for i, flag in enumerate(table["passed"]) if flag is False][:20]:
        check, quantity, algebra, atom, value, allowed = (cells[i] for cells in columns)
        print(f"FAIL {check}/{quantity} algebra={algebra} atom={atom}"
              f" observed={value:.6g} allowed={allowed:.6g}", file=sys.stderr)
    print(f"{'ok' if passed else 'FAILED'}: report at {paths[0]}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
