"""Benchmark of the orlicz-risk CLI: four closed-loop workloads, each driven
by one client on one thread.

    python3 perfbench/run.py --workload dual --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it uses the package's sources in
`src/`, so nothing needs installing.  `--workload all` runs the four
workloads in turn.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Generated
scenarios, reports and traces go to `perfbench/out/<workload>/`.  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here and inherited by every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import hostref  # noqa: E402
import loop  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
WORKLOADS = ("norm", "dual", "verify", "cli")
# what the `orlicz-risk` console script runs
CONSOLE = "import sys; from orlicz_risk.cli import main; sys.exit(main())"
SETUP_STARTS = 6  # half before the workload runs, half after
CHILD_TIMEOUT_S = 60.0

# the operation times are host-adjusted (see hostref.py); the summary line
# also prints the raw ones, ungated
END_TO_END = {
    "setup_s": "s",
    "op_s.p50.host_adj": "s",
    "ok_ops_per_s.host_adj": "1/s",
    "peak_rss_mb": "MB",
}
# per-operation means over the traced pass of a `--trace 1` run
PER_LAYER = {
    "cli.self_s": "s",
    "package.import_s": "s",
    "scenario.load_s": "s",
    "report.write_s": "s",
    "report.bytes": "B",
    "orlicz.luxemburg_s": "s",
    "orlicz.luxemburg_calls": "count",
    "orlicz.amemiya_s": "s",
    "orlicz.amemiya_calls": "count",
    "orlicz.pairing_operator_norm_s": "s",
    "young.phi_calls": "count",
    "young.conjugate_calls": "count",
    "young.conjugate_s": "s",
    "solvers.bisect_calls": "count",
    "solvers.bisect_evals": "count",
    "solvers.bisect_s": "s",
    "solvers.golden_calls": "count",
    "solvers.golden_evals": "count",
    "solvers.golden_s": "s",
    "solvers.simplex_calls": "count",
    "solvers.simplex_iters": "count",
    "solvers.simplex_s": "s",
    "risk.evaluate_calls": "count",
    "risk.evaluate_s": "s",
    "risk.robust_representation_s": "s",
    "risk.fenchel_conjugate_s": "s",
    "risk.conjugate_numeric_s": "s",
    "risk.locality_check_s": "s",
    "risk.attainment_check_s": "s",
    "risk.penalty_bound_check_s": "s",
    "risk.lebesgue_check_s": "s",
    "risk.extension_check_s": "s",
    "risk.dynamic_evaluate_s": "s",
    "risk.check_axioms_s": "s",
    "prob_space.cond_expectation_calls": "count",
    "prob_space.cond_expectation_s": "s",
    "prob_space.ess_sup_cond_calls": "count",
    "prob_space.ess_sup_cond_s": "s",
    "verification.verify_scenario_s": "s",
    "trace.op_mean_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "host.ref_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def run_child(cmd: list[str], log_stem: Path, timeout: float) -> tuple[int, float, int]:
    """Run a child to its end; returns its exit code, wall time and peak
    resident memory in KiB, the last from the kernel's account of it."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def host_ref(repeats: int = 9) -> float:
    """Median time of the host reference, to expose host drift."""
    return statistics.median(hostref.reference() for _ in range(repeats))


def setup_times(files: list[str], out_dir: Path, starts: int) -> list[float]:
    """Wall times of fresh interpreters that import the package and load
    (parse and validate) the workload's first scenario files."""
    times = []
    for _ in range(starts):
        rc, seconds, _ = run_child([sys.executable, WORKER, "setup", *files],
                                   out_dir / "setup", CHILD_TIMEOUT_S)
        if rc != 0:
            raise BenchError(f"setup exited {rc}: {tail(out_dir / 'setup.err')}")
        times.append(seconds)
    return times


def tail(path: Path, chars: int = 600) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-chars:].strip()


def run_in_process(work, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, int]:
    """One worker process runs the whole workload by calling the CLI's
    `main`; its peak memory is the workload's."""
    plan, result = out_dir / "plan.json", out_dir / "result.json"
    plan.write_text(json.dumps({
        "ops": work.ops, "round": work.round, "warm": work.warm, "trace_ops": work.trace_ops,
        "seconds": seconds, "trace": trace, "out_dir": str(out_dir),
    }), encoding="utf-8")
    rc, _, peak_kb = run_child([sys.executable, WORKER, "run", str(plan), str(result)],
                               out_dir / "worker", 2 * seconds + CHILD_TIMEOUT_S)
    if rc != 0:
        raise BenchError(f"worker exited {rc}: {tail(out_dir / 'worker.err')}")
    return json.loads(result.read_text(encoding="utf-8")), peak_kb


def run_cli(work, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, int]:
    """Every operation is a fresh `orlicz-risk` process; the largest child
    sets the peak memory."""
    checker = checks.Checker(out_dir)
    tracer = tracing.Tracer()
    trace_file = out_dir / "child.trace.json"
    peak_kb = 0

    def execute(op, traced):
        nonlocal peak_kb
        argv = gen.cli_args(op, out_dir)
        if traced:
            cmd = [sys.executable, WORKER, "cli", str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE, *argv]
        rc, elapsed, child_kb = run_child(cmd, out_dir / "child", CHILD_TIMEOUT_S)
        peak_kb = max(peak_kb, child_kb)
        status, message = checker.check_op(op, rc, tail(out_dir / "child.err"))
        if traced:
            tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
        return {"seconds": elapsed, "status": status, "message": message}

    result = loop.measure(work.ops, execute, seconds, trace, work.round, work.warm,
                          work.trace_ops)
    result["trace"] = tracer.to_dict()
    return result, peak_kb


def layer_metrics(result: dict, host_s: float) -> dict:
    traced = result["traced"]
    n = len(traced)
    data = result["trace"]
    values = {key: value / n for key, value in {**data["self_s"], **data["counts"]}.items()}
    op_total = sum(s["seconds"] for s in traced)
    values["trace.op_mean_s"] = op_total / n
    values["trace.unattributed_s"] = (op_total - sum(data["self_s"].values())) / n
    values["trace.overhead_s"] = ok_median(traced) - ok_median(result["untraced"])
    values["host.ref_s"] = host_s
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def host_adjusted(sample: dict) -> float:
    """An operation's time on a host where the reference takes NOMINAL_S."""
    return sample["seconds"] * hostref.NOMINAL_S / sample["ref_s"]


def ok_median(samples, time=lambda s: s["seconds"]) -> float:
    ok = [time(s) for s in samples if s["status"] == "ok"]
    if not ok:
        raise BenchError("no operation completed and passed its check")
    return statistics.median(ok)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = HERE / "out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    host_before = host_ref()
    work = gen.generate(workload, seed, out_dir, ROOT / "scenarios")
    # set-up starts before and after the workload, so host drift over the
    # run reaches both halves
    setup = setup_times(work.setup, out_dir, SETUP_STARTS // 2)
    runner = run_cli if workload == "cli" else run_in_process
    result, peak_kb = runner(work, seconds, trace, out_dir)
    setup += setup_times(work.setup, out_dir, SETUP_STARTS - SETUP_STARTS // 2)
    host_s = statistics.median([host_before, host_ref()])

    measured = result["untraced"] + result.get("traced", [])
    everything = result["warm"] + measured
    failures = sorted({s["message"] for s in everything if s["status"] != "ok"})
    # a 90th percentile is a tail only with ten samples beyond it
    ok_times = [s["seconds"] for s in result["untraced"] if s["status"] == "ok"]
    p90 = statistics.quantiles(ok_times, n=10)[-1] if len(ok_times) >= 100 else None
    raw = {}
    if trace:
        values = layer_metrics(result, host_s)
        units = PER_LAYER
    else:
        untraced = result["untraced"]
        ok_count = sum(s["status"] == "ok" for s in untraced)
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50.host_adj": ok_median(untraced, host_adjusted),
            "ok_ops_per_s.host_adj": ok_count / sum(map(host_adjusted, untraced)),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        raw = {"op_s.p50": ok_median(untraced),
               "ok_ops_per_s": ok_count / sum(s["seconds"] for s in untraced)}
        units = END_TO_END
    return {
        "workload": workload,
        "correct": not any(s["status"] == "wrong" for s in everything),
        "attempted": len(measured),
        "failed": len(measured) - sum(s["status"] == "ok" for s in measured),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": {"warm_up_ops": len(result["warm"]), "host.ref_s": host_s,
                  "op_s.p90": p90, "raw": raw, "failures": failures[:5]},
    }


def report_line(res: dict) -> str:
    metrics = ", ".join(
        f"{name} {m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()
        if m["value"] or not name.endswith(("_s", "_calls", "_evals", "_iters", ".bytes"))
    )
    notes = res["notes"]
    line = (f"{res['workload']}: attempted {res['attempted']}, failed {res['failed']}, "
            f"correct {res['correct']}, warm-up {notes['warm_up_ops']} ops, "
            f"host.ref_s {notes['host.ref_s']:.5f} | {metrics}")
    for name, value in notes["raw"].items():
        line += f", {name} {value:.6g} (raw, not gated)"
    if notes["op_s.p90"] is not None:
        line += f", op_s.p90 {notes['op_s.p90']:.6g} s (raw, not gated)"
    for message in notes["failures"]:
        line += f"\n  {res['workload']} failure: {message}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "orlicz_risk" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} holds no orlicz-risk sources (src/orlicz_risk, scenarios/)",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
            print(report_line(results[-1]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
