"""Child processes of the benchmark.

  worker.py setup FILE...          import the package, load and validate files
  worker.py run PLAN RESULT        run an in-process workload as PLAN says
  worker.py cli TRACE ARG...       run one traced `orlicz-risk ARG...`

Only the standard library is imported at the top, so `setup` measures the
package's own import.  The benchmark starts these with the package's
sources on PYTHONPATH; the benchmark's own modules sit beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def setup(files: list[str]) -> int:
    from orlicz_risk import Scenario

    for path in files:
        Scenario.from_file(path)
    return 0


def run(plan_path: str, result_path: str) -> int:
    """Run an in-process workload: every operation calls the CLI's `main`
    in this process, the way a batch job would."""
    import checks
    import gen
    import loop
    import tracer as tracing
    from orlicz_risk import cli

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_dir = Path(plan["out_dir"])
    checker = checks.Checker(out_dir)
    tracer = tracing.Tracer()
    installed = False

    def execute(op, traced):
        nonlocal installed
        if traced and not installed:
            tracing.install(tracer)
            installed = True
        argv = gen.cli_args(op, out_dir)
        err = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an operation that crashes is counted, not fatal
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = perf_counter() - t0
        status, message = checker.check_op(op, rc, err.getvalue())
        return {"seconds": seconds, "status": status, "message": message}

    result = loop.measure(plan["ops"], execute, plan["seconds"], plan["trace"],
                          plan["round"], plan["warm"], plan["trace_ops"])
    result["trace"] = tracer.to_dict()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced_cli(trace_path: str, argv: list[str]) -> int:
    """`orlicz-risk ARG...` with the tracer installed; the package import is
    its own layer."""
    t0 = perf_counter()
    from orlicz_risk import cli
    imported = perf_counter() - t0
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.add("package.import", imported)
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        Path(trace_path).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest)
    if mode == "run":
        return run(*rest)
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
