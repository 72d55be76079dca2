"""Per-layer self times and counts, measured by wrapping the package's
public functions from outside.

A wrapper must sit on the name the caller looks up.  Modules bind many
functions at import (`from .orlicz import luxemburg_norm`), so `install`
replaces every name in every `orlicz_risk` module that refers to a wrapped
function.  Functions the package builds at run time get wrapped where they
are made: the Young families' `eval` (counted, not timed, since it runs up
to a million times per operation) and the risk measures' `evaluate`.

A layer's self time is the time inside its wrappers minus the time inside
wrapped functions they called.  Callbacks that a solver calls (the modular
of a Luxemburg solve, say) are the solver's self time.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, layer): plain functions wrapped with a timed span
SPANS = (
    ("cli", "main", "cli.self"),
    ("report", "write_report_json", "report.write"),
    ("report", "write_atoms_csv", "report.write"),
    ("orlicz", "luxemburg_norm", "orlicz.luxemburg"),
    ("orlicz", "amemiya_norm", "orlicz.amemiya"),
    ("orlicz", "pairing_operator_norm", "orlicz.pairing_operator_norm"),
    ("young", "conjugate", "young.conjugate"),
    ("solvers", "bisect_monotone", "solvers.bisect"),
    ("solvers", "golden_min", "solvers.golden"),
    ("solvers", "simplex_max", "solvers.simplex"),
    ("risk", "robust_representation", "risk.robust_representation"),
    ("risk", "fenchel_conjugate", "risk.fenchel_conjugate"),
    ("risk", "locality_check", "risk.locality_check"),
    ("risk", "attainment_check", "risk.attainment_check"),
    ("risk", "penalty_bound_check", "risk.penalty_bound_check"),
    ("risk", "lebesgue_check", "risk.lebesgue_check"),
    ("risk", "extension_check", "risk.extension_check"),
    ("risk", "dynamic_evaluate", "risk.dynamic_evaluate"),
    ("risk", "check_axioms", "risk.check_axioms"),
    ("prob_space", "cond_expectation", "prob_space.cond_expectation"),
    ("prob_space", "ess_sup_cond", "prob_space.ess_sup_cond"),
    ("verification", "verify_scenario", "verification.verify_scenario"),
)
YOUNG_FACTORIES = ("make_power", "make_linf", "make_exp", "make_piecewise", "conjugate_young_fn")
RISK_FACTORIES = ("entropic", "worst_case", "linear")
# layers whose solver report carries a work count: SolveReport.iterations is
# the number of objective evaluations for bisection and golden section, and
# of ascent steps for the simplex solver
WORK_COUNTS = {"solvers.bisect": "evals", "solvers.golden": "evals", "solvers.simplex": "iters"}


class Tracer:
    """Accumulates self time (`self_s`) and counts (`counts`) per layer,
    keyed by metric name: `<layer>_s`, `<layer>_calls`, `<layer>_evals`."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    def span(self, layer: str, fn):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        work = WORK_COUNTS.get(layer)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                best = getattr(exc, "best", None)
                if work is not None and hasattr(best, "iterations"):
                    counts[f"{layer}_{work}"] += best.iterations
                raise
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                self_s[f"{layer}_s"] += elapsed - inner
                counts[f"{layer}_calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if work is not None:
                counts[f"{layer}_{work}"] += result.iterations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def add(self, layer: str, seconds: float):
        """Self time measured outside any wrapper, such as an import."""
        self.self_s[f"{layer}_s"] += seconds

    def merge(self, data: dict):
        for layer, value in data["self_s"].items():
            self.self_s[layer] += value
        for key, value in data["counts"].items():
            self.counts[key] += value

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


def _rebind(old, new):
    """Point every name in the package that refers to `old` at `new`."""
    for name, module in list(sys.modules.items()):
        if name == "orlicz_risk" or name.startswith("orlicz_risk."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer):
    """Wrap the package's public functions; the package must be imported."""
    import orlicz_risk.cli  # noqa: F401  (imports every submodule)

    def mod(name):
        return sys.modules[f"orlicz_risk.{name}"]

    for module, attr, layer in SPANS:
        fn = getattr(mod(module), attr)
        _rebind(fn, tracer.span(layer, fn))

    scenario_cls = mod("scenario").Scenario
    load = scenario_cls.__dict__["from_file"].__func__
    scenario_cls.from_file = classmethod(tracer.span("scenario.load", load))
    scalarized = mod("risk").ScalarizedRisk
    scalarized.conjugate_numeric = tracer.span("risk.conjugate_numeric", scalarized.conjugate_numeric)

    # report.bytes: size of every file the report writers produce
    for attr in ("write_report_json", "write_atoms_csv"):
        writer = getattr(mod("report"), attr)

        def sized(path, *args, _writer=writer):
            _writer(path, *args)
            tracer.counts["report.bytes"] += Path(path).stat().st_size

        _rebind(writer, sized)

    for attr in YOUNG_FACTORIES:
        factory = getattr(mod("young"), attr)

        def young_factory(*args, _factory=factory, **kwargs):
            phi = _factory(*args, **kwargs)
            return dataclasses.replace(phi, eval=tracer.counted("young.phi_calls", phi.eval))

        _rebind(factory, young_factory)

    for attr in RISK_FACTORIES:
        factory = getattr(mod("risk"), attr)

        def risk_factory(*args, _factory=factory, **kwargs):
            rho = _factory(*args, **kwargs)
            return dataclasses.replace(rho, evaluate=tracer.span("risk.evaluate", rho.evaluate))

        _rebind(factory, risk_factory)
