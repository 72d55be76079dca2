"""Conditional convex risk measures and their robust dual representations.

A conditional convex risk measure maps a position x to a measurable variable
of the conditioning algebra and is monotone (decreasing), convex against
measurable weights, and cash invariant.  Its penalty function (the Fenchel
conjugate) is finite only on densities y <= 0 with conditional mean -1, and
the risk value is recovered as the supremum of E[x*y|F] - penalty(y) over
those densities.  On a finite space everything decomposes per atom, and the
maximizing density, the dual certificate, is computed in closed form for the
entropic, worst-case and expected-loss measures and read off the gradient for
a black-box one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, ParameterError, StructuralError
from .prob_space import (
    FiniteProbSpace,
    Filtration,
    RandomVar,
    SubAlgebra,
    _atom_weights,
    _require_finite,
    concatenate,
    cond_expectation,
    ess_sup_cond,
    is_measurable,
)
from . import solvers
from .young import reject_unknown, spec_number

__all__ = [
    "CondRiskMeasure",
    "DualCertificate",
    "DynamicRiskMeasure",
    "entropic",
    "worst_case",
    "linear",
    "custom",
    "risk_from_spec",
    "fenchel_conjugate",
    "robust_representation",
    "attainment_check",
    "lebesgue_check",
    "scalarize",
    "ScalarizedRisk",
    "locality_check",
    "extension_check",
    "penalty_bound_check",
    "uniform_order_continuity_check",
    "dynamic_evaluate",
    "check_axioms",
    "dual_feasible_atoms",
]

INF = math.inf

# feasibility tolerances for dual densities: y <= 0 and E[y|F] = -1 per atom
_FEAS_SIGN_TOL = 1e-12
_FEAS_MEAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CondRiskMeasure:
    """Immutable description of a conditional convex risk measure: an
    evaluation map, an optional closed-form penalty, and a tag that selects
    the closed-form dual certificate."""

    evaluate: Callable[[RandomVar, SubAlgebra], RandomVar]
    conjugate_closed_form: Callable[[RandomVar, SubAlgebra], RandomVar] | None
    tag: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DualCertificate:
    """A dual density y (y <= 0, E[y|F] = -1 per atom) with its penalty and
    the primal-dual gap, all measurable w.r.t. the conditioning algebra."""

    y: RandomVar
    penalty: RandomVar
    gap: RandomVar


@dataclass(frozen=True)
class DynamicRiskMeasure:
    """One conditional risk measure per stage of a filtration."""

    stages: tuple[tuple[SubAlgebra, CondRiskMeasure], ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        Filtration(tuple(alg for alg, _ in stages))  # validates refinement
        object.__setattr__(self, "stages", stages)


def _xlogx(q: np.ndarray) -> np.ndarray:
    q = np.maximum(q, 0.0)
    return np.where(q > 0.0, q * np.log(np.maximum(q, 1e-300)), 0.0)


def dual_feasible_atoms(y: RandomVar, alg: SubAlgebra) -> list[bool]:
    """Per atom: y <= 0 within 1e-12 and E[y | atom] = -1 within 1e-10."""
    sign_ok = alg.atom_max(y.values) <= _FEAS_SIGN_TOL
    mean = alg.atom_sum(_atom_weights(y.space, alg) * y.values)
    return (sign_ok & (np.abs(mean + 1.0) <= _FEAS_MEAN_TOL)).tolist()


def entropic(gamma: float) -> CondRiskMeasure:
    """Entropic risk: per atom, log of E[exp(-gamma*x)|F] divided by gamma.
    Penalty of a feasible density q = -y is the relative entropy E[q log q|F]
    over gamma; infeasible densities get inf."""
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ParameterError(f"entropic risk needs gamma > 0, got {gamma}")

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "entropic risk")
        p = x.space.probs
        a = -gamma * x.values
        shift = alg.atom_max(a)
        # the numerator and the denominator go through the same reduction,
        # so on a constant position they are equal and rho(const) is exact
        mean = alg.atom_sum(p * np.exp(a - shift[alg.atom_of])) / alg.atom_sum(p)
        return RandomVar(alg.broadcast((shift + np.log(mean)) / gamma), x.space)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        feas = np.array(dual_feasible_atoms(y, alg))
        # infeasible atoms may hold +-inf; only feasible ones enter the sum
        q = np.where(feas[alg.atom_of], np.maximum(-y.values, 0.0), 0.0)
        entropy = alg.atom_sum(_atom_weights(y.space, alg) * _xlogx(q)) / gamma
        return RandomVar(alg.broadcast(np.where(feas, entropy, INF)), y.space)

    return CondRiskMeasure(evaluate, conj, "entropic", {"gamma": gamma})


def worst_case() -> CondRiskMeasure:
    """Worst-case risk: per-atom maximum of -x.  Every feasible density has
    zero penalty."""

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "worst-case risk")
        return ess_sup_cond(-x, alg)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        feas = np.array(dual_feasible_atoms(y, alg))
        return RandomVar(alg.broadcast(np.where(feas, 0.0, INF)), y.space)

    return CondRiskMeasure(evaluate, conj, "worst_case")


def linear() -> CondRiskMeasure:
    """Expected-loss risk: -E[x|F].  The only zero-penalty density is the
    constant 1; every other density gets inf."""

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "linear risk")
        return cond_expectation(-x, alg)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        uniform = alg.atom_max(np.abs(y.values + 1.0)) <= _FEAS_MEAN_TOL
        return RandomVar(alg.broadcast(np.where(uniform, 0.0, INF)), y.space)

    return CondRiskMeasure(evaluate, conj, "linear")


def custom(evaluate: Callable[[RandomVar, SubAlgebra], RandomVar]) -> CondRiskMeasure:
    """Wrap a black-box evaluation map; its penalty is computed numerically.
    Conjugation demands that the map first passes the axiom and locality
    probes."""
    return CondRiskMeasure(evaluate, None, "custom")


def risk_from_spec(spec: Mapping) -> CondRiskMeasure:
    """Build a risk measure from a scenario entry
    {"measure": "entropic"|"worst_case"|"linear", "params": {...}}."""
    measure = spec.get("measure")
    params = spec.get("params", {})
    if measure == "entropic":
        reject_unknown(params, "gamma")
        return entropic(spec_number(params, "gamma"))
    if measure == "worst_case":
        reject_unknown(params)
        return worst_case()
    if measure == "linear":
        reject_unknown(params)
        return linear()
    raise ParameterError(f"unknown risk measure {measure!r}")


_validated_customs: "weakref.WeakSet[CondRiskMeasure]" = weakref.WeakSet()


def _ensure_custom_validated(rho: CondRiskMeasure, space: FiniteProbSpace,
                             alg: SubAlgebra):
    if rho.tag != "custom" or rho in _validated_customs:
        return
    axioms = check_axioms(rho, space, alg, trials=6, seed=7)
    if not axioms.passed:
        raise ContractError(f"custom risk measure fails the axiom probes: {axioms}")
    loc = locality_check(lambda v: rho.evaluate(v, alg), space, alg, trials=4, seed=7)
    if not loc.passed:
        raise ContractError("custom risk measure fails the locality probes")
    _validated_customs.add(rho)


# sweeps of the coordinate ascent; it stops earlier once a sweep gains nothing
_MAX_SWEEPS = 120


def _coordinate_ascent_sup(objective: Callable[[np.ndarray], float], n: int) -> float:
    """Supremum of a concave objective over R^n by cyclic coordinate ascent
    started at 0, with per-coordinate golden section line searches.

    A line search that is still improving at its expansion cap signals an
    objective unbounded above; the supremum is then inf."""
    x = np.zeros(n)
    fx = objective(x)
    radius = np.ones(n)
    for sweep in range(_MAX_SWEEPS):
        improved = 0.0
        tol = 1e-4 if sweep == 0 else max(1e-11, 1e-4 * 10.0 ** (-sweep))
        for i in range(n):
            xi = x[i]

            def line(t: float) -> float:
                x[i] = t
                v = -objective(x)
                x[i] = xi
                return v

            r = max(radius[i], 1e-6)
            rep = solvers.golden_min(
                line, xi - r, xi + r, rel_tol=tol, max_expand=80, limit_rel_improvement=1e-13,
            )
            if not rep.converged and rep.boundary is not None:
                return INF
            radius[i] = max(abs(rep.arg - xi) * 2.0, 1e-8)
            if -rep.value > fx:
                improved += -rep.value - fx
                fx = -rep.value
                x[i] = rep.arg
        if improved <= 1e-12 * (1.0 + abs(fx)):
            break
    return fx


def _numeric_conjugate(rho: CondRiskMeasure, y: RandomVar, alg: SubAlgebra) -> Iterator[float]:
    """Per atom in turn, sup over positions x of E[x*y|atom] - rho(x) on the
    atom, by coordinate ascent over the atom's outcomes started at 0.
    Locality lets each atom be maximized on its own.  Atoms where y violates
    y <= 0 or E[y|F] = -1 get inf outright: the supremum diverges there."""
    _ensure_custom_validated(rho, y.space, alg)
    space = y.space
    weights = _atom_weights(space, alg)
    for ok, idx in zip(dual_feasible_atoms(y, alg), np.split(alg.order, alg.starts[1:])):
        if not ok:
            yield INF
            continue
        w = weights[idx]
        ya = y.values[idx]
        base = np.zeros(space.n_outcomes)

        def objective(xa: np.ndarray) -> float:
            base[idx] = xa
            rv = RandomVar(base.copy(), space)
            return float(np.dot(w, xa * ya)) - float(rho.evaluate(rv, alg).values[idx[0]])

        yield _coordinate_ascent_sup(objective, len(idx))


def fenchel_conjugate(rho: CondRiskMeasure, y: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Penalty value per atom: sup over positions x of E[x*y|atom] - rho(x).

    Uses the closed form when available, otherwise `_numeric_conjugate`."""
    if rho.conjugate_closed_form is not None:
        return rho.conjugate_closed_form(y, alg)
    return RandomVar(alg.broadcast(list(_numeric_conjugate(rho, y, alg))), y.space)


def _envelope_density(rho: CondRiskMeasure, x: RandomVar, alg: SubAlgebra,
                      primal: RandomVar) -> np.ndarray:
    """The dual maximizer of a black-box measure, read off its gradient.

    By the envelope theorem the backward difference (rho(x - h*e_i) - rho(x))/h
    on the atom of outcome i tends to w_i*q_i, with w the within-atom weights
    and q the maximizing density.  Forward differences would miss tied minima
    of worst-case-like measures, where every one of them is 0.  Cash invariance
    and convexity make the differences of an atom sum to at least 1, so the
    normalization to E[q|atom] = 1 never divides by zero."""
    space = x.space
    h = 1e-6 * max(1.0, float(np.max(np.abs(x.values))))
    wq = np.empty(space.n_outcomes)
    for i in range(space.n_outcomes):
        shifted = x.values.copy()
        shifted[i] -= h
        step = x.values[i] - shifted[i]
        rho_i = rho.evaluate(RandomVar(shifted, space), alg).values[i]
        wq[i] = max((rho_i - primal.values[i]) / step, 0.0)
    return wq / _atom_weights(space, alg) / alg.atom_sum(wq)[alg.atom_of]


def robust_representation(rho: CondRiskMeasure, x: RandomVar,
                          alg: SubAlgebra) -> DualCertificate:
    """The maximizer of E[x*y|F] - penalty(y) over feasible densities, per
    atom, in closed form, with the gap against the primal value.

    Worst-case risk takes the simplex vertex at the lowest-index minimum of x
    on each atom, whatever order the atom lists its outcomes in;
    the expected-loss risk has the single feasible zero-penalty density 1;
    entropic risk takes the Gibbs density q proportional to exp(-gamma*x); a
    custom measure takes the envelope density from backward differences of
    rho, with its penalty from `fenchel_conjugate`.  The gap is the primal
    value minus the dual objective at that density, each computed on its own,
    so it measures how good the certificate is.
    """
    _require_finite(x, "robust_representation")
    space = x.space
    primal = rho.evaluate(x, alg)
    if rho.tag not in ("worst_case", "linear", "entropic"):
        _ensure_custom_validated(rho, space, alg)
        y = RandomVar(-_envelope_density(rho, x, alg, primal), space)
        penalty = fenchel_conjugate(rho, y, alg)
        return DualCertificate(y, penalty, primal - (cond_expectation(x * y, alg) - penalty))
    w = _atom_weights(space, alg)
    xv = x.values
    pen = np.zeros(alg.n_atoms)
    if rho.tag == "worst_case":
        low = alg.atom_min(xv)
        # the lowest outcome index attaining each atom's minimum
        ties = np.where(xv == low[alg.atom_of], np.arange(space.n_outcomes), space.n_outcomes)
        vertex = alg.atom_min(ties)
        q = np.zeros(space.n_outcomes)
        q[vertex] = 1.0 / w[vertex]
        dual_value = -low
    elif rho.tag == "linear":
        q = np.ones(space.n_outcomes)
        dual_value = -alg.atom_sum(w * xv)
    else:
        # the Gibbs density, shifted by each atom's largest exponent so
        # nothing overflows
        gamma = float(rho.params["gamma"])
        a = -gamma * xv
        e = np.exp(a - alg.atom_max(a)[alg.atom_of])
        q = e / alg.atom_sum(w * e)[alg.atom_of]
        pen = alg.atom_sum(w * _xlogx(q)) / gamma
        dual_value = -alg.atom_sum(w * xv * q) - pen
    return DualCertificate(
        RandomVar(-q, space),
        RandomVar(alg.broadcast(pen), space),
        RandomVar(alg.broadcast(primal.values[alg.first] - dual_value), space),
    )


@dataclass(frozen=True)
class AttainmentReport:
    max_equality_gap: float
    passed: bool


def attainment_check(rho: CondRiskMeasure, x: RandomVar, alg: SubAlgebra,
                     tol: float = 1e-6) -> AttainmentReport:
    """Verify the dual maximizer achieves rho(x) = E[x y|F] - penalty(y)
    within tol per atom.  On a finite space a continuous risk measure always
    attains its representation, so failures indicate solver trouble."""
    gaps = np.abs(robust_representation(rho, x, alg).gap.values[alg.first])
    return AttainmentReport(float(gaps.max()), bool((gaps <= tol).all()))


@dataclass(frozen=True)
class LebesgueReport:
    deviations: tuple[tuple[int, float], ...]
    max_tail_deviation: float
    passed: bool


def lebesgue_check(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                   trials: int = 10, amplitude: float = 5e-3, seed: int = 0,
                   tol: float = 1e-6) -> LebesgueReport:
    """Drive random dominated sequences x_n -> x and record how fast
    rho(x_n) approaches rho(x) per atom, at n = 1, 10, 100 and 10000.

    Perturbations have sup-norm at most `amplitude`, so cash invariance and
    monotonicity bound the deviation at index n by amplitude/n; the check
    asserts the measured tail deviation at n = 10000, not just the bound."""
    rng = np.random.default_rng(seed)
    indices = [1, 10, 100, 10_000]
    worst = {n: 0.0 for n in indices}
    for _ in range(trials):
        x = RandomVar(rng.normal(size=space.n_outcomes), space)
        u = RandomVar(rng.uniform(-amplitude, amplitude, size=space.n_outcomes), space)
        rx = rho.evaluate(x, alg).values
        for n in indices:
            rn = rho.evaluate(x + u * (1.0 / n), alg).values
            worst[n] = max(worst[n], float(np.abs(rn - rx).max()))
    tail = worst[10_000]
    return LebesgueReport(tuple((n, worst[n]) for n in indices), tail, tail <= tol)


@dataclass(frozen=True)
class ScalarizedRisk:
    """The static risk functional x -> E[rho(x | F)] with its conjugate
    computable two ways: definitionally (numeric supremum over positions,
    one atom at a time by locality) and as the expectation of the
    conditional penalty."""

    rho: CondRiskMeasure
    space: FiniteProbSpace
    alg: SubAlgebra

    def evaluate(self, x: RandomVar) -> float:
        vals = self.rho.evaluate(x, self.alg)
        return float(np.dot(self.space.probs, vals.values))

    def conjugate_expected(self, y: RandomVar) -> float:
        pen = fenchel_conjugate(self.rho, y, self.alg)
        return float(np.dot(self.space.probs, pen.values))

    def conjugate_numeric(self, y: RandomVar) -> float:
        # no atom's supremum is -inf, so the sum is inf at the first inf atom
        total = 0.0
        atom_probs = self.alg.atom_sum(self.space.probs).tolist()
        for prob, value in zip(atom_probs, _numeric_conjugate(self.rho, y, self.alg)):
            total += prob * value
            if total == INF:
                break
        return total


def scalarize(rho: CondRiskMeasure, space: FiniteProbSpace,
              alg: SubAlgebra) -> ScalarizedRisk:
    """Collapse a conditional risk measure to the static one by averaging the
    conditional value; the static penalty is the expected conditional
    penalty."""
    return ScalarizedRisk(rho, space, alg)


@dataclass(frozen=True)
class LocalityReport:
    passed: bool
    max_deviation: float
    witness: tuple | None


def locality_check(f: Callable[[RandomVar], RandomVar], space: FiniteProbSpace,
                   alg: SubAlgebra, trials: int = 8, seed: int = 0) -> LocalityReport:
    """Probe 1_A f(1_A x) = 1_A f(x) within 1e-9 for random x and every atom
    A, one probe per atom and trial; the first violating (A, x) pair is
    reported as a witness.

    Locality on every atom implies it on every union B of atoms: for an atom
    A inside B, 1_A f(1_B x) = 1_A f(1_A 1_B x) = 1_A f(1_A x) = 1_A f(x)."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    witness = None
    for _ in range(trials):
        x = RandomVar(rng.normal(size=space.n_outcomes), space)
        fx = f(x)
        for atom in alg.atoms:
            ind = space.indicator(atom)
            dev = float(np.abs(((f(x * ind) * ind) - (fx * ind)).values).max())
            if dev > max_dev:
                max_dev = dev
                if dev > 1e-9 and witness is None:
                    witness = (atom, x.values.copy())
    return LocalityReport(max_dev <= 1e-9, max_dev, witness)


@dataclass(frozen=True)
class ExtensionReport:
    passed: bool
    max_deviation: float


def extension_check(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                    partition: SubAlgebra, trials: int = 8, seed: int = 0) -> ExtensionReport:
    """Gluing positions along a partition into measurable pieces and then
    evaluating equals, within 1e-9, evaluating each piece and gluing the
    results."""
    if not alg.refines(partition):
        raise StructuralError("partition pieces must be measurable: the "
                              "conditioning algebra must refine the partition")
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        pieces = [
            RandomVar(rng.normal(size=space.n_outcomes), space)
            for _ in range(partition.n_atoms)
        ]
        glued = rho.evaluate(concatenate(pieces, partition), alg)
        piecewise = concatenate(
            [rho.evaluate(piece, alg) for piece in pieces], partition
        )
        max_dev = max(max_dev, float(np.abs((glued - piecewise).values).max()))
    return ExtensionReport(max_dev <= 1e-9, max_dev)


@dataclass(frozen=True)
class PenaltyBoundAtom:
    atom: int
    hypothesis_holds: bool
    penalty: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class PenaltyBoundReport:
    atoms: tuple[PenaltyBoundAtom, ...]
    passed: bool


def penalty_bound_check(rho: CondRiskMeasure, x: RandomVar, y: RandomVar,
                        beta: float, alg: SubAlgebra) -> PenaltyBoundReport:
    """On every atom where E[x*y|F] - penalty(y) >= -beta, the penalty obeys
    penalty(y) <= 2*beta + 2*rho(-2|x|), within 1e-8.  The risk measure is
    normalized to rho(0) = 0 before checking; atoms failing the hypothesis
    are skipped, not the whole instance."""
    _require_finite(x, "penalty_bound_check")
    space = x.space
    zero_level = rho.evaluate(space.var(np.zeros(space.n_outcomes)), alg).values
    pen = fenchel_conjugate(rho, y, alg).values + zero_level
    exy = cond_expectation(x * y, alg).values
    bound_term = rho.evaluate(abs(x) * -2.0, alg).values - zero_level
    first = alg.first
    hyp = exy[first] - pen[first] >= -beta - 1e-12
    rhs = 2.0 * beta + 2.0 * bound_term[first]
    ok = ~hyp | (pen[first] <= rhs + 1e-8)
    rows = tuple(
        PenaltyBoundAtom(k, *row)
        for k, row in enumerate(zip(hyp.tolist(), pen[first].tolist(), rhs.tolist(), ok.tolist()))
    )
    return PenaltyBoundReport(rows, all(r.ok for r in rows))


@dataclass(frozen=True)
class UniformOrderContinuityReport:
    sup_pairings: np.ndarray  # one row per sequence element, one column per atom
    tail_per_atom: tuple[float, ...]
    passed: bool


def uniform_order_continuity_check(C: Sequence[RandomVar], alg: SubAlgebra,
                                   us: Sequence[RandomVar]) -> UniformOrderContinuityReport:
    """For a pointwise nonincreasing nonnegative sequence u_n -> 0, the
    quantities s_n = max over z in C of E[|u_n z| | atom] must drop to 1e-8
    at the tail; this is the finite-space surrogate for relative weak
    compactness of the solid hull of C."""
    for u in us:
        if np.any(u.values < 0.0):
            raise ContractError("sequence elements must be nonnegative")
    for earlier, later in zip(us, us[1:]):
        if np.any(later.values > earlier.values):
            raise ContractError("sequence must be pointwise nonincreasing")
    space = us[0].space
    u = np.array([v.values for v in us])
    absz = np.abs(np.array([z.values for z in C])).reshape(len(C), space.n_outcomes)
    # pairings[i, j, k] = E[u_i |z_j| | atom k]
    pairings = alg.atom_sum(_atom_weights(space, alg) * u[:, None, :] * absz)
    rows = pairings.max(axis=1, initial=0.0)
    tail = tuple(float(v) for v in rows[-1])
    return UniformOrderContinuityReport(rows, tail, all(v <= 1e-8 for v in tail))


def dynamic_evaluate(D: DynamicRiskMeasure, x: RandomVar, seed: int = 0) -> list[RandomVar]:
    """Evaluate every stage of a dynamic risk measure after probing its
    axioms; each stage value is measurable w.r.t. its own algebra.  No
    relation across stages is asserted."""
    _require_finite(x, "dynamic_evaluate")
    out = []
    for alg, rho in D.stages:
        report = check_axioms(rho, x.space, alg, trials=4, seed=seed)
        if not report.passed:
            raise ContractError(f"stage measure fails the axiom probes: {report}")
        value = rho.evaluate(x, alg)
        if not is_measurable(value, alg):
            raise ContractError("stage value is not measurable w.r.t. its algebra")
        out.append(value)
    return out


@dataclass(frozen=True)
class AxiomReport:
    monotone_ok: bool
    cash_ok: bool
    convex_ok: bool
    max_deviation: float
    passed: bool


def check_axioms(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                 trials: int = 6, seed: int = 0) -> AxiomReport:
    """Randomized probes of monotonicity, cash invariance against measurable
    amounts, and convexity against measurable weights; each holds when its
    largest deviation is at most 1e-9.  A probe whose deviation is NaN, as
    inf - inf, fails."""
    rng = np.random.default_rng(seed)
    n = space.n_outcomes
    worst = np.zeros(3)  # monotonicity, cash invariance, convexity
    for _ in range(trials):
        x = RandomVar(rng.normal(size=n), space)
        d = RandomVar(np.abs(rng.normal(size=n)), space)
        rx = rho.evaluate(x, alg).values
        rxd = rho.evaluate(x + d, alg).values

        m = RandomVar(alg.broadcast(rng.normal(size=alg.n_atoms)), space)
        cash = rho.evaluate(x + m, alg).values - (rx - m.values)

        y = RandomVar(rng.normal(size=n), space)
        lam = RandomVar(alg.broadcast(rng.uniform(0.0, 1.0, size=alg.n_atoms)), space)
        mix = rho.evaluate(x * lam + y * (1.0 - lam), alg).values
        ry = rho.evaluate(y, alg).values
        conv = mix - (lam.values * rx + (1.0 - lam.values) * ry)
        worst = np.maximum(worst, [np.max(rxd - rx), np.abs(cash).max(), np.max(conv)])
    mono_ok, cash_ok, convex_ok = (worst <= 1e-9).tolist()
    return AxiomReport(mono_ok, cash_ok, convex_ok, float(worst.max()),
                       mono_ok and cash_ok and convex_ok)
