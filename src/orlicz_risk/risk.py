"""Conditional convex risk measures and their robust dual representations.

A conditional convex risk measure maps a position x to a measurable variable
of the conditioning algebra and is monotone (decreasing), convex against
measurable weights, and cash invariant.  Its penalty function (the Fenchel
conjugate) is finite only on densities y <= 0 with conditional mean -1, and
the risk value is recovered as the supremum of E[x*y|F] - penalty(y) over
those densities.  On a finite space everything decomposes per atom.

A measure carries its closed forms as data: its penalty
(`conjugate_closed_form`) and its maximizing density q = -y (`density`), the
dual certificate.  The entropic, worst-case and expected-loss measures have
both; a measure without a density has it read off its gradient, and one
without a penalty has it computed numerically.  A measure that lacks either
is probed for the axioms and locality on the space and algebra of each call
that relies on them.

A measure's `evaluate` also takes a stack of positions, one per row, and
returns the stack of their values; `custom` runs its map row by row.  Every
other entry point here takes one position and raises StructuralError on a
stack.

The module holds the mathematics only: the `scenario` module builds a
measure from a scenario entry, through its table of measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ContractError, ParameterError, StructuralError
from .prob_space import (
    FiniteProbSpace,
    Filtration,
    RandomVar,
    SubAlgebra,
    _atom_weights,
    _check_dims,
    _require_finite,
    _rng,
    cond_expectation,
    ess_sup_cond,
    is_measurable,
)
from . import solvers
from .young import _as_number

__all__ = [
    "CondRiskMeasure",
    "DualCertificate",
    "DynamicRiskMeasure",
    "entropic",
    "worst_case",
    "linear",
    "custom",
    "fenchel_conjugate",
    "robust_representation",
    "attainment_check",
    "lebesgue_check",
    "scalarize",
    "ScalarizedRisk",
    "locality_check",
    "extension_check",
    "penalty_bound_check",
    "dynamic_evaluate",
    "check_axioms",
    "dual_feasible_atoms",
]

INF = math.inf

# feasibility tolerances for dual densities: y <= 0 and E[y|F] = -1 per atom
_FEAS_SIGN_TOL = 1e-12
_FEAS_MEAN_TOL = 1e-10
# the largest deviation the locality, extension and axiom probes pass, and
# the slack of the penalty bound; `verify` reports them as its rows' allowed
PROBE_TOL = 1e-9
PENALTY_BOUND_TOL = 1e-8
# the most position entries (positions times outcomes) `locality_check` and
# `extension_check` send to rho in one call
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class CondRiskMeasure:
    """Immutable description of a conditional convex risk measure: an
    evaluation map, an optional closed-form penalty, the measure's name, and
    an optional closed-form dual maximizer: the density q = -y, per outcome,
    that attains rho(x) = E[x*y|F] - penalty(y)."""

    evaluate: Callable[[RandomVar, SubAlgebra], RandomVar]
    conjugate_closed_form: Callable[[RandomVar, SubAlgebra], RandomVar] | None
    tag: str
    density: Callable[[RandomVar, SubAlgebra], np.ndarray] | None = None


class DualCertificate(NamedTuple):
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


def _tolerance(name: str, value) -> float:
    """`value` as a float if it is a finite number >= 0; anything else
    raises ParameterError naming the parameter."""
    if (value := _as_number(name, value)) < 0.0:
        raise ParameterError(f"parameter {name} must be >= 0, got {value!r}")
    return value


def dual_feasible_atoms(y: RandomVar, alg: SubAlgebra) -> list[bool]:
    """Per atom: y <= 0 within 1e-12 and E[y | atom] = -1 within 1e-10."""
    return _feasible(y, alg)[0].tolist()


def _feasible(y: RandomVar, alg: SubAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """`dual_feasible_atoms` as a bool array, with the within-atom weights
    (`_atom_weights`) it used."""
    _check_dims(y, alg)
    weights = _atom_weights(y.space, alg)
    sign_ok = alg.atom_max(y.values) <= _FEAS_SIGN_TOL
    mean = alg.atom_sum(weights * y.values)
    return sign_ok & (np.abs(mean + 1.0) <= _FEAS_MEAN_TOL), weights


def entropic(gamma: float) -> CondRiskMeasure:
    """Entropic risk: per atom, log of E[exp(-gamma*x)|F] divided by gamma.
    Penalty of a feasible density q = -y is the relative entropy E[q log q|F]
    over gamma; infeasible densities get inf.  The maximizing density is the
    Gibbs density, proportional to exp(-gamma*x) on each atom.  A position
    on which gamma*x overflows raises ContractError; one whose exponents
    -gamma*x on an atom span more than the float range is fine, each
    exponent that far below the atom's largest has weight exactly 0."""
    gamma = _as_number("gamma", gamma)
    if gamma <= 0.0:
        raise ParameterError(f"entropic risk needs gamma > 0, got {gamma}")

    @np.errstate(over="ignore")  # -inf, whose exp is an exact 0
    def exponents(x: RandomVar, alg: SubAlgebra) -> tuple[np.ndarray, np.ndarray]:
        """-gamma*x less each atom's largest exponent, which is the shift
        returned with it, so nothing overflows in exp.  An exponent that
        falls below that shift by more than the float range is -inf."""
        a = -gamma * x.values
        shift = alg.atom_max(a)
        if not np.isfinite(shift).all():
            raise ContractError(f"entropic risk with gamma {gamma}: gamma * x overflows")
        return a - shift.take(alg.atom_of, -1), shift

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "entropic risk")
        _check_dims(x, alg, True)
        p = x.space.probs
        e, shift = exponents(x, alg)
        # the numerator and the denominator go through the same reduction,
        # so on a constant position they are equal and rho(const) is exact
        mass = alg.atom_sum(p)
        mean = alg.atom_sum(p * np.exp(e)) / mass
        log_mean = np.log(mean)
        # a mean near 1 (small gamma) keeps its digits as 1 + mean(expm1)
        near_one = mean > 1.0 - 2.0 ** -10
        if near_one.any():
            log_mean[near_one] = np.log1p(alg.atom_sum(p * np.expm1(e)) / mass)[near_one]
        return RandomVar(alg.broadcast((shift + log_mean) / gamma), x.space)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        feas, weights = _feasible(y, alg)
        # infeasible atoms may hold +-inf; only feasible ones enter the sum
        q = np.where(feas[alg.atom_of], np.maximum(-y.values, 0.0), 0.0)
        # E[q log q - q + 1 | F], whose last two terms cancel on a feasible
        # q: each term is O((q - 1)^2), so a q within gamma of 1 keeps its
        # digits where the sum of q log q alone would cancel
        terms = q * np.log(np.where(q > 0.0, q, 1.0)) - (q - 1.0)
        entropy = alg.atom_sum(weights * terms) / gamma
        return RandomVar(alg.broadcast(np.where(feas, entropy, INF)), y.space)

    def density(x: RandomVar, alg: SubAlgebra) -> np.ndarray:
        e = np.exp(exponents(x, alg)[0])
        return e / alg.atom_sum(_atom_weights(x.space, alg) * e)[alg.atom_of]

    return CondRiskMeasure(evaluate, conj, "entropic", density)


def worst_case() -> CondRiskMeasure:
    """Worst-case risk: per-atom maximum of -x.  Every feasible density has
    zero penalty.  The maximizing density is the simplex vertex at the
    lowest-index minimum of x on each atom, whatever order the atom lists its
    outcomes in."""

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "worst-case risk")
        return ess_sup_cond(-x, alg)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        return RandomVar(alg.broadcast(np.where(_feasible(y, alg)[0], 0.0, INF)), y.space)

    def density(x: RandomVar, alg: SubAlgebra) -> np.ndarray:
        n = x.space.n_outcomes
        low = alg.atom_min(x.values)
        vertex = alg.atom_min(np.where(x.values == low[alg.atom_of], np.arange(n), n))
        q = np.zeros(n)
        q[vertex] = 1.0 / _atom_weights(x.space, alg)[vertex]
        return q

    return CondRiskMeasure(evaluate, conj, "worst_case", density)


def linear() -> CondRiskMeasure:
    """Expected-loss risk: -E[x|F].  The only zero-penalty density is the
    constant 1, which is also the maximizing one; every other density gets
    inf."""

    def evaluate(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        _require_finite(x, "linear risk")
        return cond_expectation(-x, alg)

    def conj(y: RandomVar, alg: SubAlgebra) -> RandomVar:
        uniform = alg.atom_max(np.abs(y.values + 1.0)) <= _FEAS_MEAN_TOL
        return RandomVar(alg.broadcast(np.where(uniform, 0.0, INF)), y.space)

    return CondRiskMeasure(evaluate, conj, "linear", lambda x, alg: np.ones(x.space.n_outcomes))


def custom(evaluate: Callable[[RandomVar, SubAlgebra], RandomVar]) -> CondRiskMeasure:
    """Wrap a black-box evaluation map; its penalty is computed numerically
    and its dual density read off its gradient.  Each call that conjugates or
    dynamically evaluates it first runs the axiom and locality probes on that
    call's space and algebra.  The map sees one position at a time: a stack
    is evaluated row by row."""

    def rowwise(x: RandomVar, alg: SubAlgebra) -> RandomVar:
        if x.values.ndim == 1:
            return evaluate(x, alg)
        rows = [evaluate(RandomVar(row, x.space), alg).values for row in x.values]
        return RandomVar(np.reshape(rows, x.values.shape), x.space)

    return CondRiskMeasure(rowwise, None, "custom")


def _validate_custom(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra):
    """Raise ContractError unless the measure passes the axiom and locality
    probes on this space and algebra.  A measure with both a closed-form
    density and a closed-form penalty passes as it is; a pass on one algebra
    says nothing about another."""
    if rho.density is not None and rho.conjugate_closed_form is not None:
        return
    axioms = check_axioms(rho, space, alg, trials=6, seed=7)
    if not axioms.passed:
        raise ContractError(f"risk measure fails the axiom probes: {axioms}")
    loc = locality_check(rho, space, alg, trials=4, seed=7)
    if not loc.passed:
        raise ContractError("risk measure fails the locality probes")


def _numeric_conjugate(rho: CondRiskMeasure, y: RandomVar, alg: SubAlgebra) -> Iterator[float]:
    """Per atom in turn, sup over positions x of E[x*y|atom] - rho(x) on the
    atom, by coordinate ascent over the atom's outcomes started at 0.
    Locality lets each atom be maximized on its own.  Atoms where y violates
    y <= 0 or E[y|F] = -1 get inf outright: the supremum diverges there.
    The caller validates the measure first."""
    space = y.space
    weights = _atom_weights(space, alg)
    for ok, idx in zip(dual_feasible_atoms(y, alg), np.split(alg.order, alg.starts[1:])):
        if not ok:
            yield INF
            continue
        wy = weights[idx] * y.values[idx]  # E[x*y|atom] = sum(wy * x)
        base = np.zeros(space.n_outcomes)

        def objective(xa: np.ndarray) -> float:
            base[idx] = xa
            rv = RandomVar(base, space)  # RandomVar copies base
            return float(np.add.reduce(wy * xa)) - float(rho.evaluate(rv, alg).values[idx[0]])

        yield solvers._coordinate_ascent_sup(objective, len(idx))


def fenchel_conjugate(rho: CondRiskMeasure, y: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Penalty value per atom: sup over positions x of E[x*y|atom] - rho(x).

    Uses the closed form when available, otherwise `_numeric_conjugate`
    after validating the measure."""
    _check_dims(y, alg)
    if rho.conjugate_closed_form is None:
        _validate_custom(rho, y.space, alg)
    return _penalty(rho, y, alg)


def _penalty(rho: CondRiskMeasure, y: RandomVar, alg: SubAlgebra) -> RandomVar:
    """`fenchel_conjugate` of a measure already validated."""
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
    """The maximizer y = -q of E[x*y|F] - penalty(y) over feasible
    densities, per atom, with its penalty and the gap against the primal
    value.

    q is the measure's closed-form `density`, or else the envelope density
    from backward differences of rho; the penalty is the one
    `fenchel_conjugate` takes.  A measure without both closed forms is
    validated first.  The gap is the primal value minus the dual objective
    -E[x*q|F] - penalty at that density, each computed on its own, so it
    measures how good the certificate is.
    """
    _require_finite(x, "robust_representation")
    _check_dims(x, alg)
    space = x.space
    _validate_custom(rho, space, alg)
    primal = rho.evaluate(x, alg)
    q = rho.density(x, alg) if rho.density is not None else _envelope_density(rho, x, alg, primal)
    y = RandomVar(-q, space)
    penalty = _penalty(rho, y, alg)
    dual = -alg.atom_sum(_atom_weights(space, alg) * x.values * q) - penalty.values[alg.first]
    return DualCertificate(y, penalty,
                           RandomVar(alg.broadcast(primal.values[alg.first] - dual), space))


class AttainmentReport(NamedTuple):
    max_equality_gap: float
    passed: bool


def attainment_check(rho: CondRiskMeasure, x: RandomVar, alg: SubAlgebra,
                     tol: float = 1e-6) -> AttainmentReport:
    """Verify the dual maximizer achieves rho(x) = E[x y|F] - penalty(y)
    within tol per atom.  On a finite space a continuous risk measure always
    attains its representation, so failures indicate solver trouble.  `tol`
    must be a finite number >= 0."""
    tol = _tolerance("tol", tol)
    gaps = np.abs(robust_representation(rho, x, alg).gap.values[alg.first])
    return AttainmentReport(float(gaps.max()), bool((gaps <= tol).all()))


class LebesgueReport(NamedTuple):
    deviations: tuple[tuple[int, float], ...]
    max_tail_deviation: float
    passed: bool


def _evaluate_stack(rho: CondRiskMeasure, stack: np.ndarray, space: FiniteProbSpace,
                    alg: SubAlgebra) -> np.ndarray:
    """rho of every position in a (..., n) stack, in one call, shaped like
    the stack; a space or algebra of another size raises StructuralError."""
    flat = RandomVar(stack.reshape(-1, stack.shape[-1]), space)
    return rho.evaluate(flat, alg).values.reshape(stack.shape)


def lebesgue_check(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                   trials: int = 10, amplitude: float = 5e-3, seed: int = 0,
                   tol: float = 1e-6) -> LebesgueReport:
    """Drive random dominated sequences x_n -> x and record how fast
    rho(x_n) approaches rho(x) per atom, at n = 1, 10, 100 and 10000.

    Perturbations have sup-norm at most `amplitude`, so cash invariance and
    monotonicity bound the deviation at index n by amplitude/n; the check
    asserts the measured tail deviation at n = 10000, not just the bound.
    `amplitude` must be >= 0 with 2 * amplitude, the width of the draw,
    finite, and `tol` a finite number >= 0."""
    rng = _rng(seed, trials)
    if not 0.0 <= 2.0 * _as_number("amplitude", amplitude) < INF:
        raise ParameterError(f"amplitude must be >= 0 with 2 * amplitude finite, got {amplitude!r}")
    tol = _tolerance("tol", tol)
    n = space.n_outcomes
    indices = [1, 10, 100, 10_000]
    # x, then u, of each trial in turn; x and every x + u/k go in one call
    draws = np.array([(rng.normal(size=n), rng.uniform(-amplitude, amplitude, size=n))
                      for _ in range(trials)]).reshape(trials, 2, n)
    x, u = draws[:, :1], draws[:, 1:]
    stack = np.concatenate([x, x + u * np.array([1.0 / k for k in indices])[:, None]], axis=1)
    r = _evaluate_stack(rho, stack, space, alg)
    worst = np.max(np.abs(r[:, 1:] - r[:, :1]), axis=(0, 2), initial=0.0).tolist()
    return LebesgueReport(tuple(zip(indices, worst)), worst[-1], worst[-1] <= tol)


class ScalarizedRisk(NamedTuple):
    """The static risk functional x -> E[rho(x | F)] with its conjugate
    computable two ways: definitionally (numeric supremum over positions,
    one atom at a time by locality) and as the expectation of the
    conditional penalty.  Each expectation sums p * value with
    `np.add.reduce`, numpy's own summation, which `SubAlgebra.atom_sum`
    also uses; a dot product would go to BLAS, whose kernel OpenBLAS picks
    by CPU at run time, and its last bits would change with that kernel."""

    rho: CondRiskMeasure
    space: FiniteProbSpace
    alg: SubAlgebra

    def evaluate(self, x: RandomVar) -> float:
        _check_dims(x, self.alg)
        vals = self.rho.evaluate(x, self.alg)
        return float(np.add.reduce(self.space.probs * vals.values))

    def conjugate_expected(self, y: RandomVar) -> float:
        pen = fenchel_conjugate(self.rho, y, self.alg)
        return float(np.add.reduce(self.space.probs * pen.values))

    def conjugate_numeric(self, y: RandomVar) -> float:
        _validate_custom(self.rho, y.space, self.alg)
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


class LocalityReport(NamedTuple):
    passed: bool
    max_deviation: float
    witness: tuple | None


def _glue_deviations(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                     partition: SubAlgebra, trials: int, pieces) -> np.ndarray:
    """Per trial and atom A of the partition, the largest deviation on A
    between rho of the trial's glued position and rho of its piece for A.
    `pieces(t, k)` returns the piece of trial t[i] for atom k[i] as row i;
    it is called in row order.  Each trial's pieces, atom by atom, then
    their glue go to rho in blocks of at most `_STACK_ENTRIES` position
    entries, so memory stays linear in the number of outcomes."""
    n, n_pieces = partition.n_outcomes, partition.n_atoms
    rows = trials * (n_pieces + 1)
    block = max(1, _STACK_ENTRIES // n)
    # each trial's pieces glued along the partition, and rho of its pieces
    # glued the same way
    glued, r_glued = np.empty((2, trials, n))
    dev = np.empty((trials, n_pieces))
    for start in range(0, rows, block):
        t, k = np.divmod(np.arange(start, min(start + block, rows)), n_pieces + 1)
        glue = k == n_pieces
        stack = np.empty((len(t), n))
        stack[~glue] = pieces(t[~glue], k[~glue])
        # each piece row's own atom; a glue row has none
        row, outcome = np.nonzero(partition.atom_of == k[:, None])
        glued[t[row], outcome] = stack[row, outcome]
        stack[glue] = glued[t[glue]]
        r = _evaluate_stack(rho, stack, space, alg)
        r_glued[t[row], outcome] = r[row, outcome]
        dev[t[glue]] = partition.atom_max(np.abs(r[glue] - r_glued[t[glue]]))
    return dev


def locality_check(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                   trials: int = 8, seed: int = 0) -> LocalityReport:
    """Probe 1_A rho(1_A x) = 1_A rho(x) within 1e-9 for random x and every
    atom A, one probe per atom and trial; the first violating (A, x) pair,
    trial by trial and atom by atom, is reported as a witness.

    Locality is the probe of `extension_check` along the algebra's own
    atoms with pieces x * 1_A, whose glue is x bit for bit, and the two
    checks run one routine: the probes go to rho in blocks of at most 2**16
    position entries, so memory stays linear in the number of outcomes; a
    small space takes one call.

    Locality on every atom implies it on every union B of atoms: for an atom
    A inside B, 1_A rho(1_B x) = 1_A rho(1_A 1_B x) = 1_A rho(1_A x) = 1_A rho(x)."""
    x = _rng(seed, trials).normal(size=(trials, alg.n_outcomes))
    dev = _glue_deviations(rho, space, alg, alg, trials,
                           lambda t, k: x[t] * (alg.atom_of == k[:, None]))
    max_dev = float(np.max(dev, initial=0.0))
    witness = None
    if max_dev > PROBE_TOL:
        t, k = np.argwhere(dev > PROBE_TOL)[0]
        witness = (alg.atoms[k], x[t].copy())
    return LocalityReport(max_dev <= PROBE_TOL, max_dev, witness)


class ExtensionReport(NamedTuple):
    passed: bool
    max_deviation: float


def extension_check(rho: CondRiskMeasure, space: FiniteProbSpace, alg: SubAlgebra,
                    partition: SubAlgebra, trials: int = 8, seed: int = 0) -> ExtensionReport:
    """Gluing random positions along a partition into measurable pieces and
    then evaluating equals, within 1e-9, evaluating each piece and gluing
    the results.  The probes go to rho in blocks as in `locality_check`."""
    if partition.n_outcomes != alg.n_outcomes:
        raise StructuralError(
            f"algebra indexes {alg.n_outcomes} outcomes, partition {partition.n_outcomes}")
    if not alg.refines(partition):
        raise StructuralError("partition pieces must be measurable: the "
                              "conditioning algebra must refine the partition")
    rng = _rng(seed, trials)
    max_dev = float(np.max(_glue_deviations(
        rho, space, alg, partition, trials,
        lambda t, k: rng.normal(size=(len(t), partition.n_outcomes))), initial=0.0))
    return ExtensionReport(max_dev <= PROBE_TOL, max_dev)


class PenaltyBoundAtom(NamedTuple):
    atom: int
    hypothesis_holds: bool
    penalty: float
    bound: float
    ok: bool


class PenaltyBoundReport(NamedTuple):
    atoms: tuple[PenaltyBoundAtom, ...]
    passed: bool


def penalty_bound_check(rho: CondRiskMeasure, x: RandomVar, y: RandomVar,
                        beta: float, alg: SubAlgebra) -> PenaltyBoundReport:
    """On every atom where E[x*y|F] - penalty(y) >= -beta, the penalty obeys
    penalty(y) <= 2*beta + 2*rho(-2|x|), within 1e-8.  The risk measure is
    normalized to rho(0) = 0 before checking; atoms failing the hypothesis
    are skipped, not the whole instance.  `beta` must be finite, x and y
    must be finite, and a position x on which -2|x| overflows raises
    ContractError.  A bound past the largest float is inf, and holds."""
    beta = _as_number("beta", beta)
    _require_finite(x, "penalty_bound_check")
    _require_finite(y, "penalty_bound_check")
    _check_dims(x, alg)
    with np.errstate(over="ignore"):
        neg_double = abs(x) * -2.0
    if not neg_double.is_finite():
        raise ContractError("penalty_bound_check: -2|x| overflows")
    space = x.space
    zero_level = rho.evaluate(space.var(np.zeros(space.n_outcomes)), alg).values
    pen = fenchel_conjugate(rho, y, alg).values + zero_level
    bound_term = rho.evaluate(neg_double, alg).values - zero_level
    first = alg.first
    # E[x*y|F] as the atom sum of (w*y)*x, w the within-atom weights: on a
    # feasible atom |w*y| <= 1, so no term exceeds |x| although x*y may
    # overflow.  An infeasible atom's penalty is inf, so its hypothesis
    # fails even where its sum overflows to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        exy = alg.atom_sum(_atom_weights(space, alg) * y.values * x.values)
        hyp = exy - pen[first] >= -beta - 1e-12
        rhs = 2.0 * beta + 2.0 * bound_term[first]
    ok = ~hyp | (pen[first] <= rhs + PENALTY_BOUND_TOL)
    rows = tuple(
        PenaltyBoundAtom(k, *row)
        for k, row in enumerate(zip(hyp.tolist(), pen[first].tolist(), rhs.tolist(), ok.tolist()))
    )
    return PenaltyBoundReport(rows, all(r.ok for r in rows))


def dynamic_evaluate(D: DynamicRiskMeasure, x: RandomVar) -> list[RandomVar]:
    """Evaluate every stage of a dynamic risk measure; each stage value is
    measurable w.r.t. its own algebra.  A stage measure without both closed
    forms is validated on its algebra first, as `robust_representation`
    validates it.  No relation across stages is asserted."""
    _require_finite(x, "dynamic_evaluate")
    out = []
    for alg, rho in D.stages:
        _validate_custom(rho, x.space, alg)
        value = rho.evaluate(x, alg)
        if not is_measurable(value, alg):
            raise ContractError("stage value is not measurable w.r.t. its algebra")
        out.append(value)
    return out


class AxiomReport(NamedTuple):
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
    rng = _rng(seed, trials)
    n = alg.n_outcomes  # a space of another size fails in RandomVar
    draws = [[rng.normal(size=n), np.abs(rng.normal(size=n)),
              alg.broadcast(rng.normal(size=alg.n_atoms)), rng.normal(size=n),
              alg.broadcast(rng.uniform(0.0, 1.0, size=alg.n_atoms))] for _ in range(trials)]
    x, d, m, y, lam = np.array(draws).reshape(trials, 5, n).transpose(1, 0, 2)
    stack = np.stack([x, x + d, x + m, x * lam + y * (1.0 - lam), y])
    rx, rxd, rxm, mix, ry = _evaluate_stack(rho, stack, space, alg)
    deviations = (rxd - rx, np.abs(rxm - (rx - m)), mix - (lam * rx + (1.0 - lam) * ry))
    # monotonicity, cash invariance, convexity
    worst = np.array([np.max(dev, initial=0.0) for dev in deviations])
    mono_ok, cash_ok, convex_ok = (worst <= PROBE_TOL).tolist()
    return AxiomReport(mono_ok, cash_ok, convex_ok, float(worst.max()),
                       mono_ok and cash_ok and convex_ok)
