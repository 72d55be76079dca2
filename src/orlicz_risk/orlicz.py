"""Conditional Luxemburg and Amemiya norms, the Koethe pairing, operator
norms of pairing functionals, and recovery of densities from linear local
functionals.

Every quantity decomposes per atom of the conditioning algebra: the norm of x
given the algebra is the vector of plain Orlicz norms of x restricted to each
atom under the normalized atom weights.  Both norms are one monotone
root-find in the scale mu = 1/lam, solved for all atoms at once by one
bisection in which every atom has its own bracket and stops on its own: the
smallest mu with E[F(|x|/mu) | atom] <= 1, where F is phi for the Luxemburg
norm and psi(t) = t*phi'(t) - phi(t) = phi*(phi'(t)) for the Amemiya norm.
So the value on an atom depends on x only through its values there, bit
for bit.

The two norms and the pairing operator norm also take a stack of positions,
one per row, and solve every row and atom in the same bisection.  Their
`atom_values` are then one row per position, `per_atom` the stack of the
broadcast rows, and `attained` one tuple of flags per position.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, DivergenceError, BracketError, ParameterError
from .prob_space import (
    RandomVar,
    SubAlgebra,
    FiniteProbSpace,
    _atom_weights,
    _check_dims,
    _require_finite,
    _rng,
    cond_expectation,
)
from .young import YoungFn, conjugate_young_fn
from . import solvers

__all__ = [
    "CondNorm",
    "luxemburg_norm",
    "amemiya_norm",
    "pairing",
    "pairing_operator_norm",
    "recover_density",
]

class CondNorm(NamedTuple):
    """A conditional norm value: one number per atom, broadcast to a
    measurable variable, with per-atom attainment flags for infima that are
    only approached; for a stack of positions, one row of each per position."""

    per_atom: RandomVar
    attained: tuple[bool, ...]
    atom_values: np.ndarray


def _cond_norm(name: str, x: RandomVar, alg: SubAlgebra, values: np.ndarray, attained,
               e=0) -> CondNorm:
    """The norm `name` with atom values `values * 2**e`; a ContractError where
    one passes the largest float."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, e)
    if not np.isfinite(values).all():
        raise ContractError(f"{name} overflows the largest float")
    flags = np.broadcast_to(attained, values.shape).tolist()
    flags = tuple(map(tuple, flags)) if values.ndim == 2 else tuple(flags)
    return CondNorm(RandomVar(alg.broadcast(values), x.space), flags, values)


def _smallest_scale(x: RandomVar, alg: SubAlgebra, F: Callable):
    """Per atom, the smallest scale mu with E[F(|x|/mu) | atom] <= 1 for a
    nondecreasing F, by one bisection over all atoms.  Each atom is solved
    at unit scale: its |x| is multiplied by 2**-e, with e the binary
    exponent that brings its largest value `peak` into [0.5, 1), and every
    atom has the same bracket [2**-121, 2**60], so its solve reads nothing
    but its own values and the norms are local to the last bit.  Scaling by
    a power of two with `np.ldexp` is exact and never forms 2**e itself,
    which overflows for e = 1024, so a tiny or huge x takes the same steps
    as a moderate one.
    Returns the solve report, `peak`, and `expect(G, mu)`, the conditional
    expectations of G(|x|/mu), all at unit scale, then `e`: the scale of x
    is `np.ldexp(mu, e)`.  An atom where x vanishes is reported at its left
    edge (attained False), as is an atom where E[F(|x|/mu)] <= 1 already at
    mu = 2**-121; one where it exceeds 1 at mu = 2**60 raises a
    DivergenceError."""
    absx = np.abs(x.values).take(alg.order, -1)
    weights = _atom_weights(x.space, alg)[alg.order]
    atom = alg.atom_of[alg.order]
    e = np.frexp(np.maximum.reduceat(absx, alg.starts, axis=-1))[1]
    absx = np.ldexp(absx, -e.take(atom, -1))
    peak = np.maximum.reduceat(absx, alg.starts, axis=-1)

    def expect(G: Callable, mu: np.ndarray) -> np.ndarray:
        return np.add.reduceat(weights * G(absx / mu.take(atom, -1)), alg.starts, axis=-1)

    try:
        report = solvers.bisect_monotone(lambda mu: expect(F, mu), 1.0,
                                         np.full_like(peak, 2.0 ** -121), 2.0 ** 60)
    except BracketError as exc:
        # the solver's elements are the atoms, in order
        raise DivergenceError(f"modular never reached 1 on an atom: {exc}") from exc
    return report, peak, expect, e


def luxemburg_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn) -> CondNorm:
    """Per atom: inf{lam > 0 : E[phi(|x|/lam) | atom] <= 1}, by one
    bisection on lam over all atoms (the modular is nonincreasing in lam).
    Atoms where x vanishes get 0.  phi is left-continuous, so the modular
    is right-continuous in lam and the infimum is attained.

    A step phi (0 up to a finite finite_sup, inf beyond) has the exact
    value max|x| / finite_sup, used instead of bisection so the sup-norm
    case is exact.
    """
    _require_finite(x, "luxemburg_norm")
    _check_dims(x, alg, True)
    if math.isfinite(phi.finite_sup) and phi.eval(phi.finite_sup) == 0.0:
        with np.errstate(over="ignore"):
            values = alg.atom_max(np.abs(x.values)) / phi.finite_sup
        return _cond_norm("luxemburg_norm", x, alg, values, True)
    report, peak, _, e = _smallest_scale(x, alg, phi.eval)
    return _cond_norm("luxemburg_norm", x, alg, np.where(peak > 0.0, report.arg, 0.0), True, e)


def amemiya_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn) -> CondNorm:
    """Per atom: inf over mu > 0 of mu * (1 + E[phi(|x|/mu) | atom]).

    The objective is convex in mu with right derivative 1 - E[psi(|x|/mu)],
    psi(t) = t*phi'(t) - phi(t) = phi*(phi'(t)) nonnegative and
    nondecreasing, so the minimizer is the smallest mu with
    E[psi(|x|/mu) | atom] <= 1, found by one bisection over all atoms.  When
    E[psi] stays <= 1 down to the domain edge mu_lo = max|x| / finite_sup,
    the infimum sits at the edge; the bisection stops within
    solvers._WIDTH floats above its root, and a mu that close to mu_lo is
    taken to be the edge.  For mu_lo > 0 the infimum is
    mu_lo * (1 + E[phi(|x|/mu_lo)]), attained, since a left-continuous
    phi is finite at a finite finite_sup (a hand-built phi infinite there
    keeps the bisection's mu, not attained); for mu_lo = 0 it is the limit
    sup_slope * E[|x|], not attained.  For a step phi, psi is 0 below
    finite_sup and inf from it, so the infimum is max|x| / finite_sup.
    Needs the `deriv` and `conjugate_closed_form` fields of phi.
    """
    _require_finite(x, "amemiya_norm")
    _check_dims(x, alg, True)
    for name in ("deriv", "conjugate_closed_form"):
        if getattr(phi, name) is None:
            raise ParameterError(f"amemiya_norm needs the Young function field {name!r}")

    def psi(t):
        # phi*(phi'(t)) is exact where phi is linear, unlike the difference
        # t*phi'(t) - phi(t), which cancels at large t
        return phi.conjugate_closed_form(phi.deriv(t))

    report, peak, expect, e = _smallest_scale(x, alg, psi)
    mu = report.arg
    mu_lo = peak / phi.finite_sup
    barrier = (mu_lo > 0.0) & (mu.view(np.int64) - mu_lo.view(np.int64) <= solvers._WIDTH)
    included = math.isfinite(phi.finite_sup) and math.isfinite(phi.eval(phi.finite_sup))
    mu = np.where(barrier & included, mu_lo, mu)
    # |x|/mu <= finite_sup for mu >= mu_lo; the clip keeps a rounded |x|/mu_lo
    # off the inf beyond it
    values = mu * (1.0 + expect(lambda t: phi.eval(np.minimum(t, phi.finite_sup)), mu))
    limit = ~report.attained
    if math.isfinite(phi.sup_slope):
        values = np.where(limit, phi.sup_slope * expect(lambda t: t, np.ones_like(mu)), values)
    attained = ~limit & (included | ~barrier)
    return _cond_norm("amemiya_norm", x, alg, np.where(peak > 0.0, values, 0.0),
                      attained | (peak == 0.0), e)


def pairing(x: RandomVar, y: RandomVar, alg: SubAlgebra) -> RandomVar:
    """The Koethe pairing E[x*y | algebra]; bilinear, measurable output."""
    _require_finite(x, "pairing")
    _require_finite(y, "pairing")
    return cond_expectation(x * y, alg)


def pairing_operator_norm(y: RandomVar, alg: SubAlgebra, phi: YoungFn) -> CondNorm:
    """Per atom: sup{|E[x*y | atom]| : Luxemburg norm of x on the atom <= 1}.

    The supremum of this linear functional over the unit ball equals, by
    finite-dimensional Fenchel duality, the Amemiya norm of y under the
    conjugate Young function (the classical Orlicz-norm identity), computed
    by the same lock-step psi-root as `amemiya_norm`.  Its value sits at or
    above the infimum, so it can only over- and never under-estimate the
    supremum, and the pairing bound it certifies is safe.  Needs the
    `conjugate_deriv` field of phi, which is the conjugate's `deriv`.  A
    value past the largest float raises ContractError naming this function.
    """
    _require_finite(y, "pairing_operator_norm")
    if phi.conjugate_deriv is None:
        raise ParameterError("pairing_operator_norm needs the Young function field 'conjugate_deriv'")
    conj = conjugate_young_fn(phi)
    try:
        return amemiya_norm(abs(y), alg, conj)
    except ContractError as exc:  # an overflow, named for amemiya_norm
        raise ContractError(str(exc).replace("amemiya_norm", "pairing_operator_norm")) from None


def recover_density(mu: Callable[[RandomVar], RandomVar], space: FiniteProbSpace,
                    alg: SubAlgebra, seed: int = 0) -> RandomVar:
    """Invert a linear, local functional mu into its density: the y with
    mu(x) = E[x*y | algebra] for all x.

    Linearity and locality are verified on 4 random probes before inversion,
    and the recovered density is cross-checked on 4 fresh probes, each to a
    relative 1e-9; violations raise a ContractError identifying the failing
    probe.
    """
    rng = _rng(seed)
    n = space.n_outcomes

    def rand_var() -> RandomVar:
        return RandomVar(rng.normal(size=n), space)

    for _ in range(4):
        a, b = rand_var(), rand_var()
        alpha = float(rng.normal())
        lhs = mu(a * alpha + b).values
        rhs = alpha * mu(a).values + mu(b).values
        scale = 1.0 + np.abs(rhs).max()
        if np.abs(lhs - rhs).max() > 1e-9 * scale:
            raise ContractError(
                f"functional is not linear: probe alpha={alpha!r} deviates by "
                f"{np.abs(lhs - rhs).max():.3e}"
            )
        for atom in alg.atoms:
            ind = space.indicator(atom)
            masked = np.abs((mu(a * ind) * ind - mu(a) * ind).values).max()
            if masked > 1e-9 * scale:
                raise ContractError(
                    f"functional is not local on atom {atom}: deviation {masked:.3e}"
                )

    atom_prob = alg.broadcast(alg.atom_sum(space.probs))
    y = np.empty(n)
    for omega in range(n):
        y[omega] = mu(space.indicator([omega])).values[omega] * atom_prob[omega] / space.probs[omega]
    density = RandomVar(y, space)

    for _ in range(4):
        a = rand_var()
        lhs = mu(a).values
        rhs = pairing(a, density, alg).values
        scale = 1.0 + np.abs(rhs).max()
        if np.abs(lhs - rhs).max() > 1e-9 * scale:
            raise ContractError(
                "recovered density fails to reproduce the functional on a probe"
            )
    return density
