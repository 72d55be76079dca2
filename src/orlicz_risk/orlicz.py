"""Conditional Luxemburg and Amemiya norms, the Koethe pairing, operator
norms of pairing functionals, and recovery of densities from linear local
functionals.

Every quantity decomposes per atom of the conditioning algebra: the norm of x
given the algebra is the vector of plain Orlicz norms of x restricted to each
atom under the normalized atom weights.  Both norms are one monotone
root-find in the scale mu = 1/lam, solved for all atoms at once by a
lock-step bisection: the smallest mu with E[F(|x|/mu) | atom] <= 1, where F
is phi for the Luxemburg norm and psi(t) = t*phi'(t) - phi(t) = phi*(phi'(t))
for the Amemiya norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError, BracketError, ParameterError
from .prob_space import (
    RandomVar,
    SubAlgebra,
    FiniteProbSpace,
    _atom_weights,
    _require_finite,
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

# relative width to which every norm root-find is solved
_REL_TOL = 1e-10


@dataclass(frozen=True)
class CondNorm:
    """A conditional norm value: one number per atom, broadcast to a
    measurable variable, with per-atom attainment flags for infima that are
    only approached."""

    per_atom: RandomVar
    attained: tuple[bool, ...]
    atom_values: np.ndarray


def _cond_norm(x: RandomVar, alg: SubAlgebra, values: np.ndarray, attained) -> CondNorm:
    return CondNorm(RandomVar(alg.broadcast(values), x.space),
                    tuple(bool(a) for a in attained), values)


def _smallest_scale(x: RandomVar, alg: SubAlgebra, F: Callable):
    """Per atom, the smallest scale mu with E[F(|x|/mu) | atom] <= 1 for a
    nondecreasing F, by one bisection over all atoms from the bracket
    [max|x| * 2**-60, max|x|].  Returns the solve report, the largest |x| per
    atom, and `expect(G, mu)`, the conditional expectations of G(|x|/mu).
    An atom where x vanishes is reported at its left edge (attained False)."""
    absx = np.abs(x.values)[alg.order]
    weights = _atom_weights(x.space, alg)[alg.order]
    atom = alg.atom_of[alg.order]
    peak = np.maximum.reduceat(absx, alg.starts)

    def expect(G: Callable, mu: np.ndarray) -> np.ndarray:
        return np.add.reduceat(weights * G(absx / mu[..., atom]), alg.starts, axis=-1)

    m = np.where(peak > 0.0, peak, 1.0)
    try:
        report = solvers.bisect_monotone(lambda mu: expect(F, mu), 1.0, m * 2.0 ** -60, m,
                                         _REL_TOL)
    except BracketError as exc:
        # the solver's elements are the atoms, in order
        raise DivergenceError(f"modular never reached 1 on an atom: {exc}") from exc
    return report, peak, expect


def luxemburg_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn) -> CondNorm:
    """Per atom: inf{lam > 0 : E[phi(|x|/lam) | atom] <= 1}, by one lock-step
    bisection on lam over all atoms (the modular is nonincreasing in lam).
    Atoms where x vanishes get 0.  The modular is continuous in lam for the
    non-step families, so the infimum is attained.

    Step-shaped phi (zero below a threshold, inf at or beyond it) admit the
    exact formula max|x| / threshold, which is used instead of bisection so
    the sup-norm case is exact.
    """
    _require_finite(x, "luxemburg_norm")
    if phi.step_threshold is not None:
        values = alg.atom_max(np.abs(x.values)) / phi.step_threshold
        at_threshold = phi.eval(phi.step_threshold) <= 1.0
        return _cond_norm(x, alg, values, at_threshold | (values == 0.0))
    report, peak, _ = _smallest_scale(x, alg, phi.eval)
    values = np.where(peak > 0.0, report.arg, 0.0)
    return _cond_norm(x, alg, values, [True] * alg.n_atoms)


def amemiya_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn) -> CondNorm:
    """Per atom: inf over mu > 0 of mu * (1 + E[phi(|x|/mu) | atom]).

    The objective is convex in mu with right derivative 1 - E[psi(|x|/mu)],
    psi(t) = t*phi'(t) - phi(t) = phi*(phi'(t)) nonnegative and
    nondecreasing, so the minimizer is the smallest mu with
    E[psi(|x|/mu) | atom] <= 1, found by one lock-step bisection over all
    atoms.  When E[psi] stays <= 1 down to the domain edge
    mu_lo = max|x| / finite_sup, the infimum sits at the edge: for mu_lo > 0
    it is mu_lo * (1 + E[phi(|x|/mu_lo)]), attained iff phi(finite_sup) is
    finite; for mu_lo = 0 it is the limit sup_slope * E[|x|], not attained.
    Needs the `deriv` and `conjugate_closed_form` fields of phi.
    """
    _require_finite(x, "amemiya_norm")
    for name in ("deriv", "conjugate_closed_form"):
        if getattr(phi, name) is None:
            raise ParameterError(f"amemiya_norm needs the Young function field {name!r}")

    def psi(t):
        # phi*(phi'(t)) is exact where phi is linear, unlike the difference
        # t*phi'(t) - phi(t), which cancels at large t; the difference stands
        # in where phi* jumps to inf at phi's slope (the conjugate of linf)
        slope = phi.deriv(t)
        conj = phi.conjugate_closed_form(slope)
        gap = conj == math.inf
        if gap.any():
            with np.errstate(invalid="ignore"):
                diff = t * slope - phi.eval(t)
            conj = np.where(gap & ~np.isnan(diff), diff, conj)
        return conj

    report, peak, expect = _smallest_scale(x, alg, psi)
    mu = report.arg
    mu_lo = peak / phi.finite_sup
    barrier = (mu_lo > 0.0) & (mu - mu_lo <= _REL_TOL * mu)
    included = math.isfinite(phi.finite_sup) and math.isfinite(phi.eval(phi.finite_sup))
    mu = np.where(barrier & included, mu_lo, mu)
    values = mu * (1.0 + expect(phi.eval, mu))
    limit = ~report.attained
    if math.isfinite(phi.sup_slope):
        values = np.where(limit, phi.sup_slope * expect(lambda t: t, np.ones_like(mu)), values)
    attained = ~limit & (included | ~barrier)
    return _cond_norm(x, alg, np.where(peak > 0.0, values, 0.0), attained | (peak == 0.0))


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
    supremum, and the pairing bound it certifies is safe.
    """
    _require_finite(y, "pairing_operator_norm")
    return amemiya_norm(abs(y), alg, conjugate_young_fn(phi))


def recover_density(mu: Callable[[RandomVar], RandomVar], space: FiniteProbSpace,
                    alg: SubAlgebra, seed: int = 0) -> RandomVar:
    """Invert a linear, local functional mu into its density: the y with
    mu(x) = E[x*y | algebra] for all x.

    Linearity and locality are verified on 4 random probes before inversion,
    and the recovered density is cross-checked on 4 fresh probes, each to a
    relative 1e-9; violations raise a ContractError identifying the failing
    probe.
    """
    rng = np.random.default_rng(seed)
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
