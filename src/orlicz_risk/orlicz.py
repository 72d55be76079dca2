"""Conditional Luxemburg and Amemiya norms, the Koethe pairing, operator
norms of pairing functionals, and recovery of densities from linear local
functionals.

Every quantity decomposes per atom of the conditioning algebra: the norm of x
given the algebra is the vector of plain Orlicz norms of x restricted to each
atom under the normalized atom weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError, BracketError
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


@dataclass(frozen=True)
class CondNorm:
    """A conditional norm value: one number per atom, broadcast to a
    measurable variable, with per-atom attainment flags for infima that are
    only approached."""

    per_atom: RandomVar
    method_tag: str
    tolerance_used: float
    attained: tuple[bool, ...]
    atom_values: np.ndarray


def _bracket_thresholds(phi: YoungFn) -> tuple[float, float]:
    """A point T with phi(T) >= 1 and a point t0 with phi(t0) <= 1, used to
    seed the Luxemburg bisection bracket."""
    if math.isfinite(phi.finite_sup):
        probes_up = [phi.finite_sup * (1.0 - 2.0 ** -k) for k in range(1, 50)]
        probes_up.append(phi.finite_sup)
    else:
        probes_up = [2.0 ** k for k in range(61)]
    t_star = None
    for t in probes_up:
        if phi.eval(t) >= 1.0:
            t_star = t
            break
    if t_star is None:
        t_star = probes_up[-1]
    t0 = min(1.0, phi.finite_sup / 2.0 if math.isfinite(phi.finite_sup) else 1.0)
    for _ in range(60):
        if phi.eval(t0) <= 1.0:
            break
        t0 /= 2.0
    return t_star, t0


def _atomwise_norm(x: RandomVar, alg: SubAlgebra, method: str, rel_tol: float,
                   solve_atom: Callable[[int, np.ndarray, np.ndarray, float], tuple[float, bool]],
                   ) -> CondNorm:
    """Run `solve_atom(k, |x| on atom k, weights within atom k, max |x| on
    atom k)` on every atom where x does not vanish; such atoms get 0,
    attained."""
    _require_finite(x, f"{method}_norm")
    absx = np.abs(x.values)
    weights = _atom_weights(x.space, alg)
    peaks = alg.atom_max(absx)
    values = np.zeros(alg.n_atoms)
    attained = [True] * alg.n_atoms
    for k, idx in enumerate(np.split(alg.order, alg.starts[1:])):
        if peaks[k] > 0.0:
            values[k], attained[k] = solve_atom(k, absx[idx], weights[idx], float(peaks[k]))
    return CondNorm(
        RandomVar(alg.broadcast(values), x.space), method, rel_tol, tuple(attained), values
    )


def luxemburg_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn,
                   rel_tol: float = 1e-10) -> CondNorm:
    """Per atom: inf{lam > 0 : E[phi(|x|/lam) | atom] <= 1}, by bisection on
    lam (the modular is nonincreasing in lam).  Atoms where x vanishes get 0.

    Step-shaped phi (zero below a threshold, inf at or beyond it) admit the
    exact formula max|x| / threshold, which is used instead of bisection so
    the sup-norm case is exact.
    """
    if phi.step_threshold is not None:
        threshold = phi.step_threshold
        at_threshold = phi.eval(threshold) <= 1.0
        return _atomwise_norm(x, alg, "luxemburg", rel_tol,
                              lambda k, xa, w, m: (m / threshold, at_threshold))
    t_star, t0 = _bracket_thresholds(phi)

    def solve_atom(k: int, xa: np.ndarray, w: np.ndarray, m: float) -> tuple[float, bool]:
        def modular(lam: float) -> float:
            return float(sum(wi * phi.eval(v / lam) for wi, v in zip(w, xa)))

        try:
            report = solvers.bisect_monotone(modular, 1.0, m / t_star, m / t0, rel_tol)
        except BracketError as exc:
            raise DivergenceError(
                f"modular never reached 1 for atom {alg.atoms[k]}: {exc}"
            ) from exc
        # the modular is continuous in lam for the non-step families, so the
        # infimum is a minimum on a finite space
        return report.arg, True

    return _atomwise_norm(x, alg, "luxemburg", rel_tol, solve_atom)


def amemiya_norm(x: RandomVar, alg: SubAlgebra, phi: YoungFn,
                 rel_tol: float = 1e-10) -> CondNorm:
    """Per atom: inf over lam > 0 of (1 + E[phi(lam*|x|) | atom]) / lam, by
    golden section on log(lam).

    The search bracket is restricted to the region where the modular is
    finite; infima only approached as lam grows (linear-growth phi) or at the
    finite-domain barrier are reported as limit values with attained=False.
    """

    def solve_atom(k: int, xa: np.ndarray, w: np.ndarray, m: float) -> tuple[float, bool]:
        def objective_loglam(u: float) -> float:
            lam = math.exp(u)
            total = 1.0
            for wi, v in zip(w, xa):
                total += wi * phi.eval(lam * v)
                if math.isinf(total):
                    return math.inf
            return total / lam

        lam0 = 1.0 / m
        lo = math.log(lam0 / 8.0)
        hi = math.log(lam0 * 8.0)
        barrier_included = False
        expand_right = True
        if math.isfinite(phi.finite_sup):
            lam_bar = phi.finite_sup / m
            barrier_included = math.isfinite(phi.eval(phi.finite_sup))
            edge = lam_bar if barrier_included else lam_bar * (1.0 - 1e-12)
            hi = math.log(edge)
            lo = min(lo, hi - 4.0)
            expand_right = False
        report = solvers.golden_min(
            objective_loglam, lo, hi, rel_tol=rel_tol,
            expand_left=True, expand_right=expand_right,
            expand_factor=4.0, limit_rel_improvement=1e-12,
        )
        ok = report.attained
        if report.boundary == "right" and not expand_right and barrier_included:
            ok = True
        return report.value, ok

    return _atomwise_norm(x, alg, "amemiya", rel_tol, solve_atom)


def pairing(x: RandomVar, y: RandomVar, alg: SubAlgebra) -> RandomVar:
    """The Koethe pairing E[x*y | algebra]; bilinear, measurable output."""
    _require_finite(x, "pairing")
    _require_finite(y, "pairing")
    return cond_expectation(x * y, alg)


def pairing_operator_norm(y: RandomVar, alg: SubAlgebra, phi: YoungFn,
                          rel_tol: float = 1e-10) -> CondNorm:
    """Per atom: sup{|E[x*y | atom]| : Luxemburg norm of x on the atom <= 1}.

    The supremum of this linear functional over the unit ball equals, by
    finite-dimensional Fenchel duality, the Amemiya norm of y under the
    conjugate Young function (the classical Orlicz-norm identity); it is
    computed by the one-dimensional dual search, which can only over- and
    never under-estimate the supremum, so the pairing bound it certifies is
    safe.
    """
    _require_finite(y, "pairing_operator_norm")
    conj = conjugate_young_fn(phi)
    cn = amemiya_norm(abs(y), alg, conj, rel_tol)
    return CondNorm(cn.per_atom, "pairing_operator", rel_tol, cn.attained, cn.atom_values)


def recover_density(mu: Callable[[RandomVar], RandomVar], space: FiniteProbSpace,
                    alg: SubAlgebra, probes: int = 4, seed: int = 0,
                    rel_tol: float = 1e-9) -> RandomVar:
    """Invert a linear, local functional mu into its density: the y with
    mu(x) = E[x*y | algebra] for all x.

    Linearity and locality are verified on random probes before inversion,
    and the recovered density is cross-checked on fresh probes; violations
    raise a ContractError identifying the failing probe.
    """
    rng = np.random.default_rng(seed)
    n = space.n_outcomes

    def rand_var() -> RandomVar:
        return RandomVar(rng.normal(size=n), space)

    for _ in range(probes):
        a, b = rand_var(), rand_var()
        alpha = float(rng.normal())
        lhs = mu(a * alpha + b).values
        rhs = alpha * mu(a).values + mu(b).values
        scale = 1.0 + np.abs(rhs).max()
        if np.abs(lhs - rhs).max() > rel_tol * scale:
            raise ContractError(
                f"functional is not linear: probe alpha={alpha!r} deviates by "
                f"{np.abs(lhs - rhs).max():.3e}"
            )
        for atom in alg.atoms:
            ind = space.indicator(atom)
            masked = np.abs((mu(a * ind) * ind - mu(a) * ind).values).max()
            if masked > rel_tol * scale:
                raise ContractError(
                    f"functional is not local on atom {atom}: deviation {masked:.3e}"
                )

    atom_prob = alg.broadcast(alg.atom_sum(space.probs))
    y = np.empty(n)
    for omega in range(n):
        y[omega] = mu(space.indicator([omega])).values[omega] * atom_prob[omega] / space.probs[omega]
    density = RandomVar(y, space)

    for _ in range(probes):
        a = rand_var()
        lhs = mu(a).values
        rhs = pairing(a, density, alg).values
        scale = 1.0 + np.abs(rhs).max()
        if np.abs(lhs - rhs).max() > rel_tol * scale:
            raise ContractError(
                "recovered density fails to reproduce the functional on a probe"
            )
    return density
