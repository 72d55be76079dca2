"""The invariant suite behind the `verify` command.

Each check is a generator over one algebra that yields its rows as
(check, atom, position, quantity, value, allowed); it computes values and
bounds, never flags.  `verify_scenario` runs the checks of `_CHECKS` in
their fixed order and alone sets each row's `passed` flag, by one rule: a
row passes when its value is at most its `allowed`, or, where `allowed` is
inf (the `*_definite` rows), when its value is positive.  The suite passes
iff every row passes, and the rows go into one table of
`report.CSV_COLUMNS` columns.  Random probes are seeded, and every check of
an algebra draws from one generator in that fixed order, so a given
scenario, seed, and tolerance set always produces the same rows.
"""

from __future__ import annotations

import math

import numpy as np

from .prob_space import RandomVar, SubAlgebra, _atom_weights, _rng
from .orlicz import amemiya_norm, luxemburg_norm, pairing, pairing_operator_norm
from .risk import (
    PENALTY_BOUND_TOL,
    PROBE_TOL,
    _tolerance,
    attainment_check,
    lebesgue_check,
    locality_check,
    extension_check,
    penalty_bound_check,
    robust_representation,
    scalarize,
)
from .report import add_rows, new_table, quantity_rows
from .scenario import Scenario

__all__ = ["verify_scenario", "TOL_GAP", "TOL_NORM"]

# default tolerances of the duality-gap and scalarization rows, and of the
# norm inequality rows
TOL_GAP = 1e-6
TOL_NORM = 1e-8


def _feasible_density(rng, space, alg: SubAlgebra) -> RandomVar:
    """A random dual-feasible y: componentwise negative with conditional mean
    -1 on every atom, bounded away from 0 for well-conditioned penalties."""
    q = rng.uniform(0.2, 2.0, size=space.n_outcomes)
    mean = alg.atom_sum(_atom_weights(space, alg) * q)
    return RandomVar(-q / mean[alg.atom_of], space)


def _norm_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    """The norm axiom, Luxemburg/Amemiya equivalence and Hoelder rows, from
    one Luxemburg solve, one Amemiya solve and one `pairing_operator_norm`
    call on the stack of every probe."""
    n = sc.space.n_outcomes
    x, z, lam = map(np.array, zip(*[
        (rng.normal(size=n), rng.normal(size=n), rng.uniform(0.2, 3.0, size=alg.n_atoms))
        for _ in range(3)]))
    names = [*sc.positions, "probe0", "probe1", "probe2"]
    equiv = [pos.values for pos in sc.positions.values()] + [rng.normal(size=n) for _ in range(3)]
    hx, hy = map(sc.space.var, zip(*[(rng.normal(size=n), rng.normal(size=n)) for _ in range(4)]))
    # rows 0-2 x, 3-5 z, 6-8 lam*x, 9-11 x+z per trial, 12 the zero position,
    # then the equivalence positions and probes, then the four Hoelder x,
    # which only the Luxemburg solve takes
    stack = np.concatenate([x, z, x * alg.broadcast(lam), x + z, np.zeros((1, n)), equiv, hx.values])
    lux = luxemburg_norm(sc.space.var(stack), alg, sc.young).atom_values
    ame = amemiya_norm(sc.space.var(stack[:-4]), alg, sc.young).atom_values
    norms = {"luxemburg": lux, "amemiya": ame}
    for trial in range(3):
        for method, values in norms.items():
            nx, nz, nlx, nxz = values[trial:12:3]
            for k, name, value, allowed in quantity_rows(
                    (f"{method}_homogeneity_rel_dev",
                     np.abs(nlx - lam[trial] * nx) / np.maximum(1.0, lam[trial] * nx), PROBE_TOL),
                    (f"{method}_triangle_excess", nxz - (nx + nz), PROBE_TOL),
                    (f"{method}_definite", nx, math.inf)):
                yield "norm_axioms", k, f"probe{trial}", name, value, allowed
    for method, values in norms.items():
        for k, value in enumerate(values[12]):
            yield "norm_axioms", k, "zero", f"{method}_zero", value, 0.0

    is_power2 = sc.young.family_tag == "power" and sc.young.params.get("p") == 2.0
    for name, lux_x, ame_x in zip(names, lux[13:], ame[13:]):
        for k in range(alg.n_atoms):
            yield "equivalence", k, name, "luxemburg_minus_amemiya", lux_x[k] - ame_x[k], tol_norm
            yield ("equivalence", k, name, "amemiya_minus_twice_luxemburg",
                   ame_x[k] - 2.0 * lux_x[k], tol_norm)
            if is_power2 and lux_x[k] > 0.0:
                yield ("equivalence", k, name, "power2_ratio_dev",
                       abs(ame_x[k] / lux_x[k] - 2.0), 1e-6)

    lhs = np.abs(pairing(hx, hy, alg).values[:, alg.first])
    excess = lhs - pairing_operator_norm(hy, alg, sc.young).atom_values * lux[-4:]
    for trial, row in enumerate(excess):
        for k, value in enumerate(row):
            yield "hoelder", k, f"probe{trial}", "pairing_excess", value, tol_norm


def _scalarization_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    s = scalarize(sc.risk, sc.space, alg)
    for trial in range(3):
        y = _feasible_density(rng, sc.space, alg)
        via_sup = s.conjugate_numeric(y)
        via_exp = s.conjugate_expected(y)
        dev = 0.0 if math.isinf(via_sup) and math.isinf(via_exp) else abs(via_sup - via_exp)
        yield "scalarization", -1, f"probe{trial}", "conjugate_route_dev", dev, tol_gap


def _probe_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    for check, rep in (("locality", locality_check(sc.risk, sc.space, alg, trials=3, seed=seed)),
                       ("extension", extension_check(sc.risk, sc.space, alg, alg, trials=3,
                                                     seed=seed))):
        yield check, -1, "", "max_deviation", rep.max_deviation, PROBE_TOL


def _penalty_bound_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    probes = []
    for name, x in list(sc.positions.items())[:2]:
        beta = 1e-3 + float(np.max(-sc.risk.evaluate(x, alg).values))
        probes.append((name, x, robust_representation(sc.risk, x, alg).y, beta))
    for trial in range(2):
        x = RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)
        y = _feasible_density(rng, sc.space, alg)
        probes.append((f"probe{trial}", x, y, float(rng.uniform(0.0, 2.0))))
    for name, x, y, beta in probes:
        for row in penalty_bound_check(sc.risk, x, y, beta, alg).atoms:
            yield ("penalty_bound", row.atom, name,
                   "penalty_minus_bound" if row.hypothesis_holds else "hypothesis_skipped",
                   row.penalty - row.bound if row.hypothesis_holds else 0.0, PENALTY_BOUND_TOL)


def _lebesgue_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    rep = lebesgue_check(sc.risk, sc.space, alg, trials=4, seed=seed)
    yield "lebesgue", -1, "", "tail_deviation_n10000", rep.max_tail_deviation, tol_gap


def _attainment_checks(sc: Scenario, alg, rng, seed, tol_gap, tol_norm):
    probes = list(sc.positions.items())
    for trial in range(2):
        probes.append((f"probe{trial}", RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)))
    for name, x in probes:
        yield ("attainment", -1, name, "max_equality_gap",
               attainment_check(sc.risk, x, alg).max_equality_gap, tol_gap)


# The checks, in row order.  Every check of an algebra draws its probes from
# one generator, in this order, so the order fixes the draws as well as the
# rows: a check inserted before another shifts that check's draws.
_CHECKS = (_norm_checks, _scalarization_checks, _probe_checks, _penalty_bound_checks,
           _lebesgue_checks, _attainment_checks)


def verify_scenario(sc: Scenario, seed: int = 0, tol_gap: float = TOL_GAP,
                    tol_norm: float = TOL_NORM) -> tuple[dict, bool]:
    """Run the full invariant suite on a scenario; returns the per-atom table
    (`report.new_table`) and an overall pass flag.  Each tolerance must be
    a finite number >= 0."""
    tol_gap, tol_norm = _tolerance("tol_gap", tol_gap), _tolerance("tol_norm", tol_norm)
    table = new_table()
    for alg_name, alg in sc.algebras.items():
        rng = _rng(seed)
        rows = [row for check in _CHECKS for row in check(sc, alg, rng, seed, tol_gap, tol_norm)]
        checks, atoms, positions, quantities, values, allowed = map(list, zip(*rows))
        values, allowed = list(map(float, values)), list(map(float, allowed))
        # the pass rule of every row
        passed = [v > 0.0 if a == math.inf else v <= a for v, a in zip(values, allowed)]
        add_rows(table, checks, [alg_name] * len(rows), atoms, positions, quantities, values,
                 allowed, passed)
    return table, all(table["passed"])
