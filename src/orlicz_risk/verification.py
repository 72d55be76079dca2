"""The invariant suite behind the `verify` command.

Each check appends its per-atom rows to one table of `report.CSV_COLUMNS`
columns; the suite passes iff every row passes.  Random
probes are seeded, so a given scenario, seed, and tolerance set always
produces the same rows.
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
from .report import add_rows, atom_rows, new_table
from .scenario import Scenario

__all__ = ["verify_scenario", "TOL_GAP", "TOL_NORM"]

# default tolerances of the duality-gap and scalarization rows, and of the
# norm inequality rows
TOL_GAP = 1e-6
TOL_NORM = 1e-8


def _row(table, check, algebra, atom, position, quantity, value, allowed, passed):
    add_rows(table, [check], [algebra], [atom], [position], [quantity], [float(value)],
             [float(allowed)], [bool(passed)])


def _feasible_density(rng, space, alg: SubAlgebra) -> RandomVar:
    """A random dual-feasible y: componentwise negative with conditional mean
    -1 on every atom, bounded away from 0 for well-conditioned penalties."""
    q = rng.uniform(0.2, 2.0, size=space.n_outcomes)
    mean = alg.atom_sum(_atom_weights(space, alg) * q)
    return RandomVar(-q / mean[alg.atom_of], space)


def _norm_rows(sc: Scenario, alg_name: str, alg, rng, tol_norm, table):
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
            hom_dev = np.abs(nlx - lam[trial] * nx) / np.maximum(1.0, lam[trial] * nx)
            tri = nxz - (nx + nz)
            atom_rows(
                table, "norm_axioms", alg_name, f"probe{trial}",
                (f"{method}_homogeneity_rel_dev", hom_dev.tolist(), 1e-9,
                 (hom_dev <= 1e-9).tolist()),
                (f"{method}_triangle_excess", tri.tolist(), 1e-9, (tri <= 1e-9).tolist()),
                (f"{method}_definite", nx.tolist(), math.inf, (nx > 0.0).tolist()),
            )
    for method, values in norms.items():
        atom_rows(table, "norm_axioms", alg_name, "zero",
                  (f"{method}_zero", values[12].tolist(), 0.0, (values[12] == 0.0).tolist()))

    is_power2 = sc.young.family_tag == "power" and sc.young.params.get("p") == 2.0
    for name, lux_x, ame_x in zip(names, lux[13:], ame[13:]):
        for k in range(alg.n_atoms):
            for quantity, value in (("luxemburg_minus_amemiya", lux_x[k] - ame_x[k]),
                                    ("amemiya_minus_twice_luxemburg", ame_x[k] - 2.0 * lux_x[k])):
                _row(table, "equivalence", alg_name, k, name, quantity, value, tol_norm,
                     value <= tol_norm)
            if is_power2 and lux_x[k] > 0.0:
                dev = abs(ame_x[k] / lux_x[k] - 2.0)
                _row(table, "equivalence", alg_name, k, name, "power2_ratio_dev",
                     dev, 1e-6, dev <= 1e-6)

    lhs = np.abs(pairing(hx, hy, alg).values[:, alg.first])
    excess = lhs - pairing_operator_norm(hy, alg, sc.young).atom_values * lux[-4:]
    for trial, row in enumerate(excess):
        atom_rows(table, "hoelder", alg_name, f"probe{trial}",
                  ("pairing_excess", row.tolist(), tol_norm, (row <= tol_norm).tolist()))


def _scalarization_rows(sc: Scenario, alg_name: str, alg, rng, tol_gap, table):
    s = scalarize(sc.risk, sc.space, alg)
    for trial in range(3):
        y = _feasible_density(rng, sc.space, alg)
        via_sup = s.conjugate_numeric(y)
        via_exp = s.conjugate_expected(y)
        dev = 0.0 if math.isinf(via_sup) and math.isinf(via_exp) else abs(via_sup - via_exp)
        _row(table, "scalarization", alg_name, -1, f"probe{trial}", "conjugate_route_dev",
             dev, tol_gap, dev <= tol_gap)


def _probe_rows(sc: Scenario, alg_name: str, alg, seed, table):
    for check, rep in (("locality", locality_check(sc.risk, sc.space, alg, trials=3, seed=seed)),
                       ("extension", extension_check(sc.risk, sc.space, alg, alg, trials=3,
                                                     seed=seed))):
        _row(table, check, alg_name, -1, "", "max_deviation", rep.max_deviation, PROBE_TOL,
             rep.passed)


def _penalty_bound_rows(sc: Scenario, alg_name: str, alg, rng, table):
    probes = []
    for name, x in list(sc.positions.items())[:2]:
        beta = 1e-3 + float(np.max(-sc.risk.evaluate(x, alg).values))
        probes.append((name, x, robust_representation(sc.risk, x, alg).y, beta))
    for trial in range(2):
        x = RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)
        y = _feasible_density(rng, sc.space, alg)
        probes.append((f"probe{trial}", x, y, float(rng.uniform(0.0, 2.0))))
    for name, x, y, beta in probes:
        for atom_row in penalty_bound_check(sc.risk, x, y, beta, alg).atoms:
            _row(table, "penalty_bound", alg_name, atom_row.atom, name,
                 "penalty_minus_bound" if atom_row.hypothesis_holds else "hypothesis_skipped",
                 atom_row.penalty - atom_row.bound if atom_row.hypothesis_holds else 0.0,
                 PENALTY_BOUND_TOL, atom_row.ok)


def _lebesgue_rows(sc: Scenario, alg_name: str, alg, seed, tol_gap, table):
    rep = lebesgue_check(sc.risk, sc.space, alg, trials=4, seed=seed, tol=tol_gap)
    _row(table, "lebesgue", alg_name, -1, "", "tail_deviation_n10000",
         rep.max_tail_deviation, tol_gap, rep.passed)


def _attainment_rows(sc: Scenario, alg_name: str, alg, rng, tol_gap, table):
    probes = list(sc.positions.items())
    for trial in range(2):
        probes.append((f"probe{trial}", RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)))
    for name, x in probes:
        rep = attainment_check(sc.risk, x, alg, tol=tol_gap)
        _row(table, "attainment", alg_name, -1, name, "max_equality_gap",
             rep.max_equality_gap, tol_gap, rep.passed)


def verify_scenario(sc: Scenario, seed: int = 0, tol_gap: float = TOL_GAP,
                    tol_norm: float = TOL_NORM) -> tuple[dict, bool]:
    """Run the full invariant suite on a scenario; returns the per-atom table
    (`report.new_table`) and an overall pass flag.  Each tolerance must be
    a finite number >= 0."""
    tol_gap, tol_norm = _tolerance("tol_gap", tol_gap), _tolerance("tol_norm", tol_norm)
    table = new_table()
    for alg_name, alg in sc.algebras.items():
        rng = _rng(seed)
        _norm_rows(sc, alg_name, alg, rng, tol_norm, table)
        _scalarization_rows(sc, alg_name, alg, rng, tol_gap, table)
        _probe_rows(sc, alg_name, alg, seed, table)
        _penalty_bound_rows(sc, alg_name, alg, rng, table)
        _lebesgue_rows(sc, alg_name, alg, seed, tol_gap, table)
        _attainment_rows(sc, alg_name, alg, rng, tol_gap, table)
    return table, all(table["passed"])
