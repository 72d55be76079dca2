"""The invariant suite behind the `verify` command.

Each check produces per-atom rows with the columns of `report.CSV_COLUMNS`;
the suite passes iff every row passes.  Random
probes are seeded, so a given scenario, seed, and tolerance set always
produces the same rows.
"""

from __future__ import annotations

import math

import numpy as np

from .prob_space import RandomVar, SubAlgebra, _atom_weights
from .orlicz import amemiya_norm, luxemburg_norm, pairing, pairing_operator_norm
from .risk import (
    attainment_check,
    lebesgue_check,
    locality_check,
    extension_check,
    penalty_bound_check,
    robust_representation,
    scalarize,
)
from .report import CSV_COLUMNS, atom_rows
from .scenario import Scenario

__all__ = ["verify_scenario"]


def _row(check, algebra, atom, position, quantity, value, allowed, passed):
    return dict(zip(CSV_COLUMNS, (check, algebra, atom, position, quantity,
                                  float(value), float(allowed), bool(passed))))


def _feasible_density(rng, space, alg: SubAlgebra) -> RandomVar:
    """A random dual-feasible y: componentwise negative with conditional mean
    -1 on every atom, bounded away from 0 for well-conditioned penalties."""
    q = rng.uniform(0.2, 2.0, size=space.n_outcomes)
    mean = alg.atom_sum(_atom_weights(space, alg) * q)
    return RandomVar(-q / mean[alg.atom_of], space)


def _norm_axiom_rows(sc: Scenario, alg_name: str, alg, rng):
    rows = []
    space = sc.space
    phi = sc.young
    n = space.n_outcomes
    norms = (("luxemburg", luxemburg_norm), ("amemiya", amemiya_norm))
    for trial in range(3):
        x = RandomVar(rng.normal(size=n), space)
        z = RandomVar(rng.normal(size=n), space)
        lam_atoms = rng.uniform(0.2, 3.0, size=alg.n_atoms)
        lam = RandomVar(alg.broadcast(lam_atoms), space)
        for method, norm in norms:
            nx = norm(x, alg, phi).atom_values
            nz = norm(z, alg, phi).atom_values
            nlx = norm(x * lam, alg, phi).atom_values
            nxz = norm(x + z, alg, phi).atom_values
            hom_dev = np.abs(nlx - lam_atoms * nx) / np.maximum(1.0, lam_atoms * nx)
            tri = nxz - (nx + nz)
            rows += atom_rows(
                "norm_axioms", alg_name, f"probe{trial}",
                (f"{method}_homogeneity_rel_dev", hom_dev.tolist(), 1e-9,
                 (hom_dev <= 1e-9).tolist()),
                (f"{method}_triangle_excess", tri.tolist(), 1e-9, (tri <= 1e-9).tolist()),
                (f"{method}_definite", nx.tolist(), math.inf, (nx > 0.0).tolist()),
            )
    zero = space.var(np.zeros(n))
    for method, norm in norms:
        vals = norm(zero, alg, phi).atom_values
        rows += atom_rows("norm_axioms", alg_name, "zero",
                          (f"{method}_zero", vals.tolist(), 0.0, (vals == 0.0).tolist()))
    return rows


def _equivalence_rows(sc: Scenario, alg_name: str, alg, rng, tol_norm):
    rows = []
    space = sc.space
    phi = sc.young
    is_power2 = phi.family_tag == "power" and phi.params.get("p") == 2.0
    probes = [(name, x) for name, x in sc.positions.items()]
    for trial in range(3):
        probes.append((f"probe{trial}", RandomVar(rng.normal(size=space.n_outcomes), space)))
    for name, x in probes:
        lux = luxemburg_norm(x, alg, phi).atom_values
        ame = amemiya_norm(x, alg, phi).atom_values
        for k in range(alg.n_atoms):
            low_ok = lux[k] - tol_norm <= ame[k]
            high_ok = ame[k] <= 2.0 * lux[k] + tol_norm
            rows.append(_row(
                "equivalence", alg_name, k, name, "amemiya_minus_luxemburg",
                ame[k] - lux[k], tol_norm, low_ok,
            ))
            rows.append(_row(
                "equivalence", alg_name, k, name, "amemiya_minus_twice_luxemburg",
                ame[k] - 2.0 * lux[k], tol_norm, high_ok,
            ))
            if is_power2 and lux[k] > 0.0:
                ratio = ame[k] / lux[k]
                rows.append(_row(
                    "equivalence", alg_name, k, name, "power2_ratio_dev",
                    abs(ratio - 2.0), 1e-6, abs(ratio - 2.0) <= 1e-6,
                ))
    return rows


def _hoelder_rows(sc: Scenario, alg_name: str, alg, rng, tol_norm):
    rows = []
    space = sc.space
    phi = sc.young
    for trial in range(4):
        x = RandomVar(rng.normal(size=space.n_outcomes), space)
        y = RandomVar(rng.normal(size=space.n_outcomes), space)
        lhs = np.abs(pairing(x, y, alg).values[alg.first])
        op = pairing_operator_norm(y, alg, phi).atom_values
        lux = luxemburg_norm(x, alg, phi).atom_values
        excess = lhs - op * lux
        rows += atom_rows("hoelder", alg_name, f"probe{trial}",
                          ("pairing_excess", excess.tolist(), float(tol_norm),
                           (excess <= tol_norm).tolist()))
    return rows


def _scalarization_rows(sc: Scenario, alg_name: str, alg, rng, tol_gap):
    rows = []
    s = scalarize(sc.risk, sc.space, alg)
    for trial in range(3):
        y = _feasible_density(rng, sc.space, alg)
        via_sup = s.conjugate_numeric(y)
        via_exp = s.conjugate_expected(y)
        if math.isinf(via_sup) and math.isinf(via_exp):
            dev = 0.0
        else:
            dev = abs(via_sup - via_exp)
        rows.append(_row(
            "scalarization", alg_name, -1, f"probe{trial}", "conjugate_route_dev",
            dev, tol_gap, dev <= tol_gap,
        ))
    return rows


def _locality_rows(sc: Scenario, alg_name: str, alg, seed):
    rep = locality_check(
        lambda v: sc.risk.evaluate(v, alg), sc.space, alg, trials=3, seed=seed
    )
    return [_row(
        "locality", alg_name, -1, "", "max_deviation",
        rep.max_deviation, 1e-9, rep.passed,
    )]


def _extension_rows(sc: Scenario, alg_name: str, alg, seed):
    rep = extension_check(sc.risk, sc.space, alg, alg, trials=3, seed=seed)
    return [_row(
        "extension", alg_name, -1, "", "max_deviation",
        rep.max_deviation, 1e-9, rep.passed,
    )]


def _penalty_bound_rows(sc: Scenario, alg_name: str, alg, rng):
    probes = []
    for name, x in list(sc.positions.items())[:2]:
        beta = 1e-3 + float(np.max(-sc.risk.evaluate(x, alg).values))
        probes.append((name, x, robust_representation(sc.risk, x, alg).y, beta))
    for trial in range(2):
        x = RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)
        y = _feasible_density(rng, sc.space, alg)
        probes.append((f"probe{trial}", x, y, float(rng.uniform(0.0, 2.0))))
    rows = []
    for name, x, y, beta in probes:
        for atom_row in penalty_bound_check(sc.risk, x, y, beta, alg).atoms:
            rows.append(_row(
                "penalty_bound", alg_name, atom_row.atom, name,
                "penalty_minus_bound" if atom_row.hypothesis_holds else "hypothesis_skipped",
                atom_row.penalty - atom_row.bound if atom_row.hypothesis_holds else 0.0,
                1e-8, atom_row.ok,
            ))
    return rows


def _lebesgue_rows(sc: Scenario, alg_name: str, alg, seed, tol_gap):
    rep = lebesgue_check(sc.risk, sc.space, alg, trials=4, seed=seed, tol=tol_gap)
    return [_row(
        "lebesgue", alg_name, -1, "", "tail_deviation_n10000",
        rep.max_tail_deviation, tol_gap, rep.passed,
    )]


def _attainment_rows(sc: Scenario, alg_name: str, alg, rng, tol_gap):
    rows = []
    probes = list(sc.positions.items())
    for trial in range(2):
        probes.append((f"probe{trial}", RandomVar(rng.normal(size=sc.space.n_outcomes), sc.space)))
    for name, x in probes:
        rep = attainment_check(sc.risk, x, alg, tol=tol_gap)
        rows.append(_row(
            "attainment", alg_name, -1, name, "max_equality_gap",
            rep.max_equality_gap, tol_gap, rep.passed,
        ))
    return rows


def verify_scenario(sc: Scenario, seed: int = 0, tol_gap: float = 1e-6,
                    tol_norm: float = 1e-8) -> tuple[list[dict], bool]:
    """Run the full invariant suite on a scenario; returns per-atom rows and
    an overall pass flag."""
    rows: list[dict] = []
    for alg_name, alg in sc.algebras.items():
        rng = np.random.default_rng(seed)
        rows += _norm_axiom_rows(sc, alg_name, alg, rng)
        rows += _equivalence_rows(sc, alg_name, alg, rng, tol_norm)
        rows += _hoelder_rows(sc, alg_name, alg, rng, tol_norm)
        rows += _scalarization_rows(sc, alg_name, alg, rng, tol_gap)
        rows += _locality_rows(sc, alg_name, alg, seed)
        rows += _extension_rows(sc, alg_name, alg, seed)
        rows += _penalty_bound_rows(sc, alg_name, alg, rng)
        rows += _lebesgue_rows(sc, alg_name, alg, seed, tol_gap)
        rows += _attainment_rows(sc, alg_name, alg, rng, tol_gap)
    return rows, all(r["passed"] for r in rows)
