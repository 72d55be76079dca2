"""Acceptance suite: each release criterion as a tolerance-checked test that
prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values come from independent oracles: closed-form norms and
conjugates, conditional moment formulas, the Gibbs density, a barycentric
grid search over the simplex, and byte comparison of CLI outputs.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from orlicz_risk import (
    FiniteProbSpace,
    SubAlgebra,
    amemiya_norm,
    attainment_check,
    cond_expectation,
    custom,
    entropic,
    ess_sup_cond,
    extension_check,
    lebesgue_check,
    linear,
    locality_check,
    luxemburg_norm,
    make_exp,
    make_linf,
    make_power,
    pairing,
    pairing_operator_norm,
    penalty_bound_check,
    recover_density,
    robust_representation,
    scalarize,
    worst_case,
)
from orlicz_risk import solvers, conjugate
from orlicz_risk.cli import main as cli_main
from tests.grid_oracle import grid_simplex_max

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

FAMILIES = [
    make_power(1), make_power(1.5), make_power(2), make_power(3),
    make_linf(), make_exp(),
]


def _criterion(number: int, text: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def random_instance(rng, n_max=12, atoms_max=4, x_lo=-3.0, x_hi=3.0):
    n = int(rng.integers(2, n_max + 1))
    probs = rng.uniform(1.0, 4.0, n)
    space = FiniteProbSpace(probs / probs.sum())
    k = int(rng.integers(1, min(atoms_max, n) + 1))
    perm = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    atoms = [tuple(sorted(int(i) for i in a)) for a in np.split(perm, cuts)]
    alg = SubAlgebra.from_atoms(atoms, n)
    x = space.var(rng.uniform(x_lo, x_hi, n))
    return space, alg, x


def feasible_density(rng, space, alg, lo=0.2, hi=2.0):
    q = rng.uniform(lo, hi, space.n_outcomes)
    y = np.empty(space.n_outcomes)
    for atom in alg.atoms:
        idx = list(atom)
        w = space.probs[idx] / space.probs[idx].sum()
        y[idx] = -q[idx] / float(np.dot(w, q[idx]))
    return space.var(y)


def test_criterion_01_norm_equivalence():
    rng = np.random.default_rng(101)
    worst_low = math.inf
    worst_high = -math.inf
    ratio_dev = 0.0
    n_p2 = 0
    for i in range(500):
        phi = FAMILIES[i % len(FAMILIES)]
        space, alg, x = random_instance(rng)
        lux = luxemburg_norm(x, alg, phi).atom_values
        ame = amemiya_norm(x, alg, phi).atom_values
        worst_low = min(worst_low, float(np.min(ame - (lux - 1e-8))))
        worst_high = max(worst_high, float(np.max(ame - (2.0 * lux + 1e-8))))
        if phi.family_tag == "power" and phi.params.get("p") == 2.0:
            n_p2 += 1
            ratio_dev = max(ratio_dev, float(np.max(np.abs(ame / lux - 2.0))))
    ok = worst_low >= 0.0 and worst_high <= 0.0 and ratio_dev <= 1e-6 and n_p2 >= 50
    _criterion(
        1, "norm equivalence lux <= amemiya <= 2 lux on 500 instances", ok,
        f"min slack {worst_low:.2e}, max excess {worst_high:.2e}, p2 ratio dev {ratio_dev:.2e}",
    )


def test_criterion_02_pnorm_oracle():
    rng = np.random.default_rng(102)
    max_rel = 0.0
    exact_linf = True
    for i in range(120):
        p = [1.0, 1.5, 2.0, 3.0][i % 4]
        space, alg, x = random_instance(rng)
        lux = luxemburg_norm(x, alg, make_power(p)).per_atom.values
        ref = cond_expectation(space.var(np.abs(x.values) ** p), alg).values ** (1.0 / p)
        max_rel = max(max_rel, float(np.max(np.abs(lux - ref) / np.maximum(ref, 1e-300))))
    for _ in range(60):
        space, alg, x = random_instance(rng)
        lux = luxemburg_norm(x, alg, make_linf()).per_atom.values
        sup = ess_sup_cond(abs(x), alg).values
        exact_linf = exact_linf and bool(np.array_equal(lux, sup))
    ok = max_rel <= 1e-8 and exact_linf
    _criterion(
        2, "Luxemburg matches the conditional p-norm and sup-norm oracles", ok,
        f"max power rel dev {max_rel:.2e}, sup-norm exact: {exact_linf}",
    )


def test_criterion_03_robust_representation():
    rng = np.random.default_rng(103)
    max_gap = 0.0
    max_coord = 0.0
    for i in range(200):
        space, alg, x = random_instance(rng, x_lo=-1.5, x_hi=1.5)
        if i % 2 == 0:
            gamma = [0.5, 1.0][(i // 2) % 2]
            rho = entropic(gamma)
            cert = robust_representation(rho, x, alg)
            max_gap = max(max_gap, float(np.max(np.abs(cert.gap.values))))
            for atom in alg.atoms:
                idx = list(atom)
                w = space.probs[idx] / space.probs[idx].sum()
                e = np.exp(-gamma * x.values[idx])
                gibbs = e / float(np.dot(w, e))
                max_coord = max(max_coord, float(np.max(np.abs(-cert.y.values[idx] - gibbs))))
        else:
            cert = robust_representation(worst_case(), x, alg)
            max_gap = max(max_gap, float(np.max(np.abs(cert.gap.values))))
    ok = max_gap <= 1e-6 and max_coord <= 1e-6
    _criterion(
        3, "primal-dual gap <= 1e-6 and entropic certificate matches the Gibbs density",
        ok, f"max gap {max_gap:.2e}, max Gibbs coord dev {max_coord:.2e}",
    )


def test_criterion_04_attainment_and_lebesgue():
    rng = np.random.default_rng(104)
    max_eq = 0.0
    for i in range(60):
        space, alg, x = random_instance(rng, x_lo=-1.5, x_hi=1.5)
        rho = entropic(1.0) if i % 2 == 0 else worst_case()
        rep = attainment_check(rho, x, alg, tol=1e-6)
        max_eq = max(max_eq, rep.max_equality_gap)
    max_tail = 0.0
    for i in range(6):
        space, alg, _ = random_instance(rng)
        rho = entropic(1.0) if i % 2 == 0 else worst_case()
        rep = lebesgue_check(rho, space, alg, trials=5, seed=int(rng.integers(1 << 30)))
        max_tail = max(max_tail, rep.max_tail_deviation)
    ok = max_eq <= 1e-6 and max_tail <= 1e-6
    _criterion(
        4, "dual maximizer achieves equality; dominated sweeps settle by n=1e4",
        ok, f"max equality gap {max_eq:.2e}, max tail deviation {max_tail:.2e}",
    )


def test_criterion_05_scalarization():
    rng = np.random.default_rng(105)
    max_dev = 0.0
    for _ in range(100):
        space, alg, _ = random_instance(rng, n_max=6, atoms_max=2)
        s = scalarize(entropic(1.0), space, alg)
        y = feasible_density(rng, space, alg)
        via_sup = s.conjugate_numeric(y)
        via_exp = s.conjugate_expected(y)
        max_dev = max(max_dev, abs(via_sup - via_exp))
    ok = max_dev <= 1e-6
    _criterion(
        5, "static conjugate by numeric sup equals expected conditional penalty",
        ok, f"max route deviation {max_dev:.2e}",
    )


def test_criterion_06_locality_and_extension():
    rng = np.random.default_rng(106)
    probes = 0
    max_dev = 0.0
    instance = 0
    while probes < 200:
        space, alg, _ = random_instance(rng, n_max=10, atoms_max=4)
        rho = [entropic(1.0), worst_case(), linear()][instance % 3]
        rep = locality_check(rho, space, alg, trials=2, seed=int(rng.integers(1 << 30)))
        probes += 2 * alg.n_atoms
        max_dev = max(max_dev, rep.max_deviation)
        ext = extension_check(rho, space, alg, alg, trials=4, seed=int(rng.integers(1 << 30)))
        max_dev = max(max_dev, ext.max_deviation)
        instance += 1
    space = FiniteProbSpace(np.full(4, 0.25))
    alg = SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)

    def planted(v):
        return space.var(np.full(4, float(np.dot(space.probs, v.values))))

    detected = not locality_check(custom(lambda v, _: planted(v)), space, alg, trials=2,
                                  seed=0).passed
    ok = max_dev <= 1e-9 and detected
    _criterion(
        6, "locality and gluing identities hold; planted non-local map is caught",
        ok, f"{probes} probes, max deviation {max_dev:.2e}, planted detected: {detected}",
    )


def test_criterion_07_penalty_bound():
    rng = np.random.default_rng(107)
    checked_atoms = 0
    ok_all = True
    worst = -math.inf
    for i in range(200):
        space, alg, x = random_instance(rng, x_lo=-1.5, x_hi=1.5)
        rho = entropic(1.0) if i % 2 == 0 else worst_case()
        if i % 4 < 2:
            y = feasible_density(rng, space, alg)
            beta = float(rng.uniform(0.0, 2.0))
        else:
            cert = robust_representation(rho, x, alg)
            y = cert.y
            beta = 1e-3 + float(np.max(-rho.evaluate(x, alg).values))
        rep = penalty_bound_check(rho, x, y, beta, alg)
        for row in rep.atoms:
            if row.hypothesis_holds:
                checked_atoms += 1
                worst = max(worst, row.penalty - row.bound)
            ok_all = ok_all and row.ok
    ok = ok_all and checked_atoms >= 100
    _criterion(
        7, "penalty bound holds on every hypothesis-satisfying atom",
        ok, f"{checked_atoms} atoms checked, worst margin {worst:.2e}",
    )


def test_criterion_08_hoelder_and_embedding():
    rng = np.random.default_rng(108)
    max_pairing_excess = -math.inf
    max_embed_excess = -math.inf
    for i in range(200):
        phi = FAMILIES[i % len(FAMILIES)]
        space, alg, x = random_instance(rng)
        y = space.var(rng.uniform(-3.0, 3.0, space.n_outcomes))
        lhs = np.abs(pairing(x, y, alg).values)
        op = pairing_operator_norm(y, alg, phi).per_atom.values
        lux = luxemburg_norm(x, alg, phi).per_atom.values
        max_pairing_excess = max(max_pairing_excess, float(np.max(lhs - op * lux)))
        per_atom = amemiya_norm(x, alg, phi).per_atom
        global_ame = amemiya_norm(x, SubAlgebra.trivial(space.n_outcomes), phi).atom_values[0]
        max_embed_excess = max(
            max_embed_excess, float(np.dot(space.probs, per_atom.values)) - global_ame
        )
    ok = max_pairing_excess <= 1e-8 and max_embed_excess <= 1e-8
    _criterion(
        8, "pairing bound and L1 embedding inequalities hold on 200 pairs",
        ok, f"max pairing excess {max_pairing_excess:.2e}, max embedding excess {max_embed_excess:.2e}",
    )


def test_criterion_09_density_recovery():
    rng = np.random.default_rng(109)
    max_dev = 0.0
    for _ in range(100):
        space, alg, _ = random_instance(rng)
        y0 = space.var(rng.uniform(-2.0, 2.0, space.n_outcomes))
        y = recover_density(
            lambda v: pairing(v, y0, alg), space, alg, seed=int(rng.integers(1 << 30))
        )
        max_dev = max(
            max_dev,
            float(np.max(np.abs(y.values - y0.values) / np.maximum(1.0, np.abs(y0.values)))),
        )
    ok = max_dev <= 1e-9
    _criterion(
        9, "pairing functionals round-trip through density recovery",
        ok, f"max relative deviation {max_dev:.2e}",
    )


def test_criterion_10_solver_oracles():
    rng = np.random.default_rng(110)
    max_grid_dev = 0.0
    max_cert_dev = 0.0
    for i, size in enumerate((2, 3, 4) * 4):
        w = rng.uniform(0.5, 2.0, size)
        w = w / w.sum()
        xa = rng.uniform(-1.0, 1.0, size)

        def g(q):
            qc = np.maximum(q, 1e-300)
            return -float(np.dot(w, xa * q)) - float(np.dot(w, qc * np.log(qc)))

        def g_batch(Q):
            Qc = np.maximum(Q, 1e-300)
            return -np.dot(Q * xa + Qc * np.log(Qc), w)

        rep = solvers.simplex_max(g, w)
        _, oracle = grid_simplex_max(g_batch, w, step=1e-3)
        max_grid_dev = max(max_grid_dev, abs(rep.value - oracle))

        a = rng.uniform(0.5, 2.0, size)
        c = rng.uniform(0.0, 2.0, size)

        def gq(q):
            return -float(np.dot(w * a, (q - c) ** 2))

        def gq_batch(Q):
            return -np.dot((Q - c) ** 2, w * a)

        rep = solvers.simplex_max(gq, w)
        _, oracle = grid_simplex_max(gq_batch, w, step=1e-3)
        max_grid_dev = max(max_grid_dev, abs(rep.value - oracle))

        gamma = (0.5, 1.0, 2.0)[i % 3]
        cert = robust_representation(
            entropic(gamma), FiniteProbSpace(w).var(xa), SubAlgebra.trivial(size)
        )
        q = -cert.y.values
        cert_value = -float(np.dot(w, xa * q)) - float(cert.penalty.values[0])

        def ge_batch(Q):
            Qc = np.maximum(Q, 1e-300)
            return -np.dot(Q * xa + Qc * np.log(Qc) / gamma, w)

        _, oracle = grid_simplex_max(ge_batch, w, step=1e-3)
        max_cert_dev = max(max_cert_dev, abs(cert_value - oracle))

    m = 12.5
    bis = solvers.bisect_monotone(lambda lam: m / lam ** 2, 1.0, 0.5, 8.0)
    bis_dev = abs(bis.arg - math.sqrt(m)) / math.sqrt(m)
    gol = solvers.golden_min(lambda lam: (1.0 + lam * lam * m) / lam, 0.01, 10.0)
    gol_dev = abs(gol.value - 2.0 * math.sqrt(m)) / (2.0 * math.sqrt(m))
    conj_dev = 0.0
    for p in (1.5, 2.0, 3.0):
        phi = make_power(p)
        for s in np.geomspace(0.05, 20.0, 5):
            num = conjugate(replace(phi, conjugate_closed_form=None), float(s))
            ref = phi.conjugate_closed_form(float(s))
            conj_dev = max(conj_dev, abs(num - ref) / max(ref, 1e-12))
    ok = (max_grid_dev <= 1e-3 and max_cert_dev <= 1e-3 and bis_dev <= 1e-8
          and gol_dev <= 1e-8 and conj_dev <= 1e-8)
    _criterion(
        10, "solvers and the entropic certificate agree with the grid oracle and closed forms",
        ok, f"grid dev {max_grid_dev:.2e}, entropic certificate {max_cert_dev:.2e}, "
        f"bisect {bis_dev:.2e}, golden {gol_dev:.2e}, conjugate {conj_dev:.2e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    identical = True
    exit_ok = True
    for name in ("entropic4", "power2", "worstcase6", "supnorm3"):
        d1, d2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (d1, d2):
            code = cli_main(["verify", str(SCENARIOS / f"{name}.json"), "--out-dir", str(out)])
            exit_ok = exit_ok and code == 0
        identical = identical and (
            (d1 / f"{name}.report.json").read_bytes() == (d2 / f"{name}.report.json").read_bytes()
        ) and (
            (d1 / f"{name}.atoms.csv").read_bytes() == (d2 / f"{name}.atoms.csv").read_bytes()
        )
    ok = identical and exit_ok
    _criterion(
        11, "verify runs are byte-identical with exit code 0 on bundled scenarios",
        ok, f"exit codes ok: {exit_ok}, byte-identical: {identical}",
    )
