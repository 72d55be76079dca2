"""The `verify` suite row by row: every value of a small scenario pinned by a
golden table, the bounds the rows print, and the one pass rule."""

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from orlicz_risk import Scenario, verification
from orlicz_risk.prob_space import RandomVar
from orlicz_risk.report import write_atoms_csv
from orlicz_risk.risk import custom, extension_check, locality_check
from orlicz_risk.verification import verify_scenario

HERE = Path(__file__).resolve().parent
# Four outcomes under the trivial algebra and under two atoms, and three
# positions, the last one zero on the atom {w2, w3}.  The power(2) norms
# and the worst-case measure compute no exp or log, whose last bits depend
# on the CPU.
GOLDEN4 = {
    "name": "golden4",
    "outcomes": [{"label": f"w{i}", "prob": p} for i, p in enumerate([0.1, 0.2, 0.3, 0.4], 1)],
    "algebras": {"F0": [["w1", "w2", "w3", "w4"]], "F1": [["w1", "w4"], ["w2", "w3"]]},
    "positions": {"x": {"w1": 0.3, "w2": -1.0, "w3": 0.5, "w4": 2.0},
                  "z": {"w1": 1.5, "w2": -0.5, "w3": -2.0, "w4": 0.25},
                  "v": {"w1": 1.0, "w2": 0.0, "w3": 0.0, "w4": -3.0}},
    "young": {"family": "power", "params": {"p": 2}},
    "risk": {"measure": "worst_case"},
}


def test_rows_match_the_golden_table(tmp_path):
    # verify_golden4.csv is the table of `verify_scenario(GOLDEN4)` at seed 0
    # as `write_atoms_csv` writes it; a change that moves a probe, a count,
    # a bound or a value on purpose rewrites it
    table, passed = verify_scenario(Scenario.from_dict(GOLDEN4))
    write_atoms_csv(tmp_path / "rows.csv", table)
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    golden = (HERE / "verify_golden4.csv").read_text().splitlines()
    assert passed
    for line, (row, expected) in enumerate(zip(rows, golden), 1):
        assert row == expected, f"line {line}"
    assert len(rows) == len(golden)


def test_entropic_rows_match_their_golden_values(tmp_path):
    # Under the worst-case measure the penalty bound and the scalarization do
    # not depend on the random dual densities; under the entropic measure
    # they do.  verify_golden4_entropic.csv holds the rows of GOLDEN4 with
    # entropic(1) that are not norm rows (those are the worst-case table's),
    # and values are compared to 1e-9, above the last bits of `exp`
    sc = Scenario.from_dict({**GOLDEN4, "risk": {"measure": "entropic", "params": {"gamma": 1.0}}})
    table, passed = verify_scenario(sc)
    write_atoms_csv(tmp_path / "rows.csv", table)
    with open(tmp_path / "rows.csv") as fh:
        rows = [r for r in csv.reader(fh) if r[0] not in ("norm_axioms", "equivalence", "hoelder")]
    with open(HERE / "verify_golden4_entropic.csv") as fh:
        golden = list(csv.reader(fh))
    assert passed
    assert [r[:5] + r[6:] for r in rows] == [g[:5] + g[6:] for g in golden]
    for row, expected in zip(rows[1:], golden[1:]):
        assert math.isclose(float(row[5]), float(expected[5]), rel_tol=1e-9, abs_tol=1e-9), row


def test_each_row_prints_the_bound_of_its_tolerance():
    table, _ = verify_scenario(Scenario.from_dict(GOLDEN4), tol_gap=0.5, tol_norm=0.25)
    bounds = defaultdict(set)
    for quantity, allowed in zip(table["quantity"], table["allowed"]):
        bounds[quantity.removeprefix("luxemburg_").removeprefix("amemiya_")].add(allowed)
    assert bounds == {
        "homogeneity_rel_dev": {1e-9}, "triangle_excess": {1e-9}, "definite": {math.inf},
        "zero": {0.0}, "minus_amemiya": {0.25}, "minus_twice_luxemburg": {0.25},
        "power2_ratio_dev": {1e-6}, "pairing_excess": {0.25}, "conjugate_route_dev": {0.5},
        "max_deviation": {1e-9}, "penalty_minus_bound": {1e-8},
        "tail_deviation_n10000": {0.5}, "max_equality_gap": {0.5},
    }


def test_a_zero_norm_fails_every_definite_row(monkeypatch):
    # a row whose bound is inf passes when its value is positive; a planted
    # Luxemburg norm of 0 is not
    lux = verification.luxemburg_norm
    monkeypatch.setattr(verification, "luxemburg_norm", lambda x, alg, phi: lux(
        x, alg, phi)._replace(atom_values=np.zeros((x.values.shape[0], alg.n_atoms))))
    table, passed = verify_scenario(Scenario.from_dict(GOLDEN4))
    definite = [(value, ok) for quantity, value, ok in
                zip(table["quantity"], table["value"], table["passed"])
                if quantity == "luxemburg_definite"]
    assert not passed
    assert definite == [(0.0, False)] * 9


def test_probe_rows_take_three_probes_at_the_verify_seed():
    # Under a local measure the locality and extension rows read 0 whatever
    # the probe count.  Minus the unconditional mean is not local on F1, so
    # its deviations depend on the probes drawn.  A deviation is a maximum
    # over probes, so a fourth probe moves it only where it is the largest:
    # at seed 0 for locality and at seed 1 for extension.
    sc = Scenario.from_dict(GOLDEN4)
    sc = sc._replace(risk=custom(lambda x, alg: RandomVar(
        np.full(x.values.shape, -float(x.space.probs @ x.values)), x.space)))
    alg = sc.algebras["F1"]
    for seed in (0, 1):
        rows = list(verification._probe_checks(sc, alg, None, seed, 0.0, 0.0))
        assert [(check, value) for check, _, _, _, value, _ in rows] == [
            ("locality", locality_check(sc.risk, sc.space, alg, trials=3, seed=seed).max_deviation),
            ("extension",
             extension_check(sc.risk, sc.space, alg, alg, trials=3, seed=seed).max_deviation)]
        assert all(value > 0.1 for *_, value, _ in rows)
