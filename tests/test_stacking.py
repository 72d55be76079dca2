"""Stacks of positions: one call on an (m, n) stack equals m calls on its
rows, `verify` makes one call per check, and every entry point that takes
one position rejects a stack or an algebra of another size by name."""

import collections
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    FiniteProbSpace,
    StructuralError,
    SubAlgebra,
    amemiya_norm,
    attainment_check,
    check_axioms,
    concatenate,
    custom,
    dual_feasible_atoms,
    dynamic_evaluate,
    entropic,
    extension_check,
    fenchel_conjugate,
    is_measurable,
    lebesgue_check,
    linear,
    luxemburg_norm,
    make_exp,
    make_linf,
    make_piecewise,
    make_power,
    pairing_operator_norm,
    penalty_bound_check,
    robust_representation,
    scalarize,
    worst_case,
)
from orlicz_risk import verification
from orlicz_risk.risk import DynamicRiskMeasure
from orlicz_risk.scenario import Scenario

BUNDLED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
FAMILIES = [make_power(1), make_power(2), make_power(3.3), make_exp(),
            make_linf(), make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])]
NORMS = [luxemburg_norm, amemiya_norm, pairing_operator_norm]


@st.composite
def stacks(draw):
    """A space with probabilities down to 1e-12, a partition of it, and a
    stack of positions with magnitudes from 1e-200 to 1e200, zero entries,
    and zero rows."""
    n = draw(st.integers(1, 7))
    log_probs = draw(st.lists(st.floats(-12.0, 0.0), min_size=n, max_size=n))
    probs = 10.0 ** np.array(log_probs)
    space = FiniteProbSpace(probs / probs.sum())
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    atoms = [tuple(i for i in range(n) if labels[i] == a) for a in sorted(set(labels))]
    alg = SubAlgebra.from_atoms(atoms, n)
    m = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just(0.0),
        st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-200.0, 200.0)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    values = np.where(np.array(zero_rows)[:, None], 0.0, np.array(rows))
    return space, alg, values


def per_row(fn, space, values, *args):
    return [fn(space.var(row), *args) for row in values]


class TestStackEqualsRows:
    @settings(max_examples=40, deadline=None)
    @given(stacks(), st.floats(-3.0, 3.0))
    def test_measures_match_exactly(self, case, log_gamma):
        space, alg, values = case
        gamma = 10.0 ** log_gamma
        for rho in (entropic(gamma), worst_case(), linear(), custom(entropic(gamma).evaluate)):
            stacked = rho.evaluate(space.var(values), alg).values
            rows = [r.values for r in per_row(rho.evaluate, space, values, alg)]
            np.testing.assert_array_equal(stacked, np.array(rows), err_msg=rho.tag)

    @settings(max_examples=40, deadline=None)
    @given(stacks())
    def test_norms_match_within_1e_12(self, case):
        space, alg, values = case
        for norm in NORMS:
            for phi in FAMILIES:
                stacked = norm(space.var(values), alg, phi)
                rows = per_row(norm, space, values, alg, phi)
                msg = f"{norm.__name__} {phi.family_tag} {phi.params}"
                np.testing.assert_allclose(stacked.atom_values, [r.atom_values for r in rows],
                                           rtol=1e-12, atol=0.0, err_msg=msg)
                np.testing.assert_array_equal(stacked.per_atom.values,
                                              [r.per_atom.values for r in rows], err_msg=msg)
                assert stacked.attained == tuple(r.attained for r in rows), msg

    def test_one_position_keeps_its_shapes(self):
        space = FiniteProbSpace.uniform(4)
        alg = SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)
        lux = luxemburg_norm(space.var([0.3, -1.0, 0.0, 0.0]), alg, make_power(2))
        assert lux.atom_values.shape == (2,)
        assert lux.attained == (True, True)
        stacked = luxemburg_norm(space.var([[0.3, -1.0, 0.0, 0.0]] * 3), alg, make_power(2))
        assert stacked.atom_values.shape == (3, 2)
        assert stacked.attained == ((True, True),) * 3


class TestOneCallPerCheck:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_verify_norm_calls(self, path, monkeypatch):
        # one Luxemburg solve, one direct Amemiya solve and one operator norm
        # per algebra cover the axiom, equivalence and Hoelder rows
        sc = Scenario.from_file(path)
        alg_names = {id(alg): name for name, alg in sc.algebras.items()}
        calls = collections.Counter()
        names = ("luxemburg_norm", "amemiya_norm", "pairing_operator_norm")
        for name in names:
            def counted(x, alg, phi, _fn=getattr(verification, name), _name=name):
                calls[(_name, alg_names[id(alg)])] += 1
                return _fn(x, alg, phi)
            monkeypatch.setattr(verification, name, counted)
        rows, passed = verification.verify_scenario(sc)
        assert passed
        assert calls == {(name, alg): 1 for name in names for alg in sc.algebras}

    @pytest.mark.parametrize("rho", [entropic(1.0), worst_case(), linear()],
                             ids=lambda rho: rho.tag)
    def test_checks_evaluate_once(self, rho):
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))
        alg = SubAlgebra.from_atoms([(0, 3), (1, 2)], 4)
        calls = []
        evaluate = rho.evaluate
        rho = dataclasses.replace(rho, evaluate=lambda *args: calls.append(args) or evaluate(*args))
        for check in (lambda: check_axioms(rho, space, alg),
                      lambda: lebesgue_check(rho, space, alg),
                      lambda: extension_check(rho, space, alg, alg)):
            calls.clear()
            assert check().passed
            assert len(calls) == 1


FOUR = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))
X = FOUR.var([0.3, -1.0, 0.5, 2.0])
Y = FOUR.var([-0.5, -1.5, -1.0, -1.0])


@pytest.mark.parametrize("n_alg", [3, 5])
@pytest.mark.parametrize("call", [
    lambda alg: luxemburg_norm(X, alg, make_power(2)),
    lambda alg: luxemburg_norm(X, alg, make_linf()),
    lambda alg: amemiya_norm(X, alg, make_power(2)),
    lambda alg: pairing_operator_norm(X, alg, make_power(2)),
    lambda alg: entropic(1.0).evaluate(X, alg),
    lambda alg: robust_representation(entropic(1.0), X, alg),
    lambda alg: dual_feasible_atoms(Y, alg),
    lambda alg: fenchel_conjugate(entropic(1.0), Y, alg),
    lambda alg: fenchel_conjugate(custom(entropic(1.0).evaluate), Y, alg),
    lambda alg: check_axioms(entropic(1.0), FOUR, alg),
    lambda alg: lebesgue_check(entropic(1.0), FOUR, alg),
    lambda alg: extension_check(entropic(1.0), FOUR, alg, alg),
], ids=["luxemburg", "luxemburg_linf", "amemiya", "pairing_operator_norm", "entropic",
        "robust_representation", "dual_feasible_atoms", "fenchel_conjugate",
        "fenchel_conjugate_custom", "check_axioms", "lebesgue_check", "extension_check"])
def test_algebra_of_another_size_is_named(call, n_alg):
    with pytest.raises(StructuralError):
        call(SubAlgebra.trivial(n_alg))


PAIRS = SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)
# four measurable rows: every row alone passes is_measurable
STACK = FOUR.var([[1.0, 1.0, 2.0, 2.0]] * 4)


@pytest.mark.parametrize("call", [
    lambda: is_measurable(STACK, PAIRS),
    lambda: concatenate([STACK, X], PAIRS),
    lambda: robust_representation(entropic(1.0), STACK, PAIRS),
    lambda: attainment_check(worst_case(), STACK, PAIRS),
    lambda: dual_feasible_atoms(STACK * -1.0, PAIRS),
    lambda: fenchel_conjugate(linear(), STACK * -1.0, PAIRS),
    lambda: penalty_bound_check(entropic(1.0), STACK, Y, 1.0, PAIRS),
    lambda: dynamic_evaluate(DynamicRiskMeasure(((PAIRS, entropic(1.0)),)), STACK),
    lambda: scalarize(entropic(1.0), FOUR, PAIRS).evaluate(STACK),
    lambda: scalarize(entropic(1.0), FOUR, PAIRS).conjugate_numeric(STACK * -1.0),
], ids=["is_measurable", "concatenate", "robust_representation", "attainment_check",
        "dual_feasible_atoms", "fenchel_conjugate", "penalty_bound_check", "dynamic_evaluate",
        "scalarized_evaluate", "conjugate_numeric"])
def test_one_position_entry_points_reject_a_stack(call):
    with pytest.raises(StructuralError):
        call()
