import dataclasses
import decimal
import math
import time
from pathlib import Path

import numpy as np
import pytest

import orlicz_risk.risk as risk_module
from orlicz_risk import (
    CondRiskMeasure,
    ContractError,
    DynamicRiskMeasure,
    FiniteProbSpace,
    ParameterError,
    Scenario,
    StructuralError,
    SubAlgebra,
    attainment_check,
    check_axioms,
    concatenate,
    cond_expectation,
    custom,
    dual_feasible_atoms,
    dynamic_evaluate,
    entropic,
    ess_inf_cond,
    ess_sup_cond,
    extension_check,
    fenchel_conjugate,
    lebesgue_check,
    linear,
    locality_check,
    pairing,
    penalty_bound_check,
    recover_density,
    risk_from_spec,
    robust_representation,
    scalarize,
    worst_case,
)
from orlicz_risk import verification
from orlicz_risk.verification import verify_scenario

LN4 = math.log(4.0)


@pytest.fixture
def coin():
    return FiniteProbSpace(np.array([0.5, 0.5]))


@pytest.fixture
def quarter_space():
    return FiniteProbSpace(np.full(4, 0.25))


@pytest.fixture
def pairs():
    return SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)


def random_setup(rng, n_max=10, atoms_max=4):
    n = int(rng.integers(2, n_max + 1))
    probs = rng.uniform(1.0, 4.0, n)
    space = FiniteProbSpace(probs / probs.sum())
    k = int(rng.integers(1, min(atoms_max, n) + 1))
    perm = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    atoms = [tuple(sorted(int(i) for i in a)) for a in np.split(perm, cuts)]
    return space, SubAlgebra.from_atoms(atoms, n)


def feasible_density(rng, space, alg):
    q = rng.uniform(0.2, 2.0, space.n_outcomes)
    y = np.empty(space.n_outcomes)
    for atom in alg.atoms:
        idx = list(atom)
        w = space.probs[idx] / space.probs[idx].sum()
        y[idx] = -q[idx] / float(np.dot(w, q[idx]))
    return space.var(y)


class TestEntropic:
    def test_constant_position(self, quarter_space, pairs):
        rho = entropic(1.0)
        out = rho.evaluate(quarter_space.var(np.full(4, 2.5)), pairs)
        np.testing.assert_allclose(out.values, -2.5, rtol=1e-12)

    def test_two_point_value(self, coin):
        rho = entropic(1.0)
        out = rho.evaluate(coin.var([0.0, LN4]), SubAlgebra.trivial(2))
        assert out.values[0] == pytest.approx(math.log(0.625), rel=1e-12)

    def test_conjugate_zero_at_uniform(self, quarter_space, pairs):
        rho = entropic(1.0)
        out = rho.conjugate_closed_form(quarter_space.var(-np.ones(4)), pairs)
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_overflow_guarded(self, coin):
        rho = entropic(1.0)
        out = rho.evaluate(coin.var([-800.0, 0.0]), SubAlgebra.trivial(2))
        assert out.values[0] == pytest.approx(800.0 + math.log(0.5), rel=1e-12)

    # (probabilities, atoms, position): a fair coin, rare losses and gains
    # down to probability 1e-12, and two atoms of uneven mass
    PRECISION_CASES = [
        ([0.5, 0.5], [(0, 1)], [2.0, 3.0]),
        ([1e-12, 1.0 - 1e-12], [(0, 1)], [-2.0, 3.0]),
        ([1.0 - 1e-12, 1e-12], [(0, 1)], [-2.0, 3.0]),
        ([0.25, 0.25, 0.5 - 1e-12, 1e-12], [(0, 1), (2, 3)], [1.5, -0.5, 4.0, -7.0]),
    ]

    @pytest.mark.parametrize("gamma", [1e-300, 1e-16, 1e-12, 1e-9, 1e-6, 1.0, 50.0])
    @pytest.mark.parametrize("probs, atoms, x", PRECISION_CASES)
    def test_value_matches_decimal_oracle(self, gamma, probs, atoms, x):
        space = FiniteProbSpace(np.array(probs))
        alg = SubAlgebra.from_atoms(atoms, len(probs))
        out = entropic(gamma).evaluate(space.var(x), alg).values
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            g = decimal.Decimal(gamma)
            for atom in atoms:
                mass = sum(decimal.Decimal(probs[i]) for i in atom)
                mean = sum(decimal.Decimal(probs[i]) * (-g * decimal.Decimal(x[i])).exp()
                           for i in atom) / mass
                exact = float(mean.ln() / g)
                for i in atom:
                    assert abs(out[i] - exact) <= 1e-13 * max(map(abs, x))

    @pytest.mark.parametrize("gamma", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_penalty_matches_decimal_oracle(self, gamma):
        # the certificate's penalty against the relative entropy of the exact
        # Gibbs density over gamma, on entropic4's x and trivial algebra
        sc = Scenario.from_file(Path(__file__).resolve().parents[1] / "scenarios"
                                / "entropic4.json")
        x, alg = sc.positions["x"], sc.algebras["F0"]
        pen = robust_representation(entropic(gamma), x, alg).penalty.values[0]
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            g = decimal.Decimal(gamma)
            probs = [decimal.Decimal(p) for p in sc.space.probs.tolist()]
            e = [(-g * decimal.Decimal(v)).exp() for v in x.values.tolist()]
            mean = sum(p * ei for p, ei in zip(probs, e))
            exact = float(sum(p * (ei / mean) * (ei / mean).ln()
                              for p, ei in zip(probs, e)) / g)
        assert abs(pen - exact) <= 1e-15 + 1e-6 * exact

    @pytest.mark.parametrize("x", [[2.0, 3.0], [-2.0, 3.0]])
    def test_overflowing_gamma_raises(self, coin, x):
        with pytest.raises(ContractError, match="gamma 1e\\+308.*overflows"):
            entropic(1e308).evaluate(coin.var(x), SubAlgebra.trivial(2))

    def test_huge_finite_gamma(self, coin):
        trivial = SubAlgebra.trivial(2)
        assert entropic(1e300).evaluate(coin.var([2.0, 3.0]), trivial).values[0] == -2.0
        # gamma * 3 overflows, but the atom's largest exponent, 0, does not
        out = entropic(1e308).evaluate(coin.var([0.0, 3.0]), trivial).values[0]
        assert out == pytest.approx(-math.log(2.0) / 1e308, rel=1e-6)
        # exponents spanning more than the float range: the higher outcome's
        # is -inf below the lower one's, and exp(-inf) = 0 is exact
        assert entropic(1e308).evaluate(coin.var([-1.0, 1.0]), trivial).values[0] == 1.0
        assert entropic(1.0).evaluate(coin.var([1.7e308, -1.7e308]), trivial).values[0] == 1.7e308
        with pytest.raises(ContractError, match="gamma 2.0: gamma \\* x overflows"):
            entropic(2.0).evaluate(coin.var([1e308, -1e308]), trivial)

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]],
                             ids=["fair", "skewed_low", "skewed_high"])
    @pytest.mark.parametrize("gamma, x, value, lowest", [
        (1e308, [-1.0, 1.0], 1.0, 0), (1.0, [1.7e308, -1.7e308], 1.7e308, 1),
    ], ids=["huge_gamma", "huge_position"])
    def test_certificate_on_exponents_spanning_more_than_the_float_range(
            self, probs, gamma, x, value, lowest):
        # the Gibbs density puts all mass on the lowest outcome
        space, trivial = FiniteProbSpace(np.array(probs)), SubAlgebra.trivial(2)
        pos = space.var(x)
        assert entropic(gamma).evaluate(pos, trivial).values.tolist() == [value, value]
        cert = robust_representation(entropic(gamma), pos, trivial)
        q = -cert.y.values
        assert q[1 - lowest] == 0.0
        assert q[lowest] == pytest.approx(1.0 / probs[lowest], rel=1e-15)
        # within one unit in the last place of the value
        assert np.all(np.abs(cert.gap.values) <= np.spacing(value))
        if probs == [0.5, 0.5]:
            assert cert.gap.values.tolist() == [0.0, 0.0]

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            entropic(0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ParameterError, match="gamma must be a finite number"):
            entropic(gamma)

    def test_axioms(self, quarter_space, pairs):
        assert check_axioms(entropic(0.7), quarter_space, pairs).passed

    def test_zero_position_exactly_zero(self):
        space = FiniteProbSpace(np.array([0.17, 0.23, 0.29, 0.31]))
        alg = SubAlgebra.from_atoms([(0, 2), (1, 3)], 4)
        zero = space.var(np.zeros(4))
        for rho in (entropic(1.3), worst_case(), linear()):
            assert np.all(rho.evaluate(zero, alg).values == 0.0)


class TestWorstCase:
    def test_two_point(self, coin):
        rho = worst_case()
        assert rho.evaluate(coin.var([1.0, 3.0]), SubAlgebra.trivial(2)).values[0] == -1.0

    def test_nonnegative_position_nonpositive_risk(self, quarter_space, pairs):
        rho = worst_case()
        rng = np.random.default_rng(5)
        x = quarter_space.var(rng.uniform(0.0, 4.0, 4))
        assert np.all(rho.evaluate(x, pairs).values <= 0.0)

    def test_axioms(self, quarter_space, pairs):
        assert check_axioms(worst_case(), quarter_space, pairs).passed


class TestLinear:
    def test_value(self, quarter_space, pairs):
        rho = linear()
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        np.testing.assert_array_equal(rho.evaluate(x, pairs).values, [-2.0, -2.0, -4.0, -4.0])

    def test_axioms(self, quarter_space, pairs):
        assert check_axioms(linear(), quarter_space, pairs).passed


class TestDualFeasibleAtoms:
    def test_each_atom_reads_its_mean_to_1e_10(self, quarter_space, pairs):
        # the mean of y on {0, 1} is -1 - 1.5e-10, outside the tolerance;
        # on {2, 3} it is -1 exactly
        y = quarter_space.var([-1.0 - 3e-10, -1.0, -0.5, -1.5])
        assert dual_feasible_atoms(y, pairs) == [False, True]


class TestRiskFromSpec:
    def test_families(self):
        assert risk_from_spec({"measure": "entropic", "params": {"gamma": 2.0}}).tag == "entropic"
        assert risk_from_spec({"measure": "worst_case"}).tag == "worst_case"
        assert risk_from_spec({"measure": "linear"}).tag == "linear"

    def test_unknown(self):
        with pytest.raises(ParameterError, match="^unknown risk measure 'cvar'$"):
            risk_from_spec({"measure": "cvar"})


class TestFenchelConjugate:
    def test_entropic_uniform_density(self, quarter_space, pairs):
        out = fenchel_conjugate(entropic(1.0), quarter_space.var(-np.ones(4)), pairs)
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_infeasible_mean_gives_inf(self, quarter_space, pairs):
        y = quarter_space.var([-0.5, -0.5, -1.0, -1.0])
        out = fenchel_conjugate(entropic(1.0), y, pairs)
        assert out.values[0] == math.inf
        assert out.values[2] == 0.0

    def test_positive_part_gives_inf(self, quarter_space, pairs):
        y = quarter_space.var([0.5, -2.5, -1.0, -1.0])
        out = fenchel_conjugate(entropic(1.0), y, pairs)
        assert out.values[0] == math.inf

    def test_numeric_worst_case_is_zero(self, quarter_space, pairs):
        rho = custom(worst_case().evaluate)
        y = feasible_density(np.random.default_rng(7), quarter_space, pairs)
        out = fenchel_conjugate(rho, y, pairs)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_numeric_worst_case_grid_oracle(self, quarter_space, pairs):
        # crude supremum scan confirms the numeric conjugate from above
        rng = np.random.default_rng(11)
        rho_eval = worst_case().evaluate
        y = feasible_density(rng, quarter_space, pairs)
        best = -math.inf
        for _ in range(300):
            x = quarter_space.var(rng.uniform(-3.0, 3.0, 4))
            val = (pairing(x, y, pairs) - rho_eval(x, pairs)).values[0]
            best = max(best, float(val))
        out = fenchel_conjugate(custom(rho_eval), y, pairs)
        assert out.values[0] >= best - 1e-9

    def test_numeric_matches_entropic_closed_form(self, quarter_space, pairs):
        rng = np.random.default_rng(13)
        rho = entropic(1.0)
        wrapped = custom(rho.evaluate)
        for _ in range(3):
            y = feasible_density(rng, quarter_space, pairs)
            num = fenchel_conjugate(wrapped, y, pairs).values
            ref = rho.conjugate_closed_form(y, pairs).values
            np.testing.assert_allclose(num, ref, atol=1e-7)

    def test_custom_must_pass_locality(self, quarter_space, pairs):
        def broadcast(v, alg):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m) * -1.0)

        with pytest.raises(ContractError):
            fenchel_conjugate(custom(broadcast), quarter_space.var(-np.ones(4)), pairs)


# each call that validates a measure without closed forms, on a given algebra
VALIDATING_CALLS = {
    "fenchel_conjugate": lambda rho, x, y, alg: fenchel_conjugate(rho, y, alg),
    "robust_representation": lambda rho, x, y, alg: robust_representation(rho, x, alg),
    "conjugate_numeric": lambda rho, x, y, alg: scalarize(rho, x.space, alg).conjugate_numeric(y),
    "dynamic_evaluate": lambda rho, x, y, alg: dynamic_evaluate(DynamicRiskMeasure(((alg, rho),)),
                                                                x),
}


class TestCustomValidation:
    @pytest.mark.parametrize("call", VALIDATING_CALLS.values(), ids=VALIDATING_CALLS.keys())
    def test_a_pass_on_a_coarse_algebra_does_not_cover_a_finer_one(
            self, quarter_space, pairs, call):
        # worst case over the whole space: a risk measure given the trivial
        # algebra, but neither cash invariant nor local given the pairs
        trivial = SubAlgebra.trivial(4)
        rho = custom(lambda x, alg: worst_case().evaluate(x, trivial))
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        y = quarter_space.var([-0.5, -1.5, -1.0, -1.0])
        np.testing.assert_allclose(fenchel_conjugate(rho, y, trivial).values, 0.0, atol=1e-9)
        with pytest.raises(ContractError, match="axiom probes"):
            call(rho, x, y, pairs)

    @pytest.mark.parametrize("call", VALIDATING_CALLS.values(), ids=VALIDATING_CALLS.keys())
    def test_each_call_runs_the_probes_exactly_once(
            self, monkeypatch, quarter_space, pairs, call):
        runs = []
        for name in ("check_axioms", "locality_check"):
            probe = getattr(risk_module, name)
            monkeypatch.setattr(risk_module, name, lambda *args, _probe=probe, _name=name, **kw:
                                runs.append(_name) or _probe(*args, **kw))
        rho = custom(entropic(1.0).evaluate)
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        y = quarter_space.var([-0.5, -1.5, -1.0, -1.0])
        for expected in (1, 2):
            call(rho, x, y, pairs)
            assert runs == ["check_axioms", "locality_check"] * expected

    def test_closed_form_measures_run_no_probes(self, monkeypatch, quarter_space, pairs):
        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form measure was probed")
        for name in ("check_axioms", "locality_check", "_envelope_density"):
            monkeypatch.setattr(risk_module, name, refuse)
        y = quarter_space.var([-0.5, -1.5, -1.0, -1.0])
        for rho in (entropic(1.0), worst_case(), linear()):
            for call in VALIDATING_CALLS.values():
                call(rho, quarter_space.var([0.3, -1.0, 0.5, 2.0]), y, pairs)

    @pytest.mark.parametrize("call", VALIDATING_CALLS.values(), ids=VALIDATING_CALLS.keys())
    def test_a_measure_built_by_hand_is_probed(self, quarter_space, pairs, call):
        # monotone and local, but neither cash invariant nor convex
        rho = CondRiskMeasure(lambda x, alg: ess_sup_cond(x, alg) * -2.0, None, "mine")
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        y = quarter_space.var([-0.5, -1.5, -1.0, -1.0])
        with pytest.raises(ContractError, match="axiom probes"):
            call(rho, x, y, pairs)

    def test_a_measure_without_a_density_is_probed_for_its_certificate(
            self, quarter_space, pairs):
        # a closed-form penalty alone does not vouch for the envelope density
        rho = CondRiskMeasure(lambda x, alg: ess_sup_cond(x, alg) * -2.0,
                              worst_case().conjugate_closed_form, "mine")
        with pytest.raises(ContractError, match="axiom probes"):
            robust_representation(rho, quarter_space.var([0.3, -1.0, 0.5, 2.0]), pairs)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# every public entry point that draws seeded probes, called with a seed
SEEDED_CALLS = {
    "check_axioms": lambda space, alg, seed: check_axioms(entropic(1.0), space, alg, seed=seed),
    "lebesgue_check": lambda space, alg, seed: lebesgue_check(entropic(1.0), space, alg,
                                                              seed=seed),
    "locality_check": lambda space, alg, seed: locality_check(entropic(1.0), space, alg,
                                                              seed=seed),
    "extension_check": lambda space, alg, seed: extension_check(entropic(1.0), space, alg, alg,
                                                                seed=seed),
    "recover_density": lambda space, alg, seed: recover_density(
        lambda v: cond_expectation(v, alg), space, alg, seed=seed),
    "verify_scenario": lambda space, alg, seed: verify_scenario(
        Scenario.from_file(SCENARIOS / "power2.json"), seed=seed),
}


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, True, 1.5], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS.keys())
    def test_seed_that_is_not_a_nonnegative_integer_is_refused(
            self, quarter_space, pairs, call, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            call(quarter_space, pairs, seed)

    def test_numpy_integer_seed_draws_as_the_int(self, quarter_space, pairs):
        rho = entropic(1.0)
        assert (lebesgue_check(rho, quarter_space, pairs, seed=np.int64(3))
                == lebesgue_check(rho, quarter_space, pairs, seed=3))


# every probe check that draws `trials` positions, called with a count
TRIAL_CALLS = {
    "check_axioms": lambda space, alg, trials: check_axioms(entropic(1.0), space, alg,
                                                            trials=trials),
    "lebesgue_check": lambda space, alg, trials: lebesgue_check(entropic(1.0), space, alg,
                                                                trials=trials),
    "locality_check": lambda space, alg, trials: locality_check(entropic(1.0), space, alg,
                                                                trials=trials),
    "extension_check": lambda space, alg, trials: extension_check(entropic(1.0), space, alg,
                                                                  alg, trials=trials),
}


# every public entry point that takes a tolerance: the parameter's name and
# a call with a value for it
POWER2 = SCENARIOS / "power2.json"
TOLERANCE_CALLS = {
    "attainment_check": ("tol", lambda space, alg, tol: attainment_check(
        entropic(1.0), space.var([0.3, -1.0, 0.5, 2.0]), alg, tol=tol)),
    "lebesgue_check": ("tol", lambda space, alg, tol: lebesgue_check(
        entropic(1.0), space, alg, tol=tol)),
    "verify_scenario_tol_gap": ("tol_gap", lambda space, alg, tol: verify_scenario(
        Scenario.from_file(POWER2), tol_gap=tol)),
    "verify_scenario_tol_norm": ("tol_norm", lambda space, alg, tol: verify_scenario(
        Scenario.from_file(POWER2), tol_norm=tol)),
}


class TestTolerances:
    @pytest.mark.parametrize("tol, match", [
        (math.nan, "must be a finite number, got nan"),
        (math.inf, "must be a finite number, got inf"),
        (-1, "must be >= 0, got -1.0"),
    ], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name, call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
    def test_tolerance_that_is_not_finite_and_nonnegative_is_refused(
            self, quarter_space, pairs, name, call, tol, match, monkeypatch):
        # verify_scenario refuses before its first check solves a norm
        monkeypatch.setattr(verification, "luxemburg_norm", None)
        with pytest.raises(ParameterError, match=f"^parameter {name} {match}$"):
            call(quarter_space, pairs, tol)

    @pytest.mark.parametrize("name, call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
    def test_zero_tolerance_is_accepted(self, quarter_space, pairs, name, call):
        call(quarter_space, pairs, 0)


class TestTrials:
    @pytest.mark.parametrize("trials", [0, -1, True, 1.5, "3", None],
                             ids=["zero", "negative", "bool", "float", "str", "none"])
    @pytest.mark.parametrize("call", TRIAL_CALLS.values(), ids=TRIAL_CALLS.keys())
    def test_count_that_is_not_a_positive_integer_is_refused(self, quarter_space, pairs, call,
                                                             trials):
        # a check that draws nothing has probed nothing, so it may not pass
        with pytest.raises(ParameterError, match="trials must be an integer >= 1"):
            call(quarter_space, pairs, trials)

    @pytest.mark.parametrize("call", TRIAL_CALLS.values(), ids=TRIAL_CALLS.keys())
    def test_one_numpy_integer_trial_probes(self, quarter_space, pairs, call):
        assert call(quarter_space, pairs, np.int64(1)).passed


class TestRobustRepresentation:
    def test_entropic_gibbs_certificate(self, coin):
        rho = entropic(1.0)
        x = coin.var([0.0, LN4])
        cert = robust_representation(rho, x, SubAlgebra.trivial(2))
        assert abs(cert.gap.values[0]) <= 1e-6
        np.testing.assert_allclose(-cert.y.values, [1.6, 0.4], atol=1e-6)

    def test_worst_case_vertex(self, coin):
        cert = robust_representation(worst_case(), coin.var([1.0, 3.0]), SubAlgebra.trivial(2))
        np.testing.assert_array_equal(cert.y.values, [-2.0, 0.0])
        assert cert.gap.values[0] == 0.0

    def test_a_planted_density_is_checked_not_trusted(self, quarter_space, pairs):
        # worst-case risk, but its density sits at each atom's maximum: a
        # feasible vertex with zero penalty that does not attain rho(x)
        wc = worst_case()
        rho = CondRiskMeasure(wc.evaluate, wc.conjugate_closed_form, "planted",
                              density=lambda x, alg: np.array([2.0, 0.0, 0.0, 2.0]))
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        cert = robust_representation(rho, x, pairs)
        np.testing.assert_allclose(cert.gap.values, [1.3, 1.3, 1.5, 1.5], rtol=1e-12)
        np.testing.assert_array_equal(cert.penalty.values, np.zeros(4))
        assert not attainment_check(rho, x, pairs).passed

    @pytest.mark.parametrize("rho", [entropic(1.0), worst_case(), linear()],
                             ids=lambda rho: rho.tag)
    def test_a_wrapped_evaluate_keeps_the_closed_form_certificate(
            self, monkeypatch, quarter_space, pairs, rho):
        # as a tracer wraps it: same closed forms, another evaluate
        wrapped = dataclasses.replace(rho, evaluate=lambda *args: rho.evaluate(*args))
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        expected = robust_representation(rho, x, pairs)

        def refuse(*args, **kwargs):
            raise AssertionError("the closed-form certificate was not used")
        for name in ("check_axioms", "_envelope_density", "_numeric_conjugate"):
            monkeypatch.setattr(risk_module, name, refuse)
        for got, want in zip(robust_representation(wrapped, x, pairs), expected):
            assert got.values.tobytes() == want.values.tobytes()

    def test_worst_case_tie_breaks_to_lowest_index(self, quarter_space):
        alg = SubAlgebra.trivial(4)
        cert = robust_representation(worst_case(), quarter_space.var([2.0, 1.0, 1.0, 5.0]), alg)
        np.testing.assert_array_equal(cert.y.values, [0.0, -4.0, 0.0, 0.0])

    def test_linear_unit_density(self, quarter_space, pairs):
        cert = robust_representation(linear(), quarter_space.var([1.0, 2.0, 3.0, 4.0]), pairs)
        np.testing.assert_array_equal(cert.y.values, -np.ones(4))
        np.testing.assert_array_equal(cert.gap.values, np.zeros(4))

    def test_certificate_constraints(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            space, alg = random_setup(rng, n_max=8)
            x = space.var(rng.uniform(-1.5, 1.5, space.n_outcomes))
            for rho in (entropic(1.0), worst_case(), linear()):
                cert = robust_representation(rho, x, alg)
                assert all(dual_feasible_atoms(cert.y, alg))
                assert np.all(cert.gap.values >= -1e-8)
                assert np.all(cert.gap.values <= 1e-6)

    def test_weak_duality_random_densities(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            space, alg = random_setup(rng, n_max=8)
            x = space.var(rng.uniform(-2.0, 2.0, space.n_outcomes))
            y = feasible_density(rng, space, alg)
            for rho in (entropic(0.8), worst_case(), linear()):
                pen = fenchel_conjugate(rho, y, alg).values
                dual = pairing(x, y, alg).values - pen
                primal = rho.evaluate(x, alg).values
                finite = np.isfinite(dual)
                assert np.all(dual[finite] <= primal[finite] + 1e-8)


def assert_exact_certificate(rho, x, alg):
    cert = robust_representation(rho, x, alg)
    assert all(dual_feasible_atoms(cert.y, alg))
    assert np.all(np.abs(cert.gap.values) <= 1e-6)
    return cert


class TestDualEdgeCases:
    """Inputs on which a numeric dual search failed: it raised, capped the
    atom size, or returned a large gap without raising."""

    def test_tiny_gamma(self, quarter_space):
        x = quarter_space.var([0.0, 1.386294361, 0.5, -0.25])
        assert_exact_certificate(entropic(1e-6), x, SubAlgebra.trivial(4))

    @pytest.mark.parametrize("gamma", [1.0, 5.0])
    def test_skewed_probabilities(self, gamma):
        space = FiniteProbSpace(np.array([1.0 - 3e-12, 1e-12, 1e-12, 1e-12]))
        x = space.var([0.0, -30.0, 0.0, 0.0])
        assert_exact_certificate(entropic(gamma), x, SubAlgebra.trivial(4))

    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_large_gamma(self, gamma):
        space = FiniteProbSpace.uniform(16)
        x = space.var(np.random.default_rng(3).normal(size=16))
        assert_exact_certificate(entropic(gamma), x, SubAlgebra.trivial(16))

    def test_atom_of_80_outcomes(self):
        rng = np.random.default_rng(64)
        probs = rng.uniform(1.0, 4.0, 80)
        space = FiniteProbSpace(probs / probs.sum())
        x = space.var(rng.normal(size=80))
        assert_exact_certificate(entropic(0.5), x, SubAlgebra.trivial(80))

    def test_many_outcomes_is_fast(self):
        space = FiniteProbSpace.uniform(1024)
        alg = SubAlgebra.from_atoms([range(64 * j, 64 * j + 64) for j in range(16)], 1024)
        x = space.var(np.random.default_rng(11).normal(size=1024))
        start = time.perf_counter()
        assert_exact_certificate(entropic(1.0), x, alg)
        assert time.perf_counter() - start < 0.1

    def test_custom_entropic(self):
        space = FiniteProbSpace.uniform(8)
        x = space.var(np.random.default_rng(5).normal(size=8))
        alg = SubAlgebra.from_atoms([(0, 1, 2), (3, 4, 5, 6, 7)], 8)
        cert = assert_exact_certificate(custom(entropic(1.0).evaluate), x, alg)
        for atom in alg.atoms:
            idx = list(atom)
            e = np.exp(-x.values[idx])
            np.testing.assert_allclose(-cert.y.values[idx], e / e.mean(), atol=1e-4)

    # the large scales take the envelope's backward step relative to max|x|
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_custom_worst_case_tied_minima(self, scale):
        space = FiniteProbSpace.uniform(8)
        x = space.var(scale * np.array([1.0, -2.0, 3.0, -2.0, 0.0, 5.0, -2.0, 1.0]))
        cert = assert_exact_certificate(custom(worst_case().evaluate), x, SubAlgebra.trivial(8))
        assert np.all(cert.y.values[x.values > -2.0] == 0.0)


class TestAttainment:
    def test_entropic_attained(self, quarter_space, pairs):
        rng = np.random.default_rng(23)
        x = quarter_space.var(rng.uniform(-1.0, 1.0, 4))
        rep = attainment_check(entropic(1.0), x, pairs)
        assert rep.passed
        assert rep.max_equality_gap <= 1e-6

    def test_worst_case_attained(self, quarter_space, pairs):
        x = quarter_space.var([0.3, -1.2, 4.0, 0.0])
        rep = attainment_check(worst_case(), x, pairs)
        assert rep.passed

    def test_constant_position(self, quarter_space, pairs):
        rep = attainment_check(entropic(1.0), quarter_space.var(np.full(4, 1.5)), pairs)
        assert rep.passed


class TestLebesgue:
    def test_entropic_rate(self, quarter_space, pairs):
        rep = lebesgue_check(entropic(1.0), quarter_space, pairs, trials=5, seed=3)
        devs = dict(rep.deviations)
        assert rep.passed
        assert devs[10000] <= 1e-6
        assert devs[10] <= devs[1]

    def test_constant_sequence_zero_deviation(self, quarter_space, pairs):
        rep = lebesgue_check(entropic(1.0), quarter_space, pairs, trials=2, amplitude=0.0)
        assert rep.max_tail_deviation == 0.0

    @pytest.mark.parametrize("amplitude, match", [
        (math.nan, "parameter amplitude must be a finite number"),
        (math.inf, "parameter amplitude must be a finite number"),
        (-1e-3, "amplitude must be >= 0"),
        (1e308, "amplitude must be >= 0 with 2 \\* amplitude finite, got 1e\\+308"),
    ], ids=["nan", "inf", "negative", "width_overflows"])
    def test_amplitude_that_is_not_finite_and_nonnegative_is_refused(
            self, quarter_space, pairs, amplitude, match):
        with pytest.raises(ParameterError, match=match):
            lebesgue_check(entropic(1.0), quarter_space, pairs, amplitude=amplitude)

    def test_amplitude_whose_width_is_finite_is_accepted(self, quarter_space, pairs):
        # 2 * 6e307 is finite; a width bound of 4 * amplitude would refuse it
        rep = lebesgue_check(linear(), quarter_space, pairs, trials=1, amplitude=6e307)
        assert rep.max_tail_deviation < 6e307 / 10_000

    def test_worst_case_exact_cash_shift(self, quarter_space, pairs):
        rho = worst_case()
        x = quarter_space.var([0.4, -0.8, 1.1, 0.2])
        base = rho.evaluate(x, pairs).values
        for n in (10, 10000):
            shifted = rho.evaluate(x + np.full(4, -1.0 / n), pairs).values
            np.testing.assert_allclose(shifted, base + 1.0 / n, rtol=1e-12)


@pytest.fixture
def mixed_atoms():
    """Atoms of 1, 2 and 5 outcomes under unequal probabilities."""
    probs = np.arange(1.0, 9.0)
    space = FiniteProbSpace(probs / probs.sum())
    return space, SubAlgebra.from_atoms([(0,), (1, 6), (2, 3, 4, 5, 7)], 8)


class TestScalarize:
    @pytest.mark.parametrize("rho", [entropic(1.0), worst_case()], ids=["entropic", "worst_case"])
    def test_numeric_route_is_the_weighted_custom_penalty(self, mixed_atoms, rho):
        space, alg = mixed_atoms
        y = feasible_density(np.random.default_rng(41), space, alg)
        penalty = fenchel_conjugate(custom(rho.evaluate), y, alg)
        weighted = float(np.dot(space.probs, penalty.values))
        assert math.isfinite(weighted)
        numeric = scalarize(rho, space, alg).conjugate_numeric(y)
        assert numeric == pytest.approx(weighted, rel=1e-12, abs=1e-14)

    def test_numeric_penalty_is_inf_only_off_the_feasible_atoms(self, mixed_atoms):
        space, alg = mixed_atoms
        y = feasible_density(np.random.default_rng(43), space, alg)
        assert y.values[0] == -1.0
        out = fenchel_conjugate(custom(linear().evaluate), y, alg)
        assert out.values.tolist() == [0.0] + [math.inf] * 7

    def test_numeric_penalty_is_inf_on_an_infeasible_atom(self, mixed_atoms):
        space, alg = mixed_atoms
        values = feasible_density(np.random.default_rng(41), space, alg).values.copy()
        values[[1, 6]] *= 2.0  # E[y | {1, 6}] = -2
        y = space.var(values)
        numeric = fenchel_conjugate(custom(entropic(1.0).evaluate), y, alg).values
        assert numeric[[1, 6]].tolist() == [math.inf] * 2
        assert np.isfinite(numeric[[0, 2, 3, 4, 5, 7]]).all()

    def test_numeric_route_stops_at_the_first_unbounded_atom(self, mixed_atoms):
        space, alg = mixed_atoms
        calls = []

        def counted(x, a):
            calls.append(a)
            return linear().evaluate(x, a)

        rho = custom(counted)
        y = feasible_density(np.random.default_rng(43), space, alg)
        # each route runs the same axiom and locality probes first
        fenchel_conjugate(rho, y, alg)
        every_atom = len(calls)
        calls.clear()
        assert scalarize(rho, space, alg).conjugate_numeric(y) == math.inf
        assert len(calls) < every_atom

    def test_trivial_algebra_identity(self, quarter_space):
        trivial = SubAlgebra.trivial(4)
        rho = entropic(1.0)
        s = scalarize(rho, quarter_space, trivial)
        x = quarter_space.var([0.2, -0.5, 1.0, 0.3])
        assert s.evaluate(x) == pytest.approx(rho.evaluate(x, trivial).values[0], rel=1e-12)

    def test_cash_shift(self, quarter_space, pairs):
        s = scalarize(entropic(1.0), quarter_space, pairs)
        x = quarter_space.var([0.2, -0.5, 1.0, 0.3])
        assert s.evaluate(x + 2.0) == pytest.approx(s.evaluate(x) - 2.0, rel=1e-12)

    def test_conjugate_routes_agree_entropic(self, quarter_space, pairs):
        rng = np.random.default_rng(29)
        s = scalarize(entropic(1.0), quarter_space, pairs)
        for _ in range(4):
            y = feasible_density(rng, quarter_space, pairs)
            a = s.conjugate_numeric(y)
            b = s.conjugate_expected(y)
            assert a == pytest.approx(b, abs=1e-6)

    def test_conjugate_routes_agree_worst_case(self, quarter_space, pairs):
        rng = np.random.default_rng(31)
        s = scalarize(worst_case(), quarter_space, pairs)
        y = feasible_density(rng, quarter_space, pairs)
        assert s.conjugate_numeric(y) == pytest.approx(0.0, abs=1e-8)
        assert s.conjugate_expected(y) == 0.0

    def test_linear_risk_unbounded_routes_agree(self, quarter_space, pairs):
        rng = np.random.default_rng(37)
        s = scalarize(linear(), quarter_space, pairs)
        y = feasible_density(rng, quarter_space, pairs)
        if np.allclose(y.values, -1.0):
            pytest.skip("degenerate draw")
        assert s.conjugate_numeric(y) == math.inf
        assert s.conjugate_expected(y) == math.inf


class TestLocality:
    def test_entropic_local(self, quarter_space, pairs):
        rep = locality_check(entropic(1.0), quarter_space, pairs)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

    def test_planted_nonlocal_detected(self, quarter_space, pairs):
        def broadcast(v):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m))

        rep = locality_check(custom(lambda v, _: broadcast(v)), quarter_space, pairs, trials=2)
        assert not rep.passed
        assert rep.witness is not None

    def test_sixteen_atoms(self):
        space = FiniteProbSpace.uniform(48)
        alg = SubAlgebra.from_atoms([range(3 * j, 3 * j + 3) for j in range(16)], 48)
        rep = locality_check(entropic(1.0), space, alg, trials=2)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

        def mixes_neighbours(v):
            # a measurable value per atom that also reads the next atom
            mean = cond_expectation(v, alg).values
            return space.var(mean + np.roll(mean, -3))

        rep = locality_check(custom(lambda v, _: mixes_neighbours(v)), space, alg, trials=2)
        assert not rep.passed
        assert rep.witness is not None

    def test_full_union_always_equal(self, quarter_space):
        trivial = SubAlgebra.trivial(4)

        def broadcast(v):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m))

        rep = locality_check(custom(lambda v, _: broadcast(v)), quarter_space, trivial, trials=2)
        assert rep.passed  # the only atom union is the whole space

    def test_every_probe_in_one_evaluation(self, quarter_space, pairs):
        calls = []
        rho = entropic(1.0)
        counted = dataclasses.replace(rho, evaluate=lambda x, alg: calls.append(x.values.shape)
                                      or rho.evaluate(x, alg))
        locality_check(counted, quarter_space, pairs, trials=3)
        assert calls == [(3 * (1 + pairs.n_atoms), 4)]

    def test_blocks_bound_the_stack(self, monkeypatch):
        # 16 positions of 5 outcomes in blocks of 3: the same report, no call above 3
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        alg = SubAlgebra.from_atoms([(3, 0), (1,), (4, 2)], 5)

        def leaks(v):
            mean = cond_expectation(v, alg).values
            return space.var(mean + 0.5 * v.values[1] * (alg.atom_of != 1))

        rho = custom(lambda v, _: leaks(v))
        calls = []
        counted = dataclasses.replace(rho, evaluate=lambda x, a: calls.append(len(x.values))
                                      or rho.evaluate(x, a))
        whole = locality_check(rho, space, alg, trials=4, seed=3)
        monkeypatch.setattr(risk_module, "_STACK_ENTRIES", 15)
        blocked = locality_check(counted, space, alg, trials=4, seed=3)
        assert calls == [3] * 5 + [1]
        assert blocked.max_deviation == whole.max_deviation > 1e-9
        assert blocked.witness[0] == whole.witness[0]
        np.testing.assert_array_equal(blocked.witness[1], whole.witness[1])

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_the_probe_by_probe_walk(self, seed):
        # the walk evaluates x, then 1_A x atom by atom, one position at a time
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        alg = SubAlgebra.from_atoms([(3, 0), (1,), (4, 2)], 5)

        def leaks(v):
            # local on atom (1,) only: the other atoms also read outcome 1
            mean = cond_expectation(v, alg).values
            return space.var(mean + 0.5 * v.values[1] * (alg.atom_of != 1))

        for f in (leaks, lambda v: entropic(2.0).evaluate(v, alg),
                  lambda v: space.var(np.full(5, float(np.dot(space.probs, v.values))))):
            rng = np.random.default_rng(seed)
            max_dev, witness = 0.0, None
            for _ in range(4):
                x = space.var(rng.normal(size=5))
                fx = f(x)
                for atom in alg.atoms:
                    ind = space.indicator(atom)
                    dev = float(np.abs((f(x * ind) * ind - fx * ind).values).max())
                    if dev > max_dev:
                        max_dev = dev
                        if dev > 1e-9 and witness is None:
                            witness = (atom, x.values.copy())
            rep = locality_check(custom(lambda v, _, f=f: f(v)), space, alg, trials=4, seed=seed)
            assert rep.max_deviation == max_dev
            assert rep.passed == (max_dev <= 1e-9)
            if witness is None:
                assert rep.witness is None
            else:
                assert rep.witness[0] == witness[0]
                np.testing.assert_array_equal(rep.witness[1], witness[1])


class TestExtension:
    def test_identical_pieces(self, quarter_space, pairs):
        rep = extension_check(entropic(1.0), quarter_space, pairs, pairs, trials=2)
        assert rep.passed

    def test_entropic_and_worst_case(self, quarter_space, pairs):
        for rho in (entropic(1.0), worst_case()):
            rep = extension_check(rho, quarter_space, pairs, pairs, trials=5)
            assert rep.passed
            assert rep.max_deviation <= 1e-9

    def test_blocks_bound_the_stack(self, monkeypatch):
        # 4 trials of 3 pieces and a glue on 5 outcomes in blocks of 3: the
        # same report, no call above 3 positions
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        alg = SubAlgebra.from_atoms([(3, 0), (1,), (4, 2)], 5)

        def leaks(v):
            mean = cond_expectation(v, alg).values
            return space.var(mean + 0.5 * v.values[1] * (alg.atom_of != 1))

        rho = custom(lambda v, _: leaks(v))
        calls = []
        counted = dataclasses.replace(rho, evaluate=lambda x, a: calls.append(len(x.values))
                                      or rho.evaluate(x, a))
        whole = extension_check(rho, space, alg, alg, trials=4, seed=3)
        monkeypatch.setattr(risk_module, "_STACK_ENTRIES", 15)
        blocked = extension_check(counted, space, alg, alg, trials=4, seed=3)
        assert calls == [3] * 5 + [1]
        assert blocked == whole
        assert whole.max_deviation > 1e-9

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_coarser_partition_matches_the_probe_by_probe_walk(self, seed):
        # the walk draws each trial's pieces, one per partition atom, then
        # glues them and rho's values on them, one position at a time
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        alg = SubAlgebra.from_atoms([(3, 0), (1,), (4, 2)], 5)
        partition = SubAlgebra.from_atoms([(3, 0, 1), (4, 2)], 5)

        def leaks(v):
            mean = cond_expectation(v, alg).values
            return space.var(mean + 0.5 * v.values[1] * (alg.atom_of != 1))

        for f in (leaks, lambda v: entropic(2.0).evaluate(v, alg),
                  lambda v: worst_case().evaluate(v, alg)):
            rng = np.random.default_rng(seed)
            max_dev = 0.0
            for _ in range(4):
                pieces = [space.var(rng.normal(size=5)) for _ in partition.atoms]
                glued = f(concatenate(pieces, partition))
                apart = concatenate([f(piece) for piece in pieces], partition)
                max_dev = max(max_dev, float(np.abs((glued - apart).values).max()))
            rep = extension_check(custom(lambda v, _, f=f: f(v)), space, alg, partition,
                                  trials=4, seed=seed)
            assert rep.max_deviation == max_dev
            assert rep.passed == (max_dev <= 1e-9)

    def test_partition_on_another_number_of_outcomes_is_named(self, quarter_space, pairs):
        with pytest.raises(StructuralError,
                           match="^algebra indexes 4 outcomes, partition 5$"):
            extension_check(entropic(1.0), quarter_space, pairs, SubAlgebra.trivial(5))

    def test_partition_must_be_measurable(self, quarter_space):
        fine = SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)
        finer = SubAlgebra.discrete(4)
        with pytest.raises(StructuralError):
            extension_check(entropic(1.0), quarter_space, fine, finer)


class TestPenaltyBound:
    def test_dual_optimum_instance(self, quarter_space, pairs):
        rho = entropic(1.0)
        x = quarter_space.var([0.5, -0.3, 1.0, 0.1])
        cert = robust_representation(rho, x, pairs)
        beta = 1e-3 + float(np.max(-rho.evaluate(x, pairs).values))
        rep = penalty_bound_check(rho, x, cert.y, beta, pairs)
        assert rep.passed
        assert any(r.hypothesis_holds for r in rep.atoms)

    def test_zero_position_forces_zero_penalty(self, quarter_space, pairs):
        rho = entropic(1.0)
        x = quarter_space.var(np.zeros(4))
        y = quarter_space.var(-np.ones(4))
        rep = penalty_bound_check(rho, x, y, 0.0, pairs)
        assert rep.passed
        for row in rep.atoms:
            assert row.hypothesis_holds
            assert row.penalty == pytest.approx(0.0, abs=1e-12)

    def test_cash_shifted_measure_reads_as_its_normalization(self, quarter_space, pairs):
        # rho + 1 has rho(0) = 1; normalized to rho(0) = 0 it is rho again
        rho = worst_case()
        shifted = custom(lambda x, alg: rho.evaluate(x, alg) + 1.0)
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        y = quarter_space.var([-0.5, -1.5, -1.25, -0.75])
        rep = penalty_bound_check(shifted, x, y, 2.0, pairs)
        assert rep == penalty_bound_check(rho, x, y, 2.0, pairs)
        assert [(r.hypothesis_holds, r.penalty) for r in rep.atoms] == [(True, 0.0)] * 2

    def test_random_sweep(self, quarter_space, pairs):
        rng = np.random.default_rng(41)
        for rho in (entropic(1.0), worst_case()):
            for _ in range(10):
                x = quarter_space.var(rng.normal(size=4))
                y = feasible_density(rng, quarter_space, pairs)
                beta = float(rng.uniform(0.0, 2.0))
                assert penalty_bound_check(rho, x, y, beta, pairs).passed

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_beta_that_is_not_finite_is_refused(self, quarter_space, pairs, beta):
        # nan and inf would hold every atom's hypothesis or bound vacuously
        x = quarter_space.var([0.5, -0.3, 1.0, 0.1])
        with pytest.raises(ParameterError, match="parameter beta must be a finite number"):
            penalty_bound_check(entropic(1.0), x, quarter_space.var(-np.ones(4)), beta, pairs)

    @pytest.mark.parametrize("rho", [worst_case(), entropic(1.0)], ids=["worst_case", "entropic"])
    def test_position_whose_double_overflows_is_refused(self, quarter_space, pairs, rho):
        # x is finite, but -2|x| is not
        x = quarter_space.var([1e308, -1e308, 1.0, 2.0])
        with pytest.raises(ContractError, match=r"^penalty_bound_check: -2\|x\| overflows$"):
            penalty_bound_check(rho, x, quarter_space.var(-np.ones(4)), 0.0, pairs)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["gain", "loss"])
    @pytest.mark.parametrize("rho", [entropic(1.0), worst_case(), linear()],
                             ids=["entropic", "worst_case", "linear"])
    def test_product_that_overflows_where_its_expectation_is_finite(self, rho, sign, pairs):
        # x*y overflows on outcome 0, but E[x*y|F] = -sign * 8e307 on atom 0,
        # and -2|x| is finite; y is feasible for all but linear
        space = FiniteProbSpace(np.array([0.01, 0.49, 0.25, 0.25]))
        x = space.var([sign * 8e307, -1.0, 1.0, 2.0])
        rep = penalty_bound_check(rho, x, space.var([-50.0, 0.0, -1.0, -1.0]), 2.0, pairs)
        assert rep.passed
        # 2*rho(-2|x|) passes the largest float on atom 0, except under linear
        assert math.isinf(rep.atoms[0].bound) == (rho.tag != "linear")
        assert rep.atoms[0].hypothesis_holds == (sign < 0 and rho.tag != "linear")
        assert rep.atoms[1].hypothesis_holds  # E[x*y|F] = -1.5 and penalty 0

    @pytest.mark.parametrize("rho", [entropic(1.0), worst_case(), linear()],
                             ids=["entropic", "worst_case", "linear"])
    def test_infeasible_density_whose_expectation_overflows(self, rho, quarter_space, pairs):
        # on atom 0 the terms of E[x*y|F] are -inf and inf, and y is infeasible
        x = quarter_space.var([8e307, 8e307, 1.0, 2.0])
        y = quarter_space.var([-1e10, 1e10, -1.0, -1.0])
        rep = penalty_bound_check(rho, x, y, 2.0, pairs)
        assert rep.passed
        assert (rep.atoms[0].hypothesis_holds, rep.atoms[0].penalty) == (False, math.inf)
        assert rep.atoms[1].hypothesis_holds

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_density_that_is_not_finite_is_refused(self, quarter_space, pairs, value):
        x = quarter_space.var([0.5, -0.3, 1.0, 0.1])
        y = quarter_space.var([value, -1.0, -1.0, -1.0])
        with pytest.raises(ContractError, match="^penalty_bound_check requires finite values$"):
            penalty_bound_check(entropic(1.0), x, y, 0.0, pairs)


class TestDynamic:
    def test_single_stage_matches_evaluate(self, quarter_space, pairs):
        rho = entropic(1.0)
        dyn = DynamicRiskMeasure(((pairs, rho),))
        x = quarter_space.var([0.4, -0.2, 0.9, 1.4])
        out = dynamic_evaluate(dyn, x)
        np.testing.assert_array_equal(out[0].values, rho.evaluate(x, pairs).values)

    def test_constant_position_every_stage(self, quarter_space, pairs):
        rho = entropic(1.0)
        dyn = DynamicRiskMeasure(((SubAlgebra.trivial(4), rho), (pairs, rho)))
        out = dynamic_evaluate(dyn, quarter_space.var(np.full(4, 3.0)))
        for stage in out:
            np.testing.assert_allclose(stage.values, -3.0, rtol=1e-12)

    def test_two_stage_values_differ_from_scalarized(self, quarter_space, pairs):
        rho = entropic(1.0)
        dyn = DynamicRiskMeasure(((SubAlgebra.trivial(4), rho), (pairs, rho)))
        x = quarter_space.var([0.3, -1.0, 0.5, 2.0])
        stage0, stage1 = dynamic_evaluate(dyn, x)
        scalarized = float(np.dot(quarter_space.probs, stage1.values))
        assert stage0.values[0] != pytest.approx(scalarized, abs=1e-6)
        # averaging the later stage can only lower the entropic value
        assert scalarized <= stage0.values[0] + 1e-12

    def test_refinement_enforced(self, quarter_space, pairs):
        rho = entropic(1.0)
        with pytest.raises(StructuralError):
            DynamicRiskMeasure(((pairs, rho), (SubAlgebra.trivial(4), rho)))

    def test_non_monotone_stage_rejected(self, quarter_space, pairs):
        def not_monotone(v, alg):
            return cond_expectation(v, alg)  # increasing, not decreasing

        dyn = DynamicRiskMeasure(((SubAlgebra.trivial(4), entropic(1.0)),
                                  (pairs, custom(not_monotone))))
        with pytest.raises(ContractError, match="axiom probes"):
            dynamic_evaluate(dyn, quarter_space.var([0.3, -1.0, 0.5, 2.0]))

    def test_non_measurable_stage_rejected(self, quarter_space, pairs):
        # -x passes the axiom probes but is not constant on the atoms
        dyn = DynamicRiskMeasure(((pairs, custom(lambda x, a: -x)),))
        with pytest.raises(ContractError, match="not measurable"):
            dynamic_evaluate(dyn, quarter_space.var([0.3, -1.0, 0.5, 2.0]))


class TestAxiomProbe:
    def test_broken_measure_detected(self, quarter_space, pairs):
        def not_monotone(v, alg):
            return cond_expectation(v, alg)  # increasing, not decreasing

        rep = check_axioms(custom(not_monotone), quarter_space, pairs)
        assert not rep.passed
        assert not rep.monotone_ok

    @pytest.mark.parametrize("evaluate, flags", [
        # -2 E[x|F]: monotone and linear, but shifts by 2m for an amount m
        (lambda x, a: cond_expectation(x, a) * -2.0, (True, False, True)),
        # -max of x per atom: monotone and cash invariant, but concave
        (lambda x, a: ess_inf_cond(-x, a), (True, True, False)),
        # inf everywhere: every deviation is inf - inf, NaN, which fails
        pytest.param(lambda x, a: x * 0.0 + math.inf, (False, False, False),
                     marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")),
    ], ids=["cash", "convex", "inf"])
    def test_each_flag_on_its_own(self, quarter_space, pairs, evaluate, flags):
        rep = check_axioms(custom(evaluate), quarter_space, pairs)
        assert (rep.monotone_ok, rep.cash_ok, rep.convex_ok) == flags
        assert rep.passed is all(flags)
