import math
import time

import numpy as np
import pytest

from orlicz_risk import (
    ContractError,
    DynamicRiskMeasure,
    FiniteProbSpace,
    ParameterError,
    StructuralError,
    SubAlgebra,
    attainment_check,
    check_axioms,
    cond_expectation,
    custom,
    dual_feasible_atoms,
    dynamic_evaluate,
    entropic,
    ess_inf_cond,
    extension_check,
    fenchel_conjugate,
    lebesgue_check,
    linear,
    locality_check,
    pairing,
    penalty_bound_check,
    risk_from_spec,
    robust_representation,
    scalarize,
    uniform_order_continuity_check,
    worst_case,
)

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

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            entropic(0.0)

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


class TestRiskFromSpec:
    def test_families(self):
        assert risk_from_spec({"measure": "entropic", "params": {"gamma": 2.0}}).tag == "entropic"
        assert risk_from_spec({"measure": "worst_case"}).tag == "worst_case"
        assert risk_from_spec({"measure": "linear"}).tag == "linear"

    def test_unknown(self):
        with pytest.raises(ParameterError):
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

    def test_custom_worst_case_tied_minima(self):
        space = FiniteProbSpace.uniform(8)
        x = space.var([1.0, -2.0, 3.0, -2.0, 0.0, 5.0, -2.0, 1.0])
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

    def test_numeric_route_stops_at_the_first_unbounded_atom(self, mixed_atoms):
        space, alg = mixed_atoms
        calls = []

        def counted(x, a):
            calls.append(a)
            return linear().evaluate(x, a)

        rho = custom(counted)
        y = feasible_density(np.random.default_rng(43), space, alg)
        fenchel_conjugate(rho, y, alg)  # runs the axiom probes once
        calls.clear()
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
        rep = locality_check(lambda v: entropic(1.0).evaluate(v, pairs), quarter_space, pairs)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

    def test_planted_nonlocal_detected(self, quarter_space, pairs):
        def broadcast(v):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m))

        rep = locality_check(broadcast, quarter_space, pairs, trials=2)
        assert not rep.passed
        assert rep.witness is not None

    def test_sixteen_atoms(self):
        space = FiniteProbSpace.uniform(48)
        alg = SubAlgebra.from_atoms([range(3 * j, 3 * j + 3) for j in range(16)], 48)
        rep = locality_check(lambda v: entropic(1.0).evaluate(v, alg), space, alg, trials=2)
        assert rep.passed
        assert rep.max_deviation <= 1e-9

        def mixes_neighbours(v):
            # a measurable value per atom that also reads the next atom
            mean = cond_expectation(v, alg).values
            return space.var(mean + np.roll(mean, -3))

        rep = locality_check(mixes_neighbours, space, alg, trials=2)
        assert not rep.passed
        assert rep.witness is not None

    def test_full_union_always_equal(self, quarter_space):
        trivial = SubAlgebra.trivial(4)

        def broadcast(v):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m))

        rep = locality_check(broadcast, quarter_space, trivial, trials=2)
        assert rep.passed  # the only atom union is the whole space


class TestExtension:
    def test_identical_pieces(self, quarter_space, pairs):
        rep = extension_check(entropic(1.0), quarter_space, pairs, pairs, trials=2)
        assert rep.passed

    def test_entropic_and_worst_case(self, quarter_space, pairs):
        for rho in (entropic(1.0), worst_case()):
            rep = extension_check(rho, quarter_space, pairs, pairs, trials=5)
            assert rep.passed
            assert rep.max_deviation <= 1e-9

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

    def test_random_sweep(self, quarter_space, pairs):
        rng = np.random.default_rng(41)
        for rho in (entropic(1.0), worst_case()):
            for _ in range(10):
                x = quarter_space.var(rng.normal(size=4))
                y = feasible_density(rng, quarter_space, pairs)
                beta = float(rng.uniform(0.0, 2.0))
                assert penalty_bound_check(rho, x, y, beta, pairs).passed


class TestUniformOrderContinuity:
    def test_entropic_level_set_densities(self, quarter_space, pairs):
        # members of C are densities whose entropic penalty stays below c
        rng = np.random.default_rng(3)
        rho = entropic(1.0)
        level = 0.5
        C = [quarter_space.var(np.ones(4))]
        while len(C) < 6:
            y = feasible_density(rng, quarter_space, pairs)
            pen = fenchel_conjugate(rho, y, pairs).values
            if np.all(pen <= level):
                C.append(y * -1.0)
        us = [quarter_space.var(np.full(4, 0.5 / n ** 2)) for n in (1, 10, 100, 10_000)]
        rep = uniform_order_continuity_check(C, pairs, us)
        assert rep.passed
        assert max(rep.tail_per_atom) <= 1e-8

    def test_zero_family(self, quarter_space, pairs):
        us = [quarter_space.var(np.full(4, 1.0 / n)) for n in (1, 10, 100)]
        rep = uniform_order_continuity_check([quarter_space.var(np.zeros(4))], pairs, us)
        assert np.all(rep.sup_pairings == 0.0)

    def test_nonmonotone_rejected(self, quarter_space, pairs):
        us = [quarter_space.var(np.full(4, 0.1)), quarter_space.var(np.full(4, 0.2))]
        with pytest.raises(ContractError):
            uniform_order_continuity_check([quarter_space.var(np.ones(4))], pairs, us)

    def test_negative_element_rejected(self, quarter_space, pairs):
        us = [quarter_space.var([0.1, 0.1, -0.1, 0.1])]
        with pytest.raises(ContractError, match="nonnegative"):
            uniform_order_continuity_check([quarter_space.var(np.ones(4))], pairs, us)


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
