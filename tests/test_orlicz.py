import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    ContractError,
    DivergenceError,
    ParameterError,
    FiniteProbSpace,
    SubAlgebra,
    amemiya_norm,
    cond_expectation,
    conjugate_young_fn,
    ess_sup_cond,
    luxemburg_norm,
    make_exp,
    make_linf,
    make_power,
    make_piecewise,
    pairing,
    pairing_operator_norm,
    recover_density,
    solvers,
)
from orlicz_risk.young import YoungFn

FAMILIES = [
    make_power(1), make_power(1.5), make_power(2), make_power(3),
    make_linf(), make_exp(),
]


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


class TestLuxemburg:
    def test_power2_closed_form(self, coin):
        x = coin.var([3.0, 4.0])
        cn = luxemburg_norm(x, SubAlgebra.trivial(2), make_power(2))
        assert cn.atom_values[0] == pytest.approx(math.sqrt(12.5), rel=1e-9)

    def test_linf_is_conditional_sup_exactly(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, -0.2, 0.7])
        cn = luxemburg_norm(x, pairs, make_linf())
        expected = ess_sup_cond(abs(x), pairs)
        np.testing.assert_array_equal(cn.per_atom.values, expected.values)
        assert cn.attained == (False, False)

    def test_zero_position(self, quarter_space, pairs):
        cn = luxemburg_norm(quarter_space.var(np.zeros(4)), pairs, make_power(2))
        np.testing.assert_array_equal(cn.atom_values, [0.0, 0.0])
        assert cn.attained == (True, True)

    def test_power1_is_conditional_mean(self, coin):
        x = coin.var([3.0, 4.0])
        cn = luxemburg_norm(x, SubAlgebra.trivial(2), make_power(1))
        assert cn.atom_values[0] == pytest.approx(3.5, rel=1e-9)

    def test_rejects_infinite_input(self, coin):
        with pytest.raises(ContractError):
            luxemburg_norm(coin.var([np.inf, 1.0]), SubAlgebra.trivial(2), make_power(2))

    def test_modular_above_one_at_every_scale_diverges(self, coin):
        # phi(t) = 2 for t > 0: no scale brings E[phi(|x|/lam)] down to 1
        phi = YoungFn(lambda t: np.where(t > 0.0, 2.0, 0.0)[()], math.inf, None, "two")
        with pytest.raises(DivergenceError, match="never reached 1"):
            luxemburg_norm(coin.var([1.0, -0.5]), SubAlgebra.trivial(2), phi)

    def test_pnorm_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            space, alg = random_setup(rng)
            x = space.var(rng.uniform(-3.0, 3.0, space.n_outcomes))
            for p in (1.0, 1.5, 2.0, 3.0):
                cn = luxemburg_norm(x, alg, make_power(p))
                ref = cond_expectation(space.var(np.abs(x.values) ** p), alg).values ** (1.0 / p)
                np.testing.assert_allclose(cn.per_atom.values, ref, rtol=1e-8)


class TestAmemiya:
    def test_power2_closed_form(self, coin):
        x = coin.var([3.0, 4.0])
        cn = amemiya_norm(x, SubAlgebra.trivial(2), make_power(2))
        assert cn.atom_values[0] == pytest.approx(2.0 * math.sqrt(12.5), rel=1e-9)
        assert cn.attained == (True,)

    def test_power1_limit_not_attained(self, coin):
        x = coin.var([3.0, 4.0])
        cn = amemiya_norm(x, SubAlgebra.trivial(2), make_power(1))
        assert cn.atom_values[0] == pytest.approx(3.5, rel=1e-9)
        assert cn.attained == (False,)

    def test_linf_equals_sup(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, -0.2, 0.7])
        cn = amemiya_norm(x, pairs, make_linf())
        expected = ess_sup_cond(abs(x), pairs).values
        np.testing.assert_allclose(cn.per_atom.values, expected, rtol=1e-9)

    def test_zero_position(self, quarter_space, pairs):
        cn = amemiya_norm(quarter_space.var(np.zeros(4)), pairs, make_power(2))
        np.testing.assert_array_equal(cn.atom_values, [0.0, 0.0])


class TestNormAxioms:
    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm])
    def test_measurable_homogeneity(self, norm):
        rng = np.random.default_rng(23)
        for _ in range(6):
            space, alg = random_setup(rng)
            x = space.var(rng.normal(size=space.n_outcomes))
            lam_atoms = rng.uniform(0.3, 2.5, alg.n_atoms)
            lam = space.var(alg.broadcast(lam_atoms))
            for phi in FAMILIES:
                base = norm(x, alg, phi).atom_values
                scaled = norm(x * lam, alg, phi).atom_values
                np.testing.assert_allclose(scaled, lam_atoms * base, rtol=1e-9)

    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm])
    def test_triangle_inequality(self, norm):
        rng = np.random.default_rng(29)
        for _ in range(6):
            space, alg = random_setup(rng)
            x = space.var(rng.normal(size=space.n_outcomes))
            z = space.var(rng.normal(size=space.n_outcomes))
            for phi in FAMILIES:
                nx = norm(x, alg, phi).atom_values
                nz = norm(z, alg, phi).atom_values
                nxz = norm(x + z, alg, phi).atom_values
                assert np.all(nxz <= nx + nz + 1e-9)

    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm])
    def test_definiteness(self, norm):
        rng = np.random.default_rng(31)
        space, alg = random_setup(rng, n_max=6)
        x = space.var(rng.uniform(0.5, 2.0, space.n_outcomes))
        for phi in FAMILIES:
            assert np.all(norm(x, alg, phi).atom_values > 0.0)

    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm])
    def test_monotone_lattice(self, norm):
        rng = np.random.default_rng(37)
        for _ in range(5):
            space, alg = random_setup(rng)
            small = rng.normal(size=space.n_outcomes)
            big = small * rng.uniform(1.0, 2.0, space.n_outcomes)
            xs, xb = space.var(small), space.var(big)
            for phi in FAMILIES:
                ns = norm(xs, alg, phi).atom_values
                nb = norm(xb, alg, phi).atom_values
                assert np.all(ns <= nb + 1e-9)


class TestEquivalence:
    def test_factor_two_random(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            space, alg = random_setup(rng)
            x = space.var(rng.uniform(-3.0, 3.0, space.n_outcomes))
            for phi in FAMILIES:
                lux = luxemburg_norm(x, alg, phi).atom_values
                ame = amemiya_norm(x, alg, phi).atom_values
                assert np.all(lux - 1e-8 <= ame)
                assert np.all(ame <= 2.0 * lux + 1e-8)

    def test_power2_ratio_tight(self):
        rng = np.random.default_rng(43)
        phi = make_power(2)
        for _ in range(10):
            space, alg = random_setup(rng)
            x = space.var(rng.uniform(0.5, 3.0, space.n_outcomes))
            lux = luxemburg_norm(x, alg, phi).atom_values
            ame = amemiya_norm(x, alg, phi).atom_values
            np.testing.assert_allclose(ame / lux, 2.0, atol=1e-6)

    def test_embedding_into_global_norm(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            space, alg = random_setup(rng)
            trivial = SubAlgebra.trivial(space.n_outcomes)
            x = space.var(rng.uniform(-2.0, 2.0, space.n_outcomes))
            for phi in FAMILIES:
                per_atom = amemiya_norm(x, alg, phi).per_atom
                lhs = float(np.dot(space.probs, per_atom.values))
                rhs = amemiya_norm(x, trivial, phi).atom_values[0]
                assert lhs <= rhs + 1e-8


class TestPairing:
    def test_reduces_to_cond_expectation(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        ones = quarter_space.var(np.ones(4))
        np.testing.assert_array_equal(
            pairing(x, ones, pairs).values, [2.0, 2.0, 4.0, 4.0]
        )

    def test_zero_density(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        zero = quarter_space.var(np.zeros(4))
        np.testing.assert_array_equal(pairing(x, zero, pairs).values, np.zeros(4))

    def test_odd_symmetry(self, coin):
        x = coin.var([1.0, -1.0])
        y = coin.var([2.0, 2.0])
        assert pairing(x, y, SubAlgebra.trivial(2)).values[0] == 0.0

    def test_bilinear(self, quarter_space, pairs):
        rng = np.random.default_rng(53)
        x = quarter_space.var(rng.normal(size=4))
        y = quarter_space.var(rng.normal(size=4))
        z = quarter_space.var(rng.normal(size=4))
        lhs = pairing(x, y + z * 2.0, pairs).values
        rhs = pairing(x, y, pairs).values + 2.0 * pairing(x, z, pairs).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestPairingOperatorNorm:
    def test_power1_duality_oracle(self):
        space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
        alg = SubAlgebra.from_atoms([(0, 1), (2,)], 3)
        y = space.var([1.5, -2.0, 0.7])
        op = pairing_operator_norm(y, alg, make_power(1)).per_atom
        np.testing.assert_allclose(op.values, ess_sup_cond(abs(y), alg).values, rtol=1e-9)

    def test_linf_duality_oracle(self):
        space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
        alg = SubAlgebra.from_atoms([(0, 1), (2,)], 3)
        y = space.var([1.5, -2.0, 0.7])
        op = pairing_operator_norm(y, alg, make_linf()).per_atom
        np.testing.assert_allclose(op.values, cond_expectation(abs(y), alg).values, rtol=1e-9)

    def test_power2_self_duality(self):
        rng = np.random.default_rng(59)
        space, alg = random_setup(rng)
        y = space.var(rng.normal(size=space.n_outcomes))
        op = pairing_operator_norm(y, alg, make_power(2)).per_atom
        ref = np.sqrt(cond_expectation(y * y, alg).values)
        np.testing.assert_allclose(op.values, ref, rtol=1e-8)

    def test_zero_density(self, quarter_space, pairs):
        op = pairing_operator_norm(quarter_space.var(np.zeros(4)), pairs, make_power(2))
        np.testing.assert_array_equal(op.atom_values, [0.0, 0.0])

    def test_sampled_sup_never_exceeds_reported_norm(self):
        rng = np.random.default_rng(61)
        for phi in FAMILIES:
            space, alg = random_setup(rng, n_max=6)
            y = space.var(rng.normal(size=space.n_outcomes))
            op = pairing_operator_norm(y, alg, phi).per_atom.values
            for _ in range(40):
                x = space.var(rng.normal(size=space.n_outcomes))
                lux = luxemburg_norm(x, alg, phi).per_atom.values
                lhs = np.abs(pairing(x, y, alg).values)
                assert np.all(lhs <= op * lux + 1e-8)

    def test_hoelder_bound_random(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            space, alg = random_setup(rng)
            x = space.var(rng.normal(size=space.n_outcomes))
            y = space.var(rng.normal(size=space.n_outcomes))
            for phi in FAMILIES:
                lhs = np.abs(pairing(x, y, alg).values)
                op = pairing_operator_norm(y, alg, phi).per_atom.values
                lux = luxemburg_norm(x, alg, phi).per_atom.values
                assert np.all(lhs <= op * lux + 1e-8)


class TestRecoverDensity:
    def test_round_trip(self, quarter_space, pairs):
        rng = np.random.default_rng(71)
        y0 = quarter_space.var(rng.normal(size=4))
        y = recover_density(lambda v: pairing(v, y0, pairs), quarter_space, pairs)
        np.testing.assert_allclose(y.values, y0.values, atol=1e-12)

    def test_cond_expectation_has_unit_density(self, quarter_space, pairs):
        y = recover_density(lambda v: cond_expectation(v, pairs), quarter_space, pairs)
        np.testing.assert_allclose(y.values, np.ones(4), atol=1e-12)

    def test_atomwise_scaled_functional(self, quarter_space, pairs):
        def mu(v):
            ce = cond_expectation(v, pairs)
            return ce * quarter_space.var([2.0, 2.0, -1.0, -1.0])

        y = recover_density(mu, quarter_space, pairs)
        np.testing.assert_allclose(y.values, [2.0, 2.0, -1.0, -1.0], atol=1e-12)

    def test_nonlinear_rejected(self, quarter_space, pairs):
        with pytest.raises(ContractError):
            recover_density(
                lambda v: cond_expectation(v * v, pairs), quarter_space, pairs
            )

    def test_nonlocal_rejected(self, quarter_space, pairs):
        def broadcast_mean(v):
            m = float(np.dot(quarter_space.probs, v.values))
            return quarter_space.var(np.full(4, m))

        with pytest.raises(ContractError):
            recover_density(broadcast_mean, quarter_space, pairs)

    def test_weighted_space(self):
        rng = np.random.default_rng(73)
        space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))
        alg = SubAlgebra.from_atoms([(0, 2), (1, 3)], 4)
        y0 = space.var(rng.normal(size=4))
        y = recover_density(lambda v: pairing(v, y0, alg), space, alg)
        np.testing.assert_allclose(y.values, y0.values, atol=1e-11)


class TestStepFamilies:
    def test_inclusive_step_attained(self, coin):
        conj1 = conjugate_young_fn(make_power(1))
        x = coin.var([3.0, 4.0])
        cn = luxemburg_norm(x, SubAlgebra.trivial(2), conj1)
        assert cn.atom_values[0] == 4.0
        assert cn.attained == (True,)

    def test_piecewise_linear_conjugate_step(self, coin):
        phi = make_piecewise([], [2.0])  # phi(t) = 2t
        conj = conjugate_young_fn(phi)
        assert conj.step_threshold == 2.0
        x = coin.var([3.0, 4.0])
        cn = luxemburg_norm(x, SubAlgebra.trivial(2), conj)
        assert cn.atom_values[0] == 2.0


BASE_FAMILIES = [
    make_power(1), make_power(1.5), make_power(2), make_power(3), make_exp(), make_exp(2.5),
    make_linf(), make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5]), make_piecewise([1.0], [0.5, 2.0]),
    make_piecewise([], [2.0]),
]
ALL_FAMILIES = BASE_FAMILIES + [conjugate_young_fn(phi) for phi in BASE_FAMILIES]


def skewed_setup(rng, n, k, floor):
    """A space whose probabilities run down to about `floor`, split into k atoms."""
    probs = 10.0 ** rng.uniform(np.log10(floor), 0.0, n)
    space = FiniteProbSpace(probs / probs.sum())
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    atoms = [tuple(int(i) for i in a) for a in np.split(rng.permutation(n), cuts)]
    return space, SubAlgebra.from_atoms(atoms, n)


class TestMagnitudeAndSkewInvariance:
    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm, pairing_operator_norm])
    def test_positively_homogeneous_across_magnitudes(self, norm):
        rng = np.random.default_rng(83)
        spaces = [skewed_setup(rng, 9, 3, 1e-12), skewed_setup(rng, 6, 1, 1e-6),
                  (FiniteProbSpace(np.array([0.2, 0.3, 0.5])), SubAlgebra.trivial(3))]
        for space, alg in spaces:
            x = space.var(rng.normal(size=space.n_outcomes))
            for phi in ALL_FAMILIES:
                base = norm(x, alg, phi)
                for scale in (1e-200, 1e-100, 1e100, 1e200):
                    scaled = norm(x * scale, alg, phi)
                    np.testing.assert_allclose(
                        scaled.atom_values / scale, base.atom_values, rtol=1e-9,
                        err_msg=f"{phi.family_tag} {phi.params} at {scale}",
                    )
                    assert scaled.attained == base.attained, (phi.family_tag, scale)

    def test_tiny_magnitudes_keep_the_attained_minimum(self):
        space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
        alg = SubAlgebra.trivial(3)
        x = space.var([1.0, -2.0, 0.5])
        phi = make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])
        for scale in (1.0, 1e-100):
            ame = amemiya_norm(x * scale, alg, phi)
            op = pairing_operator_norm(x * scale, alg, make_power(2))
            assert ame.atom_values[0] / scale == pytest.approx(1.775, rel=1e-9)
            assert op.atom_values[0] / scale == pytest.approx(math.sqrt(1.525), rel=1e-9)
            assert ame.attained == op.attained == (True,)


def modular_oracle(phi, t):
    """phi written again with numpy, apart from the package."""
    fam, params = phi.family_tag, phi.params
    if fam == "power":
        return t ** params["p"]
    if fam == "exp":
        return np.expm1(params["scale"] * t)
    if fam == "linf":
        return np.where(t < 1.0, 0.0, np.inf)
    bounds = [0.0, *params["knots"], np.inf]
    return sum(m * np.clip(t - lo, 0.0, hi - lo)
               for m, lo, hi in zip(params["slopes"], bounds, bounds[1:]))


ORACLE_FAMILIES = [
    make_power(1), make_power(1.5), make_power(2), make_power(3), make_exp(), make_exp(2.5),
    make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5]), make_piecewise([1.0], [0.5, 2.0]),
]


def atom_data(x, alg, k):
    idx = list(alg.atoms[k])
    w = x.space.probs[idx] / x.space.probs[idx].sum()
    return np.abs(x.values[idx]), w


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(ORACLE_FAMILIES) - 1),
       log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_luxemburg_modular_is_one_at_the_norm(seed, which, log_scale):
    rng = np.random.default_rng(seed)
    space, alg = random_setup(rng, n_max=12)
    x = space.var(rng.normal(size=space.n_outcomes) * 10.0 ** log_scale)
    phi = ORACLE_FAMILIES[which]
    cn = luxemburg_norm(x, alg, phi)
    assert all(cn.attained)
    for k in range(alg.n_atoms):
        a, w = atom_data(x, alg, k)
        modular = float(np.dot(w, modular_oracle(phi, a / cn.atom_values[k])))
        assert modular == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, len(ORACLE_FAMILIES)),
       log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_amemiya_never_exceeds_the_objective(seed, which, log_scale):
    rng = np.random.default_rng(seed)
    space, alg = random_setup(rng, n_max=12)
    x = space.var(rng.normal(size=space.n_outcomes) * 10.0 ** log_scale)
    phi = (ORACLE_FAMILIES + [make_linf()])[which]
    values = amemiya_norm(x, alg, phi).atom_values
    for k in range(alg.n_atoms):
        a, w = atom_data(x, alg, k)
        lam = np.geomspace(1e-4, 1e4, 801) / a.max()
        with np.errstate(over="ignore", invalid="ignore"):
            objective = (1.0 + modular_oracle(phi, np.outer(lam, a)) @ w) / lam
        assert values[k] <= objective.min() * (1.0 + 1e-9)
        if phi.family_tag == "power" and phi.params["p"] > 1.0:
            p = phi.params["p"]
            m = float(np.dot(w, a ** p))
            closed = p * (p - 1.0) ** (1.0 / p - 1.0) * m ** (1.0 / p)
            assert values[k] == pytest.approx(closed, rel=1e-9)
        if phi.family_tag == "piecewise":
            # the objective mu*(1 + E phi(|x|/mu)) is convex and piecewise
            # linear in mu, kinked at |x_i| / knot_j, with limit s_last*E|x|
            # as mu -> 0: its infimum is at a kink or is that limit
            mu = np.outer(a, 1.0 / np.array(phi.params["knots"])).ravel()
            mu = mu[mu > 0.0]
            kinks = mu * (1.0 + modular_oracle(phi, np.outer(1.0 / mu, a)) @ w)
            exact = min([phi.params["slopes"][-1] * float(np.dot(w, a)), *kinks])
            assert values[k] == pytest.approx(exact, rel=1e-9)


class TestWorkBudget:
    @pytest.mark.parametrize("phi", [make_power(2), make_exp(), make_linf(),
                                     make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])],
                             ids=lambda f: f.family_tag)
    @pytest.mark.parametrize("norm", [luxemburg_norm, amemiya_norm])
    def test_one_solve_and_few_evaluations_at_1024_outcomes(self, norm, phi, monkeypatch):
        rng = np.random.default_rng(89)
        space = FiniteProbSpace.uniform(1024)
        alg = SubAlgebra.from_atoms([tuple(range(i, 1024, 16)) for i in range(16)], 1024)
        x = space.var(rng.normal(size=1024))
        evals, solves = [], []
        counted = dataclasses.replace(phi, eval=lambda t: evals.append(1) or phi.eval(t))
        bisect = solvers.bisect_monotone
        monkeypatch.setattr(solvers, "bisect_monotone",
                            lambda *a, **k: solves.append(1) or bisect(*a, **k))
        cn = norm(x, alg, counted)
        assert len(evals) <= 300
        # the sup-norm branch of the Luxemburg norm is exact and solves nothing
        exact = norm is luxemburg_norm and phi.step_threshold is not None
        assert len(solves) == (0 if exact else 1)
        np.testing.assert_array_equal(cn.atom_values, norm(x, alg, phi).atom_values)


def test_amemiya_names_a_missing_derivative_field(coin):
    phi = YoungFn(lambda t: t * t, math.inf, lambda s: s * s / 4.0, "custom")
    with pytest.raises(ParameterError, match="deriv"):
        amemiya_norm(coin.var([1.0, 2.0]), SubAlgebra.trivial(2), phi)
    with pytest.raises(ParameterError, match="deriv"):
        pairing_operator_norm(coin.var([1.0, 2.0]), SubAlgebra.trivial(2), phi)
