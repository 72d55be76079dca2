import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    ContractError,
    FiniteProbSpace,
    Filtration,
    PartitionError,
    RandomVar,
    StructuralError,
    SubAlgebra,
    concatenate,
    cond_expectation,
    ess_inf_cond,
    ess_sup_cond,
    is_measurable,
)


@pytest.fixture
def quarter_space():
    return FiniteProbSpace(np.array([0.25, 0.25, 0.25, 0.25]))


@pytest.fixture
def pairs(quarter_space):
    return SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)


class TestConstruction:
    def test_rejects_nonpositive_probs(self):
        with pytest.raises(StructuralError):
            FiniteProbSpace(np.array([0.5, 0.5, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(StructuralError):
            FiniteProbSpace(np.array([0.5, 0.4]))

    def test_rejects_nan_values(self, quarter_space):
        with pytest.raises(StructuralError):
            RandomVar(np.array([1.0, np.nan, 0.0, 0.0]), quarter_space)

    def test_rejects_wrong_length(self, quarter_space):
        with pytest.raises(StructuralError):
            RandomVar(np.array([1.0, 2.0]), quarter_space)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None], ids=["zero", "negative", "float",
                                                                "bool", "none"])
    def test_uniform_needs_a_positive_integer_count(self, n):
        with pytest.raises(StructuralError, match="uniform space needs an integer n >= 1"):
            FiniteProbSpace.uniform(n)

    @pytest.mark.parametrize("atoms, n", [(((0,),), -1), (((0,), (1,)), 2.0), (((0,),), True),
                                          (((0,),), None)],
                             ids=["negative", "float", "bool", "none"])
    def test_algebra_needs_an_integer_outcome_count(self, atoms, n):
        with pytest.raises(StructuralError, match=r"^n_outcomes must be an integer >= 0, got "):
            SubAlgebra(atoms, n)

    @pytest.mark.parametrize("n", [2.0, None], ids=["float", "none"])
    @pytest.mark.parametrize("make", [SubAlgebra.trivial, SubAlgebra.discrete],
                             ids=["trivial", "discrete"])
    def test_named_algebras_need_an_integer_outcome_count(self, make, n):
        with pytest.raises(StructuralError, match=r"^n_outcomes must be an integer >= 0, got "):
            make(n)

    def test_algebra_on_no_outcomes(self):
        alg = SubAlgebra((), 0)
        assert (alg.n_atoms, alg.atom_of.size) == (0, 0)

    def test_uniform_takes_a_numpy_integer(self):
        np.testing.assert_array_equal(FiniteProbSpace.uniform(np.int64(4)).probs, [0.25] * 4)

    def test_atoms_must_partition(self):
        with pytest.raises(StructuralError):
            SubAlgebra.from_atoms([(0, 1), (1, 2)], 3)
        with pytest.raises(StructuralError):
            SubAlgebra.from_atoms([(0,), (2,)], 3)

    def test_space_and_variable_compare_and_hash_by_identity(self):
        probs = np.array([0.25, 0.75])
        space, twin = FiniteProbSpace(probs), FiniteProbSpace(probs)
        x, x_twin = space.var([1.0, 2.0]), space.var([1.0, 2.0])
        for a, b in ((space, twin), (x, x_twin)):
            assert a == a and a != b
            assert hash(a) == hash(a)
            assert {a, b, a} == {a, b} and len({a, b}) == 2
            assert a in {a} and b not in {a}
        # arithmetic still accepts a variable on a space of equal probabilities
        assert (x + twin.var([1.0, 1.0])).values.tolist() == [2.0, 3.0]

    def test_filtration_requires_refinement(self):
        coarse = SubAlgebra.from_atoms([(0, 1), (2, 3)], 4)
        fine = SubAlgebra.discrete(4)
        Filtration((coarse, fine))
        with pytest.raises(StructuralError):
            Filtration((fine, coarse))



def _first_fault(atoms, n):
    """Brute force: ((atom, entry), held_by) of the first entry out of range
    or repeating an earlier one, else ((), None)."""
    holder = {}
    for j, atom in enumerate(atoms):
        for i, outcome in enumerate(atom):
            if not 0 <= outcome < n:
                return (j, i), None
            if outcome in holder:
                return (j, i), holder[outcome]
            holder[outcome] = j
    return (), None


class TestRefusalsLocateTheFault:
    @pytest.mark.parametrize("probs, at, message", [
        ([0.5, 0.0, 0.5], (1,), "probs[1]: probability must be finite and > 0, got 0.0"),
        ([0.5, 0.5, np.nan], (2,), "probs[2]: probability must be finite and > 0, got nan"),
        ([np.inf, -1.0], (0,), "probs[0]: probability must be finite and > 0, got inf"),
        ([0.5, 0.4], (), "probabilities must sum to 1, got 0.9"),
    ])
    def test_probabilities(self, probs, at, message):
        with pytest.raises(StructuralError) as err:
            FiniteProbSpace(np.array(probs))
        assert (err.value.at, str(err.value)) == (at, message)

    @pytest.mark.parametrize("values, at", [
        ([1.0, 2.0, np.nan, np.nan], (2,)),
        ([[1.0, 2.0, 3.0, 4.0], [0.0, np.nan, 0.0, np.nan]], (1, 1)),
    ])
    def test_nan_position(self, quarter_space, values, at):
        with pytest.raises(StructuralError) as err:
            RandomVar(np.array(values), quarter_space)
        assert err.value.at == at and err.value.reason == "NaN is not a permitted value"
        assert str(err.value) == f"values{''.join(f'[{i}]' for i in at)}: {err.value.reason}"

    @pytest.mark.parametrize("atoms, message, held_by, uncovered", [
        ([(0, 1), (2, 5)], "atoms[1][1]: outcome 5 is out of range 0..3", None, ()),
        ([(0, -1), (2, 3)], "atoms[0][1]: outcome -1 is out of range 0..3", None, ()),
        ([(0, 1), (2, 2, 3)], "atoms[1][1]: outcome 2 is repeated within atom 1", 1, ()),
        ([(0, 1), (3, 1), (2,)], "atoms[1][1]: outcome 1 appears in more than one atom", 0, ()),
        ([(3,), (0,)], "atoms do not cover outcomes [1, 2]", None, (1, 2)),
        ([(0, 1.5), (2, 3)], "atoms[0][1]: outcome 1.5 is not an integer", None, ()),
        ([(0, 1.0), (2, 3)], "atoms[0][1]: outcome 1.0 is not an integer", None, ()),
        ([(0, 1), (True, 3)], "atoms[1][0]: outcome True is not an integer", None, ()),
        ([("0", 1), (2, 3)], "atoms[0][0]: outcome '0' is not an integer", None, ()),
        ([(0, 7), (2, 1.5)], "atoms[0][1]: outcome 7 is out of range 0..3", None, ()),
    ])
    def test_partition(self, atoms, message, held_by, uncovered):
        with pytest.raises(PartitionError) as err:
            SubAlgebra.from_atoms(atoms, 4)
        assert str(err.value) == message
        assert (err.value.held_by, err.value.uncovered) == (held_by, uncovered)

    @pytest.mark.parametrize("indices, message", [
        ([-1], "indices[0]: outcome -1 is out of range 0..3"),
        ([np.int64(-1)], "indices[0]: outcome -1 is out of range 0..3"),
        ([0, 5], "indices[1]: outcome 5 is out of range 0..3"),
        ([1.5], "indices[0]: outcome 1.5 is not an integer"),
        ([2, True], "indices[1]: outcome True is not an integer"),
    ])
    def test_indicator(self, quarter_space, indices, message):
        with pytest.raises(StructuralError) as err:
            quarter_space.indicator(indices)
        assert (str(err.value), err.value.at) == (message, (len(indices) - 1,))

    def test_empty_atom(self):
        with pytest.raises(StructuralError, match=r"^atoms\[1\]: atom is empty$"):
            SubAlgebra.from_atoms([(0, 1), (), (2,)], 3)

    def test_numpy_entries(self):
        for entry in (np.float64(3.0), np.bool_(True)):
            with pytest.raises(PartitionError, match="is not an integer") as err:
                SubAlgebra.from_atoms([(0, 1), (2, entry)], 4)
            assert err.value.at == (1, 1)
        alg = SubAlgebra.from_atoms([np.array([1, 0]), (np.int32(2), np.uint8(3))], 4)
        assert alg.atoms == ((1, 0), (2, 3))
        assert all(type(i) is int for atom in alg.atoms for i in atom)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(-1, n), min_size=1, max_size=4), min_size=1, max_size=4))))
    def test_partition_fault_is_the_first_in_order(self, case):
        n, atoms = case
        at, held_by = _first_fault(atoms, n)
        flat = [i for atom in atoms for i in atom]
        if not at and sorted(flat) == list(range(n)):
            assert SubAlgebra.from_atoms(atoms, n).atoms == tuple(map(tuple, atoms))
            return
        with pytest.raises(PartitionError) as err:
            SubAlgebra.from_atoms(atoms, n)
        assert (err.value.at, err.value.held_by) == (at, held_by)
        if not at:
            assert err.value.uncovered == tuple(sorted(set(range(n)) - set(flat)))


class TestConstructorsCopy:
    def test_caller_arrays_stay_writable(self):
        probs, values = np.array([0.5, 0.5]), np.array([1.0, -2.0])
        space = FiniteProbSpace(probs)
        x = RandomVar(values, space)
        probs[0], values[0] = 0.25, 3.0
        assert probs.flags.writeable and values.flags.writeable
        np.testing.assert_array_equal(space.probs, [0.5, 0.5])
        np.testing.assert_array_equal(x.values, [1.0, -2.0])
        for own in (space.probs, x.values):
            assert not own.flags.writeable
            with pytest.raises(ValueError):
                own[0] = 0.0


class TestCondExpectation:
    def test_equal_weight_averages(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        out = cond_expectation(x, pairs)
        np.testing.assert_array_equal(out.values, [2.0, 2.0, 4.0, 4.0])

    def test_trivial_algebra_gives_mean(self, quarter_space):
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        out = cond_expectation(x, SubAlgebra.trivial(4))
        np.testing.assert_allclose(out.values, 3.0)

    def test_weighted_hand_evaluation(self):
        space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
        alg = SubAlgebra.from_atoms([(0, 1), (2,)], 3)
        out = cond_expectation(space.var([10.0, 0.0, 7.0]), alg)
        np.testing.assert_allclose(out.values, [4.0, 4.0, 7.0], rtol=1e-14)

    def test_rejects_infinite_values(self, quarter_space, pairs):
        x = quarter_space.var([1.0, np.inf, 0.0, 0.0])
        with pytest.raises(ContractError):
            cond_expectation(x, pairs)

    def test_dimension_mismatch(self, quarter_space):
        alg = SubAlgebra.trivial(3)
        with pytest.raises(StructuralError):
            cond_expectation(quarter_space.var([1.0, 2.0, 3.0, 4.0]), alg)

    def test_tower_property(self):
        rng = np.random.default_rng(3)
        space = FiniteProbSpace(rng.dirichlet(np.ones(8) * 4.0))
        fine = SubAlgebra.from_atoms([(0, 1), (2, 3), (4, 5), (6, 7)], 8)
        coarse = SubAlgebra.from_atoms([(0, 1, 2, 3), (4, 5, 6, 7)], 8)
        x = space.var(rng.normal(size=8) * 10.0)
        via_fine = cond_expectation(cond_expectation(x, fine), coarse)
        direct = cond_expectation(x, coarse)
        np.testing.assert_allclose(via_fine.values, direct.values, rtol=1e-12)

    def test_projection_and_measurable_scaling(self, quarter_space, pairs):
        m = quarter_space.var([5.0, 5.0, -2.0, -2.0])
        assert is_measurable(m, pairs)
        np.testing.assert_array_equal(cond_expectation(m, pairs).values, m.values)
        x = quarter_space.var([1.0, 2.0, 3.0, 4.0])
        lhs = cond_expectation(m * x, pairs).values
        rhs = m.values * cond_expectation(x, pairs).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_locality_per_atom(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 3.0, 2.0, 6.0])
        x2 = quarter_space.var([1.0, 3.0, -9.0, 4.0])
        a = cond_expectation(x, pairs).values
        b = cond_expectation(x2, pairs).values
        np.testing.assert_array_equal(a[:2], b[:2])


class TestEssSupInf:
    def test_per_atom_max(self, quarter_space, pairs):
        out = ess_sup_cond(quarter_space.var([1.0, 3.0, 2.0, 6.0]), pairs)
        np.testing.assert_array_equal(out.values, [3.0, 3.0, 6.0, 6.0])

    def test_constant(self, quarter_space, pairs):
        out = ess_sup_cond(quarter_space.var([4.0] * 4), pairs)
        np.testing.assert_array_equal(out.values, [4.0] * 4)

    def test_per_atom_min(self, quarter_space, pairs):
        out = ess_inf_cond(quarter_space.var([-1.0, 5.0, 0.0, 0.0]), pairs)
        np.testing.assert_array_equal(out.values, [-1.0, -1.0, 0.0, 0.0])

    def test_accepts_infinite_values(self, quarter_space, pairs):
        out = ess_sup_cond(quarter_space.var([np.inf, 0.0, 1.0, 2.0]), pairs)
        assert out.values[0] == np.inf


class TestConcatenate:
    def test_identical_pieces(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 2.0, 3.0, 4.0])
        out = concatenate([x, x], pairs)
        np.testing.assert_array_equal(out.values, x.values)

    def test_definition(self, quarter_space, pairs):
        a = quarter_space.var([1.0, 1.0, 9.0, 9.0])
        b = quarter_space.var([5.0, 5.0, 2.0, 2.0])
        out = concatenate([a, b], pairs)
        np.testing.assert_array_equal(out.values, [1.0, 1.0, 2.0, 2.0])

    def test_piece_count_mismatch(self, quarter_space, pairs):
        x = quarter_space.var([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StructuralError):
            concatenate([x], pairs)

    def test_commutes_with_cond_expectation(self):
        rng = np.random.default_rng(11)
        space = FiniteProbSpace(rng.dirichlet(np.ones(8) * 5.0))
        alg = SubAlgebra.from_atoms([(0, 1), (2, 3), (4, 5), (6, 7)], 8)
        partition = SubAlgebra.from_atoms([(0, 1, 2, 3), (4, 5, 6, 7)], 8)
        for _ in range(5):
            xs = [space.var(rng.normal(size=8)) for _ in range(2)]
            lhs = cond_expectation(concatenate(xs, partition), alg)
            rhs = concatenate([cond_expectation(x, alg) for x in xs], partition)
            np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-12)


class TestIsMeasurable:
    def test_constant_on_atoms(self, quarter_space, pairs):
        assert is_measurable(quarter_space.var([2.0, 2.0, 4.0, 4.0]), pairs)

    def test_not_constant(self, quarter_space, pairs):
        assert not is_measurable(quarter_space.var([2.0, 3.0, 4.0, 4.0]), pairs)

    def test_discrete_algebra_always(self, quarter_space):
        x = quarter_space.var([1.0, -2.0, 3.3, 0.0])
        assert is_measurable(x, SubAlgebra.discrete(4))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tower_property_randomized(data):
    n_blocks = data.draw(st.integers(min_value=1, max_value=4))
    sizes = [data.draw(st.integers(min_value=1, max_value=3)) for _ in range(n_blocks)]
    n = sum(sizes)
    raw = [data.draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)]
    probs = np.array(raw) / sum(raw)
    space = FiniteProbSpace(probs)
    fine_atoms = []
    start = 0
    coarse_atoms = []
    for size in sizes:
        block = tuple(range(start, start + size))
        coarse_atoms.append(block)
        half = max(1, size // 2)
        fine_atoms.append(block[:half])
        if block[half:]:
            fine_atoms.append(block[half:])
        start += size
    fine = SubAlgebra.from_atoms(fine_atoms, n)
    coarse = SubAlgebra.from_atoms(coarse_atoms, n)
    values = np.array(
        [data.draw(st.floats(min_value=-50, max_value=50)) for _ in range(n)]
    )
    x = space.var(values)
    lhs = cond_expectation(cond_expectation(x, fine), coarse).values
    rhs = cond_expectation(x, coarse).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# Reference loops over the atoms as listed, for the segment reductions of
# SubAlgebra; sums are compared within a tolerance, since the reductions add
# in ascending outcome order and may pair terms differently.
def _loop(alg, values, reduce):
    return np.array([reduce(np.asarray(values)[list(atom)]) for atom in alg.atoms])


def _loop_spread(alg, per_atom):
    out = np.empty(alg.n_outcomes)
    for k, atom in enumerate(alg.atoms):
        out[list(atom)] = per_atom[k]
    return out


@st.composite
def _partitions(draw, n=None):
    """Atoms listed in shuffled order, with unsorted outcomes inside each;
    a single atom and all singletons are drawn on purpose too."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=12))
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["single", "singletons", "random"]))
    if shape == "single":
        cuts = []
    elif shape == "singletons":
        cuts = list(range(1, n))
    else:
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)))) - {n})
    bounds = [0, *cuts, n]
    return SubAlgebra.from_atoms([perm[a:b] for a, b in zip(bounds, bounds[1:])], n)


_FINITE = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_segment_reductions_match_reference_loops(data):
    alg = data.draw(_partitions())
    n = alg.n_outcomes
    raw = data.draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    space = FiniteProbSpace(np.array(raw) / sum(raw))
    x = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    tol = 1e-12 * (1.0 + np.abs(x).sum())

    np.testing.assert_allclose(alg.atom_sum(x), _loop(alg, x, np.sum), rtol=0, atol=tol)
    np.testing.assert_array_equal(alg.first, [min(atom) for atom in alg.atoms])
    np.testing.assert_array_equal(alg.atom_of[alg.order], np.sort(alg.atom_of))

    p = space.probs
    expected = _loop_spread(alg, [
        float(np.dot(p[list(a)], x[list(a)]) / p[list(a)].sum()) for a in alg.atoms
    ])
    np.testing.assert_allclose(cond_expectation(space.var(x), alg).values, expected,
                               rtol=1e-12, atol=tol)

    extended = st.one_of(_FINITE, st.sampled_from([np.inf, -np.inf]))
    z = np.array(data.draw(st.lists(extended, min_size=n, max_size=n)))
    np.testing.assert_array_equal(alg.atom_max(z), _loop(alg, z, np.max))
    np.testing.assert_array_equal(alg.atom_min(z), _loop(alg, z, np.min))
    np.testing.assert_array_equal(ess_sup_cond(space.var(z), alg).values,
                                  _loop_spread(alg, _loop(alg, z, np.max)))
    np.testing.assert_array_equal(ess_inf_cond(space.var(z), alg).values,
                                  _loop_spread(alg, _loop(alg, z, np.min)))

    pieces = [space.var(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
              for _ in range(alg.n_atoms)]
    glued = np.empty(n)
    for k, atom in enumerate(alg.atoms):
        glued[list(atom)] = pieces[k].values[list(atom)]
    np.testing.assert_array_equal(concatenate(pieces, alg).values, glued)

    constant = _loop_spread(alg, _loop(alg, z, np.max))
    if data.draw(st.booleans()):
        constant[data.draw(st.integers(min_value=0, max_value=n - 1))] = 7.5
    loop_measurable = all(len(set(constant[list(atom)])) == 1 for atom in alg.atoms)
    assert is_measurable(space.var(constant), alg) == loop_measurable

    other = data.draw(_partitions(n))
    merged = [tuple(i for atom in alg.atoms[j::2] for i in atom) for j in range(2)]
    coarser = SubAlgebra.from_atoms([atom for atom in merged if atom], n)
    for fine, coarse in ((alg, other), (other, alg), (alg, coarser), (coarser, alg)):
        loop_refines = all(
            sum(1 for c in coarse.atoms if set(atom) & set(c)) == 1 for atom in fine.atoms
        )
        assert fine.refines(coarse) == loop_refines
    assert alg.refines(coarser)
