import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    BracketError,
    ConvergenceError,
    ParameterError,
    bisect_monotone,
    golden_min,
    project_weighted_simplex,
    simplex_max,
)
from orlicz_risk.solvers import _WIDTH
from tests import bisect_oracle
from tests.grid_oracle import grid_simplex_max


class TestBisect:
    def test_reciprocal_root(self):
        rep = bisect_monotone(lambda t: 1.0 / t, 1.0, 0.1, 10.0)
        assert rep.arg == pytest.approx(1.0, rel=1e-9)
        assert rep.converged

    def test_constant_zero_returns_lo(self):
        rep = bisect_monotone(lambda t: 0.0, 1.0, 0.25, 10.0)
        assert rep.arg == 0.25

    def test_power2_modular(self):
        m = 12.5

        def modular(lam):
            return m / lam ** 2

        rep = bisect_monotone(modular, 1.0, 0.5, 8.0)
        assert rep.arg == pytest.approx(math.sqrt(12.5), rel=1e-8)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                        (0.5, math.nan), (0.5, math.inf), (math.inf, math.inf)])
    def test_refuses_a_bracket_that_is_not_finite_with_0_lt_lo_le_hi(self, lo, hi):
        with pytest.raises(ParameterError, match="0 < lo <= hi"):
            bisect_monotone(lambda t: 1.0 / t, 1.0, lo, hi)

    def test_bracket_error_when_target_unreachable(self):
        with pytest.raises(BracketError):
            bisect_monotone(lambda t: 2.0, 1.0, 1.0, 2.0)


class TestBisectBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
        p=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
        spread=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_matches_scalar_calls_elementwise(self, roots, p, spread):
        r = 10.0 ** np.array(roots)
        lo, hi = r / (1.0 + spread), r * (1.0 + spread)

        def f(t):
            return (r / t) ** p

        batch = bisect_monotone(f, 1.0, lo, hi)
        for i, ri in enumerate(r):
            single = bisect_monotone(lambda t: (ri / t) ** p, 1.0, lo[i], hi[i])
            assert batch.arg[i] == single.arg
            assert batch.arg[i] == pytest.approx(ri, rel=1e-9)
            assert bool(batch.attained[i]) == single.attained
        assert batch.iterations < 40

    def test_bracket_error_names_the_element(self):
        with pytest.raises(BracketError, match="element 1"):
            bisect_monotone(lambda t: np.stack([1.0 / t[..., 0], 2.0 + 0.0 * t[..., 1]], -1),
                            1.0, [0.5, 0.5], [2.0, 2.0])

    def test_refusal_names_the_bracket(self):
        with pytest.raises(ParameterError, match=r"got \[-1.0, 2.0\]"):
            bisect_monotone(lambda t: 1.0 / t, 1.0, [0.5, -1.0], [2.0, 2.0])

    def test_root_above_hi_raises_naming_the_element(self):
        with pytest.raises(BracketError, match="element 1"):
            bisect_monotone(lambda t: 1.0 / t, 1.0, [0.25, 0.25], [4.0, 0.5])

    def test_left_edge_reported_per_element(self):
        rep = bisect_monotone(lambda t: np.stack([1.0 / t[..., 0], 0.0 * t[..., 1]], -1),
                              1.0, [0.25, 0.25], [4.0, 4.0])
        assert rep.arg[0] == pytest.approx(1.0, rel=1e-9)
        assert rep.arg[1] == 0.25
        assert rep.attained.tolist() == [True, False]


# a bracket as offsets of its ends' float bit patterns from the root's: wider
# than _WIDTH floats, already narrower, a single point at or above the root,
# and one whose left end is already at or above it
BRACKET_KINDS = {
    "wide": st.tuples(st.integers(-2 ** 56, 0), st.integers(_WIDTH + 1, 2 ** 56)),
    "narrow": st.integers(0, _WIDTH).flatmap(
        lambda w: st.integers(-w, 0).map(lambda s: (s, s + w))),
    "point": st.integers(0, 2 ** 20).map(lambda d: (d, d)),
    "left": st.tuples(st.integers(0, 2 ** 20), st.integers(0, 2 ** 56)).map(
        lambda dw: (dw[0], dw[0] + dw[1])),
}


@st.composite
def bracket_sets(draw):
    """Roots `r`, brackets `lo`, `hi` of mixed kinds in a 0-d, 1-d or 2-d
    shape, and the exponent `p` of f = (r / t) ** p; at times one bracket
    lies below its root or is inverted, which the solver refuses."""
    shape = draw(st.sampled_from([(), (1,), (4,), (7,), (2, 3), (3, 1)]))
    size = math.prod(shape)
    r = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size)))
    offsets = [draw(BRACKET_KINDS[draw(st.sampled_from(sorted(BRACKET_KINDS)))])
               for _ in range(size)]
    lo, hi = (r.view(np.int64)[:, None] + np.array(offsets, np.int64)).T.view(float)
    fault = draw(st.sampled_from([None, None, None, None, "short", "inverted"]))
    if fault is not None:
        i = draw(st.integers(0, size - 1))
        lo[i], hi[i] = ((r[i] / 4.0, r[i] / 2.0) if fault == "short" else (hi[i] * 2.0, hi[i]))
    p = draw(st.sampled_from([0.5, 1.0, 2.0, 7.0]))
    return r.reshape(shape), lo.reshape(shape), hi.reshape(shape), p


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestBisectReference:
    @settings(max_examples=300, deadline=None)
    @given(bracket_sets())
    def test_matches_the_reference_bit_for_bit(self, case):
        r, lo, hi, p = case

        def f(t):
            return (r / t) ** p

        try:
            ref = bisect_oracle.bisect_monotone(f, 1.0, lo, hi)
        except (BracketError, ParameterError) as exc:
            with pytest.raises(type(exc)) as err:
                bisect_monotone(f, 1.0, lo, hi)
            assert str(err.value) == str(exc)
            return
        rep = bisect_monotone(f, 1.0, lo, hi)
        assert np.shape(rep.arg) == np.shape(rep.value) == np.shape(rep.attained) == r.shape
        assert _bits(rep.arg) == _bits(ref.arg)
        assert _bits(rep.value) == _bits(ref.value)
        assert np.asarray(rep.attained).tolist() == np.asarray(ref.attained).tolist()
        assert rep.iterations == ref.iterations


class TestGolden:
    def test_amemiya_style_objective(self):
        m = 12.5
        rep = golden_min(lambda lam: (1.0 + lam * lam * m) / lam, 0.01, 10.0)
        assert rep.value == pytest.approx(2.0 * math.sqrt(m), rel=1e-10)
        assert rep.arg == pytest.approx(1.0 / math.sqrt(m), rel=1e-4)
        assert rep.attained

    def test_limit_infimum_flagged(self):
        rep = golden_min(lambda t: 1.0 / t + 3.5, 0.5, 2.0)
        assert rep.value == pytest.approx(3.5, abs=1e-8)
        assert rep.arg > 2.0  # past the right end of the bracket
        assert rep.converged and not rep.attained

    def test_unbounded_objective_reported(self):
        rep = golden_min(lambda t: -t, 0.0, 1.0)
        assert not rep.converged and not rep.attained
        assert rep.arg > 1e40  # 80 expansions to the right

    def test_rel_tol_is_the_one_option(self):
        params = inspect.signature(golden_min).parameters.values()
        assert [(p.name, p.kind.name, p.default) for p in params] == [
            ("f", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("lo", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("hi", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("rel_tol", "KEYWORD_ONLY", 1e-10)]

    def test_interior_minimum_after_expansion(self):
        rep = golden_min(lambda t: (t - 40.0) ** 2, 0.0, 1.0)
        assert rep.arg == pytest.approx(40.0, abs=1e-6)
        assert rep.attained

    def test_tiny_objective_is_not_read_as_a_limit(self):
        # every improvement here is below 1e-97, so a stall test must be relative
        rep = golden_min(lambda t: 1e-100 * (t - 40.0) ** 2, 0.0, 1.0)
        assert rep.arg == pytest.approx(40.0, abs=1e-6)
        assert rep.attained

    def test_edge_tying_the_running_minimum_is_not_a_limit(self):
        # f(1) == f(4) == 2.5: the expansion overshot the minimum at 1.5
        rep = golden_min(lambda t: max(7.5 - 5.0 * t, t - 1.5), 0.0, 1.0)
        assert rep.arg == pytest.approx(1.5, abs=1e-8)
        assert rep.value == pytest.approx(0.0, abs=1e-8)
        assert rep.attained


class TestProjection:
    def test_uniform_weights_match_plain_simplex(self):
        v = np.array([0.4, 0.9, -0.3])
        w = np.full(3, 1.0 / 3.0)
        q = project_weighted_simplex(v, w)
        assert np.all(q >= 0.0)
        assert np.dot(w, q) == pytest.approx(1.0, abs=1e-12)

    def test_feasible_point_fixed(self):
        w = np.array([0.2, 0.3, 0.5])
        q0 = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(project_weighted_simplex(q0, w), q0, atol=1e-12)

    def test_projection_is_nearest_point(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 6)
            w = rng.uniform(0.1, 1.0, n)
            v = rng.normal(size=n) * 2.0
            q = project_weighted_simplex(v, w)
            assert np.dot(w, q) == pytest.approx(1.0, abs=1e-10)
            assert np.all(q >= -1e-12)
            # any feasible perturbation moves away from v
            for _ in range(10):
                d = rng.normal(size=n)
                d -= w * np.dot(w, d) / np.dot(w, w)
                cand = q + 1e-4 * d
                if np.any(cand < 0.0):
                    continue
                cand /= np.dot(w, cand)
                assert np.sum((cand - v) ** 2) >= np.sum((q - v) ** 2) - 1e-12


class TestSimplexMax:
    def test_linear_vertex_optimum(self):
        w = np.array([0.5, 0.5])
        c = np.array([1.0, 3.0])
        rep = simplex_max(lambda q: float(np.dot(c, q)), w)
        # mass on the better coordinate: q = (0, 1/w2)
        assert rep.value == pytest.approx(6.0, abs=1e-6)

    def test_entropy_maximized_at_uniform(self):
        w = np.array([0.2, 0.3, 0.5])

        def g(q):
            q = np.maximum(q, 1e-300)
            return -float(np.dot(w, q * np.log(q)))

        rep = simplex_max(g, w)
        np.testing.assert_allclose(rep.arg, 1.0, atol=1e-6)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_entropic_dual_value(self):
        w = np.array([0.5, 0.5])
        x = np.array([0.0, math.log(4.0)])

        def g(q):
            qc = np.maximum(q, 1e-300)
            return -float(np.dot(w, x * q)) - float(np.dot(w, qc * np.log(qc)))

        rep = simplex_max(g, w)
        assert rep.value == pytest.approx(math.log(0.625), abs=1e-8)

    def test_constraints_hold_at_solution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            w = rng.uniform(0.1, 0.6, n)
            a = rng.uniform(0.5, 2.0, n)
            c = rng.uniform(-1.0, 2.0, n)

            def g(q):
                return -float(np.dot(a, (q - c) ** 2))

            rep = simplex_max(g, w)
            q = np.asarray(rep.arg)
            assert abs(np.dot(w, q) - 1.0) <= 1e-10
            assert np.all(q >= -1e-12)

    def test_grid_oracle_agreement_on_quadratics(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            w = rng.uniform(0.2, 0.6, n)
            a = rng.uniform(0.5, 2.0, n)
            c = rng.uniform(0.0, 2.0, n)

            def g(q):
                return -float(np.dot(w * a, (q - c) ** 2))

            def g_batch(Q):
                return -np.dot((Q - c) ** 2, w * a)

            rep = simplex_max(g, w)
            _, oracle = grid_simplex_max(g_batch, w, step=1e-3)
            assert abs(rep.value - oracle) <= 1e-3

    def test_nonconvergence_carries_best_iterate(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(ConvergenceError) as err:
            simplex_max(lambda q: float(q[0] - q[1]), w, max_iter=3)
        assert err.value.best is not None
