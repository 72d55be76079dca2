import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    ParameterError,
    conjugate,
    conjugate_young_fn,
    make_exp,
    make_linf,
    make_piecewise,
    make_power,
    young_from_spec,
)
from orlicz_risk.young import YoungFn
from tests.conjugate_oracle import golden_conjugate as oracle
from tests.young_oracle import validate

INF = math.inf


class TestPower:
    def test_eval(self):
        assert make_power(2).eval(3.0) == 9.0

    def test_conjugate_p2(self):
        phi = make_power(2)
        assert phi.conjugate_closed_form(2.0) == pytest.approx(1.0)

    def test_conjugate_p1(self):
        phi = make_power(1)
        assert phi.conjugate_closed_form(0.5) == 0.0
        assert phi.conjugate_closed_form(1.5) == INF

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            make_power(0.5)

    def test_p1_maps_match_the_hand_written_ones_bit_for_bit(self):
        # the maps power(1) had before it became a one-slope piecewise function
        reference = {
            "eval": lambda t: t,
            "conjugate_closed_form": lambda s: np.where(s <= 1.0, 0.0, INF)[()],
            "deriv": lambda t: np.full(np.shape(t), 1.0)[()],
            "conjugate_deriv": lambda s: np.where(s < 1.0, 0.0, INF)[()],
        }
        grid = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0,
                         1e300, INF])
        phi = make_power(1)
        for name, old in reference.items():
            new = getattr(phi, name)
            assert np.asarray(new(grid)).tobytes() == np.asarray(old(grid)).tobytes(), name
            for t in grid.tolist():
                assert np.float64(new(t)).tobytes() == np.float64(old(t)).tobytes(), (name, t)
        assert (phi.family_tag, phi.params, phi.finite_sup, phi.sup_slope, step_at(phi)) == (
            "power", {"p": 1.0}, INF, 1.0, None)


def step_at(phi):
    """The threshold of a step phi, 0 up to a finite finite_sup and inf
    beyond, read as the package reads it: finite_sup when phi is 0 there;
    else None."""
    edge = phi.finite_sup
    return edge if math.isfinite(edge) and phi.eval(edge) == 0.0 else None


class TestLinf:
    def test_step_values(self):
        # left-continuous: 0 up to and at 1, inf from the next float on
        phi = make_linf()
        assert phi.eval(0.99) == 0.0
        assert phi.eval(1.0) == 0.0
        assert phi.eval(np.nextafter(1.0, 2.0)) == INF
        assert phi.eval(0.0) == 0.0
        assert step_at(phi) == 1.0

    def test_right_derivative(self):
        phi = make_linf()
        np.testing.assert_array_equal(phi.deriv(np.array([0.0, np.nextafter(1.0, 0.0), 1.0, 2.0])),
                                      [0.0, 0.0, INF, INF])

    def test_conjugate_is_identity(self):
        phi = make_linf()
        assert phi.conjugate_closed_form(3.0) == 3.0


class TestExp:
    def test_eval(self):
        phi = make_exp()
        assert phi.eval(1.0) == pytest.approx(math.e - 1.0)
        assert phi.eval(0.0) == 0.0
        assert phi.eval(1000.0) == INF

    def test_inf_exactly_where_float64_overflows(self):
        phi = make_exp()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert phi.eval(709.5) == math.expm1(709.5)
            assert phi.eval(710.0) == INF
            np.testing.assert_array_equal(phi.eval(np.array([709.5, 710.0])),
                                          [math.expm1(709.5), INF])

    def test_conjugate_closed_form(self):
        phi = make_exp()
        # s*log(s) - s + 1 above the unit slope, 0 at or below it
        assert phi.conjugate_closed_form(0.5) == 0.0
        s = 2.0
        assert phi.conjugate_closed_form(s) == pytest.approx(s * math.log(s) - s + 1.0)

    def test_closed_form_matches_numeric(self):
        phi = make_exp()
        for s in [0.3, 1.0, 1.7, 4.0, 20.0]:
            num = oracle(phi, s)
            assert num == pytest.approx(phi.conjugate_closed_form(s), abs=1e-9, rel=1e-8)


class TestPiecewise:
    def test_eval_accumulates_slopes(self):
        phi = make_piecewise([1.0, 2.0], [0.5, 1.0, 3.0])
        assert phi.eval(0.5) == pytest.approx(0.25)
        assert phi.eval(1.5) == pytest.approx(0.5 + 0.5)
        assert phi.eval(3.0) == pytest.approx(0.5 + 1.0 + 3.0)

    def test_rejects_nonconvex_slopes(self):
        with pytest.raises(ParameterError):
            make_piecewise([1.0], [2.0, 1.0])

    def test_validate_passes(self):
        assert validate(make_piecewise([1.0, 2.0], [0.5, 1.0, 3.0])).passed

    @pytest.mark.parametrize("knots, slopes", [
        ([1e308, 1.7e308], [0.0, 10.0, 20.0]),
        ([1e300], [0.5, 1e10]),
    ], ids=["value_at_a_knot", "last_slope_times_last_knot"])
    def test_refuses_a_scale_past_the_float_range(self, knots, slopes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"^knots and slopes: slopes\[-1\] \* knots"):
                make_piecewise(knots, slopes)

    def test_conjugate_is_finite_up_to_the_last_slope_at_the_bound(self):
        phi = make_piecewise([1e300], [0.5, 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [phi.conjugate_closed_form(s) for s in (0.5, 1.0, 1e8)]
        assert all(map(math.isfinite, values))
        assert values[-1] == pytest.approx(1e8 * 1e300 - 0.5e300)

    def test_numeric_conjugate_past_a_tied_expansion(self):
        # s*t - phi(t) ties at t = 1 and t = 4 around its maximum at the knot 1.5
        phi = make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])
        assert oracle(phi, 2.25) == pytest.approx(2.375, rel=1e-9)

    def test_closed_form_conjugate_is_the_knot_maximum(self):
        phi = make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])
        s = np.array([0.0, 0.5, 1.0, 2.25, 2.5, 2.6])
        np.testing.assert_allclose(
            phi.conjugate_closed_form(s), [0.0, 0.25, 0.5, 2.375, 2.75, INF], rtol=1e-15
        )


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=0, max_size=4),
    steps=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=5, max_size=5),
)
def test_piecewise_closed_form_conjugate_matches_numeric(widths, steps):
    knots = np.cumsum(widths).tolist()
    slopes = np.cumsum(steps[:len(knots) + 1]).tolist()
    slopes[-1] += 0.5
    phi = make_piecewise(knots, slopes)
    grid = sorted(set(np.linspace(0.0, 1.2 * slopes[-1], 13).tolist() + slopes + [2.25]))
    for s in grid:
        closed = float(phi.conjugate_closed_form(s))
        numeric = oracle(phi, s)
        if s > slopes[-1]:
            assert closed == INF
        else:
            assert closed == pytest.approx(numeric, rel=1e-8, abs=1e-9)


class TestFromSpec:
    @pytest.mark.parametrize("spec,probe,expected", [
        ({"family": "power", "params": {"p": 2}}, 3.0, 9.0),
        ({"family": "linf"}, 0.5, 0.0),
        ({"family": "exp", "params": {}}, 1.0, math.e - 1.0),
        ({"family": "piecewise", "params": {"knots": [1.0], "slopes": [1.0, 2.0]}}, 2.0, 3.0),
    ])
    def test_families(self, spec, probe, expected):
        phi = young_from_spec(spec)
        assert phi.eval(probe) == pytest.approx(expected)

    def test_unknown_family(self):
        with pytest.raises(ParameterError, match="^unknown Young family 'cosh'$"):
            young_from_spec({"family": "cosh"})


class TestFactoryParameters:
    @pytest.mark.parametrize("value", [math.nan, INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("factory, name", [
        (make_power, "p"),
        (make_exp, "scale"),
        (lambda v: make_piecewise([0.5, v], [0.0, 1.0, 2.0]), r"knots\[1\]"),
        (lambda v: make_piecewise([1.0], [v, 2.0]), r"slopes\[0\]"),
        (lambda v: make_piecewise([1.0], [1.0, v]), r"slopes\[1\]"),
    ], ids=["power", "exp", "piecewise_knot", "piecewise_slope", "piecewise_last_slope"])
    def test_non_finite_parameter_is_refused(self, factory, name, value):
        with pytest.raises(ParameterError, match=f"parameter {name} must be a finite number"):
            factory(value)

    @pytest.mark.parametrize("value", [True, "2", None])
    def test_non_number_is_refused(self, value):
        with pytest.raises(ParameterError, match="must be a finite number"):
            make_power(value)

    def test_numpy_scalars_are_numbers(self):
        assert make_power(np.int64(2)).params == {"p": 2.0}
        assert make_exp(np.float32(1.5)).params == {"scale": 1.5}
        assert make_piecewise([np.float64(1.0)], [np.int64(1), 2.0]).params == {
            "knots": (1.0,), "slopes": (1.0, 2.0)}


class TestConjugate:
    def test_zero_argument_always_zero(self):
        for phi in (make_power(2), make_power(1), make_linf(), make_exp()):
            assert conjugate(phi, 0.0) == 0.0

    def test_power2_numeric(self):
        assert oracle(make_power(2), 4.0) == pytest.approx(4.0)

    def test_linf_numeric(self):
        assert oracle(make_linf(), 3.0) == pytest.approx(3.0, rel=1e-9)

    def test_power1_unbounded_detected(self):
        assert oracle(make_power(1), 1.5) == INF

    def test_numeric_at_a_tiny_argument(self):
        # the maximizer is the knot at 1; a bracket as wide as 1/s = 1e300 would
        # overflow on its first expansion
        phi = make_piecewise([1.0], [5e-324, 0.5])
        assert oracle(phi, 1e-300) == pytest.approx(1e-300, rel=1e-9)
        for phi in (make_power(2), make_exp(), make_linf()):
            assert oracle(phi, 1e-300) == pytest.approx(float(phi.conjugate_closed_form(1e-300)),
                                                        rel=1e-9, abs=1e-300)

    def test_numeric_matches_closed_form_on_log_grid(self):
        for p in [1.5, 2.0, 3.0]:
            phi = make_power(p)
            for s in np.geomspace(0.01, 100.0, 9):
                num = oracle(phi, float(s))
                ref = phi.conjugate_closed_form(float(s))
                assert num == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(ParameterError):
            conjugate(make_power(2), -1.0)

    def test_rejects_nan_argument(self):
        with pytest.raises(ParameterError, match="must be >= 0, got nan"):
            conjugate(make_power(2), math.nan)


class TestConjugateYoungFn:
    def test_power_dual_pairs(self):
        conj2 = conjugate_young_fn(make_power(2))
        assert conj2.eval(2.0) == pytest.approx(1.0)
        assert conj2.finite_sup == INF

    def test_power1_conjugate_is_inclusive_step(self):
        conj = conjugate_young_fn(make_power(1))
        assert step_at(conj) == 1.0
        assert conj.eval(1.0) == 0.0
        assert conj.eval(1.0 + 1e-9) == INF
        assert conj.eval(np.nextafter(1.0, 2.0)) == INF

    @pytest.mark.parametrize("phi, step", [
        (make_power(1), 1.0),
        (make_piecewise([], [2.5]), 2.5),
        (make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5]), None),
        (make_exp(), None),
        (make_power(2), None),
        (make_linf(), None),
    ], ids=["power1", "one_slope", "three_slopes", "exp", "power2", "linf"])
    def test_conjugate_is_a_step_only_for_linear_phi(self, phi, step):
        assert step_at(conjugate_young_fn(phi)) == step

    def test_linf_conjugate_domain(self):
        conj = conjugate_young_fn(make_linf())
        assert conj.eval(5.0) == 5.0
        assert conj.sup_slope == 1.0

    def test_biconjugation_on_interior(self):
        for phi in (make_power(1.5), make_power(2), make_power(3), make_exp()):
            conj = conjugate_young_fn(phi)
            for t in [0.3, 0.9, 1.7, 3.0]:
                bi = oracle(conj, t)
                assert bi == pytest.approx(phi.eval(t), rel=1e-6, abs=1e-9)

    def test_biconjugation_linf_interior(self):
        conj = conjugate_young_fn(make_linf())
        for t in [0.2, 0.5, 0.9]:
            bi = oracle(conj, t)
            assert bi == pytest.approx(0.0, abs=1e-8)

    def test_linf_biconjugate_at_its_edge_is_zero(self):
        # the supremum of s*1 - s over s >= 0 is 0
        assert conjugate(conjugate_young_fn(make_linf()), 1.0) == 0.0


class TestValidate:
    def test_power_passes(self):
        report = validate(make_power(2))
        assert report.passed

    def test_linf_passes(self):
        assert validate(make_linf()).passed

    def test_step_infinite_at_its_edge_is_not_left_continuous(self):
        # linf as it was once written: inf at its threshold 1, not just beyond
        phi = YoungFn(lambda t: np.where(t < 1.0, 0.0, INF)[()], 1.0, lambda s: s, "old_linf")
        report = validate(phi)
        assert not report.passed
        assert not report.left_continuous
        assert report[1:6] == (True,) * 5
        assert report.first_violation == ("left_continuous", (1.0,), (INF,))

    def test_sqrt_fails_convexity(self):
        phi = YoungFn(lambda t: math.sqrt(t), INF, None, "custom")
        report = validate(phi)
        assert not report.passed
        assert not report.convex_ok
        assert report.first_violation[0] == "convex"

    def test_nonzero_origin_fails(self):
        phi = YoungFn(lambda t: t + 0.1, INF, None, "custom")
        report = validate(phi)
        assert not report.origin_ok
        assert report.first_violation[0] == "origin"

    def test_bounded_function_fails_divergence(self):
        phi = YoungFn(lambda t: min(t, 1.0) * 0.5, INF, None, "custom")
        report = validate(phi)
        assert not report.diverges

    @pytest.mark.parametrize("phi", [make_power(1), make_power(2), make_linf(), make_exp(),
                                     make_exp(3.0), make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])])
    def test_families_and_conjugates_pass_with_warnings_as_errors(self, phi):
        # exp overflows to inf on the grid, so its monotone test meets inf - inf
        for f in (phi, conjugate_young_fn(phi)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = validate(f)
            assert report.passed, (f.family_tag, report)
            assert all(type(flag) is bool for flag in report[:7]), report

    def test_drop_from_inf_is_not_monotone(self):
        phi = YoungFn(lambda t: INF if 10.0 < t < 100.0 else t * t, INF, None, "custom")
        report = validate(phi)
        assert not report.monotone_ok
        assert report.first_violation[0] == "monotone"
        assert report.first_violation[2][0] == INF


ALL_FAMILIES = [make_power(1), make_power(2.5), make_linf(), make_exp(1.5),
                make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])]


class TestArrayContract:
    @pytest.mark.parametrize("phi", ALL_FAMILIES + [conjugate_young_fn(f) for f in ALL_FAMILIES],
                             ids=lambda f: f.family_tag)
    def test_fields_map_arrays_elementwise(self, phi):
        t = np.array([0.0, 0.3, 0.5, 0.999, 1.0, 1.5, 2.5, 3.0, 1e3, 1e200])
        for name in ("eval", "conjugate_closed_form", "deriv", "conjugate_deriv"):
            fn = getattr(phi, name)
            np.testing.assert_array_equal(fn(t), [fn(float(v)) for v in t], err_msg=name)

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.family_tag)
    def test_derivative_fields_swap_under_conjugation(self, phi):
        conj = conjugate_young_fn(phi)
        assert conj.deriv is phi.conjugate_deriv
        assert conj.conjugate_deriv is phi.deriv

    @pytest.mark.parametrize("phi", [make_power(2.5), make_exp(1.5),
                                     make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5])],
                             ids=lambda f: f.family_tag)
    def test_derivatives_match_difference_quotients(self, phi):
        # right derivatives, probed off the kinks of the piecewise family
        for t in (0.2, 0.7, 1.2, 2.0):
            h = 1e-7
            quotient = (phi.eval(t + h) - phi.eval(t)) / h
            assert phi.deriv(t) == pytest.approx(quotient, rel=1e-5, abs=1e-6)
        for s in (0.4, 1.7, 2.2):
            t_star = phi.conjugate_deriv(s)
            value = s * t_star - phi.eval(t_star)
            assert value == pytest.approx(oracle(phi, s), rel=1e-7)

    def test_hand_built_function_without_derivatives_still_validates(self):
        phi = YoungFn(lambda t: t * t, INF, None, "custom")
        assert phi.deriv is None and phi.conjugate_deriv is None
        assert validate(phi).passed
        assert oracle(phi, 4.0) == pytest.approx(4.0, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=50.0),
    s=st.floats(min_value=0.0, max_value=50.0),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_fenchel_young_inequality(t, s, p):
    phi = make_power(p)
    ft = phi.eval(t)
    fs = phi.conjugate_closed_form(s)
    if math.isfinite(ft) and math.isfinite(fs):
        assert t * s <= ft + fs + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=0.999),
    s=st.floats(min_value=0.0, max_value=100.0),
)
def test_fenchel_young_linf(t, s):
    phi = make_linf()
    assert t * s <= phi.eval(t) + phi.conjugate_closed_form(s) + 1e-9


def fenchel_young(phi):
    """phi without its closed-form conjugate: `conjugate` takes the
    Fenchel-Young route through conjugate_deriv."""
    return replace(phi, conjugate_closed_form=None)


SWEPT = [make_power(1), make_power(1.5), make_power(2), make_power(3.3), make_exp(1.0),
         make_exp(2.0), make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5]),
         make_piecewise([1.0, 2.0, 4.0], [0.25, 0.5, 1.0, 3.0]), make_linf()]
SWEPT += [conjugate_young_fn(phi) for phi in SWEPT]
# every knot, slope and threshold of the swept functions, and its float neighbours
KINKS = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
SWEEP = sorted(set(np.geomspace(1e-300, 1e3, 304).tolist() + np.linspace(1.0, 1e3, 1000).tolist()
                   + KINKS + np.nextafter(KINKS, 0.0).tolist() + np.nextafter(KINKS, INF).tolist()))


class TestFenchelYoung:
    @pytest.mark.parametrize("phi", SWEPT, ids=[f"{phi.family_tag}{i}" for i, phi in enumerate(SWEPT)])
    def test_matches_the_closed_form(self, phi):
        # values below the smallest normal float carry no relative precision
        tiny = np.finfo(float).tiny
        undecided = []
        for s in SWEEP:
            closed = float(phi.conjugate_closed_form(s))
            try:
                value = float(conjugate(fenchel_young(phi), s))
            except ParameterError:
                undecided.append(s)
                continue
            assert value == pytest.approx(closed, rel=2e-13, abs=tiny), s
        assert not undecided or phi.family_tag == "exp*", undecided

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_exp_biconjugate_is_undecided_only_where_it_nears_overflow(self, scale):
        # the maximizer exp'(s) or phi there passes the float range only
        # where exp itself comes within a few decades of it
        phi = fenchel_young(conjugate_young_fn(make_exp(scale)))
        for s in SWEEP:
            try:
                conjugate(phi, s)
            except ParameterError as err:
                assert "is undecided" in str(err)
                assert math.expm1(min(scale * s, 709.0)) > 1e304, s

    def test_exp_biconjugate_past_4_to_the_200(self):
        phi = fenchel_young(conjugate_young_fn(make_exp()))
        assert conjugate(phi, 316.2) == pytest.approx(math.expm1(316.2), rel=1e-13)

    def test_linf_is_exact(self):
        assert conjugate(fenchel_young(make_linf()), 2.0) == 2.0

    def test_piecewise_is_exact_at_its_largest_slope(self):
        phi = fenchel_young(make_piecewise([0.5, 1.5], [0.0, 1.0, 2.5]))
        assert conjugate(phi, 2.5) == 2.75
        assert conjugate(phi, 3.0) == INF

    def test_limit_at_the_largest_slope_that_no_t_attains_is_undecided(self):
        # phi(t) = t - log(1 + t) has largest slope 1, never reached, and
        # phi*(1) = sup log(1 + t) = inf is a limit the fields cannot decide
        phi = YoungFn(lambda t: t - np.log1p(t), INF, None, "custom", sup_slope=1.0,
                      deriv=lambda t: t / (1.0 + t), conjugate_deriv=lambda s: s / (1.0 - s))
        assert conjugate(phi, 0.5) == pytest.approx(math.log(2.0) - 0.5, rel=1e-15)
        with pytest.raises(ParameterError, match="is undecided"):
            conjugate(phi, 1.0)
        assert conjugate(phi, 1.5) == INF

    def test_without_either_field_raises_naming_both(self):
        phi = YoungFn(lambda t: t * t, INF, None, "custom")
        match = "'conjugate_closed_form' or 'conjugate_deriv'"
        with pytest.raises(ParameterError, match=match):
            conjugate(phi, 4.0)
        with pytest.raises(ParameterError, match=match):
            conjugate_young_fn(phi)


class TestBiconjugate:
    @pytest.mark.parametrize("phi", SWEPT, ids=[f"{phi.family_tag}{i}" for i, phi in enumerate(SWEPT)])
    def test_returns_phi_at_its_kinks_and_edge(self, phi):
        # phi** = phi for a left-continuous phi, closed form and Fenchel-Young
        # route alike, also at the edge of the finite domain
        edge = phi.finite_sup
        points = [0.0, *KINKS, *np.nextafter(KINKS, 0.0), *np.nextafter(KINKS, INF), edge]
        if math.isfinite(edge):
            points += [np.nextafter(edge, 0.0), np.nextafter(edge, INF)]
        conj = conjugate_young_fn(phi)
        closed, routed = conjugate_young_fn(conj), conjugate_young_fn(fenchel_young(conj))
        tiny = np.finfo(float).tiny
        for t in map(float, points):
            expected = float(phi.eval(t))
            assert float(closed.eval(t)) == expected, t
            assert float(routed.eval(t)) == pytest.approx(expected, rel=2e-13, abs=tiny), t
