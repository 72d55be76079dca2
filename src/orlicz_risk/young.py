"""Young functions and their conjugates.

A Young function is a convex nondecreasing map phi: [0, inf) -> [0, inf] with
phi(0) = 0, finite near 0, and phi(t) -> inf.  +inf is a first-class value
here.  `ext_mul` traps 0*inf as a contract violation, but no library code
calls it: elsewhere 0*inf is plain float arithmetic, which gives NaN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, ParameterError
from . import solvers

__all__ = [
    "YoungFn",
    "make_power",
    "make_linf",
    "make_exp",
    "make_piecewise",
    "young_from_spec",
    "conjugate",
    "conjugate_young_fn",
    "validate",
    "YoungValidation",
    "ext_mul",
]

INF = math.inf

# exp(t) overflows float64 beyond this
_EXP_OVERFLOW = 709.0


def ext_mul(a: float, b: float) -> float:
    """Extended-real product; 0*inf is undefined and trapped."""
    if (a == 0.0 and math.isinf(b)) or (b == 0.0 and math.isinf(a)):
        raise ContractError("0 * inf is undefined in extended-real arithmetic")
    return a * b


@dataclass(frozen=True, eq=False)
class YoungFn:
    """A Young function with metadata used by the norm and conjugate solvers.

    eval, conjugate_closed_form, deriv and conjugate_deriv map a float or an
    array of floats elementwise, returning +inf where the value is infinite.

    finite_sup      sup of {t : phi(t) < inf} (inf for finite-everywhere phi)
    sup_slope       lim phi(t)/t, the largest slope (domain bound of phi*)
    step_threshold  set when phi is 0 below a threshold and inf at/above it;
                    such functions admit an exact sup-norm formula
    deriv           the right derivative phi'(t)
    conjugate_deriv the right derivative of phi*, t*(s) = argmax_t (s*t - phi(t))
    """

    eval: Callable[[float], float]
    finite_sup: float
    conjugate_closed_form: Callable[[float], float] | None
    family_tag: str
    sup_slope: float = INF
    step_threshold: float | None = None
    params: Mapping[str, object] = field(default_factory=dict)
    deriv: Callable[[float], float] | None = None
    conjugate_deriv: Callable[[float], float] | None = None

    def __call__(self, t: float) -> float:
        return self.eval(t)


def _const(value: float) -> Callable[[float], float]:
    return lambda t: np.full(np.shape(t), value)[()]


def make_power(p: float) -> YoungFn:
    """phi(t) = t**p for p >= 1.  Conjugate: (p-1)*(s/p)**(p/(p-1)) for p > 1;
    for p = 1 the conjugate is 0 on [0, 1] and inf beyond."""
    p = float(p)
    if p < 1.0:
        raise ParameterError(f"power exponent must be >= 1, got {p}")
    if p == 1.0:
        return YoungFn(
            lambda t: t, INF, lambda s: np.where(s <= 1.0, 0.0, INF)[()], "power",
            sup_slope=1.0, params={"p": 1.0}, deriv=_const(1.0),
            conjugate_deriv=lambda s: np.where(s < 1.0, 0.0, INF)[()],
        )

    q = p / (p - 1.0)
    quiet = np.errstate(over="ignore")  # inf on overflow
    return YoungFn(
        quiet(lambda t: np.power(t, p)), INF, quiet(lambda s: (p - 1.0) * np.power(s / p, q)),
        "power", sup_slope=INF, params={"p": p},
        deriv=quiet(lambda t: p * np.power(t, p - 1.0)),
        conjugate_deriv=quiet(lambda s: np.power(s / p, 1.0 / (p - 1.0))),
    )


def make_linf() -> YoungFn:
    """phi(t) = 0 for t < 1, inf for t >= 1.  Its Luxemburg norm is the
    conditional essential supremum; the conjugate is phi*(s) = s.  The
    derivative is 0 on [0, 1) and inf where phi is."""

    def step(t):
        return np.where(t < 1.0, 0.0, INF)[()]

    return YoungFn(step, 1.0, lambda s: s, "linf", sup_slope=INF, step_threshold=1.0,
                   deriv=step, conjugate_deriv=_const(1.0))


def make_exp(scale: float = 1.0) -> YoungFn:
    """phi(t) = exp(scale*t) - 1, inf once scale*t passes the overflow point.
    Conjugate (for scale 1): phi*(s) = s*log(s) - s + 1 for s >= 1, and 0 on
    [0, 1]."""
    scale = float(scale)
    if scale <= 0.0:
        raise ParameterError(f"exp scale must be positive, got {scale}")

    def phi(t):
        u = scale * np.asarray(t)
        return np.where(u > _EXP_OVERFLOW, INF, np.expm1(np.minimum(u, _EXP_OVERFLOW)))[()]

    def conj_deriv(s):
        # the maximizer of s*t - expm1(scale*t): 0 up to the slope scale
        return np.log(np.maximum(s, scale) / scale) / scale

    @np.errstate(over="ignore", invalid="ignore")
    def conj(s):
        t_star = conj_deriv(s)
        return np.where(s < INF, s * t_star - np.expm1(scale * t_star), INF)[()]

    return YoungFn(phi, INF, conj, "exp", sup_slope=INF, params={"scale": scale},
                   deriv=np.errstate(over="ignore")(lambda t: scale * np.exp(scale * t)),
                   conjugate_deriv=conj_deriv)


def make_piecewise(knots, slopes) -> YoungFn:
    """Convex piecewise-linear Young function: slopes[i] applies on
    [knots[i-1], knots[i]] with knots[-1] extended to infinity.  Slopes must
    be nonnegative, nondecreasing, and end positive.  The conjugate is
    phi*(s) = max over t in {0} + knots of s*t - phi(t) up to the last slope,
    and inf beyond."""
    knots = [float(k) for k in knots]
    slopes = [float(m) for m in slopes]
    if len(slopes) != len(knots) + 1:
        raise ParameterError("need len(knots) + 1 slopes")
    if any(k <= 0 for k in knots) or any(b <= a for a, b in zip(knots, knots[1:])):
        raise ParameterError("knots must be positive and strictly increasing")
    if any(m < 0 for m in slopes) or any(b < a for a, b in zip(slopes, slopes[1:])):
        raise ParameterError("slopes must be nonnegative and nondecreasing")
    if slopes[-1] <= 0:
        raise ParameterError("final slope must be positive so the function diverges")

    kn, sl = np.array(knots), np.array(slopes)
    bounds = np.array([0.0] + knots)
    base = np.concatenate(([0.0], np.cumsum(sl[:-1] * np.diff(bounds))))
    # the maximizers of s*t - phi(t): 0, the knots, and inf past the last slope
    argmax, at_argmax = np.append(bounds, INF), np.append(base, 0.0)

    @np.errstate(over="ignore")
    def phi(t):
        i = np.searchsorted(kn, t)
        return base[i] + sl[i] * (t - bounds[i])

    def conj(s):
        # the max over t in {0} + knots of s*t - phi(t), taken at its maximizer
        i = np.searchsorted(sl, s)
        return s * argmax[i] - at_argmax[i]

    return YoungFn(
        phi, INF, conj, "piecewise", sup_slope=slopes[-1],
        params={"knots": tuple(knots), "slopes": tuple(slopes)},
        deriv=lambda t: sl[np.searchsorted(kn, t, "right")],
        conjugate_deriv=lambda s: argmax[np.searchsorted(sl, s, "right")],
    )


def _as_number(name: str, value) -> float:
    # False for NaN, inf and integers too large for a float
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ParameterError(f"parameter {name} must be a finite number, got {value!r}")
    return float(value)


def spec_number(params: Mapping, name: str, default: float | None = None) -> float:
    """`params[name]` of a scenario entry as a float (`default` when absent and
    given); a missing, non-numeric or non-finite value raises ParameterError
    naming it."""
    if name not in params:
        if default is None:
            raise ParameterError(f"missing parameter {name!r}")
        return default
    return _as_number(repr(name), params[name])


def reject_unknown(params: Mapping, *known: str) -> None:
    """Raise ParameterError naming the first parameter of a scenario entry
    that is not one of `known`, so a misspelt optional one does not silently
    fall back to its default."""
    for name in params:
        if name not in known:
            raise ParameterError(f"unexpected parameter {name!r}")


def _spec_numbers(params: Mapping, name: str) -> list[float]:
    """`params[name]` of a scenario entry as a list of floats; raises
    ParameterError naming the parameter or item that is missing or not a
    finite number."""
    values = params.get(name)
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"parameter {name!r} must be a list of numbers, got {values!r}")
    return [_as_number(f"'{name}[{i}]'", v) for i, v in enumerate(values)]


def young_from_spec(spec: Mapping) -> YoungFn:
    """Build a Young function from a scenario entry
    {"family": "power"|"linf"|"exp"|"piecewise", "params": {...}}."""
    family = spec.get("family")
    params = spec.get("params", {})
    if family == "power":
        reject_unknown(params, "p")
        return make_power(spec_number(params, "p"))
    if family == "linf":
        reject_unknown(params)
        return make_linf()
    if family == "exp":
        reject_unknown(params, "scale")
        return make_exp(spec_number(params, "scale", 1.0))
    if family == "piecewise":
        reject_unknown(params, "knots", "slopes")
        return make_piecewise(_spec_numbers(params, "knots"), _spec_numbers(params, "slopes"))
    raise ParameterError(f"unknown Young family {family!r}")


def conjugate(phi: YoungFn, s: float, use_closed_form: bool = True) -> float:
    """Conjugate value phi*(s) = sup_{t >= 0} (s*t - phi(t)).

    Uses the closed form when the family provides one (all four families
    do), otherwise maximizes the concave objective by golden section to a
    relative width of 1e-10, with bracket expansion (factor 4, at most 200
    expansions); an objective still
    improving at the expansion cap is reported as inf.  This numeric path is
    the oracle the closed forms are tested against."""
    if s < 0.0:
        raise ParameterError(f"conjugate argument must be >= 0, got {s}")
    if s == 0.0:
        return 0.0
    if use_closed_form and phi.conjugate_closed_form is not None:
        return phi.conjugate_closed_form(s)

    def neg_obj(t: float) -> float:
        v = phi.eval(t)
        if math.isinf(v):
            return INF
        return v - s * t

    unbounded_domain = math.isinf(phi.finite_sup)
    if unbounded_domain:
        hi = max(1.0, 1.0 / s)
    else:
        # stay strictly below the (possibly infinite) boundary
        hi = phi.finite_sup
        if math.isinf(phi.eval(hi)):
            hi = hi * (1.0 - 1e-12)
    report = solvers.golden_min(
        neg_obj, 0.0, hi, rel_tol=1e-10, expand_left=False, expand_right=unbounded_domain,
    )
    return -report.value if report.converged else INF


def conjugate_young_fn(phi: YoungFn) -> YoungFn:
    """The conjugate as a Young function in its own right.  Its finite domain
    ends at phi's largest slope, its own conjugate is phi back, and the two
    derivative fields swap."""
    closed = phi.conjugate_closed_form or np.vectorize(lambda s: conjugate(phi, s), otypes=[float])

    def conj_eval(s):
        return np.where(s > phi.sup_slope, INF, closed(s))[()]

    # phi is linear when its slope at 0 is already its largest; the conjugate
    # of a linear phi is a pure step: 0 up to the slope, inf beyond
    linear = phi.deriv is not None and phi.deriv(0.0) == phi.sup_slope
    return YoungFn(
        conj_eval,
        phi.sup_slope,
        phi.eval,
        phi.family_tag + "*",
        sup_slope=phi.finite_sup,
        step_threshold=phi.sup_slope if linear else None,
        deriv=phi.conjugate_deriv,
        conjugate_deriv=phi.deriv,
    )


@dataclass(frozen=True)
class YoungValidation:
    passed: bool
    origin_ok: bool
    finite_near_zero: bool
    monotone_ok: bool
    convex_ok: bool
    diverges: bool
    first_violation: tuple | None


def validate(phi: YoungFn) -> YoungValidation:
    """Check the defining properties on a sampled geometric grid of 48
    points: phi(0) = 0 exactly, monotonicity and midpoint convexity on the
    open finite domain, and divergence beyond 1e6 at some probe.  Left-continuity at the domain
    edge is a convention the families supply and is not sampled."""

    def safe(t: float) -> float:
        try:
            return phi.eval(t)
        except OverflowError:
            return INF

    origin_ok = safe(0.0) == 0.0
    first_violation: tuple | None = None
    if not origin_ok:
        first_violation = ("origin", (0.0,), (safe(0.0),))

    t_hi = min(phi.finite_sup, 1e6)
    grid = [t_hi * (1.0 - 1e-9) * (1e-8) ** (1.0 - k / 47.0) for k in range(48)]

    finite_near_zero = math.isfinite(safe(grid[0]))
    if not finite_near_zero and first_violation is None:
        first_violation = ("finite_near_zero", (grid[0],), (safe(grid[0]),))

    vals = [safe(t) for t in grid]
    monotone_ok = True
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fb < fa - 1e-12 * max(1.0, abs(fa)):
            monotone_ok = False
            if first_violation is None:
                first_violation = ("monotone", (a, b), (fa, fb))
            break

    convex_ok = True
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if math.isinf(fa) or math.isinf(fb):
            continue
        mid = 0.5 * (a + b)
        fm = safe(mid)
        if fm > 0.5 * (fa + fb) + 1e-10 * max(1.0, abs(fa) + abs(fb)):
            convex_ok = False
            if first_violation is None:
                first_violation = ("convex", (a, mid, b), (fa, fm, fb))
            break

    diverges = False
    probes = [10.0 ** k for k in range(-2, 9)]
    if math.isfinite(phi.finite_sup):
        probes += [phi.finite_sup, 1.5 * phi.finite_sup]
    for t in probes:
        if safe(t) > 1e6:
            diverges = True
            break
    if not diverges and first_violation is None:
        first_violation = ("diverges", tuple(probes[-2:]), (safe(probes[-1]),))

    passed = origin_ok and finite_near_zero and monotone_ok and convex_ok and diverges
    return YoungValidation(
        passed, origin_ok, finite_near_zero, monotone_ok, convex_ok, diverges,
        first_violation,
    )
