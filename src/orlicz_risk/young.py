"""Young functions and their conjugates.

A Young function is a convex, nondecreasing and left-continuous map
phi: [0, inf) -> [0, inf] with phi(0) = 0, finite near 0, and phi(t) -> inf.
+inf is a first-class value here.  Left-continuity is what makes phi** = phi
(Fenchel-Moreau), so every conjugate here is a Young function whose own
conjugate is phi back.  A phi with finite `finite_sup` and
phi(finite_sup) = 0 is a step: by convexity it is 0 up to finite_sup and
+inf beyond.

The module holds the mathematics only: the `scenario` module builds a Young
function from a scenario entry, through its table of families.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ParameterError

__all__ = [
    "YoungFn",
    "make_power",
    "make_linf",
    "make_exp",
    "make_piecewise",
    "conjugate",
    "conjugate_young_fn",
]

INF = math.inf


@dataclass(frozen=True, eq=False)
class YoungFn:
    """A Young function with metadata used by the norm solves and the conjugate.

    eval, conjugate_closed_form, deriv and conjugate_deriv map a float or an
    array of floats elementwise, returning +inf where the value is infinite.

    finite_sup      sup of {t : phi(t) < inf} (inf for finite-everywhere phi);
                    phi is a step when it is finite and phi(finite_sup) = 0
    sup_slope       lim phi(t)/t, the largest slope (domain bound of phi*)
    deriv           the right derivative phi'(t)
    conjugate_deriv the right derivative of phi*, t*(s) = argmax_t (s*t - phi(t))
    """

    eval: Callable[[float], float]
    finite_sup: float
    conjugate_closed_form: Callable[[float], float] | None
    family_tag: str
    sup_slope: float = INF
    params: Mapping[str, object] = field(default_factory=dict)
    deriv: Callable[[float], float] | None = None
    conjugate_deriv: Callable[[float], float] | None = None

    def __call__(self, t: float) -> float:
        return self.eval(t)


def make_power(p: float) -> YoungFn:
    """phi(t) = t**p for p >= 1.  Conjugate: (p-1)*(s/p)**(p/(p-1)) for p > 1;
    for p = 1, phi is the piecewise-linear t with a single slope 1, whose
    conjugate is 0 on [0, 1] and inf beyond."""
    p = _as_number("p", p)
    if p < 1.0:
        raise ParameterError(f"power exponent must be >= 1, got {p}")
    if p == 1.0:
        return replace(make_piecewise((), (1.0,)), family_tag="power", params={"p": 1.0})

    q = p / (p - 1.0)
    quiet = np.errstate(over="ignore")  # inf on overflow
    return YoungFn(
        quiet(lambda t: np.power(t, p)), INF, quiet(lambda s: (p - 1.0) * np.power(s / p, q)),
        "power", sup_slope=INF, params={"p": p},
        deriv=quiet(lambda t: p * np.power(t, p - 1.0)),
        conjugate_deriv=quiet(lambda s: np.power(s / p, 1.0 / (p - 1.0))),
    )


def make_linf() -> YoungFn:
    """phi(t) = 0 for t <= 1, inf for t > 1: the step at 1.  Its Luxemburg
    and Amemiya norms are the conditional essential supremum; the conjugate
    is phi*(s) = s, maximized at t = 1.  The right derivative is 0 on
    [0, 1) and inf from 1."""
    return YoungFn(lambda t: np.where(t <= 1.0, 0.0, INF)[()], 1.0, lambda s: s, "linf",
                   sup_slope=INF, deriv=lambda t: np.where(t < 1.0, 0.0, INF)[()],
                   conjugate_deriv=lambda s: np.full(np.shape(s), 1.0)[()])


def make_exp(scale: float = 1.0) -> YoungFn:
    """phi(t) = exp(scale*t) - 1, inf where that overflows float64.
    Conjugate (for scale 1): phi*(s) = s*log(s) - s + 1 for s >= 1, and 0 on
    [0, 1]."""
    scale = _as_number("scale", scale)
    if scale <= 0.0:
        raise ParameterError(f"exp scale must be positive, got {scale}")

    @np.errstate(over="ignore")  # inf on overflow
    def phi(t):
        return np.expm1(scale * np.asarray(t))[()]

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
    be nonnegative, nondecreasing, and end positive, with slopes[-1] *
    knots[-1] a finite float.  The conjugate is
    phi*(s) = max over t in {0} + knots of s*t - phi(t) up to the last slope,
    and inf beyond."""
    knots = [_as_number(f"knots[{i}]", k) for i, k in enumerate(knots)]
    slopes = [_as_number(f"slopes[{i}]", m) for i, m in enumerate(slopes)]
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
    with np.errstate(over="ignore"):
        base = np.concatenate(([0.0], np.cumsum(sl[:-1] * np.diff(bounds))))
    # below slopes[-1] * knots[-1], every s*t the conjugate forms for
    # s <= slopes[-1] is finite; phi at the last knot is too, up to rounding
    if not (np.isfinite(base[-1]) and math.isfinite(slopes[-1] * max(knots, default=0.0))):
        raise ParameterError("knots and slopes: slopes[-1] * knots[-1] must be a finite float")
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
    """`value` as a float; anything but a finite int or float, numpy's
    included, raises ParameterError naming the parameter."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        finite = abs(value) <= sys.float_info.max  # an int may be too large for a float
    else:
        finite = isinstance(value, (float, np.floating)) and math.isfinite(value)
    if not finite:
        raise ParameterError(f"parameter {name} must be a finite number, got {value!r}")
    return float(value)


def conjugate(phi: YoungFn, s: float) -> float:
    """Conjugate value phi*(s) = sup_{t >= 0} (s*t - phi(t)).

    Uses the closed form when phi has one (all four families do).  A Young
    function without one, such as `replace(phi, conjugate_closed_form=None)`,
    gets the Fenchel-Young value s*t - phi(t) at the maximizer
    t = conjugate_deriv(s); `_fenchel_young` says how its edges are decided.
    With neither field it raises ParameterError."""
    if not s >= 0.0:  # NaN too
        raise ParameterError(f"conjugate argument must be >= 0, got {s}")
    return (phi.conjugate_closed_form or _fenchel_young(phi))(s)


def _fenchel_young(phi: YoungFn) -> Callable[[float], float]:
    """phi* by the Fenchel-Young equality phi*(s) = s*t - phi(t) at the
    maximizer t = conjugate_deriv(s) (Rockafellar, Convex Analysis, Thm 23.5).

    The fields decide where that t or phi(t) is not finite: phi* is inf
    beyond sup_slope.  At s = sup_slope, where the right derivative t is
    inf, the smallest maximizer stands in: conjugate_deriv just below s,
    once phi's slope there is sup_slope, so that phi is linear beyond it.
    A step needs no case of its own, since a left-continuous step is 0 at
    its maximizer, its edge.  A value still not finite, such as one whose
    maximizer lies past the float range, raises ParameterError."""
    if phi.conjugate_deriv is None:
        raise ParameterError("the conjugate needs the Young function field "
                             "'conjugate_closed_form' or 'conjugate_deriv'")
    top = phi.sup_slope
    with np.errstate(all="ignore"):
        t_top = phi.conjugate_deriv(np.nextafter(top, 0.0))
        linear_at_top = phi.deriv is not None and phi.deriv(t_top) == top

    @np.errstate(all="ignore")
    def conj(s):
        s = np.asarray(s, dtype=float)
        t = np.where(s == top, t_top if linear_at_top else INF, phi.conjugate_deriv(s))
        value = s * t - phi.eval(t)
        beyond = (s > top) | (s == INF)
        if not np.isfinite(value[~beyond]).all():
            raise ParameterError(f"the conjugate of {phi.family_tag!r} is undecided where its "
                                 "maximizer or phi there is not finite")
        return np.where(beyond, INF, value)[()]

    return conj


def conjugate_young_fn(phi: YoungFn) -> YoungFn:
    """The conjugate as a Young function in its own right.  Its finite domain
    ends at phi's largest slope, its own conjugate is phi back for every
    left-continuous phi, and the two derivative fields swap.  The conjugate
    of a linear phi is the step 0 up to its slope, inf beyond."""
    closed = phi.conjugate_closed_form or _fenchel_young(phi)

    def conj_eval(s):
        return np.where(s > phi.sup_slope, INF, closed(s))[()]

    return YoungFn(
        conj_eval,
        phi.sup_slope,
        phi.eval,
        phi.family_tag + "*",
        sup_slope=phi.finite_sup,
        deriv=phi.conjugate_deriv,
        conjugate_deriv=phi.deriv,
    )
