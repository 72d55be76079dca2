"""Sampled property check of a Young function, the oracle the families are
tested against.

`validate` samples a Young function's defining properties on a geometric
grid: phi(0) = 0, finite near 0, nondecreasing, convex, divergent, and
left-continuous at a finite domain edge.  It reads only `eval` and
`finite_sup`.  It never checks `deriv`, `conjugate_closed_form`,
`conjugate_deriv` or `sup_slope`, the fields the norms and the conjugate
read, so a hand-built `YoungFn` that passes may still carry wrong ones;
and a sampled grid can miss a violation between its points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from orlicz_risk.young import YoungFn

INF = math.inf


class YoungValidation(NamedTuple):
    passed: bool
    origin_ok: bool
    finite_near_zero: bool
    monotone_ok: bool
    convex_ok: bool
    diverges: bool
    left_continuous: bool
    first_violation: tuple | None


def validate(phi: YoungFn) -> YoungValidation:
    """Check the defining properties on a sampled geometric grid of 48
    points: phi(0) = 0 exactly, monotonicity and midpoint convexity on the
    open finite domain, divergence beyond 1e6 at some probe, and
    left-continuity at a finite domain edge: phi(finite_sup) must be finite
    there, the finite left limit every family has (a phi growing without
    bound toward the edge is reported too).  Each failed property has a
    witness (name, points, values); the first in that order is
    `first_violation`."""

    def safe(t: float) -> float:
        try:
            return phi.eval(t)
        except OverflowError:
            return INF

    t_hi = min(phi.finite_sup, 1e6)
    grid = [t_hi * (1.0 - 1e-9) * (1e-8) ** (1.0 - k / 47.0) for k in range(48)]
    vals = [safe(t) for t in grid]
    probes = [10.0 ** k for k in range(-2, 9)]
    if math.isfinite(phi.finite_sup):
        probes += [phi.finite_sup, 1.5 * phi.finite_sup]

    def first(witness):
        """The first witness found on the neighbouring grid pairs, or None."""
        found = (witness(*pair) for pair in zip(grid, grid[1:], vals, vals[1:]))
        return next(filter(None, found), None)

    def drop(a, b, fa, fb):
        # an infinite fa needs no slack: only fb = inf keeps the pair monotone
        slack = 1e-12 * max(1.0, abs(fa)) if math.isfinite(fa) else 0.0
        return fb < fa - slack and ("monotone", (a, b), (fa, fb))

    def above_chord(a, b, fa, fb):
        if math.isfinite(fa) and math.isfinite(fb):
            mid = 0.5 * (a + b)
            fm = safe(mid)
            tol = 1e-10 * max(1.0, abs(fa) + abs(fb))
            return fm > 0.5 * (fa + fb) + tol and ("convex", (a, mid, b), (fa, fm, fb))

    origin, near_zero, edge = safe(0.0), vals[0], phi.finite_sup
    diverges = any(safe(t) > 1e6 for t in probes)
    violations = [
        ("origin", (0.0,), (origin,)) if origin != 0.0 else None,
        ("finite_near_zero", (grid[0],), (near_zero,)) if not math.isfinite(near_zero) else None,
        first(drop),
        first(above_chord),
        None if diverges else ("diverges", tuple(probes[-2:]), (safe(probes[-1]),)),
        ("left_continuous", (edge,), (safe(edge),))
        if math.isfinite(edge) and not math.isfinite(safe(edge)) else None,
    ]
    flags = [v is None for v in violations]
    return YoungValidation(all(flags), *flags, next(filter(None, violations), None))
