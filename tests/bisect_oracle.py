"""The bisection the package's `bisect_monotone` is tested against.

`bisect_monotone` here is the earlier form of the solver, kept as it was:
it steps only the brackets still wider than `_WIDTH` floats, through an
`active` mask on both ends, and finds each bracket's part with `any`,
`argmax` and a `where` for "no cut point at or below the target".  The
package's one step rule must give the same `arg`, `value`, `attained` and
`iterations`, bit for bit, and refuse the same brackets with the same
errors.  It reads `_SECTIONS` and `_WIDTH` from the package, so both cut
every bracket the same way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from orlicz_risk.errors import BracketError, ParameterError
from orlicz_risk.solvers import _SECTIONS, _WIDTH, SolveReport


def bisect_monotone(f: Callable[[np.ndarray], np.ndarray], target: float,
                    lo, hi) -> SolveReport:
    """Smallest point where the nonincreasing function f drops to <= target.

    `lo` and `hi` are one bracket or arrays of independent brackets, finite
    with 0 < lo <= hi (else a ParameterError), and `f` maps an array of
    points to the array of their values, elementwise over any leading axes.
    Positive floats sort like their int64 bit patterns, so the search runs
    on the patterns: each step cuts every bracket that still spans more than
    _WIDTH floats into _SECTIONS parts holding about as many floats each,
    with one call of f on the cut points of all brackets, stacked along a
    leading axis.  A bracket's steps depend on it alone, so every bracket
    ends where it would on its own.  Where f(hi) > target, a BracketError
    names the element.  Where f(lo) <= target, lo itself is reported, with
    `attained` False for that element.  `iterations` counts the calls of f:
    one at lo and hi together, one per step and one at the result.  For
    arrays, `arg`, `value` and `attained` are arrays with one entry per
    bracket.
    """
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    if (bad := ~(np.isfinite(hi) & (0.0 < lo) & (lo <= hi))).any():
        i = np.flatnonzero(bad)[0]
        raise ParameterError(
            f"bisect_monotone needs finite 0 < lo <= hi, got [{lo.flat[i]}, {hi.flat[i]}]")

    def ff(x: np.ndarray) -> np.ndarray:
        fx = np.asarray(f(x))
        return fx if fx.shape == x.shape else np.broadcast_to(fx, x.shape)

    flo, fhi = ff(np.stack([lo, hi]))
    edge = flo <= target
    if (up := ~edge & (fhi > target)).any():
        at = f" at element {np.flatnonzero(up)[0]}" if up.ndim else ""
        raise BracketError(f"f stays above {target} at the right end of the bracket{at}")
    # off the left edge, f(a) > target >= f(b) for the patterns a < b
    a, b = lo.view(np.int64), np.where(edge, lo, hi).view(np.int64)
    cuts = np.arange(1, _SECTIONS).reshape((-1,) + (1,) * lo.ndim)
    evals = 2
    while (active := b - a > _WIDTH).any():
        step = (b - a) // _SECTIONS
        ok = ff((a + cuts * step).view(float)) <= target
        # part j ends at the first cut point where f <= target, the last part at b
        j = np.where(ok.any(axis=0), ok.argmax(axis=0), _SECTIONS - 1)
        a, b = (np.where(active, a + j * step, a),
                np.where(active & (j < _SECTIONS - 1), a + (j + 1) * step, b))
        evals += 1
    hi = b.view(float)
    fhi = ff(hi)
    if hi.ndim == 0:
        return SolveReport(float(hi), float(fhi), evals, True, not edge)
    return SolveReport(hi, fhi, evals, True, ~edge)
