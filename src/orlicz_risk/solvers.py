"""Scalar and small-dimensional convex optimization primitives.

Everything here is deterministic and stateless: bisection on monotone
functions over the float bit patterns of one bracket or of an array of
independent brackets, golden-section minimization with bracket expansion and
non-attainment detection, the coordinate ascent built on it that computes
a numeric penalty, and projected-gradient maximization of concave
functions over a weighted probability simplex.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketError, ConvergenceError, ParameterError

__all__ = [
    "SolveReport",
    "bisect_monotone",
    "golden_min",
    "simplex_max",
    "project_weighted_simplex",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# parts a bracket is cut into per step of bisect_monotone
_SECTIONS = 8
# floats a bisect_monotone bracket spans at most when it stops: a relative
# width below 2**-34.  At least _SECTIONS - 1, so that every step narrows
_WIDTH = 2 ** 18
# factor a golden_min bracket grows by per expansion, and its most expansions
_EXPAND, _MAX_EXPAND = 4.0, 80
# a golden_min expansion whose new edge improves the running minimum by less
# than this, relative, reports the edge value as a limit
_LIMIT_REL_IMPROVEMENT = 1e-13


class SolveReport(NamedTuple):
    """Outcome of a solve: the point `arg` and its `value`, the work done
    (`iterations`), and whether the solve `converged`.  `attained` is False
    when the optimum is only approached, at the left end of a bisection
    bracket or in a golden_min expansion limit."""

    arg: object
    value: float
    iterations: int
    converged: bool
    attained: bool = True


def bisect_monotone(f: Callable[[np.ndarray], np.ndarray], target: float,
                    lo, hi) -> SolveReport:
    """Smallest point where the nonincreasing function f drops to <= target.

    `lo` and `hi` are one bracket or arrays of independent brackets, finite
    with 0 < lo <= hi (else a ParameterError), and `f` maps an array of
    points to the array of their values, elementwise over any leading axes,
    or to one constant.  Positive floats sort like their int64 bit patterns,
    so the search runs on the patterns, with one rule for every bracket: a
    step of width // _SECTIONS where the bracket still spans more than
    _WIDTH floats, else of 0, cuts it into _SECTIONS parts, with one call of
    f on the cut points of all brackets, stacked along a leading axis, and
    keeps the part where f first drops to <= target.  A bracket's steps
    depend on it alone, so every bracket ends where it would on its own.
    Where f(hi) > target, a BracketError names the element.  Where
    f(lo) <= target, lo itself is reported, with `attained` False for that
    element.  `iterations` counts the calls of f: one at lo and hi
    together, one per step and one at the result.  `arg`, `value` and
    `attained` have one entry per bracket, 0-d for a single bracket.
    """
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    if (bad := ~(np.isfinite(hi) & (0.0 < lo) & (lo <= hi))).any():
        i = np.flatnonzero(bad)[0]
        raise ParameterError(
            f"bisect_monotone needs finite 0 < lo <= hi, got [{lo.flat[i]}, {hi.flat[i]}]")
    flo, fhi = np.broadcast_to(f(np.stack([lo, hi])), (2,) + lo.shape)
    edge = flo <= target
    if (up := ~edge & (fhi > target)).any():
        at = f" at element {np.flatnonzero(up)[0]}" if up.ndim else ""
        raise BracketError(f"f stays above {target} at the right end of the bracket{at}")
    # f(a) > target >= f(b) for the patterns a < b, or a == b at the left edge
    a, b = lo.view(np.int64), np.where(edge, lo, hi).view(np.int64)
    cuts = np.arange(1, _SECTIONS).reshape((-1,) + (1,) * lo.ndim)
    # row k-1 holds f <= target at cut point k; the last row stands for b
    ok = np.ones((_SECTIONS,) + lo.shape, bool)
    evals = 2
    while np.logical_or.reduce(live := (width := b - a) > _WIDTH, None):
        step = width // _SECTIONS * live
        np.less_equal(f((a + cuts * step).view(float)), target, out=ok[:-1])
        j = ok.argmax(axis=0)
        a = a + j * step
        b = np.where(j < _SECTIONS - 1, a + step, b)
        evals += 1
    hi = b.view(float)
    return SolveReport(hi, np.broadcast_to(f(hi), hi.shape), evals, True, ~edge)


def golden_min(f: Callable[[float], float], lo: float, hi: float, *,
               rel_tol: float = 1e-10) -> SolveReport:
    """Minimize a unimodal f.  The bracket grows 4-fold toward a
    downhill edge; when an expansion's new edge improves the running minimum,
    but by less than _LIMIT_REL_IMPROVEMENT relative, the edge value is
    reported as a non-attained limit.  Hitting the cap of _MAX_EXPAND
    expansions while still improving returns converged=False (the objective
    looks unbounded).  A domain restriction is stated by the objective: +inf
    outside it stops an expansion that reaches it."""
    evals = 0
    best_x = None
    best_f = math.inf

    def tally(x: float) -> float:
        nonlocal evals, best_x, best_f
        evals += 1
        v = f(x)
        if v < best_f:
            best_f, best_x = v, x
        return v

    a, b = float(lo), float(hi)
    fa, fb = tally(a), tally(b)
    m = 0.5 * (a + b)
    fm = tally(m)

    attained = converged = True
    expansions = 0
    while fm > min(fa, fb):
        right = fb < fa
        span = (b - a) * (_EXPAND - 1.0)
        if expansions >= _MAX_EXPAND or abs(b + span) > 1e300 or abs(a - span) > 1e300:
            attained = converged = False
            break
        prev_best = best_f
        if right:
            a, fa, m, fm = m, fm, b, fb
            b = b + span
            fb = tally(b)
        else:
            b, fb, m, fm = m, fm, a, fa
            a = a - span
            fa = tally(a)
        expansions += 1
        # a limit (non-attained infimum) shows up as the new edge improving
        # the running minimum, but by a stalled relative amount; an overshot
        # interior minimum leaves the new edge at or above it instead
        edge_f = fb if right else fa
        if 0.0 < prev_best - edge_f <= _LIMIT_REL_IMPROVEMENT * abs(edge_f):
            attained = False
            break

    if attained:
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = tally(c), tally(d)
        while (b - a) > rel_tol * (abs(a) + abs(b) + 1.0):
            if fc < fd:
                b, fb = d, fd
                d, fd = c, fc
                c = b - _GOLDEN * (b - a)
                fc = tally(c)
            else:
                a, fa = c, fc
                c, fc = d, fd
                d = a + _GOLDEN * (b - a)
                fd = tally(d)

    return SolveReport(best_x, best_f, evals, converged, attained)


# sweeps of the coordinate ascent; it stops earlier once a sweep gains nothing
_MAX_SWEEPS = 120


def _coordinate_ascent_sup(objective: Callable[[np.ndarray], float], n: int) -> float:
    """Supremum of a concave objective over R^n by cyclic coordinate ascent
    started at 0, with per-coordinate golden section line searches.

    A line search that is still improving at its expansion cap signals an
    objective unbounded above; the supremum is then inf."""
    x = np.zeros(n)
    fx = objective(x)
    radius = np.ones(n)
    for sweep in range(_MAX_SWEEPS):
        improved = 0.0
        tol = 1e-4 if sweep == 0 else max(1e-11, 1e-4 * 10.0 ** (-sweep))
        for i in range(n):
            xi = x[i]

            def line(t: float) -> float:
                x[i] = t
                v = -objective(x)
                x[i] = xi
                return v

            r = max(radius[i], 1e-6)
            rep = golden_min(line, xi - r, xi + r, rel_tol=tol)
            if not rep.converged:
                return math.inf
            radius[i] = abs(rep.arg - xi) * 2.0
            if -rep.value > fx:
                improved += -rep.value - fx
                fx = -rep.value
                x[i] = rep.arg
        if improved <= 1e-12 * (1.0 + abs(fx)):
            break
    return fx


def project_weighted_simplex(v: np.ndarray, w: np.ndarray,
                             total: float = 1.0) -> np.ndarray:
    """Euclidean projection of v onto {q >= 0, sum(w*q) = total} for positive
    weights w, via the exact sorting algorithm.

    KKT gives q = max(0, v - theta*w); the support consists of the largest
    ratios v/w, and theta solves sum(w*(v - theta*w)) = total over the
    support.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(-(v / w), kind="stable")
    wv = (w * v)[order]
    ww = (w * w)[order]
    cum_wv = np.cumsum(wv)
    cum_ww = np.cumsum(ww)
    ratios = (v / w)[order]
    theta = None
    n = v.size
    for k in range(n):
        cand = (cum_wv[k] - total) / cum_ww[k]
        below = ratios[k + 1] if k + 1 < n else -math.inf
        if ratios[k] > cand >= below:
            theta = cand
            break
    if theta is None:
        theta = (cum_wv[-1] - total) / cum_ww[-1]
    q = np.maximum(v - theta * w, 0.0)
    # tiny negatives from float noise are clipped above; renormalization is
    # left to callers that need the constraint at machine precision
    return q


def simplex_max(g: Callable[[np.ndarray], float], weights: Sequence[float], *,
                grad: Callable[[np.ndarray], np.ndarray] | None = None,
                rel_tol: float = 1e-10, x_tol: float = 1e-9,
                max_iter: int = 100_000,
                q0: np.ndarray | None = None) -> SolveReport:
    """Maximize a concave g over the weighted simplex {q >= 0, sum(w*q) = 1}
    by projected-gradient ascent with Armijo backtracking.

    Infeasible or infinite objective values are rejected inside the line
    search, which keeps hard domain restrictions (inf penalties) explicit.
    Gradients default to central finite differences.
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    if n > 64:
        raise ParameterError(f"simplex_max handles at most 64 coordinates, got {n}")
    q = project_weighted_simplex(np.ones(n) if q0 is None else np.asarray(q0, float), w)
    fq = g(q)
    if not math.isfinite(fq):
        raise ConvergenceError("objective is not finite at the starting density", best=q)

    def numeric_grad(point: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        for i in range(n):
            h = 1e-7 * (1.0 + abs(point[i]))
            up = point.copy()
            dn = point.copy()
            up[i] += h
            dn[i] = max(dn[i] - h, 0.0)
            gu, gd = g(up), g(dn)
            if not (math.isfinite(gu) and math.isfinite(gd)):
                h = 1e-9 * (1.0 + abs(point[i]))
                up = point.copy()
                up[i] += h
                gu, gd = g(up), g(point)
                dn = point
            out[i] = (gu - gd) / (up[i] - dn[i])
        return out

    gradient = grad if grad is not None else numeric_grad

    def stationary(point: np.ndarray, gr: np.ndarray) -> bool:
        # unit-step projected-gradient mapping: zero (up to clipping noise)
        # exactly at KKT points, large wherever mass still wants to move
        pg = project_weighted_simplex(point + gr, w) - point
        return float(np.max(np.abs(pg))) <= 1e3 * x_tol

    step = 1.0
    stall = 0
    resets = 0
    for it in range(1, max_iter + 1):
        gr = gradient(q)
        accepted = False
        trial_step = step
        for _ in range(60):
            cand = project_weighted_simplex(q + trial_step * gr, w)
            fc = g(cand)
            move = cand - q
            if math.isfinite(fc) and fc >= fq + 1e-4 * float(np.add.reduce(gr * move)):
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            if stationary(q, gr):
                return SolveReport(q, fq, it, True)
            # the line search is jammed by coordinates living on a vastly
            # smaller scale; retry once from a fresh step before giving up
            if resets < 3:
                resets += 1
                step = 1.0
                continue
            raise ConvergenceError(
                "line search jammed at a non-stationary density",
                best=SolveReport(q, fq, it, False),
            )
        improvement = fc - fq
        displacement = float(np.max(np.abs(move)))
        q, fq = cand, fc
        step = min(trial_step * 2.0, 1e6)
        if improvement <= rel_tol * (1.0 + abs(fq)) and displacement <= x_tol:
            stall += 1
            if stall >= 3:
                if stationary(q, gradient(q)):
                    return SolveReport(q, fq, it, True)
                if resets < 3:
                    resets += 1
                    stall = 0
                    step = 1.0
                    continue
                raise ConvergenceError(
                    "progress stalled at a non-stationary density",
                    best=SolveReport(q, fq, it, False),
                )
        else:
            stall = 0
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations", best=SolveReport(q, fq, max_iter, False)
    )
