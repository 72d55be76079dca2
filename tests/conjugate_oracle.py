"""Golden-section oracle for the conjugate of a Young function.

phi*(s) = sup_{t >= 0} (s*t - phi(t)) by maximizing the concave objective
with `solvers.golden_min`, to a relative width of 1e-10, from the bracket
[0, 1], or [0, finite_sup] on a finite domain, with expansion (factor 4, at
most 80 expansions).  The objective is +inf for t < 0 and wherever phi is.
An objective still improving at the expansion cap is reported as inf, so a
finite conjugate whose maximizer lies beyond about 4**80 reads inf here.
The oracle looks only at `eval` and `finite_sup`, never at a closed form or
a derivative field, so the closed forms can be tested against it.
"""

from __future__ import annotations

import math

from orlicz_risk.solvers import golden_min


def golden_conjugate(phi, s: float) -> float:
    """phi*(s) by golden section on s*t - phi(t)."""
    if s == 0.0:
        return 0.0

    def neg_obj(t: float) -> float:
        v = phi.eval(t) if t >= 0.0 else math.inf
        return math.inf if math.isinf(v) else v - s * t

    hi = 1.0 if math.isinf(phi.finite_sup) else phi.finite_sup
    if math.isinf(phi.eval(hi)):
        hi = hi * (1.0 - 1e-12)  # stay strictly below the boundary
    report = golden_min(neg_obj, 0.0, hi, rel_tol=1e-10)
    return -report.value if report.converged else math.inf
