"""Exception types shared across the package."""

__all__ = ["OrliczRiskError", "StructuralError", "PartitionError", "ParameterError",
           "ContractError", "BracketError", "DivergenceError", "ConvergenceError"]


class OrliczRiskError(Exception):
    """Base class for all library errors."""


class StructuralError(OrliczRiskError, ValueError):
    """Shapes or index structures do not fit together (dimension mismatch,
    wrong piece count, non-partition atoms, broken filtration).

    A refusal that can point at its fault leads its message with the
    offending item, as in `probs[3]: probability must be finite and > 0,
    got 0.0`, and keeps the parts apart for a caller that words the fault in
    its own terms: `at` is the item's index in the input, one int per axis
    (empty when no single item is at fault), and `reason` the message
    without the lead."""

    def __init__(self, reason: str, field: str = "", at: tuple[int, ...] = ()):
        lead = field + "".join(f"[{i}]" for i in at) if at else ""
        super().__init__(f"{lead}: {reason}" if lead else reason)
        self.reason = reason
        self.at = at


class PartitionError(StructuralError):
    """Atoms do not partition the outcome indices 0..n-1.  `at` is (atom,)
    of the first empty atom, or (atom, entry) of the first entry, in order,
    that is not an integer or whose outcome is out of range (`held_by`
    None), or whose outcome is already held by an earlier entry of atom
    `held_by`; with neither, `at` is empty and `uncovered` lists the
    outcomes that no atom holds."""

    def __init__(self, reason: str, at: tuple[int, ...] = (), held_by: int | None = None,
                 uncovered: tuple[int, ...] = ()):
        super().__init__(reason, "atoms", at)
        self.held_by = held_by
        self.uncovered = uncovered


class ParameterError(OrliczRiskError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ContractError(OrliczRiskError, ValueError):
    """A caller-asserted contract failed a runtime probe (non-linear or
    non-local functional, extended values where finite ones are required,
    non-monotone sequence, axiom violation)."""


class BracketError(OrliczRiskError, RuntimeError):
    """A bracket holds no root: `solvers.bisect_monotone` found `f` still
    above its target at the bracket's right end `hi`.  The bracket is the
    caller's and is never widened."""


class DivergenceError(OrliczRiskError, RuntimeError):
    """A modular or objective never reached its target level."""


class ConvergenceError(OrliczRiskError, RuntimeError):
    """An iterative solve exceeded its iteration budget."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
