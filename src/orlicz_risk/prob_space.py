"""Finite probability spaces, sub-sigma-algebras as partitions, conditional
expectation, conditional essential sup/inf, and gluing along partitions.

All outcomes carry strictly positive probability, so almost-sure equality is
plain equality and no null-set bookkeeping is needed.  A sub-sigma-algebra of
the full power set is represented by the partition of outcome indices into its
atoms; a random variable is measurable w.r.t. it iff it is constant on every
atom.

A random variable holds one position, a vector of outcome values, or a stack
of m positions, an (m, n) array with one position per row.  The conditional
expectation and essential sup/inf map a stack row by row; `concatenate` and
`is_measurable` take one position and raise StructuralError on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ParameterError, PartitionError, StructuralError

__all__ = [
    "FiniteProbSpace",
    "SubAlgebra",
    "RandomVar",
    "Filtration",
    "cond_expectation",
    "ess_sup_cond",
    "ess_inf_cond",
    "concatenate",
    "is_measurable",
]

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Outcome probabilities of a finite sample space; the ambient algebra is
    the full power set.  Two spaces are equal only when they are the same
    object; operations that mix variables accept equal probabilities.

    Every probability must be finite and > 0, and they must sum to 1 within
    1e-12; a refusal names the first bad probability, or the sum."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # a copy: the caller's array stays writable
        if probs.ndim != 1 or probs.size == 0:
            raise StructuralError("probabilities must form a nonempty vector")
        bad = np.flatnonzero(~((probs > 0.0) & (probs < np.inf)))
        if bad.size:
            k = int(bad[0])
            raise StructuralError(
                f"probability must be finite and > 0, got {float(probs[k])}", "probs", (k,))
        total = float(probs.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise StructuralError(f"probabilities must sum to 1, got {total}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_outcomes(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "FiniteProbSpace":
        """n equally likely outcomes; n must be an integer >= 1."""
        if not _is_count(n, 1):
            raise StructuralError(f"a uniform space needs an integer n >= 1, got {n!r}")
        return cls(np.full(n, 1.0 / n))

    def var(self, values) -> "RandomVar":
        """Random variable on this space from a value vector."""
        return RandomVar(values, self)

    def indicator(self, indices: Iterable[int]) -> "RandomVar":
        """1 on the outcomes `indices`, 0 elsewhere.  Each index is an int or
        a numpy integer (not a bool) in 0..n-1, or a StructuralError names
        the first that is not, in the words of a SubAlgebra's refusal."""
        indices, n = list(indices), self.n_outcomes
        for i, entry in enumerate(indices):
            if not (_is_outcome(type(entry)) and 0 <= entry < n):
                raise StructuralError(_partition_fault([[entry]], n).reason, "indices", (i,))
        values = np.zeros(n)
        values[indices] = 1.0
        return RandomVar(values, self)


@dataclass(frozen=True)
class SubAlgebra:
    """A sub-sigma-algebra given by its atoms: disjoint nonempty index sets
    covering all outcomes, each entry an int or a numpy integer (not a
    bool).  Atoms that are not such a partition raise PartitionError at the
    first empty atom or offending entry, or naming the outcomes no atom
    covers; an `n_outcomes` that is not an integer >= 0 raises
    StructuralError.

    `atom_of[i]` is the atom containing outcome i.  Every per-atom
    computation runs over one segment layout built here: `order` lists the
    outcomes atom by atom, ascending inside each atom, and atom k is the
    segment of `order` that begins at `starts[k]`.  `first` holds the lowest
    outcome of each atom, where a measurable value is read.
    """

    atoms: tuple[tuple[int, ...], ...]
    n_outcomes: int

    def __post_init__(self):
        n = self.n_outcomes
        if not _is_count(n, 0):
            raise StructuralError(f"n_outcomes must be an integer >= 0, got {n!r}")
        atoms = tuple(self.atoms)
        entries = tuple(chain.from_iterable(atoms))
        if not all(map(_is_outcome, set(map(type, entries)))):
            raise _partition_fault(atoms, n)
        sizes = np.fromiter(map(len, atoms), int, len(atoms))
        flat = np.fromiter(entries, np.int64, len(entries))
        # n entries in range leave no outcome unset only if none repeats; as
        # unsigned, a negative entry is out of range too
        atom_of = np.full(n, -1)
        if flat.size == n and (flat.view(np.uint64) < n).all():
            atom_of[flat] = np.repeat(np.arange(sizes.size), sizes)
        if flat.size != n or atom_of.min(initial=0) < 0 or not sizes.all():
            raise _partition_fault(atoms, n)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        outcomes = flat.tolist()
        object.__setattr__(self, "atoms", tuple(
            tuple(outcomes[a:b]) for a, b in zip(starts.tolist(), ends.tolist())))
        order = np.argsort(atom_of, kind="stable")
        for name, array in (("atom_of", atom_of), ("order", order),
                            ("starts", starts), ("first", order[starts])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @classmethod
    def from_atoms(cls, atoms: Sequence[Sequence[int]], n_outcomes: int) -> "SubAlgebra":
        return cls(atoms, n_outcomes)

    @classmethod
    def trivial(cls, n_outcomes: int) -> "SubAlgebra":
        # a count that is not an integer >= 0 gets no outcomes: the constructor refuses it
        return cls((tuple(range(n_outcomes if _is_count(n_outcomes, 0) else 0)),), n_outcomes)

    @classmethod
    def discrete(cls, n_outcomes: int) -> "SubAlgebra":
        # one atom (i,) per outcome i, and none for a count trivial refuses
        return cls(tuple(zip(range(n_outcomes if _is_count(n_outcomes, 0) else 0))), n_outcomes)

    def atom_sum(self, values) -> np.ndarray:
        """Sum over each atom along the last (outcome) axis."""
        return np.add.reduceat(np.asarray(values).take(self.order, -1), self.starts, axis=-1)

    def atom_max(self, values) -> np.ndarray:
        """Maximum over each atom along the last (outcome) axis."""
        return np.maximum.reduceat(np.asarray(values).take(self.order, -1), self.starts, axis=-1)

    def atom_min(self, values) -> np.ndarray:
        """Minimum over each atom along the last (outcome) axis."""
        return np.minimum.reduceat(np.asarray(values).take(self.order, -1), self.starts, axis=-1)

    def refines(self, coarser: "SubAlgebra") -> bool:
        """True iff every atom of self lies inside a single atom of `coarser`."""
        if self.n_outcomes != coarser.n_outcomes:
            return False
        label = coarser.atom_of
        return bool(np.array_equal(label, label[self.first][self.atom_of]))

    def broadcast(self, atom_values: Sequence[float]) -> np.ndarray:
        """Expand one value per atom into a full outcome vector, along the
        last axis."""
        atom_values = np.asarray(atom_values, dtype=float)
        if atom_values.shape[-1:] != (self.n_atoms,):
            raise StructuralError("need exactly one value per atom")
        return atom_values.take(self.atom_of, -1)


def _is_outcome(kind: type) -> bool:
    """Whether entries of this type are outcome indices: ints and numpy
    integers, but not bools."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _partition_fault(atoms, n: int) -> PartitionError:
    """The refusal of atoms that do not partition 0..n-1: the first empty
    atom, or entry that is not an integer, out of range or repeating an
    earlier one, else the outcomes no atom holds."""
    held_by = {}
    for j, atom in enumerate(atoms):
        if not atom:
            return PartitionError("atom is empty", (j,))
        for i, entry in enumerate(atom):
            if not _is_outcome(type(entry)):
                return PartitionError(f"outcome {entry!r} is not an integer", (j, i))
            outcome = int(entry)
            if not 0 <= outcome < n:
                return PartitionError(f"outcome {outcome} is out of range 0..{n - 1}", (j, i))
            if outcome in held_by:
                where = (f"is repeated within atom {j}" if held_by[outcome] == j
                         else "appears in more than one atom")
                return PartitionError(f"outcome {outcome} {where}", (j, i), held_by[outcome])
            held_by[outcome] = j
    uncovered = tuple(sorted(set(range(n)) - held_by.keys()))
    return PartitionError(f"atoms do not cover outcomes {list(uncovered)}", uncovered=uncovered)


@dataclass(frozen=True, eq=False)
class RandomVar:
    """A real vector indexed by outcomes, or a stack of them, one per row.
    Values may be +/-inf where an operation's contract permits it; NaN
    never: a NaN raises StructuralError naming its index.  Equality is
    identity, as for the space."""

    values: np.ndarray
    space: FiniteProbSpace

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if values.ndim not in (1, 2) or values.shape[-1] != self.space.n_outcomes:
            raise StructuralError(
                f"values have shape {values.shape}, space has {self.space.n_outcomes} outcomes"
            )
        if np.isnan(values).any():
            at = tuple(map(int, np.argwhere(np.isnan(values))[0]))
            raise StructuralError("NaN is not a permitted value", "values", at)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, RandomVar):
            if other.space is not self.space and not np.array_equal(
                other.space.probs, self.space.probs
            ):
                raise StructuralError("random variables live on different spaces")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return RandomVar(self.values + self._coerce(other), self.space)

    __radd__ = __add__

    def __sub__(self, other):
        return RandomVar(self.values - self._coerce(other), self.space)

    def __rsub__(self, other):
        return RandomVar(self._coerce(other) - self.values, self.space)

    def __mul__(self, other):
        return RandomVar(self.values * self._coerce(other), self.space)

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVar(-self.values, self.space)

    def __abs__(self):
        return RandomVar(np.abs(self.values), self.space)


def _check_dims(x: RandomVar, alg: SubAlgebra, stack: bool = False):
    """Raise StructuralError unless x is one position, or with `stack` also
    a stack of them, on as many outcomes as the algebra indexes."""
    if x.values.ndim != 1 and not stack:
        raise StructuralError(f"expected one position, got a stack of {len(x.values)}")
    if alg.n_outcomes != x.space.n_outcomes:
        raise StructuralError(
            f"algebra indexes {alg.n_outcomes} outcomes, variable has {x.space.n_outcomes}"
        )


def _require_finite(x: RandomVar, what: str):
    if not x.is_finite():
        raise ContractError(f"{what} requires finite values")


def _is_count(value, least: int) -> bool:
    """Whether value is an integer >= least, numpy's included and True not."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


def _rng(seed: int, trials: int = 1) -> np.random.Generator:
    """The generator of a probe seed, an integer >= 0, for `trials` draws,
    an integer >= 1, so that no check passes without probing; any other
    seed or count, True included, raises ParameterError."""
    for name, value, least in (("seed", seed, 0), ("trials", trials, 1)):
        if not _is_count(value, least):
            raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return np.random.default_rng(seed)


def _atom_weights(space: FiniteProbSpace, alg: SubAlgebra) -> np.ndarray:
    """Each outcome's probability within its atom: p_w / P(A) for w in A."""
    return space.probs / alg.atom_sum(space.probs)[alg.atom_of]


def cond_expectation(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Conditional expectation of x given the algebra: on each atom A the
    probability-weighted average sum(p_w x_w) / P(A)."""
    _check_dims(x, alg, True)
    _require_finite(x, "conditional expectation")
    p = x.space.probs
    return RandomVar(alg.broadcast(alg.atom_sum(p * x.values) / alg.atom_sum(p)), x.space)


def ess_sup_cond(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Per-atom maximum of x, as a measurable variable of the algebra."""
    _check_dims(x, alg, True)
    return RandomVar(alg.broadcast(alg.atom_max(x.values)), x.space)


def ess_inf_cond(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Per-atom minimum of x, as a measurable variable of the algebra."""
    _check_dims(x, alg, True)
    return RandomVar(alg.broadcast(alg.atom_min(x.values)), x.space)


def concatenate(pieces: Sequence[RandomVar], partition: SubAlgebra) -> RandomVar:
    """Glue one piece per atom of the partition: the result agrees with
    pieces[k] on atom k."""
    if len(pieces) != partition.n_atoms:
        raise StructuralError(
            f"got {len(pieces)} pieces for {partition.n_atoms} atoms"
        )
    for piece in pieces:
        _check_dims(piece, partition)
    stacked = np.stack([piece.values for piece in pieces])
    out = stacked[partition.atom_of, np.arange(partition.n_outcomes)]
    return RandomVar(out, pieces[0].space)


def is_measurable(x: RandomVar, alg: SubAlgebra) -> bool:
    """True iff x is constant on every atom (exact equality)."""
    _check_dims(x, alg)
    return bool(np.array_equal(x.values, x.values[alg.first][alg.atom_of]))


@dataclass(frozen=True)
class Filtration:
    """An increasing sequence of sub-sigma-algebras, the tuple `stages`:
    each stage is refined by the next, or a StructuralError names the first
    stage that is not."""

    stages: tuple[SubAlgebra, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise StructuralError("a filtration needs at least one stage")
        for t in range(len(stages) - 1):
            if not stages[t + 1].refines(stages[t]):
                raise StructuralError(
                    f"stage {t + 1} does not refine stage {t}"
                )
        object.__setattr__(self, "stages", stages)
