"""Finite probability spaces, sub-sigma-algebras as partitions, conditional
expectation, conditional essential sup/inf, and gluing along partitions.

All outcomes carry strictly positive probability, so almost-sure equality is
plain equality and no null-set bookkeeping is needed.  A sub-sigma-algebra of
the full power set is represented by the partition of outcome indices into its
atoms; a random variable is measurable w.r.t. it iff it is constant on every
atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, StructuralError

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


@dataclass(frozen=True)
class FiniteProbSpace:
    """Outcome probabilities of a finite sample space; the ambient algebra is
    the full power set."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise StructuralError("probabilities must form a nonempty vector")
        if not np.all(probs > 0.0):
            raise StructuralError("every outcome probability must be strictly positive")
        if abs(float(probs.sum()) - 1.0) > _PROB_SUM_TOL:
            raise StructuralError(
                f"probabilities must sum to 1 within {_PROB_SUM_TOL}, got {float(probs.sum())}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_outcomes(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "FiniteProbSpace":
        return cls(np.full(n, 1.0 / n))

    def var(self, values) -> "RandomVar":
        """Random variable on this space from a value vector."""
        return RandomVar(np.asarray(values, dtype=float), self)

    def indicator(self, indices: Iterable[int]) -> "RandomVar":
        values = np.zeros(self.n_outcomes)
        values[list(indices)] = 1.0
        return RandomVar(values, self)


@dataclass(frozen=True)
class SubAlgebra:
    """A sub-sigma-algebra given by its atoms: disjoint nonempty index sets
    covering all outcomes.

    `atom_of[i]` is the atom containing outcome i.  Every per-atom
    computation runs over one segment layout built here: `order` lists the
    outcomes atom by atom, ascending inside each atom, and atom k is the
    segment of `order` that begins at `starts[k]`.  `first` holds the lowest
    outcome of each atom, where a measurable value is read.
    """

    atoms: tuple[tuple[int, ...], ...]
    n_outcomes: int

    def __post_init__(self):
        atoms = tuple(tuple(map(int, atom)) for atom in self.atoms)
        if not all(atoms):
            raise StructuralError("atoms must be nonempty")
        flat = [i for atom in atoms for i in atom]
        seen = set(flat)
        if len(seen) != len(flat):
            raise StructuralError("atoms must be pairwise disjoint and repeat no outcome")
        if seen != set(range(self.n_outcomes)):
            raise StructuralError("atoms must cover exactly the outcome indices 0..n-1")
        object.__setattr__(self, "atoms", atoms)
        sizes = np.array([len(atom) for atom in atoms], dtype=int)
        atom_of = np.empty(self.n_outcomes, dtype=int)
        atom_of[flat] = np.repeat(np.arange(len(atoms)), sizes)
        order = np.argsort(atom_of, kind="stable")
        starts = np.cumsum(sizes) - sizes
        for name, array in (("atom_of", atom_of), ("order", order),
                            ("starts", starts), ("first", order[starts])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @classmethod
    def from_atoms(cls, atoms: Sequence[Sequence[int]], n_outcomes: int) -> "SubAlgebra":
        return cls(tuple(tuple(a) for a in atoms), n_outcomes)

    @classmethod
    def trivial(cls, n_outcomes: int) -> "SubAlgebra":
        return cls((tuple(range(n_outcomes)),), n_outcomes)

    @classmethod
    def discrete(cls, n_outcomes: int) -> "SubAlgebra":
        return cls(tuple((i,) for i in range(n_outcomes)), n_outcomes)

    def atom_sum(self, values) -> np.ndarray:
        """Sum over each atom along the last (outcome) axis."""
        return np.add.reduceat(np.asarray(values)[..., self.order], self.starts, axis=-1)

    def atom_max(self, values) -> np.ndarray:
        """Maximum over each atom along the last (outcome) axis."""
        return np.maximum.reduceat(np.asarray(values)[..., self.order], self.starts, axis=-1)

    def atom_min(self, values) -> np.ndarray:
        """Minimum over each atom along the last (outcome) axis."""
        return np.minimum.reduceat(np.asarray(values)[..., self.order], self.starts, axis=-1)

    def refines(self, coarser: "SubAlgebra") -> bool:
        """True iff every atom of self lies inside a single atom of `coarser`."""
        if self.n_outcomes != coarser.n_outcomes:
            return False
        label = coarser.atom_of
        return bool(np.array_equal(label, label[self.first][self.atom_of]))

    def broadcast(self, atom_values: Sequence[float]) -> np.ndarray:
        """Expand one value per atom into a full outcome vector."""
        atom_values = np.asarray(atom_values, dtype=float)
        if atom_values.size != self.n_atoms:
            raise StructuralError("need exactly one value per atom")
        return atom_values[self.atom_of]


@dataclass(frozen=True)
class RandomVar:
    """A real vector indexed by outcomes.  Values may be +/-inf where an
    operation's contract permits it; NaN never."""

    values: np.ndarray
    space: FiniteProbSpace

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.space.n_outcomes:
            raise StructuralError(
                f"value vector has length {values.size}, space has {self.space.n_outcomes} outcomes"
            )
        if np.isnan(values).any():
            raise StructuralError("NaN is not a permitted value")
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


def _check_dims(x: RandomVar, alg: SubAlgebra):
    if alg.n_outcomes != x.space.n_outcomes:
        raise StructuralError(
            f"algebra indexes {alg.n_outcomes} outcomes, variable has {x.space.n_outcomes}"
        )


def _require_finite(x: RandomVar, what: str):
    if not x.is_finite():
        raise ContractError(f"{what} requires finite values")


def _atom_weights(space: FiniteProbSpace, alg: SubAlgebra) -> np.ndarray:
    """Each outcome's probability within its atom: p_w / P(A) for w in A."""
    return space.probs / alg.atom_sum(space.probs)[alg.atom_of]


def cond_expectation(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Conditional expectation of x given the algebra: on each atom A the
    probability-weighted average sum(p_w x_w) / P(A)."""
    _check_dims(x, alg)
    _require_finite(x, "conditional expectation")
    p = x.space.probs
    return RandomVar(alg.broadcast(alg.atom_sum(p * x.values) / alg.atom_sum(p)), x.space)


def ess_sup_cond(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Per-atom maximum of x, as a measurable variable of the algebra."""
    _check_dims(x, alg)
    return RandomVar(alg.broadcast(alg.atom_max(x.values)), x.space)


def ess_inf_cond(x: RandomVar, alg: SubAlgebra) -> RandomVar:
    """Per-atom minimum of x, as a measurable variable of the algebra."""
    _check_dims(x, alg)
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
    """An increasing sequence of sub-sigma-algebras: each stage is refined by
    the next."""

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

    def __len__(self) -> int:
        return len(self.stages)

    def __getitem__(self, t: int) -> SubAlgebra:
        return self.stages[t]
