"""Scenario files: the JSON front door of the batch CLI.

A scenario names its outcomes explicitly; algebras and positions reference
outcome labels rather than indices so fixtures survive reordering.  The
schema below is enforced on load by `_check_schema`.  The semantic rules
of the built objects are decided by their constructors in `prob_space`,
which locate each fault by index; the loader maps labels to indices and
words a refusal as a `$`-path in labels.

The names a `young` or `risk` entry may take live in one table per name
space, `FAMILIES` and `MEASURES`: each name maps to the parameters it
accepts and a builder.  The schema's enums are read from the tables, and
`young_from_spec` and `risk_from_spec` build an entry through them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ParameterError, PartitionError, StructuralError
from .prob_space import FiniteProbSpace, Filtration, RandomVar, SubAlgebra
from .risk import CondRiskMeasure, entropic, linear, worst_case
from .young import YoungFn, make_exp, make_linf, make_piecewise, make_power

__all__ = [
    "Scenario", "ScenarioValidationError", "SCENARIO_SCHEMA", "young_from_spec", "risk_from_spec",
]


def _spec_number(params: Mapping, name: str, default: float | None = None):
    """`params[name]` of a scenario entry (`default` when absent and given);
    a missing one raises ParameterError naming it.  The factory it is passed
    to decides whether it is a finite number."""
    if name not in params:
        if default is None:
            raise ParameterError(f"missing parameter {name!r}")
        return default
    return params[name]


def _spec_numbers(params: Mapping, name: str) -> list:
    """`params[name]` of a scenario entry, a list, or a ParameterError naming
    the parameter.  The factory it is passed to checks its items."""
    values = params.get(name)
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"parameter {name!r} must be a list of numbers, got {values!r}")
    return values


# name -> (the parameters it accepts, a builder from the entry's params).
# A builder names its factory when it runs, so a factory rebound on this
# module after import (as a tracer does) is the one called.
FAMILIES = {
    "power": (("p",), lambda params: make_power(_spec_number(params, "p"))),
    "linf": ((), lambda params: make_linf()),
    "exp": (("scale",), lambda params: make_exp(_spec_number(params, "scale", 1.0))),
    "piecewise": (("knots", "slopes"), lambda params: make_piecewise(
        _spec_numbers(params, "knots"), _spec_numbers(params, "slopes"))),
}
MEASURES = {
    "entropic": (("gamma",), lambda params: entropic(_spec_number(params, "gamma"))),
    "worst_case": ((), lambda params: worst_case()),
    "linear": ((), lambda params: linear()),
}


def _from_spec(table: Mapping, kind: str, name, params: Mapping):
    """Build `name` of `table` from a scenario entry's `params`; an unknown
    name, or a parameter the name does not accept, raises ParameterError, so
    a misspelt optional parameter does not silently fall back to its
    default."""
    if not isinstance(name, str) or name not in table:
        raise ParameterError(f"unknown {kind} {name!r}")
    accepted, build = table[name]
    for key in params:
        if key not in accepted:
            raise ParameterError(f"unexpected parameter {key!r}")
    return build(params)


def young_from_spec(spec: Mapping) -> YoungFn:
    """Build a Young function from a scenario entry {"family": ..., "params": {...}}."""
    return _from_spec(FAMILIES, "Young family", spec.get("family"), spec.get("params", {}))


def risk_from_spec(spec: Mapping) -> CondRiskMeasure:
    """Build a risk measure from a scenario entry {"measure": ..., "params": {...}}."""
    return _from_spec(MEASURES, "risk measure", spec.get("measure"), spec.get("params", {}))


SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "outcomes", "algebras", "positions", "young", "risk"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "outcomes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["label", "prob"],
                "additionalProperties": False,
                "properties": {
                    "label": {"type": "string", "minLength": 1},
                    "prob": {"type": "number"},
                },
            },
        },
        "algebras": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "string"},
                },
            },
        },
        "filtration": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "positions": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {"type": "number"},
            },
        },
        "young": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "params": {"type": "object"},
            },
        },
        "risk": {
            "type": "object",
            "required": ["measure"],
            "additionalProperties": False,
            "properties": {
                "measure": {"enum": list(MEASURES)},
                "params": {"type": "object"},
            },
        },
    },
}


class ScenarioValidationError(StructuralError):
    """Scenario content is malformed; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_TYPES = {"object": dict, "array": list, "string": str}
# exact types that satisfy a `string` or `number` schema
_EXACT = {"string": {str}, "number": {int, float}}
_CLOSED_RECORD = {"type", "required", "additionalProperties", "properties"}


def _all_conform(values, schema: Mapping) -> bool:
    """True when every item of `values` certainly satisfies `schema`, decided
    in bulk on the item types; False leaves the answer to the walker.

    Decides strings (with `minLength`), numbers, arrays (with `minItems`),
    by checking all their items as one column, and closed records: objects
    with `additionalProperties: false` whose `required` names every
    property, by checking each property's values as one column."""
    kind = schema.get("type")
    keys = schema.keys()
    if kind in _EXACT and keys <= {"type", "minLength"}:
        shortest = schema.get("minLength", 0)
        return _EXACT[kind].issuperset(map(type, values)) and (
            kind != "string" or min(map(len, values), default=shortest) >= shortest)
    if kind == "object" and keys == _CLOSED_RECORD and schema["additionalProperties"] is False:
        properties = schema["properties"]
        return (properties.keys() == set(schema["required"])
                and {dict}.issuperset(map(type, values))
                and all(v.keys() == properties.keys() for v in values)
                and all(_all_conform([v[name] for v in values], sub)
                        for name, sub in properties.items()))
    return (kind == "array" and keys == {"type", "minItems", "items"}
            and {list}.issuperset(map(type, values))
            and min(map(len, values), default=schema["minItems"]) >= schema["minItems"]
            and _all_conform([item for v in values for item in v], schema["items"]))


def _check_schema(value, schema: Mapping, path: str = "$") -> None:
    """Raise ScenarioValidationError at the first place `value` breaks `schema`.

    Covers exactly the keywords SCENARIO_SCHEMA uses, with JSON Schema
    meaning: type, enum, minLength, minItems, items, minProperties, required,
    properties and additionalProperties.  The items of an array and the
    values of a map are checked in bulk first (`_all_conform`), and walked
    one by one only when that does not settle them."""
    kind = schema.get("type")
    if kind == "number":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = kind is None or isinstance(value, _TYPES[kind])
    if not ok:
        raise ScenarioValidationError(path, f"expected {kind}, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        raise ScenarioValidationError(path, f"{value!r} is not one of {schema['enum']!r}")
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        raise ScenarioValidationError(
            path, f"must have at least {schema['minLength']} characters")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ScenarioValidationError(path, f"must have at least {schema['minItems']} items")
        if "items" in schema and not _all_conform(value, schema["items"]):
            for i, item in enumerate(value):
                _check_schema(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        if len(value) < schema.get("minProperties", 0):
            raise ScenarioValidationError(
                path, f"must have at least {schema['minProperties']} properties")
        for key in schema.get("required", ()):
            if key not in value:
                raise ScenarioValidationError(path, f"{key!r} is a required property")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        if properties or not isinstance(additional, dict) or not _all_conform(
                value.values(), additional):
            for key, item in value.items():
                sub = properties.get(key, additional)
                if sub is False:
                    raise ScenarioValidationError(path, f"unexpected property {key!r}")
                if sub is not True:
                    _check_schema(item, sub, f"{path}.{key}")


class Scenario(NamedTuple):
    name: str
    space: FiniteProbSpace
    labels: tuple[str, ...]
    algebras: dict[str, SubAlgebra]
    filtration_names: tuple[str, ...] | None
    positions: dict[str, RandomVar]
    young: YoungFn
    risk: CondRiskMeasure
    raw: dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Validate `data` and build its scenario; `raw` is a JSON copy of `data`."""
        return cls._build(data)._replace(raw=json.loads(json.dumps(data)))

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_reject_duplicates)
        return cls._build(data)

    @classmethod
    def _build(cls, data: Mapping) -> "Scenario":
        """Validate `data` and build its scenario, with `data` itself as `raw`."""
        _check_schema(data, SCENARIO_SCHEMA)

        outcomes = data["outcomes"]
        labels = [o["label"] for o in outcomes]
        index_of = {lab: i for i, lab in enumerate(labels)}
        if len(index_of) != len(labels):
            raise ScenarioValidationError("$.outcomes", "outcome labels must be unique")

        try:
            space = FiniteProbSpace(np.array([o["prob"] for o in outcomes], dtype=float))
        except StructuralError as exc:
            path = f"$.outcomes[{exc.at[0]}].prob" if exc.at else "$.outcomes"
            raise ScenarioValidationError(path, exc.reason) from None

        algebras: dict[str, SubAlgebra] = {}
        for alg_name, atoms in data["algebras"].items():
            # an unknown label becomes -1, which is out of range of 0..n-1
            index_atoms = [[index_of.get(lab, -1) for lab in atom] for atom in atoms]
            try:
                algebras[alg_name] = SubAlgebra.from_atoms(index_atoms, len(labels))
            except PartitionError as exc:
                raise _labelled(exc, f"$.algebras.{alg_name}", atoms, labels) from None

        filtration_names = None
        if "filtration" in data:
            for j, alg_name in enumerate(data["filtration"]):
                if alg_name not in algebras:
                    raise ScenarioValidationError(
                        f"$.filtration[{j}]", f"unknown algebra {alg_name!r}"
                    )
            filtration_names = tuple(data["filtration"])
            try:
                Filtration(tuple(algebras[name] for name in filtration_names))
            except StructuralError as exc:
                raise ScenarioValidationError("$.filtration", str(exc)) from exc

        positions: dict[str, RandomVar] = {}
        for pos_name, mapping in data["positions"].items():
            if mapping.keys() != index_of.keys():
                extra = sorted(set(mapping) - set(labels))
                missing = sorted(set(labels) - set(mapping))
                raise ScenarioValidationError(
                    f"$.positions.{pos_name}",
                    f"values must cover every outcome exactly (missing {missing}, unknown {extra})",
                )
            values = np.array(list(map(mapping.__getitem__, labels)), dtype=float)
            try:
                positions[pos_name] = RandomVar(values, space)
            except StructuralError as exc:
                raise ScenarioValidationError(
                    f"$.positions.{pos_name}.{labels[exc.at[0]]}", exc.reason) from None

        try:
            young = young_from_spec(data["young"])
        except ParameterError as exc:
            raise ScenarioValidationError("$.young.params", str(exc)) from exc
        try:
            risk = risk_from_spec(data["risk"])
        except ParameterError as exc:
            raise ScenarioValidationError("$.risk.params", str(exc)) from exc

        return cls(
            name=data["name"],
            space=space,
            labels=tuple(labels),
            algebras=algebras,
            filtration_names=filtration_names,
            positions=positions,
            young=young,
            risk=risk,
            raw=data,
        )


def _reject_duplicates(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ScenarioValidationError("$", f"duplicate key {repeated!r}")
    return obj


def _labelled(exc: PartitionError, path: str, atoms, labels) -> ScenarioValidationError:
    """`exc`, refusing atoms given as lists of labels, worded in labels: an
    unknown label (the only entry out of range) or a repeated one, at its
    atom, else the labels no atom covers."""
    if not exc.at:
        return ScenarioValidationError(
            path, f"atoms do not cover outcomes {sorted(labels[k] for k in exc.uncovered)}")
    j, i = exc.at
    label = atoms[j][i]
    if exc.held_by is None:
        return ScenarioValidationError(f"{path}[{j}]", f"unknown outcome label {label!r}")
    twice = f"is repeated within atom {j}" if exc.held_by == j else "appears in more than one atom"
    return ScenarioValidationError(f"{path}[{j}]", f"label {label!r} {twice}")
