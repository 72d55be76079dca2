"""Scenario files: the JSON front door of the batch CLI.

A scenario names its outcomes explicitly; algebras and positions reference
outcome labels rather than indices so fixtures survive reordering.  The
schema below is enforced on load by `_check_schema`, followed by semantic
validation with path-and-field diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParameterError, StructuralError
from .prob_space import FiniteProbSpace, Filtration, RandomVar, SubAlgebra
from .risk import CondRiskMeasure, risk_from_spec
from .young import YoungFn, young_from_spec

__all__ = ["Scenario", "ScenarioValidationError", "SCENARIO_SCHEMA"]

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
                "family": {"enum": ["power", "linf", "exp", "piecewise"]},
                "params": {"type": "object"},
            },
        },
        "risk": {
            "type": "object",
            "required": ["measure"],
            "additionalProperties": False,
            "properties": {
                "measure": {"enum": ["entropic", "worst_case", "linear"]},
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


def _check_schema(value, schema: Mapping, path: str = "$") -> None:
    """Raise ScenarioValidationError at the first place `value` breaks `schema`.

    Covers exactly the keywords SCENARIO_SCHEMA uses, with JSON Schema
    meaning: type, enum, minLength, minItems, items, minProperties, required,
    properties and additionalProperties."""
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
        if "items" in schema:
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
        for key, item in value.items():
            sub = properties.get(key, additional)
            if sub is False:
                raise ScenarioValidationError(path, f"unexpected property {key!r}")
            if sub is not True:
                _check_schema(item, sub, f"{path}.{key}")


@dataclass(frozen=True)
class Scenario:
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
        _check_schema(data, SCENARIO_SCHEMA)

        labels = [o["label"] for o in data["outcomes"]]
        if len(set(labels)) != len(labels):
            raise ScenarioValidationError("$.outcomes", "outcome labels must be unique")
        index_of = {lab: i for i, lab in enumerate(labels)}

        probs = np.array([o["prob"] for o in data["outcomes"]], dtype=float)
        for i, pr in enumerate(probs):
            if pr <= 0.0:
                raise ScenarioValidationError(
                    f"$.outcomes[{i}].prob", f"probability must be > 0, got {pr}"
                )
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ScenarioValidationError(
                "$.outcomes", f"probabilities must sum to 1, got {probs.sum()!r}"
            )
        space = FiniteProbSpace(probs)

        algebras: dict[str, SubAlgebra] = {}
        for alg_name, atoms in data["algebras"].items():
            seen: set[str] = set()
            index_atoms = []
            for j, atom in enumerate(atoms):
                in_atom: set[str] = set()
                for lab in atom:
                    if lab not in index_of:
                        raise ScenarioValidationError(
                            f"$.algebras.{alg_name}[{j}]", f"unknown outcome label {lab!r}"
                        )
                    if lab in in_atom:
                        raise ScenarioValidationError(
                            f"$.algebras.{alg_name}[{j}]",
                            f"label {lab!r} is repeated within atom {j}",
                        )
                    if lab in seen:
                        raise ScenarioValidationError(
                            f"$.algebras.{alg_name}[{j}]",
                            f"label {lab!r} appears in more than one atom",
                        )
                    in_atom.add(lab)
                seen |= in_atom
                index_atoms.append(tuple(index_of[lab] for lab in atom))
            if seen != set(labels):
                missing = sorted(set(labels) - seen)
                raise ScenarioValidationError(
                    f"$.algebras.{alg_name}", f"atoms do not cover outcomes {missing}"
                )
            algebras[alg_name] = SubAlgebra.from_atoms(index_atoms, len(labels))

        filtration_names = None
        if "filtration" in data:
            for j, alg_name in enumerate(data["filtration"]):
                if alg_name not in algebras:
                    raise ScenarioValidationError(
                        f"$.filtration[{j}]", f"unknown algebra {alg_name!r}"
                    )
            filtration_names = tuple(data["filtration"])
            try:
                Filtration(tuple(algebras[n] for n in filtration_names))
            except StructuralError as exc:
                raise ScenarioValidationError("$.filtration", str(exc)) from exc

        positions: dict[str, RandomVar] = {}
        for pos_name, mapping in data["positions"].items():
            if set(mapping) != set(labels):
                extra = sorted(set(mapping) - set(labels))
                missing = sorted(set(labels) - set(mapping))
                raise ScenarioValidationError(
                    f"$.positions.{pos_name}",
                    f"values must cover every outcome exactly (missing {missing}, unknown {extra})",
                )
            values = np.array([mapping[lab] for lab in labels], dtype=float)
            positions[pos_name] = RandomVar(values, space)

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
            raw=json.loads(json.dumps(data)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        def reject_duplicates(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ScenarioValidationError("$", f"duplicate key {key!r}")
                seen.add(key)
            return dict(pairs)

        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=reject_duplicates)
        return cls.from_dict(data)
