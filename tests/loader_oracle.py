"""Reference diagnostics for scenario validity rules, as the loader once
decided them itself before building the objects.

The loader now leaves these rules to the constructors of `prob_space` and
only words their refusals as `$`-paths in labels.  This module keeps the old
checks, walking the scenario's labels directly, so a test can demand that
the loader's path and message are exactly the ones these checks give.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


def partition_error(path: str, atoms, index_of: Mapping) -> tuple[str, str]:
    """(path, message) for atoms, lists of labels, that do not partition the
    labels of `index_of`: the first unknown or repeated label, else the
    labels no atom covers."""
    seen: set[str] = set()
    for j, atom in enumerate(atoms):
        for i, lab in enumerate(atom):
            if lab not in index_of:
                return f"{path}[{j}]", f"unknown outcome label {lab!r}"
            if lab in seen:
                twice = f"is repeated within atom {j}" if lab in atom[:i] else (
                    "appears in more than one atom")
                return f"{path}[{j}]", f"label {lab!r} {twice}"
            seen.add(lab)
    return path, f"atoms do not cover outcomes {sorted(set(index_of) - seen)}"


def reference_refusal(data: Mapping) -> tuple[str, str] | None:
    """(path, message) of the first broken rule among probabilities, atom
    partitions and NaN position values of a scenario that passes the schema,
    has unique labels, no filtration and positions that cover every label;
    None when all hold."""
    labels = [o["label"] for o in data["outcomes"]]
    index_of = {lab: i for i, lab in enumerate(labels)}
    probs = np.array([o["prob"] for o in data["outcomes"]], dtype=float)
    bad = np.flatnonzero(~((probs > 0.0) & (probs < np.inf)))
    if bad.size:
        return (f"$.outcomes[{bad[0]}].prob",
                f"probability must be finite and > 0, got {float(probs[bad[0]])}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        return "$.outcomes", f"probabilities must sum to 1, got {total}"
    for alg_name, atoms in data["algebras"].items():
        if sorted(lab for atom in atoms for lab in atom) != sorted(labels):
            return partition_error(f"$.algebras.{alg_name}", atoms, index_of)
    for pos_name, mapping in data["positions"].items():
        values = np.array([mapping[lab] for lab in labels], dtype=float)
        nan = np.flatnonzero(np.isnan(values))
        if nan.size:
            return f"$.positions.{pos_name}.{labels[nan[0]]}", "NaN is not a permitted value"
    return None
