"""Deterministic report serialization: JSON for machines, CSV per-atom tables
for inspection.

Floats are written with 12 significant digits and dictionary keys are sorted,
so identical inputs produce byte-identical files.  Non-finite values appear
as the strings "inf" / "-inf".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = ["fmt12", "canonical_dumps", "write_report_json", "write_atoms_csv", "CSV_COLUMNS"]

CSV_COLUMNS = ("check", "algebra", "atom", "position", "quantity", "value", "allowed", "passed")


def fmt12(value: float) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".12g")


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return fmt12(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, Mapping):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{_encode(str(k))}:{_encode(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, np.floating):
        return _encode(float(obj))
    if isinstance(obj, np.integer):
        return _encode(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_dumps(obj) -> str:
    return _encode(obj)


def write_report_json(path: str | Path, report: Mapping) -> None:
    Path(path).write_text(canonical_dumps(report) + "\n", encoding="utf-8")


def write_atoms_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            cell = row.get(col, "")
            if isinstance(cell, bool):
                cell = "true" if cell else "false"
            elif isinstance(cell, float):
                cell = fmt12(cell)
            else:
                cell = str(cell)
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
