"""Deterministic report serialization: JSON for machines, CSV per-atom tables
for inspection.

Floats are written with 12 significant digits and dictionary keys are sorted,
so identical inputs produce byte-identical files.  Non-finite values appear
as the strings "inf" / "-inf".  NaN has no text: writing it raises
ContractError naming its key or column.  A CSV cell holding a lone
surrogate, which has no UTF-8 text, raises ContractError too.  Plain
floats, strs, lists and str-keyed dicts are encoded in bulk; every other
value (np.float64 and other subclasses, numpy arrays and scalars, other
keys) one by one, to the same text.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError

__all__ = ["fmt12", "canonical_dumps", "write_report_json", "write_atoms_csv", "atom_rows",
           "CSV_COLUMNS"]

CSV_COLUMNS = ("check", "algebra", "atom", "position", "quantity", "value", "allowed", "passed")
_FLOAT, _STR, _DICT = {float}, {str}, {dict}


def fmt12(value: float) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value != value:
        raise ContractError("NaN has no text")
    return format(value, ".12g")


def _floats_text(values) -> list | None:
    """The "%.12g" text of each of `values`, plain floats; None unless all
    are finite."""
    text = ("%.12g," * len(values)) % tuple(values)
    return None if "n" in text else text[:-1].split(",")  # "n": "inf" or "nan"


def _encode(obj) -> str:
    if type(obj) is float and obj - obj == 0.0:
        return "%.12g" % obj
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode_items(obj)) + "]"
    if isinstance(obj, Mapping):
        keys = sorted(obj, key=str)
        items = zip(map(_escape, map(str, keys)), _encode_items([obj[k] for k in keys]))
        return "{" + ",".join(map("%s:%s".__mod__, items)) + "}"
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
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, np.floating):
        return _encode(float(obj))
    if isinstance(obj, np.integer):
        return _encode(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _encode_items(values) -> list:
    """The encoding of each of `values`: in bulk when they are all finite
    floats, all strs, or records (str-keyed dicts with the same keys, more
    records than keys) encoded key by key as columns."""
    kinds = set(map(type, values))
    if kinds == _FLOAT and (texts := _floats_text(values)) is not None:
        return texts
    if kinds == _STR:
        return list(map(_escape, values))
    keys = values[0].keys() if kinds == _DICT else ()
    if (0 < len(keys) < len(values) and _STR.issuperset(map(type, keys))
            and all(v.keys() == keys for v in values)):
        names = sorted(keys)
        record = "{" + ",".join(_escape(k).replace("%", "%%") + ":%s" for k in names) + "}"
        columns = [_encode_items([v[k] for v in values]) for k in names]
        return list(map(record.__mod__, zip(*columns)))
    return list(map(_encode, values))


def _nan_path(obj, path: str) -> str | None:
    """JSON path of a NaN inside `obj`, or None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Mapping):
        found = (_nan_path(v, f"{path}.{k}") for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        found = (_nan_path(v, f"{path}[{i}]") for i, v in enumerate(obj))
    else:
        return path if isinstance(obj, (float, np.floating)) and obj != obj else None
    return next(filter(None, found), None)


def canonical_dumps(obj) -> str:
    try:
        return _encode(obj)
    except ContractError:
        raise ContractError(f"{_nan_path(obj, '$')}: NaN has no JSON encoding") from None


def write_report_json(path: str | Path, report: Mapping) -> None:
    Path(path).write_text(canonical_dumps(report) + "\n", encoding="utf-8")


def _quote(text: str) -> str:
    """`text` as a CSV cell; a text that needs no quotes is returned itself."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _any_cell(cell) -> str:
    return fmt12(cell) if isinstance(cell, (bool, float)) else _quote(str(cell))


# exact cell type -> its text; no float, int or bool text needs quotes
_CELL_TEXT = {str: _quote, float: fmt12, int: str, bool: fmt12}


def _column_text(cells: list) -> list:
    """The CSV text of each cell of one column: finite floats and strs that
    need no quotes in bulk, any other column cell by cell."""
    kinds = set(map(type, cells))
    if kinds == _FLOAT and (texts := _floats_text(cells)) is not None:
        return texts
    if kinds == _STR and _quote(joined := "".join(cells)) is joined:
        return cells
    return [_CELL_TEXT.get(type(cell), _any_cell)(cell) for cell in cells]


def atom_rows(check: str, algebra: str, position: str, *quantities) -> list[dict]:
    """Table rows of one check: atom by atom and, within an atom, one row per
    quantity in the order given.  Each quantity is (name, values, allowed,
    passed), with one value and one flag per atom."""
    per_quantity = [[(name, value, allowed, flag) for value, flag in zip(values, passed)]
                    for name, values, allowed, passed in quantities]
    return [dict(zip(CSV_COLUMNS, (check, algebra, k, position, *cells)))
            for k, atom in enumerate(zip(*per_quantity)) for cells in atom]


def write_atoms_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    columns = []
    for col in CSV_COLUMNS:
        try:
            columns.append(_column_text([row.get(col, "") for row in rows]))
        except ContractError:
            raise ContractError(f"column {col!r}: NaN has no CSV text") from None
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]
    try:
        data = ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, which JSON can carry
        raise ContractError(f"{exc.object[exc.start]!r} has no UTF-8 text") from None
    Path(path).write_bytes(data)
