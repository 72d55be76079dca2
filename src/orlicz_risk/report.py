"""Deterministic report serialization: JSON for machines, CSV per-atom tables
for inspection.

The writers take the values the package builds: str-keyed dicts, lists,
strs, ints, bools, None and plain floats; any other value (a tuple, an
array, a float subclass or other scalar type, a key that is not a str)
raises TypeError naming its type and JSON path.  Floats are written with
12 significant digits and dictionary keys are sorted, so identical inputs
produce byte-identical files.  Non-finite values appear as the strings
"inf" / "-inf".  NaN has no text: writing it raises ContractError naming
its JSON path or column.  A CSV cell holding a lone surrogate, which has
no UTF-8 text, raises ContractError too.  Each writer encodes first, then
removes any file or link at its path and writes a new file in its place.

A per-atom table is a dict of columns: one list of cells per name of
CSV_COLUMNS (`new_table`), appended to by `add_rows` and `atom_rows`.  A
column holds strs, ints, floats, or floats or bools with "" for blank
cells; any other column raises TypeError naming it and its cell types.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Mapping

from .errors import ContractError

__all__ = ["canonical_dumps", "write_report_json", "write_atoms_csv", "new_table",
           "add_rows", "atom_rows", "quantity_rows", "CSV_COLUMNS"]

CSV_COLUMNS = ("check", "algebra", "atom", "position", "quantity", "value", "allowed", "passed")
_FLOAT, _STR, _DICT = {float}, {str}, {dict}


def _floats_text(values: list) -> str:
    """The "%.12g" texts of `values`, plain floats, joined by commas, "inf"
    and "-inf" included; a ContractError for NaN."""
    text = ("%.12g," * len(values))[:-1] % tuple(values)
    if "nan" in text:
        raise ContractError("NaN has no text")
    return text


def _encode(obj) -> str:
    kind = type(obj)
    if kind is float:
        if obj - obj == 0.0:
            return "%.12g" % obj
        return '"%s"' % _floats_text([obj])
    if kind is str:
        return _escape(obj)
    if kind is list:
        return "[" + ",".join(_encode_items(obj)) + "]"
    if kind is dict:
        if not _STR.issuperset(map(type, obj)):
            raise TypeError
        keys = sorted(obj)
        items = zip(map(_escape, keys), _encode_items([obj[k] for k in keys]))
        return "{" + ",".join(map("%s:%s".__mod__, items)) + "}"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    raise TypeError


def _encode_items(values) -> list:
    """The encoding of each of `values`: in bulk when they are all finite
    floats, all strs, or records (str-keyed dicts with the same keys, more
    records than keys) encoded key by key as columns."""
    kinds = set(map(type, values))
    if kinds == _FLOAT and "inf" not in (text := _floats_text(values)):
        return text.split(",")
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


def _refused(obj, path: str, refusal) -> str | None:
    """"<JSON path>: <reason>" for the first value inside `obj`, depth
    first, for which `refusal` gives a reason, or None."""
    if reason := refusal(obj):
        return f"{path}: {reason}"
    steps = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    step = "%s.%s" if type(obj) is dict else "%s[%s]"
    return next(filter(None, (_refused(v, step % (path, k), refusal) for k, v in steps)), None)


def _nan(obj) -> str | None:
    return "NaN has no JSON encoding" if type(obj) is float and obj != obj else None


def _unwritten(obj) -> str | None:
    """Why `obj` itself, or one of its keys, cannot be written, or None."""
    if type(obj) not in {float, str, list, dict, type(None), bool, int}:
        return f"cannot serialize {type(obj)!r}"
    if type(obj) is dict and (bad := [k for k in obj if type(k) is not str]):
        return f"cannot serialize a key of {type(bad[0])!r}"
    return None


def canonical_dumps(obj) -> str:
    """The JSON text of `obj`; a refused value or key raises naming its
    JSON path.  The path is looked for only after the encoding failed."""
    try:
        return _encode(obj)
    except ContractError:
        raise ContractError(_refused(obj, "$", _nan)) from None
    except TypeError:
        raise TypeError(_refused(obj, "$", _unwritten)) from None


def _write_new(path: str | Path, data: bytes) -> None:
    """Write `data` as a new file at `path`, first removing any file or link
    there.  The old file is never truncated, so a hard link to it or a
    reader holding it open keeps its bytes, and a link's target is never
    written."""
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.write(data)


def write_report_json(path: str | Path, report: Mapping) -> None:
    _write_new(path, (canonical_dumps(report) + "\n").encode("utf-8"))


def _quote(text: str) -> str:
    """`text` as a CSV cell; a text that needs no quotes is returned itself."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# the text of each cell of a flag column
_FLAG_TEXT = {True: "true", False: "false", "": ""}
_FLAG_KINDS, _FLOAT_KINDS, _INT = {bool, str}, {float, str}, {int}


def _column_text(cells: list) -> list:
    """The CSV text of each cell of one column: a column of strs, of bools
    and "", of ints, or of floats and ""."""
    kinds = set(map(type, cells))
    if kinds == _STR:
        return cells if _quote(joined := "".join(cells)) is joined else list(map(_quote, cells))
    if kinds <= _FLAG_KINDS and None not in (texts := list(map(_FLAG_TEXT.get, cells))):
        return texts
    if kinds == _INT:
        return (("%d," * len(cells))[:-1] % tuple(cells)).split(",")
    if kinds == _FLOAT:
        return _floats_text(cells).split(",")
    floats = [c for c in cells if type(c) is float] if kinds == _FLOAT_KINDS else ()
    if len(floats) + cells.count("") == len(cells):
        texts = iter(_floats_text(floats).split(","))
        return [next(texts) if type(c) is float else "" for c in cells]
    raise TypeError(f"cannot write a column of {' and '.join(sorted(k.__name__ for k in kinds))}")


def new_table() -> dict:
    return {col: [] for col in CSV_COLUMNS}


def add_rows(table: dict, *columns) -> None:
    """Append rows given as one list of cells per column, in CSV_COLUMNS order."""
    for col, cells in zip(CSV_COLUMNS, columns, strict=True):
        table[col] += cells


def quantity_rows(*quantities):
    """The rows of per-atom quantities, in the layout of every per-atom table:
    atom by atom and, within an atom, one row per quantity in the order
    given.  Each quantity is (name, values, allowed), with one value per
    atom; each row is (atom, name, value, allowed)."""
    for k in range(len(quantities[0][1])):
        for name, values, allowed in quantities:
            yield k, name, values[k], allowed


def atom_rows(table: dict, check: str, algebra: str, position: str, *quantities) -> None:
    """Append the rows of one check, in the layout of `quantity_rows`.  Each
    quantity is (name, values, allowed, passed), with one value and one flag
    per atom."""
    rows = list(quantity_rows(*((name, list(zip(values, passed)), allowed)
                                for name, values, allowed, passed in quantities)))
    n_rows = len(rows)
    add_rows(table, [check] * n_rows, [algebra] * n_rows, [k for k, *_ in rows],
             [position] * n_rows, [name for _, name, *_ in rows], [v for *_, (v, _), _ in rows],
             [a for *_, a in rows], [p for *_, (_, p), _ in rows])


def write_atoms_csv(path: str | Path, table: Mapping) -> None:
    columns = []
    for col in CSV_COLUMNS:
        try:
            columns.append(_column_text(table[col]))
        except ContractError:
            raise ContractError(f"column {col!r}: NaN has no CSV text") from None
        except TypeError as exc:
            raise TypeError(f"column {col!r}: {exc}") from None
    if len(set(map(len, columns))) > 1:
        raise ContractError("table columns differ in length")
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]
    try:
        data = ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, which JSON can carry
        raise ContractError(f"{exc.object[exc.start]!r} has no UTF-8 text") from None
    _write_new(path, data)
