"""The report writers against the earlier one-value-at-a-time writers, kept
below as an oracle: the bulk encoders must give the same bytes.  The CSV
oracle writes rows; the writer takes the same cells as columns.  Values are
of the types the package writes; any other type is refused."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orlicz_risk import ContractError
from orlicz_risk.report import (CSV_COLUMNS, add_rows, atom_rows, canonical_dumps, new_table,
                                quantity_rows, write_atoms_csv, write_report_json)


# --- oracle: the writers before the bulk encoders, unchanged apart from ------
# --- quoting CSV cells that hold a line break ---------------------------------

def _oracle_fmt12(value: float) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".12g")


def _oracle_encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return _oracle_fmt12(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        inner = ",".join(f"{_oracle_encode(k)}:{_oracle_encode(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    return "[" + ",".join(_oracle_encode(v) for v in obj) + "]"


def _oracle_write_atoms_csv(path, rows) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            cell = row.get(col, "")
            if isinstance(cell, bool):
                cell = "true" if cell else "false"
            elif isinstance(cell, float):
                cell = _oracle_fmt12(cell)
            else:
                cell = str(cell)
            if any(c in cell for c in ',"\n\r'):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _columns(rows) -> dict:
    """The table of `rows` as the writer takes it: one list per column, with
    "" for a cell a row lacks, as the oracle writes it."""
    return {col: [row.get(col, "") for row in rows] for col in CSV_COLUMNS}


# --- generated values --------------------------------------------------------

FLOATS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('",\n\r%é☃\\')), max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(TEXT, children, max_size=6),
        # records: dicts with the same str keys, as the scenario's outcomes
        st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=6)),
    )


VALUES = st.recursive(st.one_of(SCALARS, st.lists(FLOATS, max_size=8)), _containers,
                      max_leaves=20)
# each column holds one kind of cell the writer takes
CELLS = [st.booleans(), st.integers(), FLOATS, TEXT, st.one_of(st.just(""), st.booleans()),
         st.one_of(st.just(""), FLOATS), st.sampled_from(["", "nan", "inf", "a,b"])]
TABLES = st.lists(st.sampled_from(CELLS), min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)).flatmap(
    lambda kinds: st.lists(st.fixed_dictionaries(dict(zip(CSV_COLUMNS, kinds))), max_size=8))


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_canonical_dumps_matches_the_oracle(value):
    assert canonical_dumps(value) == _oracle_encode(value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TABLES)
def test_write_atoms_csv_matches_the_oracle(tmp_path, rows):
    (tmp_path / "new.csv").unlink(missing_ok=True)
    try:
        _oracle_write_atoms_csv(tmp_path / "old.csv", rows)
    except UnicodeEncodeError:
        # a lone surrogate has no UTF-8 text: the writer refuses it, writing nothing
        with pytest.raises(ContractError, match="has no UTF-8 text"):
            write_atoms_csv(tmp_path / "new.csv", _columns(rows))
        assert not (tmp_path / "new.csv").exists()
        return
    write_atoms_csv(tmp_path / "new.csv", _columns(rows))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("value", [
    [0.1, -0.0, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 123456789012.5, 2.0 ** 60],
    {"outcomes": [{"label": "w%1", "prob": 0.25}, {"label": 'q"', "prob": 0.75}]},
    {"x": {"a": math.inf, "b": -math.inf, "c": 1.0}},
    [{}, {}], [[], []], {}, "", [0.1, 3, True, None, "s"],
], ids=["floats", "records", "inf", "empty_records", "empty_lists", "empty_dict", "empty_str",
        "mixed"])
def test_canonical_dumps_fixed_cases(value):
    assert canonical_dumps(value) == _oracle_encode(value)


@pytest.mark.parametrize("value, path", [
    (math.nan, "$"),
    ({"results": {"x": {"gap": [0.0, 1.0, math.nan]}}}, "$.results.x.gap[2]"),
    ({"a": [{"p": 1.0}, {"p": math.nan}]}, "$.a[1].p"),
    ({"y": [[1.0], [-math.inf, math.nan]]}, "$.y[1][1]"),
], ids=["bare", "list", "records", "nested"])
def test_canonical_dumps_refuses_nan_with_its_path(value, path):
    with pytest.raises(ContractError) as err:
        canonical_dumps(value)
    assert str(err.value) == f"{path}: NaN has no JSON encoding"


def test_writers_refuse_nan_and_write_nothing(tmp_path):
    with pytest.raises(ContractError, match=r"\$\.results\.gap\[0\]"):
        write_report_json(tmp_path / "r.json", {"results": {"gap": [math.nan]}})
    rows = [{"check": "dual", "value": 1.0}, {"check": "dual", "value": math.nan}]
    with pytest.raises(ContractError, match="column 'value'"):
        write_atoms_csv(tmp_path / "r.csv", _columns(rows))
    with pytest.raises(ContractError, match="'\\\\ud800' has no UTF-8 text"):
        write_atoms_csv(tmp_path / "r.csv", _columns([{"check": "dual", "quantity": "y[\ud800]"}]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cells", [
    [1.0, math.nan], ["", math.nan, 2.0], [math.nan], ["", 1.0, -math.inf, math.nan],
], ids=["floats", "blank_floats", "lone", "blank_inf"])
@pytest.mark.parametrize("col", ["value", "allowed"])
def test_write_atoms_csv_refuses_nan_naming_its_column(tmp_path, col, cells):
    table = _columns([{"check": "dual"}] * len(cells))
    table[col] = cells
    with pytest.raises(ContractError) as err:
        write_atoms_csv(tmp_path / "r.csv", table)
    assert str(err.value) == f"column {col!r}: NaN has no CSV text"
    assert list(tmp_path.iterdir()) == []


def test_write_atoms_csv_refuses_columns_of_unequal_length(tmp_path):
    table = _columns([{"check": "dual"}] * 2)
    table["value"].pop()
    with pytest.raises(ContractError, match="differ in length"):
        write_atoms_csv(tmp_path / "r.csv", table)
    assert list(tmp_path.iterdir()) == []


def test_quantity_rows_is_the_atom_layout_without_flags():
    assert list(quantity_rows(("gap", [0.0, 1.0], 1e-6), ("penalty", [2.0, 3.0], ""))) == [
        (0, "gap", 0.0, 1e-6), (0, "penalty", 2.0, ""), (1, "gap", 1.0, 1e-6),
        (1, "penalty", 3.0, "")]


def test_atom_rows_appends_atom_by_atom_then_quantity_by_quantity():
    table = new_table()
    add_rows(table, ["dual"], ["F0"], [0], ["x"], ["y[w1]"], [0.5], [""], [""])
    atom_rows(table, "dual", "F1", "x", ("gap", [0.0, 1.0], 1e-6, [True, False]),
              ("penalty", [2.0, 3.0], "", ["", ""]))
    assert list(table) == list(CSV_COLUMNS)
    assert list(zip(*table.values())) == [
        ("dual", "F0", 0, "x", "y[w1]", 0.5, "", ""),
        ("dual", "F1", 0, "x", "gap", 0.0, 1e-6, True),
        ("dual", "F1", 0, "x", "penalty", 2.0, "", ""),
        ("dual", "F1", 1, "x", "gap", 1.0, 1e-6, False),
        ("dual", "F1", 1, "x", "penalty", 3.0, "", ""),
    ]


@pytest.mark.parametrize("cells", [
    ['say "hi"', "plain"], ["a,b", "plain"], ["line\nbreak", "é☃"], ["cr\rret", "plain"],
    [1.5, math.inf, -0.0], [1.5, ""], [True, "", False], [3, 10**30],
    [0, -1, 2, -1, 10], ["", True, False, "", True], ["", 1e-6, math.inf, "", -math.inf, -0.0],
    ["nan", "", "a,b"], ["inf", "-inf", ""],
], ids=["quotes", "comma", "newline", "return", "inf", "mixed", "bools", "ints",
        "atoms", "flags", "blank_floats", "nan_text", "inf_text"])
def test_write_atoms_csv_fixed_columns(tmp_path, cells):
    rows = [{col: cell for col in CSV_COLUMNS} for cell in cells]
    write_atoms_csv(tmp_path / "new.csv", _columns(rows))
    _oracle_write_atoms_csv(tmp_path / "old.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class _Half(float):
    """A float subclass, which is not a plain float."""


@pytest.mark.parametrize("value, path, kind", [
    (np.float64(0.1), "$", "serialize <class 'numpy.float64'>"),
    ({"x": np.array([1.0])}, "$.x", "serialize <class 'numpy.ndarray'>"),
    ([1.0, (2.0,)], "$[1]", "serialize <class 'tuple'>"),
    ({"a": 1.0, 2: 1.0}, "$", "serialize a key of <class 'int'>"),
    ([{"p": _Half(0.5)}] * 2, "$[0].p", "serialize <class 'tests.test_report._Half'>"),
    ({"b": [1.0, {"c": [None, (1,)]}]}, "$.b[1].c[1]", "serialize <class 'tuple'>"),
    ({"b": [{"c": 1.0, 3: 2.0}]}, "$.b[0]", "serialize a key of <class 'int'>"),
], ids=["numpy_scalar", "numpy_array", "tuple", "int_key", "float_subclass", "nested",
        "nested_key"])
def test_canonical_dumps_refuses_other_types_naming_them(tmp_path, value, path, kind):
    with pytest.raises(TypeError) as err:
        canonical_dumps(value)
    assert str(err.value) == f"{path}: cannot {kind}"
    results = "$.results" + path[1:]
    with pytest.raises(TypeError) as err:
        write_report_json(tmp_path / "r.json", {"results": value})
    assert str(err.value) == f"{results}: cannot {kind}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cells, kinds", [
    (["w1", 1.5, ""], "float and str"), ([1, "a,b"], "int and str"), ([False, "x"], "bool and str"),
    ([1, 2.5], "float and int"), ([np.float64(2.5)], "float64"), ([np.int64(7)], "int64"),
    ([_Half(0.5), ""], "_Half and str"), ([None], "NoneType"),
], ids=["strs_numbers", "int_text", "flag_text", "ints_floats", "numpy_float", "numpy_int",
        "float_subclass", "none"])
@pytest.mark.parametrize("col", ["value", "position"])
def test_write_atoms_csv_refuses_other_columns_naming_their_types(tmp_path, col, cells, kinds):
    table = _columns([{"check": "dual"}] * len(cells))
    table[col] = cells
    with pytest.raises(TypeError) as err:
        write_atoms_csv(tmp_path / "r.csv", table)
    assert str(err.value) == f"column {col!r}: cannot write a column of {kinds}"
    assert list(tmp_path.iterdir()) == []
