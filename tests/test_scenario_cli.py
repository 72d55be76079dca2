import ast
import copy
import csv
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_risk import (
    SCENARIO_SCHEMA,
    ParameterError,
    Scenario,
    ScenarioValidationError,
    risk_from_spec,
    young_from_spec,
)
import orlicz_risk
import orlicz_risk.cli as cli_module
import orlicz_risk.risk as risk_module
import orlicz_risk.young as young_module
from orlicz_risk.cli import main
from orlicz_risk.report import atom_rows, new_table
import orlicz_risk.scenario as scenario_module
from orlicz_risk.scenario import _all_conform, _check_schema
from tests.loader_oracle import reference_refusal

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.json"))
# the numpy functions that go through BLAS
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


@pytest.fixture
def entropic4():
    return Scenario.from_file(SCENARIOS / "entropic4.json")


class TestScenarioParsing:
    def test_bundled_scenario_structure(self, entropic4):
        assert entropic4.name == "entropic4"
        assert entropic4.labels == ("w1", "w2", "w3", "w4")
        assert set(entropic4.algebras) == {"F0", "F1"}
        assert entropic4.algebras["F1"].atoms == ((0, 1), (2, 3))
        assert entropic4.filtration_names == ("F0", "F1")
        assert entropic4.risk.tag == "entropic"
        assert entropic4.young.family_tag == "power"
        np.testing.assert_allclose(entropic4.positions["x"].values[1], math.log(4.0))

    def test_atoms_reference_labels_not_order(self):
        data = {
            "name": "perm",
            "outcomes": [
                {"label": "b", "prob": 0.5},
                {"label": "a", "prob": 0.5},
            ],
            "algebras": {"F": [["a"], ["b"]]},
            "positions": {"x": {"a": 1.0, "b": 2.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        sc = Scenario.from_dict(data)
        # outcome order comes from the outcomes list; atoms resolve labels
        assert sc.algebras["F"].atoms == ((1,), (0,))
        np.testing.assert_array_equal(sc.positions["x"].values, [2.0, 1.0])

    def test_round_trip_through_raw(self, entropic4):
        again = Scenario.from_dict(entropic4.raw)
        assert again.labels == entropic4.labels
        np.testing.assert_array_equal(again.space.probs, entropic4.space.probs)
        for name in entropic4.positions:
            np.testing.assert_array_equal(
                again.positions[name].values, entropic4.positions[name].values
            )
        for name in entropic4.algebras:
            assert again.algebras[name].atoms == entropic4.algebras[name].atoms

    def test_probability_sum_diagnostic(self):
        data = {
            "name": "bad",
            "outcomes": [
                {"label": "a", "prob": 0.5},
                {"label": "b", "prob": 0.4},
            ],
            "algebras": {"F": [["a", "b"]]},
            "positions": {"x": {"a": 1.0, "b": 2.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert str(err.value) == "$.outcomes: probabilities must sum to 1, got 0.9"

    def test_unknown_label_in_atom(self):
        data = {
            "name": "bad",
            "outcomes": [{"label": "a", "prob": 1.0}],
            "algebras": {"F": [["a", "zz"]]},
            "positions": {"x": {"a": 1.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert "$.algebras.F[0]" in str(err.value)

    def test_label_repeated_within_atom(self):
        data = {
            "name": "bad",
            "outcomes": [{"label": "a", "prob": 1.0}],
            "algebras": {"F": [["a", "a"]]},
            "positions": {"x": {"a": 1.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert err.value.path == "$.algebras.F[0]"
        assert "repeated within atom 0" in str(err.value)

    def test_position_must_cover_labels(self):
        data = {
            "name": "bad",
            "outcomes": [
                {"label": "a", "prob": 0.5},
                {"label": "b", "prob": 0.5},
            ],
            "algebras": {"F": [["a", "b"]]},
            "positions": {"x": {"a": 1.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert "$.positions.x" in str(err.value)

    @pytest.mark.parametrize("atoms, path, message", [
        ([["a", "b"], ["b", "c"]], "$.algebras.F[1]", "label 'b' appears in more than one atom"),
        ([["a"], ["b", "a", "a"], ["c"]], "$.algebras.F[1]",
         "label 'a' appears in more than one atom"),
        ([["a"], ["c"]], "$.algebras.F", "atoms do not cover outcomes ['b']"),
    ], ids=["two_atoms", "two_atoms_then_repeated", "uncovered"])
    def test_partition_diagnostics(self, atoms, path, message):
        data = {
            "name": "bad",
            "outcomes": [{"label": lab, "prob": 0.25} for lab in "abcd"],
            "algebras": {"F": atoms + [["d"]]},
            "positions": {"x": {lab: 1.0 for lab in "abcd"}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")

    def test_duplicate_key_in_file(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text((SCENARIOS / "entropic4.json").read_text().replace(
            '"filtration"', '"name": "again", "filtration"'))
        with pytest.raises(ScenarioValidationError, match="duplicate key 'name'"):
            Scenario.from_file(path)

    def test_infinite_position_values_are_accepted(self):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        data["positions"]["x"].update(w2=math.inf, w3=-math.inf)
        sc = Scenario.from_dict(data)
        assert list(sc.positions["x"].values[1:3]) == [math.inf, -math.inf]
        assert sc.raw["positions"]["x"]["w2"] == math.inf

    def test_from_file_keeps_the_parsed_dict_and_from_dict_copies(self, entropic4, monkeypatch):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        assert entropic4.raw == data
        sc = Scenario.from_dict(data)
        assert sc.raw == data and sc.raw is not data
        parsed = []
        hook = scenario_module._reject_duplicates
        monkeypatch.setattr(scenario_module, "_reject_duplicates",
                            lambda pairs: parsed.append(hook(pairs)) or parsed[-1])
        assert Scenario.from_file(SCENARIOS / "entropic4.json").raw is parsed[-1]

    def test_filtration_refinement_checked(self):
        data = {
            "name": "bad",
            "outcomes": [
                {"label": "a", "prob": 0.5},
                {"label": "b", "prob": 0.5},
            ],
            "algebras": {"fine": [["a"], ["b"]], "coarse": [["a", "b"]]},
            "filtration": ["fine", "coarse"],
            "positions": {"x": {"a": 1.0, "b": 2.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert "$.filtration" in str(err.value)


class TestNameTables:
    MINIMAL = {
        "power": {"p": 2},
        "linf": {},
        "exp": {},
        "piecewise": {"knots": [], "slopes": [1.0]},
        "entropic": {"gamma": 1.0},
        "worst_case": {},
        "linear": {},
    }

    def test_schema_enums_follow_the_tables(self):
        young, risk = (SCENARIO_SCHEMA["properties"][key]["properties"] for key in ("young", "risk"))
        assert young["family"]["enum"] == list(scenario_module.FAMILIES)
        assert risk["measure"]["enum"] == list(scenario_module.MEASURES)
        assert list(scenario_module.FAMILIES) == ["power", "linf", "exp", "piecewise"]
        assert list(scenario_module.MEASURES) == ["entropic", "worst_case", "linear"]

    def test_every_name_builds_from_its_minimal_spec(self):
        assert self.MINIMAL.keys() == scenario_module.FAMILIES.keys() | scenario_module.MEASURES.keys()
        for family in scenario_module.FAMILIES:
            phi = young_from_spec({"family": family, "params": self.MINIMAL[family]})
            assert phi.family_tag == family
        for measure in scenario_module.MEASURES:
            rho = risk_from_spec({"measure": measure, "params": self.MINIMAL[measure]})
            assert rho.tag == measure

    def test_refusals(self):
        with pytest.raises(ParameterError, match="^unexpected parameter 'scal'$"):
            young_from_spec({"family": "exp", "params": {"scal": 2.0}})
        with pytest.raises(ParameterError, match="^unknown Young family \\['power'\\]$"):
            young_from_spec({"family": ["power"]})

    def test_load_calls_factories_rebound_after_import(self, monkeypatch):
        """A profiler rebinds a factory on every package module that holds
        it; loading a scenario must call the rebound one."""
        calls = []
        for factory in (young_module.make_power, risk_module.entropic):
            def counting(*args, _factory=factory, **kwargs):
                calls.append(_factory.__name__)
                return _factory(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name == "orlicz_risk" or name.startswith("orlicz_risk."):
                    for attr, value in list(vars(module).items()):
                        if value is factory:
                            monkeypatch.setattr(module, attr, counting)
        Scenario.from_file(SCENARIOS / "power2.json")
        assert calls == ["make_power"]
        calls.clear()
        Scenario.from_file(SCENARIOS / "entropic4.json")
        assert calls == ["make_power", "entropic"]


# Values of every JSON type, some of them valid in one place of the schema.
_JUNK = [None, True, False, 0, 1, -2.5, "", "x", "w1", "power", "entropic",
         [], [1], ["w1"], [[]], [["w1"]], {}, {"w1": 1.0}, {"label": "a", "prob": 1.0}]
_NEW_KEYS = ["zz", "params", "filtration", "label", "prob", "name"]


def _slots(node):
    """Every (container, key-or-index) pair below `node`."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_slots(child))
    return out


def _mutate(doc, rng):
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc)
        op = rng.choice(("replace", "delete", "add"))
        if op == "add" or not slots:
            dicts = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            rng.choice(dicts)[rng.choice(_NEW_KEYS)] = copy.deepcopy(rng.choice(_JUNK))
            continue
        container, key = rng.choice(slots)
        if op == "replace":
            container[key] = copy.deepcopy(rng.choice(_JUNK))
        else:
            del container[key]
    return doc


class TestSchemaChecker:
    def test_agrees_with_jsonschema_on_mutated_scenarios(self):
        jsonschema = pytest.importorskip("jsonschema")
        oracle = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
        bundled = [json.loads(p.read_text()) for p in BUNDLED]
        rng = random.Random(20161018)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            doc = _mutate(copy.deepcopy(rng.choice(bundled)), rng)
            errors = list(oracle.iter_errors(doc))
            try:
                _check_schema(doc, SCENARIO_SCHEMA)
                accepted = True
            except ScenarioValidationError as exc:
                accepted = False
                if len(errors) == 1:
                    expected = "$" + "".join(
                        f"[{p}]" if isinstance(p, int) else f".{p}"
                        for p in errors[0].absolute_path
                    )
                    assert exc.path == expected, doc
            assert accepted == (not errors), doc
            verdicts[accepted] += 1
        # both verdicts must be common, or the comparison shows little
        assert min(verdicts.values()) > 300, verdicts

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d["outcomes"][0].update(prob=True), "$.outcomes[0].prob"),
        (lambda d: d["young"].update(family="cosh"), "$.young.family"),
        (lambda d: d["outcomes"][1].update(prob=math.nan), "$.outcomes[1].prob"),
        (lambda d: d["outcomes"][2].update(prob=math.inf), "$.outcomes[2].prob"),
        (lambda d: d["outcomes"][3].update(prob=-math.inf), "$.outcomes[3].prob"),
        (lambda d: d["outcomes"][0].update(prob=0), "$.outcomes[0].prob"),
        (lambda d: d["positions"]["z"].update(w3=math.nan), "$.positions.z.w3"),
        (lambda d: d["outcomes"][1].update(label="w1"), "$.outcomes"),
        (lambda d: d["filtration"].append("F9"), "$.filtration[2]"),
    ], ids=["bool_prob", "unknown_family", "nan_prob", "inf_prob", "neg_inf_prob", "zero_prob",
            "nan_position", "duplicate_label", "unknown_filtration_algebra"])
    def test_from_dict_raises_scenario_error_with_path(self, edit, path):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        edit(data)
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        assert err.value.path == path

    def test_schema_work_does_not_grow_with_outcomes(self, monkeypatch):
        # every outcome record is checked in one bulk pass, not walked
        def scenario(n):
            labels = [f"w{i}" for i in range(n)]
            return {
                "name": f"n{n}",
                "outcomes": [{"label": lab, "prob": 1 / n} for lab in labels],
                "algebras": {"F0": [labels], "F1": [labels[::2], labels[1::2]]},
                "positions": {"x": {lab: float(i) for i, lab in enumerate(labels)}},
                "young": {"family": "power", "params": {"p": 2}},
                "risk": {"measure": "entropic", "params": {"gamma": 1.0}},
            }

        calls = []

        def counted(value, schema, path="$", _check=_check_schema):
            calls.append(path)
            _check(value, schema, path)

        monkeypatch.setattr(scenario_module, "_check_schema", counted)
        per_size = []
        for n in (10, 1000):
            calls.clear()
            Scenario.from_dict(scenario(n))
            per_size.append(len(calls))
        assert per_size[0] == per_size[1]
        assert not any(path.startswith("$.outcomes[") for path in calls)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        # missing and extra keys, empty labels, bool, str and None probabilities
        st.fixed_dictionaries({}, optional={
            "label": st.one_of(st.text(max_size=2), st.none(), st.integers()),
            "prob": st.one_of(st.floats(), st.integers(), st.booleans(),
                              st.text(max_size=2), st.none()),
            "zz": st.none(),
        }),
        st.fixed_dictionaries({"label": st.text(min_size=1, max_size=2), "prob": st.floats()}),
        st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                  st.lists(st.none(), max_size=1)),
    ), max_size=6))
    def test_bulk_check_accepts_no_record_the_walker_rejects(self, records):
        schema = SCENARIO_SCHEMA["properties"]["outcomes"]["items"]
        if _all_conform(records, schema):
            for i, record in enumerate(records):
                _check_schema(record, schema, f"$.outcomes[{i}]")

    def test_import_does_not_load_jsonschema(self):
        # nor numpy.random and hashlib, which every CLI process would pay for
        out = subprocess.run(
            [sys.executable, "-c", "import orlicz_risk, sys; print([name in sys.modules for name"
             " in ('jsonschema', 'numpy.random', 'hashlib')])"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[False, False, False]"



FAULTS = ("unknown_label", "repeated_within", "repeated_across", "uncovered", "zero_prob",
          "negative_prob", "inf_prob", "nan_prob", "sum_0.9", "nan_position")


@st.composite
def faulty_scenarios(draw):
    """A scenario of random labels, partitions, probabilities and positions,
    with one fault of `FAULTS` planted, and the fault's name."""
    labels = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=2), min_size=2,
                           max_size=7, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=len(labels),
                                     max_size=len(labels))))
    probs = (weights / weights.sum()).tolist()
    algebras = {}
    for name in draw(st.lists(st.sampled_from(["F", "G", "H"]), min_size=1, max_size=2,
                              unique=True)):
        order = draw(st.permutations(labels))
        cuts = sorted(draw(st.sets(st.integers(1, len(labels) - 1), max_size=3)))
        algebras[name] = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(labels)])]
    positions = {"x": {lab: draw(st.floats(-5.0, 5.0)) for lab in labels}}
    fault = draw(st.sampled_from(FAULTS))
    atoms = algebras[draw(st.sampled_from(sorted(algebras)))]
    j = draw(st.integers(0, len(atoms) - 1))
    k = draw(st.integers(0, len(labels) - 1))
    if fault == "unknown_label":
        atoms[j].insert(draw(st.integers(0, len(atoms[j]))), "zz")
    elif fault == "repeated_within":
        i = draw(st.integers(0, len(atoms[j]) - 1))
        atoms[j].insert(draw(st.integers(i + 1, len(atoms[j]))), atoms[j][i])
    elif fault == "repeated_across":
        lab = atoms[j][draw(st.integers(0, len(atoms[j]) - 1))]
        other = [m for m in range(len(atoms)) if m != j]
        if other:
            target = atoms[draw(st.sampled_from(other))]
            target.insert(draw(st.integers(0, len(target))), lab)
        else:
            atoms.insert(draw(st.integers(0, 1)), [lab])
    elif fault == "uncovered":
        atoms[j].pop(draw(st.integers(0, len(atoms[j]) - 1)))
        if not atoms[j] and len(atoms) > 1:
            atoms.pop(j)
        elif not atoms[j]:
            atoms[j] = [lab for lab in labels if lab != labels[k]]
    elif fault == "nan_position":
        positions["x"][labels[k]] = math.nan
    elif fault == "sum_0.9":
        probs = [0.9 * p for p in probs]
    else:
        probs[k] = {"zero_prob": 0.0, "negative_prob": -probs[k], "inf_prob": math.inf,
                    "nan_prob": math.nan}[fault]
    return fault, {
        "name": "planted",
        "outcomes": [{"label": lab, "prob": p} for lab, p in zip(labels, probs)],
        "algebras": algebras,
        "positions": positions,
        "young": {"family": "linf"},
        "risk": {"measure": "linear"},
    }


class TestLoaderOracle:
    @settings(max_examples=400, deadline=None)
    @given(faulty_scenarios())
    def test_refusal_matches_the_reference(self, planted):
        fault, data = planted
        expected = reference_refusal(data)
        assert expected is not None, fault
        with pytest.raises(ScenarioValidationError) as err:
            Scenario.from_dict(data)
        path, message = expected
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


class TestCli:
    def test_dynamic_on_a_built_in_measure_does_not_load_numpy_random(self, tmp_path):
        # closed-form measures run no probes, so nothing draws random numbers
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from orlicz_risk.cli import main; "
             "code = main(sys.argv[1:]); print(code, [name in sys.modules for name"
             " in ('numpy.random', 'hashlib')])",
             "dynamic", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 [False, False]"
        assert (tmp_path / "entropic4.report.json").is_file()

    def test_importing_the_cli_loads_every_package_module(self):
        # a tracer that wraps the package's functions by name needs them all
        out = subprocess.run(
            [sys.executable, "-c", "import sys, orlicz_risk.cli; print(' '.join(sorted("
             "name for name in sys.modules if name.partition('.')[0] == 'orlicz_risk')))"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        )
        package = ROOT / "src" / "orlicz_risk"
        assert out.stdout.split() == sorted(["orlicz_risk"] + [
            f"orlicz_risk.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"])

    def test_the_package_republishes_each_module_all(self):
        init = ast.parse((ROOT / "src" / "orlicz_risk" / "__init__.py").read_text())
        starred = [node.module for node in init.body if isinstance(node, ast.ImportFrom)
                   and [alias.name for alias in node.names] == ["*"]]
        assert starred == ["errors", "prob_space", "young", "solvers", "orlicz", "risk", "scenario"]
        for name in starred:
            module = importlib.import_module(f"orlicz_risk.{name}")
            assert module.__all__
            for attr in module.__all__:
                assert getattr(orlicz_risk, attr) is getattr(module, attr), attr

    @pytest.mark.parametrize("command", ["norm", "verify"])
    def test_piecewise_past_the_float_range_exits_2_without_warnings(self, tmp_path, capsys,
                                                                     command):
        data = json.loads((SCENARIOS / "power2.json").read_text())
        data["young"] = {"family": "piecewise",
                         "params": {"knots": [1e308, 1.7e308], "slopes": [0.0, 10.0, 20.0]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
        assert caught == []
        assert "$.young.params: knots and slopes" in capsys.readouterr().err

    def test_norm_command_known_values(self, tmp_path):
        code = main(["norm", str(SCENARIOS / "power2.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "power2.report.json").read_text())
        block = report["results"]["x"]["full"]
        assert block["luxemburg"][0] == pytest.approx(math.sqrt(12.5), rel=1e-9)
        assert block["amemiya"][0] == pytest.approx(2.0 * math.sqrt(12.5), rel=1e-9)
        csv_text = (tmp_path / "power2.atoms.csv").read_text()
        assert "3.5355339059" in csv_text
        assert "7.0710678118" in csv_text

    def test_verify_exit_zero_on_bundled(self, tmp_path):
        for name in ("entropic4", "power2", "worstcase6", "supnorm3"):
            code = main(["verify", str(SCENARIOS / f"{name}.json"), "--out-dir", str(tmp_path)])
            assert code == 0
            report = json.loads((tmp_path / f"{name}.report.json").read_text())
            assert report["passed"] is True

    @pytest.mark.parametrize("flags", [[], ["--tol-gap", "0", "--tol-norm", "0"]],
                             ids=["default", "zero_tolerances"])
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_verify_rows_read_by_one_rule(self, tmp_path, path, flags):
        # a row with a finite `allowed` passes iff its value is at most that
        main(["verify", str(path), "--out-dir", str(tmp_path), *flags])
        with open(tmp_path / f"{path.stem}.atoms.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(r["quantity"].endswith("_definite") for r in rows if r["allowed"] == "inf")
        bounded = [r for r in rows if r["allowed"] != "inf"]
        assert any(r["quantity"] == "luxemburg_minus_amemiya" for r in bounded)
        for r in bounded:
            assert (float(r["value"]) <= float(r["allowed"])) == (r["passed"] == "true"), r

    def test_failing_verify_lists_at_most_20_rows(self, tmp_path, capsys, monkeypatch):
        # no valid tolerance fails more than 20 rows of a bundled scenario
        table = new_table()
        atom_rows(table, "locality", "F1", "", ("max_deviation", [0.0], 1e-9, [True]))
        atom_rows(table, "hoelder", "F1", "probe0", ("pairing_excess", [0.5] * 55, 0.25,
                                                     [False] * 55))
        monkeypatch.setattr(cli_module, "verify_scenario", lambda sc, **kw: (table, False))
        code = main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.splitlines()[:2] == ["FAIL hoelder: 0/55 rows", "PASS locality: 1/1 rows"]
        err = err.splitlines()
        assert len(err) == 20 and all(line.startswith("FAIL ") for line in err)
        assert err[19] == ("FAIL hoelder/pairing_excess algebra=F1 atom=19 observed=0.5"
                           " allowed=0.25")
        with open(tmp_path / "entropic4.atoms.csv", newline="") as f:
            assert sum(row["passed"] == "false" for row in csv.DictReader(f)) == 55

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_verify_summary_counts_the_written_table(self, tmp_path, capsys, path):
        main(["verify", str(path), "--out-dir", str(tmp_path), "--tol-gap", "0",
              "--tol-norm", "0"])
        report = json.loads((tmp_path / f"{path.stem}.report.json").read_text())
        with open(tmp_path / f"{path.stem}.atoms.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        counts = {}
        for row in rows:
            info = counts.setdefault(row["check"], {"rows": 0, "failed": 0})
            info["rows"] += 1
            info["failed"] += row["passed"] == "false"
        assert report["results"]["summary"] == counts
        assert report["passed"] is not any(info["failed"] for info in counts.values())
        failed = [r for r in rows if r["passed"] == "false"]
        assert [line.split()[1] for line in capsys.readouterr().err.splitlines()] == [
            f"{r['check']}/{r['quantity']}" for r in failed[:20]]

    def test_verify_reports_are_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(out)]) == 0
        assert (d1 / "entropic4.report.json").read_bytes() == (d2 / "entropic4.report.json").read_bytes()
        assert (d1 / "entropic4.atoms.csv").read_bytes() == (d2 / "entropic4.atoms.csv").read_bytes()

    def test_verify_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # Assumes an x86-64 OpenBLAS built with DYNAMIC_ARCH, as numpy's wheel
        # is: it picks its kernels by CPU at run time, unless OPENBLAS_CORETYPE
        # names one.  One child runs the default kernel and one Prescott's,
        # each running `verify` on every bundled scenario.
        script = ("import sys; from orlicz_risk.cli import main\n"
                  "for path in sys.argv[2:]:\n"
                  "    print(main(['verify', path, '--out-dir', sys.argv[1]]))")
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        outputs = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            out_dir = tmp_path / (kernel.get("OPENBLAS_CORETYPE") or "default")
            run = subprocess.run([sys.executable, "-c", script, str(out_dir), *map(str, BUNDLED)],
                                 env={**env, **kernel}, capture_output=True, text=True, check=True)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((run.stdout.replace(str(out_dir), "OUT"),
                            run.stderr.replace(str(out_dir), "OUT"), files))
        (out_a, err_a, files_a), (out_b, err_b, files_b) = outputs
        assert (out_a, err_a) == (out_b, err_b)
        assert files_a.keys() == files_b.keys() and len(files_a) == 2 * len(BUNDLED)
        assert [name for name in files_a if files_a[name] != files_b[name]] == []

    def test_no_module_sums_through_blas(self):
        # numpy hands these to BLAS, whose kernel the CPU picks at run time;
        # the package sums with np.add.reduce and reduceat instead
        modules = sorted((ROOT / "src" / "orlicz_risk").glob("*.py"))
        found = [
            (path.name, node.lineno, ast.unparse(node))
            for path in modules for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS
            or isinstance(node, ast.alias) and node.name in BLAS_CALLS
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ]
        assert len(modules) >= 10
        assert found == []

    def test_dual_csv_quotes_a_label_with_a_line_break(self, tmp_path):
        path = tmp_path / "entropic4.json"
        path.write_text((SCENARIOS / "entropic4.json").read_text().replace('"w1"', '"w\\n1"'))
        assert main(["dual", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "entropic4.atoms.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["check", "algebra", "atom", "position", "quantity", "value",
                           "allowed", "passed"]
        assert all(len(row) == 8 for row in rows)
        assert "y[w\n1]" in {row[4] for row in rows}

    def test_dual_refuses_a_label_without_utf8_text(self, tmp_path, capsys):
        path = tmp_path / "entropic4.json"
        path.write_text((SCENARIOS / "entropic4.json").read_text().replace('"w1"', '"\\ud800"'))
        assert main(["dual", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "'\\ud800' has no UTF-8 text" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_report_inputs_round_trip(self, tmp_path):
        main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        sc = Scenario.from_dict(report["inputs"])
        ref = Scenario.from_file(SCENARIOS / "entropic4.json")
        assert sc.labels == ref.labels
        np.testing.assert_array_equal(sc.space.probs, ref.space.probs)

    def test_malformed_probabilities_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "outcomes": [
                {"label": "a", "prob": 0.5},
                {"label": "b", "prob": 0.4},
            ],
            "algebras": {"F": [["a", "b"]]},
            "positions": {"x": {"a": 1.0, "b": 2.0}},
            "young": {"family": "linf"},
            "risk": {"measure": "linear"},
        }))
        code = main(["verify", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "sum to 1" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["outcomes"][1].update(prob=math.nan),
         "$.outcomes[1].prob: probability must be finite and > 0, got nan"),
        (lambda d: d["outcomes"][0].update(prob=math.inf),
         "$.outcomes[0].prob: probability must be finite and > 0, got inf"),
        (lambda d: d["positions"]["x"].update(w4=math.nan),
         "$.positions.x.w4: NaN is not a permitted value"),
    ], ids=["nan_prob", "inf_prob", "nan_position"])
    def test_non_finite_numbers_exit_two_with_path(self, tmp_path, capsys, edit, message):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # NaN and Infinity as JSON accepts them
        assert main(["dual", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "bad.report.json").exists()

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for line in [
            "norm     Luxemburg and Amemiya norms per position, algebra, and atom",
            "risk     risk measure values per position and algebra",
            "dual     robust-representation certificates (density, penalty, gap)",
            "verify   full invariant suite; exit 0 iff every tolerance passes",
            "dynamic  stage-wise evaluation along the scenario filtration",
        ]:
            assert f"\n  {line}\n" in out

    def test_help_survives_stripped_docstrings(self):
        out = subprocess.run(
            [sys.executable, "-OO", "-m", "orlicz_risk.cli", "--help"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        ).stdout
        assert "\n  dual     robust-representation certificates (density, penalty, gap)\n" in out
        assert "None" not in out

    def test_nan_in_rows_only_leaves_neither_file(self, tmp_path, monkeypatch, capsys):
        argv = ["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)]
        (tmp_path / "other.report.json").write_text("{}\n")
        assert main(argv) == 0
        assert len(list(tmp_path.iterdir())) == 3
        table = new_table()
        atom_rows(table, "norm", "F0", "x", ("gap", [math.nan], 1e-8, [True]))
        monkeypatch.setattr(cli_module, "verify_scenario", lambda sc, **kw: (table, True))
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith("column 'value': NaN has no CSV text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["other.report.json"]

    @pytest.mark.parametrize("argv", [["cosh", "scenarios/entropic4.json"], ["dual"], []],
                             ids=["unknown_command", "no_scenario", "nothing"])
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: orlicz-risk" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "-1e-300", "tiny"])
    @pytest.mark.parametrize("flag", ["--tol-gap", "--tol-norm"])
    def test_tolerance_outside_finite_nonnegative_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, flag, value):
        def load(path):
            raise AssertionError("the scenario is loaded before the flags are checked")
        monkeypatch.setattr(Scenario, "from_file", load)
        with pytest.raises(SystemExit) as exc:
            main(["dual", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path),
                  f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: orlicz-risk" in err
        assert f"argument {flag}: must be a finite number >= 0, got {value!r}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["norm", "risk", "dual", "verify", "dynamic"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        def load(path):
            raise AssertionError("the scenario is loaded before the flags are checked")
        monkeypatch.setattr(Scenario, "from_file", load)
        with pytest.raises(SystemExit) as exc:
            main([command, str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path),
                  "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: orlicz-risk" in err
        assert "argument --seed: must be an integer >= 0, got '-1'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1.5", "True", "", "nan"])
    def test_seed_that_is_not_an_integer_is_a_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(SCENARIOS / "power2.json"), "--out-dir", str(tmp_path),
                  f"--seed={value}"])
        assert exc.value.code == 2
        assert f"argument --seed: must be an integer >= 0, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0", "1e-300", "1e300"])
    def test_tolerance_zero_and_finite_accepted(self, tmp_path, value):
        argv = ["dual", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path),
                "--tol-norm", value, "--tol-gap", "1e-6"]
        assert main(argv) == 0
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        assert report["flags"]["tol_norm"] == float(value)

    def test_scenario_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "dir.json").mkdir()
        out = tmp_path / "out"
        assert main(["norm", str(tmp_path / "dir.json"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert not out.exists()

    def test_scenario_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(json.dumps({"name": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"))
        out = tmp_path / "out"
        assert main(["norm", str(bad), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_out_dir_that_cannot_be_made_exits_two(self, tmp_path, capsys):
        (tmp_path / "file").write_text("keep\n")
        for out in (tmp_path / "file", tmp_path / "file" / "sub"):
            assert main(["norm", str(SCENARIOS / "power2.json"), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno ") and str(out) in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "keep\n"

    def test_report_path_that_is_a_directory_leaves_no_table(self, tmp_path, capsys):
        argv = ["norm", str(SCENARIOS / "power2.json"), "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        (tmp_path / "power2.report.json").unlink()
        (tmp_path / "power2.report.json").mkdir()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert [p.name for p in tmp_path.iterdir()] == ["power2.report.json"]

    def test_flags_parse_after_the_scenario(self, tmp_path):
        out = tmp_path / "out"
        argv = ["risk", str(SCENARIOS / "entropic4.json"), "--out-dir", str(out),
                "--seed", "7", "--tol-gap", "1e-5", "--tol-norm", "1e-7"]
        assert main(argv) == 0
        report = json.loads((out / "entropic4.report.json").read_text())
        assert report["flags"] == {"seed": 7, "tol_gap": 1e-5, "tol_norm": 1e-7}

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "outcomes": [{"label": "a", "prob": 1.0}],
            "algebras": {"F": [["a"]]},
            "positions": {"x": {"a": 1.0}},
            "young": {"family": "cosh"},
            "risk": {"measure": "linear"},
        }))
        code = main(["norm", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "young" in capsys.readouterr().err

    @pytest.mark.parametrize("section, params", [
        ("young", {"family": "power", "params": {"p": "two"}}),
        ("young", {"family": "power", "params": {"p": None}}),
        ("young", {"family": "exp", "params": {"scale": [1]}}),
        ("young", {"family": "power", "params": {"q": 2}}),
        ("young", {"family": "piecewise", "params": {"knots": [1.0]}}),
        ("young", {"family": "piecewise", "params": {"knots": "1", "slopes": [1.0, 2.0]}}),
        ("young", {"family": "piecewise", "params": {"knots": [1.0, "x"], "slopes": [1, 2, 3]}}),
        ("young", {"family": "power", "params": {"p": math.nan}}),
        ("risk", {"measure": "entropic", "params": {"gamma": "x"}}),
        ("risk", {"measure": "entropic", "params": {"gama": 1}}),
        ("risk", {"measure": "entropic", "params": {"gamma": math.inf}}),
        ("young", {"family": "power", "params": {"p": 2, "extra": 1}}),
        ("young", {"family": "exp", "params": {"scal": 3}}),
        ("young", {"family": "linf", "params": {"p": 2}}),
        ("risk", {"measure": "worst_case", "params": {"gamma": 3}}),
        ("risk", {"measure": "linear", "params": {"gamma": 3}}),
    ])
    def test_bad_parameters_exit_two_with_path(self, tmp_path, capsys, section, params):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        data[section] = params
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["norm", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert f"$.{section}.params: " in capsys.readouterr().err

    def test_not_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["norm", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_risk_command_values(self, tmp_path, entropic4):
        code = main(["risk", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        x_f0 = report["results"]["x"]["F0"]
        expected = math.log(float(np.mean(np.exp(-entropic4.positions["x"].values))))
        assert x_f0[0] == pytest.approx(expected, rel=1e-9)
        assert len(report["results"]["x"]["F1"]) == 2

    def test_rerun_replaces_both_files(self, tmp_path):
        scenario = str(SCENARIOS / "entropic4.json")
        out, fresh, kept = tmp_path / "out", tmp_path / "fresh", tmp_path / "kept"
        names = ("entropic4.report.json", "entropic4.atoms.csv")
        assert main(["dual", scenario, "--out-dir", str(out)]) == 0
        first = [(out / name).read_bytes() for name in names]
        kept.mkdir()
        for name in names:
            os.link(out / name, kept / name)
        # a new gap tolerance changes both files
        for d in (out, fresh):
            assert main(["dual", scenario, "--out-dir", str(d), "--tol-gap", "1e-5"]) == 0
        for name, old in zip(names, first):
            assert (kept / name).read_bytes() == old
            assert (out / name).read_bytes() == (fresh / name).read_bytes() != old

    def test_symlinked_report_paths_are_replaced_not_followed(self, tmp_path):
        scenario = str(SCENARIOS / "entropic4.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.mkdir()
        for name in ("entropic4.report.json", "entropic4.atoms.csv"):
            (tmp_path / f"target-{name}").write_text("keep\n")
            (out / name).symlink_to(tmp_path / f"target-{name}")
        for d in (out, fresh):
            assert main(["dual", scenario, "--out-dir", str(d)]) == 0
        for name in ("entropic4.report.json", "entropic4.atoms.csv"):
            assert not (out / name).is_symlink()
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
            assert (tmp_path / f"target-{name}").read_text() == "keep\n"

    def test_dual_command_gaps_pass(self, tmp_path):
        code = main(["dual", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        for pos_block in report["results"].values():
            for alg_block in pos_block.values():
                assert all(abs(g) <= 1e-6 for g in alg_block["gap"])

    def test_dual_passes_at_small_gamma(self, tmp_path):
        data = json.loads((SCENARIOS / "entropic4.json").read_text())
        data["risk"]["params"]["gamma"] = 1e-12
        path = tmp_path / "entropic4.json"
        path.write_text(json.dumps(data))
        assert main(["dual", str(path), "--out-dir", str(tmp_path / "out")]) == 0

    def test_worst_case_dual_ignores_label_order_in_atom(self, tmp_path):
        # x ties at its minimum on outcomes a and c of the atom {a, b, c}: the
        # certificate puts its mass on the lowest outcome, a, however the
        # atom lists its labels
        outputs = []
        for atom in (["a", "b", "c"], ["c", "a", "b"]):
            data = {
                "name": "ties",
                "outcomes": [{"label": lab, "prob": 0.25} for lab in "abcd"],
                "algebras": {"F": [atom, ["d"]]},
                "positions": {"x": {"a": 1.0, "b": 5.0, "c": 1.0, "d": 2.0}},
                "young": {"family": "power", "params": {"p": 2}},
                "risk": {"measure": "worst_case"},
            }
            out = tmp_path / "".join(atom)
            path = tmp_path / "ties.json"
            path.write_text(json.dumps(data))
            assert main(["dual", str(path), "--out-dir", str(out)]) == 0
            report = json.loads((out / "ties.report.json").read_text())
            outputs.append((report["results"], (out / "ties.atoms.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["x"]["F"]["y"] == [-3, 0, 0, -1]

    def test_dynamic_command(self, tmp_path):
        code = main(["dynamic", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        stages = report["results"]["x"]
        assert set(stages) == {"stage0:F0", "stage1:F1"}
        assert len(stages["stage1:F1"]) == 2

    def test_dynamic_requires_filtration(self, tmp_path, capsys):
        code = main(["dynamic", str(SCENARIOS / "power2.json"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "filtration" in capsys.readouterr().err


def test_every_python_block_of_the_readme_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        out = subprocess.run(
            [sys.executable, "-c", block], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True,
        )
        assert (out.returncode, "RuntimeWarning" in out.stderr) == (0, False), out.stderr
