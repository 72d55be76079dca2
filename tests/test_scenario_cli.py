import copy
import csv
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orlicz_risk import SCENARIO_SCHEMA, Scenario, ScenarioValidationError
import orlicz_risk.cli as cli_module
from orlicz_risk.cli import main
import orlicz_risk.scenario as scenario_module
from orlicz_risk.scenario import _check_schema

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.json"))


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

    def test_import_does_not_load_jsonschema(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import orlicz_risk, sys; print('jsonschema' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestCli:
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

    def test_failing_verify_lists_at_most_20_rows(self, tmp_path, capsys):
        code = main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path),
                     "--tol-gap", "-1", "--tol-norm", "-1"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 20 and all(line.startswith("FAIL ") for line in err)
        with open(tmp_path / "entropic4.atoms.csv", newline="") as f:
            assert sum(row["passed"] == "false" for row in csv.DictReader(f)) == 55

    def test_verify_reports_are_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(out)]) == 0
        assert (d1 / "entropic4.report.json").read_bytes() == (d2 / "entropic4.report.json").read_bytes()
        assert (d1 / "entropic4.atoms.csv").read_bytes() == (d2 / "entropic4.atoms.csv").read_bytes()

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
        row = {"check": "norm", "algebra": "F0", "atom": 0, "position": "x",
               "quantity": "gap", "value": math.nan, "allowed": 1e-8, "passed": True}
        monkeypatch.setattr(cli_module, "verify_scenario", lambda sc, **kw: ([row], True))
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

    def test_dual_command_gaps_pass(self, tmp_path):
        code = main(["dual", str(SCENARIOS / "entropic4.json"), "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "entropic4.report.json").read_text())
        for pos_block in report["results"].values():
            for alg_block in pos_block.values():
                assert all(abs(g) <= 1e-6 for g in alg_block["gap"])

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
