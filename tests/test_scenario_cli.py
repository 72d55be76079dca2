import json
import math
from pathlib import Path

import numpy as np
import pytest

from orlicz_risk import Scenario, ScenarioValidationError
from orlicz_risk.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        assert "$.outcomes" in str(err.value)

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

    def test_verify_reports_are_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert main(["verify", str(SCENARIOS / "entropic4.json"), "--out-dir", str(out)]) == 0
        assert (d1 / "entropic4.report.json").read_bytes() == (d2 / "entropic4.report.json").read_bytes()
        assert (d1 / "entropic4.atoms.csv").read_bytes() == (d2 / "entropic4.atoms.csv").read_bytes()

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
