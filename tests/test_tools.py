import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import orlicz_risk.risk as risk_module
from orlicz_risk import Scenario, ScenarioValidationError

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def options():
    spec = importlib.util.spec_from_file_location("options", ROOT / "tools" / "options.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layer_sweep():
    spec = importlib.util.spec_from_file_location("layer_sweep", ROOT / "tools" / "layer_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestCodeLines:
    def test_docstrings_comments_and_blanks_count_zero(self, code_lines, tmp_path):
        path = tmp_path / "empty.py"
        _write(path, '"""Module\n\ndocstring."""\n\n# a comment\n\n\n    # indented comment\n')
        assert code_lines.code_lines(path) == 0

    def test_function_docstring_and_code(self, code_lines, tmp_path):
        path = tmp_path / "f.py"
        _write(path, 'def f(x):\n    """Doc."""\n    # note\n    return (x +\n            1)\n')
        assert code_lines.code_lines(path) == 3

    def test_two_trees(self, code_lines, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        _write(old / "a.py", "x = 1\ny = 2\n")
        _write(old / "gone.py", "z = 3\n")
        _write(new / "a.py", "x = 1\n")
        _write(new / "pkg" / "b.py", '"""Doc."""\nu = 1\nv = 2\nw = 3\n')
        assert code_lines.main([str(old), str(new)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [
            ["old", "new", "diff", "file"],
            ["2", "1", "-1", "a.py"],
            ["1", "0", "-1", "gone.py"],
            ["0", "3", "+3", "pkg/b.py"],
            ["3", "4", "+1", "total"],
        ]

    def test_one_tree(self, code_lines, tmp_path, capsys):
        _write(tmp_path / "a.py", "x = 1\ny = 2\n")
        assert code_lines.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.split() == ["2", str(tmp_path / "a.py"), "2", "total"]

    def test_bad_arguments(self, code_lines, tmp_path, capsys):
        assert code_lines.main([]) == 2
        assert code_lines.main([str(tmp_path), str(tmp_path / "missing")]) == 2
        assert "usage" in capsys.readouterr().err


OPTIONS_MODULE = """\
import argparse
from dataclasses import dataclass, field
from typing import NamedTuple


def solve(f, lo, hi=1.0, *, tol=1e-9, cap=None, strict):  # 3
    def inner(x, scale=2.0):  # nested: not counted
        return x
    return inner


def _helper(x, y=1):  # private: not counted
    return x


@dataclass(frozen=True)
class Record:  # 2
    name: str
    size: int = 0
    tags: list = field(default_factory=list)

    def scaled(self, by=1.0):  # 1
        return self


class Report(NamedTuple):  # 1
    value: float
    ok: bool = True


class Plain:
    limit: int = 3  # not a record: not counted

    def __init__(self, n=4):  # 1
        self.n = n

    def _step(self, k=1):  # private: not counted
        return k


class _Hidden:
    def run(self, x=0):  # private class: not counted
        return x


def build():  # 2
    parser = argparse.ArgumentParser()
    parser.add_argument("command")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--out", default=".")
    return parser
"""


class TestOptions:
    def test_counts_each_kind(self, options, tmp_path):
        path = tmp_path / "mod.py"
        _write(path, OPTIONS_MODULE)
        assert options.options(path) == 3 + 2 + 1 + 1 + 1 + 2

    def test_two_trees(self, options, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        _write(old / "a.py", "def f(x, y=1, z=2):\n    return x\n")
        _write(new / "a.py", "def f(x, y=1):\n    return x\n")
        _write(new / "b.py", "class R(NamedTuple):\n    v: int = 0\n")
        assert options.main([str(old), str(new)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [
            ["old", "new", "diff", "file"],
            ["2", "1", "-1", "a.py"],
            ["0", "1", "+1", "b.py"],
            ["2", "2", "+0", "total"],
        ]

    def test_one_file_and_bad_arguments(self, options, tmp_path, capsys):
        path = tmp_path / "a.py"
        _write(path, "def f(x=1):\n    return x\n")
        assert options.main([str(path)]) == 0
        assert capsys.readouterr().out.split() == ["1", str(path), "1", "total"]
        assert options.main([]) == 2
        assert "usage: python tools/options.py" in capsys.readouterr().err

    def test_a_path_that_does_not_exist_gets_the_usage_line(self, options, code_lines, tmp_path,
                                                            capsys):
        assert code_lines.main([str(tmp_path / "missing")]) == 2
        assert "usage: python tools/code_lines.py" in capsys.readouterr().err
        assert options.main(["--help"]) == 2
        assert "usage: python tools/options.py" in capsys.readouterr().err


# the planted parameter faults and the path each is refused at
PARAM_FAULTS = {"unknown_young_param": "$.young.params", "risk_param_not_a_number": "$.risk.params"}


class TestCompareOutputs:
    def test_loader_refuses_every_planted_fault(self, compare_outputs, tmp_path):
        scenarios = list(ROOT.glob("scenarios/*.json"))
        paths = compare_outputs.malformed_scenarios(ROOT / "scenarios", tmp_path)
        assert len(paths) == len(compare_outputs.FAULTS) * len(scenarios)
        refusals = []
        for path in paths:
            with pytest.raises(ScenarioValidationError) as err:
                Scenario.from_file(path)
            refusals.append((path.stem.split(".", 1)[1], err.value.path))  # <scenario>.<fault>
        # every bundled scenario refuses both parameter faults, each at its path
        for refusal in PARAM_FAULTS.items():
            assert refusals.count(refusal) == len(scenarios)

    def test_blocked_scenario_takes_the_blocked_probe_path(self, compare_outputs, tmp_path):
        # locality and extension on its discrete algebra need more than one call
        path = compare_outputs.blocked_scenario(compare_outputs.load_gen(ROOT), 5, tmp_path)
        sc = Scenario.from_file(path)
        n = sc.space.n_outcomes
        assert [alg.n_atoms for alg in sc.algebras.values()] == [1, n]
        assert 3 * (n + 1) * n > risk_module._STACK_ENTRIES
        assert sc.risk.tag == "worst_case"

    def test_env_reaches_only_the_change_runner(self, compare_outputs, tmp_path, monkeypatch):
        # two stand-in trees whose `main` prints the variable its argument names
        monkeypatch.delenv("COMPARE_OUTPUTS_PROBE", raising=False)
        trees, works = [tmp_path / "parent", tmp_path / "change"], [tmp_path / "a", tmp_path / "b"]
        for tree, work in zip(trees, works):
            _write(tree / "src" / "orlicz_risk" / "__init__.py", "")
            _write(tree / "src" / "orlicz_risk" / "cli.py",
                   "import os\n\ndef main(argv):\n    print(os.environ.get(argv[0], 'unset'))\n"
                   "    return 0\n")
            work.mkdir()
        env = dict([compare_outputs.env_pair("COMPARE_OUTPUTS_PROBE=Prescott")])
        runs = compare_outputs.run_pass(trees, works, [("probe", 0, ["COMPARE_OUTPUTS_PROBE"])],
                                        "first", [{}, env])
        assert runs == [[[0, "unset\n", ""]], [[0, "Prescott\n", ""]]]

    def test_env_option_needs_name_and_value(self, compare_outputs, capsys):
        assert compare_outputs.env_pair("A=b=c") == ("A", "b=c")
        assert compare_outputs.env_pair("A=") == ("A", "")
        for text in ("Prescott", "=Prescott"):
            with pytest.raises(argparse.ArgumentTypeError, match="expected NAME=VALUE"):
                compare_outputs.env_pair(text)
        with pytest.raises(SystemExit) as exc:
            compare_outputs.main([".", ".", "--env", "Prescott"])
        assert exc.value.code == 2
        assert "argument --env: expected NAME=VALUE, got 'Prescott'" in capsys.readouterr().err


class TestLayerSweep:
    def test_one_row_of_a_tree_against_itself(self, layer_sweep, tmp_path, capsys):
        row = "luxemburg_norm power(2) 8/2"
        assert layer_sweep.main([str(ROOT), str(ROOT), "--label", "quick", "--rounds", "1",
                                 "--repeat", "1", "--only", row, "--out-dir", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "BENCH_quick.json").read_text())
        assert [r["row"] for r in result["rows"]] == [row]
        (found,) = result["rows"]
        # one solve, as TestWorkBudget counts it
        assert found["iterations"]["parent"] == found["iterations"]["change"] == [16]
        for side in ("parent", "change"):
            assert len(found["best_s"][side]) == len(found["ref_s"][side]) == 1
            assert 0.0 < found["best_s"][side][0] < 1.0
            assert result["trees"][side]["numpy"] == np.__version__
        assert row in capsys.readouterr().out

    def test_needs_two_trees_and_a_label(self, layer_sweep, capsys):
        for argv in ([".", "--label", "x"], [".", "."], [".", ".", "--label", "x", "--only", "?"]):
            with pytest.raises(SystemExit) as exc:
                layer_sweep.main(argv)
            assert exc.value.code == 2
        assert "usage: python tools/layer_sweep.py" in capsys.readouterr().err


TOY = """def double(x, by=3):
    if x > 10 ** 6:
        raise ValueError(f"{x + 1} is too large", 7)
    return x * 2
"""
TOY_TEST = """import pytest
from toy import double


def test_double():
    assert double(3) == 6
    assert double(10 ** 6) == 2 * 10 ** 6
    with pytest.raises(ValueError):
        double(10 ** 6 + 1)
"""


class TestMutants:
    def test_sites_and_filters_of_a_toy_module(self, mutants):
        sites = [(s["old"], s["new"], s["filter"]) for s in mutants.find_sites(TOY)]
        # the f-string's `x + 1` is message text and no site; a default is a site
        assert sites == [("3", "4", None), (">", ">=", None), ("10", "11", None),
                         ("6", "7", None), ("7", "8", "message"), ("*", "/", None),
                         ("2", "3", None)]
        assert mutants.mutate(TOY, mutants.find_sites(TOY)[1]).splitlines()[1] == \
            "    if x >= 10 ** 6:"

    def test_one_mutant_of_a_tmp_copy(self, mutants, tmp_path, capsys):
        tree = tmp_path / "tree"
        _write(tree / "src" / "toy.py", TOY)
        _write(tree / "tests" / "test_toy.py", TOY_TEST)
        assert mutants.main(["src/toy.py:1", "--label", "toy", "--root", str(tree),
                             "--out-dir", str(tmp_path), "--timeout", "60"]) == 0
        result = json.loads((tmp_path / "MUTANTS_toy.json").read_text())
        assert result["control"]["outcome"] == "passed"
        assert result["modules"] == {"src/toy.py": {"sites": 7, "filtered": 1, "run": 1}}
        filtered, run = result["mutants"]
        assert (filtered["old"], filtered["outcome"]) == ("7", "filtered")
        # the sample is drawn by the path alone
        assert (run["line"], run["old"]) == (4, "2")
        assert run["outcome"] == "killed"
        assert run["failed_test"] == "tests/test_toy.py::test_double"
        # the copy was restored and removed; the tree itself is untouched
        assert (tree / "src" / "toy.py").read_text() == TOY
        assert "src/toy.py: 1 killed, 0 timeout, 0 survived, 1 filtered" in capsys.readouterr().out

    def test_module_count_must_be_positive(self, mutants, capsys):
        with pytest.raises(SystemExit) as exc:
            mutants.main(["src/orlicz_risk/errors.py:0", "--label", "x"])
        assert exc.value.code == 2
        assert "expected MODULE or MODULE:N with N >= 1" in capsys.readouterr().err
