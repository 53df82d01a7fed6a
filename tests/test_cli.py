import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import invariance
from invariance.cli import main
from invariance.report import run_scenario, run_suite

SCENARIOS = Path(str(resources.files("invariance") / "scenarios"))


def shipped(name):
    return str(SCENARIOS / (name + ".json"))


class TestRunScenario:
    def test_basic_pass(self):
        report, code = run_scenario(shipped("classify_strain_rate"))
        assert code == 0
        assert report["parts"] == {"tensor": True, "objective": True}
        assert report["expectation_met"]
        assert report["input_digest"].startswith("sha256:")

    def test_expected_fail_is_not_an_error(self):
        report, code = run_scenario(shipped("classify_velocity"))
        assert code == 0
        assert report["parts"]["tensor"] is False
        assert report["expectation_met"]

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "name": "x",
                                   "kind": "tensor"}))
        report, code = run_scenario(str(bad))
        assert code == 2 and report["error_kind"] == "schema"

    def test_unknown_kind_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "name": "x",
                                   "kind": "nope", "payload": {}}))
        _, code = run_scenario(str(bad))
        assert code == 2

    def test_execution_error(self, tmp_path):
        # S5 on a viscous solution raises inside the checker
        doc = {"schema": 1, "name": "boom", "kind": "ns-symmetry",
               "payload": {"solution": "beltrami",
                           "symmetry": {"tag": "S5", "a": 0.2}},
               "expect": {}}
        p = tmp_path / "boom.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p))
        assert code == 3 and report["error_kind"] == "execution"

    @pytest.mark.parametrize("symmetry", [
        {"tag": "S1"}, {"tag": "S3", "axis": 7}, "S1",
        {"tag": "S5", "a": "x"}, {"tag": "G", "c1": [1, 2]},
        {"tag": "S9"},
    ], ids=["missing-eps", "bad-axis", "not-an-object", "non-numeric",
            "short-vector", "unknown-tag"])
    def test_malformed_symmetry_is_schema_error(self, tmp_path, symmetry):
        doc = {"schema": 1, "name": "bad", "kind": "ns-symmetry",
               "payload": {"solution": "beltrami", "symmetry": symmetry},
               "expect": {}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p))
        assert code == 2 and report["error_kind"] == "schema"

    def test_zero_rotations_is_schema_error(self, tmp_path):
        # no rotation means nothing was compared: not a vacuous PASS
        doc = {"schema": 1, "name": "none", "kind": "tensor",
               "payload": {"quantity": "strain_rate", "rotations": 0}}
        p = tmp_path / "none.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p))
        assert code == 2 and report["error_kind"] == "schema"

    def test_tolerance_override_flips_verdict(self):
        report, _ = run_scenario(shipped("classify_strain_rate"), tol=1e-30)
        assert report["parts"]["tensor"] is False
        assert not report["expectation_met"]


class TestRunSuite:
    def test_merge_is_sorted_and_deterministic(self):
        names = ["classify_strain_rate", "classify_velocity",
                 "mech_frame_indifference_oscillator"]
        paths = [shipped(n) for n in names]
        reports, code = run_suite(paths, no_timestamp=True, jobs=3)
        assert code == 0
        assert [r["scenario"] for r in reports] == sorted(names)
        again, _ = run_suite(list(reversed(paths)), no_timestamp=True)
        assert json.dumps(reports, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_aggregate_exit_is_max(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        reports, code = run_suite([shipped("classify_strain_rate"),
                                   str(bad)])
        assert code == 2 and len(reports) == 2


class TestCommandLine:
    def test_check_exit_zero(self, capsys):
        assert main(["check", shipped("classify_strain_rate"),
                     "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_json_output_round_trips(self, capsys):
        assert main(["check", shipped("ns_s6_rotation_taylor_green"),
                     "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parts"]["symmetry"] is True
        assert report["timestamp"] == 0.0 and report["runtime_s"] == 0.0

    def test_byte_identical_reports(self, capsys):
        # determinism gate: two runs, identical bytes
        main(["check", shipped("geometric_suite"), "--json",
              "--no-timestamp"])
        first = capsys.readouterr().out
        main(["check", shipped("geometric_suite"), "--json",
              "--no-timestamp"])
        assert capsys.readouterr().out == first

    def test_schema_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["check", str(bad)]) == 2

    def test_strict_flags_missed_expectation(self, tmp_path, capsys):
        doc = json.loads(Path(shipped("classify_strain_rate")).read_text())
        doc["expect"] = {"tensor": False}
        p = tmp_path / "wrong.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 0
        assert main(["check", str(p), "--strict"]) == 1

    def test_demo_lists_and_runs(self, capsys):
        assert main(["demo"]) == 0
        names = capsys.readouterr().out.split()
        assert len(names) >= 15
        assert main(["demo", names[0], "--no-timestamp"]) == 0
        assert main(["demo", "no_such_scenario"]) == 2

    def test_suite_directory_validation(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path / "missing")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["suite", str(empty)]) == 2

    def test_suite_runs_subset(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        for n in ("classify_strain_rate", "ns_s4_time_reversal_beltrami"):
            (sub / (n + ".json")).write_text(
                Path(shipped(n)).read_text())
        assert main(["suite", str(sub), "--jobs", "2",
                     "--no-timestamp", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios matched expectations" in out

    def test_import_leaves_scipy_out(self):
        # a fresh interpreter, so modules the test session loaded do not count
        src = str(Path(invariance.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, invariance.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
