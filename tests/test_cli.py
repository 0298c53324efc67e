"""Command-line behavior: exit codes, output shapes, and written artifacts.

Every test drives ``main(argv)`` directly; one test goes through
``python3 -m gridgram`` to prove the module entry point is wired up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridgram import generator
from gridgram.cli import EXIT_INTERNAL, main
from gridgram.core import MAX_N_HALF
from gridgram.generator import Design, parse_log, verify_log
from gridgram.grammar import parse_grammar
from gridgram.rulesets import demo_profile_obj, demo_uav_text

GOLDEN = Path(__file__).parent / "golden"

EDGE_TO_EMPTY_GRAMMAR = """
{
  "name": "bad_edge",
  "version": "1",
  "rules": [
    {
      "name": "rotor_on_anything",
      "contexts": [
        {"ego": "Unoccupied", "front": ["Connector", "Empty"], "rear": "*",
         "left": "*", "right": "*", "top": "*", "bottom": "*"}
      ],
      "produce": {"symbol": "Rotor", "connect": "front"},
      "weight": 1
    }
  ]
}
"""

EMPTY_WITH_CONNECTION_GRAMMAR = """
{
  "name": "bad_empty",
  "version": "1",
  "rules": [
    {
      "name": "empty_connect",
      "contexts": [
        {"ego": "Unoccupied", "front": "*", "rear": "*", "left": "*",
         "right": "*", "top": "*", "bottom": "*"}
      ],
      "produce": {"symbol": "Empty", "connect": "front"},
      "weight": 1
    }
  ]
}
"""

NO_RULES_GRAMMAR = '{"name": "empty", "version": "1", "rules": []}'


def _die(args):
    """Stands in for the batch worker: the process ends without a result."""
    os._exit(1)


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("grammar") / "demo_uav.json"
    p.write_text(demo_uav_text())
    return str(p)


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("profile") / "demo_profile.json"
    p.write_text(json.dumps(demo_profile_obj()))
    return str(p)


@pytest.fixture(scope="module")
def run42(tmp_path_factory, demo_path) -> Path:
    """Artifacts for seed 42 at n_half=2, same run the goldens pin down."""
    out = tmp_path_factory.mktemp("run42")
    rc = main([
        "generate", demo_path, "--n-half", "2", "--seed", "42",
        "--count", "1", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_n1(tmp_path_factory, demo_path) -> Path:
    """Artifacts for seed 2 at n_half=1, the run behind the dot golden."""
    out = tmp_path_factory.mktemp("run_n1")
    rc = main([
        "generate", demo_path, "--n-half", "1", "--seed", "2",
        "--count", "1", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_design_and_log_and_reports(self, demo_path, tmp_path, capsys):
        rc = main([
            "generate", demo_path, "--n-half", "1", "--seed", "7",
            "--count", "1", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        design_file = tmp_path / "design_7.json"
        log_file = tmp_path / "log_7.json"
        assert design_file.is_file() and log_file.is_file()

        lines = captured.out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["seed"] == 7
        assert report["outcome"] == "complete"
        assert report["counts"]["Fuselage"] == 1

        design = Design.parse(design_file.read_text())
        assert design.hash == report["design_hash"]
        log = parse_log(log_file.read_text())
        assert len(log.steps) == report["steps"]
        replayed = verify_log(log, parse_grammar(demo_uav_text()))
        assert replayed.hash == design.hash
        assert "generated 1 design(s)" in captured.err

    def test_seed42_files_match_goldens(self, run42):
        expected_design = (GOLDEN / "demo_seed42_design.json").read_text()
        expected_log = (GOLDEN / "demo_seed42_log.json").read_text()
        assert (run42 / "design_42.json").read_text() == expected_design
        assert (run42 / "log_42.json").read_text() == expected_log

    def test_count_writes_one_pair_per_seed(self, demo_path, tmp_path, capsys):
        rc = main([
            "generate", demo_path, "--n-half", "1", "--seed", "5",
            "--count", "3", "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for seed in (5, 6, 7):
            assert (tmp_path / f"design_{seed}.json").is_file()
            assert (tmp_path / f"log_{seed}.json").is_file()
        assert [json.loads(l)["seed"] for l in out.splitlines()] == [5, 6, 7]

    def test_repeat_invocations_are_byte_identical(self, demo_path, tmp_path):
        args = ["generate", demo_path, "--n-half", "1", "--seed", "11", "--count", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("design_11.json", "log_11.json", "design_12.json", "log_12.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_contract_matcher_produces_same_design(self, demo_path, tmp_path):
        base = ["generate", demo_path, "--n-half", "1", "--seed", "3", "--count", "1"]
        assert main(base + ["--out-dir", str(tmp_path / "d")]) == 0
        assert main(base + ["--matcher", "contract", "--out-dir", str(tmp_path / "c")]) == 0
        assert (
            (tmp_path / "d" / "design_3.json").read_bytes()
            == (tmp_path / "c" / "design_3.json").read_bytes()
        )

    def test_missing_grammar_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_grammar_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["generate", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_lint_error_grammar_is_check_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad_edge.json"
        bad.write_text(EDGE_TO_EMPTY_GRAMMAR)
        rc = main(["generate", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_range_past_64_bits_is_usage_error(self, demo_path, tmp_path, capsys):
        rc = main([
            "generate", demo_path, "--seed", str(2**64 - 1), "--count", "2",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "seed range" in capsys.readouterr().err

    def test_zero_count_is_usage_error(self, demo_path, tmp_path, capsys):
        rc = main(["generate", demo_path, "--count", "0", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_dead_worker_is_internal_error(self, demo_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(generator, "_batch_worker", _die)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        rc = main([
            "generate", demo_path, "--n-half", "1", "--count", "2",
            "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("internal error:")


class TestReplay:
    def test_generated_log_verifies(self, demo_path, run_n1, capsys):
        rc = main(["replay", str(run_n1 / "log_2.json"), demo_path])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["outcome"] == "complete"
        design = Design.parse((run_n1 / "design_2.json").read_text())
        assert report["design_hash"] == design.hash

    def test_tampered_design_hash_fails(self, demo_path, run_n1, tmp_path, capsys):
        obj = json.loads((run_n1 / "log_2.json").read_text())
        old = obj["design_hash"]
        obj["design_hash"] = ("0" if old[0] != "0" else "1") + old[1:]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        rc = main(["replay", str(tampered), demo_path])
        assert rc == 1
        assert "replay failed" in capsys.readouterr().err

    def test_wrong_grammar_fails(self, run_n1, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(NO_RULES_GRAMMAR)
        rc = main(["replay", str(run_n1 / "log_2.json"), str(other)])
        assert rc == 1
        assert "replay failed" in capsys.readouterr().err

    def test_malformed_log_is_parse_error(self, demo_path, tmp_path, capsys):
        bad = tmp_path / "log.json"
        bad.write_text('{"format": "something-else"}')
        assert main(["replay", str(bad), demo_path]) == 3

    def test_missing_log_is_usage_error(self, demo_path, tmp_path):
        assert main(["replay", str(tmp_path / "none.json"), demo_path]) == 2


class TestValidate:
    def test_demo_profile_passes(self, run42, profile_path, capsys):
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", profile_path,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = [c["check"] for c in report["checks"]]
        assert "complete" in names and "connected" in names
        assert "count:Fuselage" in names

    def test_no_profile_passes_vacuously(self, run42, capsys):
        rc = main(["validate", str(run42 / "design_42.json")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_unsatisfiable_count_fails(self, run42, tmp_path, capsys):
        profile = tmp_path / "strict.json"
        profile.write_text('{"counts": {"Rotor": [50, null]}}')
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", str(profile),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        report = json.loads(out)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["check"] for c in failed] == ["count:Rotor"]

    def test_unknown_profile_key_is_parse_error(self, run42, tmp_path):
        profile = tmp_path / "odd.json"
        profile.write_text('{"frobnicate": true}')
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", str(profile),
        ])
        assert rc == 3

    def test_non_boolean_flag_is_parse_error(self, run42, tmp_path, capsys):
        profile = tmp_path / "loose.json"
        profile.write_text('{"require_complete": "no", "require_connected": 0}')
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", str(profile),
        ])
        assert rc == 3
        assert capsys.readouterr().out == ""

    def test_profile_must_be_an_object(self, run42, tmp_path):
        profile = tmp_path / "list.json"
        profile.write_text("[1, 2]")
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", str(profile),
        ])
        assert rc == 3

    def test_profile_must_be_json(self, run42, tmp_path):
        profile = tmp_path / "junk.json"
        profile.write_text("not json")
        rc = main([
            "validate", str(run42 / "design_42.json"), "--profile", str(profile),
        ])
        assert rc == 3

    def test_malformed_design_is_parse_error(self, tmp_path):
        bad = tmp_path / "design.json"
        bad.write_text('{"format": "wrong"}')
        assert main(["validate", str(bad)]) == 3


class TestLint:
    def test_demo_grammar_is_clean(self, demo_path, capsys):
        rc = main(["lint", demo_path])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines():
            assert json.loads(line)["level"] == "info"

    def test_edge_to_non_component_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(EDGE_TO_EMPTY_GRAMMAR)
        rc = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        errors = [json.loads(l) for l in out.splitlines() if json.loads(l)["level"] == "error"]
        assert errors and errors[0]["code"] == "edge-target-not-component"

    def test_empty_with_connection_rule_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(EMPTY_WITH_CONNECTION_GRAMMAR)
        rc = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        report = json.loads(out)
        assert report["level"] == "error"
        assert report["code"] == "empty-with-connection"

    def test_unknown_symbol_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(EDGE_TO_EMPTY_GRAMMAR.replace('"Rotor"', '"Thruster"'))
        assert main(["lint", str(bad)]) == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "none.json")]) == 2


class TestAssignDirs:
    def test_demo_matches_frozen_assignment(self, demo_path, tmp_path, capsys):
        out_file = tmp_path / "assignment.json"
        rc = main(["assign-dirs", demo_path, "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        result = json.loads(out)
        golden = json.loads((GOLDEN / "demo_assignment.json").read_text())
        assert result["assignment"] == golden["assignment"]
        assert result["total_intervals"] == golden["total_intervals"]
        assert result["bijections_scanned"] == 5040
        assert result["rules"] == 29
        assert out_file.read_text() == out

    def test_no_rules_means_no_assignment(self, tmp_path, capsys):
        g = tmp_path / "empty.json"
        g.write_text(NO_RULES_GRAMMAR)
        rc = main(["assign-dirs", str(g)])
        assert rc == 1
        assert "no assignment" in capsys.readouterr().err


class TestExport:
    def test_dot_output_matches_golden(self, run_n1, capsys):
        rc = main(["export", str(run_n1 / "design_2.json"), "--format", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == (GOLDEN / "demo_n1_seed2.dot").read_text()

    def test_dot_edges_only_reference_declared_nodes(self, run42, capsys):
        rc = main(["export", str(run42 / "design_42.json"), "--format", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "graph design {" and lines[-1] == "}"
        nodes = {l.strip().rstrip(";") for l in lines[1:-1] if "--" not in l}
        for line in lines[1:-1]:
            if "--" in line:
                a, b = line.strip().rstrip(";").split(" -- ")
                assert a in nodes and b in nodes

    def test_json_format_round_trips(self, run_n1, capsys):
        design_file = run_n1 / "design_2.json"
        rc = main(["export", str(design_file), "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == design_file.read_text()

    def test_unknown_format_is_usage_error(self, run_n1, capsys):
        rc = main(["export", str(run_n1 / "design_2.json"), "--format", "gif"])
        assert rc == 2


class TestBench:
    def test_summary_shape(self, demo_path, capsys):
        rc = main(["bench", demo_path, "--n-half", "1", "--count", "3", "--seed", "9"])
        captured = capsys.readouterr()
        assert rc == 0
        summary = json.loads(captured.out)
        assert summary["n_half"] == 1 and summary["count"] == 3 and summary["seed"] == 9
        direct = summary["results"]["direct"]
        assert set(direct) == {"seconds", "designs_per_second", "mean_steps", "outcomes"}
        assert sum(direct["outcomes"].values()) == 3
        assert "direct: 3 designs" in captured.err

    def test_both_matchers_agree(self, demo_path, capsys):
        rc = main([
            "bench", demo_path, "--n-half", "1", "--count", "2", "--matcher", "both",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["identical_designs"] is True
        assert set(summary["results"]) == {"direct", "contract"}


class TestGridBound:
    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_n_half_over_max_is_usage_error(self, command, demo_path, tmp_path, capsys):
        argv = [command, demo_path, "--n-half", str(MAX_N_HALF + 1)]
        if command == "generate":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"must be <= {MAX_N_HALF}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, name", [("replay", "log_2.json"), ("validate", "design_2.json")]
    )
    def test_file_n_half_over_max_is_parse_error(
        self, command, name, demo_path, run_n1, tmp_path, capsys
    ):
        obj = json.loads((run_n1 / name).read_text())
        obj["grid_config"]["n_half"] = MAX_N_HALF + 1
        doctored = tmp_path / name
        doctored.write_text(json.dumps(obj))
        argv = ["replay", str(doctored), demo_path] if command == "replay" else [
            "validate", str(doctored),
        ]
        assert main(argv) == 3
        assert "n_half must be in" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self, demo_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gridgram", "lint", demo_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
