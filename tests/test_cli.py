"""Command-line behavior: exit codes, output shapes, and written artifacts.

Every test drives ``main(argv)`` directly; one test goes through
``python3 -m gridgram`` to prove the module entry point is wired up.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gridgram import cli, constraint_matcher, generator
from gridgram.cli import EXIT_INTERNAL, EXIT_PARSE, main
from gridgram.core import MAX_N_HALF
from gridgram.generator import Design, parse_log, serialize_log, verify_log
from gridgram.grammar import parse_grammar
from gridgram.rulesets import demo_profile_obj, demo_uav_text
import log_edits

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

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

    def test_contract_matcher_produces_same_design(self, demo_path, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CLI compiled the contract backend")

        monkeypatch.setattr(constraint_matcher, "contract_match_fn", refuse)
        base = ["generate", demo_path, "--n-half", "1", "--seed", "3", "--count", "2"]
        for workers in ("1", "2"):
            monkeypatch.setenv("GRIDGRAM_THREADS", workers)
            for matcher in ("direct", "contract"):
                out = str(tmp_path / workers / matcher)
                assert main(base + ["--matcher", matcher, "--out-dir", out]) == 0
            for name in ("design_3.json", "log_3.json", "design_4.json", "log_4.json"):
                assert (
                    (tmp_path / workers / "direct" / name).read_bytes()
                    == (tmp_path / workers / "contract" / name).read_bytes()
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

    def test_out_dir_that_is_a_file_is_usage_error_before_deriving(
        self, demo_path, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("derived before the output directory existed")

        monkeypatch.setattr(cli, "run_batch", refuse)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["generate", demo_path, "--n-half", "1", "--out-dir", str(taken)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot create output directory")

    def test_unwritable_design_file_is_usage_error(self, demo_path, tmp_path, capsys):
        (tmp_path / "design_7.json").mkdir()
        rc = main([
            "generate", demo_path, "--n-half", "1", "--seed", "7", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write design file")

    def test_failed_rename_leaves_no_file(self, demo_path, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "out"
        rc = main(["generate", demo_path, "--n-half", "1", "--seed", "7", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write design file")
        assert list(out.iterdir()) == []

    def test_interrupted_rename_leaves_no_file(self, demo_path, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["generate", demo_path, "--n-half", "1", "--seed", "7", "--out-dir", str(out)])
        assert list(out.iterdir()) == []

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

    def test_non_hex_fingerprint_is_parse_error(self, demo_path, run_n1, tmp_path, capsys):
        obj = json.loads((run_n1 / "log_2.json").read_text())
        obj["grammar_fingerprint"] = 5
        bad = tmp_path / "log.json"
        bad.write_text(json.dumps(obj))
        assert main(["replay", str(bad), demo_path]) == 3
        assert "64 lowercase hex digits" in capsys.readouterr().err

    def test_missing_log_is_usage_error(self, demo_path, tmp_path):
        assert main(["replay", str(tmp_path / "none.json"), demo_path]) == 2


class TestReplayVerdicts:
    """Each doctored seed-7 log exits 1 naming its kind and step, stdout empty."""

    @pytest.fixture(scope="class")
    def seed7(self):
        grammar = parse_grammar(demo_uav_text())
        return grammar, log_edits.seed7_log(grammar)

    @staticmethod
    def _replay(demo_path, tmp_path, text):
        path = tmp_path / "log.json"
        path.write_text(text + "\n")
        return main(["replay", str(path), demo_path])

    @pytest.mark.parametrize(
        "edit, verdict",
        [e[1:] for e in log_edits.EDITS],
        ids=[e[0] for e in log_edits.EDITS],
    )
    def test_each_edit_exits_1_with_its_kind_and_step(
        self, demo_path, seed7, tmp_path, capsys, edit, verdict
    ):
        grammar, log = seed7
        rc = self._replay(demo_path, tmp_path, edit(log, grammar))
        out, err = capsys.readouterr()
        kind, step = verdict
        at = f" at step {step}" if step is not None else ""
        assert (rc, out) == (1, "")
        assert f"replay failed: {kind}{at}: " in err

    @pytest.mark.parametrize(
        "render",
        [r for _, r in log_edits.NON_CANONICAL],
        ids=[name for name, _ in log_edits.NON_CANONICAL],
    )
    def test_non_canonical_text_exits_1(self, demo_path, seed7, tmp_path, capsys, render):
        text = render(serialize_log(seed7[1])).removesuffix("\n")
        rc = self._replay(demo_path, tmp_path, text)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert "replay failed: non-canonical: " in err

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda o: o["steps"][3].__setitem__("pre_state", ["Unoccupied"] * 6),
            lambda o: o.__setitem__("steps", {}),
            lambda o: o.__setitem__("steps", ""),
            lambda o: o["steps"][3].__setitem__("point", dict.fromkeys("xyz", 0)),
            lambda o: o["steps"][3].__setitem__(
                "pre_state", dict.fromkeys(log_edits.SEVEN_LABELS)
            ),
        ],
        ids=["short-pre-state", "steps-object", "steps-string", "point-object",
             "pre-state-object"],
    )
    def test_malformed_steps_exit_3(self, demo_path, seed7, tmp_path, capsys, doctor):
        obj = json.loads(serialize_log(seed7[1]))
        doctor(obj)
        rc = self._replay(demo_path, tmp_path, json.dumps(obj))
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert "malformed log" in err

    def test_verified_stdout_is_unchanged(self, demo_path, capsys):
        rc = main(["replay", str(GOLDEN / "demo_seed42_log.json"), demo_path])
        assert rc == 0
        assert capsys.readouterr().out == (
            '{"design_hash":"b8c41e54f097d8b3577649aee08d1e7b3b996275795d8493abc3e9fb99d11566",'
            '"outcome":"complete","steps":125,"verified":true}\n'
        )


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

    @pytest.mark.parametrize(
        "counts",
        [
            "[]", "0", "false", '""', "null", '{"Boundary": [0, null]}',
            '{"Rotor": [5, 2]}', '{"Rotor": [-3, null]}', '{"Rotor": [null, -1]}',
        ],
    )
    def test_bad_counts_are_parse_errors(self, run42, tmp_path, capsys, counts):
        profile = tmp_path / "counts.json"
        profile.write_text(f'{{"counts": {counts}}}')
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

    def test_unwritable_out_file_is_usage_error(self, demo_path, tmp_path, capsys):
        rc = main(["assign-dirs", demo_path, "--out", str(tmp_path / "no" / "a.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write output file")

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
        assert set(summary) == {
            "n_half", "count", "seed", "seconds", "designs_per_second", "mean_steps", "outcomes",
        }
        assert summary["n_half"] == 1 and summary["count"] == 3 and summary["seed"] == 9
        assert sum(summary["outcomes"].values()) == 3
        assert "3 designs in " in captured.err

    def test_runs_one_batch_and_has_no_matcher_option(self, demo_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("bench compiled the contract backend")

        batches = []
        run_batch = cli.run_batch
        monkeypatch.setattr(constraint_matcher, "contract_match_fn", refuse)
        monkeypatch.setattr(
            cli, "run_batch", lambda *a, **k: batches.append(1) or run_batch(*a, **k)
        )
        base = ["bench", demo_path, "--n-half", "1", "--count", "2"]
        assert main(base) == 0
        summary = json.loads(capsys.readouterr().out)
        assert batches == [1]
        assert sum(summary["outcomes"].values()) == 2
        for matcher in ("direct", "contract", "both"):
            assert main(base + ["--matcher", matcher]) == 2
            assert "unrecognized arguments: --matcher" in capsys.readouterr().err
        assert batches == [1]


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


class TestSeedRange:
    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_seed_range_past_64_bits_is_usage_error(self, command, demo_path, tmp_path, capsys):
        argv = [command, demo_path, "--seed", str((1 << 64) - 1), "--count", "2"]
        if command == "generate":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed range exceeds 64 bits\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_last_seed_of_64_bits_is_accepted(self, command, demo_path, tmp_path, capsys):
        argv = [command, demo_path, "--n-half", "0", "--seed", str((1 << 64) - 2)]
        argv += ["--count", "2"]
        if command == "generate":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 0


class TestNonUtf8Input:
    """An input file that is not UTF-8 is unparseable content: exit 3."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, demo_path, run42) -> dict[str, str]:
        bad = tmp_path_factory.mktemp("non_utf8") / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        return {
            "bad": str(bad),
            "grammar": demo_path,
            "log": str(run42 / "log_42.json"),
            "design": str(run42 / "design_42.json"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["generate", "bad", "--out-dir", "{tmp}"], id="generate-grammar"),
            pytest.param(["replay", "bad", "grammar"], id="replay-log"),
            pytest.param(["replay", "log", "bad"], id="replay-grammar"),
            pytest.param(["validate", "bad"], id="validate-design"),
            pytest.param(["validate", "design", "--profile", "bad"], id="validate-profile"),
            pytest.param(["lint", "bad"], id="lint-grammar"),
            pytest.param(["assign-dirs", "bad"], id="assign-dirs-grammar"),
            pytest.param(["export", "bad"], id="export-design"),
            pytest.param(["bench", "bad", "--count", "1"], id="bench-grammar"),
        ],
    )
    def test_is_a_parse_error(self, argv, files, tmp_path, capsys):
        rc = main([files.get(a, a).replace("{tmp}", str(tmp_path)) for a in argv])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and "not UTF-8" in captured.err

    def test_grammar_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        grammar = json.loads(demo_uav_text())
        grammar["name"] = "dr\u00f6hne"
        path = tmp_path / "grammar.json"
        path.write_text(json.dumps(grammar, ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "gridgram", "lint", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_parser_is_built_once_and_answers_alike(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        answers = []
        for _ in range(2):
            rcs = (main(["generate", "--help"]), main(["bench", "--matcher", "x"]))
            answers.append((rcs, capsys.readouterr()))
        assert answers[0] == answers[1]
        assert answers[0][0] == (0, 2)

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_readme_command_lines_parse(self):
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [
            line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gridgram ")
        ]
        assert len(commands) == 7  # one per subcommand
        for command in commands:
            try:
                cli._build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")

    def test_module_entry_point(self, demo_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gridgram", "lint", demo_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
