"""Command-line behavior: exit codes, output shapes, and written artifacts.

Tests drive ``main(argv)`` directly, apart from the few that need a fresh
``python3 -m gridgram`` process. Replay verdicts come from ``log_edits.EDITS``,
parse errors (exit 3) from ``PARSE_ERRORS`` and usage errors (exit 2) from
``USAGE_ERRORS``: a new case is a row of one of the tables.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from gridgram import cli, constraint_matcher, generator
from gridgram.canon import sha256_hex
from gridgram.cli import EXIT_INTERNAL, EXIT_PARSE, EXIT_USAGE, main
from gridgram.core import MAX_N_HALF
from gridgram.generator import (
    Design,
    DesignFormatError,
    LogFormatError,
    ProfileFormatError,
    parse_log,
    serialize_log,
    validate_design,
    verify_log,
)
from gridgram.grammar import GrammarParseError, parse_grammar
from gridgram.rulesets import demo_profile_obj, demo_uav_text
import log_edits

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

# sha256 of `gridgram lint` on the demo grammar: 170 lines, no errors.
DEMO_LINT_SHA256 = "2b7d824f0fd67a0af3202fd07ab4d694000649d8872efe8220ecda8d76d4441a"

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
def profile_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("profile") / "demo_profile.json"
    p.write_text(json.dumps(demo_profile_obj()))
    return str(p)


@pytest.fixture(scope="module")
def seed7_log(demo):
    return log_edits.seed7_log(demo)


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
    def test_writes_design_and_log_and_reports(self, demo, demo_path, tmp_path, capsys):
        rc = main([
            "generate", demo_path, "--n-half", "1", "--seed", "5",
            "--count", "3", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "design_5.json", "design_6.json", "design_7.json",
            "log_5.json", "log_6.json", "log_7.json",
        ]
        reports = [json.loads(line) for line in captured.out.splitlines()]
        assert [report["seed"] for report in reports] == [5, 6, 7]
        for report in reports:
            design = Design.parse((tmp_path / f"design_{report['seed']}.json").read_text())
            log = parse_log((tmp_path / f"log_{report['seed']}.json").read_text())
            assert report["outcome"] == log.outcome == "complete"
            assert report["steps"] == len(log.steps)
            assert report["counts"] == {s.label: n for s, n in design.counts().items()}
            assert report["design_hash"] == design.hash == verify_log(log, demo).hash
        assert "generated 3 design(s)" in captured.err

    def test_seed42_files_match_goldens(self, run42):
        expected_design = (GOLDEN / "demo_seed42_design.json").read_text()
        expected_log = (GOLDEN / "demo_seed42_log.json").read_text()
        assert (run42 / "design_42.json").read_text() == expected_design
        assert (run42 / "log_42.json").read_text() == expected_log

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

    def test_lint_error_grammar_is_check_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad_edge.json"
        bad.write_text(EDGE_TO_EMPTY_GRAMMAR)
        rc = main(["generate", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "target, message",
        [
            ((Path, "read_text"), "error: cannot read grammar file"),
            ((os, "replace"), "error: cannot write design file"),
            ((Path, "mkdir"), "error: cannot create output directory"),
        ],
        ids=["read", "write", "mkdir"],
    )
    def test_an_oserror_without_strerror_is_reported_by_its_text(
        self, demo_path, tmp_path, monkeypatch, capsys, target, message
    ):
        def fail(*args, **kwargs):
            raise OSError("no errno here")

        monkeypatch.setattr(*target, fail)
        out = tmp_path / "out"
        rc = main(["generate", demo_path, "--n-half", "1", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message)
        assert captured.err.endswith(": no errno here\n")

    def test_unwritable_file_in_a_worker_slice_is_usage_error(
        self, demo_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        (tmp_path / "design_9.json").mkdir()  # seeds 7 and 8 are this process's slice
        rc = main([
            "generate", demo_path, "--n-half", "1", "--seed", "7", "--count", "3",
            "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write design file")
        assert "design_9.json" in captured.err
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_a_worker_dying_mid_slice_leaves_only_whole_files(
        self, demo_path, tmp_path, monkeypatch, capsys
    ):
        parent, write = os.getpid(), generator.write_text

        def die_before_a_worker_log(path, text, what):
            if os.getpid() != parent and path.name.startswith("log_"):
                os._exit(1)
            write(path, text, what)

        monkeypatch.setattr(generator, "write_text", die_before_a_worker_log)
        monkeypatch.setenv("GRIDGRAM_THREADS", "2")
        rc = main([
            "generate", demo_path, "--n-half", "1", "--count", "3", "--out-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INTERNAL, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "design_0.json", "design_1.json", "design_2.json", "log_0.json", "log_1.json",
        ]
        for path in tmp_path.glob("design_*.json"):
            Design.parse(path.read_text())
        for path in tmp_path.glob("log_*.json"):
            assert main(["replay", str(path), demo_path]) == 0

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
    def test_wrong_grammar_fails(self, run_n1, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(NO_RULES_GRAMMAR)
        rc = main(["replay", str(run_n1 / "log_2.json"), str(other)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err.startswith("replay failed: fingerprint: ")


class TestReplayVerdicts:
    """Each doctored seed-7 log exits 1 naming its kind and step, stdout empty."""

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
        self, demo, demo_path, seed7_log, tmp_path, capsys, edit, verdict
    ):
        rc = self._replay(demo_path, tmp_path, edit(seed7_log, demo))
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
    def test_non_canonical_text_exits_1(self, demo_path, seed7_log, tmp_path, capsys, render):
        text = render(serialize_log(seed7_log)).removesuffix("\n")
        rc = self._replay(demo_path, tmp_path, text)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert "replay failed: non-canonical: " in err

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
        assert [(c["check"], c["detail"]) for c in failed] == [
            ("count:Rotor", "found 11, need [50, unbounded]")
        ]


class TestLint:
    def test_demo_grammar_is_clean(self, demo_path, capsys):
        rc = main(["lint", demo_path])
        assert rc == 0
        assert sha256_hex(capsys.readouterr().out) == DEMO_LINT_SHA256

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


class TestAssignDirs:
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

    def test_json_format_round_trips(self, run_n1, capsys):
        design_file = run_n1 / "design_2.json"
        rc = main(["export", str(design_file), "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == design_file.read_text()


class TestBench:
    def test_summary_shape(self, demo_path, capsys):
        started = time.perf_counter()
        rc = main(["bench", demo_path, "--n-half", "1", "--count", "3", "--seed", "9"])
        wall = time.perf_counter() - started
        captured = capsys.readouterr()
        assert rc == 0
        summary = json.loads(captured.out)
        assert set(summary) == {
            "n_half", "count", "seed", "seconds", "designs_per_second", "mean_steps", "outcomes",
        }
        assert summary["n_half"] == 1 and summary["count"] == 3 and summary["seed"] == 9
        assert sum(summary["outcomes"].values()) == 3
        assert 0 <= summary["seconds"] <= wall + 0.001
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


class TestNonUtf8Input:
    """Input files are read as UTF-8; one that is not is a row of ``PARSE_ERRORS``."""

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


def _doctored(name, change):
    """The JSON file ``name`` of ``inputs``, as text, after ``change(obj)``."""

    def text(inputs):
        obj = json.loads(Path(inputs[name]).read_text())
        change(obj)
        return json.dumps(obj)

    return text


def _n_half_over_max(obj):
    obj["grid_config"]["n_half"] = MAX_N_HALF + 1


def _to_float(values, i):
    values[i] = float(values[i])


REPLAY = ["replay", "input", "grammar"]
VALIDATE = ["validate", "input"]
PROFILE = ["validate", "design", "--profile", "input"]

# (id, argv, content, stderr fragment) per unparseable input. The content
# (text, bytes, or a function of ``inputs``) is written to the file "input";
# the other argv words that are keys of ``inputs`` name those files. The
# log and design rows are the format refusals of ``parse_log`` and
# ``Design.parse``: ``replay`` and ``validate`` read through the same code.
PARSE_ERRORS = [
    ("grammar-not-json", ["generate", "input", "--out-dir", "out"], "{not json",
     "error: syntax at $"),
    ("grammar-unknown-symbol", ["lint", "input"],
     EDGE_TO_EMPTY_GRAMMAR.replace('"Rotor"', '"Thruster"'), "unknown-symbol"),
    # A weighted draw over more than 2**64 would never end; the parse refuses it.
    ("grammar-weight-over-cap",
     ["generate", "input", "--rule-strategy", "weighted", "--out-dir", "out"],
     demo_uav_text().replace('"seed_fuselage",', f'"seed_fuselage", "weight": {2**64 + 1},'),
     "$.rules[0].weight"),
    ("log-not-json", REPLAY, "not json {", "error: not valid JSON: "),
    ("log-wrong-format", REPLAY, '{"format": "something-else"}',
     "not a gridgram-log-v1 document"),
    *[
        (f"log-{name}", REPLAY, _doctored("n1-log", change), fragment)
        for name, change, fragment in [
            ("missing-key", lambda o: o.pop("outcome"), "unexpected or missing top-level keys"),
            ("extra-key", lambda o: o.update(comment="hi"), "unexpected or missing top-level keys"),
            ("unknown-outcome", lambda o: o.update(outcome="done"), "unknown outcome 'done'"),
            ("n-half-over-max", _n_half_over_max, "n_half must be in"),
            ("extra-grid-config-key", lambda o: o["grid_config"].update(spacing=1),
             "grid_config must have exactly the keys"),
            ("extra-generation-config-key", lambda o: o["generation_config"].update(note=None),
             "generation_config must have exactly the keys"),
            ("step-missing-key", lambda o: o["steps"][0].pop("rule"),
             "unexpected or missing step keys"),
            ("step-not-object", lambda o: o["steps"].__setitem__(0, list(o["steps"][0].values())),
             "unexpected or missing step keys"),
            *[
                (name, change, "64 lowercase hex digits")
                for name, change in [
                    ("non-hex-fingerprint", lambda o: o.update(grammar_fingerprint=5)),
                    ("upper-case-fingerprint", lambda o: o.update(grammar_fingerprint="AB" * 32)),
                    ("short-design-hash", lambda o: o.update(design_hash="abc")),
                    ("non-hex-design-hash", lambda o: o.update(design_hash="g" * 64)),
                    ("upper-case-log-hash", lambda o: o.update(log_hash="0123456789ABCDEF" * 4)),
                ]
            ],
            # Values of the wrong type are refused, never coerced.
            *[
                (name, change, "malformed log")
                for name, change in [
                    ("float-coordinate", lambda o: _to_float(o["steps"][0]["point"], 0)),
                    ("str-coordinate", lambda o: o["steps"][0]["point"].__setitem__(0, "-1")),
                    ("bool-index", lambda o: o["steps"][1].update(index=True)),
                    ("float-index", lambda o: o["steps"][1].update(index=1.0)),
                    ("bool-seed", lambda o: o["generation_config"].update(seed=True)),
                    ("float-max-steps", lambda o: o["generation_config"].update(max_steps=50.0)),
                    ("float-n-half", lambda o: o["grid_config"].update(n_half=1.0)),
                    ("bool-n-half", lambda o: o["grid_config"].update(n_half=True)),
                    ("float-unit", lambda o: o["grid_config"].update(unit=1.5)),
                ]
            ],
        ]
    ],
    *[
        (f"log-{name}", REPLAY, _doctored("seed7-log", change), "malformed log")
        for name, change in [
            ("short-pre-state",
             lambda o: o["steps"][3].__setitem__("pre_state", ["Unoccupied"] * 6)),
            ("steps-object", lambda o: o.__setitem__("steps", {})),
            ("steps-string", lambda o: o.__setitem__("steps", "")),
            ("point-object",
             lambda o: o["steps"][3].__setitem__("point", dict.fromkeys("xyz", 0))),
            ("pre-state-object", lambda o: o["steps"][3].__setitem__(
                "pre_state", dict.fromkeys(log_edits.SEVEN_LABELS)
            )),
        ]
    ],
    ("design-not-json", VALIDATE, "[", "error: not valid JSON: "),
    ("design-wrong-format", VALIDATE, '{"format": "wrong"}',
     "not a gridgram-design-v1 document"),
    *[
        (f"design-{text}", VALIDATE, text, "error: not a gridgram-design-v1 document\n")
        for text in ("[]", "3")
    ],
    # The n1 design's cells are FCRCCECCCCCCWCCCCCRCCECCCCC: cells 14, 15, 16
    # and 19 are connectors, cell 4 a connector and cell 5 Empty.
    *[
        (f"design-{name}", VALIDATE, _doctored("n1-design", change), fragment)
        for name, change, fragment in [
            ("n-half-over-max", _n_half_over_max, "n_half must be in"),
            ("cells-list", lambda o: o.update(cells=list(o["cells"])),
             "cells must be a string of 27 symbol letters"),
            ("cells-short", lambda o: o.update(cells=o["cells"][:-1]),
             "cells must be a string of 27 symbol letters"),
            ("unknown-cell-letter", lambda o: o.update(cells="X" + o["cells"][1:]),
             "error: unknown cell letter 'X'\n"),
            ("tampered-counts", lambda o: o["counts"].update(Rotor=o["counts"]["Rotor"] + 1),
             "components or counts do not match the cell contents"),
            ("float-first-end", lambda o: _to_float(o["components"]["edges"][0][0], 0),
             "edge ends must be integer points"),
            ("float-second-end", lambda o: _to_float(o["components"]["edges"][-1][1], 2),
             "edge ends must be integer points"),
            ("float-unit", lambda o: o["grid_config"].update(unit=1.5), "malformed design"),
            *[
                (f"grid-config-{key}", lambda o, key=key: o["grid_config"].update({key: 1}),
                 "grid_config must have exactly the keys")
                for key in ("spacing", "note")
            ],
            *[
                (f"edge-{name}", lambda o, ends=ends: o["components"]["edges"].append(ends),
                 fragment)
                for name, ends, fragment in [
                    ("row-wrap", [[0, 0, 1], [0, 1, -1]], "joins non-adjacent points"),
                    ("plane-wrap", [[0, 1, 0], [1, -1, 0]], "joins non-adjacent points"),
                    # The index formula maps these ends onto cell 15, (0, 1, -1),
                    # and onto cell 31, past the last; both are refused first.
                    ("past-a-side", [[0, 0, 1], [0, 0, 2]], "leaves the grid"),
                    ("past-the-last-cell", [[0, 0, 1], [2, 0, 0]], "leaves the grid"),
                    ("short-end", [[0, 0], [0, 0, 1]], "edge ends must be integer points"),
                    ("long-end", [[0, 0, 1], [0, 0, 0, 0]], "edge ends must be integer points"),
                    ("to-empty", [[-1, 0, 0], [-1, 0, 1]], "edge endpoint (-1, 0, 1) holds Empty"),
                ]
            ],
        ]
    ],
    ("profile-unknown-key", PROFILE, '{"frobnicate": true}',
     "unknown profile key(s) ['frobnicate']"),
    *[
        (f"profile-{name}", PROFILE, text, fragment)
        for name, text, fragment in [
            ("non-boolean-flag", '{"require_complete": "no", "require_connected": 0}',
             "require_complete must be true or false"),
            ("int-flag", '{"require_connected": 1}', "require_connected must be true or false"),
            ("null-flag", '{"forbid_isolated": null}', "forbid_isolated must be true or false"),
            ("int-name", '{"name": 5}', "name must be a string"),
        ]
    ],
    ("profile-not-an-object", PROFILE, "[1, 2]", "profile must be a JSON object"),
    ("profile-not-json", PROFILE, "not json", "profile is not valid JSON"),
    *[
        (f"profile-counts-{counts}", PROFILE, f'{{"counts": {counts}}}', fragment)
        for counts, fragment in [
            ("[]", "counts must be an object"),
            ("0", "counts must be an object"),
            ("false", "counts must be an object"),
            ('""', "counts must be an object"),
            ("null", "counts must be an object"),
            ('[["Rotor", 1, 2]]', "counts must be an object"),
            ('{"Boundary": [0, null]}', "'Boundary': never stored at a grid point"),
            ('{"Engine": [1, 1]}', "bad counts entry 'Engine'"),
            ('{"Rotor": null}', "bad counts entry 'Rotor'"),
            ('{"Rotor": [1, 2, 3]}', "bad counts entry 'Rotor'"),
            ('{"Rotor": ["1", 2]}', "bad counts entry 'Rotor'"),
            ('{"Rotor": [1.5, null]}', "bad counts entry 'Rotor'"),
            ('{"Rotor": [5, 2]}', "'Rotor': min 5 exceeds max 2"),
            ('{"Rotor": [-3, null]}', "'Rotor': bounds must be >= 0"),
            ('{"Rotor": [null, -1]}', "'Rotor': bounds must be >= 0"),
            ('{"Rotor": [-2, -1]}', "'Rotor': bounds must be >= 0"),
        ]
    ],
    # JSON no reader takes in: nesting past the recursion limit, and an
    # integer past the digit limit of int conversion.
    *[
        (f"{name}-{cause}", argv, content, f"error: {prefix}{fragment}")
        for name, argv, prefix in [
            ("grammar", ["lint", "input"], "syntax at $: "),
            ("log", REPLAY, "not valid JSON: "),
            ("design", ["export", "input"], "not valid JSON: "),
            ("profile", PROFILE, "profile is not valid JSON: "),
        ]
        for cause, content, fragment in [
            ("nested-too-deep", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
            ("long-integer", "9" * 5000, "an integer has more than"),
        ]
    ],
    *[
        (f"non-utf8-{name}", argv, b'{"name": "\xff"}', "not UTF-8")
        for name, argv in [
            ("generate-grammar", ["generate", "input", "--out-dir", "out"]),
            ("replay-log", REPLAY),
            ("replay-grammar", ["replay", "log", "input"]),
            ("validate-design", VALIDATE),
            ("validate-profile", PROFILE),
            ("lint-grammar", ["lint", "input"]),
            ("assign-dirs-grammar", ["assign-dirs", "input"]),
            ("export-design", ["export", "input"]),
            ("bench-grammar", ["bench", "input", "--count", "1"]),
        ]
    ],
]

# The library reader of each row whose input is a grammar, log or design
# text or a profile object, and the error it raises; ``validate_design``
# reads the profile rows.
READERS = {
    "grammar": (parse_grammar, GrammarParseError),
    "log": (parse_log, LogFormatError),
    "design": (Design.parse, DesignFormatError),
}
LIBRARY_PARSE_ERRORS = [
    e for e in PARSE_ERRORS
    if e[0].split("-")[0] in READERS or e[0].startswith("profile-") and e[2].startswith("{")
]


class TestParseErrors:
    """Unparseable input content exits 3 with one ``error:`` line and no output."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, demo_path, seed7_log, run42, run_n1) -> dict[str, str]:
        seed7 = tmp_path_factory.mktemp("seed7") / "log_7.json"
        seed7.write_text(serialize_log(seed7_log))
        return {
            "grammar": demo_path,
            "log": str(run42 / "log_42.json"),
            "design": str(run42 / "design_42.json"),
            "n1-log": str(run_n1 / "log_2.json"),
            "n1-design": str(run_n1 / "design_2.json"),
            "seed7-log": str(seed7),
        }

    @pytest.mark.parametrize(
        "argv, content, fragment",
        [e[1:] for e in PARSE_ERRORS],
        ids=[e[0] for e in PARSE_ERRORS],
    )
    def test_exits_3(self, inputs, tmp_path, capsys, argv, content, fragment):
        path = tmp_path / "input.json"
        if callable(content):
            content = content(inputs)
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        files = {**inputs, "input": str(path), "out": str(tmp_path / "out")}
        rc = main([files.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        assert (rc, out) == (EXIT_PARSE, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert fragment in err

    @pytest.mark.parametrize(
        "kind, content, fragment",
        [(e[0].split("-")[0], *e[2:]) for e in LIBRARY_PARSE_ERRORS],
        ids=[e[0] for e in LIBRARY_PARSE_ERRORS],
    )
    def test_the_library_reader_raises_its_own_error(self, inputs, kind, content, fragment):
        """The reader behind the row raises its own class, whose text the row's line prints.

        Every one of these classes exits 3, so no ``test_exits_3`` row tells them apart.
        """
        if callable(content):
            content = content(inputs)
        if kind == "profile":
            design = Design.parse(Path(inputs["design"]).read_text())
            read, error = partial(validate_design, design), ProfileFormatError
            content = json.loads(content)
        else:
            read, error = READERS[kind]
        with pytest.raises(error) as e:
            read(content)
        assert type(e.value) is error and fragment in f"error: {e.value}\n"


# (id, argv, stderr fragment) per usage or file-access error. Argv words that
# are keys of ``paths`` name: "grammar" the demo grammar, "missing" a file
# that does not exist, "missing-dir/a.json" a file in a directory that does
# not exist, "file" a regular file, "blocked" a directory in which
# design_0.json is a directory, and "out" a directory no row may create. A
# fragment that starts with "error: " is the command's own one-line message;
# any other is the last line of argparse's usage message.
USAGE_ERRORS = [
    ("generate-missing-grammar", ["generate", "missing", "--out-dir", "out"],
     "error: cannot read grammar file"),
    ("replay-missing-log", ["replay", "missing", "grammar"], "error: cannot read log file"),
    ("lint-missing-grammar", ["lint", "missing"], "error: cannot read grammar file"),
    # The directory is made before anything is derived or written.
    ("out-dir-is-a-file", ["generate", "grammar", "--n-half", "1", "--out-dir", "file"],
     "error: cannot create output directory"),
    ("unwritable-design-file", ["generate", "grammar", "--n-half", "1", "--out-dir", "blocked"],
     "error: cannot write design file"),
    ("unwritable-assign-dirs-out", ["assign-dirs", "grammar", "--out", "missing-dir/a.json"],
     "error: cannot write output file"),
    ("export-unknown-format", ["export", "missing", "--format", "gif"],
     "argument --format: invalid choice: 'gif'"),
    *[
        (f"{command}-n-half-over-max",
         [command, "grammar", "--n-half", str(MAX_N_HALF + 1), *out],
         f"argument --n-half: must be <= {MAX_N_HALF}, got {MAX_N_HALF + 1}")
        for command, out in [("generate", ["--out-dir", "out"]), ("bench", [])]
    ],
    ("generate-zero-count", ["generate", "grammar", "--count", "0", "--out-dir", "out"],
     "argument --count: must be >= 1, got 0"),
    *[
        (f"{command}-seed-range-past-64-bits",
         [command, "grammar", "--seed", str((1 << 64) - 1), "--count", "2", *out],
         "error: seed range exceeds 64 bits\n")
        for command, out in [("generate", ["--out-dir", "out"]), ("bench", [])]
    ],
    ("no-subcommand", [], "the following arguments are required: command"),
    ("unknown-subcommand", ["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
]


class TestUsage:
    @pytest.mark.parametrize(
        "argv, fragment",
        [e[1:] for e in USAGE_ERRORS],
        ids=[e[0] for e in USAGE_ERRORS],
    )
    def test_exits_2(self, demo_path, tmp_path, capsys, argv, fragment):
        """Each usage error exits 2 with its message on stderr and nothing on stdout."""
        (tmp_path / "file").write_text("")
        (tmp_path / "blocked" / "design_0.json").mkdir(parents=True)
        paths = {
            "grammar": demo_path,
            "missing": str(tmp_path / "missing.json"),
            "missing-dir/a.json": str(tmp_path / "missing-dir" / "a.json"),
            "file": str(tmp_path / "file"),
            "blocked": str(tmp_path / "blocked"),
            "out": str(tmp_path / "out"),
        }
        rc = main([paths.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        assert (rc, out) == (EXIT_USAGE, "")
        if fragment.startswith("error: "):
            assert err.startswith(fragment) and len(err.splitlines()) == 1
        else:
            assert err.startswith("usage: gridgram") and fragment in err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    def test_n_half_max_is_accepted(self, demo_path):
        args = cli._build_parser().parse_args(["bench", demo_path, "--n-half", str(MAX_N_HALF)])
        assert args.n_half == MAX_N_HALF

    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_last_seed_of_64_bits_is_accepted(self, command, demo_path, tmp_path, capsys):
        argv = [command, demo_path, "--n-half", "0", "--seed", str((1 << 64) - 2)]
        argv += ["--count", "2"]
        if command == "generate":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 0

    def test_parser_is_built_once_and_answers_alike(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        answers = []
        for _ in range(2):
            rcs = (main(["generate", "--help"]), main(["bench", "--matcher", "x"]))
            answers.append((rcs, capsys.readouterr()))
        assert answers[0] == answers[1]
        assert answers[0][0] == (0, 2)

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


# Runs ``python -m gridgram`` with the given arguments, then writes the
# names in COLD_EXCLUDED that the run loaded to the file named by
# GRIDGRAM_MODULES_OUT, and exits with the command's exit code.
_COLD_PROBE = """
import os, runpy, sys
excluded = sys.argv[1].split(",")
sys.argv = ["gridgram", *sys.argv[2:]]
try:
    runpy.run_module("gridgram", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
with open(os.environ["GRIDGRAM_MODULES_OUT"], "w") as f:
    f.write(",".join(m for m in excluded if m in sys.modules))
raise SystemExit(code)
"""

#: Modules only ``assign-dirs`` or a multi-worker batch uses, and two that no
#: command loads: the records need neither ``dataclasses`` nor ``inspect``.
COLD_EXCLUDED = (
    "gridgram.constraint_matcher", "concurrent.futures", "multiprocessing", "logging",
    "dataclasses", "inspect",
)

DEMO_ASSIGNMENT_LINE = (
    '{"assignment":{"bottom":6,"ego":0,"front":2,"left":5,"rear":4,"right":1,'
    '"top":3},"bijections_scanned":5040,"contexts":387589,"rules":29,'
    '"total_intervals":2370349}\n'
)


class TestColdImports:
    def test_commands_load_only_what_they_run(self, demo_path, tmp_path):
        modules_out = tmp_path / "modules.txt"
        env = dict(os.environ, GRIDGRAM_MODULES_OUT=str(modules_out))

        def run(*argv):
            proc = subprocess.run(
                [sys.executable, "-c", _COLD_PROBE, ",".join(COLD_EXCLUDED), *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout, modules_out.read_text()

        for argv in (
            ["generate", demo_path, "--n-half", "2", "--count", "1", "--matcher", "contract",
             "--out-dir", str(tmp_path)],
            ["replay", str(tmp_path / "log_0.json"), demo_path],
            ["validate", str(tmp_path / "design_0.json")],
        ):
            _, loaded = run(*argv)
            assert loaded == "", f"{argv[0]} loaded {loaded}"

        # The demo's frozen assignment (``golden/demo_assignment.json``), also in --out.
        out, loaded = run("assign-dirs", demo_path, "--out", str(tmp_path / "assignment.json"))
        assert out == DEMO_ASSIGNMENT_LINE == (tmp_path / "assignment.json").read_text()
        assert "gridgram.constraint_matcher" in loaded.split(",")
        assert not {"dataclasses", "inspect"} & set(loaded.split(","))
