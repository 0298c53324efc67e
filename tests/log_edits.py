"""Edits of the seed-7 demo log (n_half 2) and the verdict each one must get.

This is the one table of replay verdicts. Every entry of ``EDITS`` is
(id, edit, (kind, step)): ``edit(log, grammar)`` returns the text of a
doctored log, and (kind, step) is the ``ReplayError`` it raises. Three tests
run every row: the library's text and object paths
(``test_generator.py::TestLogTextVerification``), a cold and a warm shared
engine (``TestSharedEngine``), and ``gridgram replay``
(``test_cli.py::TestReplayVerdicts``). A new verdict is a new row.

The single-field edits are the ones the audit benchmark makes, applied to
step ``STEP`` and written as canonical JSON without recomputing log_hash;
the three step edits are applied to the first and the last step ``LAST`` as
well. Further step edits shift an index, put a point outside the grid and
name a rule the grammar lacks. The forgeries recompute log_hash, so only
re-deriving exposes them. ``NON_CANONICAL`` holds renderings of the genuine
log that differ from its canonical text only in layout.

``MISREAD_HEADERS`` holds texts whose header, read only up to the first
``,"steps":[``, is not the header the whole text records: a header key
written again after ``"steps"`` (JSON keeps the last), and a ``"steps"``
key nested in a config. Each must get the verdict of the whole text.
"""

from __future__ import annotations

import json

from gridgram.core import GridConfig
from gridgram.generator import GenerationConfig, generate, serialize_log

import encode_oracle
from records import replace

STEP = 5
LAST = 124  # the seed-7 log has 125 steps
# Seven distinct labels with a nonterminal ego: a pre-state a reader that
# iterates an object's keys would accept.
SEVEN_LABELS = ["Unoccupied", "Fuselage", "Rotor", "Wing", "Connector", "Empty", "Boundary"]


def seed7_log(grammar):
    return generate(grammar, GridConfig(2), GenerationConfig(seed=7))[1]


def _dumped(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _field_edit(change):
    """An edit of the loaded log, written back as canonical JSON."""

    def edit(log, grammar):
        obj = json.loads(serialize_log(log))
        change(obj, grammar)
        return _dumped(obj)

    return edit


def _forgery(forge):
    """An edit of the log object, with log_hash recomputed."""

    def edit(log, grammar):
        forged = forge(log, grammar)
        return serialize_log(replace(forged, log_hash=encode_oracle.log_hash(forged)))

    return edit


def _step_edit(change, i):
    """``change(step, grammar)`` applied to step ``i`` of the loaded log."""
    return _field_edit(lambda obj, grammar: change(obj["steps"][i], grammar))


def _other_rule(step, grammar):
    step["rule"] = next(r.name for r in grammar.rules if r.name != step["rule"])


def _moved_point(step, _grammar):
    point = step["point"]
    point[0] += 1 if point[0] < 0 else -1


def _pre_state(step, _grammar):
    state = step["pre_state"]
    state[1] = "Empty" if state[1] != "Empty" else "Rotor"


def _shifted_index(step, _grammar):
    step["index"] += 2


def _outside_point(step, _grammar):
    step["point"] = [9, 9, 9]


def _missing_rule(step, _grammar):
    step["rule"] = "nonexistent_rule"


def _outcome(obj, _grammar):
    obj["outcome"] = "stuck" if obj["outcome"] != "stuck" else "complete"


def _seed(obj, _grammar):
    obj["generation_config"]["seed"] += 1


def _flip_first(key):
    def change(obj, _grammar):
        h = obj[key]
        obj[key] = ("0" if h[0] != "0" else "1") + h[1:]

    return change


def _truncated(obj, _grammar):
    obj["steps"].pop()


def _reconfigured(log, **changes):
    return replace(log, gen_config=replace(log.gen_config, **changes))


def _ran_on(log, _grammar):
    """The log with its last step repeated as one more step."""
    return replace(log, steps=log.steps + (replace(log.steps[-1], index=len(log.steps)),))


EDITS = [
    ("rule", _step_edit(_other_rule, STEP), ("no-match", STEP)),
    ("point", _step_edit(_moved_point, STEP), ("pre-state", STEP)),
    ("pre_state", _step_edit(_pre_state, STEP), ("pre-state", STEP)),
    ("rule-first", _step_edit(_other_rule, 0), ("no-match", 0)),
    ("point-first", _step_edit(_moved_point, 0), ("pre-state", 0)),
    ("pre_state-first", _step_edit(_pre_state, 0), ("pre-state", 0)),
    # The same edits at the last step, which the verifier reads off the run's
    # final cells with only that step's own cell reset.
    ("rule-last", _step_edit(_other_rule, LAST), ("no-match", LAST)),
    ("point-last", _step_edit(_moved_point, LAST), ("pre-state", LAST)),
    ("pre_state-last", _step_edit(_pre_state, LAST), ("pre-state", LAST)),
    ("index", _step_edit(_shifted_index, 3), ("index", 3)),
    ("point-outside", _step_edit(_outside_point, 2), ("point", 2)),
    ("rule-missing", _step_edit(_missing_rule, 1), ("rule-missing", 1)),
    ("outcome", _field_edit(_outcome), ("outcome", None)),
    ("seed", _field_edit(_seed), ("divergence", 1)),
    ("design_hash", _field_edit(_flip_first("design_hash")), ("design-hash", None)),
    ("log_hash", _field_edit(_flip_first("log_hash")), ("log-hash", None)),
    ("truncated", _field_edit(_truncated), ("divergence", 124)),
    ("runs-on", _forgery(_ran_on), ("divergence", 125)),
    ("forged-seed", _forgery(
        lambda log, g: _reconfigured(log, seed=log.gen_config.seed + 1)
    ), ("divergence", 1)),
    ("forged-point-strategy", _forgery(
        lambda log, g: _reconfigured(log, point_strategy="scanline")
    ), ("divergence", 2)),
    ("forged-max-steps", _forgery(
        lambda log, g: _reconfigured(log, max_steps=3)
    ), ("divergence", 3)),
    # The honest 10-step log, relabelled as an uncapped run.
    ("forged-truncated-step-limit", _forgery(
        lambda log, g: replace(
            generate(g, log.grid_config, replace(log.gen_config, max_steps=10))[1],
            gen_config=log.gen_config,
        )
    ), ("divergence", 10)),
]


def _reordered(obj):
    """Every object's keys in reverse order, compact separators."""
    if isinstance(obj, dict):
        return {k: _reordered(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reordered(v) for v in obj]
    return obj


NON_CANONICAL = [
    ("indent-1", lambda text: json.dumps(json.loads(text), indent=1, sort_keys=True)),
    ("keys-reordered", lambda text: json.dumps(
        _reordered(json.loads(text)), separators=(",", ":")
    )),
    ("two-trailing-newlines", lambda text: text + "\n\n"),
]



def _restated(change, *keys):
    """The genuine text, then ``keys`` written again after "steps" as ``change`` leaves them."""

    def edit(log, grammar):
        text = serialize_log(log)
        obj = json.loads(text)
        change(obj, grammar)
        return text[:-1] + "".join(f',"{k}":{_dumped(obj[k])}' for k in keys) + "}"

    return edit


def _foreign_first(edit):
    """``edit`` with the first fingerprint of its text, the header's, made foreign."""

    def foreign(log, grammar):
        fp = log.grammar_fingerprint
        return edit(log, grammar).replace(fp, ("0" if fp[0] != "0" else "1") + fp[1:], 1)

    return foreign


def _nested_steps(key):
    return _field_edit(lambda obj, _grammar: obj[key].update(steps=[]))


#: (id, edit, (kind, step)); kind "format" is a ``LogFormatError``.
MISREAD_HEADERS = [
    ("seed-restated", _restated(_seed, "generation_config"), ("divergence", 1)),
    ("outcome-restated", _restated(_outcome, "outcome"), ("outcome", None)),
    ("fingerprint-restated", _restated(
        _flip_first("grammar_fingerprint"), "grammar_fingerprint"
    ), ("fingerprint", None)),
    # The slice names another grammar; the whole text, this one.
    ("genuine-fingerprint-restated", _foreign_first(
        _restated(_seed, "grammar_fingerprint", "generation_config")
    ), ("divergence", 1)),
    ("steps-in-grid_config", _nested_steps("grid_config"), ("format", None)),
    ("steps-in-generation_config", _nested_steps("generation_config"), ("format", None)),
]
