"""Edits of the seed-7 demo log (n_half 2) and the verdict each one must get.

Shared by the library and command-line verification tests. Every entry of
``EDITS`` is (id, edit, (kind, step)): ``edit(log, grammar)`` returns the
text of a doctored log, and (kind, step) is the ``ReplayError`` it raises.
The single-field edits are the ones the audit benchmark makes, applied to
step ``STEP`` and written as canonical JSON without recomputing log_hash;
the three step edits are applied to the last step ``LAST`` as well. The
forgeries recompute log_hash, so only re-deriving exposes them.
``NON_CANONICAL`` holds renderings of the genuine log that differ from its
canonical text only in layout.
"""

from __future__ import annotations

import json
from dataclasses import replace

from gridgram.core import GridConfig
from gridgram.generator import GenerationConfig, generate, serialize_log

import encode_oracle

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
    # The same edits at the last step, which the verifier reads off the run's
    # final cells with only that step's own cell reset.
    ("rule-last", _step_edit(_other_rule, LAST), ("no-match", LAST)),
    ("point-last", _step_edit(_moved_point, LAST), ("pre-state", LAST)),
    ("pre_state-last", _step_edit(_pre_state, LAST), ("pre-state", LAST)),
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
