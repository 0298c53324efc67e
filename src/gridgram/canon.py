"""Canonical JSON serialization and hashing, one text encoder per artifact, one JSON reader.

Every hashed artifact (grammars, designs, derivation logs) is serialized the
same way: sorted keys, no whitespace, ASCII. Floats are rejected outright so
hashes can never depend on float formatting.

``canonical_json`` walks every value it is given for floats. It still does
so for a log header (``encode_log``), a design's grid config, and the CLI's
JSON output (result lines, validation reports, lint findings). Where the
constructors already refuse floats the walk is skipped and ``compact_json``
writes the same bytes: ``serialize_grammar`` and so ``Grammar.fingerprint``
(``Grammar`` and ``Rule`` admit only string names and integer weights), and
the comparison in ``Design.parse``. There a text that is the design's own
encoding needs no dump; any other text's document is dumped and compared
with that encoding, so that a float there shows up as a difference.
Designs and logs have one encoder each, ``encode_design`` and
``encode_log``; the log encoder renders every step and computes log_hash
itself unless handed a recorded one. They write the bytes
``canonical_json`` would write for the artifact's plain-data form, but
from cached fragments: coordinates per point, labels per part of a packed
pre-state key (``state_labels``, two tables of fixed size), JSON per rule
name. Their cells, steps, nodes and edges are integers and fixed labels
because the constructors of ``GridConfig``, ``GenerationConfig`` and
``DerivationStep`` refuse anything else, so they are not walked again.
``"steps"`` sorts after every other log key, so a log's header is the
text before its first ``,"steps":[``, which is all a verifier reads of a
log it accepts.

Every JSON input (grammar, log, design, profile) is read by ``load_json``,
which turns any text it cannot read into the caller's format error.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable, Iterable
from functools import cache

from gridgram.core import COMPONENTS, STORABLE, GridConfig, Point, Symbol

LOG_FORMAT = "gridgram-log-v1"
DESIGN_FORMAT = "gridgram-design-v1"
CELL_LETTERS = "FRWCEU"  # indexed by Symbol code

#: One log step: index, ``x,y,z``, the two ``state_labels`` parts, rule JSON.
_STEP_JSON = '{"index":%d,"point":[%s],"pre_state":["%s","%s"],"rule":%s}'

_CELL_TABLE = bytes.maketrans(bytes(range(len(CELL_LETTERS))), CELL_LETTERS.encode())
_CODE_TABLE = bytes.maketrans(CELL_LETTERS.encode(), bytes(range(len(CELL_LETTERS))))
_COMPONENT_LABELS = {int(s): s.label for s in COMPONENTS}
_COUNT_ORDER = sorted(STORABLE, key=lambda s: s.label)
_COUNTS_JSON = "{" + ",".join(f'"{s.label}":%d' for s in _COUNT_ORDER) + "}"
_LABELS = [s.label for s in Symbol]


def _reject_floats(obj: object, path: str = "$") -> None:
    if isinstance(obj, float):
        raise ValueError(f"float at {path} not allowed in canonical JSON")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_floats(v, f"{path}[{i}]")


def compact_json(obj: object) -> str:
    """``canonical_json`` without the float check, for data that cannot hold floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, minimal separators, no floats."""
    _reject_floats(obj)
    return compact_json(obj)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_hash(obj: object) -> str:
    """sha256 hex digest of the canonical JSON serialization."""
    return sha256_hex(canonical_json(obj))


def grid_config_obj(cfg: GridConfig) -> dict:
    return {"n_half": cfg.n_half, "unit": cfg.unit}


def cells_text(cells: bytes | bytearray) -> str:
    """Symbol codes as one letter each."""
    return cells.translate(_CELL_TABLE).decode("ascii")


def cells_from_text(text: str) -> bytearray:
    """The symbol codes of ``cells_text``'s letters; ValueError names the first non-letter."""
    bad = set(text).difference(CELL_LETTERS)
    if bad:
        raise ValueError(f"unknown cell letter {next(c for c in text if c in bad)!r}")
    return bytearray(text.encode("ascii").translate(_CODE_TABLE))


def xyz(p: Point) -> str:
    return f"{p[0]},{p[1]},{p[2]}"


@cache
def point_coords(n_half: int) -> list[str]:
    """``x,y,z`` for every point of the grid, indexed like the grid's cells.

    Built on first use for each grid size (at most ``core.MAX_N_HALF`` + 1 of them).
    """
    return [xyz(p) for p in GridConfig(n_half).points()]


@cache
def state_labels() -> tuple[list[str], list[str]]:
    """The label fragments of packed pre-state keys, built on first use.

    A key's labels, joined with ``","``, are ``head[key & 511]`` (ego, front,
    rear) and then ``tail[key >> 9]`` (left, right, top, bottom): one list of
    512 and one of 4,096 entries, whatever the number of keys encoded.
    """
    one = _LABELS + ["?"]  # code 7 is no symbol's
    two = [f'{a}","{b}' for b in one for a in one]
    return [f'{a}","{b}' for b in two for a in one], [f'{a}","{b}' for b in two for a in two]


def encode_design(
    config: GridConfig, cells: bytes | bytearray, edges: list[tuple[int, int]]
) -> str:
    """Canonical design text.

    ``cells`` holds symbol codes in lexicographic point order, which is also
    the order of the component nodes; ``edges`` holds the sorted edges as
    ``(i, j)`` cell index pairs, ``i < j``.
    """
    coords = point_coords(config.n_half)
    labels = _COMPONENT_LABELS
    nodes = ",".join(
        f'[{coords[i]},"{labels[c]}"]' for i, c in enumerate(cells) if c in labels
    )
    edge_text = ",".join(f"[[{coords[a]}],[{coords[b]}]]" for a, b in edges)
    counts = _COUNTS_JSON % tuple(cells.count(s) for s in _COUNT_ORDER)
    return (
        f'{{"cells":"{cells_text(cells)}",'
        f'"components":{{"edges":[{edge_text}],"nodes":[{nodes}]}},'
        f'"counts":{counts},"format":"{DESIGN_FORMAT}",'
        f'"grid_config":{canonical_json(grid_config_obj(config))}}}'
    )


def encode_log(
    fingerprint: str, grid_config: GridConfig, generation_config: dict, outcome: str,
    design_hash: str, steps: Iterable[tuple], coords, rules, log_hash: str | None = None,
) -> str:
    """Canonical log text.

    ``steps`` yields ``(index, (point, rule, key))`` per step: the index
    written, the keys of its ``x,y,z`` text in ``coords`` and of its rule
    name's JSON in ``rules``, and its packed pre-state key, whose labels
    are ``low[key & 511]`` (ego, front, rear) and ``high[key >> 9]`` of
    ``state_labels()``. ``log_hash`` is the SHA-256 of the log written
    without that field; it is computed when not given, and a given one (a
    parsed log's recorded value) is written as is.
    """
    low, high = state_labels()
    steps_text = ",".join([
        _STEP_JSON % (i, coords[p], low[key & 511], high[key >> 9], rules[r])
        for i, (p, r, key) in steps
    ])
    head = canonical_json({
        "design_hash": design_hash,
        "format": LOG_FORMAT,
        "generation_config": generation_config,
        "grammar_fingerprint": fingerprint,
        "grid_config": grid_config_obj(grid_config),
        "outcome": outcome,
    })
    cut = head.rindex(',"outcome":')
    head, tail = head[:cut], f'{head[cut:-1]},"steps":[{steps_text}]}}'
    if log_hash is None:
        log_hash = sha256_hex(head + tail)
    return f'{head},"log_hash":{json.dumps(log_hash)}{tail}'


def load_json(text: str, error: Callable[[str, int | None, int | None], Exception]) -> object:
    """The value of the JSON ``text``; text it cannot read raises ``error(reason, line, col)``.

    Line and column are None for the two reasons with no position: nesting
    deeper than the parser's recursion limit, and an integer with more
    digits than ``sys.get_int_max_str_digits()``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(e.msg, e.lineno, e.colno) from None
    except RecursionError:
        raise error("nested too deeply", None, None) from None
    except ValueError:  # the one other refusal: an integer over the digit limit
        limit = sys.get_int_max_str_digits()
        raise error(f"an integer has more than {limit} digits", None, None) from None


def json_error(cls: type[Exception], what: str):
    """A ``load_json`` error: ``cls`` of ``what: reason``, and ``(line n)`` where known."""
    return lambda reason, line, _col: cls(f"{what}: {reason}" + (f" (line {line})" if line else ""))
