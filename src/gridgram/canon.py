"""Canonical JSON serialization and hashing, and one text encoder per artifact.

Every hashed artifact (grammars, designs, derivation logs) is serialized the
same way: sorted keys, no whitespace, ASCII. Floats are rejected outright so
hashes can never depend on float formatting.

``canonical_json`` walks every value it is given for floats. It still does
so for a log header (``encode_log``), a design's grid config, and the CLI's
JSON output (result lines, validation reports, lint findings). Where the
constructors already refuse floats the walk is skipped and ``compact_json``
writes the same bytes: ``serialize_grammar`` and so ``Grammar.fingerprint``
(``Grammar`` and ``Rule`` admit only string names and integer weights), and
the comparison in ``Design.parse``, where the document read from disk is
dumped and compared with the design's own encoding, so that a float there
shows up as a difference. Designs and logs have one encoder each,
``encode_design`` and ``encode_log``; the log encoder writes the whole text
and computes log_hash itself unless handed a recorded one. They write the
bytes ``canonical_json`` would write for the artifact's plain-data form,
but from cached fragments: coordinates per point, labels per packed
pre-state key, JSON per rule name. Their cells, steps, nodes and edges are
integers and fixed labels because the constructors of ``GridConfig``,
``GenerationConfig`` and ``DerivationStep`` refuse anything else, so they
are not walked again.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from typing import Any

from gridgram.core import COMPONENTS, STORABLE, GridConfig, Point, Symbol

LOG_FORMAT = "gridgram-log-v1"
DESIGN_FORMAT = "gridgram-design-v1"
CELL_LETTERS = "FRWCEU"  # indexed by Symbol code

#: One log step; fill with (index, ``x,y,z``, pre-state JSON, rule JSON).
STEP_JSON = '{"index":%d,"point":[%s],"pre_state":%s,"rule":%s}'

_CELL_TABLE = bytes.maketrans(bytes(range(len(CELL_LETTERS))), CELL_LETTERS.encode())
_CODE_TABLE = bytes.maketrans(CELL_LETTERS.encode(), bytes(range(len(CELL_LETTERS))))
_COMPONENT_LABELS = {int(s): s.label for s in COMPONENTS}
_COUNT_ORDER = sorted(STORABLE, key=lambda s: s.label)
_COUNTS_JSON = "{" + ",".join(f'"{s.label}":%d' for s in _COUNT_ORDER) + "}"
_LABELS = [s.label for s in Symbol]


def _reject_floats(obj: Any, path: str = "$") -> None:
    if isinstance(obj, float):
        raise ValueError(f"float at {path} not allowed in canonical JSON")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_floats(v, f"{path}[{i}]")


def compact_json(obj: Any) -> str:
    """``canonical_json`` without the float check, for data that cannot hold floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, minimal separators, no floats."""
    _reject_floats(obj)
    return compact_json(obj)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_hash(obj: Any) -> str:
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


def state_json(key: int, memo: dict[int, str]) -> str:
    """The labels of the packed state ``key`` as a JSON list, memoized in ``memo``."""
    text = memo.get(key)
    if text is None:
        labels = '","'.join(_LABELS[(key >> (3 * d)) & 7] for d in range(7))
        text = memo[key] = f'["{labels}"]'
    return text


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
    fingerprint: str,
    grid_config: GridConfig,
    generation_config: dict,
    outcome: str,
    design_hash: str,
    steps: list[str],
    log_hash: str | None = None,
) -> str:
    """Canonical log text.

    ``steps`` holds each step's ``STEP_JSON`` text. ``log_hash`` is the
    SHA-256 of the log written without that field; it is computed when not
    given, and a given one (a parsed log's recorded value) is written as is.
    """
    head = canonical_json({
        "design_hash": design_hash,
        "format": LOG_FORMAT,
        "generation_config": generation_config,
        "grammar_fingerprint": fingerprint,
        "grid_config": grid_config_obj(grid_config),
        "outcome": outcome,
    })
    cut = head.rindex(',"outcome":')
    head, tail = head[:cut], f'{head[cut:-1]},"steps":[{",".join(steps)}]}}'
    if log_hash is None:
        log_hash = sha256_hex(head + tail)
    return f'{head},"log_hash":{json.dumps(log_hash)}{tail}'
