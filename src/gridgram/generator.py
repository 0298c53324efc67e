"""Derivation engine: seeded stochastic rewriting, logs, replay, validation.

A derivation starts from the all-Unoccupied grid and repeats: pick a frontier
point (a rewritable point with at least one matching rule), pick one of its
matching rules, apply the production. It ends when every point is terminal
(complete), when nothing matches (stuck), or at a step cap (step-limit).
``Engine.run`` is the one implementation of this loop.

Determinism contract: a derivation is a pure function of (grammar, grid
config, generation config). The RNG is SplitMix64 seeded with the config
seed; each step draws first the point (uniform-random-frontier only), then
the rule (uniform-random and weighted only).

- uniform-random-frontier takes index ``below(len(frontier))`` of the
  frontier in lexicographic point order;
- scanline takes the lexicographically first frontier point;
- nearest-to-origin takes the frontier point with the least
  x*x + y*y + z*z, ties to the lexicographically first.

Among the rules matching that point's state, in grammar order:

- uniform-random takes index ``below(count)``;
- weighted draws ``below(total weight)`` and takes the first rule whose
  cumulative weight exceeds the draw;
- first-match takes the first.

A finished derivation has one shape per use. Batches and verification
return a ``BatchItem``: the canonical texts plus the figures a report needs.
A ``Design`` is the ``core.Grid`` of the result with its encoder, and a
``DerivationLog`` is the parsed log, kept for the library calls
(``generate``, ``parse_log``, ``verify_log``) and for naming the first fault
of a log that fails.

Logs carry hashes of their own content and of the produced design.
Verification (``verify_log_text``) re-runs the engine on the log's recorded
configs, encodes that run exactly as ``run_batch`` does, and requires the
log's text to be the log it writes (one trailing newline allowed). Only a
log that fails is parsed into objects, so that the first fault can be
named; one with no fault but other bytes (whitespace, key order) is refused
as non-canonical. Naming the fault reads the run already made, so each
verification, accepted or rejected, derives once.

Designs and logs are written by the one encoder each in ``gridgram.canon``.
A design holds the engine's arrays as they are, so ``Design.serialize`` is
the one path to the design encoder. A log is encoded from ``run``'s raw
steps (``Engine.log_text``), where ``canon.encode_log`` computes log_hash,
or from the parsed object (``serialize_log``), which passes its recorded
log_hash. Batch workers encode where they derive and return text.

Every derivation in the package runs on ``shared_engine``: one engine per
process, kept for the last (grammar fingerprint, grid config) used, so
repeated derivations and verifications reuse its tables and warm memo.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right, insort
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import accumulate

from gridgram.canon import (
    DESIGN_FORMAT,
    LOG_FORMAT,
    STEP_JSON,
    cells_from_text,
    cells_text,
    compact_json,
    encode_design,
    encode_log,
    point_coords,
    sha256_hex,
    state_json,
    xyz,
)
from gridgram.core import (
    Direction,
    Grid,
    GridConfig,
    NEIGHBOR_DIRECTIONS,
    NONTERMINALS,
    STORABLE,
    Point,
    State,
    Symbol,
)
from gridgram.grammar import (
    Grammar,
    MatchTable,
    lint_grammar_errors,
)
from gridgram.rng import SplitMix64

POINT_STRATEGIES = ("uniform-random-frontier", "scanline", "nearest-to-origin")
RULE_STRATEGIES = ("uniform-random", "weighted", "first-match")
OUTCOMES = ("complete", "stuck", "step-limit")


class GeneratorError(Exception):
    """Base class for derivation-level failures."""


class LintFailedError(GeneratorError):
    """generate refused a grammar with error-level lint findings."""

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        lines = "; ".join(f"{d.code}({d.rule})" for d in diagnostics)
        super().__init__(f"grammar has lint errors: {lines}")


class ReplayError(GeneratorError):
    """Log verification failed.

    ``kind``: fingerprint, index, point, pre-state, rule-missing, no-match,
    divergence, design-hash, outcome, log-hash, or non-canonical. The
    per-step kinds describe the first step at which the log departs from what
    its configs derive: index through no-match name an illegal step, and
    divergence a legal step the seed would not take, or a log that stops
    early or runs on. non-canonical is a log text that passes every other
    check but is not the canonical rendering of its content. ``step`` is that
    step's index for the per-step kinds, else None.
    """

    def __init__(self, kind: str, step: int | None, message: str):
        self.kind = kind
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"{kind}{at}: {message}")


class LogFormatError(GeneratorError):
    """A log file is structurally malformed."""


class DesignFormatError(GeneratorError):
    """A design file is structurally malformed or internally inconsistent."""


class ProfileFormatError(GeneratorError):
    """A validation profile is malformed."""


@dataclass(frozen=True, slots=True)
class GenerationConfig:
    """One derivation's knobs: seed plus point/rule selection strategies."""

    seed: int
    point_strategy: str = "uniform-random-frontier"
    rule_strategy: str = "uniform-random"
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if type(self.seed) is not int:
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        if self.max_steps is not None and type(self.max_steps) is not int:
            raise TypeError(f"max_steps must be an integer or None, got {self.max_steps!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.point_strategy not in POINT_STRATEGIES:
            raise ValueError(f"unknown point strategy {self.point_strategy!r}")
        if self.rule_strategy not in RULE_STRATEGIES:
            raise ValueError(f"unknown rule strategy {self.rule_strategy!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "point_strategy": self.point_strategy,
            "rule_strategy": self.rule_strategy,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_obj(cls, obj: object) -> GenerationConfig:
        return _from_fields(cls, obj, "generation_config")


@dataclass(frozen=True, slots=True)
class DerivationStep:
    """One rewrite: which point, which rule, and the state it matched."""

    index: int
    point: Point
    rule_name: str
    pre_state: State

    def __post_init__(self) -> None:
        if type(self.index) is not int:
            raise TypeError(f"step index must be an integer, got {self.index!r}")
        p = self.point
        if type(p) is not tuple or len(p) != 3 or not all(type(c) is int for c in p):
            raise TypeError(f"point must be a tuple of 3 integers, got {p!r}")
        if type(self.rule_name) is not str:
            raise TypeError(f"rule name must be a string, got {self.rule_name!r}")
        if self.pre_state.ego not in NONTERMINALS:
            raise ValueError("recorded pre-state must have a nonterminal ego")


@dataclass(frozen=True, slots=True)
class DerivationLog:
    """Replayable record of one derivation, with recorded content hashes."""

    grammar_fingerprint: str
    grid_config: GridConfig
    gen_config: GenerationConfig
    steps: tuple[DerivationStep, ...]
    outcome: str
    design_hash: str
    log_hash: str


def _exact(value: object, kind: type):
    """``value`` itself if its type is exactly ``kind``: no bool for int, no object for list."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _from_fields(cls, obj: object, what: str):
    """``cls(**obj)`` for an object whose keys are exactly ``cls``'s fields."""
    names = {f.name for f in fields(cls)}
    if not isinstance(obj, dict) or obj.keys() != names:
        raise ValueError(f"{what} must have exactly the keys {sorted(names)}")
    return cls(**obj)


class Design(Grid):
    """The grid a derivation finished (or abandoned) with, and its encoding.

    A ``core.Grid`` in every respect: it holds ``run``'s cells and index
    edges as they are, the component graph is ``component_points()`` and
    ``edges()``, and a design equals any grid with the same config, cells and
    edges. It adds only the canonical text (``serialize``, the one caller of
    ``canon.encode_design``), its hash and the checked parse back.
    """

    __slots__ = ()

    def cells_text(self) -> str:
        """All point symbols as one letter each, lexicographic point order."""
        return cells_text(self._cells)

    @property
    def hash(self) -> str:
        return sha256_hex(self.serialize())

    def serialize(self) -> str:
        return encode_design(self.config, self._cells, sorted(self._edges))

    @classmethod
    def parse(cls, text: str) -> Design:
        """Rebuild a design from its text, verifying internal consistency."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict) or obj.get("format") != DESIGN_FORMAT:
                raise DesignFormatError(f"not a {DESIGN_FORMAT} document")
            if obj.keys() != {"format", "grid_config", "cells", "components", "counts"}:
                raise DesignFormatError("unexpected or missing top-level keys")
            cfg = _from_fields(GridConfig, obj["grid_config"], "grid_config")
            cells_text = obj["cells"]
            if not isinstance(cells_text, str) or len(cells_text) != cfg.point_count:
                raise DesignFormatError(
                    f"cells must be a string of {cfg.point_count} symbol letters"
                )
            try:
                cells = cells_from_text(cells_text)
            except ValueError as e:
                raise DesignFormatError(str(e)) from None
            edges = set()
            for end_a, end_b in obj["components"]["edges"]:
                a, b = tuple(end_a), tuple(end_b)
                if len(a) != 3 or len(b) != 3 or set(map(type, a + b)) != {int}:
                    raise TypeError(f"edge ends must be integer points, got {[end_a, end_b]!r}")
                if not (cfg.contains(a) and cfg.contains(b)):
                    raise DesignFormatError(f"edge {a}-{b} leaves the grid")
                i, j = cfg.index_of(a), cfg.index_of(b)
                edges.add((i, j) if i <= j else (j, i))
            design = cls(cfg, cells, edges)
            problems = design.audit()
            if problems:
                raise DesignFormatError("; ".join(problems))
            # The encoder writes integers only, so a float, NaN or boolean
            # anywhere in ``obj`` makes the two texts differ.
            if compact_json(obj) != design.serialize():
                raise DesignFormatError(
                    "components or counts do not match the cell contents"
                )
            return design
        except DesignFormatError:
            raise
        except json.JSONDecodeError as e:
            raise DesignFormatError(f"not valid JSON: {e.msg} (line {e.lineno})") from None
        except (KeyError, TypeError, ValueError) as e:
            raise DesignFormatError(f"malformed design: {e}") from None


def serialize_log(log: DerivationLog) -> str:
    rules: dict[str, str] = {}
    states: dict[int, str] = {}
    steps = []
    for s in log.steps:
        rule = rules.get(s.rule_name)
        if rule is None:
            rule = rules[s.rule_name] = json.dumps(s.rule_name)
        state = state_json(s.pre_state.key, states)
        steps.append(STEP_JSON % (s.index, xyz(s.point), state, rule))
    return encode_log(
        log.grammar_fingerprint, log.grid_config, log.gen_config.to_obj(),
        log.outcome, log.design_hash, steps, log.log_hash,
    )


_LOG_KEYS = frozenset({
    "format", "grammar_fingerprint", "grid_config", "generation_config",
    "steps", "outcome", "design_hash", "log_hash",
})


def _load_log(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise LogFormatError(f"not valid JSON: {e.msg} (line {e.lineno})") from None


def _log_header(obj: object) -> tuple[str, GridConfig, GenerationConfig]:
    """The fingerprint and both configs of a loaded log; the steps are not read."""
    try:
        if not isinstance(obj, dict) or obj.get("format") != LOG_FORMAT:
            raise LogFormatError(f"not a {LOG_FORMAT} document")
        if obj.keys() != _LOG_KEYS:
            raise LogFormatError("unexpected or missing top-level keys")
        if obj["outcome"] not in OUTCOMES:
            raise LogFormatError(f"unknown outcome {obj['outcome']!r}")
        for h in (obj["grammar_fingerprint"], obj["design_hash"], obj["log_hash"]):
            if not (type(h) is str and len(h) == 64 and not h.strip("0123456789abcdef")):
                raise LogFormatError("the fingerprint and hashes must be 64 lowercase hex digits")
        return (
            obj["grammar_fingerprint"],
            _from_fields(GridConfig, obj["grid_config"], "grid_config"),
            GenerationConfig.from_obj(obj["generation_config"]),
        )
    except LogFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise LogFormatError(f"malformed log: {e}") from None


def _log_from_obj(obj: dict, header: tuple) -> DerivationLog:
    """The log of a loaded ``obj`` whose ``_log_header`` is ``header``."""
    fingerprint, grid_config, gen_config = header
    try:
        steps = []
        for s in _exact(obj["steps"], list):
            if not isinstance(s, dict) or s.keys() != {"index", "point", "rule", "pre_state"}:
                raise LogFormatError("unexpected or missing step keys")
            steps.append(
                DerivationStep(
                    index=s["index"],
                    point=tuple(_exact(s["point"], list)),
                    rule_name=s["rule"],
                    pre_state=State.from_labels(_exact(s["pre_state"], list)),
                )
            )
    except LogFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise LogFormatError(f"malformed log: {e}") from None
    return DerivationLog(
        grammar_fingerprint=fingerprint,
        grid_config=grid_config,
        gen_config=gen_config,
        steps=tuple(steps),
        outcome=obj["outcome"],
        design_hash=obj["design_hash"],
        log_hash=obj["log_hash"],
    )


def parse_log(text: str) -> DerivationLog:
    """Structural parse only; hash and replay verification is verify_log's job."""
    obj = _load_log(text)
    return _log_from_obj(obj, _log_header(obj))


class Engine:
    """Reusable derivation runner for one grammar and grid size.

    Matching is one compiled ``MatchTable``: a memo miss ANDs seven bit
    columns and reads off the matching rules. Per-state results stay
    memoized across runs, so batches over the same grammar amortize almost
    all matching work. With ``match_fn`` None the engine builds the table
    from the grammar's patterns; otherwise ``match_fn`` is a predicate that
    carries one as its ``table`` attribute (``contract_match_fn`` returns
    such a predicate), and the engine reads that table and never calls it.

    ``Engine(...)`` always builds a fresh engine with an empty memo. The
    package itself derives only on the engine ``shared_engine`` keeps, for
    either ``--matcher`` name, and never passes ``match_fn``. The parameter
    stays for callers that compile the contract backend themselves and time
    that compile apart from the engine build.
    """

    def __init__(self, grammar: Grammar, grid_config: GridConfig, match_fn=None):
        errs = lint_grammar_errors(grammar)
        if errs:
            raise LintFailedError(errs)
        self.grammar = grammar
        self.grid_config = grid_config
        side = grid_config.side
        count = grid_config.point_count
        table = MatchTable.from_grammar(grammar) if match_fn is None else match_fn.table
        # Packed state key -> ascending indices of the rules matching it.
        self._match_list = table.rules_matching
        self._weights = [r.weight for r in grammar.rules]
        # Matching-rule tuple -> running sums of its rules' weights.
        self._cum_weights: dict[tuple[int, ...], list[int]] = {}
        # Point i is (a, b, c) = (x, y, z) + n_half with
        # i = (a * side + b) * side + c, so its neighbor in each Direction
        # sits at i + offsets[d] when that coordinate stays in range.
        plane = side * side
        offsets = (0, plane, -plane, -side, side, 1, -1)
        # Per rule: the symbol code of its production and the offset of the
        # cell its edge joins, 0 for none. Engine refuses a grammar whose
        # edge may target a non-component (lint), so that cell is in the grid.
        self._prod = [
            (int(r.production.symbol), offsets[r.production.direction]) for r in grammar.rules
        ]
        self._rule_json = [json.dumps(r.name) for r in grammar.rules]
        self._state_text: dict[int, str] = {}  # pre-state JSON by key, filled by log_text

        # Per point: the initial all-Unoccupied key, and in ``_updates[i]``,
        # for each in-grid neighbor q in Direction order, (q, shift, clear
        # mask) of the entry of q's state that looks back at point i.
        U, B = int(Symbol.UNOCCUPIED), int(Symbol.BOUNDARY)
        last = side - 1
        dirs = [  # per neighbor direction: its shift, its offset, the look-back entry
            (3 * d, offsets[d], 3 * d.opposite, ~(7 << (3 * d.opposite)))
            for d in NEIGHBOR_DIRECTIONS
        ]
        self._base_keys = base = []
        self._updates = updates = []
        for a in range(side):
            for b in range(side):
                for c in range(side):
                    i = len(base)
                    inside = (a < last, a > 0, b > 0, b < last, c < last, c > 0)
                    key = U
                    update = []
                    for (shift, off, back, clear), ok in zip(dirs, inside):
                        if ok:
                            key |= U << shift
                            update.append((i + off, back, clear))
                        else:
                            key |= B << shift
                    base.append(key)
                    updates.append(tuple(update))
        self._memo: dict[int, tuple[int, ...]] = {}
        # nearest-to-origin visits points by (x*x + y*y + z*z, index) (the
        # sort is stable); rank inverts that order.
        dist2 = [x * x + y * y + z * z for (x, y, z) in grid_config.points()]
        self._near_order = sorted(range(count), key=dist2.__getitem__)
        self._near_rank = [0] * count
        for r, i in enumerate(self._near_order):
            self._near_rank[i] = r

    def run(self, gen_config: GenerationConfig):
        """One derivation; returns (cells, edges, raw steps, outcome).

        Raw steps are (point index, rule index, packed pre-state key). The
        frontier is kept as a sorted list of ranks in the point strategy's
        order, so every strategy takes its point by position. Only the keys
        of Unoccupied points are kept current, because a key is read only
        at an Unoccupied point. A production's edge joins the rewritten cell
        and the cell its ``_prod`` offset away, written smaller index first:
        the pair is ordered by the offset's sign.
        """
        memo, match_list = self._memo, self._match_list
        updates, prod = self._updates, self._prod
        weights, cum_weights = self._weights, self._cum_weights
        keys = list(self._base_keys)
        count = len(keys)
        U = int(Symbol.UNOCCUPIED)
        cells = bytearray([U]) * count
        edges: set[tuple[int, int]] = set()
        below = SplitMix64(gen_config.seed).below
        point_random = gen_config.point_strategy == "uniform-random-frontier"
        rule_random = gen_config.rule_strategy == "uniform-random"
        weighted = gen_config.rule_strategy == "weighted"
        # Each step rewrites one Unoccupied point, so no run has more steps.
        max_steps = count if gen_config.max_steps is None else gen_config.max_steps
        if gen_config.point_strategy == "nearest-to-origin":
            order, rank = self._near_order, self._near_rank
        else:
            order = rank = range(count)

        flist: list[int] = []
        fflag = bytearray(count)
        for r, i in enumerate(order):
            key = keys[i]
            lst = memo.get(key)
            if lst is None:
                lst = memo[key] = match_list(key)
            if lst:
                flist.append(r)
                fflag[i] = 1

        steps: list[tuple[int, int, int]] = []
        for _ in range(max_steps):
            if not flist:
                break
            pi = order[flist[below(len(flist)) if point_random else 0]]
            key = keys[pi]
            applicable = memo[key]
            if rule_random:
                ri = applicable[below(len(applicable))]
            elif weighted:
                cum = cum_weights.get(applicable)
                if cum is None:
                    cum = cum_weights[applicable] = list(
                        accumulate(weights[r] for r in applicable)
                    )
                ri = applicable[bisect_right(cum, below(cum[-1]))]
            else:
                ri = applicable[0]
            steps.append((pi, ri, key))

            s_code, off = prod[ri]
            cells[pi] = s_code
            del flist[bisect_left(flist, rank[pi])]
            if off:
                edges.add((pi, pi + off) if off > 0 else (pi + off, pi))

            for qi, shift, clear in updates[pi]:
                if cells[qi] == U:
                    kq = keys[qi] = (keys[qi] & clear) | (s_code << shift)
                    lst = memo.get(kq)
                    if lst is None:
                        lst = memo[kq] = match_list(kq)
                    if lst:
                        if not fflag[qi]:
                            insort(flist, rank[qi])
                            fflag[qi] = 1
                    elif fflag[qi]:
                        del flist[bisect_left(flist, rank[qi])]
                        fflag[qi] = 0

        if len(steps) == count:
            outcome = "complete"
        elif not flist:
            outcome = "stuck"
        else:
            outcome = "step-limit"
        return cells, edges, steps, outcome

    def to_design(self, cells: bytearray, edges: set[tuple[int, int]]) -> Design:
        """The design of one ``run`` result, holding its fresh arrays without a copy."""
        return Design(self.grid_config, cells, edges)

    def log_text(
        self,
        gen_config: GenerationConfig,
        raw_steps: list[tuple[int, int, int]],
        outcome: str,
        design_hash: str,
    ) -> str:
        """Canonical log text, log_hash included, straight from ``run``'s raw steps."""
        coords = point_coords(self.grid_config.n_half)
        rules, states = self._rule_json, self._state_text
        steps = [
            STEP_JSON % (i, coords[pi], states.get(key) or state_json(key, states), rules[ri])
            for i, (pi, ri, key) in enumerate(raw_steps)
        ]
        return encode_log(
            self.grammar.fingerprint, self.grid_config, gen_config.to_obj(),
            outcome, design_hash, steps,
        )

    def to_log(
        self,
        gen_config: GenerationConfig,
        raw_steps: list[tuple[int, int, int]],
        outcome: str,
        design: Design,
    ) -> DerivationLog:
        """The parse of the log text ``log_text`` writes for this run."""
        return parse_log(self.log_text(gen_config, raw_steps, outcome, design.hash))


# The one engine ``shared_engine`` keeps, under its (grammar fingerprint,
# grid config) key. One slot bounds what a process holds: an engine at
# ``core.MAX_N_HALF`` takes about 43 MB.
_shared: dict[tuple[str, GridConfig], Engine] = {}


def shared_engine(grammar: Grammar, grid_config: GridConfig) -> Engine:
    """The process's engine for ``grammar`` and ``grid_config``, built on first use.

    Every derivation in the package runs on it, so one process reparses,
    relints and rebuilds nothing while the key stays the same, and its memo
    stays warm. A new key drops the old engine before the new one is built;
    a build that fails keeps nothing. Output never depends on the slot:
    every memo, running-sum and pre-state text entry is a pure function of
    its key, and the key holds everything else the engine reads.
    """
    key = (grammar.fingerprint, grid_config)
    engine = _shared.get(key)
    if engine is None:
        _shared.clear()
        engine = _shared[key] = Engine(grammar, grid_config)
    return engine


def generate(
    grammar: Grammar, grid_config: GridConfig, gen_config: GenerationConfig
) -> tuple[Design, DerivationLog]:
    """Run one full derivation; the grammar must be lint-clean."""
    engine = shared_engine(grammar, grid_config)
    cells, edges, raw_steps, outcome = engine.run(gen_config)
    design = engine.to_design(cells, edges)
    return design, engine.to_log(gen_config, raw_steps, outcome, design)


def verify_log_text(text: str, grammar: Grammar) -> BatchItem:
    """Verify a log file's text; returns the ``BatchItem`` of its derivation.

    The log verifies only if ``text``, less at most one trailing newline, is
    exactly the canonical log its recorded configs derive: the fingerprint
    is checked, the engine re-runs the configs into the item ``run_batch``
    would make for them, and the item's log text is compared with ``text``
    as one string. That comparison covers the steps, the design hash, the
    outcome and the log hash together.

    A foreign fingerprint is refused, once the whole log has parsed, before
    any engine is built. Otherwise the log is parsed into objects only when
    the comparison fails, and the first fault is named by the ordered checks:
    the steps in order, then a log that stops early or runs on
    (``divergence`` where the shorter one ends), design hash, outcome, log
    hash. At the first step that differs from the run, its index, point,
    pre-state (read off the run's cells as they stood before that step) and
    rule are checked before it is called ``divergence``. The checks read
    only the run already made, so every log, accepted or rejected, is
    derived once. A log that passes all of them differs from the canonical
    text only in its rendering (whitespace, key order): ``non-canonical``.

    The engine is ``shared_engine``'s, so verifying many logs of one grammar
    and grid size builds one engine and keeps its memo warm.
    """
    return _verify(text, grammar)[1]


def _verify(text: str, grammar: Grammar) -> tuple[tuple, BatchItem]:
    """``verify_log_text``; also returns the ``run`` result it verified against."""
    obj = _load_log(text)
    header = _log_header(obj)
    fingerprint, grid_config, gen_config = header
    if fingerprint != grammar.fingerprint:
        _log_from_obj(obj, header)  # a malformed log is a format error first
        raise ReplayError("fingerprint", None, "log was produced by a different grammar")
    engine = shared_engine(grammar, grid_config)
    run = engine.run(gen_config)
    item = _batch_item(engine, gen_config, run, want_logs=True)
    if text.removesuffix("\n") == item.log_text:
        return run, item

    log = _log_from_obj(obj, header)
    cells, _, raw_steps, outcome = run
    pts, rules = grid_config.points(), grammar.rules
    for i, (s, (pi, ri, key)) in enumerate(zip(log.steps, raw_steps)):
        if s.index != i:
            raise ReplayError("index", i, f"recorded index is {s.index}")
        if s.point == pts[pi] and s.rule_name == rules[ri].name and s.pre_state.key == key:
            continue
        if not grid_config.contains(s.point):
            raise ReplayError("point", i, f"{s.point} is outside the grid")
        # Steps 0..i-1 are the run's own, and each step writes one Unoccupied
        # cell that no later step rewrites: resetting the cells of steps i..
        # leaves the grid step i met.
        before = bytearray(cells)
        for pj, _, _ in raw_steps[i:]:
            before[pj] = Symbol.UNOCCUPIED
        if Grid(grid_config, before, set()).state_of(s.point) != s.pre_state:
            raise ReplayError(
                "pre-state", i,
                f"recorded pre-state does not match the replayed grid at {s.point}",
            )
        try:
            rule = grammar.rule_named(s.rule_name)
        except KeyError:
            raise ReplayError("rule-missing", i, f"no rule named {s.rule_name!r}") from None
        if not rule.matches(s.pre_state):
            raise ReplayError("no-match", i, f"rule {rule.name} does not match the pre-state")
        raise ReplayError(
            "divergence", i, "legal step, but not the one the recorded configs derive"
        )
    if len(log.steps) < len(raw_steps):
        raise ReplayError("divergence", len(log.steps), "the log ends; its configs derive more")
    if len(log.steps) > len(raw_steps):
        raise ReplayError("divergence", len(raw_steps), "the log runs on; its configs stop here")
    if item.design_hash != log.design_hash:
        raise ReplayError(
            "design-hash", None, "replayed design does not hash to the recorded value"
        )
    if log.outcome != outcome:
        raise ReplayError(
            "outcome", None, f"recorded {log.outcome!r}, replay implies {outcome!r}"
        )
    # Everything but log_hash now equals the derived log, so the texts differ
    # exactly when the recorded log_hash is wrong.
    if serialize_log(log) != item.log_text:
        raise ReplayError("log-hash", None, "log content does not hash to log_hash")
    raise ReplayError(
        "non-canonical", None,
        "the log verifies, but its text is not the canonical rendering",
    )


def verify_log(log: DerivationLog, grammar: Grammar) -> Design:
    """Verify a log object as ``verify_log_text`` verifies its text; the run's design."""
    (cells, edges, _, _), _ = _verify(serialize_log(log), grammar)
    return Design(log.grid_config, cells, edges)


def replay(log: DerivationLog, grammar: Grammar) -> Design:
    """Re-derive a log's design; the log must verify (``verify_log``)."""
    return verify_log(log, grammar)


@dataclass(frozen=True, slots=True)
class CheckResult:
    check: str
    passed: bool
    detail: str

    def to_obj(self) -> dict:
        return {"check": self.check, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_obj(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_obj() for c in self.checks]}


_PROFILE_KEYS = {"name", "require_complete", "require_connected", "forbid_isolated", "counts"}


def validate_design(design: Design, profile: dict) -> ValidationReport:
    """Evaluate a validation profile; absent profile keys mean 'don't check'."""
    unknown = profile.keys() - _PROFILE_KEYS
    if unknown:
        raise ProfileFormatError(f"unknown profile key(s) {sorted(unknown)}")
    for key in ("require_complete", "require_connected", "forbid_isolated"):
        if key in profile and type(profile[key]) is not bool:
            raise ProfileFormatError(f"{key} must be true or false, got {profile[key]!r}")
    if "name" in profile and type(profile["name"]) is not str:
        raise ProfileFormatError(f"name must be a string, got {profile['name']!r}")
    checks: list[CheckResult] = []
    counts = design.counts()
    if profile.get("require_connected") or profile.get("forbid_isolated"):
        nodes = [p for p, _ in design.component_points()]
        edges = design.edges()

    if profile.get("require_complete"):
        left = counts[Symbol.UNOCCUPIED]
        checks.append(
            CheckResult("complete", left == 0, f"{left} nonterminal point(s) remain")
        )
    if profile.get("require_connected"):
        reached = _connected_component(nodes, edges)
        ok = len(reached) == len(nodes)
        checks.append(
            CheckResult(
                "connected", ok,
                f"{len(reached)} of {len(nodes)} component point(s) in one component",
            )
        )
    if profile.get("forbid_isolated"):
        degree = {p: 0 for p in nodes}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        isolated = [p for p, d in degree.items() if d == 0] if len(nodes) > 1 else []
        checks.append(
            CheckResult(
                "no-isolated", not isolated, f"{len(isolated)} isolated component point(s)"
            )
        )
    count_bounds = profile.get("counts", {})
    if not isinstance(count_bounds, dict):
        raise ProfileFormatError(f"counts must be an object, got {count_bounds!r}")
    for label, bounds in count_bounds.items():
        try:
            sym = Symbol.from_label(label)
            lo, hi = (None if b is None else _exact(b, int) for b in bounds)
        except (KeyError, TypeError, ValueError) as e:
            raise ProfileFormatError(f"bad counts entry {label!r}: {e}") from None
        if sym not in STORABLE:
            raise ProfileFormatError(
                f"bad counts entry {label!r}: never stored at a grid point"
            )
        if any(b is not None and b < 0 for b in (lo, hi)):
            raise ProfileFormatError(f"bad counts entry {label!r}: bounds must be >= 0")
        if lo is not None and hi is not None and lo > hi:
            raise ProfileFormatError(f"bad counts entry {label!r}: min {lo} exceeds max {hi}")
        have = counts[sym]
        ok = (lo is None or have >= lo) and (hi is None or have <= hi)
        checks.append(
            CheckResult(
                f"count:{label}", ok,
                f"found {have}, need [{lo if lo is not None else 0}, "
                f"{hi if hi is not None else 'unbounded'}]",
            )
        )
    return ValidationReport(tuple(checks))


def _connected_component(nodes: list[Point], edges: list[tuple[Point, Point]]) -> set[Point]:
    if not nodes:
        return set()
    adj: dict[Point, list[Point]] = {p: [] for p in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for q in adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


#: Most worker processes a batch uses, whatever is requested.
MAX_WORKERS = 32


def resolve_workers() -> int:
    """Worker count in [1, MAX_WORKERS]: GRIDGRAM_THREADS, else CPU count."""
    try:
        requested = int(os.environ.get("GRIDGRAM_THREADS", ""))
    except ValueError:
        requested = os.cpu_count() or 1
    return max(1, min(requested, MAX_WORKERS))


@dataclass(frozen=True, slots=True)
class BatchItem:
    """One derivation of a batch, encoded where it ran.

    ``design_text`` and ``log_text`` are the canonical file contents without
    the trailing newline (``Design.parse(design_text)`` rebuilds the design);
    ``log_text`` is None when logs were not asked for.
    ``counts`` maps each storable symbol's label to its count.
    """

    seed: int
    design_text: str
    design_hash: str
    log_text: str | None
    counts: dict[str, int]
    step_count: int
    outcome: str


def _batch_item(engine: Engine, cfg: GenerationConfig, run: tuple, want_logs: bool) -> BatchItem:
    """Encode ``run``, the result of ``engine.run(cfg)``, as a batch item."""
    cells, edges, raw_steps, outcome = run
    design = engine.to_design(cells, edges)
    design_text = design.serialize()
    design_hash = sha256_hex(design_text)
    log_text = engine.log_text(cfg, raw_steps, outcome, design_hash) if want_logs else None
    return BatchItem(
        seed=cfg.seed,
        design_text=design_text,
        design_hash=design_hash,
        log_text=log_text,
        counts={s.label: n for s, n in design.counts().items()},
        step_count=len(raw_steps),
        outcome=outcome,
    )


def _derive(
    grammar: Grammar, grid_config: GridConfig, configs: list[GenerationConfig], want_logs: bool
) -> list[BatchItem]:
    """The batch items of ``configs``, derived on this process's ``shared_engine``."""
    engine = shared_engine(grammar, grid_config)
    return [_batch_item(engine, cfg, engine.run(cfg), want_logs) for cfg in configs]


def _batch_worker(args) -> list[BatchItem]:
    return _derive(*args)


def run_batch(
    grammar: Grammar,
    grid_config: GridConfig,
    configs: list[GenerationConfig],
    want_logs: bool = True,
) -> list[BatchItem]:
    """Independent derivations, results in input order.

    ``resolve_workers()`` sets how many processes derive. With more than
    one, each takes one contiguous slice of ``configs`` of at most
    ``ceil(len(configs) / workers)`` configs; the slices come back in input
    order. Each derivation is a pure function of its config, so scheduling
    cannot change results.

    Every process derives on its ``shared_engine``: the inline path on this
    process's, and each worker on the one it forked with when the key
    matches, else on one it builds.
    """
    nworkers = min(resolve_workers(), len(configs)) if configs else 1
    if nworkers <= 1:
        return _derive(grammar, grid_config, configs, want_logs)

    # Hash the grammar here, once: the pickled copies carry the fingerprint
    # that keys each worker's engine.
    grammar.fingerprint
    size = -(-len(configs) // nworkers)
    jobs = [
        (grammar, grid_config, configs[i:i + size], want_logs)
        for i in range(0, len(configs), size)
    ]
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return [item for part in pool.map(_batch_worker, jobs) for item in part]
