"""Derivation engine: seeded stochastic rewriting, logs, replay, validation.

A derivation starts from the all-Unoccupied grid and repeats: pick a frontier
point (a rewritable point with at least one matching rule), pick one of its
matching rules, apply the production. It ends when every point is terminal
(complete), when nothing matches (stuck), or at a step cap (step-limit).
``Engine.run`` is the one implementation of this loop.

Determinism contract: a derivation is a pure function of (grammar, grid
config, generation config). The RNG is SplitMix64 seeded with the config
seed; each step draws first the frontier index (uniform-random-frontier
only), then the rule index (uniform-random and weighted only), with the
frontier kept in lexicographic point order. Logs carry hashes of their own
content and of the produced design. Verification re-runs the engine on the
log's recorded configs and requires exactly the recorded steps, then checks
the design, the outcome and both hashes.

Designs and logs are written by the one encoder each in ``gridgram.canon``,
fed from the engine's arrays (``Engine.design_text``, ``Engine.log_text``)
or from the objects (``Design.serialize``, ``serialize_log``). Batch workers
encode where they derive and return text.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, insort
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NoReturn

from gridgram.canon import (
    CELL_LETTERS,
    DESIGN_FORMAT,
    LOG_FORMAT,
    STEP_JSON,
    canonical_json,
    cells_text,
    encode_design,
    encode_log,
    grid_config_obj,
    point_coords,
    sha256_hex,
    state_json,
    with_log_hash,
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
    neighbor,
)
from gridgram.grammar import (
    Grammar,
    lint_errors,
    lint_grammar,
    parse_grammar,
    serialize_grammar,
)
from gridgram.rng import SplitMix64

POINT_STRATEGIES = ("uniform-random-frontier", "scanline", "nearest-to-origin")
RULE_STRATEGIES = ("uniform-random", "weighted", "first-match")
OUTCOMES = ("complete", "stuck", "step-limit")

_LETTER_TO_CODE = {c: i for i, c in enumerate(CELL_LETTERS)}
_STORABLE_ORDER = sorted(STORABLE)


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
    divergence, design-hash, outcome, or log-hash. The per-step kinds describe
    the first step at which the log departs from what its configs derive:
    index through no-match name an illegal step, and divergence a legal step
    the seed would not take, or a log that stops early or runs on. ``step`` is
    that step's index for the per-step kinds, else None.
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
    def from_obj(cls, obj: dict) -> GenerationConfig:
        return cls(
            seed=obj["seed"],
            point_strategy=obj["point_strategy"],
            rule_strategy=obj["rule_strategy"],
            max_steps=obj["max_steps"],
        )


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

    def to_obj(self) -> dict:
        return {
            "index": self.index,
            "point": list(self.point),
            "rule": self.rule_name,
            "pre_state": self.pre_state.labels(),
        }


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

    def core_obj(self) -> dict:
        """Plain data of everything except log_hash; log_hash hashes its canonical JSON."""
        return {
            "format": LOG_FORMAT,
            "grammar_fingerprint": self.grammar_fingerprint,
            "grid_config": grid_config_obj(self.grid_config),
            "generation_config": self.gen_config.to_obj(),
            "steps": [s.to_obj() for s in self.steps],
            "outcome": self.outcome,
            "design_hash": self.design_hash,
        }


def _int(value: object) -> int:
    """``value`` itself if it is an int; bool, float and str are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _grid_config_from_obj(obj: dict) -> GridConfig:
    return GridConfig(n_half=obj["n_half"], unit=obj["unit"])


def _log_parts_of(log: DerivationLog) -> tuple[str, str]:
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
        log.outcome, log.design_hash, steps,
    )


class Design:
    """A finished (or abandoned) grid together with its component graph view."""

    __slots__ = ("grid",)

    def __init__(self, grid: Grid):
        self.grid = grid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return self.grid == other.grid

    def component_nodes(self) -> list[tuple[Point, Symbol]]:
        return self.grid.component_points()

    def component_edges(self) -> list[tuple[Point, Point]]:
        return self.grid.edges()

    def counts(self) -> dict[Symbol, int]:
        return self.grid.counts()

    def cells_text(self) -> str:
        """All point symbols as one letter each, lexicographic point order."""
        return cells_text(self.grid.cell_codes())

    @property
    def hash(self) -> str:
        return sha256_hex(self.serialize())

    def serialize(self) -> str:
        edges = [(xyz(a), xyz(b)) for a, b in self.grid.edges()]
        return encode_design(self.grid.config, self.grid.cell_codes(), edges)

    @classmethod
    def from_obj(cls, obj: object) -> Design:
        """Rebuild from plain data, verifying internal consistency."""
        try:
            if not isinstance(obj, dict) or obj.get("format") != DESIGN_FORMAT:
                raise DesignFormatError(f"not a {DESIGN_FORMAT} document")
            if obj.keys() != {"format", "grid_config", "cells", "components", "counts"}:
                raise DesignFormatError("unexpected or missing top-level keys")
            cfg = _grid_config_from_obj(obj["grid_config"])
            cells_text = obj["cells"]
            if not isinstance(cells_text, str) or len(cells_text) != cfg.point_count:
                raise DesignFormatError(
                    f"cells must be a string of {cfg.point_count} symbol letters"
                )
            try:
                cells = bytearray(_LETTER_TO_CODE[c] for c in cells_text)
            except KeyError as e:
                raise DesignFormatError(f"unknown cell letter {e.args[0]!r}") from None
            edges = set()
            for pair in obj["components"]["edges"]:
                a, b = (tuple(_int(v) for v in end) for end in pair)
                edges.add((a, b) if a <= b else (b, a))
            grid = Grid(cfg, cells, edges)
            problems = grid.audit()
            if problems:
                raise DesignFormatError("; ".join(problems))
            design = cls(grid)
            if canonical_json(obj) != design.serialize():
                raise DesignFormatError(
                    "components or counts do not match the cell contents"
                )
            return design
        except DesignFormatError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise DesignFormatError(f"malformed design: {e}") from None

    @classmethod
    def parse(cls, text: str) -> Design:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise DesignFormatError(f"not valid JSON: {e.msg} (line {e.lineno})") from None
        return cls.from_obj(obj)


def serialize_log(log: DerivationLog) -> str:
    return with_log_hash(_log_parts_of(log), log.log_hash)


def parse_log(text: str) -> DerivationLog:
    """Structural parse only; hash and replay verification is verify_log's job."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LogFormatError(f"not valid JSON: {e.msg} (line {e.lineno})") from None
    try:
        if not isinstance(obj, dict) or obj.get("format") != LOG_FORMAT:
            raise LogFormatError(f"not a {LOG_FORMAT} document")
        expected = {
            "format", "grammar_fingerprint", "grid_config", "generation_config",
            "steps", "outcome", "design_hash", "log_hash",
        }
        if obj.keys() != expected:
            raise LogFormatError("unexpected or missing top-level keys")
        if obj["outcome"] not in OUTCOMES:
            raise LogFormatError(f"unknown outcome {obj['outcome']!r}")
        steps = []
        for s in obj["steps"]:
            if not isinstance(s, dict) or s.keys() != {"index", "point", "rule", "pre_state"}:
                raise LogFormatError("unexpected or missing step keys")
            steps.append(
                DerivationStep(
                    index=s["index"],
                    point=tuple(s["point"]),
                    rule_name=s["rule"],
                    pre_state=State.from_labels(s["pre_state"]),
                )
            )
        for h in (obj["design_hash"], obj["log_hash"]):
            if not (isinstance(h, str) and len(h) == 64):
                raise LogFormatError("hashes must be 64-char hex strings")
        return DerivationLog(
            grammar_fingerprint=obj["grammar_fingerprint"],
            grid_config=_grid_config_from_obj(obj["grid_config"]),
            gen_config=GenerationConfig.from_obj(obj["generation_config"]),
            steps=tuple(steps),
            outcome=obj["outcome"],
            design_hash=obj["design_hash"],
            log_hash=obj["log_hash"],
        )
    except LogFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise LogFormatError(f"malformed log: {e}") from None


class Engine:
    """Reusable derivation runner for one grammar and grid size.

    Keeps per-state match results memoized across runs, so batches over the
    same grammar amortize almost all matching work. ``match_fn`` swaps the
    matching backend: it takes (rule index, packed state key) and must agree
    with the direct matcher (the constraint backend is verified equivalent).
    """

    def __init__(self, grammar: Grammar, grid_config: GridConfig, match_fn=None):
        errs = lint_errors(lint_grammar(grammar))
        if errs:
            raise LintFailedError(errs)
        self.grammar = grammar
        self.grid_config = grid_config
        n, side = grid_config.n_half, grid_config.side
        count = grid_config.point_count
        self._points: list[Point] = list(grid_config.points())
        self._rules = grammar.rules
        self._rule_masks = [tuple(p.masks for p in r.omega) for r in grammar.rules]
        self._weights = [r.weight for r in grammar.rules]
        self._prod = [
            (r.production.symbol, r.production.direction) for r in grammar.rules
        ]
        self._rule_json = [json.dumps(r.name) for r in grammar.rules]
        self._state_text: dict[int, str] = {}  # pre-state JSON by key, filled by log_text
        self._match_fn = match_fn

        # Per point: packed neighbor indices, -1 where out of grid; the
        # initial all-Unoccupied key; squared distance to the origin.
        U = Symbol.UNOCCUPIED
        B = Symbol.BOUNDARY
        self._nbr = nbr = [[-1] * 7 for _ in range(count)]
        self._base_keys = base = [0] * count
        self._dist2 = [x * x + y * y + z * z for (x, y, z) in self._points]
        for i, p in enumerate(self._points):
            key = int(U)
            for d in NEIGHBOR_DIRECTIONS:
                q = neighbor(p, d)
                if grid_config.contains(q):
                    nbr[i][d] = ((q[0] + n) * side + (q[1] + n)) * side + (q[2] + n)
                    key |= U << (3 * d)
                else:
                    key |= B << (3 * d)
            base[i] = key
        # Rewriting point i changes, for each in-grid neighbor q, the entry
        # of q's state that looks back at i.
        self._updates = [
            tuple(
                (nbr[i][d], 3 * d.opposite, ~(7 << (3 * d.opposite)))
                for d in NEIGHBOR_DIRECTIONS
                if nbr[i][d] >= 0
            )
            for i in range(count)
        ]
        self._memo: dict[int, tuple[int, ...]] = {}

    @cached_property
    def _fingerprint(self) -> str:
        """The grammar's fingerprint, hashed on first use and once per engine."""
        return self.grammar.fingerprint

    def _match_list(self, key: int) -> tuple[int, ...]:
        if key & 7 != Symbol.UNOCCUPIED:
            return ()
        syms = tuple((key >> (3 * i)) & 7 for i in range(7))
        if self._match_fn is not None:
            found = tuple(
                ri for ri in range(len(self._rules)) if self._match_fn(ri, key)
            )
            return found
        out = []
        for ri, mask_sets in enumerate(self._rule_masks):
            for masks in mask_sets:
                if (
                    (masks[0] >> syms[0]) & 1 and (masks[1] >> syms[1]) & 1
                    and (masks[2] >> syms[2]) & 1 and (masks[3] >> syms[3]) & 1
                    and (masks[4] >> syms[4]) & 1 and (masks[5] >> syms[5]) & 1
                    and (masks[6] >> syms[6]) & 1
                ):
                    out.append(ri)
                    break
        return tuple(out)

    def run(self, gen_config: GenerationConfig):
        """One derivation; returns (cells, edges, raw steps, outcome).

        Raw steps are (point index, rule index, packed pre-state key).
        """
        memo = self._memo
        keys = list(self._base_keys)
        cells = bytearray([Symbol.UNOCCUPIED]) * len(keys)
        U_code = int(Symbol.UNOCCUPIED)
        edges: set[tuple[int, int]] = set()
        rng = SplitMix64(gen_config.seed)
        point_strategy = gen_config.point_strategy
        rule_strategy = gen_config.rule_strategy
        max_steps = gen_config.max_steps
        dist2 = self._dist2
        nonterminals = len(keys)

        flist: list[int] = []
        fflag = bytearray(len(keys))
        for i, key in enumerate(keys):
            lst = memo.get(key)
            if lst is None:
                lst = self._match_list(key)
                memo[key] = lst
            if lst:
                flist.append(i)
                fflag[i] = 1

        steps: list[tuple[int, int, int]] = []
        while flist and (max_steps is None or len(steps) < max_steps):
            if point_strategy == "uniform-random-frontier":
                pi = flist[rng.below(len(flist))]
            elif point_strategy == "scanline":
                pi = flist[0]
            else:
                pi = min(flist, key=lambda i: (dist2[i], i))

            key = keys[pi]
            applicable = memo[key]
            if rule_strategy == "uniform-random":
                ri = applicable[rng.below(len(applicable))]
            elif rule_strategy == "weighted":
                weights = self._weights
                ri = applicable[rng.choice_index([weights[r] for r in applicable])]
            else:
                ri = applicable[0]
            steps.append((pi, ri, key))

            sym, pdir = self._prod[ri]
            s_code = int(sym)
            cells[pi] = s_code
            keys[pi] = (key & ~7) | s_code
            nonterminals -= 1
            del flist[bisect_left(flist, pi)]
            fflag[pi] = 0

            if pdir is not Direction.EGO:
                qi = self._nbr[pi][pdir]
                edges.add((pi, qi) if pi < qi else (qi, pi))

            for qi, shift, clear in self._updates[pi]:
                kq = (keys[qi] & clear) | (s_code << shift)
                keys[qi] = kq
                if cells[qi] == U_code:
                    lst = memo.get(kq)
                    if lst is None:
                        lst = self._match_list(kq)
                        memo[kq] = lst
                    if lst:
                        if not fflag[qi]:
                            insort(flist, qi)
                            fflag[qi] = 1
                    elif fflag[qi]:
                        del flist[bisect_left(flist, qi)]
                        fflag[qi] = 0

        if nonterminals == 0:
            outcome = "complete"
        elif not flist:
            outcome = "stuck"
        else:
            outcome = "step-limit"
        return cells, edges, steps, outcome

    def to_design(self, cells: bytearray, edges: set[tuple[int, int]]) -> Design:
        pts = self._points
        point_edges = {
            tuple(sorted((pts[a], pts[b]))) for a, b in edges
        }
        return Design(Grid(self.grid_config, bytearray(cells), point_edges))

    def design_text(self, cells: bytearray, edges: set[tuple[int, int]]) -> str:
        """Canonical text of the design ``to_design(cells, edges)`` builds."""
        coords = point_coords(self.grid_config.n_half)
        pairs = [(coords[a], coords[b]) for a, b in sorted(edges)]
        return encode_design(self.grid_config, cells, pairs)

    def log_text(
        self,
        gen_config: GenerationConfig,
        raw_steps: list[tuple[int, int, int]],
        outcome: str,
        design_hash: str,
    ) -> tuple[str, str]:
        """Canonical log text and its log_hash, straight from ``run``'s raw steps."""
        coords = point_coords(self.grid_config.n_half)
        rules, states = self._rule_json, self._state_text
        steps = [
            STEP_JSON % (i, coords[pi], states.get(key) or state_json(key, states), rules[ri])
            for i, (pi, ri, key) in enumerate(raw_steps)
        ]
        parts = encode_log(
            self._fingerprint, self.grid_config, gen_config.to_obj(), outcome, design_hash, steps
        )
        log_hash = sha256_hex(parts[0] + parts[1])
        return with_log_hash(parts, log_hash), log_hash

    def to_log(
        self,
        gen_config: GenerationConfig,
        raw_steps: list[tuple[int, int, int]],
        outcome: str,
        design: Design,
    ) -> DerivationLog:
        pts = self._points
        rules = self._rules
        steps = tuple(
            DerivationStep(
                index=i,
                point=pts[pi],
                rule_name=rules[ri].name,
                pre_state=State.from_key(key),
            )
            for i, (pi, ri, key) in enumerate(raw_steps)
        )
        design_hash = design.hash
        return DerivationLog(
            grammar_fingerprint=self._fingerprint,
            grid_config=self.grid_config,
            gen_config=gen_config,
            steps=steps,
            outcome=outcome,
            design_hash=design_hash,
            log_hash=self.log_text(gen_config, raw_steps, outcome, design_hash)[1],
        )


def generate(
    grammar: Grammar,
    grid_config: GridConfig,
    gen_config: GenerationConfig,
    matcher: str = "direct",
) -> tuple[Design, DerivationLog]:
    """Run one full derivation; the grammar must be lint-clean."""
    engine = Engine(grammar, grid_config, match_fn=_matcher_fn(grammar, matcher))
    cells, edges, raw_steps, outcome = engine.run(gen_config)
    design = engine.to_design(cells, edges)
    return design, engine.to_log(gen_config, raw_steps, outcome, design)


def _matcher_fn(grammar: Grammar, matcher: str):
    if matcher == "direct":
        return None
    if matcher == "contract":
        from gridgram.constraint_matcher import contract_match_fn

        return contract_match_fn(grammar)
    raise ValueError(f"unknown matcher {matcher!r}")


def _rederive(log: DerivationLog, grammar: Grammar) -> tuple[Design, str]:
    """Re-run the kernel on the log's configs; the log must record exactly its steps."""
    if grammar.fingerprint != log.grammar_fingerprint:
        raise ReplayError(
            "fingerprint", None,
            "log was produced by a different grammar",
        )
    engine = Engine(grammar, log.grid_config)
    cells, edges, raw_steps, outcome = engine.run(log.gen_config)
    pts, rules = engine._points, grammar.rules
    for i, (s, (pi, ri, key)) in enumerate(zip(log.steps, raw_steps)):
        if (
            s.index != i or s.point != pts[pi]
            or s.rule_name != rules[ri].name or s.pre_state.key != key
        ):
            _diagnose(engine, log, i)
    if len(log.steps) != len(raw_steps):
        _diagnose(engine, log, min(len(log.steps), len(raw_steps)))
    return engine.to_design(cells, edges), outcome


def _diagnose(engine: Engine, log: DerivationLog, i: int) -> NoReturn:
    """Raise the ReplayError for step ``i``, the first one the engine did not derive."""
    if i == len(log.steps):
        raise ReplayError("divergence", i, "the log ends here; its configs derive more steps")
    s = log.steps[i]
    if s.index != i:
        raise ReplayError("index", i, f"recorded index is {s.index}")
    if not log.grid_config.contains(s.point):
        raise ReplayError("point", i, f"{s.point} is outside the grid")
    if i == 0:
        grid = Grid.empty(log.grid_config)
    else:
        cells, edges, _, _ = engine.run(replace(log.gen_config, max_steps=i))
        grid = engine.to_design(cells, edges).grid
    if grid.state_of(s.point) != s.pre_state:
        raise ReplayError(
            "pre-state", i,
            f"recorded pre-state does not match the replayed grid at {s.point}",
        )
    try:
        rule = engine.grammar.rule_named(s.rule_name)
    except KeyError:
        raise ReplayError("rule-missing", i, f"no rule named {s.rule_name!r}") from None
    if not rule.matches(s.pre_state):
        raise ReplayError("no-match", i, f"rule {rule.name} does not match the pre-state")
    raise ReplayError(
        "divergence", i, "legal step, but not the one the recorded configs derive"
    )


def replay(log: DerivationLog, grammar: Grammar) -> Design:
    """Re-derive a log's design, requiring every recorded step to be the derived one."""
    return _rederive(log, grammar)[0]


def verify_log(log: DerivationLog, grammar: Grammar) -> Design:
    """Full verification: re-derivation, then design hash, outcome, and log hash."""
    design, outcome = _rederive(log, grammar)
    if design.hash != log.design_hash:
        raise ReplayError(
            "design-hash", None, "replayed design does not hash to the recorded value"
        )
    if log.outcome != outcome:
        raise ReplayError(
            "outcome", None, f"recorded {log.outcome!r}, replay implies {outcome!r}"
        )
    if sha256_hex("".join(_log_parts_of(log))) != log.log_hash:
        raise ReplayError("log-hash", None, "log content does not hash to log_hash")
    return design


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

    if profile.get("require_complete"):
        left = counts[Symbol.UNOCCUPIED]
        checks.append(
            CheckResult("complete", left == 0, f"{left} nonterminal point(s) remain")
        )
    if profile.get("require_connected"):
        nodes = [p for p, _ in design.component_nodes()]
        reached = _connected_component(nodes, design.component_edges())
        ok = len(reached) == len(nodes)
        checks.append(
            CheckResult(
                "connected", ok,
                f"{len(reached)} of {len(nodes)} component point(s) in one component",
            )
        )
    if profile.get("forbid_isolated"):
        nodes = [p for p, _ in design.component_nodes()]
        degree = {p: 0 for p in nodes}
        for a, b in design.component_edges():
            degree[a] += 1
            degree[b] += 1
        isolated = [p for p, d in degree.items() if d == 0] if len(nodes) > 1 else []
        checks.append(
            CheckResult(
                "no-isolated", not isolated, f"{len(isolated)} isolated component point(s)"
            )
        )
    count_bounds = profile.get("counts") or {}
    if not isinstance(count_bounds, dict):
        raise ProfileFormatError("counts must be an object")
    for label, bounds in count_bounds.items():
        try:
            sym = Symbol.from_label(label)
            lo, hi = (None if b is None else _int(b) for b in bounds)
        except (KeyError, TypeError, ValueError) as e:
            raise ProfileFormatError(f"bad counts entry {label!r}: {e}") from None
        have = counts.get(sym, 0)
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


def resolve_workers(requested: int | None = None) -> int:
    """Worker count in [1, MAX_WORKERS]: explicit request, else
    GRIDGRAM_THREADS, else CPU count."""
    if requested is None:
        try:
            requested = int(os.environ.get("GRIDGRAM_THREADS", ""))
        except ValueError:
            requested = os.cpu_count() or 1
    return max(1, min(requested, MAX_WORKERS))


@dataclass(frozen=True, slots=True)
class BatchItem:
    """One derivation of a batch, encoded where it ran.

    ``design_text`` and ``log_text`` are the canonical file contents without
    the trailing newline; ``log_text`` is None when logs were not asked for.
    ``counts`` maps each storable symbol's label to its count.
    """

    seed: int
    design: Design
    design_text: str
    design_hash: str
    log_text: str | None
    counts: dict[str, int]
    step_count: int
    outcome: str


def _batch_item(engine: Engine, cfg: GenerationConfig, want_logs: bool) -> BatchItem:
    cells, edges, raw_steps, outcome = engine.run(cfg)
    design_text = engine.design_text(cells, edges)
    design_hash = sha256_hex(design_text)
    log_text = engine.log_text(cfg, raw_steps, outcome, design_hash)[0] if want_logs else None
    return BatchItem(
        seed=cfg.seed,
        design=engine.to_design(cells, edges),
        design_text=design_text,
        design_hash=design_hash,
        log_text=log_text,
        counts={s.label: cells.count(s) for s in _STORABLE_ORDER},
        step_count=len(raw_steps),
        outcome=outcome,
    )


def _batch_worker(args) -> list[tuple[int, BatchItem]]:
    grammar_text, grid_obj, indexed_configs, matcher, want_logs = args
    grammar = parse_grammar(grammar_text)
    grid_config = _grid_config_from_obj(grid_obj)
    engine = Engine(grammar, grid_config, match_fn=_matcher_fn(grammar, matcher))
    return [
        (pos, _batch_item(engine, GenerationConfig.from_obj(cobj), want_logs))
        for pos, cobj in indexed_configs
    ]


def run_batch(
    grammar: Grammar,
    grid_config: GridConfig,
    configs: list[GenerationConfig],
    matcher: str = "direct",
    workers: int | None = None,
    want_logs: bool = True,
) -> list[BatchItem]:
    """Independent derivations, results in input order.

    With more than one worker the derivations run in separate processes;
    each is a pure function of its config, so scheduling cannot change
    results.
    """
    nworkers = min(resolve_workers(workers), len(configs)) if configs else 1
    if nworkers <= 1:
        engine = Engine(grammar, grid_config, match_fn=_matcher_fn(grammar, matcher))
        return [_batch_item(engine, cfg, want_logs) for cfg in configs]

    text = serialize_grammar(grammar)
    grid_obj = grid_config_obj(grid_config)
    indexed = [(i, c.to_obj()) for i, c in enumerate(configs)]
    chunks = [indexed[i::nworkers] for i in range(nworkers)]
    jobs = [(text, grid_obj, chunk, matcher, want_logs) for chunk in chunks if chunk]
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        parts = list(pool.map(_batch_worker, jobs))
    ordered: list[BatchItem | None] = [None] * len(configs)
    for part in parts:
        for pos, item in part:
            ordered[pos] = item
    return ordered  # type: ignore[return-value]
