"""Rules, rule files, wildcard patterns, direct matching, and lint.

A rule file is JSON: ``{"name": ..., "version": ..., "rules": [...]}``. Each
rule gives a list of context patterns (one entry per direction: a symbol
name, a list of names, or "*") and a production ``{"symbol": ..., "connect":
...}``. Patterns are sugar: a pattern stands for the Cartesian product of its
per-direction symbol sets (a box), a finite set of concrete contexts. A rule
matches a state exactly when the state is one of those contexts.
``MatchTable`` compiles every pattern of a grammar into per-direction
bit-vectors, so matching a state costs seven lookups and an AND.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import product
from math import prod

from gridgram.canon import compact_json, load_json, sha256_hex
from gridgram.core import (
    COMPONENTS, NONTERMINALS, TERMINALS, Direction, Record, State, Symbol, setter,
)

#: What "*" means per direction: ego never admits Boundary. ``ContextPattern``
#: refuses an ego "*" (it admits terminals), so only WILDCARD_NON_EGO is ever
#: held by a pattern; WILDCARD_EGO names the terminals in that refusal.
WILDCARD_EGO = frozenset(s for s in Symbol if s is not Symbol.BOUNDARY)
WILDCARD_NON_EGO = frozenset(Symbol)
#: The largest rule weight, so that a weighted draw's total stays within the
#: 2^64 that ``below`` accepts for any grammar of fewer than 2^32 rules.
MAX_WEIGHT = 1 << 32

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_DIRECTION_LABELS = tuple((d, d.label) for d in Direction)
_LABEL_SET = frozenset(label for _, label in _DIRECTION_LABELS)


class GrammarError(Exception):
    """Base class for grammar-level failures."""


class GrammarParseError(GrammarError):
    """A rule file failed to parse or validate.

    ``kind`` is machine-readable: syntax, format, unknown-symbol,
    unknown-direction, duplicate-rule-name, ego-not-nonterminal,
    empty-with-connection, production-not-terminal.
    ``path`` locates the offending element within the document; ``line`` and
    ``col`` are exact for syntax errors and best-effort (located by the
    enclosing rule's name) otherwise.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        path: str = "$",
        line: int | None = None,
        col: int | None = None,
    ):
        self.kind = kind
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        where = path
        if line is not None:
            where += f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(f"{kind} at {where}: {message}")


class ContextPattern(Record):
    """Per-direction symbol sets; stands for their Cartesian product.

    ``sets`` is Direction-indexed. Every set is non-empty, and the ego set
    admits only nonterminals, because only they are rewritten. ``masks`` is
    the same data as 7 bitmasks (bit i set iff Symbol(i) admitted),
    precomputed for ``admits`` and the linter; the engine matches through
    ``MatchTable`` instead. It takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ("sets", "masks")
    _fields = ("sets",)

    def __init__(self, sets: tuple[frozenset[Symbol], ...]) -> None:
        if len(sets) != 7:
            raise ValueError(f"pattern needs 7 direction entries, got {len(sets)}")
        for d in Direction:
            if not sets[d]:
                raise ValueError(f"empty symbol set at {d.label}")
        ego = sets[Direction.EGO]
        if not ego <= NONTERMINALS:
            bad = sorted(s.label for s in ego - NONTERMINALS)
            raise ValueError(f"ego admits {bad}; only nonterminals are rewritten")
        put = setter(self)
        put("sets", sets)
        put("masks", tuple(sum(1 << s for s in ss) for ss in sets))
        put("_value", (sets,))

    def admits(self, state: State) -> bool:
        m = self.masks
        sy = state.symbols
        return all((m[i] >> sy[i]) & 1 for i in range(7))

    def size(self) -> int:
        """Number of concrete contexts this pattern stands for."""
        n = 1
        for ss in self.sets:
            n *= len(ss)
        return n

    def context_keys(self) -> Iterator[int]:
        """Packed 21-bit keys of every concrete context, without building States."""
        choices = [sorted(ss) for ss in self.sets]
        for combo in product(*choices):
            k = 0
            for i, s in enumerate(combo):
                k |= s << (3 * i)
            yield k


class Production(Record):
    """What a matched rule writes: a terminal at ego, plus an edge when
    ``dir`` is not ego (toward the neighbor in that direction)."""

    __slots__ = _fields = ("symbol", "direction")

    def __init__(self, symbol: Symbol, direction: Direction) -> None:
        if symbol not in TERMINALS:
            raise ValueError(f"production symbol must be terminal, got {symbol.label}")
        if symbol is Symbol.EMPTY and direction is not Direction.EGO:
            raise ValueError("Empty carries no physical connection; connect must be ego")
        put = setter(self)
        put("symbol", symbol)
        put("direction", direction)
        put("_value", (symbol, direction))


class Rule(Record):
    """A named set of context patterns plus one production.

    Only nonterminals are rewritten, so every pattern's ego set holds
    nonterminals only (``ContextPattern`` checks it). ``weight`` feeds the
    weighted rule-selection strategy and is an integer in [1, 2^32]
    (``MAX_WEIGHT``), so random draws stay exact and a weighted total stays
    within the 2^64 that ``below`` takes.
    """

    __slots__ = _fields = ("name", "omega", "production", "weight")

    def __init__(
        self, name: str, omega: tuple[ContextPattern, ...], production: Production, weight: int = 1
    ) -> None:
        if type(name) is not str:
            raise TypeError(f"rule name must be a string, got {name!r}")
        if type(weight) is not int:
            raise TypeError(f"rule {name}: weight must be an integer, got {weight!r}")
        if not 1 <= weight <= MAX_WEIGHT:
            raise ValueError(f"rule {name}: weight must be in [1, 2**32]")
        put = setter(self)
        put("name", name)
        put("omega", omega)
        put("production", production)
        put("weight", weight)
        put("_value", (name, omega, production, weight))

    def matches(self, state: State) -> bool:
        return any(pat.admits(state) for pat in self.omega)

    def context_count(self) -> int:
        """Size of the concrete-context set (patterns may overlap; deduplicated)."""
        return sum(prod(len(s) for s in box) for box in self.disjoint_boxes())

    def disjoint_boxes(self) -> list[tuple[frozenset[Symbol], ...]]:
        """Pairwise disjoint boxes covering exactly the contexts of ``omega``.

        Each pattern in turn, minus the boxes of the patterns before it, so
        overlapping patterns count every shared context once.
        """
        boxes: list[tuple[frozenset[Symbol], ...]] = []
        for pattern in self.omega:
            pieces = [pattern.sets]
            for done in boxes:
                pieces = [q for piece in pieces for q in _subtract_box(piece, done)]
            boxes.extend(pieces)
        return boxes

    def context_key_set(self) -> frozenset[int]:
        keys: set[int] = set()
        for pat in self.omega:
            keys.update(pat.context_keys())
        return frozenset(keys)


def _subtract_box(
    box: tuple[frozenset, ...], cut: tuple[frozenset, ...]
) -> list[tuple[frozenset, ...]]:
    """Orthogonal difference box \\ cut as disjoint boxes."""
    if any(not (b & c) for b, c in zip(box, cut)):
        return [box]
    pieces = []
    common: list[frozenset] = []
    for i, (b, c) in enumerate(zip(box, cut)):
        rest = b - c
        if rest:
            pieces.append(tuple(common) + (rest,) + box[i + 1 :])
        common.append(b & c)
    return pieces


class MatchTable(Record):
    """Rule matching compiled into per-direction bit-vectors over patterns.

    Patterns are numbered rule by rule, in grammar order. ``cols[d][v]`` has
    bit b set when pattern b admits symbol code v in direction d, so a state
    fits pattern b exactly when bit b survives the AND of its seven columns
    (the bit-vector scheme for multi-field packet classification of Lakshman
    and Stiliadis, SIGCOMM 1998). ``rule_of[b]`` is pattern b's rule index
    and ``later[r]`` keeps only the bits of the rules after rule r.
    """

    __slots__ = _fields = ("cols", "rule_of", "later")

    def __init__(
        self, cols: tuple[tuple[int, ...], ...], rule_of: tuple[int, ...], later: tuple[int, ...]
    ) -> None:
        put = setter(self)
        put("cols", cols)
        put("rule_of", rule_of)
        put("later", later)
        put("_value", (cols, rule_of, later))

    @classmethod
    def from_grammar(cls, grammar: Grammar) -> MatchTable:
        """The table of every pattern of ``grammar``, directions in Direction order."""
        cols = [[0] * 8 for _ in range(7)]
        rule_of: list[int] = []
        later: list[int] = []
        for ri, rule in enumerate(grammar.rules):
            for pattern in rule.omega:
                bit = 1 << len(rule_of)
                rule_of.append(ri)
                for col, symbols in zip(cols, pattern.sets, strict=True):
                    for v in symbols:
                        col[v] |= bit
            later.append(-1 << len(rule_of))
        return cls(tuple(map(tuple, cols)), tuple(rule_of), tuple(later))

    def rules_matching(self, key: int) -> tuple[int, ...]:
        """Ascending indices of the rules admitting the packed state ``key``."""
        c = self.cols
        bits = (
            c[0][key & 7] & c[1][key >> 3 & 7] & c[2][key >> 6 & 7]
            & c[3][key >> 9 & 7] & c[4][key >> 12 & 7] & c[5][key >> 15 & 7]
            & c[6][key >> 18 & 7]
        )
        rule_of, later = self.rule_of, self.later
        out = []
        while bits:
            ri = rule_of[(bits & -bits).bit_length() - 1]
            out.append(ri)
            bits &= later[ri]
        return tuple(out)


class Grammar(Record):
    """An ordered list of uniquely named rules plus file metadata.

    The constructors of ``Grammar`` and ``Rule`` admit only strings for names
    and the version and only integers for weights, so the plain-data form
    holds no floats and is serialized without walking it. ``_fingerprint``
    caches ``fingerprint`` and takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ("name", "version", "rules", "_fingerprint")
    _fields = ("name", "version", "rules")

    def __init__(self, name: str, version: str, rules: tuple[Rule, ...]) -> None:
        for what, value in (("name", name), ("version", version)):
            if type(value) is not str:
                raise TypeError(f"grammar {what} must be a string, got {value!r}")
        seen: set[str] = set()
        for r in rules:
            if not isinstance(r, Rule):
                raise TypeError(f"grammar rules must be Rule objects, got {r!r}")
            if r.name in seen:
                raise ValueError(f"duplicate rule name {r.name!r}")
            seen.add(r.name)
        put = setter(self)
        put("name", name)
        put("version", version)
        put("rules", rules)
        put("_fingerprint", None)
        put("_value", (name, version, rules))

    def rule_named(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(f"no rule named {name!r}")

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical serialization, computed on first use."""
        fp = self._fingerprint
        if fp is None:
            fp = sha256_hex(serialize_grammar(self))
            setter(self)("_fingerprint", fp)
        return fp


def _entry_to_set(value: object, d: Direction, path: str) -> frozenset[Symbol]:
    if value == "*":
        return WILDCARD_EGO if d is Direction.EGO else WILDCARD_NON_EGO
    if isinstance(value, str):
        names: list[str] = [value]
    elif isinstance(value, list):
        if not value:
            raise GrammarParseError("format", "symbol list may not be empty", path)
        names = []
        for v in value:
            if not isinstance(v, str) or v == "*":
                raise GrammarParseError("unknown-symbol", f"{v!r} is not a symbol name", path)
            names.append(v)
    else:
        raise GrammarParseError(
            "format", f"expected symbol name, list, or \"*\", got {type(value).__name__}", path
        )
    out: set[Symbol] = set()
    for n in names:
        try:
            out.add(Symbol.from_label(n))
        except KeyError:
            raise GrammarParseError("unknown-symbol", f"{n!r}", path) from None
    return frozenset(out)


def _line_of(text: str, needle: str, occurrence: int) -> int | None:
    """Best-effort line lookup: the Nth occurrence of a quoted literal."""
    start = 0
    for _ in range(occurrence):
        pos = text.find(f'"{needle}"', start)
        if pos < 0:
            return None
        start = pos + 1
    return text.count("\n", 0, start) + 1


def _require_keys(obj: dict, required: set[str], optional: set[str], path: str) -> None:
    missing = required - obj.keys()
    if missing:
        raise GrammarParseError("format", f"missing key(s) {sorted(missing)}", path)
    unknown = obj.keys() - required - optional
    if unknown:
        raise GrammarParseError("format", f"unknown key(s) {sorted(unknown)}", path)


def parse_grammar(text: str) -> Grammar:
    """Parse and fully validate a rule file; raises GrammarParseError.

    An error inside a rule reports the line of the rule's name (of its
    second occurrence for a duplicate name), looked up only once raised.
    """
    doc = load_json(text, lambda msg, line, col: GrammarParseError("syntax", msg, "$", line, col))
    if not isinstance(doc, dict):
        raise GrammarParseError("format", "top level must be an object", "$", 1)
    try:
        _require_keys(doc, {"name", "version", "rules"}, set(), "$")
    except GrammarParseError as e:
        raise GrammarParseError(e.kind, e.message, e.path, 1) from None
    if not isinstance(doc["name"], str) or not isinstance(doc["version"], str):
        raise GrammarParseError("format", "name and version must be strings", "$", 1)
    if not isinstance(doc["rules"], list):
        raise GrammarParseError("format", "rules must be a list", "$.rules", 1)

    rules: list[Rule] = []
    seen: dict[str, int] = {}
    for i, robj in enumerate(doc["rules"]):
        rpath = f"$.rules[{i}]"
        if not isinstance(robj, dict):
            raise GrammarParseError("format", "rule must be an object", rpath)
        rname = robj.get("name")
        if not isinstance(rname, str) or not _NAME_RE.fullmatch(rname):
            raise GrammarParseError(
                "format", f"rule name must be an identifier, got {rname!r}", rpath
            )
        try:
            _require_keys(robj, {"name", "contexts", "produce"}, {"weight"}, rpath)
            if rname in seen:
                raise GrammarParseError(
                    "duplicate-rule-name", f"{rname!r} already defined as rule {seen[rname]}",
                    rpath,
                )
            seen[rname] = i
            rules.append(_rule_from_obj(robj, rname, rpath))
        except GrammarParseError as e:
            nth = 2 if e.kind == "duplicate-rule-name" else 1
            line = _line_of(text, rname, nth)
            raise GrammarParseError(e.kind, e.message, e.path, line) from None

    return Grammar(doc["name"], doc["version"], tuple(rules))


def _rule_from_obj(robj: dict, rname: str, rpath: str) -> Rule:
    """One rule whose keys are checked; errors carry no line (the caller adds it)."""
    if not isinstance(robj["contexts"], list):
        raise GrammarParseError("format", "contexts must be a list", f"{rpath}.contexts")
    patterns: list[ContextPattern] = []
    for j, cobj in enumerate(robj["contexts"]):
        cpath = f"{rpath}.contexts[{j}]"
        if not isinstance(cobj, dict):
            raise GrammarParseError("format", "context must be an object", cpath)
        unknown = cobj.keys() - _LABEL_SET
        if unknown:
            raise GrammarParseError("unknown-direction", f"{sorted(unknown)}", cpath)
        missing = _LABEL_SET - cobj.keys()
        if missing:
            raise GrammarParseError(
                "format", f"context missing direction(s) {sorted(missing)}", cpath
            )
        sets = tuple(
            _entry_to_set(cobj[label], d, f"{cpath}.{label}") for d, label in _DIRECTION_LABELS
        )
        try:
            patterns.append(ContextPattern(sets))
        except ValueError as e:  # seven non-empty sets: only the ego check can fail
            raise GrammarParseError("ego-not-nonterminal", str(e), f"{cpath}.ego") from None

    pobj = robj["produce"]
    ppath = f"{rpath}.produce"
    if not isinstance(pobj, dict):
        raise GrammarParseError("format", "produce must be an object", ppath)
    _require_keys(pobj, {"symbol", "connect"}, set(), ppath)
    if not isinstance(pobj["symbol"], str):
        raise GrammarParseError("format", "produce.symbol must be a string", ppath)
    try:
        psym = Symbol.from_label(pobj["symbol"])
    except KeyError:
        raise GrammarParseError(
            "unknown-symbol", f"{pobj['symbol']!r}", f"{ppath}.symbol"
        ) from None
    if psym not in TERMINALS:
        raise GrammarParseError(
            "production-not-terminal", f"{psym.label} is not a terminal", f"{ppath}.symbol"
        )
    if not isinstance(pobj["connect"], str):
        raise GrammarParseError("format", "produce.connect must be a string", ppath)
    try:
        pdir = Direction.from_label(pobj["connect"])
    except KeyError:
        raise GrammarParseError(
            "unknown-direction", f"{pobj['connect']!r}", f"{ppath}.connect"
        ) from None
    if psym is Symbol.EMPTY and pdir is not Direction.EGO:
        raise GrammarParseError(
            "empty-with-connection",
            "Empty carries no physical connection; connect must be ego",
            f"{ppath}.connect",
        )

    weight = robj.get("weight", 1)
    if type(weight) is not int or not 1 <= weight <= MAX_WEIGHT:
        raise GrammarParseError(
            "format", f"weight must be an integer in [1, 2**32], got {weight!r}", f"{rpath}.weight"
        )
    return Rule(rname, tuple(patterns), Production(psym, pdir), weight)


def _entry_to_obj(ss: frozenset[Symbol]) -> object:
    if ss == WILDCARD_NON_EGO:  # an ego set is never a wildcard
        return "*"
    if len(ss) == 1:
        return next(iter(ss)).label
    return sorted(s.label for s in ss)


def grammar_to_obj(grammar: Grammar) -> dict:
    """Plain-data form of a grammar, in canonical (most compact) notation."""
    rules = []
    for r in grammar.rules:
        robj: dict = {
            "name": r.name,
            "contexts": [
                {label: _entry_to_obj(pat.sets[d]) for d, label in _DIRECTION_LABELS}
                for pat in r.omega
            ],
            "produce": {
                "symbol": r.production.symbol.label,
                "connect": r.production.direction.label,
            },
        }
        if r.weight != 1:
            robj["weight"] = r.weight
        rules.append(robj)
    return {"name": grammar.name, "version": grammar.version, "rules": rules}


def serialize_grammar(grammar: Grammar) -> str:
    """Canonical rule-file text; parse_grammar(serialize_grammar(g)) == g."""
    return compact_json(grammar_to_obj(grammar))


class LintDiagnostic(Record):
    """One linter finding. ``level`` is "error" or "info"."""

    __slots__ = _fields = ("level", "code", "rule", "message")

    def __init__(self, level: str, code: str, rule: str | None, message: str) -> None:
        put = setter(self)
        put("level", level)
        put("code", code)
        put("rule", rule)
        put("message", message)
        put("_value", (level, code, rule, message))

    def to_obj(self) -> dict:
        return {
            "level": self.level,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }


def _patterns_overlap(a: ContextPattern, b: ContextPattern) -> bool:
    return all(a.masks[i] & b.masks[i] for i in range(7))


def lint_grammar(grammar: Grammar) -> list[LintDiagnostic]:
    """Static rule checks: ``lint_grammar_errors``, then the info findings.

    Info: two rules share a concrete context (legal, the generator picks
    one); a terminal appears in some context but no rule produces it, so
    those contexts can never see it.
    """
    out = lint_grammar_errors(grammar)
    for i, a in enumerate(grammar.rules):
        for b in grammar.rules[i + 1 :]:
            if any(_patterns_overlap(pa, pb) for pa in a.omega for pb in b.omega):
                out.append(
                    LintDiagnostic(
                        "info",
                        "overlapping-rules",
                        a.name,
                        f"shares at least one concrete context with rule {b.name}",
                    )
                )

    produced = {r.production.symbol for r in grammar.rules}
    referenced: set[Symbol] = set()
    for r in grammar.rules:
        for pat in r.omega:
            for ss in pat.sets:
                if ss != WILDCARD_NON_EGO:  # a wildcard names nothing deliberately
                    referenced |= ss
    for s in sorted(referenced & (TERMINALS - produced)):
        out.append(
            LintDiagnostic(
                "info",
                "dead-symbol",
                None,
                f"{s.label} appears in contexts but no rule produces it",
            )
        )
    return out


def lint_grammar_errors(grammar: Grammar) -> list[LintDiagnostic]:
    """The error-level checks alone, which ``Engine`` refuses a grammar for.

    A rule has no contexts at all; a production edge can point at a
    non-component.
    """
    out: list[LintDiagnostic] = []
    for r in grammar.rules:
        if not r.omega:
            out.append(
                LintDiagnostic(
                    "error", "unreachable-rule", r.name, "rule has no contexts; it can never match"
                )
            )
        d = r.production.direction
        if d is not Direction.EGO:
            for pat in r.omega:
                bad = pat.sets[d] - COMPONENTS
                if bad:
                    names = sorted(s.label for s in bad)
                    out.append(
                        LintDiagnostic(
                            "error",
                            "edge-target-not-component",
                            r.name,
                            f"production connects {d.label} but the {d.label} entry admits {names}",
                        )
                    )
                    break
    return out


def lint_errors(diags: list[LintDiagnostic]) -> list[LintDiagnostic]:
    return [d for d in diags if d.level == "error"]
