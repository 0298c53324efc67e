"""Contract-based rule matching over slot-encoded contexts.

This is an alternative matching backend. A bijection maps the seven local
directions onto integer slots 0..6; a concrete context then becomes, per
symbol, the set of slots that hold it, stored as closed integer intervals.
States and rules both turn into assume-guarantee contracts over these
interval constraints, and matching is decided by composing a state's
contract with a rule's. The direct matcher stays the reference; both
backends are held to identical answers by the test suite.

Derivations do not run this backend. A contract union and a rule's
patterns denote the same set of contexts (the tests hold
``compose_matches`` to ``Rule.matches``), and the slot order only changes
how a context is written, not whether it matches. So ``--matcher contract``
derives through the grammar's ``MatchTable``, the same one the direct
matcher uses, and the package never calls ``contract_match_fn``: it stays
for callers that time the contract compile apart from the engine build and
hand its result to ``Engine(match_fn=...)``.

The slot assignment is a degree of freedom: interval shapes (and so the
number of constraints) depend on which direction lands on which slot.
``interval_total`` gives the total interval count across every concrete
context of every rule in closed form, and ``optimal_assignment`` scans all
5040 bijections for the one minimizing it.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import prod

from gridgram.core import Direction, Record, State, Symbol, setter
from gridgram.grammar import Grammar, MatchTable, Rule

_DIRECTIONS = tuple(Direction)


class MatcherError(Exception):
    """Base class for contract-backend failures."""


class AssignmentMismatchError(MatcherError):
    """Two contract unions built under different direction assignments."""


class EmptyGrammarError(MatcherError):
    """The grammar expands to no concrete contexts at all."""


class DirectionAssignment(Record):
    """A bijection from directions to integer slots 0..6.

    ``slot_of`` is indexed by Direction; ``slot_of[d]`` is d's slot.
    """

    __slots__ = _fields = ("slot_of",)

    def __init__(self, slot_of: tuple[int, ...]) -> None:
        if len(slot_of) != 7 or sorted(slot_of) != list(range(7)):
            raise ValueError(f"not a bijection onto 0..6: {slot_of}")
        put = setter(self)
        put("slot_of", slot_of)
        put("_value", (slot_of,))

    @classmethod
    def identity(cls) -> DirectionAssignment:
        return cls(tuple(range(7)))

    def slot(self, d: Direction) -> int:
        return self.slot_of[d]

    def direction_at(self, slot: int) -> Direction:
        return _DIRECTIONS[self.slot_of.index(slot)]

    def to_obj(self) -> dict:
        return {d.label: self.slot_of[d] for d in _DIRECTIONS}

    def __str__(self) -> str:
        return " ".join(f"{d.label}={self.slot_of[d]}" for d in _DIRECTIONS)


class IntervalSet(Record):
    """Disjoint, non-adjacent, sorted closed integer intervals within [0,6].

    ``ints`` holds every covered integer and takes no part in equality,
    hashing or ``repr``.
    """

    __slots__ = ("intervals", "ints")
    _fields = ("intervals",)

    def __init__(self, intervals: tuple[tuple[int, int], ...]) -> None:
        last = -2
        for lo, hi in intervals:
            if not (0 <= lo <= hi <= 6):
                raise ValueError(f"interval [{lo},{hi}] out of range")
            if lo <= last + 1:
                raise ValueError("intervals must be sorted and maximally merged")
            last = hi
        put = setter(self)
        put("intervals", intervals)
        put("ints", frozenset(v for lo, hi in intervals for v in range(lo, hi + 1)))
        put("_value", (intervals,))

    @classmethod
    def from_ints(cls, values) -> IntervalSet:
        vals = sorted(set(values))
        out: list[tuple[int, int]] = []
        for v in vals:
            if out and v == out[-1][1] + 1:
                out[-1] = (out[-1][0], v)
            else:
                out.append((v, v))
        return cls(tuple(out))

    @property
    def count(self) -> int:
        return len(self.intervals)

    def text(self) -> str:
        return ",".join(
            str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in self.intervals
        )


class SymbolConstraint(Record):
    """One symbol pinned to a set of slots: every slot in ``dirs`` holds it."""

    __slots__ = _fields = ("symbol", "dirs")

    def __init__(self, symbol: Symbol, dirs: IntervalSet) -> None:
        put = setter(self)
        put("symbol", symbol)
        put("dirs", dirs)
        put("_value", (symbol, dirs))

    def text(self) -> str:
        return f"{self.symbol.label} in {{{self.dirs.text()}}}"


class ProductionGuarantee(Record):
    """What applying a rule promises: the placed symbol, plus an edge slot."""

    __slots__ = _fields = ("ego_symbol", "edge_slot")

    def __init__(self, ego_symbol: Symbol, edge_slot: int | None) -> None:
        if not ego_symbol.is_terminal:
            raise ValueError("a production guarantee places a terminal symbol")
        if edge_slot is not None and not 0 <= edge_slot <= 6:
            raise ValueError(f"edge slot {edge_slot} out of range")
        put = setter(self)
        put("ego_symbol", ego_symbol)
        put("edge_slot", edge_slot)
        put("_value", (ego_symbol, edge_slot))

    def text(self) -> str:
        if self.edge_slot is None:
            return f"produce {self.ego_symbol.label}"
        return f"produce {self.ego_symbol.label}, edge slot {self.edge_slot}"


class ConjunctiveContract(Record):
    """A conjunction of interval constraints, split into assume/guarantee."""

    __slots__ = _fields = ("assumptions", "guarantees", "production")

    def __init__(
        self,
        assumptions: tuple[SymbolConstraint, ...],
        guarantees: tuple[SymbolConstraint, ...],
        production: ProductionGuarantee | None = None,
    ) -> None:
        for side in (assumptions, guarantees):
            syms = [c.symbol for c in side]
            if len(syms) != len(set(syms)):
                raise ValueError("a symbol may appear at most once per side")
        put = setter(self)
        put("assumptions", assumptions)
        put("guarantees", guarantees)
        put("production", production)
        put("_value", (assumptions, guarantees, production))


class ContractUnion(Record):
    """A non-empty disjunction of conjunctive contracts, one assignment."""

    __slots__ = _fields = ("assignment", "members")

    def __init__(
        self, assignment: DirectionAssignment, members: tuple[ConjunctiveContract, ...]
    ) -> None:
        if not members:
            raise ValueError("a contract union needs at least one member")
        put = setter(self)
        put("assignment", assignment)
        put("members", members)
        put("_value", (assignment, members))


@cache
def _constraint(symbol: Symbol, mask: int) -> SymbolConstraint:
    """``symbol`` pinned to the slots whose bits are set in ``mask``.

    Only 7 x 128 exist, and contract unions repeat them by the thousand.
    """
    return SymbolConstraint(symbol, IntervalSet.from_ints(s for s in range(7) if mask >> s & 1))


def encode_context(
    ctx: State, assignment: DirectionAssignment
) -> tuple[SymbolConstraint, ...]:
    """Per-symbol slot intervals for a concrete context, symbol-code order."""
    masks: dict[Symbol, int] = {}
    for d in _DIRECTIONS:
        s = ctx.at(d)
        masks[s] = masks.get(s, 0) | 1 << assignment.slot(d)
    return tuple(_constraint(s, m) for s, m in sorted(masks.items()))


def decode_context(
    constraints: tuple[SymbolConstraint, ...], assignment: DirectionAssignment
) -> State:
    """Inverse of encode_context; the constraints must tile all seven slots."""
    symbols: list[Symbol | None] = [None] * 7
    for c in constraints:
        for slot in c.dirs.ints:
            d = assignment.direction_at(slot)
            if symbols[d] is not None:
                raise MatcherError(f"slot {slot} is constrained twice")
            symbols[d] = c.symbol
    if any(s is None for s in symbols):
        raise MatcherError("constraints do not cover every slot")
    return State(tuple(symbols))


def constraint_count(ctx: State, assignment: DirectionAssignment) -> int:
    """How many intervals the encoding of ``ctx`` needs under ``assignment``."""
    return sum(c.dirs.count for c in encode_context(ctx, assignment))


def state_to_contract_union(
    state: State, assignment: DirectionAssignment
) -> ContractUnion:
    """A state asserts everything it holds: empty assumptions, full guarantees."""
    member = ConjunctiveContract(
        assumptions=(), guarantees=encode_context(state, assignment)
    )
    return ContractUnion(assignment, (member,))


def rule_to_contract_union(
    rule: Rule, assignment: DirectionAssignment
) -> ContractUnion:
    """One member per distinct concrete context the rule accepts.

    Each member assumes one accepted context and guarantees the production
    (placed symbol, plus the edge's slot for non-ego connections).
    """
    keys = rule.context_key_set()
    if not keys:
        raise EmptyGrammarError(f"rule {rule.name!r} accepts no contexts")
    if rule.production.direction is Direction.EGO:
        guarantee = ProductionGuarantee(rule.production.symbol, None)
    else:
        guarantee = ProductionGuarantee(
            rule.production.symbol, assignment.slot(rule.production.direction)
        )
    members = tuple(
        ConjunctiveContract(
            assumptions=encode_context(State.from_key(k), assignment),
            guarantees=(),
            production=guarantee,
        )
        for k in sorted(keys)
    )
    return ContractUnion(assignment, members)


def compose_matches(state_u: ContractUnion, rule_u: ContractUnion) -> bool:
    """True when every state member composes with some rule member.

    A rule member composes with a state member when, after abstracting away
    symbols the state never holds, (a) each remaining assumption's slots are
    among the slots the state guarantees for that symbol, and (b) the
    remaining assumptions still pin down all seven slots. Dropping either
    condition admits states the direct matcher rejects: containment alone
    is blind to assumptions lost in abstraction, and coverage alone ignores
    where the symbols sit.
    """
    if state_u.assignment != rule_u.assignment:
        raise AssignmentMismatchError(
            f"state union uses ({state_u.assignment}), "
            f"rule union uses ({rule_u.assignment})"
        )
    for s_member in state_u.members:
        held = {c.symbol: c.dirs.ints for c in s_member.guarantees}
        composes = False
        for r_member in rule_u.members:
            # Abstraction: constraints on symbols the state never holds
            # drop out of both the containment and the coverage side.
            covered = 0
            ok = True
            for c in r_member.assumptions:
                have = held.get(c.symbol)
                if have is None:
                    continue
                need = c.dirs.ints
                if not need <= have:
                    ok = False
                    break
                covered += len(need)
            if ok and covered == 7:
                composes = True
                break
        if not composes:
            return False
    return True


def contract_match_fn(grammar: Grammar, assignment: DirectionAssignment | None = None):
    """The contract backend compiled for a caller: (rule index, key) -> bool.

    Returns a predicate carrying the grammar's ``MatchTable`` as
    ``match.table``; ``Engine(match_fn=...)`` reads that table and never
    calls the predicate. ``assignment`` is accepted for callers that hold
    one, but the table does not depend on it, and none is computed here.
    No concrete context is enumerated. The package never calls this (both
    ``--matcher`` names derive on ``shared_engine(grammar, grid_config)``);
    it stays for callers that measure or hold the compile step on its own.
    """
    table = MatchTable.from_grammar(grammar)

    def match(rule_index: int, key: int) -> bool:
        return rule_index in table.rules_matching(key)

    match.table = table
    return match


def _interval_table(grammar: Grammar) -> tuple[int, list[list[int]]]:
    """The closed form behind every interval total.

    Returns the number of concrete contexts summed over rules, and
    ``pair[d][e]``: how many of those contexts hold different symbols in
    directions d and e. A context's interval count is one plus the number of
    adjacent slot pairs holding different symbols, so a grammar-wide total
    under any bijection is the context count plus six ``pair`` entries.
    Enumerating contexts is hopeless for wildcard-heavy rules, so each
    rule's patterns are first decomposed into disjoint boxes (products of
    per-direction symbol sets), over which these counts sum from pairwise
    set sizes.
    """
    contexts = 0
    pair = [[0] * 7 for _ in range(7)]
    for rule in grammar.rules:
        for box in rule.disjoint_boxes():
            sizes = [len(s) for s in box]
            size = prod(sizes)
            contexts += size
            for d in range(7):
                for e in range(d + 1, 7):
                    rest = size // (sizes[d] * sizes[e])
                    diff = rest * (sizes[d] * sizes[e] - len(box[d] & box[e]))
                    pair[d][e] += diff
                    pair[e][d] += diff
    return contexts, pair


def interval_total(grammar: Grammar, assignment: DirectionAssignment) -> int:
    """Total interval count under ``assignment`` over every concrete context
    of every rule: the sum of ``constraint_count``, without enumerating."""
    contexts, pair = _interval_table(grammar)
    inv = [assignment.direction_at(s) for s in range(7)]
    return contexts + sum(pair[inv[s - 1]][inv[s]] for s in range(1, 7))


def optimal_assignment(grammar: Grammar) -> tuple[DirectionAssignment, int]:
    """Scan all 5040 bijections for the minimum ``interval_total``.

    Each bijection costs six lookups in the table ``interval_total`` reads.
    Ties break toward the lexicographically smallest slot tuple in direction
    order.
    """
    total_size, pair = _interval_table(grammar)
    if not total_size:
        raise EmptyGrammarError("grammar has no concrete contexts to encode")

    best_cost = None
    best = None
    inv = [0] * 7
    for slot_of in permutations(range(7)):
        for d, s in enumerate(slot_of):
            inv[s] = d
        cost = total_size
        prev = inv[0]
        for s in range(1, 7):
            cur = inv[s]
            cost += pair[prev][cur]
            prev = cur
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = slot_of
    return DirectionAssignment(best), best_cost


def contract_text(union: ContractUnion) -> str:
    """Human-readable rendering of a contract union, one member per block."""
    lines = [f"assignment: {union.assignment}", f"members: {len(union.members)}"]
    for i, m in enumerate(union.members, start=1):
        lines.append(f"member {i}:")
        assume = "; ".join(c.text() for c in m.assumptions) or "true"
        lines.append(f"  assume: {assume}")
        parts = [c.text() for c in m.guarantees]
        if m.production is not None:
            parts.append(m.production.text())
        lines.append(f"  guarantee: {'; '.join(parts) or 'true'}")
    return "\n".join(lines)
