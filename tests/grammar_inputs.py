"""Random grammars for the suite, and the brute-force interval reference.

``random_grammar`` draws a grammar from a seeded ``random.Random``: the
fixed-seed inputs of the acceptance criteria and of the match-table check.
``grammars`` is the hypothesis strategy the property tests draw from.
``interval_count`` and ``minimum_intervals`` recount interval totals the
slow way, straight from the packed context keys, so they share no code with
the closed form in ``constraint_matcher`` that they check. Not collected by
pytest.
"""

from __future__ import annotations

import math
import random
from itertools import permutations
from operator import ne

from hypothesis import strategies as st

from gridgram.core import Direction, Symbol, TERMINALS
from gridgram.grammar import ContextPattern, Grammar, Production, Rule

U = Symbol.UNOCCUPIED
ALL_SYMBOLS = tuple(Symbol)
TERMINAL_CHOICES = tuple(sorted(TERMINALS))


def _draw_entry(rnd: random.Random, sets: list, d: int, cap: int) -> None:
    """Set direction ``d`` to 1, 2, 3 or all 7 symbols, keeping the pattern within ``cap``."""
    rest = math.prod(len(s) for i, s in enumerate(sets) if i != d)
    k = rnd.choice((1, 1, 1, 2, 2, 3, 7))
    while rest * k > cap and k > 1:
        k -= 1
    sets[d] = frozenset(rnd.sample(ALL_SYMBOLS, k))


def _random_rule(rnd: random.Random, name: str, cap: int) -> Rule:
    """One to three patterns of at most ``cap`` contexts each.

    Each later pattern is the first with one to three directions redrawn, so
    the patterns of a rule overlap. Any terminal, any edge, weight 1-3.
    """
    sets = [frozenset({U})] * 7
    for d in range(1, 7):
        _draw_entry(rnd, sets, d, cap)
    omega = [ContextPattern(tuple(sets))]
    for _ in range(rnd.choice((0, 0, 1, 2))):
        other = list(sets)
        for d in rnd.sample(range(1, 7), rnd.randint(1, 3)):
            _draw_entry(rnd, other, d, cap)
        omega.append(ContextPattern(tuple(other)))
    symbol = rnd.choice(TERMINAL_CHOICES)
    direction = Direction.EGO if symbol is Symbol.EMPTY else rnd.choice(list(Direction))
    return Rule(name, tuple(omega), Production(symbol, direction), weight=rnd.choice((1, 2, 3)))


def random_grammar(rnd: random.Random, n_rules: int, cap: int = 24) -> Grammar:
    return Grammar("fuzz", "1", tuple(_random_rule(rnd, f"r{i}", cap) for i in range(n_rules)))


@st.composite
def grammars(draw, max_rules: int = 5, max_patterns: int = 3, max_set: int = 4) -> Grammar:
    """Up to ``max_rules`` rules of 1 to ``max_patterns`` (possibly overlapping) patterns."""
    entries = st.frozensets(st.sampled_from(ALL_SYMBOLS), min_size=1, max_size=max_set)
    patterns = st.tuples(st.just(frozenset({U})), *[entries] * 6).map(ContextPattern)
    rules = []
    for i in range(draw(st.integers(0, max_rules))):
        omega = tuple(draw(st.lists(patterns, min_size=1, max_size=max_patterns)))
        symbol = draw(st.sampled_from(TERMINAL_CHOICES))
        d = Direction.EGO if symbol is Symbol.EMPTY else draw(st.sampled_from(list(Direction)))
        rules.append(Rule(f"rule_{i}", omega, Production(symbol, d), draw(st.integers(1, 9))))
    return Grammar("fuzz", "0", tuple(rules))


def _contexts(grammar: Grammar) -> list[tuple[int, ...]]:
    """Every concrete context of every rule, as seven symbol codes in direction order."""
    return [
        tuple((key >> (3 * d)) & 7 for d in range(7))
        for rule in grammar.rules
        for key in rule.context_key_set()
    ]


def _runs(contexts, order) -> int:
    """Symbol runs over ``contexts`` when slot s holds direction ``order[s]``."""
    total = 0
    for syms in contexts:
        slots = [syms[d] for d in order]
        total += 1 + sum(map(ne, slots, slots[1:]))
    return total


def interval_count(grammar: Grammar, slot_of) -> int:
    """Symbol runs over every context when direction d sits in slot ``slot_of[d]``."""
    return _runs(_contexts(grammar), [slot_of.index(s) for s in range(7)])


def minimum_intervals(grammar: Grammar) -> int:
    """The least interval count over all 5040 slot orders."""
    contexts = _contexts(grammar)
    return min(_runs(contexts, order) for order in permutations(range(7)))
