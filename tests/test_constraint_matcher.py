"""Contract backend tests: encoding, assignment search, composition."""

from __future__ import annotations

import functools
import json
from itertools import permutations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgram import constraint_matcher
from gridgram.constraint_matcher import (
    AssignmentMismatchError,
    ConjunctiveContract,
    ContractUnion,
    DirectionAssignment,
    EmptyGrammarError,
    IntervalSet,
    MatcherError,
    ProductionGuarantee,
    SymbolConstraint,
    compose_matches,
    constraint_count,
    contract_match_fn,
    contract_text,
    decode_context,
    encode_context,
    interval_total,
    optimal_assignment,
    rule_to_contract_union,
    state_to_contract_union,
)
from gridgram.core import Direction, GridConfig, State, Symbol
from gridgram.generator import POINT_STRATEGIES, RULE_STRATEGIES, Engine, GenerationConfig
from gridgram.grammar import (
    ContextPattern,
    MatchTable,
    Production,
    Rule,
    parse_grammar,
)
from grammar_inputs import grammars, interval_count, random_grammar

GOLDEN = Path(__file__).parent / "golden"

REDUCED = (Symbol.UNOCCUPIED, Symbol.CONNECTOR, Symbol.ROTOR)
FULL = tuple(Symbol)

assignments_st = st.permutations(range(7)).map(
    lambda p: DirectionAssignment(tuple(p))
)
states_st = st.tuples(
    st.sampled_from(sorted(set(FULL) - {Symbol.BOUNDARY})),
    *[st.sampled_from(FULL) for _ in range(6)],
).map(State)


def grammar_of(rules: list[dict]) -> object:
    return parse_grammar(json.dumps({"name": "t", "version": "1", "rules": rules}))


def ctx(**kw) -> dict:
    base = {d: "*" for d in ("front", "rear", "left", "right", "top", "bottom")}
    base["ego"] = "Unoccupied"
    base.update(kw)
    return base


def state_with(**kw) -> State:
    symbols = [Symbol.UNOCCUPIED] * 7
    for label, sym in kw.items():
        symbols[Direction.from_label(label)] = sym
    return State(tuple(symbols))


class TestDirectionAssignment:
    def test_identity(self):
        a = DirectionAssignment.identity()
        assert a.slot(Direction.EGO) == 0
        assert a.slot(Direction.BOTTOM) == 6

    @pytest.mark.parametrize("bad", [(0, 1, 2), (0, 0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            DirectionAssignment(bad)

    @given(assignment=assignments_st)
    def test_slot_and_direction_at_are_inverse(self, assignment):
        for d in Direction:
            assert assignment.direction_at(assignment.slot(d)) is d
        for s in range(7):
            assert assignment.slot(assignment.direction_at(s)) == s

    def test_str_form(self):
        a = DirectionAssignment((6, 4, 5, 0, 2, 3, 1))
        assert str(a) == "ego=6 front=4 rear=5 left=0 right=2 top=3 bottom=1"


class TestIntervalSet:
    @pytest.mark.parametrize(
        "ints,intervals",
        [
            ({0, 1, 2}, ((0, 2),)),
            ({0, 2, 4}, ((0, 0), (2, 2), (4, 4))),
            ({0, 1, 2, 3, 4, 5, 6}, ((0, 6),)),
            ({3}, ((3, 3),)),
            (set(), ()),
        ],
    )
    def test_from_ints_merges_maximally(self, ints, intervals):
        s = IntervalSet.from_ints(ints)
        assert s.intervals == intervals
        assert s.count == len(intervals)
        assert s.ints == frozenset(ints)

    @pytest.mark.parametrize(
        "intervals",
        [((2, 1),), ((0, 7),), ((-1, 0),), ((3, 4), (0, 1)), ((0, 2), (3, 5))],
    )
    def test_rejects_non_canonical_forms(self, intervals):
        with pytest.raises(ValueError):
            IntervalSet(intervals)

    @given(ints=st.sets(st.integers(min_value=0, max_value=6)))
    def test_round_trip(self, ints):
        assert IntervalSet.from_ints(ints).ints == frozenset(ints)

    def test_text(self):
        assert IntervalSet.from_ints({0, 1, 2, 3, 5, 6}).text() == "0-3,5-6"
        assert IntervalSet.from_ints({4}).text() == "4"
        assert IntervalSet.from_ints(set()).text() == ""


class TestEncodeDecode:
    def test_uniform_context_is_one_constraint(self):
        s = State((Symbol.UNOCCUPIED,) * 7)
        for a in (DirectionAssignment.identity(), DirectionAssignment((3, 1, 4, 0, 6, 2, 5))):
            enc = encode_context(s, a)
            assert [c.text() for c in enc] == ["Unoccupied in {0-6}"]
            assert constraint_count(s, a) == 1

    def test_front_symbol_under_case_study_assignment(self):
        a = DirectionAssignment((6, 4, 5, 0, 2, 3, 1))
        s = state_with(front=Symbol.FUSELAGE)
        enc = encode_context(s, a)
        assert [c.text() for c in enc] == [
            "Fuselage in {4}",
            "Unoccupied in {0-3,5-6}",
        ]
        assert constraint_count(s, a) == 3

    @given(state=states_st, assignment=assignments_st)
    def test_round_trip(self, state, assignment):
        assert decode_context(encode_context(state, assignment), assignment) == state

    @given(state=states_st, assignment=assignments_st)
    def test_encoding_partitions_the_slots(self, state, assignment):
        enc = encode_context(state, assignment)
        seen: set[int] = set()
        for c in enc:
            ints = c.dirs.ints
            assert not (ints & seen)
            seen |= ints
        assert seen == set(range(7))

    def test_decode_rejects_overlap(self):
        a = DirectionAssignment.identity()
        cs = (
            SymbolConstraint(Symbol.EMPTY, IntervalSet.from_ints(range(7))),
            SymbolConstraint(Symbol.ROTOR, IntervalSet.from_ints({3})),
        )
        with pytest.raises(MatcherError):
            decode_context(cs, a)

    def test_decode_rejects_gaps(self):
        a = DirectionAssignment.identity()
        cs = (SymbolConstraint(Symbol.EMPTY, IntervalSet.from_ints({0, 1})),)
        with pytest.raises(MatcherError):
            decode_context(cs, a)


class TestConstraintCount:
    def test_two_symbol_family_best_total_is_two(self):
        # A at front and rear, B elsewhere: some bijection makes each symbol
        # one contiguous block.
        s = state_with(front=Symbol.ROTOR, rear=Symbol.ROTOR)
        best = min(
            constraint_count(s, DirectionAssignment(p))
            for p in permutations(range(7))
        )
        assert best == 2


class TestStateUnion:
    @given(state=states_st, assignment=assignments_st)
    def test_single_true_assumption_member(self, state, assignment):
        u = state_to_contract_union(state, assignment)
        assert len(u.members) == 1
        m = u.members[0]
        assert m.assumptions == ()
        assert m.production is None
        assert decode_context(m.guarantees, assignment) == state


class TestRuleUnion:
    def test_one_member_per_distinct_context(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [
                        ctx(front="Connector", top=["Unoccupied", "Empty"]),
                        ctx(front="Connector"),  # overlaps the first
                    ],
                    "produce": {"symbol": "Rotor", "connect": "front"},
                }
            ]
        )
        rule = g.rules[0]
        u = rule_to_contract_union(rule, DirectionAssignment.identity())
        assert len(u.members) == rule.context_count()
        assert len(u.members) == len(set(u.members))

    def test_members_decode_to_the_accepted_contexts(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [ctx(front="Connector", rear=["Empty", "Boundary"])],
                    "produce": {"symbol": "Connector", "connect": "front"},
                }
            ]
        )
        rule = g.rules[0]
        a = DirectionAssignment((2, 0, 1, 3, 4, 5, 6))
        u = rule_to_contract_union(rule, a)
        decoded = {decode_context(m.assumptions, a).key for m in u.members}
        assert decoded == rule.context_key_set()

    def test_guarantee_carries_edge_slot(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [ctx(front="Fuselage")],
                    "produce": {"symbol": "Connector", "connect": "front"},
                }
            ]
        )
        a = DirectionAssignment((6, 4, 5, 0, 2, 3, 1))
        u = rule_to_contract_union(g.rules[0], a)
        for m in u.members:
            assert m.production == ProductionGuarantee(Symbol.CONNECTOR, 4)

    def test_ego_production_has_no_edge_slot(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [ctx()],
                    "produce": {"symbol": "Empty", "connect": "ego"},
                }
            ]
        )
        u = rule_to_contract_union(g.rules[0], DirectionAssignment.identity())
        assert all(m.production == ProductionGuarantee(Symbol.EMPTY, None) for m in u.members)

    def test_empty_expansion_is_an_error(self):
        bare = Rule(
            name="r",
            omega=(),
            production=Production(Symbol.EMPTY, Direction.EGO),
        )
        with pytest.raises(EmptyGrammarError):
            rule_to_contract_union(bare, DirectionAssignment.identity())


class TestAbstract:
    """compose_matches drops a rule member's assumptions on symbols the state never holds."""

    def _union(self, *assumptions):
        member = ConjunctiveContract(
            assumptions=assumptions,
            guarantees=(),
            production=ProductionGuarantee(Symbol.CONNECTOR, 1),
        )
        return ContractUnion(DirectionAssignment.identity(), (member,))

    def _state(self, state):
        return state_to_contract_union(state, DirectionAssignment.identity())

    def test_identity_when_all_symbols_present(self):
        # Nothing is dropped, so the slots alone decide.
        a = DirectionAssignment.identity()
        u = self._union(*encode_context(state_with(front=Symbol.FUSELAGE), a))
        assert compose_matches(self._state(state_with(front=Symbol.FUSELAGE)), u)
        assert not compose_matches(self._state(state_with(rear=Symbol.FUSELAGE)), u)

    def test_empty_when_no_symbols_present(self):
        # Every assumption drops out, and no assumption covers no slot.
        a = DirectionAssignment.identity()
        u = self._union(*encode_context(state_with(front=Symbol.FUSELAGE), a))
        assert not compose_matches(self._state(State((Symbol.ROTOR,) * 7)), u)
        assert not compose_matches(self._state(State((Symbol.ROTOR,) * 7)), self._union())

    def test_partial_filter(self):
        # Only the Fuselage assumption drops; the kept Unoccupied one still
        # covers every slot and is still checked.
        u = self._union(
            SymbolConstraint(Symbol.UNOCCUPIED, IntervalSet.from_ints(range(7))),
            SymbolConstraint(Symbol.FUSELAGE, IntervalSet.from_ints([1])),
        )
        assert compose_matches(self._state(State((Symbol.UNOCCUPIED,) * 7)), u)
        assert not compose_matches(self._state(state_with(front=Symbol.FUSELAGE)), u)


class TestCompose:
    def _rule_union(self, assignment):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [
                        {
                            "ego": "Unoccupied",
                            "front": "Fuselage",
                            "rear": "Unoccupied",
                            "left": "Unoccupied",
                            "right": "Unoccupied",
                            "top": ["Unoccupied", "Empty"],
                            "bottom": "Unoccupied",
                        }
                    ],
                    "produce": {"symbol": "Connector", "connect": "front"},
                }
            ]
        )
        return g.rules[0], rule_to_contract_union(g.rules[0], assignment)

    def test_accepted_context_composes(self):
        a = DirectionAssignment.identity()
        rule, u = self._rule_union(a)
        s = state_with(front=Symbol.FUSELAGE, top=Symbol.EMPTY)
        assert rule.matches(s)
        assert compose_matches(state_to_contract_union(s, a), u)

    def test_rejected_context_does_not_compose(self):
        a = DirectionAssignment.identity()
        rule, u = self._rule_union(a)
        s = state_with(front=Symbol.ROTOR)
        assert not rule.matches(s)
        assert not compose_matches(state_to_contract_union(s, a), u)

    def test_abstraction_loss_does_not_fake_a_match(self):
        # The all-Unoccupied state drops the Fuselage assumption entirely;
        # what remains is satisfied but no longer pins down every slot.
        a = DirectionAssignment.identity()
        rule, u = self._rule_union(a)
        s = State((Symbol.UNOCCUPIED,) * 7)
        assert not rule.matches(s)
        assert not compose_matches(state_to_contract_union(s, a), u)

    def test_assignment_mismatch_is_an_error(self):
        a1 = DirectionAssignment.identity()
        a2 = DirectionAssignment((6, 4, 5, 0, 2, 3, 1))
        _, u = self._rule_union(a1)
        s = state_to_contract_union(State((Symbol.UNOCCUPIED,) * 7), a2)
        with pytest.raises(AssignmentMismatchError):
            compose_matches(s, u)

    @given(state=states_st, assignment=assignments_st)
    @settings(max_examples=100, deadline=None)
    def test_verdict_is_assignment_invariant(self, state, assignment):
        base = DirectionAssignment.identity()
        rule, u_base = self._rule_union(base)
        _, u = self._rule_union(assignment)
        verdict = compose_matches(state_to_contract_union(state, assignment), u)
        assert verdict == compose_matches(state_to_contract_union(state, base), u_base)
        assert verdict == rule.matches(state)


class TestMatchTable:
    """Both matchers derive through one table; the engine only looks it up."""

    def test_table_agrees_with_rule_matches_on_random_grammars(self):
        rng = Random(20261018)
        multi = matched = 0
        for _ in range(25):
            g = random_grammar(rng, rng.randint(1, 6), cap=7**4)
            multi += sum(len(r.omega) > 1 for r in g.rules)
            table = MatchTable.from_grammar(g)
            patterns = [p for r in g.rules for p in r.omega]
            for _ in range(200):
                # A context of some pattern, with one direction redrawn.
                symbols = [rng.choice(sorted(ss)) for ss in rng.choice(patterns).sets]
                symbols[rng.randrange(1, 7)] = rng.choice(FULL)
                s = State(tuple(symbols))
                want = tuple(ri for ri, r in enumerate(g.rules) if r.matches(s))
                matched += bool(want)
                assert table.rules_matching(s.key) == want
        assert multi >= 25 and matched >= 1000

    def test_engine_match_list_equals_rule_matches(self):
        g = grammar_of(
            [
                {
                    "name": "a",
                    "contexts": [
                        ctx(front="Connector"),
                        ctx(front=["Connector", "Rotor"], top="Rotor"),
                    ],
                    "produce": {"symbol": "Rotor", "connect": "front"},
                },
                {
                    "name": "b",
                    "contexts": [
                        ctx(top=["Connector", "Rotor"], bottom="Unoccupied"),
                        ctx(left="Rotor", right="Rotor"),
                        ctx(top="Rotor"),
                    ],
                    "produce": {"symbol": "Empty", "connect": "ego"},
                },
                {
                    "name": "c",
                    "contexts": [ctx(rear="Connector"), ctx(rear="Connector", front="Rotor")],
                    "produce": {"symbol": "Connector", "connect": "rear"},
                },
            ]
        )
        engine = Engine(g, GridConfig(1))
        for combo in product(REDUCED, repeat=7):
            key = State(combo).key
            want = [ri for ri, r in enumerate(g.rules) if r.matches(State.from_key(key))]
            assert list(engine._match_list(key)) == want

    def test_contract_backend_enumerates_no_context(self, demo, monkeypatch):
        def refuse(*args):
            raise AssertionError("a concrete context or an assignment was computed")

        monkeypatch.setattr(ContextPattern, "context_keys", refuse)
        monkeypatch.setattr(constraint_matcher, "optimal_assignment", refuse)
        match = contract_match_fn(demo)
        engine = Engine(demo, GridConfig(2), match_fn=match)
        _, _, steps, outcome = engine.run(GenerationConfig(seed=3))
        assert steps and outcome in ("complete", "stuck")
        probe = state_with(front=Symbol.CONNECTOR)
        assert [ri for ri in range(len(demo.rules)) if match(ri, probe.key)] == [
            ri for ri, r in enumerate(demo.rules) if r.matches(probe)
        ]

    def test_engine_reads_the_table_through_a_wrapped_callable(self, demo):
        match = contract_match_fn(demo)

        @functools.wraps(match)
        def traced(rule_index, key):
            raise AssertionError("the engine called the predicate")

        grid = GridConfig(2)
        wrapped, direct = Engine(demo, grid, match_fn=traced), Engine(demo, grid)
        for seed in (0, 1, 2):
            for ps in POINT_STRATEGIES:
                for rs in RULE_STRATEGIES:
                    cfg = GenerationConfig(seed=seed, point_strategy=ps, rule_strategy=rs)
                    a, b = wrapped.run(cfg), direct.run(cfg)
                    assert a == b
                    text = direct.to_design(*b[:2]).serialize()
                    assert wrapped.to_design(*a[:2]).serialize() == text


class TestIntervalTotal:
    @settings(max_examples=40, deadline=None)
    @given(grammars(max_rules=3, max_patterns=2, max_set=3), assignments_st)
    def test_equals_the_brute_force_sum(self, g, a):
        brute = sum(
            constraint_count(State.from_key(k), a)
            for r in g.rules for k in r.context_key_set()
        )
        assert interval_total(g, a) == brute
        assert interval_total(g, a) == interval_count(g, a.slot_of)

    @settings(max_examples=15, deadline=None)
    @given(grammars(max_rules=3, max_patterns=2, max_set=3).filter(lambda g: g.rules))
    def test_optimal_total_is_the_total_of_the_best(self, g):
        best, total = optimal_assignment(g)
        assert interval_total(g, best) == total

    def test_demo_totals(self, demo):
        best, total = optimal_assignment(demo)
        assert interval_total(demo, best) == total
        assert interval_total(demo, DirectionAssignment.identity()) == 2374810


class TestOptimalAssignment:
    def test_uniform_contexts_make_every_assignment_optimal(self):
        g = grammar_of(
            [
                {
                    "name": f"r{i}",
                    "contexts": [
                        {d: "Unoccupied" for d in (
                            "ego", "front", "rear", "left", "right", "top", "bottom"
                        )}
                    ],
                    "produce": {"symbol": "Empty", "connect": "ego"},
                }
                for i in range(3)
            ]
        )
        a, total = optimal_assignment(g)
        assert total == 3
        assert a == DirectionAssignment.identity()

    def test_two_symbol_family_reaches_two(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [
                        {
                            "ego": "Unoccupied",
                            "front": "Rotor",
                            "rear": "Rotor",
                            "left": "Unoccupied",
                            "right": "Unoccupied",
                            "top": "Unoccupied",
                            "bottom": "Unoccupied",
                        }
                    ],
                    "produce": {"symbol": "Empty", "connect": "ego"},
                }
            ]
        )
        _, total = optimal_assignment(g)
        assert total == 2

    def test_empty_grammar_is_an_error(self):
        g = grammar_of([])
        with pytest.raises(EmptyGrammarError):
            optimal_assignment(g)

    def test_demo_assignment_is_frozen(self, demo):
        a, total = optimal_assignment(demo)
        frozen = json.loads((GOLDEN / "demo_assignment.json").read_text())
        assert a.to_obj() == frozen["assignment"]
        assert total == frozen["total_intervals"]


class TestContractText:
    def test_rendering_is_frozen(self):
        g = grammar_of(
            [
                {
                    "name": "r",
                    "contexts": [
                        {
                            "ego": "Unoccupied",
                            "front": "Fuselage",
                            "rear": "Unoccupied",
                            "left": "Unoccupied",
                            "right": "Unoccupied",
                            "top": ["Unoccupied", "Empty"],
                            "bottom": "Unoccupied",
                        }
                    ],
                    "produce": {"symbol": "Connector", "connect": "front"},
                }
            ]
        )
        a = DirectionAssignment((6, 4, 5, 0, 2, 3, 1))
        rule_part = contract_text(rule_to_contract_union(g.rules[0], a))
        state_part = contract_text(
            state_to_contract_union(state_with(front=Symbol.FUSELAGE), a)
        )
        frozen = (GOLDEN / "contract_text.txt").read_text()
        assert f"{rule_part}\n---\n{state_part}\n" == frozen

    def test_empty_union_is_rejected(self):
        with pytest.raises(ValueError):
            ContractUnion(DirectionAssignment.identity(), ())
