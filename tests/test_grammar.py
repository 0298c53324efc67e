"""Rule parsing, wildcard expansion, direct matching, application, and lint."""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgram.core import Direction, GridConfig, State, Symbol
from gridgram.grammar import (
    ContextPattern,
    Grammar,
    GrammarParseError,
    LintDiagnostic,
    Production,
    Rule,
    WILDCARD_EGO,
    WILDCARD_NON_EGO,
    grammar_to_obj,
    lint_errors,
    lint_grammar,
    parse_grammar,
    serialize_grammar,
)
from gridgram.rulesets import demo_uav_text
from step_oracle import Canvas, matching_rules

U = Symbol.UNOCCUPIED
B = Symbol.BOUNDARY


def pattern(ego=frozenset({U}), **overrides) -> ContextPattern:
    sets = [frozenset(ego)]
    for d in list(Direction)[1:]:
        v = overrides.get(d.label, WILDCARD_NON_EGO)
        sets.append(frozenset(v if isinstance(v, (set, frozenset)) else {v}))
    return ContextPattern(tuple(sets))


def expand(p: ContextPattern) -> frozenset[State]:
    """All concrete contexts a pattern stands for."""
    return frozenset(State.from_key(k) for k in p.context_keys())


def one_rule_text(**kw) -> str:
    ctx = {d.label: kw.get(d.label, "*") for d in Direction}
    ctx["ego"] = kw.get("ego", "Unoccupied")
    rule = {
        "name": kw.get("name", "r0"),
        "contexts": [ctx],
        "produce": {
            "symbol": kw.get("symbol", "Empty"),
            "connect": kw.get("connect", "ego"),
        },
    }
    if "weight" in kw:
        rule["weight"] = kw["weight"]
    return json.dumps({"name": "t", "version": "1", "rules": [rule]})


class TestParse:
    def test_demo_ruleset_parses(self):
        g = parse_grammar(demo_uav_text())
        assert g.name == "demo_uav"
        assert len(g.rules) == 29
        assert len({r.name for r in g.rules}) == 29
        assert len(g.fingerprint) == 64

    def test_connector_front_fuselage_shape(self):
        text = one_rule_text(
            name="connector_front_fuselage",
            front="Fuselage",
            symbol="Connector",
            connect="front",
        )
        g = parse_grammar(text)
        assert len(g.rules) == 1
        r = g.rules[0]
        assert r.production == Production(Symbol.CONNECTOR, Direction.FRONT)
        assert r.omega[0].sets[Direction.FRONT] == {Symbol.FUSELAGE}
        assert r.omega[0].sets[Direction.TOP] == WILDCARD_NON_EGO

    def test_empty_rule_list_is_valid(self):
        g = parse_grammar('{"name":"x","version":"0","rules":[]}')
        assert g.rules == ()

    def test_syntax_error_carries_position(self):
        with pytest.raises(GrammarParseError) as e:
            parse_grammar('{"name": "x",\n  "version": }')
        assert e.value.kind == "syntax"
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "mutate,kind",
        [
            (lambda d: d.update(extra=1), "format"),
            (lambda d: d.pop("version"), "format"),
            (lambda d: d["rules"][0].update(note="x"), "format"),
            (lambda d: d["rules"][0]["contexts"][0].pop("top"), "format"),
            (lambda d: d["rules"][0]["contexts"][0].update(above="Empty"), "unknown-direction"),
            (lambda d: d["rules"][0]["contexts"][0].update(front="Engine"), "unknown-symbol"),
            (lambda d: d["rules"][0]["contexts"][0].update(front=["Rotor", "*"]), "unknown-symbol"),
            (lambda d: d["rules"][0]["produce"].update(symbol="Unoccupied"), "production-not-terminal"),
            (lambda d: d["rules"][0]["produce"].update(symbol="Boundary"), "production-not-terminal"),
            (lambda d: d["rules"][0]["produce"].update(connect="up"), "unknown-direction"),
            (lambda d: d["rules"][0].update(weight=0), "format"),
            (lambda d: d["rules"][0].update(weight=1.5), "format"),
            (lambda d: d["rules"][0].update(weight=True), "format"),
            (lambda d: d["rules"][0]["contexts"][0].update(front=[]), "format"),
            (lambda d: d["rules"][0].update(name="r0\n"), "format"),
        ],
    )
    def test_rejections(self, mutate, kind):
        doc = json.loads(one_rule_text(symbol="Rotor", connect="ego"))
        mutate(doc)
        with pytest.raises(GrammarParseError) as e:
            parse_grammar(json.dumps(doc))
        assert e.value.kind == kind

    def test_duplicate_rule_name(self):
        doc = json.loads(one_rule_text())
        doc["rules"].append(json.loads(json.dumps(doc["rules"][0])))
        with pytest.raises(GrammarParseError) as e:
            parse_grammar(json.dumps(doc))
        assert e.value.kind == "duplicate-rule-name"

    def test_ego_must_be_nonterminal(self):
        cases = [
            ("Fuselage", {Symbol.FUSELAGE}),
            ("*", WILDCARD_EGO),
            (["Unoccupied", "Empty"], {U, Symbol.EMPTY}),
            ("Boundary", {B}),
            (["Unoccupied", "Boundary"], {U, B}),
        ]
        for ego, sets in cases:
            doc = json.loads(one_rule_text())
            doc["rules"][0]["contexts"][0]["ego"] = ego
            with pytest.raises(GrammarParseError) as e:
                parse_grammar(json.dumps(doc))
            assert e.value.kind == "ego-not-nonterminal"
            assert e.value.path == "$.rules[0].contexts[0].ego"
            # The parser reports the one check, made by ContextPattern.
            with pytest.raises(ValueError) as direct:
                pattern(ego=sets)
            assert str(direct.value) == e.value.message

    def test_empty_with_connection_rejected(self):
        with pytest.raises(GrammarParseError) as e:
            parse_grammar(one_rule_text(symbol="Empty", connect="front"))
        assert e.value.kind == "empty-with-connection"

    @pytest.mark.parametrize(
        "mutate, kind, path",
        [
            (lambda r: r.update(contexts={}), "format", "$.rules[1].contexts"),
            (lambda r: r["contexts"][0].update(front="Engine"), "unknown-symbol",
             "$.rules[1].contexts[0].front"),
            (lambda r: r["produce"].update(symbol="Wingg"), "unknown-symbol",
             "$.rules[1].produce.symbol"),
            (lambda r: r["contexts"][0].update(above="Empty"), "unknown-direction",
             "$.rules[1].contexts[0]"),
            (lambda r: r["contexts"][0].update(ego="Fuselage"), "ego-not-nonterminal",
             "$.rules[1].contexts[0].ego"),
            (lambda r: r["produce"].update(symbol="Empty", connect="front"),
             "empty-with-connection", "$.rules[1].produce.connect"),
            (lambda r: r["produce"].update(symbol="Unoccupied"), "production-not-terminal",
             "$.rules[1].produce.symbol"),
            (lambda r: r.update(weight=0), "format", "$.rules[1].weight"),
            (lambda r: r.update(name="good_rule"), "duplicate-rule-name", "$.rules[1]"),
        ],
        ids=[
            "format", "unknown-symbol", "unknown-production-symbol", "unknown-direction",
            "ego-not-nonterminal", "empty-with-connection", "production-not-terminal",
            "weight", "duplicate-rule-name",
        ],
    )
    def test_semantic_error_reports_rule_line(self, mutate, kind, path):
        doc = json.loads(one_rule_text(name="good_rule"))
        bad = json.loads(one_rule_text(name="bad_rule", symbol="Wing", connect="ego"))["rules"][0]
        mutate(bad)
        doc["rules"].append(bad)
        text = json.dumps(doc, indent=2)
        with pytest.raises(GrammarParseError) as e:
            parse_grammar(text)
        assert (e.value.kind, e.value.path) == (kind, path)
        # The line of the bad rule's name: for a duplicate, its second occurrence.
        name = f'"name": "{bad["name"]}"'
        line = max(n for n, t in enumerate(text.splitlines(), 1) if name in t)
        assert e.value.line == line > 1


class TestRoundTrip:
    def test_demo_round_trip(self):
        g = parse_grammar(demo_uav_text())
        again = parse_grammar(serialize_grammar(g))
        assert again == g
        assert again.fingerprint == g.fingerprint

    def test_explicit_full_list_canonicalizes_to_wildcard(self):
        doc = json.loads(one_rule_text())
        doc["rules"][0]["contexts"][0]["front"] = sorted(s.label for s in Symbol)
        g = parse_grammar(json.dumps(doc))
        assert grammar_to_obj(g)["rules"][0]["contexts"][0]["front"] == "*"
        assert parse_grammar(serialize_grammar(g)) == g

    def test_weight_default_omitted(self):
        g = parse_grammar(one_rule_text(weight=3))
        obj = grammar_to_obj(g)
        assert obj["rules"][0]["weight"] == 3
        g1 = parse_grammar(one_rule_text())
        assert "weight" not in grammar_to_obj(g1)["rules"][0]
        for weight in (2.0, True, "2"):
            with pytest.raises(TypeError):
                replace(g.rules[0], weight=weight)


# Strategy for whole grammars built directly as objects.
_symbol_sets = st.sets(
    st.sampled_from(list(Symbol)), min_size=1, max_size=4
).map(frozenset)
_patterns = st.tuples(
    st.just(frozenset({U})), *[_symbol_sets for _ in range(6)]
).map(ContextPattern)
_terminals = st.sampled_from(sorted(Symbol.from_label(x) for x in
                                    ("Fuselage", "Rotor", "Wing", "Connector", "Empty")))


@st.composite
def grammars(draw):
    n = draw(st.integers(0, 5))
    rules = []
    for i in range(n):
        omega = tuple(draw(st.lists(_patterns, min_size=1, max_size=3)))
        sym = draw(_terminals)
        d = Direction.EGO if sym is Symbol.EMPTY else draw(st.sampled_from(list(Direction)))
        w = draw(st.integers(1, 9))
        rules.append(Rule(f"rule_{i}", omega, Production(sym, d), w))
    return Grammar("fuzz", "0", tuple(rules))


class TestRoundTripFuzz:
    @settings(max_examples=60, deadline=None)
    @given(grammars())
    def test_serialize_parse_identity(self, g):
        text = serialize_grammar(g)
        again = parse_grammar(text)
        assert again == g
        assert serialize_grammar(again) == text


class TestFingerprint:
    def test_hashed_once_per_grammar_object(self, monkeypatch):
        import gridgram.grammar as grammar_module

        g = parse_grammar(demo_uav_text())
        first = g.fingerprint
        monkeypatch.setattr(grammar_module, "sha256_hex", None)
        assert g.fingerprint == first
        assert g == parse_grammar(demo_uav_text())

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: Grammar(1.5, "1", (r,)),
            lambda r: Grammar("g", 2.0, (r,)),
            lambda r: Grammar("g", None, (r,)),
            lambda r: Grammar("g", "1", (replace(r, name=1.5),)),
            lambda r: Grammar("g", "1", ({"name": "r"},)),
        ],
        ids=["float-name", "float-version", "null-version", "float-rule-name", "rule-not-a-rule"],
    )
    def test_constructors_refuse_what_could_reach_the_hash(self, build):
        r = Rule("r", (pattern(),), Production(Symbol.EMPTY, Direction.EGO))
        with pytest.raises(TypeError):
            build(r).fingerprint

    def test_a_replaced_grammar_hashes_its_own_content(self):
        g = parse_grammar(demo_uav_text())
        g.fingerprint
        renamed = replace(g, name="other")
        assert renamed.fingerprint != g.fingerprint
        assert renamed.fingerprint == parse_grammar(serialize_grammar(renamed)).fingerprint


class TestDisjointBoxes:
    @settings(max_examples=60, deadline=None)
    @given(grammars())
    def test_boxes_tile_the_context_set(self, g):
        for r in g.rules:
            boxes = r.disjoint_boxes()
            keys = [k for box in boxes for k in ContextPattern(box).context_keys()]
            assert len(keys) == len(set(keys))
            assert set(keys) == r.context_key_set()
            assert r.context_count() == len(r.context_key_set())


class TestExpand:
    def test_all_singleton_gives_one(self):
        p = pattern(**{d.label: {U} for d in list(Direction)[1:]})
        assert expand(p) == frozenset({State((U,) * 7)})

    def test_pair_gives_two(self):
        p = pattern(
            front={Symbol.FUSELAGE, Symbol.ROTOR},
            **{d.label: {U} for d in list(Direction)[2:]},
        )
        assert len(expand(p)) == 2

    def test_wildcard_entry_gives_seven(self):
        p = pattern(
            front=WILDCARD_NON_EGO, **{d.label: {U} for d in list(Direction)[2:]}
        )
        ctxs = expand(p)
        assert len(ctxs) == 7
        assert {c.at(Direction.FRONT) for c in ctxs} == set(Symbol)

    def test_size_matches_product(self):
        p = pattern(front={Symbol.FUSELAGE, Symbol.ROTOR}, rear={U, B})
        assert p.size() == 2 * 2 * 7 * 7 * 7 * 7
        assert p.size() == len(set(p.context_keys()))


class TestMatches:
    def test_singleton_pattern_equality(self):
        ctx = State((U, Symbol.FUSELAGE, U, U, U, U, U))
        r = Rule("r", (pattern(**{d.label: {ctx.at(d)} for d in list(Direction)[1:]}),),
                 Production(Symbol.CONNECTOR, Direction.FRONT))
        assert r.matches(ctx)

    def test_differs_in_front_only(self):
        pat = pattern(front={Symbol.FUSELAGE}, **{d.label: {U} for d in list(Direction)[2:]})
        r = Rule("r", (pat,), Production(Symbol.CONNECTOR, Direction.FRONT))
        assert not r.matches(State((U, Symbol.ROTOR, U, U, U, U, U)))

    def test_terminal_ego_never_matches(self):
        r = Rule("r", (pattern(),), Production(Symbol.EMPTY, Direction.EGO))
        s = State((Symbol.FUSELAGE, U, U, U, U, U, U))
        assert not r.matches(s)

    def test_brute_force_oracle_reduced_alphabet(self):
        # Every rule decision must agree with explicit expansion membership
        # over all 3^7 states of a reduced alphabet.
        alphabet = [U, Symbol.CONNECTOR, Symbol.ROTOR]
        rules = [
            Rule("a", (pattern(front={Symbol.CONNECTOR}),),
                 Production(Symbol.ROTOR, Direction.FRONT)),
            Rule("b", (pattern(front={Symbol.CONNECTOR, Symbol.ROTOR}, rear={U}),
                       pattern(top={Symbol.ROTOR}, bottom={Symbol.ROTOR})),
                 Production(Symbol.EMPTY, Direction.EGO)),
            Rule("c", (pattern(left={U}, right={U},
                               front={Symbol.CONNECTOR}, rear={Symbol.CONNECTOR}),),
                 Production(Symbol.WING, Direction.FRONT)),
        ]
        tables = [frozenset(r.context_key_set()) for r in rules]
        for combo in product(alphabet, repeat=7):
            s = State(combo)
            for r, table in zip(rules, tables):
                assert r.matches(s) == (s.key in table)


class TestApplicableRules:
    def test_order_preserved_and_filtering(self):
        g = parse_grammar(demo_uav_text())
        grid = Canvas(GridConfig(2)).grid
        assert matching_rules(g, grid.state_of((0, 0, 0))) == []
        assert [r.name for r in matching_rules(g, grid.state_of((-2, -2, -2)))] == ["seed_fuselage"]
        grid = Canvas(GridConfig(2), {(1, 0, 0): Symbol.CONNECTOR}).grid
        names = [r.name for r in matching_rules(g, grid.state_of((0, 0, 0)))]
        assert names == ["attach_connector_front", "extend_connector_front"]

    def test_vertical_contact_offers_rotor(self):
        g = parse_grammar(demo_uav_text())
        grid = Canvas(GridConfig(2), {(0, 0, 1): Symbol.CONNECTOR}).grid
        names = [r.name for r in matching_rules(g, grid.state_of((0, 0, 0)))]
        assert names == ["attach_connector_top", "extend_connector_top", "attach_rotor_top"]

    def test_terminal_ego_yields_nothing(self):
        g = parse_grammar(demo_uav_text())
        grid = Canvas(GridConfig(1), {(0, 0, 0): Symbol.FUSELAGE}).grid
        assert matching_rules(g, grid.state_of((0, 0, 0))) == []


class TestApplyProduction:
    """Production application, as the reference oracle's ``Canvas.rewrite`` performs it."""

    def test_connector_with_edge(self):
        canvas = Canvas(GridConfig(1), {(1, 0, 0): Symbol.FUSELAGE})
        r = Rule("r", (pattern(front={Symbol.FUSELAGE}),),
                 Production(Symbol.CONNECTOR, Direction.FRONT))
        canvas.rewrite((0, 0, 0), r)
        grid = canvas.grid
        assert grid.symbol_at((0, 0, 0)) is Symbol.CONNECTOR
        assert grid.edges() == [((0, 0, 0), (1, 0, 0))]
        assert grid.audit() == []

    def test_empty_without_edge(self):
        canvas = Canvas(GridConfig(1))
        r = Rule("r", (pattern(),), Production(Symbol.EMPTY, Direction.EGO))
        canvas.rewrite((0, 0, 0), r)
        assert canvas.grid.symbol_at((0, 0, 0)) is Symbol.EMPTY
        assert canvas.grid.edges() == []

    def test_non_matching_leaves_grid_unchanged(self):
        canvas = Canvas(GridConfig(1))
        r = Rule("r", (pattern(front={Symbol.FUSELAGE}),),
                 Production(Symbol.CONNECTOR, Direction.FRONT))
        with pytest.raises(AssertionError):
            canvas.rewrite((0, 0, 0), r)
        assert canvas.grid == Canvas(GridConfig(1)).grid

    def test_changes_exactly_one_point(self):
        g = parse_grammar(demo_uav_text())
        canvas = Canvas(GridConfig(1))
        before = Canvas(GridConfig(1)).grid
        canvas.rewrite((-1, -1, -1), g.rule_named("seed_fuselage"))
        grid = canvas.grid
        diff = [p for p in grid.points() if grid.symbol_at(p) != before.symbol_at(p)]
        assert diff == [(-1, -1, -1)]

    def test_unlinted_edge_target_raises_internal_error(self):
        # Lint rejects these rules; the rewrite still refuses to write them.
        symbols = {(1, 0, 0): Symbol.EMPTY}
        canvas = Canvas(GridConfig(1), symbols)
        r = Rule("r", (pattern(front={Symbol.EMPTY, Symbol.CONNECTOR}),),
                 Production(Symbol.ROTOR, Direction.FRONT))
        with pytest.raises(AssertionError):
            canvas.rewrite((0, 0, 0), r)
        assert canvas.grid == Canvas(GridConfig(1), symbols).grid
        canvas2 = Canvas(GridConfig(1))
        r2 = Rule("r2", (pattern(front=WILDCARD_NON_EGO),),
                  Production(Symbol.ROTOR, Direction.FRONT))
        with pytest.raises(AssertionError):
            canvas2.rewrite((1, 0, 0), r2)  # edge target out of grid
        assert canvas2.grid == Canvas(GridConfig(1)).grid


class TestLint:
    def test_demo_grammar_has_no_errors(self):
        diags = lint_grammar(parse_grammar(demo_uav_text()))
        assert lint_errors(diags) == []

    def test_edge_target_not_component(self):
        r = Rule("r", (pattern(front={Symbol.CONNECTOR, Symbol.EMPTY}),),
                 Production(Symbol.ROTOR, Direction.FRONT))
        diags = lint_grammar(Grammar("g", "0", (r,)))
        errs = lint_errors(diags)
        assert len(errs) == 1
        assert errs[0].code == "edge-target-not-component"
        assert "Empty" in errs[0].message

    def test_no_contexts_is_unreachable(self):
        r = Rule("r", (), Production(Symbol.EMPTY, Direction.EGO))
        errs = lint_errors(lint_grammar(Grammar("g", "0", (r,))))
        assert [e.code for e in errs] == ["unreachable-rule"]

    def test_overlap_reported_as_info(self):
        a = Rule("a", (pattern(front={Symbol.CONNECTOR}),),
                 Production(Symbol.ROTOR, Direction.FRONT))
        b = Rule("b", (pattern(rear={U, B}),),
                 Production(Symbol.EMPTY, Direction.EGO))
        diags = lint_grammar(Grammar("g", "0", (a, b)))
        overlaps = [d for d in diags if d.code == "overlapping-rules"]
        assert len(overlaps) == 1
        assert overlaps[0].level == "info"
        assert lint_errors(diags) == []

    def test_disjoint_rules_do_not_overlap(self):
        a = Rule("a", (pattern(front={Symbol.CONNECTOR}),),
                 Production(Symbol.ROTOR, Direction.FRONT))
        b = Rule("b", (pattern(front={Symbol.FUSELAGE}),),
                 Production(Symbol.CONNECTOR, Direction.FRONT))
        assert all(d.code != "overlapping-rules"
                   for d in lint_grammar(Grammar("g", "0", (a, b))))

    def test_dead_symbol_reported(self):
        r = Rule("r", (pattern(front={Symbol.WING}),),
                 Production(Symbol.EMPTY, Direction.EGO))
        diags = lint_grammar(Grammar("g", "0", (r,)))
        dead = [d for d in diags if d.code == "dead-symbol"]
        assert len(dead) == 1 and "Wing" in dead[0].message
        assert dead[0].level == "info"

    def test_diagnostic_to_obj(self):
        d = LintDiagnostic("info", "x", "r", "m")
        assert d.to_obj() == {"level": "info", "code": "x", "rule": "r", "message": "m"}
