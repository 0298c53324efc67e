"""Grid, direction, symbol, state, RNG, and canonical serialization tests."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridgram.canon import canonical_hash, canonical_json
from gridgram.core import (
    COMPONENTS,
    NEIGHBOR_DIRECTIONS,
    NONTERMINALS,
    STORABLE,
    Direction,
    Grid,
    GridConfig,
    MAX_N_HALF,
    OutOfGridError,
    State,
    Symbol,
    neighbor,
)
from gridgram.grammar import ContextPattern, Production, Rule
from gridgram.rng import SplitMix64, draws
from step_oracle import Canvas, choice_index, empty_grid


def anywhere(symbol: Symbol, direction: Direction = Direction.EGO) -> Rule:
    """A rule writing ``symbol`` at any Unoccupied point, whatever surrounds it."""
    around = ContextPattern((frozenset({Symbol.UNOCCUPIED}),) + (frozenset(Symbol),) * 6)
    return Rule("anywhere", (around,), Production(symbol, direction))


points_in = lambda n: st.tuples(
    st.integers(-n, n), st.integers(-n, n), st.integers(-n, n)
)
directions = st.sampled_from(list(Direction))
storable_symbols = st.sampled_from(sorted(STORABLE))


class TestDirection:
    def test_axis_mapping(self):
        assert Direction.FRONT.offset == (1, 0, 0)
        assert Direction.REAR.offset == (-1, 0, 0)
        assert Direction.RIGHT.offset == (0, 1, 0)
        assert Direction.LEFT.offset == (0, -1, 0)
        assert Direction.TOP.offset == (0, 0, 1)
        assert Direction.BOTTOM.offset == (0, 0, -1)
        assert Direction.EGO.offset == (0, 0, 0)

    def test_opposites_pair_up(self):
        assert Direction.FRONT.opposite is Direction.REAR
        assert Direction.LEFT.opposite is Direction.RIGHT
        assert Direction.TOP.opposite is Direction.BOTTOM
        assert Direction.EGO.opposite is Direction.EGO
        for d in Direction:
            assert d.opposite.opposite is d

    def test_labels_round_trip(self):
        for d in Direction:
            assert Direction.from_label(d.label) is d
        with pytest.raises(KeyError):
            Direction.from_label("sideways")

    def test_neighbor_examples(self):
        assert neighbor((0, 0, 0), Direction.FRONT) == (1, 0, 0)
        assert neighbor((2, -1, 3), Direction.BOTTOM) == (2, -1, 2)
        assert neighbor((5, 5, 5), Direction.EGO) == (5, 5, 5)

    @given(points_in(10), directions)
    def test_neighbor_opposite_returns(self, p, d):
        assert neighbor(neighbor(p, d), d.opposite) == p


class TestSymbol:
    def test_partition(self):
        assert Symbol.UNOCCUPIED in NONTERMINALS
        assert not Symbol.UNOCCUPIED.is_terminal
        for s in (Symbol.FUSELAGE, Symbol.ROTOR, Symbol.WING, Symbol.CONNECTOR):
            assert s.is_terminal and s in COMPONENTS
        assert Symbol.EMPTY.is_terminal and Symbol.EMPTY not in COMPONENTS
        assert not Symbol.BOUNDARY.is_terminal
        assert Symbol.BOUNDARY not in NONTERMINALS
        assert Symbol.BOUNDARY not in STORABLE

    def test_labels_round_trip(self):
        assert Symbol.from_label("Fuselage") is Symbol.FUSELAGE
        assert Symbol.from_label("Unoccupied") is Symbol.UNOCCUPIED
        for s in Symbol:
            assert Symbol.from_label(s.label) is s
        with pytest.raises(KeyError):
            Symbol.from_label("fuselage")  # labels are case-sensitive
        with pytest.raises(KeyError):
            Symbol.from_label("Engine")


class TestState:
    def test_needs_seven_symbols(self):
        with pytest.raises(ValueError):
            State((Symbol.UNOCCUPIED,) * 6)

    def test_ego_never_boundary(self):
        syms = [Symbol.BOUNDARY] + [Symbol.UNOCCUPIED] * 6
        with pytest.raises(ValueError):
            State(tuple(syms))

    def test_indexing(self):
        syms = tuple(Symbol(i % 6) for i in range(7))
        s = State(syms)
        assert s.ego is syms[0]
        for d in Direction:
            assert s.at(d) is syms[d]

    @given(st.lists(st.sampled_from(sorted(STORABLE)), min_size=1, max_size=1).flatmap(
        lambda ego: st.tuples(
            st.just(ego[0]),
            *[st.sampled_from(list(Symbol)) for _ in range(6)],
        )
    ))
    def test_key_round_trip(self, syms):
        s = State(syms)
        assert 0 <= s.key < 1 << 21
        assert State.from_key(s.key) == s

    def test_key_is_not_a_field_of_equality_or_repr(self):
        s = State((Symbol.UNOCCUPIED,) * 7)
        t = dataclasses.replace(s, symbols=(Symbol.UNOCCUPIED,) + (Symbol.ROTOR,) * 6)
        assert t.key == State.from_key(t.key).key == 0o1111115 != s.key
        assert repr(s) == f"State(symbols={s.symbols!r})"

    def test_labels_round_trip(self):
        s = State.from_labels(
            ["Unoccupied", "Fuselage", "Boundary", "Empty", "Rotor", "Wing", "Connector"]
        )
        assert s.ego is Symbol.UNOCCUPIED
        assert s.at(Direction.REAR) is Symbol.BOUNDARY
        assert State.from_labels([x.label for x in s.symbols]) == s


class TestGridConfig:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GridConfig(-1)

    def test_bounded_by_max_n_half(self):
        assert GridConfig(MAX_N_HALF).point_count == 33**3
        with pytest.raises(ValueError):
            GridConfig(MAX_N_HALF + 1)

    def test_contains(self):
        cfg = GridConfig(2)
        assert cfg.contains((2, -2, 0))
        assert not cfg.contains((3, 0, 0))
        assert not cfg.contains((0, 0, -3))

    def test_points_are_lexicographic_and_unique(self):
        pts = list(GridConfig(1).points())
        assert pts == sorted(pts)
        assert len(set(pts)) == 27
        assert pts[0] == (-1, -1, -1) and pts[-1] == (1, 1, 1)


class TestGrid:
    def test_starts_all_unoccupied(self):
        g = empty_grid(GridConfig(1))
        assert all(g.symbol_at(p) is Symbol.UNOCCUPIED for p in g.points())
        assert g.counts()[Symbol.UNOCCUPIED] == 27
        assert g.edges() == []
        assert g.audit() == []

    def test_set_and_read_back(self):
        canvas = Canvas(GridConfig(1), {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.ROTOR})
        g = canvas.grid
        assert g.symbol_at((0, 0, 0)) is Symbol.FUSELAGE
        assert g.symbol_at((1, 0, 0)) is Symbol.ROTOR
        assert g.symbol_at((0, 1, 0)) is Symbol.UNOCCUPIED
        canvas.rewrite((0, 1, 0), anywhere(Symbol.WING))  # the view sees the write
        assert g.symbol_at((0, 1, 0)) is Symbol.WING

    def test_rejects_out_of_grid(self):
        g = empty_grid(GridConfig(1))
        with pytest.raises(OutOfGridError):
            g.symbol_at((2, 0, 0))
        with pytest.raises(OutOfGridError):
            g.state_of((-2, 0, 0))

    def test_rejects_boundary_write(self):
        # No production writes Boundary, and audit flags a stored one.
        with pytest.raises(ValueError):
            Production(Symbol.BOUNDARY, Direction.EGO)
        g = Canvas(GridConfig(1), {(0, 0, 0): Symbol.BOUNDARY}).grid
        assert g.audit() == ["stored non-storable symbol Boundary"]

    def test_state_interior(self):
        g = Canvas(GridConfig(2), {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.ROTOR}).grid
        s = g.state_of((0, 0, 0))
        assert s.ego is Symbol.FUSELAGE
        assert s.at(Direction.FRONT) is Symbol.ROTOR
        assert s.at(Direction.REAR) is Symbol.UNOCCUPIED
        assert Symbol.BOUNDARY not in s.symbols

    def test_state_at_corner_has_boundary(self):
        g = empty_grid(GridConfig(1))
        s = g.state_of((-1, -1, -1))
        assert s.at(Direction.REAR) is Symbol.BOUNDARY
        assert s.at(Direction.LEFT) is Symbol.BOUNDARY
        assert s.at(Direction.BOTTOM) is Symbol.BOUNDARY
        assert s.at(Direction.FRONT) is Symbol.UNOCCUPIED
        assert s.at(Direction.RIGHT) is Symbol.UNOCCUPIED
        assert s.at(Direction.TOP) is Symbol.UNOCCUPIED

    def test_state_n_zero_is_all_boundary_around(self):
        g = empty_grid(GridConfig(0))
        s = g.state_of((0, 0, 0))
        assert s.ego is Symbol.UNOCCUPIED
        assert all(s.at(d) is Symbol.BOUNDARY for d in NEIGHBOR_DIRECTIONS)

    def test_add_edge_and_idempotence(self):
        symbols = {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.CONNECTOR}
        a, b = (0, 0, 0), (1, 0, 0)
        g = Canvas(GridConfig(1), symbols, ((a, b), (a, b), (b, a))).grid  # one edge, three times
        assert g.edges() == [(a, b)]
        assert g.audit() == []

    def test_copy_is_independent(self):
        symbols = {(0, 0, 0): Symbol.FUSELAGE}
        g = Canvas(GridConfig(1), symbols)
        h = Canvas(GridConfig(1), symbols)
        assert g.grid == h.grid
        h.rewrite((0, 0, 1), anywhere(Symbol.ROTOR, Direction.BOTTOM))
        assert symbols == {(0, 0, 0): Symbol.FUSELAGE}
        assert g.grid.symbol_at((0, 0, 1)) is Symbol.UNOCCUPIED
        assert g.grid.edges() == [] and h.grid.edges() == [((0, 0, 0), (0, 0, 1))]
        assert g.grid != h.grid

    def test_equality_compares_cells_and_edges(self):
        symbols = {(0, 0, 0): Symbol.FUSELAGE, (0, 0, 1): Symbol.ROTOR}
        edge = (((0, 0, 1), (0, 0, 0)),)
        g = Canvas(GridConfig(1), symbols, edge).grid
        assert g == Canvas(GridConfig(1), symbols, edge).grid
        assert g != Canvas(GridConfig(1), symbols).grid
        assert g != Canvas(GridConfig(1), {**symbols, (0, 0, 0): Symbol.ROTOR}, edge).grid
        assert g != Canvas(GridConfig(1, "1m"), symbols, edge).grid
        assert g.edges() == [((0, 0, 0), (0, 0, 1))]
        with pytest.raises(TypeError):
            hash(g)

    def test_audit_reports_broken_edges(self):
        symbols = {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.EMPTY, (1, 1, 0): Symbol.WING}
        # Cells 14-15 and 16-19 are 1 and ``side`` apart but wrap to the next row or plane.
        wraps = [(0, 0, 1), (0, 1, -1), (0, 1, 0), (1, -1, 0)]
        assert [GridConfig(1).index_of(p) for p in wraps] == [14, 15, 16, 19]
        symbols.update((p, Symbol.ROTOR) for p in wraps)
        for edge, problem in [
            (((0, 0, 0), (0, 0, 0)), "self-loop at (0, 0, 0)"),
            (((0, 0, 0), (1, 1, 0)), "joins non-adjacent points"),
            (((0, 0, 0), (1, 0, 0)), "edge endpoint (1, 0, 0) holds Empty"),
            (((0, 1, -1), (0, 0, 1)), "edge (0, 0, 1)-(0, 1, -1) joins non-adjacent points"),
            (((0, 1, 0), (1, -1, 0)), "edge (0, 1, 0)-(1, -1, 0) joins non-adjacent points"),
        ]:
            problems = Canvas(GridConfig(1), symbols, (edge,)).grid.audit()
            assert len(problems) == 1 and problem in problems[0]
        # Index pairs at either end of the cell store.
        cells = bytearray([Symbol.FUSELAGE]) * 27
        for edge, problem in [
            ((27, 5), "edge 27-5 leaves the grid"),
            ((5, 27), "edge 5-27 leaves the grid"),
            ((0, 0), "self-loop at (-1, -1, -1)"),
        ]:
            assert Grid(GridConfig(1), cells, {edge}).audit() == [problem]

    def test_audit_reports_unknown_symbol_codes(self):
        assert Grid(GridConfig(1), bytearray([9]) * 27, set()).audit() == [
            "stored unknown symbol code 9"
        ]
        cells = bytearray([Symbol.UNOCCUPIED]) * 27
        cells[13], cells[14] = Symbol.FUSELAGE, 7
        assert Grid(GridConfig(1), cells, {(13, 14)}).audit() == [
            "stored unknown symbol code 7",
            "edge endpoint (0, 0, 1) holds unknown symbol code 7",
        ]

    def test_counts(self):
        g = Canvas(
            GridConfig(1),
            {(0, 0, 0): Symbol.FUSELAGE, (1, 0, 0): Symbol.ROTOR, (0, 1, 0): Symbol.ROTOR},
        ).grid
        c = g.counts()
        assert c[Symbol.FUSELAGE] == 1
        assert c[Symbol.ROTOR] == 2
        assert c[Symbol.WING] == 0
        assert c[Symbol.UNOCCUPIED] == 24
        assert sum(c.values()) == 27
        assert sum(c[s] for s in NONTERMINALS) == 24
        assert g.component_points() == [
            ((0, 0, 0), Symbol.FUSELAGE),
            ((0, 1, 0), Symbol.ROTOR),
            ((1, 0, 0), Symbol.ROTOR),
        ]

    @given(
        st.lists(
            st.tuples(points_in(2), storable_symbols), min_size=0, max_size=30
        )
    )
    def test_writes_read_back_and_audit_clean(self, writes):
        latest = dict(writes)
        g = Canvas(GridConfig(2), latest).grid
        for p, s in latest.items():
            assert g.symbol_at(p) is s
        assert g.audit() == []

    @given(points_in(2), st.sampled_from(list(NEIGHBOR_DIRECTIONS)))
    def test_state_matches_pointwise_reads(self, p, d):
        g = Canvas(GridConfig(2), {(0, 0, 0): Symbol.FUSELAGE}).grid
        s = g.state_of(p)
        q = neighbor(p, d)
        if g.config.contains(q):
            assert s.at(d) is g.symbol_at(q)
        else:
            assert s.at(d) is Symbol.BOUNDARY


# The first output of this seed is 2**64 - 1 (found by inverting the
# SplitMix64 finaliser), which below(n) rejects for every n > 1.
REJECTED_FIRST = 0x31628AF67B2131AB

_M64 = (1 << 64) - 1


def reference_u64s(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64, one scalar finaliser call each."""
    out, state = [], seed & _M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def reference_below(values, n: int) -> int:
    """The README rule: draw again while v >= 2^64 - (2^64 mod n), then v mod n."""
    limit = (1 << 64) - ((1 << 64) % n)
    return next(v for v in values if v < limit) % n


class TestSplitMix64:
    def test_published_vectors_seed_zero(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_frozen_vectors_other_seeds(self):
        r = SplitMix64(42)
        assert [r.next_u64() for _ in range(4)] == [
            0xBDD732262FEB6E95,
            0x28EFE333B266F103,
            0x47526757130F9F52,
            0x581CE1FF0E4AE394,
        ]
        r = SplitMix64(0x123456789ABCDEF)
        assert r.next_u64() == 0x157A3807A48FAA9D
        assert r.next_u64() == 0xD573529B34A1D093

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    # 520 outputs cross the block boundaries after outputs 256 and 512.
    @given(st.sampled_from([0, REJECTED_FIRST, 2**64 - 1, -1]) | st.integers(0, 2**64 - 1))
    def test_block_stream_matches_scalar_finaliser(self, seed):
        draw, r = draws(seed), SplitMix64(seed)
        expected = reference_u64s(seed, 520)
        assert [draw() for _ in range(520)] == expected
        assert [r.next_u64() for _ in range(520)] == expected

    @pytest.mark.parametrize("n", [1, 3, 2**63 + 5, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("seed", [REJECTED_FIRST, 0, 99])
    def test_below_matches_readme_rule(self, n, seed):
        r, ref = SplitMix64(seed), iter(reference_u64s(seed, 2000))
        assert [r.below(n) for _ in range(40)] == [reference_below(ref, n) for _ in range(40)]
        # Both consumed the same draws.
        assert r.next_u64() == next(ref)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
    def test_below_in_range_and_deterministic(self, seed, n):
        a = SplitMix64(seed)
        b = SplitMix64(seed)
        va = [a.below(n) for _ in range(5)]
        vb = [b.below(n) for _ in range(5)]
        assert va == vb
        assert all(0 <= v < n for v in va)

    def test_below_rejects_nonpositive(self):
        r = SplitMix64(0)
        with pytest.raises(ValueError):
            r.below(0)
        with pytest.raises(ValueError):
            r.below(-3)

    def test_below_rejects_n_over_2_64(self):
        # Every draw would be rejected, so it would never return.
        with pytest.raises(ValueError):
            SplitMix64(0).below(2**64 + 1)

    def test_below_covers_small_range(self):
        r = SplitMix64(7)
        seen = {r.below(3) for _ in range(200)}
        assert seen == {0, 1, 2}

    def test_rejected_draw_is_redrawn(self):
        r, ref = SplitMix64(REJECTED_FIRST), SplitMix64(REJECTED_FIRST)
        assert ref.next_u64() == 2**64 - 1
        second = ref.next_u64()
        assert r.below(3) == second % 3 == 1
        assert r.next_u64() == ref.next_u64()

    def test_below_one_accepts_every_draw(self):
        r, ref = SplitMix64(REJECTED_FIRST), SplitMix64(REJECTED_FIRST)
        ref.next_u64()
        assert r.below(1) == 0
        assert r.next_u64() == ref.next_u64()

    def test_choice_index_weighted(self):
        r = SplitMix64(5)
        hits = [0, 0, 0]
        for _ in range(3000):
            hits[choice_index(r, [1, 2, 7])] += 1
        assert hits[0] < hits[1] < hits[2]
        assert sum(hits) == 3000
        with pytest.raises(ValueError):
            choice_index(r, [1, 0, 2])


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [2, "x"]}) == '{"a":[2,"x"],"b":1}'

    def test_hash_frozen(self):
        assert (
            canonical_hash({"b": 1, "a": [2, "x"]})
            == "bbb8e7667558a86d3622dafcc40ea84605d1835a87b06ee47ea8adac48be8d7a"
        )

    def test_rejects_floats_anywhere(self):
        with pytest.raises(ValueError):
            canonical_json(1.5)
        with pytest.raises(ValueError):
            canonical_json({"a": [1, {"b": 2.0}]})

    def test_key_order_is_irrelevant(self):
        assert canonical_hash({"x": 1, "y": 2}) == canonical_hash({"y": 2, "x": 1})

    @given(
        st.recursive(
            st.one_of(st.integers(), st.text(max_size=8), st.booleans(), st.none()),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=6), inner, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_canonical_text_parses_back_equal(self, obj):
        import json

        assert json.loads(canonical_json(obj)) == obj
