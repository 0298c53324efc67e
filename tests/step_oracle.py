"""Reference derivation step: the rewrite semantics written plainly.

Tests fold ``step`` and check that ``Engine.run`` derives exactly the same
steps and grid. The oracle keeps its own cells and edge set in a ``Canvas``
and reads states through a ``core.Grid`` view of them. It rescans the whole
grid every step and selects rules with ``Rule.matches``, never the
engine's ``MatchTable``, so it stays out of the package. ``Canvas`` and
``empty_grid`` also build the grids of read-side tests, and
``engine_tables`` builds the engine's per-point tables point by point.
"""

from __future__ import annotations

from gridgram.core import NONTERMINALS, Direction, Grid, GridConfig, Point, State, Symbol, neighbor
from gridgram.generator import DerivationStep, GenerationConfig
from gridgram.grammar import Grammar, Rule
from gridgram.rng import SplitMix64


class Canvas:
    """Cells and an edge set owned by the caller, and the Grid view of them.

    Starts Unoccupied except for ``symbols``; ``edges`` are point pairs in
    either order, stored as the ``(i, j)`` cell index pairs, ``i < j``, that
    a ``Grid`` holds. Only ``rewrite`` changes it afterwards.
    """

    def __init__(
        self,
        config: GridConfig,
        symbols: dict[Point, Symbol] | None = None,
        edges: tuple[tuple[Point, Point], ...] = (),
    ):
        self._index = {p: i for i, p in enumerate(config.points())}
        self.cells = bytearray([Symbol.UNOCCUPIED]) * config.point_count
        for p, s in (symbols or {}).items():
            self.cells[self._index[p]] = s
        self.edges: set[tuple[int, int]] = set()
        for p, q in edges:
            self._add_edge(p, q)
        self.grid = Grid(config, self.cells, self.edges)

    def _add_edge(self, p: Point, q: Point) -> None:
        i, j = self._index[p], self._index[q]
        self.edges.add((i, j) if i <= j else (j, i))

    def rewrite(self, p: Point, rule: Rule) -> None:
        """Write ``rule``'s production at ``p``, checking its preconditions first.

        The rule must match the state at ``p``, and an edge target must lie
        inside the grid and hold a component; the canvas is untouched when a
        check fails. The ego side needs no check: ``p`` holds a nonterminal,
        so no edge touches it, and a production with an edge writes a
        component (``Production`` refuses Empty with a connection).
        """
        grid = self.grid
        assert rule.matches(grid.state_of(p)), f"rule {rule.name} does not match at {p}"
        prod = rule.production
        if prod.direction is not Direction.EGO:
            q = neighbor(p, prod.direction)
            assert grid.config.contains(q), f"rule {rule.name}: edge target {q} is outside"
            target = grid.symbol_at(q)
            assert target.is_component, f"rule {rule.name}: edge target {q} holds {target.label}"
            self._add_edge(p, q)
        self.cells[self._index[p]] = prod.symbol


# id(grammar) -> (grammar, {state: matching rules}); the grammar is kept so
# its id cannot be reused while the entry lives.
_MATCHING: dict[int, tuple[Grammar, dict[State, list[Rule]]]] = {}


def matching_rules(grammar: Grammar, state: State) -> list[Rule]:
    """Rules matching ``state``, in grammar order, memoized per grammar and state."""
    entry = _MATCHING.get(id(grammar))
    if entry is None:
        entry = _MATCHING[id(grammar)] = (grammar, {})
    memo = entry[1]
    rules = memo.get(state)
    if rules is None:
        rules = memo[state] = [r for r in grammar.rules if r.matches(state)]
    return rules


def frontier(grammar: Grammar, grid: Grid) -> list[Point]:
    """Rewritable points with at least one matching rule, lexicographic order."""
    return [
        p for p in grid.points()
        if grid.symbol_at(p) in NONTERMINALS and matching_rules(grammar, grid.state_of(p))
    ]


def choice_index(rng: SplitMix64, weights: list[int]) -> int:
    """Index into ``weights`` with probability proportional to each weight.

    Weights are positive integers so the draw stays exact.
    """
    total = sum(weights)
    if total <= 0 or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    v = rng.below(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if v < acc:
            return i
    raise AssertionError("unreachable: weight accumulation fell through")


def _choose_point(points: list[Point], strategy: str, rng: SplitMix64) -> Point:
    if strategy == "uniform-random-frontier":
        return points[rng.below(len(points))]
    if strategy == "scanline":
        return points[0]
    return min(points, key=lambda p: (p[0] * p[0] + p[1] * p[1] + p[2] * p[2], p))


def _choose_rule(rules: list[Rule], strategy: str, rng: SplitMix64) -> Rule:
    if strategy == "uniform-random":
        return rules[rng.below(len(rules))]
    if strategy == "weighted":
        return rules[choice_index(rng, [r.weight for r in rules])]
    return rules[0]


def step(
    grammar: Grammar,
    canvas: Canvas,
    gen_config: GenerationConfig,
    rng: SplitMix64,
    index: int = 0,
) -> DerivationStep | None:
    """One derivation step, rewriting ``canvas``; None when the frontier is empty.

    generate() is exactly a loop over this selection semantics (the batch
    engine is an optimized equivalent; tests hold them to the same outputs).
    """
    points = frontier(grammar, canvas.grid)
    if not points:
        return None
    p = _choose_point(points, gen_config.point_strategy, rng)
    pre = canvas.grid.state_of(p)
    rule = _choose_rule(matching_rules(grammar, pre), gen_config.rule_strategy, rng)
    canvas.rewrite(p, rule)
    return DerivationStep(index=index, point=p, rule_name=rule.name, pre_state=pre)


def empty_grid(config: GridConfig) -> Grid:
    """A fresh grid: every point Unoccupied, no edges."""
    return Grid(config, bytearray([Symbol.UNOCCUPIED]) * config.point_count, set())


def engine_tables(config: GridConfig):
    """``Engine``'s per-point tables, built point by point through ``neighbor``.

    Returns (the all-Unoccupied key per point; per point the (neighbor
    index, shift, clear mask) of each in-grid neighbor, in Direction order).
    """
    U, B = Symbol.UNOCCUPIED, Symbol.BOUNDARY
    base, updates = [], []
    for p in config.points():
        key = int(U)
        update = []
        for d in Direction:
            if d is Direction.EGO:
                continue
            q = neighbor(p, d)
            if config.contains(q):
                key |= U << (3 * d)
                update.append((config.index_of(q), 3 * d.opposite, ~(7 << (3 * d.opposite))))
            else:
                key |= B << (3 * d)
        base.append(key)
        updates.append(tuple(update))
    return base, updates
