"""Bounded 3D symbol grid: directions, symbols, point states, and grid mutations.

The grid is a cube of side ``2 * n_half + 1`` centered on the origin. Every
in-grid point holds exactly one symbol; points outside the cube are reported
as the sentinel symbol ``Boundary`` when a neighborhood is read, but
``Boundary`` can never be stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

Point = tuple[int, int, int]

#: Largest accepted half-width (33**3 points). Grids are sized from untrusted
#: logs and designs, and an engine's tables cost about 1.2 KB per point.
MAX_N_HALF = 16


class GridError(Exception):
    """Base class for grid-level failures (caller bugs, not data states)."""


class InternalInvariantError(Exception):
    """An invariant the engine itself guarantees was found broken (a bug)."""


class OutOfGridError(GridError):
    """A point outside the configured cube was used where in-grid is required."""


class BoundaryWriteError(GridError):
    """Attempt to store the Boundary sentinel at a grid point."""


class EdgeDirectionError(GridError):
    """add_edge called with the ego direction."""


class EdgeEndpointError(GridError):
    """add_edge would reach outside the grid."""


class EdgeSymbolError(GridError):
    """An edge endpoint does not hold a component symbol."""


class EdgeConsistencyError(GridError):
    """A symbol write would orphan existing edges at that point."""


class Direction(IntEnum):
    """The seven local directions: ego plus the six axis neighbors.

    Axis mapping is fixed: front=+x, rear=-x, right=+y, left=-y,
    top=+z, bottom=-z.
    """

    EGO = 0
    FRONT = 1
    REAR = 2
    LEFT = 3
    RIGHT = 4
    TOP = 5
    BOTTOM = 6

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def offset(self) -> Point:
        return _OFFSETS[self]

    @property
    def opposite(self) -> Direction:
        return _OPPOSITES[self]

    @classmethod
    def from_label(cls, label: str) -> Direction:
        try:
            return cls[label.upper()]
        except KeyError:
            raise KeyError(f"unknown direction {label!r}") from None


_OFFSETS: dict[Direction, Point] = {
    Direction.EGO: (0, 0, 0),
    Direction.FRONT: (1, 0, 0),
    Direction.REAR: (-1, 0, 0),
    Direction.RIGHT: (0, 1, 0),
    Direction.LEFT: (0, -1, 0),
    Direction.TOP: (0, 0, 1),
    Direction.BOTTOM: (0, 0, -1),
}

_OPPOSITES: dict[Direction, Direction] = {
    Direction.EGO: Direction.EGO,
    Direction.FRONT: Direction.REAR,
    Direction.REAR: Direction.FRONT,
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
    Direction.TOP: Direction.BOTTOM,
    Direction.BOTTOM: Direction.TOP,
}

#: Non-ego directions in canonical order.
NEIGHBOR_DIRECTIONS: tuple[Direction, ...] = tuple(d for d in Direction if d is not Direction.EGO)


class Symbol(IntEnum):
    """Grid alphabet: five terminals, one nonterminal, one sentinel.

    Terminals are final; the nonterminal Unoccupied is the only rewritable
    symbol. Boundary is engine-internal: it shows up in states taken at the
    grid border and may appear in rule contexts, but is never stored.
    """

    FUSELAGE = 0
    ROTOR = 1
    WING = 2
    CONNECTOR = 3
    EMPTY = 4
    UNOCCUPIED = 5
    BOUNDARY = 6

    @property
    def label(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_label(cls, label: str) -> Symbol:
        try:
            return _SYMBOLS_BY_LABEL[label]
        except KeyError:
            raise KeyError(f"unknown symbol {label!r}") from None

    @property
    def is_terminal(self) -> bool:
        return self in TERMINALS

    @property
    def is_nonterminal(self) -> bool:
        return self in NONTERMINALS

    @property
    def is_component(self) -> bool:
        return self in COMPONENTS


TERMINALS = frozenset(
    {Symbol.FUSELAGE, Symbol.ROTOR, Symbol.WING, Symbol.CONNECTOR, Symbol.EMPTY}
)
NONTERMINALS = frozenset({Symbol.UNOCCUPIED})
COMPONENTS = frozenset({Symbol.FUSELAGE, Symbol.ROTOR, Symbol.WING, Symbol.CONNECTOR})
#: Symbols that may be stored at a grid point.
STORABLE = TERMINALS | NONTERMINALS

_SYMBOLS_BY_LABEL = {s.label: s for s in Symbol}


@dataclass(frozen=True, slots=True)
class GridConfig:
    """Grid geometry: half-width in lattice units.

    ``unit`` is opaque metadata (e.g. a physical spacing like "0.25m") carried
    through serialization and never interpreted.
    """

    n_half: int
    unit: str | None = None

    def __post_init__(self) -> None:
        if type(self.n_half) is not int:
            raise TypeError(f"n_half must be an integer, got {self.n_half!r}")
        if self.unit is not None and type(self.unit) is not str:
            raise TypeError(f"unit must be a string or None, got {self.unit!r}")
        if not 0 <= self.n_half <= MAX_N_HALF:
            raise ValueError(f"n_half must be in [0, {MAX_N_HALF}], got {self.n_half}")

    @property
    def side(self) -> int:
        return 2 * self.n_half + 1

    @property
    def point_count(self) -> int:
        return self.side**3

    def contains(self, p: Point) -> bool:
        n = self.n_half
        x, y, z = p
        return -n <= x <= n and -n <= y <= n and -n <= z <= n

    def points(self) -> Iterator[Point]:
        """All in-grid points in lexicographic (x, y, z) order."""
        n = self.n_half
        rng = range(-n, n + 1)
        for x in rng:
            for y in rng:
                for z in rng:
                    yield (x, y, z)


def neighbor(p: Point, d: Direction) -> Point:
    """The point one lattice step from ``p`` in direction ``d`` (p itself for ego).

    Pure coordinate arithmetic; the result may lie outside any grid.
    """
    if d is Direction.EGO:
        return p
    dx, dy, dz = d.offset
    return (p[0] + dx, p[1] + dy, p[2] + dz)


@dataclass(frozen=True, slots=True)
class State:
    """The 7-tuple of symbols at a point: ego plus its six axis neighbors.

    Indexed by Direction. The ego entry is never Boundary; non-ego entries are
    Boundary exactly where the neighbor falls outside the grid. Concrete rule
    contexts reuse this type.
    """

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != 7:
            raise ValueError(f"state needs 7 symbols, got {len(self.symbols)}")
        if self.symbols[Direction.EGO] is Symbol.BOUNDARY:
            raise ValueError("ego symbol may not be Boundary")

    def at(self, d: Direction) -> Symbol:
        return self.symbols[d]

    @property
    def ego(self) -> Symbol:
        return self.symbols[Direction.EGO]

    @property
    def key(self) -> int:
        """Packed 21-bit encoding: 3 bits per direction in canonical order."""
        k = 0
        for i, s in enumerate(self.symbols):
            k |= s << (3 * i)
        return k

    @classmethod
    def from_key(cls, key: int) -> State:
        return cls(tuple(Symbol((key >> (3 * i)) & 7) for i in range(7)))

    def labels(self) -> list[str]:
        return [s.label for s in self.symbols]

    @classmethod
    def from_labels(cls, labels: list[str]) -> State:
        return cls(tuple(Symbol.from_label(x) for x in labels))


def _index_of(config: GridConfig, p: Point) -> int:
    n, side = config.n_half, config.side
    return ((p[0] + n) * side + (p[1] + n)) * side + (p[2] + n)


def _normalize_edge(p: Point, q: Point) -> tuple[Point, Point]:
    return (p, q) if p <= q else (q, p)


class Grid:
    """Mutable bounded symbol grid plus an undirected physical edge set.

    Cells are stored in a flat bytearray; edges as normalized point pairs.
    Plain value semantics: copy() gives an independent grid.
    """

    __slots__ = ("config", "_cells", "_edges")

    def __init__(self, config: GridConfig, cells: bytearray, edges: set[tuple[Point, Point]]):
        self.config = config
        self._cells = cells
        self._edges = edges

    @classmethod
    def empty(cls, config: GridConfig) -> Grid:
        """A fresh grid: every point Unoccupied, no edges."""
        return cls(config, bytearray([Symbol.UNOCCUPIED]) * config.point_count, set())

    def copy(self) -> Grid:
        return Grid(self.config, bytearray(self._cells), set(self._edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.config == other.config
            and self._cells == other._cells
            and self._edges == other._edges
        )

    def __hash__(self):  # mutable container
        raise TypeError("Grid is not hashable")

    def symbol_at(self, p: Point) -> Symbol:
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        return Symbol(self._cells[_index_of(self.config, p)])

    def set_symbol(self, p: Point, s: Symbol) -> None:
        """Store ``s`` at ``p``. Last write wins.

        Rewriting an edge endpoint to a non-component symbol is rejected: it
        would break the edge invariant without touching the edge set.
        """
        if s is Symbol.BOUNDARY:
            raise BoundaryWriteError(f"cannot store Boundary at {p}")
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        if s not in COMPONENTS and self._touches_edge(p):
            raise EdgeConsistencyError(f"point {p} has edges; only component symbols allowed")
        self._cells[_index_of(self.config, p)] = s

    def _touches_edge(self, p: Point) -> bool:
        return any(p in e for e in self._edges)

    def state_of(self, p: Point) -> State:
        """The state at ``p``: Boundary fills directions that leave the grid."""
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        syms = [self.symbol_at(p)]
        for d in NEIGHBOR_DIRECTIONS:
            q = neighbor(p, d)
            syms.append(self.symbol_at(q) if self.config.contains(q) else Symbol.BOUNDARY)
        return State(tuple(syms))

    def add_edge(self, p: Point, d: Direction) -> None:
        """Create the undirected edge between ``p`` and its ``d`` neighbor.

        Both endpoints must be in-grid component symbols. Idempotent.
        """
        if d is Direction.EGO:
            raise EdgeDirectionError("an edge needs a non-ego direction")
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        q = neighbor(p, d)
        if not self.config.contains(q):
            raise EdgeEndpointError(f"edge target {q} is outside the grid")
        for end in (p, q):
            if not self.symbol_at(end).is_component:
                raise EdgeSymbolError(
                    f"edge endpoint {end} holds {self.symbol_at(end).label}, not a component"
                )
        self._edges.add(_normalize_edge(p, q))

    def has_edge(self, p: Point, q: Point) -> bool:
        return _normalize_edge(p, q) in self._edges

    def cell_codes(self) -> bytes:
        """Every point's symbol code, lexicographic point order."""
        return bytes(self._cells)

    def edges(self) -> list[tuple[Point, Point]]:
        """All edges, sorted, each as a lexicographically normalized pair."""
        return sorted(self._edges)

    def edge_count(self) -> int:
        return len(self._edges)

    def points(self) -> Iterator[Point]:
        return self.config.points()

    def counts(self) -> dict[Symbol, int]:
        """Occurrences of every storable symbol (zeros included)."""
        out = {s: 0 for s in sorted(STORABLE)}
        for c in self._cells:
            out[Symbol(c)] += 1
        return out

    def nonterminal_count(self) -> int:
        return sum(1 for c in self._cells if Symbol(c) in NONTERMINALS)

    def component_points(self) -> list[tuple[Point, Symbol]]:
        """Points holding component symbols, lexicographic order."""
        return [(p, self.symbol_at(p)) for p in self.points() if self.symbol_at(p).is_component]

    def audit(self) -> list[str]:
        """Check every grid invariant; returns problem descriptions (empty = clean)."""
        problems: list[str] = []
        if len(self._cells) != self.config.point_count:
            problems.append(
                f"cell store holds {len(self._cells)} entries, expected {self.config.point_count}"
            )
        for c in set(self._cells):
            if Symbol(c) not in STORABLE:
                problems.append(f"stored non-storable symbol {Symbol(c).label}")
        for p, q in self._edges:
            if p == q:
                problems.append(f"self-loop at {p}")
                continue
            if not (self.config.contains(p) and self.config.contains(q)):
                problems.append(f"edge {p}-{q} leaves the grid")
                continue
            dist = sum(abs(a - b) for a, b in zip(p, q))
            if dist != 1:
                problems.append(f"edge {p}-{q} joins non-adjacent points")
            for end in (p, q):
                if not self.symbol_at(end).is_component:
                    problems.append(
                        f"edge endpoint {end} holds {self.symbol_at(end).label}"
                    )
        return problems

