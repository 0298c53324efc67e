"""Bounded 3D symbol grid: directions, symbols, point states, and a read-only grid view.

The grid is a cube of side ``2 * n_half + 1`` centered on the origin. Every
in-grid point holds exactly one symbol; points outside the cube are reported
as the sentinel symbol ``Boundary`` when a neighborhood is read, but
``Boundary`` can never be stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from itertools import product

Point = tuple[int, int, int]

#: Largest accepted half-width (33**3 points). Grids are sized from untrusted
#: logs and designs, and an engine's tables cost about 1.2 KB per point.
MAX_N_HALF = 16


class OutOfGridError(Exception):
    """A point outside the configured cube was used where in-grid is required."""


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
_SYMBOLS = list(Symbol)  # indexed by code
_COMPONENT_CODES = frozenset(int(s) for s in COMPONENTS)
_STORABLE_CODES = frozenset(int(s) for s in STORABLE)


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

    def points(self) -> tuple[Point, ...]:
        """All in-grid points in lexicographic (x, y, z) order; point i is cell i."""
        return _points(self.n_half)

    def index_of(self, p: Point) -> int:
        """The cell index of the in-grid point ``p``."""
        n, side = self.n_half, self.side
        return ((p[0] + n) * side + (p[1] + n)) * side + (p[2] + n)


@cache
def _points(n_half: int) -> tuple[Point, ...]:
    """``GridConfig.points``, built once per grid size."""
    return tuple(product(range(-n_half, n_half + 1), repeat=3))


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


class Grid:
    """Read-only view of a bounded symbol grid plus an undirected edge set.

    Cells are a flat bytearray of symbol codes in lexicographic point order
    (cell i is ``config.points()[i]``); edges are ``(i, j)`` pairs of cell
    indices with ``i < j``, the form ``Engine.run`` makes them in. The view
    holds the cells and edges it is given and never writes to them.
    """

    __slots__ = ("config", "_cells", "_edges")

    def __init__(self, config: GridConfig, cells: bytearray, edges: set[tuple[int, int]]):
        self.config = config
        self._cells = cells
        self._edges = edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.config == other.config
            and self._cells == other._cells
            and self._edges == other._edges
        )

    def symbol_at(self, p: Point) -> Symbol:
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        return Symbol(self._cells[self.config.index_of(p)])

    def state_of(self, p: Point) -> State:
        """The state at ``p``: Boundary fills directions that leave the grid."""
        if not self.config.contains(p):
            raise OutOfGridError(f"point {p} is outside the grid")
        syms = [self.symbol_at(p)]
        for d in NEIGHBOR_DIRECTIONS:
            q = neighbor(p, d)
            syms.append(self.symbol_at(q) if self.config.contains(q) else Symbol.BOUNDARY)
        return State(tuple(syms))

    def edges(self) -> list[tuple[Point, Point]]:
        """All edges, sorted, each as a lexicographically ordered point pair."""
        pts = self.config.points()
        return [(pts[a], pts[b]) for a, b in sorted(self._edges)]

    def points(self) -> tuple[Point, ...]:
        return self.config.points()

    def counts(self) -> dict[Symbol, int]:
        """Occurrences of every storable symbol (zeros included)."""
        cells = self._cells
        return {s: cells.count(s) for s in sorted(STORABLE)}

    def component_points(self) -> list[tuple[Point, Symbol]]:
        """Points holding component symbols, lexicographic order."""
        return [
            (p, _SYMBOLS[c])
            for p, c in zip(self.points(), self._cells)
            if c in _COMPONENT_CODES
        ]

    def audit(self) -> list[str]:
        """Check every grid invariant; returns problem descriptions (empty = clean)."""
        cells, count = self._cells, self.config.point_count
        if len(cells) != count:
            return [f"cell store holds {len(cells)} entries, expected {count}"]
        problems = []
        for c in sorted(set(cells) - _STORABLE_CODES):
            kind = "non-storable symbol " if c < len(_SYMBOLS) else ""
            problems.append(f"stored {kind}{_label(c)}")
        pts = self.config.points()
        for a, b in self._edges:
            if not (0 <= a < count and 0 <= b < count):
                problems.append(f"edge {a}-{b} leaves the grid")
            elif a == b:
                problems.append(f"self-loop at {pts[a]}")
            else:
                p, q = pts[a], pts[b]
                if abs(p[0] - q[0]) + abs(p[1] - q[1]) + abs(p[2] - q[2]) != 1:
                    problems.append(f"edge {p}-{q} joins non-adjacent points")
                for end, c in ((p, cells[a]), (q, cells[b])):
                    if c not in _COMPONENT_CODES:
                        problems.append(f"edge endpoint {end} holds {_label(c)}")
        return problems


def _label(code: int) -> str:
    """The label of symbol ``code``; a code past the alphabet is named by its number."""
    return _SYMBOLS[code].label if code < len(_SYMBOLS) else f"unknown symbol code {code}"
