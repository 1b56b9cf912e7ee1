"""Bicolored graphs and game positions for Bipartite Influence.

The game is played on a properly 2-colored bipartite graph.  Black vertices
belong to Left, White vertices to Right.  A move picks a vertex of the
mover's color and removes its closed neighborhood together with any vertex of
the mover's color that the removal just isolated; the mover scores one point
per removed vertex (Left counts positive, Right negative).  Isolated vertices
never offer interaction, so positions keep the invariant that no alive vertex
is isolated: such vertices are converted into banked points for their owner
(the ``offset`` of a :class:`Position`).

Graphs are immutable and small (at most 128 vertices); alive sets are stored
as integer bitmasks, which keeps positions hashable and move generation
cheap.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import count
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 128

_uid_counter = count(1)


class VertexColor(Enum):
    BLACK = "B"
    WHITE = "W"

    @property
    def opponent(self) -> "VertexColor":
        return WHITE if self is BLACK else BLACK


BLACK = VertexColor.BLACK
WHITE = VertexColor.WHITE


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GroundGraph:
    """An immutable bicolored bipartite graph.

    Vertices are integers ``0..n-1``.  Every edge must join a Black vertex
    and a White vertex; self-loops are rejected and a duplicate edge is
    kept once.
    ``adj[v]`` masks the neighbors of ``v`` and ``two_step[v]`` the
    vertices two steps away, all of ``v``'s color.
    """

    __slots__ = (
        "name",
        "n",
        "colors",
        "adj",
        "black_mask",
        "white_mask",
        "full_mask",
        "uid",
        "two_step",
        "_edge_list",
        "_swapped",
    )

    def __init__(
        self,
        colors: Sequence[VertexColor],
        edges: Iterable[tuple[int, int]],
        name: str = "",
    ):
        n = len(colors)
        _check_capacity(n)
        self.name = name
        self.n = n
        self.colors = colors = tuple(colors)
        adj = [0] * n
        edge_list = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if colors[u] is colors[v]:
                raise ValueError(
                    f"edge ({u}, {v}) joins two {colors[u].value} vertices"
                )
            if adj[u] >> v & 1:
                continue  # duplicate edge
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edge_list.append((u, v) if u < v else (v, u))
        self.adj = tuple(adj)
        two_step = []
        for v in range(n):
            reach = 0
            for u in _bits(adj[v]):
                reach |= adj[u]
            two_step.append(reach & ~(1 << v))
        self.two_step = tuple(two_step)
        self._edge_list = tuple(sorted(edge_list))
        black = 0
        for i, c in enumerate(self.colors):
            if c is BLACK:
                black |= 1 << i
        self.black_mask = black
        self.full_mask = (1 << n) - 1
        self.white_mask = self.full_mask ^ black
        self.uid = next(_uid_counter)
        self._swapped = None

    def color(self, v: int) -> VertexColor:
        return self.colors[v]

    def color_mask(self, color: VertexColor) -> int:
        return self.black_mask if color is BLACK else self.white_mask

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edge_list

    @property
    def edge_count(self) -> int:
        return len(self._edge_list)

    def color_swapped(self) -> "GroundGraph":
        """The same graph with Black and White exchanged (the negative)."""
        if self._swapped is None:
            g = GroundGraph(
                [c.opponent for c in self.colors],
                self._edge_list,
                name=f"-{self.name}" if self.name else "",
            )
            g._swapped = self
            self._swapped = g
        return self._swapped

    def __repr__(self) -> str:
        label = self.name or f"graph#{self.uid}"
        return f"GroundGraph({label}, n={self.n}, m={self.edge_count})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "vertices": [
                {"id": i, "color": c.value} for i, c in enumerate(self.colors)
            ],
            "edges": [[u, v] for u, v in self._edge_list],
        }


def graph_from_json(data: dict) -> GroundGraph:
    """Parse the JSON graph format (see FORMATS.md)."""
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"graph object missing field: {exc}") from exc
    try:
        ids = [v["id"] for v in vertices]
        ids_ok = all(type(i) is int for i in ids) and sorted(ids) == list(range(len(ids)))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"bad graph vertex: {exc!r}") from exc
    if not ids_ok:
        raise ValueError("vertex ids must be exactly 0..n-1")
    colors: list[VertexColor] = [BLACK] * len(ids)
    for v in vertices:
        raw = v.get("color")
        if raw not in ("B", "W"):
            raise ValueError(f"bad color {raw!r} (expected 'B' or 'W')")
        colors[v["id"]] = BLACK if raw == "B" else WHITE
    if not isinstance(edges, list) or any(
            not isinstance(e, list) or [type(x) for x in e] != [int, int] for e in edges):
        raise ValueError("edges must be a list of [u, v] integer pairs")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"graph name must be a string, got {type(name).__name__}")
    return GroundGraph(colors, [tuple(e) for e in edges], name=name)


def load_graph(path) -> GroundGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("graph file is nested too deep") from None
    return graph_from_json(data)


# ---------------------------------------------------------------------------
# builders


def _check_capacity(n: int) -> None:
    """Reject a graph of ``n`` vertices, before a builder makes any edge."""
    if n > MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices, capacity is {MAX_VERTICES}")


def build_segment(n: int) -> GroundGraph:
    """Path on ``|n|`` vertices; the first vertex is Black iff ``n > 0``."""
    if n == 0:
        raise ValueError("segment parts must be nonzero")
    length = abs(n)
    _check_capacity(length)
    first = BLACK if n > 0 else WHITE
    colors = ([first, first.opponent] * length)[:length]
    edges = [(i, i + 1) for i in range(length - 1)]
    return GroundGraph(colors, edges, name=f"S_{n}")


def _lattice(rows: int, cols: int, wrap_rows: bool, wrap_cols: bool,
             name: str) -> GroundGraph:
    """Grid with vertex (i, j) at ``i * cols + j``, Black on even ``i + j``;
    a wrapped dimension also joins its last index to its first."""
    _check_capacity(rows * cols)
    colors = [BLACK if (i + j) % 2 == 0 else WHITE
              for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if wrap_cols or j + 1 < cols:
                edges.append((v, i * cols + (j + 1) % cols))
            if wrap_rows or i + 1 < rows:
                edges.append((v, ((i + 1) % rows) * cols + j))
    return GroundGraph(colors, edges, name=name)


def build_grid(rows: int, cols: int) -> GroundGraph:
    """Grid graph with checkerboard coloring, Black in the corner (0, 0)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be at least 1")
    return _lattice(rows, cols, False, False, f"G_{rows}x{cols}")


def build_cylinder(rows: int, cols: int) -> GroundGraph:
    """Grid whose rows wrap around (column cycles).  ``rows`` must be even
    so the wrap edge joins opposite colors, and at least 4 so the cycle is
    simple."""
    if rows % 2 != 0 or rows < 4:
        raise ValueError("cylinder needs an even number of rows, at least 4")
    if cols < 1:
        raise ValueError("cylinder needs at least one column")
    return _lattice(rows, cols, True, False, f"C_{rows}x{cols}")


def build_torus(rows: int, cols: int) -> GroundGraph:
    """Grid wrapping in both directions; both dimensions even and >= 4."""
    if rows % 2 != 0 or cols % 2 != 0 or rows < 4 or cols < 4:
        raise ValueError("torus needs even dimensions, both at least 4")
    return _lattice(rows, cols, True, True, f"T_{rows}x{cols}")


def build_hypercube(dim: int) -> GroundGraph:
    """Hypercube of dimension ``dim``; labels with odd bit parity are Black."""
    if dim < 1:
        raise ValueError("hypercube dimension must be at least 1")
    if dim >= MAX_VERTICES.bit_length():  # 1 << dim > MAX_VERTICES, without 1 << dim
        raise ValueError(f"graph has 2**{dim} vertices, capacity is {MAX_VERTICES}")
    n = 1 << dim
    colors = [BLACK if i.bit_count() % 2 == 1 else WHITE for i in range(n)]
    edges = []
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return GroundGraph(colors, edges, name=f"H_{dim}")


# ---------------------------------------------------------------------------
# positions


class Position:
    """An alive subset of a ground graph plus banked points.

    ``offset`` is the net score already settled (Left points minus Right
    points).  Positions are always stripped: no alive vertex is isolated.
    Use :meth:`make` to build one from an arbitrary alive mask.
    """

    __slots__ = ("ground", "alive", "offset")

    def __init__(self, ground: GroundGraph, alive: int, offset: int = 0):
        self.ground = ground
        self.alive = alive
        self.offset = offset

    @classmethod
    def make(cls, ground: GroundGraph, alive: int | None = None, offset: int = 0) -> "Position":
        """Build a position, stripping isolated vertices into the offset."""
        if alive is None:
            alive = ground.full_mask
        if alive & ~ground.full_mask:
            raise ValueError("alive mask has bits outside the graph")
        adj = ground.adj
        isolated = 0
        scan = alive
        while scan:  # one lowest set bit at a time
            low = scan & -scan
            scan ^= low
            if adj[low.bit_length() - 1] & alive == 0:
                isolated |= low
        if isolated:
            offset += (isolated & ground.black_mask).bit_count()
            offset -= (isolated & ground.white_mask).bit_count()
            alive &= ~isolated
        return cls(ground, alive, offset)

    @property
    def is_empty(self) -> bool:
        return self.alive == 0

    @property
    def vertex_count(self) -> int:
        return self.alive.bit_count()

    def alive_vertices(self) -> list[int]:
        return list(_bits(self.alive))

    def alive_of_color(self, color: VertexColor) -> int:
        return self.alive & self.ground.color_mask(color)

    def negated(self) -> "Position":
        return Position(self.ground.color_swapped(), self.alive, -self.offset)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Position)
            and self.ground is other.ground
            and self.alive == other.alive
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.ground.uid, self.alive, self.offset))

    def __repr__(self) -> str:
        return (
            f"Position({self.ground!r}, alive={self.alive:#x}, "
            f"offset={self.offset})"
        )


def strip_isolated(position: Position) -> Position:
    """Bank every isolated alive vertex for its owner.  Idempotent."""
    return Position.make(position.ground, position.alive, position.offset)


def _closure(adj: Sequence[int], two_step: Sequence[int], alive: int, v: int) -> int:
    """The mask a move at alive vertex ``v`` removes: ``v``, its alive
    neighbors, and every vertex of ``v``'s color whose alive neighborhood
    that just emptied.  In a stripped position only vertices two steps
    from ``v`` can lose their last neighbor, so only ``two_step[v]`` is
    scanned, one lowest set bit at a time."""
    removed = (1 << v) | (adj[v] & alive)
    rest = alive & ~removed
    scan = rest & two_step[v]
    while scan:
        low = scan & -scan
        scan ^= low
        if adj[low.bit_length() - 1] & rest == 0:
            removed |= low
    return removed


def removal_closure(position: Position, v: int) -> int:
    """The removed mask of playing alive vertex ``v`` (see :func:`_closure`)."""
    g = position.ground
    if not position.alive & 1 << v:
        raise ValueError(f"vertex {v} is not alive")
    return _closure(g.adj, g.two_step, position.alive, v)


def legal_moves(position: Position, color: VertexColor) -> list[int]:
    """The removed masks of ``color``'s moves, one per alive vertex of that
    color, in vertex order."""
    g = position.ground
    adj, two_step, alive = g.adj, g.two_step, position.alive
    out = []
    mine = alive & g.color_mask(color)
    while mine:
        low = mine & -mine
        mine ^= low
        out.append(_closure(adj, two_step, alive, low.bit_length() - 1))
    return out


def apply_move(position: Position, removed: int, color: VertexColor) -> Position:
    """Play a move of ``color`` that removes ``removed``: bank one point
    per removed vertex for the mover, drop the set, re-strip."""
    size = removed.bit_count()
    return Position.make(
        position.ground,
        position.alive & ~removed,
        position.offset + (size if color is BLACK else -size),
    )


def components(position: Position) -> list[Position]:
    """Connected components as offset-free positions."""
    g = position.ground
    adj = g.adj
    rest = position.alive
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:  # take one frontier vertex at a time
            v = frontier.bit_length() - 1
            grow = adj[v] & rest & ~comp
            comp |= grow
            frontier ^= (1 << v) | grow
        out.append(Position(g, comp, 0))
        rest &= ~comp
    return out


def segment_value(position: Position) -> int | None:
    """Signed segment length if the (connected) position is a path.

    Even paths read the same from both ends up to a color swap, so they are
    normalized to a positive value.  Returns None for non-paths.
    """
    g = position.ground
    adj = g.adj
    alive = position.alive
    n = alive.bit_count()
    if n < 2:
        return None
    edge_bits = 0
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        d = (adj[low.bit_length() - 1] & alive).bit_count()
        if d > 2:
            return None
        edge_bits += d
    if edge_bits != 2 * (n - 1):
        return None  # a cycle, not a tree
    if n % 2 == 0:
        return n
    # both ends of an odd path have its majority color
    return n if 2 * (alive & g.black_mask).bit_count() > n else -n


def disjoint_union(parts: Iterable[Position]) -> GroundGraph:
    """One ground graph of the alive vertices of ``parts``, renumbered in
    order.  Offsets are dropped."""
    colors: list[VertexColor] = []
    edges = []
    for p in parts:
        g, base = p.ground, len(colors)
        index = {v: base + i for i, v in enumerate(_bits(p.alive))}
        colors.extend(g.colors[v] for v in index)
        for v, i in index.items():
            edges.extend((i, index[w]) for w in _bits(g.adj[v] & p.alive) if w > v)
    return GroundGraph(colors, edges)


def canonical_key(position: Position) -> tuple:
    """Hashable key identifying a connected position up to isomorphism for
    path components, and exactly otherwise.  Equal keys imply equal scores.
    """
    seg = segment_value(position)
    if seg is not None:
        return ("seg", seg)
    return ("g", position.ground.uid, position.alive)
