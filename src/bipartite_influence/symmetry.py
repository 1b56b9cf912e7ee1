"""Draw certificates from color-swapping symmetries.

A color-swapping involutive automorphism whose orbit pairs sit at distance
at least 3 gives the second player a perfect mirror strategy: answering
``u`` with ``phi(u)`` removes exactly the image of the first removal, the
two removals never touch, and the board stays symmetric.  Every pair of
moves nets zero, so both game scores are 0 and the game is a draw.

The finder runs an exhaustive backtracking search over Black-to-White
pairings.  Deciding existence of such a mapping is as hard as graph
isomorphism in general, so the search carries an explicit node budget and
reports honestly when it runs out: found, proven absent, or budget
exhausted.  The solver also uses it to decide which components cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .graphs import BLACK, WHITE, GroundGraph, Position

if TYPE_CHECKING:
    from .solver import ScorePair, Solver

DEFAULT_SEARCH_BUDGET = 2_000_000
DEFAULT_SOLVE_LIMIT = 26  # most vertices ``certify_draw`` also solves exactly


def mirror_defect(g: GroundGraph, mapping: Sequence[int]) -> str | None:
    """The first mirror condition that ``mapping`` breaks on ``g``, named,
    or None for a mirror mapping.  The conditions are checked in order:
    a permutation of the vertices, an involution, a colour swap, an
    automorphism, and every vertex at distance at least 3 from its image."""
    n = g.n
    if len(mapping) != n or sorted(mapping) != list(range(n)):
        return "not a permutation"
    for v, w in enumerate(mapping):
        if mapping[w] != v:
            return f"not an involution: {v} maps to {w}, which maps to {mapping[w]}"
    for v, w in enumerate(mapping):
        if g.colors[w] is not g.colors[v].opponent:
            return f"no colour swap: {v} and {w} have the same colour"
    for u, v in g.edges:
        mu, mv = mapping[u], mapping[v]
        if not g.adj[mu] & (1 << mv):
            return f"not an automorphism: edge ({u},{v}) maps to non-edge ({mu},{mv})"
    for v, w in enumerate(mapping):
        if w == v or g.adj[v] & (1 << w) or g.adj[v] & g.adj[w]:
            return f"vertices {v} and {w} are closer than distance 3"
    return None


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "absent" | "budget"
    mapping: tuple[int, ...] | None
    nodes: int


def _signature(g: GroundGraph, v: int) -> tuple:
    return (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))


def find_bw(g: GroundGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Exhaustive backtracking search for a mirror mapping.

    Candidate images must swap color, match degree signatures, and sit at
    distance at least 3; partial assignments must already act as a graph
    automorphism.  Exhausting the space proves absence.
    """
    blacks = [v for v in range(g.n) if g.colors[v] is BLACK]
    whites = [v for v in range(g.n) if g.colors[v] is WHITE]
    if len(blacks) != len(whites):
        return SearchOutcome("absent", None, 0)
    if not blacks:
        return SearchOutcome("found", (), 0)

    sig = {v: _signature(g, v) for v in range(g.n)}
    candidates: dict[int, list[int]] = {}
    for b in blacks:
        cands = []
        for w in whites:
            if sig[b] != sig[w]:
                continue
            if g.adj[b] & (1 << w) or g.adj[b] & g.adj[w]:
                continue  # distance below 3
            cands.append(w)
        if not cands:
            return SearchOutcome("absent", None, 0)
        candidates[b] = cands

    assignment: dict[int, int] = {}
    used: set[int] = set()
    nodes = 0

    def viable(b: int) -> list[int]:
        out = []
        for w in candidates[b]:
            if w in used:
                continue
            ok = True
            for ub, uw in assignment.items():
                # phi must keep adjacency: edge(b, uw) <-> edge(w, ub)
                if bool(g.adj[b] & (1 << uw)) != bool(g.adj[w] & (1 << ub)):
                    ok = False
                    break
            if ok:
                out.append(w)
        return out

    def search() -> str | tuple[int, ...]:
        nonlocal nodes
        if len(assignment) == len(blacks):
            mapping = list(range(g.n))
            for b, w in assignment.items():
                mapping[b] = w
                mapping[w] = b
            return tuple(mapping)
        options = {b: viable(b) for b in blacks if b not in assignment}
        choice = min(options, key=lambda b: len(options[b]))
        for w in options[choice]:
            nodes += 1
            if nodes > budget:
                return "budget"
            assignment[choice] = w
            used.add(w)
            result = search()
            del assignment[choice]
            used.discard(w)
            if result == "budget" or isinstance(result, tuple):
                return result
        return "absent"

    result = search()
    if isinstance(result, tuple):
        bad = mirror_defect(g, result)
        assert bad is None, f"search produced an invalid mapping: {bad}"
        return SearchOutcome("found", result, nodes)
    return SearchOutcome(result, None, nodes)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyReport:
    status: str  # "found" | "absent" | "budget"
    mapping: tuple[int, ...] | None
    scores: ScorePair | None
    search_nodes: int

    @property
    def draw_certified(self) -> bool:
        return self.status == "found" and self.consistent

    @property
    def consistent(self) -> bool:
        """Solver agreement when both the certificate and scores exist."""
        if self.status != "found" or self.scores is None:
            return True
        return self.scores.ls == 0 and self.scores.rs == 0


def certify_draw(
    g: GroundGraph,
    budget: int = DEFAULT_SEARCH_BUDGET,
    solver: Solver | None = None,
    solve_limit: int = DEFAULT_SOLVE_LIMIT,
) -> CertifyReport:
    """Search for a mirror mapping and cross-check with exact scores.

    ``find_bw`` checks every mapping it returns against the mirror
    conditions.  The solver confirmation runs only when the graph is small
    enough to solve exactly; the certificate alone already proves the draw.
    """
    from .solver import Solver

    outcome = find_bw(g, budget)
    scores = None
    if g.n <= solve_limit:
        solver = solver or Solver()
        scores = solver.scores(Position.make(g))
    return CertifyReport(outcome.status, outcome.mapping, scores, outcome.nodes)
