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

from dataclasses import dataclass, replace
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
class CertifyReport:
    """The mirror search's answer; ``certify_draw`` adds exact scores."""

    status: str  # "found" | "absent" | "budget"
    mapping: tuple[int, ...] | None
    search_nodes: int
    scores: ScorePair | None = None

    @property
    def draw_certified(self) -> bool:
        return self.status == "found" and self.consistent

    @property
    def consistent(self) -> bool:
        """Solver agreement when both the certificate and scores exist."""
        if self.status != "found" or self.scores is None:
            return True
        return self.scores.ls == 0 and self.scores.rs == 0


class _OutOfBudget(Exception):
    pass


def _signature(g: GroundGraph, v: int) -> tuple:
    return (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))


def find_bw(g: GroundGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> CertifyReport:
    """Exhaustive backtracking search for a mirror mapping.

    Candidate images must swap color, match degree signatures, and sit at
    distance at least 3; partial assignments must already act as a graph
    automorphism.  Exhausting the space proves absence.
    """
    blacks = [v for v in range(g.n) if g.colors[v] is BLACK]
    whites = [v for v in range(g.n) if g.colors[v] is WHITE]
    if len(blacks) != len(whites):
        return CertifyReport("absent", None, 0)
    if not blacks:
        return CertifyReport("found", (), 0)

    sig = {v: _signature(g, v) for v in range(g.n)}
    candidates: dict[int, list[int]] = {}
    for b in blacks:
        # same signature, other colour, and at distance at least 3
        cands = [w for w in whites if sig[w] == sig[b]
                 and not (g.adj[b] & (1 << w) or g.adj[b] & g.adj[w])]
        if not cands:
            return CertifyReport("absent", None, 0)
        candidates[b] = cands

    mapping = list(range(g.n))  # a vertex is its own image until paired
    paired: list[int] = []  # the Black vertices paired so far
    nodes = 0

    def viable(b: int) -> list[int]:
        out = []
        for w in candidates[b]:
            if mapping[w] != w:
                continue
            for pb in paired:
                # phi must keep adjacency: edge(b, phi(pb)) <-> edge(w, pb)
                if bool(g.adj[b] & (1 << mapping[pb])) != bool(g.adj[w] & (1 << pb)):
                    break
            else:
                out.append(w)
        return out

    def search() -> bool:
        nonlocal nodes
        if len(paired) == len(blacks):
            return True
        options = {b: viable(b) for b in blacks if mapping[b] == b}
        choice = min(options, key=lambda b: len(options[b]))
        for w in options[choice]:
            nodes += 1
            if nodes > budget:
                raise _OutOfBudget
            mapping[choice], mapping[w] = w, choice
            paired.append(choice)
            if search():
                return True
            paired.pop()
            mapping[choice], mapping[w] = choice, w
        return False

    try:
        if not search():
            return CertifyReport("absent", None, nodes)
    except _OutOfBudget:
        return CertifyReport("budget", None, nodes)
    bad = mirror_defect(g, mapping)
    assert bad is None, f"search produced an invalid mapping: {bad}"
    return CertifyReport("found", tuple(mapping), nodes)


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

    report = find_bw(g, budget)
    if g.n > solve_limit:
        return report
    solver = solver or Solver()
    return replace(report, scores=solver.scores(Position.make(g)))
