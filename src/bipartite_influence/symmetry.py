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

from .graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    apply_move,
    legal_moves,
    removal_closure,
)

if TYPE_CHECKING:
    from .solver import ScorePair, Solver

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class BWConditionReport:
    involution_ok: bool
    color_swap_ok: bool
    automorphism_ok: bool
    distance_ok: bool
    detail: str | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.involution_ok
            and self.color_swap_ok
            and self.automorphism_ok
            and self.distance_ok
        )


def bw_condition_report(g: GroundGraph, mapping: Sequence[int]) -> BWConditionReport:
    """Check each requirement on a candidate vertex mapping separately."""
    n = g.n
    if len(mapping) != n or sorted(mapping) != list(range(n)):
        return BWConditionReport(False, False, False, False, "not a permutation")
    detail = None
    involution = all(mapping[mapping[v]] == v for v in range(n))
    color_swap = all(g.colors[mapping[v]] is g.colors[v].opponent for v in range(n))
    automorphism = True
    for u, v in g.edges:
        mu, mv = mapping[u], mapping[v]
        if not g.adj[mu] & (1 << mv):
            automorphism = False
            detail = f"edge ({u},{v}) maps to non-edge ({mu},{mv})"
            break
    distance = True
    for v in range(n):
        w = mapping[v]
        if w == v or g.adj[v] & (1 << w) or g.adj[v] & g.adj[w]:
            distance = False
            if detail is None:
                detail = f"vertices {v} and {w} are closer than distance 3"
            break
    return BWConditionReport(involution, color_swap, automorphism, distance, detail)


def verify_bw(g: GroundGraph, mapping: Sequence[int]) -> bool:
    return bw_condition_report(g, mapping).all_ok


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
        report = bw_condition_report(g, result)
        assert report.all_ok, f"search produced an invalid mapping: {report}"
        return SearchOutcome("found", result, nodes)
    return SearchOutcome(result, None, nodes)


# ---------------------------------------------------------------------------
# mirror-strategy simulation


@dataclass(frozen=True)
class MirrorReport:
    lines_checked: int
    states_checked: int
    ok: bool
    detail: str | None = None


def mirror_strategy_audit(g: GroundGraph, mapping: Sequence[int]) -> MirrorReport:
    """Replay every first-player line with mirrored replies.

    At each step the reply removal must be the exact image of the first
    removal and disjoint from it, and every completed line must end with
    score 0.  Transposed boards are checked once.
    """
    if not verify_bw(g, mapping):
        return MirrorReport(0, 0, False, "mapping fails the mirror conditions")

    def map_mask(mask: int) -> int:
        out = 0
        v = 0
        while mask:
            if mask & 1:
                out |= 1 << mapping[v]
            mask >>= 1
            v += 1
        return out

    lines = 0
    seen: set[int] = set()
    full = Position.make(g)
    if full.offset != 0:
        return MirrorReport(0, 0, False, "isolated vertices break the symmetry")

    def explore(pos: Position) -> str | None:
        nonlocal lines
        if pos.alive in seen:
            return None
        seen.add(pos.alive)
        if pos.is_empty:
            lines += 1
            if pos.offset != 0:
                return f"line ended with score {pos.offset}"
            return None
        for mover in (BLACK, WHITE):
            mine = [v for v in pos.alive_vertices() if g.colors[v] is mover]
            for u, removed in zip(mine, legal_moves(pos, mover)):
                after = apply_move(pos, removed, mover)
                reply_vertex = mapping[u]
                if not after.alive & (1 << reply_vertex):
                    return f"mirror reply {reply_vertex} to {u} is gone"
                reply = removal_closure(after, reply_vertex)
                if reply != map_mask(removed):
                    return (
                        f"reply removal to {u} is not the mirror image "
                        f"of the first removal"
                    )
                if reply & removed:
                    return f"removals around {u} overlap"
                done = apply_move(after, reply, mover.opponent)
                if done.offset != pos.offset:
                    return f"move pair around {u} did not net zero"
                bad = explore(done)
                if bad:
                    return bad
        return None

    detail = explore(full)
    return MirrorReport(lines, len(seen), detail is None, detail)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyReport:
    status: str  # "found" | "absent" | "budget"
    mapping: tuple[int, ...] | None
    conditions: BWConditionReport | None
    scores: ScorePair | None
    search_nodes: int

    @property
    def draw_certified(self) -> bool:
        return self.status == "found" and (
            self.scores is None or (self.scores.ls == 0 and self.scores.rs == 0)
        )

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
    solve_limit: int = 26,
) -> CertifyReport:
    """Search for a mirror mapping and cross-check with exact scores.

    The solver confirmation runs only when the graph is small enough to
    solve exactly; the certificate alone already proves the draw.
    """
    from .solver import Solver

    outcome = find_bw(g, budget)
    conditions = None
    scores = None
    if outcome.status == "found":
        conditions = bw_condition_report(g, outcome.mapping)
    if g.n <= solve_limit:
        solver = solver or Solver()
        scores = solver.scores(Position.make(g))
    return CertifyReport(
        outcome.status, outcome.mapping, conditions, scores, outcome.nodes
    )

