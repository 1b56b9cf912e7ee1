"""Shared helpers: an independent reference solver, a plain minimax on
unions of segments, random graphs, a mirror replay oracle that plays out
every line under a mirror mapping's replies, and game-tree references
(play length, leaf scores, full trees expanded on whole positions and
summed over segment unions, comparisons read off the built difference
``g - h``, a universe audit that remembers nothing, and thermographs by
the tax-subtract-root-clamp chain).

The reference solver implements the game rules in their rawest form: a
move removes the played vertex and its alive neighbors, nothing else, and
isolated vertices stay on the board as ordinary one-point moves.  When the
player to move has nothing left, every remaining vertex is isolated and of
the opponent's color, and counts for its owner.  This is deliberately
independent of the package's closure-and-strip pipeline so that agreement
between the two is meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import Sequence

import pytest

from bipartite_influence.games import (
    Game,
    add,
    add_all,
    format_game,
    ls,
    negate,
    node,
    number,
    rs,
    simplify,
)
from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    _bits,
    apply_move,
    build_segment,
    legal_moves,
    removal_closure,
    strip_isolated,
)
from bipartite_influence import segments
from bipartite_influence.segments import segment_moves
from bipartite_influence.symmetry import mirror_defect
from bipartite_influence.thermo import (
    PiecewiseLinear,
    Thermograph,
    lower_envelope,
    upper_envelope,
)


def raw_score(ground: GroundGraph, alive: int, black_to_move: bool, memo=None) -> int:
    if memo is None:
        memo = {}
    key = (alive, black_to_move)
    hit = memo.get(key)
    if hit is not None:
        return hit
    mover_mask = alive & (ground.black_mask if black_to_move else ground.white_mask)
    if mover_mask == 0:
        blacks = (alive & ground.black_mask).bit_count()
        whites = (alive & ground.white_mask).bit_count()
        result = blacks - whites  # leftovers count for their owner
    else:
        best = None
        for v in _bits(mover_mask):
            removed = (1 << v) | (ground.adj[v] & alive)
            gain = removed.bit_count()
            if not black_to_move:
                gain = -gain
            val = gain + raw_score(ground, alive & ~removed, not black_to_move, memo)
            if best is None or (black_to_move and val > best) or (
                not black_to_move and val < best
            ):
                best = val
        result = best
    memo[key] = result
    return result


def raw_scores(ground: GroundGraph, alive: int | None = None) -> tuple[int, int]:
    if alive is None:
        alive = ground.full_mask
    memo: dict = {}
    return (
        raw_score(ground, alive, True, memo),
        raw_score(ground, alive, False, memo),
    )


def ref_removal_closure(position: Position, v: int) -> int:
    """The removed mask of playing ``v``, scanning every alive vertex of
    ``v``'s colour for one the removal isolated: the reference for
    ``removal_closure``, which scans only the vertices two steps away."""
    g = position.ground
    removed = (1 << v) | (g.adj[v] & position.alive)
    rest = position.alive & ~removed
    for w in _bits(rest & g.color_mask(g.colors[v])):
        if g.adj[w] & rest == 0:
            removed |= 1 << w
    return removed


_KEY = attrgetter("key")


def ref_cancel(new, others, negated) -> tuple:
    """``others`` with the solver records of ``new`` added one at a time in
    key order, each tested by ``negated(other, comp)`` against every record
    already there, first to last: the first that cancels it goes, and a
    record that cancels none is inserted and the list re-sorted by key.
    The all-pairs reference for ``Solver._cancel``, which looks up a path's
    one partner and tests any other piece only against the components that
    are not paths."""
    out = sorted(others, key=_KEY)
    for comp in sorted(new, key=_KEY):
        hit = next((i for i, other in enumerate(out) if negated(other, comp)), None)
        if hit is None:
            out = sorted(out + [comp], key=_KEY)
        else:
            del out[hit]
    return tuple(out)


_REF_SEGMENT_MEMO: dict[tuple[tuple[int, ...], bool], int] = {}


def ref_segment_black_score(parts) -> int:
    """Black-to-move score of a union of segments by plain minimax over
    ``segment_moves``: the multiset of signed parts is only sorted, never
    reduced or rewritten, and every move of every part is tried.  An
    independent reference for the segment engine's search."""
    return _ref_segment_score(tuple(sorted(parts)), True)


def _ref_segment_score(parts: tuple[int, ...], black: bool) -> int:
    key = (parts, black)
    hit = _REF_SEGMENT_MEMO.get(key)
    if hit is not None:
        return hit
    best = None
    for i, part in enumerate(parts):
        rest = parts[:i] + parts[i + 1 :]
        for count, remnants in segment_moves(part, black):
            val = _ref_segment_score(tuple(sorted(rest + remnants)), not black)
            val += count if black else -count
            if best is None or (val > best if black else val < best):
                best = val
    # a mover with no moves faces only single vertices of the other color,
    # and each counts for its owner
    result = sum(parts) if best is None else best
    _REF_SEGMENT_MEMO[key] = result
    return result


def random_ground(rng: random.Random, max_n: int = 10, p: float = 0.4) -> GroundGraph:
    n = rng.randint(1, max_n)
    colors = [BLACK if rng.random() < 0.5 else WHITE for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] is not colors[v] and rng.random() < p:
                edges.append((u, v))
    return GroundGraph(colors, edges, name=f"rand{n}")


def random_position(rng: random.Random, max_n: int = 10, p: float = 0.4) -> Position:
    g = random_ground(rng, max_n, p)
    if rng.random() < 0.3:
        alive = rng.getrandbits(g.n) & g.full_mask
    else:
        alive = g.full_mask
    return Position.make(g, alive)


def twin_classes(position: Position) -> list[list[int]]:
    """Group alive vertices by color and alive neighborhood.

    Twins are interchangeable: any removal set containing one contains the
    whole class, so they index symmetric moves.
    """
    g = position.ground
    groups: dict[tuple, list[int]] = {}
    for v in _bits(position.alive):
        key = (g.colors[v].value, g.adj[v] & position.alive)
        groups.setdefault(key, []).append(v)
    return sorted(groups.values())


def length(g: Game, memo: dict[int, int] | None = None) -> int:
    """Number of moves in the longest line of play."""
    if memo is None:
        memo = {}
    hit = memo.get(g.uid)
    if hit is None:
        hit = 0 if g.is_number else 1 + max(length(o, memo) for o in g.left + g.right)
        memo[g.uid] = hit
    return hit


def leaf_values(g: Game) -> set[Fraction]:
    """The set of final scores appearing in the tree."""
    seen: set[int] = set()
    out: set[Fraction] = set()

    def visit(sub: Game):
        if sub.uid in seen:
            return
        seen.add(sub.uid)
        if sub.is_number:
            out.add(sub.value)
        else:
            for o in sub.left + sub.right:
                visit(o)

    visit(g)
    return out


def whole_position_tree(position: Position):
    """The full game tree, every legal move an option, expanded move by
    move on the whole alive set, with no split into components, no sum of
    component trees and no simplification: the rule-free reference for
    ``Solver.tree`` and ``raw_union_tree``.
    Hash-consing makes equal trees the same object."""
    ground = position.ground
    memo = {}

    def tree(alive):
        if alive not in memo:
            base = Position(ground, alive, 0)
            sides = [
                [add(number(s.offset), tree(s.alive))
                 for s in (apply_move(base, m, color) for m in legal_moves(base, color))]
                for color in (BLACK, WHITE)
            ]
            memo[alive] = node(*sides) if alive else number(0)
        return memo[alive]

    position = strip_isolated(position)
    return add(number(position.offset), tree(position.alive))


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
    if bad := mirror_defect(g, mapping):
        return MirrorReport(0, 0, False, f"mapping fails the mirror conditions: {bad}")

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


def alive_position(rnd: random.Random, max_n: int, min_alive: int = 4) -> Position:
    """A random position that kept at least ``min_alive`` vertices.

    Sparse random graphs often collapse once isolated vertices are folded
    into the offset; resampling keeps the property suites on positions
    with actual play in them.
    """
    while True:
        pos = random_position(rnd, max_n=max_n)
        if pos.alive.bit_count() >= min_alive:
            return pos


def random_game(rnd: random.Random, max_n: int, min_alive: int = 4):
    return simplify(whole_position_tree(alive_position(rnd, max_n, min_alive)))


def full_union_tree(parts, offset=0):
    """The full tree of a segment union: the sum of the path graphs'
    ``whole_position_tree`` with no rewrite and no simplification, the
    rule-free reference for ``SegmentEngine.tree`` and ``raw_union_tree``."""
    return add(add_all([_path_tree(p) for p in parts]), number(offset))


@cache
def _path_tree(part: int) -> Game:
    return whole_position_tree(Position.make(build_segment(part)))


def ref_dominates(g: Game, h: Game) -> bool:
    """``g >= h`` read off the built difference: Rs(g - h) >= 0."""
    return rs(add(g, negate(h))) >= 0


def ref_equivalent(g: Game, h: Game) -> bool:
    """Equality in the universe read off the built difference: Ls = Rs = 0."""
    diff = add(g, negate(h))
    return ls(diff) == 0 and rs(diff) == 0


def ref_is_simplified(g: Game) -> bool:
    """No subtree of ``g`` has two comparable options on one side, so
    ``simplify`` would drop none; decided by ``ref_dominates``, without the
    verdicts that ``simplify`` keeps on the games."""
    seen: set[int] = set()
    stack = [g]
    while stack:
        sub = stack.pop()
        if sub.uid in seen:
            continue
        seen.add(sub.uid)
        for side in (sub.left, sub.right):
            for i, a in enumerate(side):
                if any(ref_dominates(a, b) or ref_dominates(b, a) for b in side[i + 1:]):
                    return False
        stack.extend(sub.left + sub.right)
    return True


def ref_audit_universe(g: Game) -> str | None:
    """The first zugzwang subtree of ``g`` in pre-order, described as
    ``games.audit_universe`` describes it, found by a fresh walk that skips
    subtrees it has seen and stores nothing on the games."""
    seen: set[int] = set()

    def visit(sub: Game) -> str | None:
        if sub.uid in seen:
            return None
        seen.add(sub.uid)
        if not sub.is_number:
            if ls(sub) < rs(sub):
                return (
                    f"zugzwang subtree {format_game(sub)}: "
                    f"Ls={ls(sub)} < Rs={rs(sub)}"
                )
            for o in sub.left + sub.right:
                bad = visit(o)
                if bad:
                    return bad
        return None

    return visit(g)


def ref_thermograph(g: Game, memo: dict[int, Thermograph] | None = None) -> Thermograph:
    """The thermograph by the taxed-wall chain, step by step on raw
    ``(start, a, b)`` pieces: tax each wall, subtract them, take the first
    root of the difference, clamp both walls there.  Only the envelopes
    are shared with ``thermo``; options are cooled by this reference."""
    memo = {} if memo is None else memo
    if g.uid in memo:
        return memo[g.uid]
    if g.is_number:
        flat = PiecewiseLinear.constant(g.value)
        memo[g.uid] = Thermograph(flat, flat, Fraction(0), Fraction(g.value))
        return memo[g.uid]

    def piece_at(pieces, t):
        return [p for p in pieces if p[0] <= t][-1]

    left = upper_envelope([ref_thermograph(o, memo).rs_trajectory for o in g.left])
    right = lower_envelope([ref_thermograph(o, memo).ls_trajectory for o in g.right])
    ls_taxed = [(s, a, b - 1) for s, a, b in left.pieces]
    rs_taxed = [(s, a, b + 1) for s, a, b in right.pieces]
    cuts = sorted({p[0] for p in ls_taxed + rs_taxed})
    gap = []
    for s in cuts:
        _, a1, b1 = piece_at(ls_taxed, s)
        _, a2, b2 = piece_at(rs_taxed, s)
        gap.append((s, a1 - a2, b1 - b2))
    for (s, a, b), end in zip(gap, cuts[1:] + [None]):
        if a + b * s == 0:
            sigma = s
            break
        if b != 0 and s < Fraction(-a, b) and (end is None or Fraction(-a, b) < end):
            sigma = Fraction(-a, b)
            break
    else:
        raise AssertionError(f"taxed walls of {format_game(g)} never meet")
    _, a, b = piece_at(ls_taxed, sigma)
    mast = a + b * sigma

    def clamped(pieces):
        return PiecewiseLinear([p for p in pieces if p[0] < sigma] + [(sigma, mast, 0)])

    memo[g.uid] = Thermograph(clamped(ls_taxed), clamped(rs_taxed), sigma, mast)
    return memo[g.uid]


@pytest.fixture
def rng():
    return random.Random(20260819)


@pytest.fixture
def fresh_trees(monkeypatch):
    """Empty segment tree tables for one test, so every engine it makes
    builds its trees afresh instead of reading what earlier tests built;
    the tables the process had come back afterwards."""
    for use_rewrite in (True, False):
        monkeypatch.setitem(segments._TREES, use_rewrite, {})
    return segments._TREES


ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance scorecard where capture cannot swallow it."""
    del exitstatus, config
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def _rows(start, ls_values, rs_values):
    return [
        (start + i, ls_v, rs_v)
        for i, (ls_v, rs_v) in enumerate(zip(ls_values, rs_values))
    ]


# Exact single-segment scores, frozen from independent recomputation.  The
# first forty rows were additionally cross-checked against the generic
# solver on the path graphs; sizes 41 to 120 settle into alternating Left
# scores 3/2 with spikes of 5 at 77 and 117, over a Right period of four.
FROZEN_TABLE_120 = (
    _rows(
        1,
        [1, 2, 3, 4, 5, 2, 1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 3, 2, 3, 2],
        [1, -2, -3, -4, -1, -2, -3, -2, -1, -2, -3, -2, -1, -4, -3, -2, -1,
         -2, -3, -2],
    )
    + _rows(
        21,
        [5, 4, 3, 2, 3, 2, 3, 2, 5, 4, 3, 2, 3, 2, 3, 2, 5, 2, 3, 2],
        [-1, -4, -3, -2, -1, -2, -3, -2, -1, -4, -3, -2, -1, -2, -3, -2, -1,
         -2, -3, -2],
    )
    + [
        (n, 5 if n in (77, 117) else (3 if n % 2 else 2),
         [-1, -2, -3, -2][(n - 41) % 4])
        for n in range(41, 121)
    ]
)

FROZEN_TABLE_38 = FROZEN_TABLE_120[:38]

# Rows 121 to 140, computed by ``table --max 140 --no-cache`` under both the
# most-vertices-first and the net-gain move order, with equal CSVs: they
# carry on the pattern of rows 41 to 120, with no spike.
FROZEN_ROWS_121_140 = [
    (n, 3 if n % 2 else 2, [-1, -2, -3, -2][(n - 41) % 4])
    for n in range(121, 141)
]
