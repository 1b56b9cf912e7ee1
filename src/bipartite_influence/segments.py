"""Fast exact scores for disjoint unions of segments.

A segment ``S_n`` is a path on ``|n|`` vertices whose first vertex is Black
when ``n > 0`` and White when ``n < 0``.  Sums of segments close under play:
every move removes two to five consecutive vertices and leaves at most two
shorter segments.  This module evaluates such sums with a dedicated engine
whose transposition keys are aggressively reduced.  ``SegmentEngine._reduce``
is the one place keys are made.  It inserts the parts one by one into a
sorted key.  Each part reads one rule, a tuple of ``(partner,
replacement, points)`` triples: the first triple whose partner is in the
key (which it leaves) or is ``None`` replaces the part by the replacement
parts plus banked points, and a part that fires none joins the key:

* a single Black or White vertex is banked as a point, not a part;
* an even segment reads the same from either end up to a color swap, so
  even parts are stored positive, and a pair of equal even parts (each the
  other's negative) cancels, as does an odd pair ``{n, -n}``;
* a part of size ``4k + 2 > 2`` scores like the union of ``S_4k`` and
  ``S_2``, so it is split before lookup, which collapses the state space
  enough to push tables well past one hundred vertices;
* a few further exact equivalences (``_SINGLE_RULES``, ``_PARTNER_RULES``)
  replace parts by smaller parts plus banked points.

The engine generates the children of ``solver.ZeroWindowSearch``, the
zero-window search the board solver runs too: MTD(f) passes of fail-soft
negamax from Black's seat.  ``scores`` and ``tree`` reduce the parts once
and hand the key to the search's root helpers, which read White's seat off
the key's sorted mirror: the mirror of a reduced key is reduced.  Moves are
tried largest net gain first: the vertices a move pockets less what its
remnants bank when reduced on their own, so a move whose remnants a rule
rewrites for points comes before a move that pockets as many; among equal
net gains, the move that pockets fewer vertices comes first.  A part's
move list is kept ready to sort, each move carrying one integer rank for
that order, the part's image in the mirror and the move's remnants, so an
expansion only gathers and sorts the lists of its distinct parts.  A
child's key is the parent's sorted mirror less the moved part's image,
with only the move's remnants reduced into it; that base is sliced and
the remnants reduced only when the search reaches the move, so the
children a cutoff skips cost nothing.
Proven scores go in the memo, which is what the cache file holds; bounds
that have not met stay in memory only.
Each caller makes its own engine, so no search state lives for the whole
process.

Everything the rewrite relies on is an equality of games, hence preserved
under sums, so ``SegmentEngine.tree`` builds game trees on the same keys,
by the search's tree loop; ``raw_union_tree`` builds the full tree, every
move an option, with no rule at all.  Every engine of one rewrite mode
keeps its trees in one table of ``_TREES``, so a tree is built once per
process; rules and move lists are shared the same way.
The test suite cross-checks the engine against the generic graph solver,
against a rewrite-free twin (for the rules), against a plain minimax with
no reduction and no cutoffs (for the search), and against full trees.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .games import Game, add, add_all, node, number
from .solver import ScorePair, ZeroWindowSearch

CACHE_FORMAT = "bipartite-influence-segment-cache"
CACHE_VERSION = 1


@dataclass(frozen=True)
class SegmentSum:
    """A disjoint union of segments plus banked points."""

    parts: tuple[int, ...]
    offset: int = 0

    def __init__(self, parts: Iterable[int] = (), offset: int = 0):
        parts = tuple(sorted(parts))
        if any(p == 0 for p in parts):
            raise ValueError("segment parts must be nonzero")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "offset", offset)

    def __repr__(self) -> str:
        return f"SegmentSum({list(self.parts)}, offset={self.offset})"


# ---------------------------------------------------------------------------
# move arithmetic


def segment_moves(
    part: int, mover_black: bool, prune: bool = False
) -> list[tuple[int, tuple[int, ...]]]:
    """All moves of one player on a single segment.

    Returns ``(count, remnants)`` pairs: the number of vertices the mover
    pockets and the segments left behind.  Positions are numbered from the
    signed end; playing position ``i`` removes ``i`` with its neighbors,
    plus a length-one leftover next to the gap, which always carries the
    mover's color.  With ``prune``, the extremities of a segment of size
    four or more are skipped: playing one removes a strict subset of what
    the same player removes two steps in, so those moves are dominated.
    """
    size = abs(part)
    first_black = part > 0
    edge = 1 if prune and size >= 4 else 0
    moves = []
    for i in range(1 + edge, size + 1 - edge):
        pos_black = first_black if i % 2 == 1 else not first_black
        if pos_black != mover_black:
            continue
        lo = max(1, i - 1)
        hi = min(size, i + 1)
        count = hi - lo + 1
        left_len = i - 2
        right_len = size - i - 1
        if left_len == 1:
            count += 1
            left_len = 0
        if right_len == 1:
            count += 1
            right_len = 0
        remnants = []
        if left_len >= 2:
            remnants.append(left_len if first_black else -left_len)
        if right_len >= 2:
            remnants.append(right_len if mover_black else -right_len)
        moves.append((count, tuple(remnants)))
    return moves


# ---------------------------------------------------------------------------
# the engine


# Score-preserving substitutions beyond the 4k + 2 split, each an exact
# equivalence of games (difference has both scores zero) and therefore safe
# inside any disjoint union.  The test suite re-derives every line against
# the rewrite-free engine.  _SINGLE_RULES maps one part to replacement
# parts plus banked points; _PARTNER_RULES fires when the inserted part
# meets a matching resident, consuming both.  Parts and partners are
# oriented (odd, or even and positive): _reduce orients before lookup.
_SINGLE_RULES: dict[int, tuple[tuple[int, ...], int]] = {
    9: ((2,), 1),
    -9: ((2,), -1),
    13: ((2, 4), 1),
    -13: ((2, 4), -1),
    -3: ((3,), 0),  # a three-segment is its own negative
}

_PARTNER_RULES: dict[int, tuple[tuple[int, tuple[int, ...], int], ...]] = {
    3: ((3, (), 0),),
    5: ((-5, (), 0), (5, (2,), 2), (2, (-5,), 2)),
    -5: ((5, (), 0), (-5, (2,), -2), (2, (5,), -2)),
    2: ((2, (), 0), (5, (-5,), 2), (-5, (5,), -2)),
}


# A reduced key's game depends only on the key and the rewrite mode, so
# every engine of one mode reads and fills one tree table, which lives as
# long as the interned games it points to.  A part's rule and move list
# depend only on the part and the mode, so they are shared the same way.
_TREES: dict[bool, dict] = {True: {}, False: {}}
_RULES: dict[bool, dict[int, tuple]] = {True: {}, False: {}}
_MOVES: dict[bool, dict[int, tuple]] = {True: {}, False: {}}


class SegmentEngine(ZeroWindowSearch):
    """The zero-window search of ``solver`` over canonical segment multisets.

    Everything is evaluated from the Black mover's seat: flipping the sign
    of every odd part mirrors the position, so the White-to-move score of a
    multiset is minus the Black-to-move score of its mirror.  A node is a
    ``_reduce`` key, and the memo maps it straight to that Black score.  It
    holds proven scores only: every queried key, and every key whose
    ``[lower, upper]`` bounds in ``table.bounds`` met during a search,
    leaving that dict.  Entries are final and inserts are idempotent, so one
    engine can be shared, and ``save`` writes the memo alone.  With
    ``use_rewrite=False`` the engine keeps only banking, orientation and
    pair cancellation, skipping the ``4k + 2`` split and the rule tables, and
    serves as an independent oracle for them; it shares the search.
    Memo and bounds belong to the engine; its mode's rules, move lists and
    trees go in the mode's tables in ``_RULES``, ``_MOVES`` and ``_TREES``,
    which outlive it.
    """

    def __init__(self, use_rewrite: bool = True):
        super().__init__()
        self.use_rewrite = use_rewrite
        self._rules = _RULES[use_rewrite]
        self._moves = _MOVES[use_rewrite]
        self._trees = _TREES[use_rewrite]
        # The odd part a mirror leaves alone: with rewriting on, -3 becomes 3
        # for no points, so a key holds 3, never -3.  No part is 0.
        self._still = 3 if use_rewrite else 0

    # -- scores and trees --------------------------------------------------

    def scores(self, s: SegmentSum) -> ScorePair:
        core, shift = self._reduce(s.parts)
        return self._pair(core, s.offset + shift)

    def tree(self, s: SegmentSum) -> Game:
        """The game tree of ``s``, built on the memo keys and simplified."""
        core, shift = self._reduce(s.parts)
        return self._game(core, s.offset + shift)

    def _other_seat(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """The sorted mirror of the reduced ``key``: flipping every odd part
        swaps the colours, which negates the game.  Every rule of
        ``_reduce`` reads the same after the flip, save ``-3 -> 3``, which
        banks nothing; so with the 3 left as it is, the mirror of a reduced
        key is reduced, banks nothing, and only needs sorting."""
        still = self._still
        return tuple(sorted([-p if p & 1 and p != still else p for p in key]))

    def _move_list(self, part: int) -> tuple:
        """Black's undominated moves on one part, up to reflection, as
        entries ``(rank, count, image, remnants)`` ready for ``_children``
        to extend and sort.  ``net`` is ``count`` less what the remnants
        bank when reduced on their own, and ``rank = count - 8 * net``
        orders moves by ``(-net, count)``, as no move pockets eight
        vertices.  ``image`` is the part in the sorted mirror of a key
        holding it; the remnants are stored mirrored, as the child, in
        which White moves, is seen from Black's seat.  Entries are in rank
        order; moves of equal rank keep the order of their remnants before
        mirroring."""
        cached = self._moves.get(part)
        if cached is None:
            still = self._still
            image = -part if part & 1 and part != still else part
            moves = []
            for count, rem in sorted({(count, tuple(sorted(rem)))
                                      for count, rem in segment_moves(part, True, prune=True)}):
                rem = tuple([-r if r & 1 and r != still else r for r in rem])
                net = count - self._reduce(rem)[1]
                moves.append((count - 8 * net, count, image, rem))
            moves.sort(key=itemgetter(0))
            self._moves[part] = cached = tuple(moves)
        return cached

    def _rule(self, r: int) -> tuple:
        """The ``(partner, replacement, points)`` triples of an oriented
        part.  A single vertex is a point in both modes.  With rewriting
        on, ``_SINGLE_RULES``, the ``4k + 2`` split and ``_PARTNER_RULES``
        come next; any other part cancels its negative."""
        if r == 1 or r == -1:
            rule = ((None, (), r),)
        elif self.use_rewrite and r in _SINGLE_RULES:
            rule = ((None, *_SINGLE_RULES[r]),)
        elif self.use_rewrite and r & 3 == 2 and r > 2:
            rule = ((None, (r - 2, 2), 0),)
        elif self.use_rewrite and r in _PARTNER_RULES:
            rule = _PARTNER_RULES[r]
        else:
            # a pair of equal evens or opposite odds cancels
            rule = ((r if r & 1 == 0 else -r, (), 0),)
        self._rules[r] = rule
        return rule

    def _reduce(self, values, key: tuple[int, ...] = ()) -> tuple[tuple[int, ...], int]:
        """Fold ``values`` into the sorted, reduced ``key``: the engine's
        memo key of both, plus banked points.

        Inserts the values into the key one by one, smallest first and a
        replacement as soon as it is made.  A part is oriented (even parts
        positive), then fires the first triple of its ``_rule`` that can,
        or stays.  Every firing shrinks the multiset, or flips a lone
        negative three, so this terminates; the result depends only on the
        multiset of ``key`` and ``values``, not on their order.
        """
        rules = self._rules
        out = list(key)
        delta = 0
        stack = sorted(values, reverse=True)
        while stack:
            r = stack.pop()
            if r < 0 and r & 1 == 0:
                r = -r
            for partner, repl, c in rules.get(r) or self._rule(r):
                if partner is not None:
                    j = bisect_left(out, partner)
                    if j == len(out) or out[j] != partner:
                        continue
                    del out[j]
                delta += c
                stack.extend(repl)
                break
            else:
                insort(out, r)
        return tuple(out), delta

    def _bound(self, parts: tuple[int, ...]) -> int:
        return sum(map(abs, parts))

    def _children(self, parts: tuple[int, ...]) -> Iterator[tuple]:
        """Black's moves in ``rank`` order of ``_move_list``: largest net
        gain first and, among equal net gains, smallest count first; a
        stable sort keeps ties in part order.  Each leaves a key mirrored to
        Black's seat.  The sorted mirror of ``parts`` less the moved part's
        image is reduced already, so a child's key is that base with the
        move's remnants reduced into it.  The base is sliced and the
        remnants reduced only when the search reaches the move."""
        mirrored = self._other_seat(parts)
        moves = []
        for i, part in enumerate(parts):
            if i and parts[i - 1] == part:
                continue  # identical part, identical moves
            moves.extend(self._move_list(part))
        moves.sort(key=itemgetter(0))
        for _, count, image, remnants in moves:
            j = bisect_left(mirrored, image)
            core, shift = self._reduce(remnants, mirrored[:j] + mirrored[j + 1 :])
            yield count - shift, core

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        payload = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "rewrite": self.use_rewrite,
            "entries": [[list(parts), v] for parts, v in self.memo.items()],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self, path) -> int:
        """Merge a cache file into the memo; returns entries loaded.

        A file that is not a well-formed cache for this engine's rewrite
        mode raises ``ValueError`` and leaves the memo untouched.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError("cache file is nested too deep") from None
        if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
            raise ValueError("not a segment cache file")
        if data.get("version") != CACHE_VERSION:
            raise ValueError(
                f"cache version {data.get('version')} not supported"
            )
        if data.get("rewrite") != self.use_rewrite:
            raise ValueError("cache was built with a different rewrite mode")
        try:
            entries = {tuple(parts): value for parts, value in data["entries"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed cache entries: {exc}") from exc
        if not all(type(value) is int for value in entries.values()):
            raise ValueError("malformed cache entries: non-integer score")
        # A ``_reduce`` key has integer parts of two or more vertices, so its
        # vertex count, which bounds its score, is at least twice its length.
        if not {int}.issuperset(map(type, chain.from_iterable(entries))):
            raise ValueError("malformed cache entries: non-integer part")
        if min(map(abs, set(chain.from_iterable(entries))), default=2) < 2:
            raise ValueError("malformed cache entries: a part of size zero or one")
        for key, value in entries.items():
            if abs(value) > 2 * len(key) and abs(value) > sum(map(abs, key)):
                raise ValueError(
                    f"malformed cache entries: {list(key)} cannot score {value}")
        loaded = len(entries)
        entries.update(self.memo)  # merge without overwriting
        self.table.memo = entries
        return loaded


def segment_table(max_n: int, engine: SegmentEngine) -> list[tuple[int, int, int]]:
    """Rows ``(n, Ls(S_n), Rs(S_n))`` for n = 1..max_n."""
    if max_n < 1:
        raise ValueError("table needs max_n >= 1")
    rows = []
    for n in range(1, max_n + 1):
        pair = engine.scores(SegmentSum([n]))
        rows.append((n, pair.ls, pair.rs))
    return rows


def write_table_csv(rows, fh) -> None:
    fh.write("n,ls,rs\n")
    for n, ls_val, rs_val in rows:
        fh.write(f"{n},{ls_val},{rs_val}\n")


def check_period_args(period: int, preperiod: int, max_n: int) -> None:
    """Reject a period below 1, a preperiod below 0, or rows up to
    ``max_n`` too few to compare any pair."""
    if period < 1:
        raise ValueError("period must be positive")
    if preperiod < 0:
        raise ValueError("preperiod must be at least 0")
    if max_n <= period + preperiod:
        raise ValueError(f"period {period} and preperiod {preperiod} compare no rows up to {max_n}")


def periodicity_scan(
    rows: Sequence[tuple[int, int, int]], period: int, preperiod: int
) -> list[int]:
    """Indices ``n > preperiod`` where row ``n`` differs from ``n + period``.

    An empty result means the table is consistent with eventual periodicity
    at the given parameters, as far as it extends.
    """
    by_n = {n: (a, b) for n, a, b in rows}
    max_n = max(by_n)
    check_period_args(period, preperiod, max_n)
    return [n for n in range(preperiod + 1, max_n - period + 1) if by_n[n] != by_n[n + period]]


# ---------------------------------------------------------------------------
# exact game trees of segment unions


def segment_union_tree(parts: Iterable[int]) -> Game:
    """The game tree of a union of segments, on a new engine's keys and
    from the trees its mode's table already holds."""
    return SegmentEngine().tree(SegmentSum(parts))


def raw_union_tree(parts: Iterable[int]) -> Game:
    """The full game tree of a union of segments: every move of
    :func:`segment_moves` an option, with no rewrite, no pruning and no
    simplification.  A single vertex is the number it banks.  The parts
    are read through :class:`SegmentSum`, which rejects a zero part."""

    @cache  # a part's tree, for this call
    def part_tree(part: int) -> Game:
        if part in (1, -1):
            return number(part)
        return node(*(
            [add(add_all([part_tree(r) for r in remnants]), number(count if black else -count))
             for count, remnants in segment_moves(part, black)]
            for black in (True, False)))

    return add_all([part_tree(p) for p in SegmentSum(parts).parts])
