"""Exact game-value search for Bipartite Influence positions.

Left score Ls is the best final score (Left points minus Right points) when
Left moves first and both players play perfectly; Rs is the same with Right
moving first.  ``ZeroWindowSearch`` is the package's one search: MTD(f)
(Plaat, Schaeffer, Pijls and de Bruin, "Best-first fixed-depth minimax
algorithms", AI 87, 1996), repeated fail-soft zero-window negamax passes
from the mover's seat that narrow a (lower, upper) bound pair until it is
exact.  Its memo keeps those bounds, and the scores they prove, across
passes and queries.  A node is its own memo key, so each search method takes
one node.  Two child generators drive it: ``Solver`` over sums of connected
components, and ``segments.SegmentEngine`` over reduced unions of segments.
The same generators, on a node and on its other seat (the same position with
the other player to move, with ``_other_seat`` returning ``(other, shift)``),
make the one game-tree loop, ``ZeroWindowSearch._tree``.  The solver tries
moves in order of immediate gain and builds each successor only when the
search reaches it.  A move in one component of a sum leaves the others as
they were, so a successor is folded from its parent: only the rest of the
played component is split, and its pieces cancel into them or are inserted
among them in key order.  Move lists are made once per mover and component
key, on the first position seen under it, so equal paths on different
grounds share one for the solver's life.
A move list is a tuple of removed masks: ``graphs.move_masks`` makes them
and ``maximal_masks`` prunes them, plain ints with no move object.
Transposition keys bring path components to canonical form, and pairs of
components cancel before lookup when a mirror certificate on their union
(``symmetry.find_bw``) gives Ls = Rs = 0: in Milnor's universe (dicotic,
free of zugzwang, as every position here) such a game is zero.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable

from . import games
from .graphs import (
    BLACK,
    WHITE,
    Position,
    RemovalSet,
    apply_move,
    canonical_key,
    components,
    disjoint_union,
    legal_moves,
    move_masks,
    strip_isolated,
)
from .symmetry import find_bw

DEFAULT_NODE_BUDGET = 100_000_000


class SearchBudgetError(RuntimeError):
    """Raised when the solver exceeds its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} node expansions exhausted")
        self.budget = budget


@dataclass(frozen=True)
class ScorePair:
    ls: int
    rs: int


class TranspositionTable:
    """Exact scores and open bounds of positions, each from its mover's seat.

    ``memo`` maps a key to its proven score.  ``bounds`` maps a key whose
    score is still open to ``[lower, upper]``; each search pass only
    narrows the pair, and a pair whose bounds meet moves to ``memo``.
    ``len()`` counts both.  ``lookups`` counts the probes of the
    zero-window test and ``hits`` those that found the key.
    """

    def __init__(self):
        self.memo: dict = {}
        self.bounds: dict[object, list[int]] = {}
        self.hits = 0
        self.lookups = 0

    def __len__(self) -> int:
        return len(self.memo) + len(self.bounds)


def maximal_masks(masks: list[int]) -> list[int]:
    """The masks no other mask contains, in their given order; of equal
    masks the first is kept.

    One pass keeps the maximal masks seen so far.  A new mask is compared
    with those alone: containment is transitive, so a mask inside an
    earlier one is inside a kept one.  A new mask evicts the kept masks
    it strictly contains.
    """
    kept: list[int] = []
    for m in masks:
        for k in kept:
            if m | k == k:
                break  # m is inside k, or equal to it
        else:
            for k in kept:
                if k | m == m:  # m evicts the kept masks inside it
                    kept = [k for k in kept if k | m != m]
                    break
            kept.append(m)
    return kept


def prune_dominated(moves: list[RemovalSet]) -> list[RemovalSet]:
    """Drop moves whose removed set is contained in another move's set.

    All moves must belong to the same mover.  Playing the larger set is at
    least as good, since it only hands the opponent a position that is a
    gift of extra removals away.  Equal sets keep the lowest vertex played.
    The kept moves come back in their given order: those whose sets
    :func:`maximal_masks` keeps.
    """
    if len({m.gain > 0 for m in moves}) > 1:
        raise ValueError("prune_dominated expects moves of a single mover")
    first: dict[int, RemovalSet] = {}
    for m in moves:
        if m.removed not in first or m.played < first[m.removed].played:
            first[m.removed] = m
    kept = set(maximal_masks(list(first)))
    return [m for m in moves if m.removed in kept and first[m.removed] is m]


def mtdf(test: Callable[[int], int], lo: int, hi: int, guess: int = 0) -> int:
    """The exact score in ``[lo, hi]`` of a position, by MTD(f).

    ``test(beta)`` is a fail-soft zero-window search: a value ``v >= beta``
    is a lower bound on the score, a value ``v < beta`` an upper bound.
    Each pass asks whether the score reaches ``beta`` and narrows the
    bounds, starting from ``guess``, until they meet.
    """
    g = min(max(guess, lo), hi)
    while lo < hi:
        beta = g + 1 if g == lo else g
        g = test(beta)
        if g < beta:
            hi = g
        else:
            lo = g
    return lo


def _negated_pair(ka: tuple, kb: tuple, positions: dict, cache: dict) -> bool:
    """True when the components under keys ``ka`` and ``kb`` cancel:
    ``a + b = 0``, with ``positions`` mapping each key to its component.

    Paths compare the segment values in their keys.  ``b = a.negated()``
    cancels at any size.  Other equal-size pairs of at most ten vertices
    cancel when their union has a mirror certificate: mirroring gives
    Ls = Rs = 0 on ``a + b``.  This accepts every negative pair: swapping
    ``a`` and ``b`` is a certificate whose pairs lie in different components.
    """
    if ka[0] == "seg" or kb[0] == "seg":
        if ka[0] != kb[0]:
            return False
        if ka[1] % 2 == 0:
            return ka == kb  # even paths are their own negatives
        return ka[1] == -kb[1]
    pa, pb = positions[ka], positions[kb]
    if pb.alive == pa.alive and pb.ground is pa.ground.color_swapped():
        return True
    if pa.vertex_count != pb.vertex_count or pa.vertex_count > 10:
        return False
    hit = cache.get((ka, kb))
    if hit is None:
        hit = find_bw(disjoint_union((pa, pb))).status == "found"
        cache[ka, kb] = hit
    return hit


class ZeroWindowSearch:
    """Exact scores by MTD(f) over one fail-soft zero-window negamax.

    Scores are offset-free and seen from the mover's seat.  A subclass
    says what a node is; a node is hashable and is its own memo key, so
    every search method takes one node.  ``_children(node)`` yields
    ``(gain, child)`` for each move, where ``gain`` is what the mover
    banks and ``child`` is the node the opponent then moves in.  The order
    of the moves affects only the speed of the search, not its result:
    a likely best move first cuts off sooner.  A generator that builds each
    child only when the search reaches it saves the children a cutoff
    skips.  ``_bound(node)`` bounds the absolute score (0 for the empty
    position, which has no children); a node not in the memo starts from
    those bounds, which alone can decide a test.  ``nodes`` counts
    expansions.  ``_other_seat(node)`` is the node's other seat, the same
    position with the other player to move: a pair ``(other, shift)`` such
    that the game of ``other`` from its mover's seat, plus the banked
    points ``shift``, is minus the game of ``node``.  The two seats give
    :meth:`_tree` its two sides.
    """

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        self.table = TranspositionTable()
        self.node_budget = node_budget
        self.nodes = 0
        self._trees: dict = {}

    memo = property(lambda self: self.table.memo)
    _bounds = property(lambda self: self.table.bounds)

    def _exact(self, node, guess: int = 0) -> int:
        """The exact score of ``node``, by :func:`mtdf` over :meth:`_test`."""
        exact = self.table.memo.get(node)
        if exact is not None:
            return exact
        n = self._bound(node)
        return mtdf(lambda beta: self._test(node, beta), -n, n, guess)

    def _test(self, node, beta: int) -> int:
        """Fail-soft zero-window search: a value ``v >= beta`` is a lower
        bound on the score, a value ``v < beta`` an upper bound."""
        table = self.table
        table.lookups += 1
        exact = table.memo.get(node)
        if exact is not None:
            table.hits += 1
            return exact
        bounds = table.bounds.get(node)
        if bounds is None:
            n = self._bound(node)
            bounds = [-n, n]
        else:
            table.hits += 1
        if bounds[0] >= beta:
            return bounds[0]
        if bounds[1] < beta:
            return bounds[1]
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SearchBudgetError(self.node_budget)
        best = None
        for gain, child in self._children(node):
            val = gain - self._test(child, gain - beta + 1)
            if best is None or val > best:
                best = val
                if best >= beta:
                    break
        assert best is not None, "a nonempty position offers moves to both players"
        # the stored bounds did not decide the test, so ``best`` narrows them
        bounds[0 if best >= beta else 1] = best
        if bounds[0] == bounds[1]:
            table.bounds.pop(node, None)
            table.memo[node] = best
        else:
            table.bounds[node] = bounds
        return best

    def _tree(self, node) -> games.Game:
        """The simplified, offset-free game of ``node`` from its mover's
        seat, with the empty node the number 0.

        The mover's options are ``gain - T(child)`` over its children: a
        child's game is seen from the opponent's seat.  The opponent's are
        ``T(child) - gain - shift`` over the children of the other seat.
        Each node is audited and simplified as soon as it is built, so a
        dominated option grows no subtree, and is kept for the life of the
        search.  A node whose other seat is already built is that tree
        negated, less ``shift``.  A zugzwang node raises ``ValueError``.
        """
        hit = self._trees.get(node)
        if hit is None:
            other, shift = self._other_seat(node)
            twin = self._trees.get(other)
            if twin is not None:
                hit = games.add(games.negate(twin), games.number(-shift))
            else:
                lefts = [games.add(games.number(gain), games.negate(self._tree(child)))
                         for gain, child in self._children(node)]
                rights = [games.add(self._tree(child), games.number(-gain - shift))
                          for gain, child in self._children(other)]
                hit = games.node(lefts, rights) if lefts or rights else games.number(0)
                if bad := games.audit_universe(hit):
                    raise ValueError(f"position outside the universe: {bad}")
                hit = games.simplify(hit)
            self._trees[node] = hit
        return hit


class Solver(ZeroWindowSearch):
    """Exact scores of sums of components.  A node is the sign of the
    mover's gains (1 for Left, -1 for Right) and the sorted keys of the
    components from :meth:`_cancel`.  ``_positions`` keeps the first
    position seen under each component key, the one the search plays on;
    ``_moves`` keeps, per mover, the move list of each component key, and
    ``_masks`` one int per distinct removed set, for the solver's life."""

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET, prune: bool = True):
        super().__init__(node_budget)
        self.prune = prune
        self._pair_cache: dict = {}
        self._positions: dict[tuple, Position] = {}
        self._moves: dict[int, dict[tuple, tuple[int, ...]]] = {1: {}, -1: {}}
        self._masks: dict[int, int] = {}

    # -- public API --------------------------------------------------------

    def scores(self, position: Position) -> ScorePair:
        return self.score_of_sum([position])

    def score_of_sum(self, parts: list[Position]) -> ScorePair:
        offset = 0
        keys: list[tuple] = []
        for part in parts:
            part = strip_isolated(part)
            offset += part.offset
            keys.extend(self._keys(part))
        keys = self._cancel(keys)
        ls = self._exact((1, keys))
        # White's first pass asks whether Rs reaches Ls
        rs = -self._exact((-1, keys), guess=1 - ls)
        return ScorePair(offset + ls, offset + rs)

    def tree(self, position: Position) -> games.Game:
        """The game of ``position``, simplified node by node on the
        solver's keys, so it is built with folding, cancellation and (with
        ``prune``) dominated-move pruning."""
        position = strip_isolated(position)
        keys = self._cancel(self._keys(position))
        return games.add(self._tree((1, keys)), games.number(position.offset))

    # -- internals ---------------------------------------------------------

    def _keys(self, position: Position) -> list[tuple]:
        """The canonical keys of the components of ``position``; a key
        seen for the first time keeps its component in ``_positions``."""
        comps = components(position)
        keys = [canonical_key(c) for c in comps]
        for key, comp in zip(keys, comps):
            self._positions.setdefault(key, comp)
        return keys

    def _other_seat(self, node: tuple[int, tuple]):
        """The same components with the other sign: a colour swap, which
        negates the game."""
        return (-node[0], node[1]), 0

    def _cancel(self, new: list[tuple], others: tuple = ()) -> tuple:
        """``others``, sorted, with the keys in ``new`` added in order: each
        cancels the first component it can, or is inserted in order.
        ``others``, the rest of a child's parent, cancels no pair, so only
        pairs with a new piece are tested."""
        if not new:
            return others
        out = list(others)
        for c in sorted(new):
            for i, other in enumerate(out):
                if _negated_pair(other, c, self._positions, self._pair_cache):
                    del out[i]
                    break
            else:
                insort(out, c)
        return tuple(out)

    def _bound(self, node: tuple[int, tuple]) -> int:
        return sum(self._positions[k].vertex_count for k in node[1])

    def _move_list(self, sign: int, key: tuple) -> tuple[int, ...]:
        """The removed masks of the mover's moves in the component kept
        under ``key``, largest gain first: generated (and pruned) once,
        then read from ``_moves``."""
        lists = self._moves[sign]
        masks = lists.get(key)
        if masks is None:
            found = move_masks(self._positions[key], BLACK if sign > 0 else WHITE)
            if self.prune:
                found = maximal_masks(found)
            same = self._masks  # one int object per distinct removed set
            masks = tuple(sorted((same.setdefault(r, r) for r in found),
                                 key=int.bit_count, reverse=True))
            lists[key] = masks
        return masks

    def _children(self, node: tuple[int, tuple]):
        """The mover's moves, largest gains first, each successor folded
        only when the search reaches it: the played component's rest, in
        which no vertex is stranded, is split and cancelled into the other
        components.  A repeated successor reads the bounds of its first."""
        sign, keys = node
        moves = []
        for idx, key in enumerate(keys):
            if idx and key == keys[idx - 1]:
                continue  # identical component, symmetric moves
            moves.extend((idx, removed) for removed in self._move_list(sign, key))
        moves.sort(key=lambda im: -im[1].bit_count())
        for idx, removed in moves:
            comp = self._positions[keys[idx]]
            rest = Position(comp.ground, comp.alive & ~removed)
            merged = self._cancel(self._keys(rest), keys[:idx] + keys[idx + 1 :])
            yield removed.bit_count(), (-sign, merged)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class AuditReport:
    positions_checked: int
    dicotic_ok: bool
    nonzugzwang_ok: bool
    first_violation: str | None = None

    @property
    def clean(self) -> bool:
        return self.dicotic_ok and self.nonzugzwang_ok


def milnor_audit(position: Position, depth: int = 3, solver: Solver | None = None) -> AuditReport:
    """Check the universe conditions on every position reachable in
    ``depth`` moves: both players can move iff the position is nonempty
    (dicotic) and Ls >= Rs (no zugzwang)."""
    if depth < 0:
        raise ValueError("audit depth must be at least 0")
    solver = solver or Solver()
    seen: set[tuple] = set()
    report = AuditReport(0, True, True)

    def visit(pos: Position, remaining: int) -> bool:
        key = (pos.ground.uid, pos.alive)
        if key in seen:
            return True
        seen.add(key)
        report.positions_checked += 1
        black_moves = legal_moves(pos, BLACK)
        white_moves = legal_moves(pos, WHITE)
        if bool(black_moves) != bool(white_moves):
            report.dicotic_ok = False
            report.first_violation = f"one-sided position at alive={pos.alive:#x}"
            return False
        pair = solver.scores(pos)
        if pair.ls < pair.rs:
            report.nonzugzwang_ok = False
            report.first_violation = (
                f"zugzwang at alive={pos.alive:#x}: Ls={pair.ls} < Rs={pair.rs}"
            )
            return False
        if remaining == 0:
            return True
        for move in black_moves + white_moves:
            if not visit(apply_move(pos, move), remaining - 1):
                return False
        return True

    visit(strip_isolated(position), depth)
    return report


@dataclass
class GiftReport:
    base: ScorePair
    without_white_gift: ScorePair
    without_black_gift: ScorePair
    white_gift_size: int
    black_gift_size: int
    ls_upper_ok: bool = field(init=False)
    rs_upper_ok: bool = field(init=False)
    ls_lower_ok: bool = field(init=False)
    rs_lower_ok: bool = field(init=False)

    def __post_init__(self):
        w, b = self.white_gift_size, self.black_gift_size
        self.ls_upper_ok = self.base.ls <= self.without_white_gift.ls + w
        self.rs_upper_ok = self.base.rs <= self.without_white_gift.rs + w
        self.ls_lower_ok = self.base.ls >= self.without_black_gift.ls - b
        self.rs_lower_ok = self.base.rs >= self.without_black_gift.rs - b

    @property
    def all_ok(self) -> bool:
        return (
            self.ls_upper_ok
            and self.rs_upper_ok
            and self.ls_lower_ok
            and self.rs_lower_ok
        )


def gift_bounds_check(
    position: Position,
    black_gift: int = 0,
    white_gift: int = 0,
    solver: Solver | None = None,
) -> GiftReport:
    """Deleting a set of White vertices costs Left at most its size, and
    symmetrically for Black.  ``black_gift`` / ``white_gift`` are bitmasks
    of alive vertices of the matching color."""
    g = position.ground
    if black_gift & ~(position.alive & g.black_mask):
        raise ValueError("black gift must be a set of alive Black vertices")
    if white_gift & ~(position.alive & g.white_mask):
        raise ValueError("white gift must be a set of alive White vertices")
    solver = solver or Solver()
    base = solver.scores(position)
    no_white = solver.scores(
        Position.make(g, position.alive & ~white_gift, position.offset)
    )
    no_black = solver.scores(
        Position.make(g, position.alive & ~black_gift, position.offset)
    )
    return GiftReport(
        base,
        no_white,
        no_black,
        white_gift.bit_count(),
        black_gift.bit_count(),
    )
