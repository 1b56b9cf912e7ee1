"""Exact game-value search for Bipartite Influence positions.

Left score Ls is the best final score (Left points minus Right points) when
Left moves first and both players play perfectly; Rs is the same with Right
moving first.  ``ZeroWindowSearch`` is the package's one search: MTD(f)
(Plaat, Schaeffer, Pijls and de Bruin, "Best-first fixed-depth minimax
algorithms", AI 87, 1996), whose loop is ``_exact``: repeated fail-soft
zero-window negamax passes from the mover's seat that narrow a (lower,
upper) bound pair until it is exact.  Its memo keeps those bounds, and the
scores they prove, across passes and queries.  A node is its own memo key,
so each search method takes one node.  Two child generators drive it:
``Solver`` over sums of connected components, and ``segments.SegmentEngine``
over reduced unions of segments.  The same generators, on a node and on its
other seat ``_other_seat(node)``, the same position with the other player to
move, which is minus the node's game, make the one game-tree loop,
``ZeroWindowSearch._tree``.  An engine turns its input into a root node plus
banked points, and ``_pair`` and ``_game`` read Ls, Rs and the game off it.
The solver tries moves in order of immediate gain and builds each successor
only when the search reaches it.  A move in one component of a sum leaves
the others as they were, so a successor is folded from its parent: only the
rest of the played component is split, and its pieces cancel into them or
are inserted among them in key order.  Those pieces depend only on the
component key and the move, so a node of two or more components keeps them
per removed mask in the key's one record, a ``Comp``, and every later node
that plays the same move beside other components reads them back.  The
record's move lists are made once per mover, on the first position seen
under the key, so equal paths on different grounds share one.
A move is the int mask of the vertices it removes: ``graphs.legal_moves``
makes a move list and ``prune_dominated`` drops its dominated moves.
Transposition keys bring path components to canonical form, and pairs of
components cancel before lookup: a path with its one partner key, and other
pairs when a mirror certificate on their union (``symmetry.find_bw``) gives
Ls = Rs = 0: in Milnor's universe (dicotic, free of zugzwang, as every
position here) such a game is zero.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter

from . import games
from .graphs import (
    BLACK,
    WHITE,
    Position,
    apply_move,
    canonical_key,
    components,
    disjoint_union,
    legal_moves,
    strip_isolated,
)
from .symmetry import find_bw

DEFAULT_NODE_BUDGET = 100_000_000
_KEY = attrgetter("key")  # ``Comp`` records sort by their keys


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


def prune_dominated(masks: list[int]) -> list[int]:
    """Drop the moves whose removed mask lies inside another move's mask,
    for one mover's moves: playing the larger set is at least as good,
    since it only hands the opponent a position that is a gift of extra
    removals away.  The kept masks come in their given order; of equal
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


def _path_partner(key: tuple) -> tuple | None:
    """The one key a path key ``("seg", n)`` cancels with: the key itself
    when n is even (an even path is its own negative), ``("seg", -n)`` when
    n is odd.  None for a key that is not a path."""
    if key[0] != "seg":
        return None
    return key if key[1] % 2 == 0 else ("seg", -key[1])


@dataclass(eq=False, slots=True)
class Comp:
    """A solver's one record per component ``key``, so equality is
    identity: the first ``position`` seen under the key, which the search
    plays on, Left's and Right's move lists, and ``pieces``, each removed
    mask to the sorted records of the pieces that move leaves."""

    key: tuple
    position: Position
    left: tuple[int, ...] | None = None
    right: tuple[int, ...] | None = None
    pieces: dict[int, tuple] | None = None


def _negated_pair(a: Comp, b: Comp, cache: dict) -> bool:
    """True when the components of records ``a`` and ``b``, neither a path,
    cancel: a + b = 0.  (``Solver._cancel`` looks up a path's one
    :func:`_path_partner` by key instead.)

    ``b = a.negated()`` cancels at any size.  Other equal-size pairs of at
    most ten vertices cancel when their union has a mirror certificate:
    mirroring gives Ls = Rs = 0 on ``a + b``.  This accepts every negative
    pair: swapping ``a`` and ``b`` is a certificate whose pairs lie in
    different components.  A certificate swaps colours, so a union whose
    colour counts differ (Black(a) + Black(b) != |a|) is rejected before it
    is built, as ``find_bw`` would reject it.
    """
    pa, pb = a.position, b.position
    if pb.alive == pa.alive and pb.ground is pa.ground.color_swapped():
        return True
    n = pa.vertex_count
    if pb.vertex_count != n or n > 10:
        return False
    if pa.alive_of_color(BLACK).bit_count() + pb.alive_of_color(BLACK).bit_count() != n:
        return False
    hit = cache.get((a, b))
    if hit is None:
        hit = find_bw(disjoint_union((pa, pb))).status == "found"
        cache[a, b] = hit
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
    position with the other player to move, whose game from its mover's
    seat is minus the game of ``node``; it is an involution.  The two seats
    give :meth:`_tree` its two sides and :meth:`_pair` its two scores.
    """

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET):
        self.table = TranspositionTable()
        self.node_budget = node_budget
        self.nodes = 0
        self._trees: dict = {}

    memo = property(lambda self: self.table.memo)

    def _exact(self, node, guess: int = 0) -> int:
        """The exact score of ``node`` by MTD(f): :meth:`_test` passes, the
        first at ``guess``, narrow its bounds until they meet."""
        exact = self.table.memo.get(node)
        if exact is not None:
            return exact
        hi = self._bound(node)
        lo = -hi
        g = min(max(guess, lo), hi)
        while lo < hi:
            beta = g + 1 if g == lo else g
            g = self._test(node, beta)
            if g < beta:
                hi = g
            else:
                lo = g
        return lo

    def _pair(self, node, offset: int) -> ScorePair:
        """Ls and Rs of the root ``node`` plus ``offset``: Rs from the other
        seat, whose first pass asks whether Rs reaches Ls."""
        ls = self._exact(node)
        rs = -self._exact(self._other_seat(node), guess=1 - ls)
        return ScorePair(offset + ls, offset + rs)

    def _game(self, node, offset: int) -> games.Game:
        """The game of the root ``node`` plus banked ``offset``."""
        return games.add(self._tree(node), games.number(offset))

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
        ``T(child) - gain`` over the children of the other seat.
        Each node is audited and simplified as soon as it is built, so a
        dominated option grows no subtree, and is kept in ``_trees``: a
        ``Solver``'s own table, or the table every ``SegmentEngine`` of one
        rewrite mode shares.  A node whose other seat is already built is
        that tree negated.  A zugzwang node raises ``ValueError``.
        """
        hit = self._trees.get(node)
        if hit is None:
            other = self._other_seat(node)
            twin = self._trees.get(other)
            if twin is not None:
                hit = games.negate(twin)
            else:
                lefts = [games.add(games.number(gain), games.negate(self._tree(child)))
                         for gain, child in self._children(node)]
                rights = [games.add(self._tree(child), games.number(-gain))
                          for gain, child in self._children(other)]
                hit = games.node(lefts, rights) if lefts or rights else games.number(0)
                if bad := games.audit_universe(hit):
                    raise ValueError(f"position outside the universe: {bad}")
                hit = games.simplify(hit)
            self._trees[node] = hit
        return hit


class Solver(ZeroWindowSearch):
    """Exact scores of sums of components.  A node is the sign of the
    mover's gains (1 for Left, -1 for Right) and the components from
    :meth:`_cancel`, a tuple of ``Comp`` records sorted by key.  For its
    life the solver keeps ``_comps``, the one record of each component key,
    ``_masks``, one int per distinct removed set in its move lists, and
    ``_pair_cache``, the mirror-certificate verdicts of non-path pairs."""

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET, prune: bool = True):
        super().__init__(node_budget)
        self.prune = prune
        self._pair_cache: dict = {}
        self._comps: dict[tuple, Comp] = {}
        self._masks: dict[int, int] = {}

    # -- public API --------------------------------------------------------

    def scores(self, position: Position) -> ScorePair:
        return self.score_of_sum([position])

    def score_of_sum(self, parts: list[Position]) -> ScorePair:
        return self._pair(*self._root(parts))

    def tree(self, position: Position) -> games.Game:
        """The game of ``position``, simplified node by node on the
        solver's keys, so it is built with folding, cancellation and (with
        ``prune``) dominated-move pruning."""
        return self._game(*self._root([position]))

    # -- internals ---------------------------------------------------------

    def _root(self, parts: list[Position]) -> tuple[tuple[int, tuple], int]:
        """The root node of a sum of positions, Left to move, and its banked
        points."""
        parts = [strip_isolated(part) for part in parts]
        comps = sorted((c for part in parts for c in self._keys(part)), key=_KEY)
        return (1, self._cancel(comps)), sum(part.offset for part in parts)

    def _keys(self, position: Position) -> list[Comp]:
        """The records of the components of ``position``, found by their
        canonical keys; a key seen for the first time gets a record that
        keeps its component."""
        table = self._comps
        out = []
        for comp in components(position):
            key = canonical_key(comp)
            rec = table.get(key)
            if rec is None:
                table[key] = rec = Comp(key, comp)
            out.append(rec)
        return out

    def _other_seat(self, node: tuple[int, tuple]) -> tuple[int, tuple]:
        """The same components with the other sign: a colour swap, which
        negates the game."""
        return -node[0], node[1]

    def _cancel(self, new: list[Comp] | tuple, others: tuple = ()) -> tuple:
        """``others``, sorted, with the sorted records ``new`` added in
        order: each cancels the first component it can, or is inserted in
        key order.  ``others``, the rest of a child's parent, cancels no
        pair, so only pairs with a new piece are tested.  A path looks up
        its one partner key, and any other piece tests only the components
        before the first path: ``"g"`` sorts before ``"seg"``, and a path
        cancels only a path."""
        if not new:
            return others
        out = list(others)
        for c in new:
            partner = _path_partner(c.key)
            if partner is not None:
                i = bisect_left(out, partner, key=_KEY)
                hit = i < len(out) and out[i].key == partner
            else:
                hit = False
                for i, other in enumerate(out):
                    if other.key[0] == "seg":
                        break
                    if _negated_pair(other, c, self._pair_cache):
                        hit = True
                        break
            if hit:
                del out[i]
            else:
                insort(out, c, key=_KEY)
        return tuple(out)

    def _bound(self, node: tuple[int, tuple]) -> int:
        return sum(c.position.vertex_count for c in node[1])

    def _move_list(self, sign: int, comp: Comp) -> tuple[int, ...]:
        """The removed masks of the mover's moves in ``comp``, largest gain
        first: generated (and pruned) once, then kept in the record."""
        side = "left" if sign > 0 else "right"
        masks = getattr(comp, side)
        if masks is None:
            found = legal_moves(comp.position, BLACK if sign > 0 else WHITE)
            if self.prune:
                found = prune_dominated(found)
            same = self._masks  # one int object per distinct removed set
            masks = tuple(sorted((same.setdefault(r, r) for r in found),
                                 key=int.bit_count, reverse=True))
            setattr(comp, side, masks)
        return masks

    def _children(self, node: tuple[int, tuple]):
        """The mover's moves, largest gains first, each successor folded
        only when the search reaches it: the sorted records of the played
        component's pieces, stored in its record or made by splitting its
        rest (in which no vertex is stranded), are cancelled into the other
        components.  A node of two or more components stores the pieces it
        makes; in a node of one, a move comes back only when that node is
        expanded again.  A repeated successor reads the bounds of its first."""
        sign, comps = node
        moves = []
        for idx, c in enumerate(comps):
            if idx and c is comps[idx - 1]:
                continue  # identical component, symmetric moves
            moves.extend((idx, removed) for removed in self._move_list(sign, c))
        moves.sort(key=lambda im: -im[1].bit_count())
        store = len(comps) > 1
        for idx, removed in moves:
            c = comps[idx]
            pieces = c.pieces and c.pieces.get(removed)  # a stored entry may be ()
            if pieces is None:
                rest = Position(c.position.ground, c.position.alive & ~removed)
                pieces = tuple(sorted(self._keys(rest), key=_KEY))
                if store:
                    if c.pieces is None:  # most records never store an entry
                        c.pieces = {}
                    c.pieces[removed] = pieces
            yield removed.bit_count(), (-sign, self._cancel(pieces, comps[:idx] + comps[idx + 1 :]))


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
        for color, moves in ((BLACK, black_moves), (WHITE, white_moves)):
            for removed in moves:
                if not visit(apply_move(pos, removed, color), remaining - 1):
                    return False
        return True

    visit(strip_isolated(position), depth)
    return report

