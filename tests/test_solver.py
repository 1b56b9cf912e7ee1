"""Exact graph solver: scores, pruning, sums, game trees, audits."""

import random

import pytest

from bipartite_influence.games import equivalent, ls, number, rs
from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    RemovalSet,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
    canonical_key,
    components,
    disjoint_union,
    legal_moves,
    move_masks,
    segment_value,
)
from bipartite_influence.reduction import PosCnf, gadget_graph
from bipartite_influence.solver import (
    SearchBudgetError,
    Solver,
    _negated_pair,
    gift_bounds_check,
    maximal_masks,
    milnor_audit,
    prune_dominated,
)

from conftest import (
    random_ground,
    random_position,
    raw_scores,
    ref_removal_closure,
    whole_position_tree,
)

# First 12 rows of the segment score table, checked again at full width
# (and against the segment engine) in the acceptance suite.
SEGMENT_HEAD = [
    (1, 1, 1),
    (2, 2, -2),
    (3, 3, -3),
    (4, 4, -4),
    (5, 5, -1),
    (6, 2, -2),
    (7, 1, -3),
    (8, 2, -2),
    (9, 3, -1),
    (10, 2, -2),
    (11, 1, -3),
    (12, 2, -2),
]


@pytest.fixture(scope="module")
def solver():
    return Solver()


class TestScores:
    @pytest.mark.parametrize("n,ls,rs", SEGMENT_HEAD)
    def test_segment_scores(self, solver, n, ls, rs):
        pair = solver.scores(Position.make(build_segment(n)))
        assert (pair.ls, pair.rs) == (ls, rs)

    def test_empty_position(self, solver):
        g = build_segment(2)
        pair = solver.scores(Position.make(g, 0, offset=3))
        assert (pair.ls, pair.rs) == (3, 3)

    def test_offset_shifts_both_scores(self, solver):
        pos = Position.make(build_segment(5))
        shifted = Position.make(build_segment(5), offset=7)
        base = solver.scores(pos)
        moved = solver.scores(shifted)
        assert moved.ls == base.ls + 7
        assert moved.rs == base.rs + 7

    def test_matches_raw_reference(self, solver, rng):
        for _ in range(200):
            g = random_ground(rng, max_n=9)
            ls, rs = raw_scores(g)
            pair = solver.scores(Position.make(g))
            assert (pair.ls, pair.rs) == (ls, rs)

    def test_negation_swaps_scores(self, solver, rng):
        for _ in range(120):
            pos = random_position(rng, max_n=9)
            pair = solver.scores(pos)
            neg = solver.scores(pos.negated())
            assert neg.ls == -pair.rs
            assert neg.rs == -pair.ls

    def test_grid_2x2(self, solver):
        pair = solver.scores(Position.make(build_grid(2, 2)))
        assert (pair.ls, pair.rs) == (4, -4)

    def test_disconnected_equals_sum_handling(self, solver, rng):
        # a two-component ground graph scores the same as the sum of parts
        for _ in range(60):
            a = random_ground(rng, max_n=5)
            b = random_ground(rng, max_n=5)
            colors = list(a.colors) + list(b.colors)
            edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
            both = GroundGraph(colors, edges)
            direct = solver.scores(Position.make(both))
            summed = solver.score_of_sum(
                [Position.make(a), Position.make(b)]
            )
            assert (direct.ls, direct.rs) == (summed.ls, summed.rs)


class TestSumChain:
    def test_milnor_chain(self, solver, rng):
        for _ in range(120):
            a = Position.make(random_ground(rng, max_n=7))
            b = Position.make(random_ground(rng, max_n=7))
            pa, pb = solver.scores(a), solver.scores(b)
            ps = solver.score_of_sum([a, b])
            assert pa.rs + pb.rs <= ps.rs
            assert ps.rs <= pa.ls + pb.rs
            assert pa.ls + pb.rs <= ps.ls
            assert ps.ls <= pa.ls + pb.ls

    def test_self_cancellation(self, solver, rng):
        # G + (-G) has both scores 0
        for _ in range(40):
            pos = Position.make(random_ground(rng, max_n=8))
            pair = solver.score_of_sum([pos, pos.negated()])
            assert (pair.ls, pair.rs) == (0, 0)

    def test_example_segment_sums(self, solver):
        s5 = Position.make(build_segment(5))
        s2 = Position.make(build_segment(2))
        s9 = Position.make(build_segment(9))
        pair = solver.score_of_sum([s5, s5, s2])
        assert (pair.ls, pair.rs) == (2, 2)
        pair = solver.score_of_sum([s9, s2])
        assert (pair.ls, pair.rs) == (1, 1)


def _torus_cells(rows, cols, cells, dr=0, dc=0):
    """Alive mask of ``cells`` translated by ``(dr, dc)`` on a torus.  An
    odd ``dr + dc`` swaps the colours."""
    return sum(1 << (((i + dr) % rows) * cols + (j + dc) % cols) for i, j in cells)


def _grow_piece(rng, g, size):
    """A random connected vertex set of at most ``size`` vertices."""
    piece = 1 << rng.randrange(g.n)
    for _ in range(size - 1):
        rim = [v for v in range(g.n) if g.adj[v] & piece and not piece >> v & 1]
        if not rim:
            break
        piece |= 1 << rng.choice(rim)
    return piece


# A balanced piece whose colour-swapped degree profile equals its own, so
# only a full search can tell that two copies of it do not cancel.
BALANCED_PIECE = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3), (2, 1)]

# A T with a three-vertex stem: four Black and two White vertices, so it is
# not its own negative, and not a path.
T_PIECE = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 1), (3, 1)]


# Boards of the null-window property test, and the most alive vertices
# per case: the reference solver's limit.
PROPERTY_BOARDS = [build_grid(4, 6), build_grid(5, 5), build_grid(3, 9),
                   build_torus(4, 6), build_cylinder(4, 6), build_hypercube(4)]
PROPERTY_MAX_ALIVE = 22


def _random_alive(rng, g, most):
    """A random alive mask of 2 to ``most`` vertices of ``g``."""
    return sum(1 << v for v in rng.sample(range(g.n), rng.randint(2, min(most, g.n))))


def _property_cases(rng, count):
    """``count`` pairs of (parts, reference (Ls, Rs)).  Two in three are one
    random alive set; the rest are sums of two positions on random boards,
    scored by the reference on their disjoint union plus their offsets."""
    cases = []
    for i in range(count):
        g = rng.choice(PROPERTY_BOARDS)
        if i % 3:
            alive = _random_alive(rng, g, PROPERTY_MAX_ALIVE)
            cases.append(([Position.make(g, alive)], raw_scores(g, alive)))
            continue
        a = Position.make(g, _random_alive(rng, g, PROPERTY_MAX_ALIVE // 2))
        h = rng.choice(PROPERTY_BOARDS)
        b = Position.make(h, _random_alive(rng, h, PROPERTY_MAX_ALIVE - a.vertex_count))
        ls, rs = raw_scores(disjoint_union([a, b]))
        offset = a.offset + b.offset
        cases.append(([a, b], (ls + offset, rs + offset)))
    return cases


class TestNullWindowSearch:
    """The MTD(f) search against the reference solver.  A shared solver
    answers later queries from bounds that earlier queries stored under
    other windows."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _property_cases(random.Random(6), 330)

    def test_fresh_solver_matches_reference(self, cases):
        for parts, want in cases:
            pair = Solver().score_of_sum(parts)
            assert (pair.ls, pair.rs) == want, parts

    def test_shared_solver_matches_reference(self, cases):
        shared = Solver()
        for parts, want in cases:
            pair = shared.score_of_sum(parts)
            assert (pair.ls, pair.rs) == want, parts

    def test_grid_3x12_search_stays_small(self):
        # a guard on the node count of the search, not on its time
        solver = Solver()
        pair = solver.scores(Position.make(build_grid(3, 12)))
        assert (pair.ls, pair.rs) == (4, -4)
        assert solver.nodes < 3000


class TestCancellation:
    @pytest.mark.parametrize("board", [(build_grid, 4, 4), (build_torus, 4, 6)],
                             ids=["grid4x4", "torus4x6"])
    def test_large_negated_twin_cancels_without_search(self, board):
        build, rows, cols = board
        p = Position.make(build(rows, cols))
        solver = Solver(node_budget=1000)
        pair = solver.score_of_sum([p, p.negated()])
        assert (pair.ls, pair.rs) == (0, 0)
        assert solver.nodes == 0

    def test_mirror_pieces_on_one_board_cancel(self):
        g = build_torus(8, 8)
        piece = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 1), (2, 2)]
        alive = _torus_cells(8, 8, piece) | _torus_cells(8, 8, piece, 4, 3)
        a, b = components(Position.make(g, alive))
        assert a.vertex_count == b.vertex_count == 6
        ka, kb = canonical_key(a), canonical_key(b)
        positions = {ka: a, kb: b}
        assert _negated_pair(ka, kb, positions, {}) and _negated_pair(kb, ka, positions, {})
        solver = Solver(node_budget=1000)
        pair = solver.scores(Position.make(g, alive))
        assert (pair.ls, pair.rs) == (0, 0) == raw_scores(g, alive)
        assert solver.nodes == 0

    @pytest.mark.parametrize("piece", [
        [(0, 0), (0, 1), (0, 2), (1, 1), (2, 1), (2, 2)],
        BALANCED_PIECE,
    ], ids=["unbalanced", "balanced"])
    def test_equal_size_non_mirror_pieces_stay(self, piece):
        # the translate by (4, 4) keeps the colours: a copy, not a negative
        g = build_torus(8, 8)
        alive = _torus_cells(8, 8, piece) | _torus_cells(8, 8, piece, 4, 4)
        a, b = components(Position.make(g, alive))
        assert a.vertex_count == b.vertex_count
        solver = Solver()
        ka, kb = solver._keys(Position.make(g, alive))
        assert not _negated_pair(ka, kb, solver._positions, {})
        assert solver._cancel([ka, kb]) == tuple(sorted([ka, kb]))
        assert raw_scores(g, alive) != (0, 0)

    def test_accepted_pairs_score_zero(self, rng):
        # random pieces, each with a colour-swapped translate and a random
        # neighbour piece; every pair the solver would cancel must be a draw
        cache: dict = {}
        searched = rejected = 0
        for _ in range(400):
            rows, cols = rng.choice([(8, 8), (6, 10)])
            g = build_torus(rows, cols)
            piece = _grow_piece(rng, g, rng.randint(3, 8))
            cells = [divmod(v, cols) for v in range(g.n) if piece >> v & 1]
            dr = rows // 2 + rng.choice([-1, 0, 1])
            dc = cols // 2 + (dr + cols // 2 + 1) % 2  # dr + dc odd
            alive = (piece | _torus_cells(rows, cols, cells, dr, dc)
                     | _grow_piece(rng, g, rng.randint(2, 6)))
            comps = components(Position.make(g, alive))
            keys = [canonical_key(c) for c in comps]
            positions = dict(zip(keys, comps))  # equal keys are paths, read off the key
            for i, a in enumerate(comps):
                for j, b in enumerate(comps[i + 1:], i + 1):
                    if not _negated_pair(keys[i], keys[j], positions, cache):
                        rejected += 1
                        continue
                    assert raw_scores(g, a.alive | b.alive) == (0, 0)
                    searched += segment_value(a) is None
        assert searched >= 40 and rejected >= 100

    @staticmethod
    def t_pieces(*offsets):
        """A solver holding the components of a six-vertex T on grid 9x9
        and of its translates by ``offsets``, none of which wraps, with
        their keys; an odd translate is a colour-swapped copy, so a
        negative with a different key."""
        g = build_grid(9, 9)
        alive = sum(_torus_cells(9, 9, T_PIECE, dr, dc) for dr, dc in ((0, 0),) + offsets)
        solver = Solver()
        keys = solver._keys(Position.make(g, alive))
        assert len(keys) == 1 + len(offsets) and segment_value(solver._positions[keys[0]]) is None
        return g, alive, solver, keys

    @pytest.mark.parametrize("offsets", [((0, 5), (5, 0)), ((0, 5), (5, 5))],
                             ids=["two-negatives", "negative-and-copy"])
    def test_competing_candidates_leave_one_piece(self, offsets):
        g, alive, solver, keys = self.t_pieces(*offsets)
        pair = Solver().scores(Position.make(g, alive))
        assert (pair.ls, pair.rs) == raw_scores(g, alive)
        assert len(solver._cancel(keys)) == 1

    def test_three_mutual_negatives(self):
        # c1 could cancel the parent's ``a`` or the new ``c2``; either way
        # the piece left is a game equal to ``a``
        _, _, solver, (c1, c2, a) = self.t_pieces((0, 5), (5, 0))
        positions = solver._positions
        assert _negated_pair(c1, c2, positions, {}) and _negated_pair(c1, a, positions, {})
        (left,) = solver._cancel([c1, c2], (a,))
        assert Solver().scores(positions[left]) == Solver().scores(positions[a])


class TestPruning:
    def test_subset_moves_dominate(self):
        # endpoint moves on a path remove a subset of the next move over
        pos = Position.make(build_segment(6))
        white_moves = legal_moves(pos, WHITE)
        kept = prune_dominated(white_moves)
        assert len(kept) < len(white_moves)
        kept_sets = {m.removed for m in kept}
        for m in white_moves:
            assert any(m.removed & k == m.removed for k in kept_sets)

    def test_equal_sets_keep_one(self):
        star = GroundGraph([BLACK, WHITE, WHITE, WHITE], [(0, 1), (0, 2), (0, 3)])
        pos = Position.make(star)
        kept = prune_dominated(legal_moves(pos, WHITE))
        assert len(kept) == 1

    def test_matches_the_pairwise_definition(self):
        """Comparing each move only with the moves kept so far drops
        exactly the moves the all-pairs definition drops, in order."""

        def pairwise(moves):
            return [m for m in moves if not any(
                o is not m and m.removed | o.removed == o.removed
                and (m.removed != o.removed or o.played < m.played)
                for o in moves)]

        rng = random.Random(1801)
        dropped = 0
        for _ in range(3000):
            pool = [rng.getrandbits(8) for _ in range(3)]
            sign = rng.choice((1, -1))
            moves = []
            for v in rng.sample(range(8), rng.randint(0, 8)):
                removed = (1 << v) | (rng.choice(pool) & rng.choice((-1, rng.getrandbits(8))))
                moves.append(RemovalSet(v, removed, sign * removed.bit_count()))
            kept = prune_dominated(moves)
            assert kept == pairwise(moves), moves
            dropped += len(moves) - len(kept)
        assert dropped > 1000

    def test_pruned_scores_match_unpruned(self, rng):
        plain = Solver(prune=False)
        pruned = Solver(prune=True)
        for _ in range(80):
            pos = random_position(rng, max_n=9)
            a = plain.scores(pos)
            b = pruned.scores(pos)
            assert (a.ls, a.rs) == (b.ls, b.rs)


class TestMoveMasks:
    """The search's move lists, made and pruned on ints, against the
    ``RemovalSet`` moves of ``legal_moves`` and ``prune_dominated``."""

    BOARDS = [build_grid(4, 5), build_cylinder(4, 3), build_torus(4, 4),
              build_hypercube(4), gadget_graph(PosCnf(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))]

    @staticmethod
    def positions():
        rng = random.Random(2201)
        for g in TestMoveMasks.BOARDS:
            yield Position.make(g)
            for _ in range(40):
                yield Position.make(g, rng.getrandbits(g.n))

    def test_masks_are_the_moves(self):
        dropped = 0
        for pos in self.positions():
            for color in (BLACK, WHITE):
                moves = legal_moves(pos, color)
                masks = move_masks(pos, color)
                assert masks == [m.removed for m in moves]
                assert masks == [ref_removal_closure(pos, m.played) for m in moves]
                kept = maximal_masks(masks)
                assert kept == [m.removed for m in prune_dominated(moves)]
                dropped += len(masks) - len(kept)
        assert dropped > 500  # pruning had work to do

    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    def test_move_lists_are_the_pruned_moves_by_size(self, prune):
        solver = Solver(prune=prune)
        for pos in self.positions():
            for key in solver._keys(pos):
                comp = solver._positions[key]
                for sign, color in ((1, BLACK), (-1, WHITE)):
                    found = legal_moves(comp, color)
                    if prune:
                        found = prune_dominated(found)
                    want = tuple(sorted((m.removed for m in found), key=lambda r: -r.bit_count()))
                    assert solver._move_list(sign, key) == want

    def test_equal_masks_keep_the_first(self):
        a = (1 << 100) | 1
        b = int(str(a))  # equal, but another object
        assert a is not b
        kept = maximal_masks([a, 0b110, b])
        assert kept == [a, 0b110] and kept[0] is a
        assert maximal_masks([0b11, 0b11, 0b11]) == [0b11]

    def test_a_later_superset_evicts_earlier_subsets(self):
        assert maximal_masks([0b0001, 0b1000, 0b0010, 0b0111]) == [0b1000, 0b0111]
        assert maximal_masks([0b0111, 0b0011, 0b0101]) == [0b0111]
        assert maximal_masks([0b0011, 0b0110, 0b1100, 0b0111]) == [0b1100, 0b0111]
        assert maximal_masks([]) == []


MEMO_BOARDS = [build_grid(6, 6), build_torus(6, 6)]


def _fragment(rng, g, pieces):
    """A position on ``g`` made of ``pieces`` random pieces of 2 to 5
    vertices; pieces that touch merge into one component."""
    alive = 0
    for _ in range(pieces):
        alive |= _grow_piece(rng, g, rng.randint(2, 5))
    return Position.make(g, alive)


def _memo_queries(rng, count):
    """Sums of many components: one fragment of 2 to 5 pieces, a fragment
    with its negative, or two fragments."""
    queries = []
    for i in range(count):
        g, h = rng.choice(MEMO_BOARDS), rng.choice(MEMO_BOARDS)
        if i % 3 == 0:
            queries.append([_fragment(rng, g, rng.randint(2, 5))])
        elif i % 3 == 1:
            p = _fragment(rng, g, rng.randint(2, 3))
            queries.append([p, p.negated()])
        else:
            queries.append([_fragment(rng, g, rng.randint(2, 3)),
                            _fragment(rng, h, rng.randint(2, 3))])
    return queries


class TestMoveMemo:
    """``Solver._moves`` keeps each exact component's move list for the
    solver's life; the search must not change."""

    def test_shared_solver_matches_unpruned_and_reference(self):
        shared = Solver()
        raw_checked = 0
        for parts in _memo_queries(random.Random(1701), 90):
            pair = shared.score_of_sum(parts)
            plain = Solver(prune=False).score_of_sum(parts)
            assert (pair.ls, pair.rs) == (plain.ls, plain.rs), parts
            if sum(p.vertex_count for p in parts) <= PROPERTY_MAX_ALIVE:
                offset = sum(p.offset for p in parts)
                ls, rs = raw_scores(disjoint_union(parts))
                assert (pair.ls, pair.rs) == (ls + offset, rs + offset), parts
                raw_checked += 1
        assert raw_checked >= 40
        assert all(shared._moves.values())

    @pytest.mark.parametrize("prune", [True, False])
    def test_entries_are_the_move_lists(self, prune):
        rng = random.Random(1702)
        solver = Solver(prune=prune)
        for parts in _memo_queries(rng, 30) + [[Position.make(build_grid(3, 6))]]:
            solver.score_of_sum(parts)
        assert sum(map(len, solver._moves.values())) > 100
        for sign, lists in solver._moves.items():
            for key, masks in lists.items():
                comp = solver._positions[key]
                assert canonical_key(comp) == key
                found = legal_moves(comp, BLACK if sign > 0 else WHITE)
                if prune:
                    found = prune_dominated(found)
                want = sorted((m.removed for m in found), key=lambda r: -r.bit_count())
                assert masks == tuple(want)
                assert all(solver._masks[r] is r for r in masks)  # one object per set
        assert Solver()._moves == {1: {}, -1: {}}

    def test_equal_paths_share_one_move_list_per_mover(self):
        """S_5 and a Black-majority five-vertex path cut out of grid 3x3
        have one key, so the solver plays both on the one position it saw
        first and keeps one move list per mover for them."""
        seg = Position.make(build_segment(5))
        cells = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]
        bent = Position.make(build_grid(3, 3), sum(1 << (3 * r + c) for r, c in cells))
        assert canonical_key(seg) == canonical_key(bent) == ("seg", 5)
        solver = Solver()
        pair = solver.score_of_sum([seg, bent])
        assert (pair.ls, pair.rs) == raw_scores(disjoint_union([seg, bent]))
        assert solver._positions[("seg", 5)] == seg
        assert [("seg", 5) in lists for lists in solver._moves.values()] == [True, True]
        assert {p.ground for p in solver._positions.values()} == {seg.ground}

    def test_memo_leaves_the_search_unchanged(self):
        class Regenerating(Solver):
            def _move_list(self, sign, key):
                for lists in self._moves.values():
                    lists.clear()
                return super()._move_list(sign, key)

        board = Position.make(build_grid(3, 8))
        kept, fresh = Solver(), Regenerating()
        assert kept.scores(board) == fresh.scores(board)
        assert kept.nodes == fresh.nodes
        assert kept.table.memo == fresh.table.memo
        assert kept.table.bounds == fresh.table.bounds
        assert kept.table.lookups == fresh.table.lookups


class TestFold:
    """A child is folded from its parent: the played component's rest is
    cancelled into the other components, which are not tested again."""

    class Rebuilding(Solver):
        """Every child built from scratch: re-strip the rest, cancel all
        components anew, and drop a child already yielded."""

        def _children(self, node):
            sign, keys = node
            moves = []
            for idx, key in enumerate(keys):
                if idx and key == keys[idx - 1]:
                    continue
                moves.extend((idx, removed) for removed in self._move_list(sign, key))
            moves.sort(key=lambda im: -im[1].bit_count())
            seen = set()
            for idx, removed in moves:
                comp = self._positions[keys[idx]]
                succ = Position.make(comp.ground, comp.alive & ~removed,
                                     sign * removed.bit_count())
                merged = self._cancel(list(keys[:idx] + keys[idx + 1 :]) + self._keys(succ))
                child = (sign * succ.offset, (-sign, merged))
                if child not in seen:
                    seen.add(child)
                    yield child

    @staticmethod
    def mirror_queries(rng, count):
        """A piece, its colour-swapped translate and a random piece on one
        torus; the first two cancel."""
        g = build_torus(8, 8)
        queries = []
        for _ in range(count):
            piece = _grow_piece(rng, g, rng.randint(3, 6))
            cells = [divmod(v, 8) for v in range(g.n) if piece >> v & 1]
            alive = piece | _torus_cells(8, 8, cells, 4, 3) | _grow_piece(rng, g, rng.randint(3, 6))
            queries.append([Position.make(g, alive)])
        return queries

    def test_folded_children_search_as_rebuilt_ones(self):
        queries = [[Position.make(build_grid(3, 8))], [Position.make(build_torus(4, 6))],
                   [Position.make(build_hypercube(4))]]
        queries += _memo_queries(random.Random(1901), 60)
        queries += self.mirror_queries(random.Random(1902), 12)
        folded, rebuilt = Solver(), self.Rebuilding()
        for parts in queries:
            assert folded.score_of_sum(parts) == rebuilt.score_of_sum(parts), parts
            assert folded.nodes == rebuilt.nodes, parts
        assert folded.table.memo == rebuilt.table.memo
        assert folded.table.bounds == rebuilt.table.bounds
        # a duplicate child costs a lookup, never an expansion
        assert folded.table.lookups > rebuilt.table.lookups


class TestTree:
    """``Solver.tree``, the search's tree loop on the solver's two seats,
    against the full tree expanded on the whole alive set."""

    BOARDS = [build_grid(3, 4), build_grid(4, 4), build_torus(4, 4),
              build_cylinder(4, 3), build_hypercube(4)]

    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    def test_matches_the_full_tree(self, prune):
        rng = random.Random(21)
        shared = Solver(prune=prune)
        for _ in range(60):
            g = rng.choice(self.BOARDS)
            alive = rng.getrandbits(g.n) if rng.random() < 0.7 else g.full_mask
            position = Position.make(g, alive, rng.randint(-2, 2))
            tree = shared.tree(position)
            assert equivalent(tree, whole_position_tree(position)), (g.name, alive)
            pair = shared.scores(position)
            assert (ls(tree), rs(tree)) == (pair.ls, pair.rs), (g.name, alive)

    def test_a_seat_is_its_built_twin_negated(self):
        """Both seats of grids 3x5 and 4x4, built in either order on one
        solver per order: the seat built second is read off the first,
        with no move expanded, and each seat's two trees are equivalent
        with the scores of the board from that seat."""
        def expand(node):
            raise AssertionError("the second seat expanded a node")

        boards = [Position.make(build_grid(3, 5)), Position.make(build_grid(4, 4))]
        trees = {}
        for order in ((1, -1), (-1, 1)):
            solver = Solver()
            for board in boards:
                keys = solver._cancel(solver._keys(board))
                first, second = order
                trees[order, board, first] = solver._tree((first, keys))
                solver._children = expand
                trees[order, board, second] = solver._tree((second, keys))
                del solver._children
        for board in boards:
            pair = Solver().scores(board)
            for sign, want in ((1, (pair.ls, pair.rs)), (-1, (-pair.rs, -pair.ls))):
                a, b = trees[(1, -1), board, sign], trees[(-1, 1), board, sign]
                assert equivalent(a, b), (board, sign)
                assert (ls(a), rs(a)) == (ls(b), rs(b)) == want, (board, sign)

    def test_trees_are_kept_per_key(self):
        solver = Solver()
        board = Position.make(build_grid(3, 4))
        tree = solver.tree(board)
        kept = len(solver._trees)
        assert solver.tree(board) is tree and len(solver._trees) == kept
        # the empty position is the number 0, plus what was banked
        assert solver.tree(Position.make(build_segment(1))) is number(1)


class TestBudget:
    def test_budget_error(self):
        tiny = Solver(node_budget=5)
        with pytest.raises(SearchBudgetError):
            tiny.scores(Position.make(build_grid(3, 4)))

    def test_budget_error_carries_budget(self):
        tiny = Solver(node_budget=3)
        with pytest.raises(SearchBudgetError) as info:
            tiny.scores(Position.make(build_grid(3, 3)))
        assert "3" in str(info.value)


class TestAudits:
    def test_milnor_audit_clean_on_segments(self, solver):
        for n in (1, 4, 6, 7):
            report = milnor_audit(Position.make(build_segment(n)), depth=4, solver=solver)
            assert report.clean
            assert report.positions_checked > 0

    def test_milnor_audit_random(self, solver, rng):
        for _ in range(60):
            pos = random_position(rng, max_n=8)
            report = milnor_audit(pos, depth=3, solver=solver)
            assert report.clean, report.first_violation

    def test_gift_bounds_random(self, solver, rng):
        for _ in range(60):
            pos = Position.make(random_ground(rng, max_n=9))
            blacks = pos.alive & pos.ground.black_mask
            whites = pos.alive & pos.ground.white_mask
            bg = blacks & rng.getrandbits(pos.ground.n)
            wg = whites & rng.getrandbits(pos.ground.n)
            report = gift_bounds_check(pos, black_gift=bg, white_gift=wg, solver=solver)
            assert report.all_ok

    def test_gift_requires_matching_color(self, solver):
        pos = Position.make(build_segment(4))
        with pytest.raises(ValueError):
            gift_bounds_check(pos, black_gift=0b10, solver=solver)  # white vertex
