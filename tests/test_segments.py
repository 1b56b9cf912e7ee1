"""Segment engine: memo keys, move arithmetic, search, tables, caching."""

import json
import random

import pytest

from bipartite_influence.graphs import (
    Position,
    VertexColor,
    apply_move,
    build_grid,
    build_segment,
    components,
    disjoint_union,
    legal_moves,
    segment_value,
)
from bipartite_influence.segments import (
    CACHE_FORMAT,
    SegmentEngine,
    SegmentSum,
    _PARTNER_RULES,
    _SINGLE_RULES,
    periodicity_scan,
    raw_union_tree,
    segment_moves,
    segment_table,
    segment_union_tree,
    write_table_csv,
)
from bipartite_influence.games import (
    add,
    add_all,
    equivalent,
    ls,
    negate,
    number,
    rs,
    simplify,
)
from bipartite_influence.thermo import thermograph
from bipartite_influence.solver import ScorePair, Solver

from conftest import (
    full_union_tree,
    random_position,
    raw_score,
    ref_is_simplified,
    ref_segment_black_score,
    whole_position_tree,
)

# Exact scores of single segments, frozen after cross-checking the engine
# against the generic graph solver and the rewrite-free engine.
TABLE_40 = [
    (1, 1, 1), (2, 2, -2), (3, 3, -3), (4, 4, -4), (5, 5, -1),
    (6, 2, -2), (7, 1, -3), (8, 2, -2), (9, 3, -1), (10, 2, -2),
    (11, 1, -3), (12, 2, -2), (13, 3, -1), (14, 4, -4), (15, 3, -3),
    (16, 2, -2), (17, 3, -1), (18, 2, -2), (19, 3, -3), (20, 2, -2),
    (21, 5, -1), (22, 4, -4), (23, 3, -3), (24, 2, -2), (25, 3, -1),
    (26, 2, -2), (27, 3, -3), (28, 2, -2), (29, 5, -1), (30, 4, -4),
    (31, 3, -3), (32, 2, -2), (33, 3, -1), (34, 2, -2), (35, 3, -3),
    (36, 2, -2), (37, 5, -1), (38, 2, -2), (39, 3, -3), (40, 2, -2),
]


@pytest.fixture(scope="module")
def engine():
    return SegmentEngine()


@pytest.fixture(scope="module")
def oracle():
    return SegmentEngine(use_rewrite=False)


class TestNormalForm:
    """Memo keys come from ``SegmentEngine._reduce``, the only canonicalizer;
    it banks single vertices as points."""

    def test_zero_part_rejected(self):
        with pytest.raises(ValueError):
            SegmentSum([3, 0])

    def test_parts_sorted_on_construction(self):
        assert SegmentSum([5, -3, 2]).parts == (-3, 2, 5)

    def test_singles_become_offset(self, engine, oracle):
        for eng in (engine, oracle):
            assert eng._reduce([7]) == ((7,), 0)
            assert (eng.scores(SegmentSum([1, 1, -1, 7]))
                    == eng.scores(SegmentSum([7], offset=1)))

    def test_even_orientation(self, engine, oracle):
        for eng in (engine, oracle):
            assert eng._reduce([-8]) == ((8,), 0)
        assert oracle._reduce([-6]) == ((6,), 0)

    def test_opposite_odds_cancel(self, engine, oracle):
        for eng in (engine, oracle):
            assert eng._reduce([9, -9, 2]) == ((2,), 0)
            assert eng._reduce([7, -7, 2]) == ((2,), 0)

    def test_equal_evens_cancel(self, engine, oracle):
        for eng in (engine, oracle):
            assert eng._reduce([4, -4, 4]) == ((4,), 0)

    def test_rewrite_splits_ten(self, engine):
        assert engine._reduce([10]) == ((2, 8), 0)

    def test_rewrite_leaves_two_alone(self, engine, oracle):
        for eng in (engine, oracle):
            assert eng._reduce([2]) == ((2,), 0)

    def test_normal_form_four_six(self, engine):
        # the split manufactures an equal even pair, which then cancels
        assert engine._reduce([4, 6]) == ((2,), 0)

    def test_normal_form_without_rewrite(self, oracle):
        assert oracle._reduce([6]) == ((6,), 0)
        assert oracle._reduce([10]) == ((10,), 0)
        assert oracle._reduce([4, 6]) == ((4, 6), 0)

    @pytest.mark.parametrize("rewrite", [True, False], ids=["rewrite", "oracle"])
    def test_keys_are_fixed_points_of_any_order(self, rewrite):
        eng = SegmentEngine(use_rewrite=rewrite)
        rng = random.Random(2001)
        sizes = [v for v in range(-30, 31) if v]
        for _ in range(2000):
            parts = [rng.choice(sizes) for _ in range(rng.randint(0, 7))]
            key, points = eng._reduce(parts)
            assert eng._reduce(key) == (key, 0), parts
            rng.shuffle(parts)
            assert eng._reduce(parts) == (key, points), parts

    @pytest.mark.parametrize("rewrite", [True, False], ids=["rewrite", "oracle"])
    def test_other_seat_of_a_key_is_the_mirrored_key(self, rewrite):
        """``scores`` reads Rs off the other seat of the reduced key, which
        is the key of the mirrored parts, whose banked points are minus the
        key's.  The other seat is a key already, which is what lets it skip
        ``_reduce``, and the other seat of the other seat is the key."""
        eng = SegmentEngine(use_rewrite=rewrite)
        rng = random.Random(2027)
        sizes = [v for v in range(-30, 31) if v]
        for _ in range(3000):
            parts = [rng.choice(sizes) for _ in range(rng.randint(1, 6))]
            key, shift = eng._reduce(parts)
            other = eng._other_seat(key)
            mirrored = eng._reduce([-p if p & 1 else p for p in parts])
            assert (other, -shift) == mirrored, parts
            assert eng._reduce(other) == (other, 0), parts
            assert eng._other_seat(other) == key, parts

    def test_rule_tables_are_oriented(self):
        # parts are oriented before their rule is read, so a rule on a
        # negative even part, or a negative even partner, would never fire
        def oriented(r):
            return r & 1 or r > 0

        assert all(map(oriented, _SINGLE_RULES))
        assert all(map(oriented, _PARTNER_RULES))
        assert all(oriented(partner) for entries in _PARTNER_RULES.values()
                   for partner, _, _ in entries)


class TestMoveArithmetic:
    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_counts_and_remnant_sizes(self, n, sign):
        part = sign * n
        for black in (True, False):
            for count, remnants in segment_moves(part, black):
                assert 2 <= count <= 5
                assert count + sum(abs(r) for r in remnants) == n
                assert all(abs(r) >= 2 for r in remnants)

    def test_five_gain_only_on_five_segment(self):
        for n in range(2, 41):
            for part in (n, -n):
                for black in (True, False):
                    gains = [c for c, _ in segment_moves(part, black)]
                    if 5 in gains:
                        assert abs(part) == 5
        # the center of a five-segment belongs to the majority color
        assert (5, ()) in segment_moves(5, True)
        assert all(c < 5 for c, _ in segment_moves(5, False))
        assert (5, ()) in segment_moves(-5, False)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_graph_closure(self, n, sign):
        """Move arithmetic agrees with closure moves on the path graph."""
        part = sign * n
        ground = build_segment(part)
        start = Position.make(ground)
        for color, black in ((VertexColor.BLACK, True), (VertexColor.WHITE, False)):
            seen = []
            for removed in legal_moves(start, color):
                after = apply_move(start, removed, color)
                keys = []
                for comp in components(after):
                    key = segment_value(comp)
                    assert key is not None
                    keys.append(abs(key) if key % 2 == 0 else key)
                seen.append((removed.bit_count(), tuple(sorted(keys))))
            arith = [
                (count, tuple(sorted(abs(r) if r % 2 == 0 else r for r in rem)))
                for count, rem in segment_moves(part, black)
            ]
            assert sorted(seen) == sorted(arith)

    def test_pruning_drops_extremities(self):
        full = segment_moves(7, True)
        pruned = segment_moves(7, True, prune=True)
        assert set(pruned) <= set(full)
        assert len(pruned) < len(full)
        # short segments keep everything
        assert segment_moves(3, True, prune=True) == segment_moves(3, True)

    def test_pruned_engine_scores_match(self, engine, rng):
        """The engine prunes extremity moves; the reference tries them all."""
        for _ in range(60):
            parts = [rng.choice([2, 3, -3, 5, -5, 7, -7, 8, 11])
                     for _ in range(rng.randint(1, 4))]
            assert engine.scores(SegmentSum(parts)) == _reference_pair(parts), parts


class TestRewriteRules:
    """Every internal substitution is an exact equivalence of games.

    The check plays the difference: a rule ``old == new + c`` holds iff
    ``old + negate(new) - c`` has both scores zero, where negating a union
    flips odd parts and keeps even parts (an even segment is its own
    negative).  The rewrite-free engine is the judge.
    """

    @staticmethod
    def _negated(parts):
        return [-p if p % 2 else p for p in parts]

    def test_single_part_rules(self, oracle):
        for part, (repl, c) in _SINGLE_RULES.items():
            diff = SegmentSum([part] + self._negated(repl), -c)
            pair = oracle.scores(diff)
            assert pair.ls == 0 and pair.rs == 0, (part, repl, c)

    def test_partner_rules(self, oracle):
        for part, entries in _PARTNER_RULES.items():
            for partner, repl, c in entries:
                diff = SegmentSum([part, partner] + self._negated(repl), -c)
                pair = oracle.scores(diff)
                assert pair.ls == 0 and pair.rs == 0, (part, partner, repl, c)

    def test_rewrite_engine_matches_oracle(self, oracle, engine, rng):
        pool = [1, -1, 2, 3, -3, 4, 5, -5, 6, 7, -7, 9, -9, 11, 13, -13]
        for _ in range(120):
            parts = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            s = SegmentSum(parts, rng.randint(-3, 3))
            assert engine.scores(s) == oracle.scores(s)

    def test_part_order_never_matters(self, engine, rng):
        for _ in range(60):
            parts = [rng.choice([2, 3, -3, 4, 5, -5, 7, -7, 9, 13])
                     for _ in range(rng.randint(2, 6))]
            base = engine.scores(SegmentSum(parts))
            rng.shuffle(parts)
            assert engine.scores(SegmentSum(parts)) == base


def _reference_pair(parts):
    """Ls and Rs of a union by the plain reference minimax; White moving
    first on a union is Black moving first on its color swap."""
    return ScorePair(ref_segment_black_score(parts),
                     -ref_segment_black_score([-p for p in parts]))


class TestSearch:
    """The engine's MTD(f) search against ``ref_segment_black_score``, a
    plain minimax with no key reduction, no rewrite rules and no cutoffs.
    The rewrite-free engine shares the search, so it cannot check it."""

    @pytest.mark.parametrize("use_rewrite", [True, False])
    def test_random_sums_match_reference(self, use_rewrite, rng):
        eng = SegmentEngine(use_rewrite=use_rewrite)
        for _ in range(300):
            parts, room = [], rng.randint(2, 24)
            while room > 0 and len(parts) < 5:
                size = rng.randint(1, min(room, 13))
                parts.append(rng.choice((1, -1)) * size)
                room -= size
            assert eng.scores(SegmentSum(parts)) == _reference_pair(parts), parts

    def test_children_reduce_only_what_the_search_reaches(self):
        """No move's child is made before the search reaches it: of more
        than fifteen moves, the first child takes one ``_reduce`` and the
        two slices of its base, and no other move is touched."""
        eng = SegmentEngine()
        key = eng._reduce([7, 11, 16, 20])[0]
        assert sum(len(eng._move_list(p)) for p in set(key)) > 15
        calls, slices = [], []
        reduce = eng._reduce
        eng._reduce = lambda values, key=(): calls.append(values) or reduce(values, key)

        class Mirror(tuple):
            def __getitem__(self, i):
                if isinstance(i, slice):
                    slices.append(i)
                return tuple.__getitem__(self, i)

        other_seat = eng._other_seat
        eng._other_seat = lambda parts: Mirror(other_seat(parts))
        children = eng._children(key)
        assert calls == []
        next(children)
        assert len(calls) == 1
        assert len(slices) == 2

    @pytest.mark.parametrize("use_rewrite", [True, False])
    def test_lazy_children_are_the_eager_ones(self, use_rewrite):
        """Every key the table search reached yields, move by move and ties
        included, what an eager expansion of ``segment_moves`` gives: moves
        taken part by part in key order, each part's in ``(count,
        remnants)`` order, then stably sorted largest net gain first (the
        count less what the remnants bank on their own) and, among equal
        net gains, smaller count first.  Each child is reduced only when
        it is reached."""
        eng = SegmentEngine(use_rewrite=use_rewrite)
        segment_table(40, eng)
        keys = set(eng.memo) | set(eng.table.bounds)
        assert len(keys) > 500
        reduce = eng._reduce
        calls = []

        def counting(values, key=()):
            calls.append(values)
            return reduce(values, key)

        def mirror(parts):
            return [-p if p & 1 else p for p in parts]

        eng._reduce = counting
        for key in keys:
            eager = []
            for part in dict.fromkeys(key):
                rest = list(key)
                rest.remove(part)
                for count, rem in sorted({(c, tuple(sorted(r)))
                                          for c, r in segment_moves(part, True, prune=True)}):
                    net = count - reduce(mirror(rem))[1]
                    core, shift = reduce(mirror(rest + list(rem)))
                    eager.append((net, count, (count - shift, core)))
            eager.sort(key=lambda m: (-m[0], m[1]))
            calls.clear()
            lazy = []
            for child in eng._children(key):
                assert len(calls) == len(lazy) + 1
                lazy.append(child)
            assert lazy == [child for _, _, child in eager], key

    def test_move_order_changes_no_score(self):
        """The net-gain order, the earlier most-vertices-first order and the
        rewrite-free engine agree on rows 1-62 and on seeded sums; the
        net-gain order expands fewer nodes on the rows."""

        class CountOrder(SegmentEngine):
            def _move_list(self, part):
                """Moves in ``(count, remnants)`` order, ranked by ``-count``,
                so ``_children`` tries most vertices first."""
                still = self._still
                image = -part if part & 1 and part != still else part
                return tuple(
                    (-count, count, image,
                     tuple([-r if r & 1 and r != still else r for r in rem]))
                    for count, rem in sorted(
                        {(count, tuple(sorted(rem)))
                         for count, rem in segment_moves(part, True, prune=True)}))

        new, old, plain = SegmentEngine(), CountOrder(), SegmentEngine(use_rewrite=False)
        rows = segment_table(62, new)
        assert segment_table(62, old) == rows
        assert new.nodes < old.nodes
        assert segment_table(62, plain) == rows
        rng = random.Random(33)
        for _ in range(200):
            parts, room = [], rng.randint(4, 30)
            while room > 0 and len(parts) < 4:
                size = rng.randint(1, min(room, 17))
                parts.append(rng.choice((1, -1)) * size)
                room -= size
            s = SegmentSum(parts, rng.randint(-2, 2))
            assert new.scores(s) == old.scores(s) == plain.scores(s), parts

    @pytest.mark.parametrize("max_n, nodes, entries", [(62, 3642, 3337), (80, 15141, 13720)])
    def test_table_search_work_is_pinned(self, max_n, nodes, entries):
        """A fresh engine's table expands exactly these nodes and leaves
        these memo and bound entries.  A change to the move order changes
        them: such a change updates these numbers with its measurements."""
        eng = SegmentEngine()
        segment_table(max_n, eng)
        assert eng.nodes == nodes
        assert len(eng.memo) + len(eng.table.bounds) == entries

    @pytest.mark.parametrize("search", ["segments", "solver"])
    def test_memo_holds_only_exact_scores(self, search):
        """Both engines share the zero-window search and its memo layout:
        proven scores in ``memo``, open bounds in ``table.bounds``, never both."""
        if search == "segments":
            eng = SegmentEngine()
            segment_table(30, eng)
            reference = ref_segment_black_score
        else:
            def reference(node):
                sign, comps = node
                union = disjoint_union([c.position for c in comps])
                return sign * raw_score(union, union.full_mask, sign > 0)

            eng = Solver()
            rng = random.Random(15)
            for _ in range(40):
                eng.scores(random_position(rng, max_n=14, p=0.3))
            eng.scores(Position.make(build_grid(3, 5)))
        # besides the queried roots, nodes whose bounds met joined the memo
        assert len(eng.memo) > 60
        assert not set(eng.memo) & set(eng.table.bounds)
        for key, value in eng.memo.items():
            assert value == reference(key), key


class TestTables:
    def test_frozen_first_forty(self, engine):
        assert segment_table(40, engine=engine) == TABLE_40

    def test_single_values(self, engine):
        assert engine.scores(SegmentSum([14])) == ScorePair(4, -4)
        assert engine.scores(SegmentSum([37])) == ScorePair(5, -1)
        # a nine-segment plus a two-segment collapses to the number one
        assert engine.scores(SegmentSum([9, 2])) == ScorePair(1, 1)

    def test_offset_shifts_both_scores(self, engine):
        base = engine.scores(SegmentSum([7]))
        moved = engine.scores(SegmentSum([7], offset=3))
        assert (moved.ls, moved.rs) == (base.ls + 3, base.rs + 3)

    def test_table_rejects_empty_range(self, engine):
        with pytest.raises(ValueError):
            segment_table(0, engine)

    def test_csv_shape(self, engine, tmp_path):
        rows = segment_table(5, engine=engine)
        out = tmp_path / "table.csv"
        with out.open("w") as fh:
            write_table_csv(rows, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,ls,rs"
        assert lines[5] == "5,5,-1"
        assert len(lines) == 6


class TestPeriodicity:
    def test_synthetic_violation(self):
        rows = [(1, 1, 1), (2, 2, 2), (3, 1, 1), (4, 2, 2), (5, 9, 9), (6, 2, 2)]
        assert periodicity_scan(rows, period=2, preperiod=0) == [3]
        assert periodicity_scan(rows, period=2, preperiod=3) == []

    def test_real_table_period_four(self, engine):
        rows = segment_table(40, engine=engine)
        # the jump to 5 at n = 37 breaks period four...
        assert periodicity_scan(rows, period=4, preperiod=30) == [33]
        # ...but period eight holds on this window
        assert periodicity_scan(rows, period=8, preperiod=30) == []

    def test_bad_period(self):
        with pytest.raises(ValueError):
            periodicity_scan([(1, 1, 1)], period=0, preperiod=0)


class TestBounds:
    """With ``k`` odd parts, ``-k - 4 <= Rs <= Ls <= k + 4``; all-even
    unions sit in ``[-4, 0]`` and ``[0, 4]``, and a single segment of two
    or more vertices has strictly signed scores within 5."""

    def test_many_odd_parts_hit_the_cap(self, oracle):
        pair = oracle.scores(SegmentSum([5, 5, 5, 5, 5]))
        assert pair == ScorePair(9, 3)
        assert -5 - 4 <= pair.rs <= pair.ls <= 5 + 4

    def test_all_even_window(self, oracle):
        pair = oracle.scores(SegmentSum([8, 6]))
        assert pair == ScorePair(2, -2)
        assert -4 <= pair.rs <= 0 <= pair.ls <= 4

    def test_single_segment_window(self, oracle):
        pair = oracle.scores(SegmentSum([14]))
        assert -5 <= pair.rs < 0 < pair.ls <= 5

    def test_empty_union(self, oracle):
        pair = oracle.scores(SegmentSum([]))
        assert pair == ScorePair(0, 0)
        assert -4 <= pair.rs <= pair.ls <= 4


class TestCache:
    def test_round_trip(self, tmp_path):
        warm = SegmentEngine()
        segment_table(20, engine=warm)
        path = tmp_path / "cache.json"
        warm.save(path)

        cold = SegmentEngine()
        loaded = cold.load(path)
        assert loaded == len(warm.memo)
        assert cold.memo == warm.memo
        # a fully warmed engine answers tabulated sizes without expanding
        assert cold.scores(SegmentSum([19])) == warm.scores(SegmentSum([19]))
        assert cold.nodes == 0

    def test_save_writes_memo_only(self, tmp_path):
        eng = SegmentEngine()
        segment_table(30, eng)
        assert eng.table.bounds  # the search keeps bounds it never saves
        path = tmp_path / "cache.json"
        eng.save(path)
        entries = json.loads(path.read_text())["entries"]
        assert len(entries) == len(eng.memo)
        assert {tuple(key): value for key, value in entries} == eng.memo

    def test_loaded_table_needs_no_search(self, tmp_path):
        warm = SegmentEngine()
        segment_table(40, engine=warm)
        path = tmp_path / "cache.json"
        warm.save(path)
        cold = SegmentEngine()
        cold.load(path)
        assert segment_table(40, engine=cold) == TABLE_40
        assert cold.nodes == 0

    def test_loads_a_full_minimax_file(self, tmp_path):
        """A file holding every position a search without cutoffs scores,
        as earlier versions wrote, still loads and gives the same rows."""
        eng = SegmentEngine()
        stack = [eng._reduce([sign * n])[0]
                 for n in range(2, 25) for sign in (1, -1)]
        full = {}
        while stack:
            parts = stack.pop()
            if not parts or parts in full:
                continue
            full[parts] = ref_segment_black_score(parts)
            for i, part in enumerate(parts):
                base = [-p if p & 1 else p for p in parts[:i] + parts[i + 1:]]
                for _, _, _, remnants in eng._move_list(part):  # mirrored already
                    stack.append(eng._reduce(base + list(remnants))[0])
        segment_table(20, engine=eng)
        assert len(full) > 2 * len(eng.memo)  # entries this engine never writes
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "format": CACHE_FORMAT, "version": 1, "rewrite": True,
            "entries": [[list(key), value] for key, value in full.items()],
        }))
        loaded = SegmentEngine()
        assert loaded.load(path) == len(full)
        assert segment_table(40, engine=loaded) == TABLE_40
        assert all(loaded.memo[key] == value for key, value in full.items())

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else", "entries": []}')
        with pytest.raises(ValueError, match="not a segment cache"):
            SegmentEngine().load(path)

    def test_rejects_future_version(self, tmp_path):
        warm = SegmentEngine()
        segment_table(5, engine=warm)
        path = tmp_path / "cache.json"
        warm.save(path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            SegmentEngine().load(path)

    def test_rejects_rewrite_mismatch(self, tmp_path):
        warm = SegmentEngine(use_rewrite=False)
        segment_table(5, engine=warm)
        path = tmp_path / "cache.json"
        warm.save(path)
        with pytest.raises(ValueError, match="rewrite"):
            SegmentEngine().load(path)

    def test_malformed_entries_leave_memo_untouched(self, tmp_path):
        path = tmp_path / "cache.json"
        # a non-integer score, scores beyond the key's vertex count, and keys
        # no ``_reduce`` makes: a zero part, a single vertex, a float part
        for bad in ([[5], "x"], [[5], 99], [[3, 4], -8], [[0, 4], 1],
                    [[1, 4], 1], [[2.0], 0]):
            path.write_text(json.dumps({
                "format": CACHE_FORMAT, "version": 1, "rewrite": True,
                "entries": [[[2, 4], 2], [[5], 5], bad],
            }))
            eng = SegmentEngine()
            with pytest.raises(ValueError, match="malformed"):
                eng.load(path)
            assert eng.memo == {}

    def test_failed_save_leaves_no_temporary_file(self, tmp_path):
        eng = SegmentEngine()
        segment_table(5, engine=eng)
        path = tmp_path / "segment-scores.json"
        path.mkdir()  # the final rename cannot replace a directory
        with pytest.raises(OSError):
            eng.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["segment-scores.json"]

    def test_format_constant_in_payload(self, tmp_path):
        warm = SegmentEngine()
        segment_table(3, engine=warm)
        path = tmp_path / "cache.json"
        warm.save(path)
        assert json.loads(path.read_text())["format"] == CACHE_FORMAT


# Sums of up to 16 vertices with banked +-1 parts, negative odd and even
# parts, repeated parts and a part with its negative.
UNION_SUMS = [
    ((2, 3), 0),
    ((1, -1, 5), 0),
    ((-3, 4, 1), 2),
    ((-5, -4, 2), -3),
    ((3, 3, -3, 1), 1),
    ((7, -6, 1, -1), -1),
    ((2, 2, 2, 4, 6), 4),
    ((5, -5, 6), 0),
    ((-1, -1, 9, 5), 7),
]


def assert_canonical_form_of(tree, full):
    """``tree`` is a simplified game equal to the full tree ``full``."""
    assert (ls(tree), rs(tree)) == (ls(full), rs(full))
    assert equivalent(tree, full)
    assert simplify(tree) is tree
    assert ref_is_simplified(tree)


class TestUnionTrees:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_interned_with_graph_expansion(self, n):
        for signed in (n, -n):
            full = full_union_tree([signed])
            assert full is raw_union_tree([signed])
            assert_canonical_form_of(segment_union_tree([signed]), full)

    @pytest.mark.parametrize("parts, offset", UNION_SUMS)
    def test_sum_matches_the_union_board(self, parts, offset):
        pieces = [Position.make(build_segment(p)) for p in parts]
        banked = offset + sum(p.offset for p in pieces)
        board = Position.make(disjoint_union(pieces), offset=banked)
        assert board.vertex_count <= 16
        tree = full_union_tree(parts, offset)
        assert tree is whole_position_tree(board)
        singles = [whole_position_tree(Position.make(build_segment(p))) for p in parts]
        assert tree is add_all([number(offset)] + singles)
        assert tree is add(raw_union_tree(parts), number(offset))
        assert_canonical_form_of(add(number(offset), segment_union_tree(parts)), tree)
        s = SegmentSum(parts, offset)
        pair = SegmentEngine().scores(s)
        assert pair == SegmentEngine(use_rewrite=False).scores(s)
        assert pair == Solver().score_of_sum([board])
        alone = Solver().score_of_sum(pieces)
        assert pair == ScorePair(alone.ls + offset, alone.rs + offset)

    # Induced paths in a 4x4 grid (vertex i * 4 + j, Black on even i + j):
    # a staircase from the Black corner, one from a White vertex, an even
    # one, and two separate paths.
    @pytest.mark.parametrize("alive, parts", [
        ((0, 1, 5, 6, 10, 11, 15), [7]),
        ((1, 2, 6, 7, 11), [-5]),
        ((0, 1, 5, 6, 10, 11), [6]),
        ((0, 1, 2, 8, 9, 10, 11), [3, 4]),
    ])
    def test_path_inside_a_grid(self, alive, parts):
        grid = build_grid(4, 4)
        position = Position.make(grid, sum(1 << v for v in alive))
        assert position.vertex_count == len(alive)
        full = whole_position_tree(position)
        assert full is full_union_tree(parts)
        assert full is raw_union_tree(parts)
        assert_canonical_form_of(segment_union_tree(parts), full)

    def test_offset_and_singles_absorbed(self):
        assert add(number(-2), segment_union_tree([1, 1, 3])) is segment_union_tree([3])
        assert full_union_tree([1, 1, 3], offset=-2) is full_union_tree([3])
        assert add(number(-2), raw_union_tree([1, 1, 3])) is raw_union_tree([3])

    def test_raw_trees_of_every_small_union(self):
        # every multiset of signed parts of at most 12 vertices in all
        def unions(room, least):
            yield []
            for size in range(least, room + 1):
                for part in (size, -size):
                    for rest in unions(room - size, size):
                        if not rest or (abs(rest[0]), rest[0]) >= (size, part):
                            yield [part] + rest

        seen = 0
        for parts in unions(12, 1):
            assert raw_union_tree(parts) is full_union_tree(parts), parts
            seen += 1
        assert seen == 3132

    def test_zero_part_rejected(self):
        with pytest.raises(ValueError):
            segment_union_tree([0])


class TestCanonicalTrees:
    """Trees simplified while they are built, against full trees built
    with no simplification at all."""

    def test_thermographs_of_single_segments(self):
        for n in range(1, 23):
            for signed in (n, -n):
                tree, full = segment_union_tree([signed]), full_union_tree([signed])
                assert ref_is_simplified(tree)
                assert thermograph(tree) == thermograph(full)

    def test_a_seat_is_its_built_twin_negated(self, fresh_trees):
        """S_±5..S_±21 built in either order, on one engine and empty tree
        tables per order: the segment built second is read off the first,
        with no move expanded, and each segment's two trees are equivalent
        with its scores."""
        def expand(node):
            raise AssertionError("the second seat expanded a node")

        trees = {}
        for order in ((1, -1), (-1, 1)):
            fresh_trees[True] = {}
            engine = SegmentEngine()
            for n in range(5, 22):
                first, second = order
                trees[order, first * n] = engine.tree(SegmentSum([first * n]))
                engine._children = expand
                trees[order, second * n] = engine.tree(SegmentSum([second * n]))
                del engine._children
        for signed in (s for n in range(5, 22) for s in (n, -n)):
            a, b = trees[(1, -1), signed], trees[(-1, 1), signed]
            pair = engine.scores(SegmentSum([signed]))
            assert equivalent(a, b), signed
            assert (ls(a), rs(a)) == (ls(b), rs(b)) == (pair.ls, pair.rs), signed

    def test_random_unions(self):
        rng = random.Random(2022)
        for _ in range(200):
            parts, room = [], rng.randint(1, 16)
            while room:
                size = rng.randint(1, room)
                room -= size
                parts.append(rng.choice((size, -size)))
            offset = rng.randint(-3, 3)
            assert_canonical_form_of(add(number(offset), segment_union_tree(parts)),
                                     full_union_tree(parts, offset))


class TestSharedTrees:
    """Every engine of one rewrite mode reads and fills one tree table, so
    a tree is built once per process."""

    def test_warm_trees_expand_nothing(self, monkeypatch, fresh_trees):
        expanded = []
        children = SegmentEngine._children

        def counted(self, node):
            expanded.append(node)
            return children(self, node)

        monkeypatch.setattr(SegmentEngine, "_children", counted)
        segment_union_tree([35])
        assert expanded
        for parts in ([35], [21, 7], [3, 5, 7], [-6, 9]):
            first = segment_union_tree(parts)
            expanded.clear()
            assert segment_union_tree(parts) is first
            assert expanded == [], parts
        for n in range(1, 23, 2):
            segment_union_tree([n])
            expanded.clear()
            assert equivalent(segment_union_tree([-n]), negate(segment_union_tree([n])))
            assert expanded == [], n
        a, b = SegmentEngine(), SegmentEngine()
        assert a._trees is b._trees is fresh_trees[True]
        s = SegmentSum([11, -4])
        assert a.tree(s) is b.tree(s)

    def test_warm_trees_equal_cold_trees(self, fresh_trees):
        # Each union is built warm after its mirror, so it may be read off
        # its twin: compare values, not forms.
        rng = random.Random(26)
        unions = []
        for _ in range(40):
            sizes = [rng.randint(1, 14)]
            while len(sizes) < 3 and sum(sizes) < 14 and rng.random() < 0.6:
                sizes.append(rng.randint(1, 14 - sum(sizes)))
            unions.append([rng.choice((size, -size)) for size in sizes])
        warm = {}
        for parts in unions:
            segment_union_tree([-p if p & 1 else p for p in parts])
            warm[tuple(parts)] = segment_union_tree(parts)
        for parts in unions:
            fresh_trees[True] = {}
            cold = segment_union_tree(parts)
            hot = warm[tuple(parts)]
            full = raw_union_tree(parts)
            assert equivalent(hot, cold), parts
            assert equivalent(hot, full) and equivalent(cold, full), parts
            a, b = thermograph(hot), thermograph(cold)
            assert (a.sigma, a.mast) == (b.sigma, b.mast), parts

    def test_one_table_per_rewrite_mode(self, fresh_trees):
        s = SegmentSum([13, -10, 5])
        plain = SegmentEngine(use_rewrite=False).tree(s)
        assert fresh_trees[True] == {} and fresh_trees[False]
        assert equivalent(plain, SegmentEngine().tree(s))
        assert fresh_trees[True]


class TestRulesAsGameEqualities:
    """Each rewrite of ``_reduce`` is an equality of games, not only of
    scores: trees built on the rewritten keys equal the trees of the
    rewrite-free engine, which keeps only orientation, pair cancellation
    and the pruned extremity moves."""

    def test_single_segments(self, engine, oracle):
        for n in range(1, 27):
            for signed in (n, -n):
                s = SegmentSum([signed])
                assert equivalent(engine.tree(s), oracle.tree(s)), signed

    def test_random_unions(self, engine, oracle):
        rng = random.Random(16)
        for _ in range(200):
            parts, room = [], rng.randint(1, 24)
            while room:
                size = rng.randint(1, room)
                room -= size
                parts.append(rng.choice((size, -size)))
            s = SegmentSum(parts, rng.randint(-3, 3))
            assert equivalent(engine.tree(s), oracle.tree(s)), s
