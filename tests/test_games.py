"""Abstract game trees: construction, arithmetic, equivalence, simplify."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bipartite_influence.games import (
    MAX_NOTATION_SIZE,
    Game,
    add,
    add_all,
    audit_universe,
    dominates,
    equivalent,
    format_game,
    ls,
    negate,
    node,
    notation_size,
    number,
    parse_game,
    repeated,
    rs,
    simplify,
)
from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    apply_move,
    build_segment,
    disjoint_union,
    legal_moves,
)
from bipartite_influence.segments import (
    SegmentEngine,
    SegmentSum,
    raw_union_tree,
    segment_union_tree,
)
from bipartite_influence.solver import Solver

from conftest import (
    full_union_tree,
    leaf_values,
    length,
    random_ground,
    ref_dominates,
    ref_equivalent,
    ref_is_simplified,
    whole_position_tree,
)


def house_graph():
    # a 4-cycle 1-2-3-4 with the pendant 0 hanging off vertex 1
    return GroundGraph(
        [BLACK, WHITE, BLACK, WHITE, BLACK],
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)],
    )


def leaf_multiset(g: Game) -> Counter:
    """Leaf scores counted once per line of play (no sharing collapse)."""
    if g.is_number:
        return Counter({g.value: 1})
    out: Counter = Counter()
    for opt in g.left + g.right:
        out.update(leaf_multiset(opt))
    return out


def longest_line(position: Position) -> int:
    """Independent play-length oracle, straight off the move rules."""
    best = 0
    for color in (BLACK, WHITE):
        for removed in legal_moves(position, color):
            best = max(best, 1 + longest_line(apply_move(position, removed, color)))
    return best


def seg_tree(n: int) -> Game:
    return whole_position_tree(Position.make(build_segment(n)))


class TestConstruction:
    def test_numbers_are_interned(self):
        assert number(3) is number(3)
        assert number(Fraction(1, 2)) is number(Fraction(2, 4))

    def test_number_scores(self):
        g = number(Fraction(-7, 2))
        assert ls(g) == rs(g) == Fraction(-7, 2)

    def test_node_scores(self):
        g = node([number(-1)], [number(-5)])
        assert ls(g) == -1
        assert rs(g) == -5

    def test_node_requires_both_sides(self):
        with pytest.raises(ValueError):
            node([], [number(0)])

    def test_duplicate_options_collapse(self):
        a = node([number(1), number(1)], [number(0)])
        b = node([number(1)], [number(0)])
        assert a is b


class TestArithmetic:
    def test_number_addition(self):
        assert add(number(2), number(3)) is number(5)

    def test_number_absorbs_into_node(self):
        g = node([number(3)], [number(-3)])
        shifted = add(number(2), g)
        assert ls(shifted) == 5
        assert rs(shifted) == -1

    def test_add_commutes_structurally(self):
        g = seg_tree(3)
        h = seg_tree(2)
        assert add(g, h) is add(h, g)

    def test_negate_involution(self):
        g = seg_tree(5)
        assert negate(negate(g)) is g

    def test_negate_swaps_scores(self):
        g = seg_tree(5)
        assert ls(negate(g)) == -rs(g)
        assert rs(negate(g)) == -ls(g)

    def test_add_all_and_repeated(self):
        g = seg_tree(2)
        assert add_all([g, g, g]) is repeated(g, 3)
        assert add_all([]) is number(0)
        assert add_all([g]) is g
        assert add_all([number(3), g]) is add(g, number(3))
        with pytest.raises(ValueError):
            repeated(g, 0)

    def test_adding_zero_returns_the_other_summand(self):
        import bipartite_influence.games as games_module

        zero = number(0)
        for g in (parse_game("<<7|3>|<2|-9/2>>"), number(Fraction(11, 4)), zero):
            before = len(games_module._add_cache)
            assert add(g, zero) is g
            assert add(zero, g) is g
            assert len(games_module._add_cache) == before

    def test_sum_with_negation_is_zero(self):
        g = seg_tree(3)
        z = add(g, negate(g))
        assert ls(z) == 0
        assert rs(z) == 0


class TestFromPosition:
    """Full trees of positions, from the rule-free ``whole_position_tree``
    of conftest and the library's ``raw_union_tree``."""

    def test_segment_5_tree(self):
        g = seg_tree(5)
        assert format_game(simplify(g)) == "<5|<-1|-5>>"
        assert ls(g) == 5
        assert rs(g) == -1

    def test_house_graph_tree(self):
        g = whole_position_tree(Position.make(house_graph()))
        assert leaf_values(g) == {Fraction(5), Fraction(-1), Fraction(-5)}
        assert leaf_multiset(g) == Counter({5: 2, -1: 2, -5: 2})
        assert ls(g) == 5
        assert rs(g) == -5

    def test_offset_carried_into_tree(self):
        pos = Position.make(build_segment(2), offset=3)
        g = whole_position_tree(pos)
        assert ls(g) == 5
        assert rs(g) == 1

    def test_tree_scores_match_solver(self, rng):
        solver = Solver()
        for _ in range(80):
            ground = random_ground(rng, max_n=8)
            pos = Position.make(ground)
            g = whole_position_tree(pos)
            pair = solver.scores(pos)
            assert ls(g) == pair.ls
            assert rs(g) == pair.rs

    def test_length_matches_play_oracle(self):
        for n in range(1, 9):
            pos = Position.make(build_segment(n))
            assert length(whole_position_tree(pos)) == longest_line(pos)

    def test_sum_is_the_tree_of_the_union(self, rng):
        # random pieces, most of them not paths, summed with their offsets
        for _ in range(60):
            pieces = [Position.make(random_ground(rng, max_n=5), offset=rng.randint(-2, 2))
                      for _ in range(rng.randint(0, 3))]
            offset = sum(p.offset for p in pieces)
            board = Position.make(disjoint_union(pieces), offset=offset)
            summed = add_all([whole_position_tree(p) for p in pieces])
            assert summed is whole_position_tree(board)

    def test_each_component_expanded_once(self, monkeypatch):
        # raw_union_tree expands each distinct part once per mover
        import bipartite_influence.segments as segments_module

        expanded = []

        def recording_segment_moves(part, black, prune=False):
            expanded.append((part, black))
            return segment_moves(part, black, prune)

        segment_moves = segments_module.segment_moves
        monkeypatch.setattr(segments_module, "segment_moves", recording_segment_moves)
        for parts in ([7, 9, 11], [5, 5, -9], [6, -6, 6, 2]):
            expanded.clear()
            assert raw_union_tree(parts) is full_union_tree(parts)
            assert expanded and max(Counter(expanded).values()) == 1

    def test_length_of_segment_5(self):
        # every line of play on the 5-segment ends by the second move
        assert length(seg_tree(5)) == 2
        assert length(whole_position_tree(Position.make(house_graph()))) == 2
        assert length(number(4)) == 0


class TestUniverse:
    def test_zugzwang_flagged(self):
        g = parse_game("<-1|1>")
        assert audit_universe(g) is not None

    def test_clean_trees_pass(self, rng):
        for _ in range(40):
            pos = Position.make(random_ground(rng, max_n=8))
            assert audit_universe(whole_position_tree(pos)) is None

    def test_canonical_build_rejects_zugzwang(self, monkeypatch, fresh_trees):
        # no Influence position has a zugzwang, so stand one in for the
        # audit of the search's tree loop; raw_union_tree builds full trees
        # unaudited, and fresh tables keep a tree built earlier from
        # skipping the audit
        import bipartite_influence.games as games_module

        monkeypatch.setattr(games_module, "audit_universe", lambda g: "zugzwang subtree")
        with pytest.raises(ValueError, match="zugzwang subtree"):
            SegmentEngine().tree(SegmentSum([3]))
        with pytest.raises(ValueError, match="zugzwang subtree"):
            Solver().tree(Position.make(build_segment(3)))
        assert ls(raw_union_tree([3])) == 3

    def test_equivalent_rejects_zugzwang(self):
        g = parse_game("<-1|1>")
        with pytest.raises(ValueError):
            equivalent(g, number(0))


class TestEquivalence:
    def test_two_s5_equals_two_plus_s2(self):
        lhs = repeated(seg_tree(5), 2)
        rhs = add(number(2), seg_tree(2))
        assert equivalent(lhs, rhs)

    def test_four_s5_equals_four(self):
        assert equivalent(repeated(seg_tree(5), 4), number(4))

    def test_inequivalent_segments(self):
        assert not equivalent(seg_tree(5), seg_tree(3))

    def test_dominates_on_numbers(self):
        assert dominates(number(3), number(2))
        assert dominates(number(2), number(2))
        assert not dominates(number(1), number(2))


class TestSimplify:
    def test_simplify_idempotent(self):
        g = simplify(seg_tree(5))
        assert simplify(g) is g

    def test_simplify_preserves_equivalence(self, rng):
        for _ in range(30):
            pos = Position.make(random_ground(rng, max_n=7))
            g = whole_position_tree(pos)
            assert equivalent(simplify(g), g)

    def test_simplify_prunes_dominated_option(self):
        g = node([number(1), number(3)], [number(-2)])
        s = simplify(g)
        assert s.left == (number(3),)

    def test_number_shifts_keep_simplified_games_simplified(self):
        x = number(Fraction(5, 2))
        for n in range(4, 9):
            g = seg_tree(n)
            shifted = add(simplify(g), x)
            assert simplify(shifted) is shifted
            assert ref_is_simplified(shifted)
            raw_shift = add(g, x)
            assert not ref_is_simplified(raw_shift)
            assert ref_is_simplified(simplify(raw_shift))
            assert equivalent(simplify(raw_shift), shifted)

    def test_negation_keeps_simplified_games_simplified(self):
        rng = random.Random(1717)
        trees = [full_union_tree([n]) for n in range(-12, 13) if n]
        trees += [whole_position_tree(Position.make(random_ground(rng, max_n=8)))
                  for _ in range(60)]
        for g in trees:
            neg = negate(simplify(g))
            assert neg._simple is neg  # marked, so simplify does not walk it
            assert simplify(neg) is neg
            assert ref_is_simplified(neg)
            assert simplify(negate(g)) is neg

    def test_numbers_survive(self):
        assert simplify(number(7)) is number(7)


class TestMemoLifetimes:
    """Results about one game live on the game; comparison memos last one
    outermost ``simplify`` or ``equivalent`` call."""

    @staticmethod
    def memos_empty() -> bool:
        import bipartite_influence.games as games_module

        return not games_module._rs_nonneg_cache and not games_module._ls_nonneg_cache

    def test_comparison_memos_are_emptied(self):
        a, b = full_union_tree([9]), full_union_tree([4, 5])
        dominates(a, b)  # a bare comparison may leave entries behind
        g = full_union_tree([15])
        s = simplify(g)
        assert self.memos_empty()
        dominates(a, b)
        assert not equivalent(a, b)
        assert self.memos_empty()
        assert simplify(s) is s and g._simple is s and s._simple is s

    def test_negation_pairs_up(self):
        g = segment_union_tree([7])
        h = negate(g)
        assert negate(h) is g and g._neg is h and h._neg is g


def subgames(g: Game, out: dict[int, Game]) -> dict[int, Game]:
    """Every distinct subtree of ``g``, by uid."""
    if g.uid not in out:
        out[g.uid] = g
        for o in g.left + g.right:
            subgames(o, out)
    return out


class TestIntegerLeaves:
    """A number's value is an int when integral and a Fraction only off the
    integers; the scores ``ls`` and ``rs`` return are Fractions."""

    def test_an_integral_fraction_is_its_numerator(self):
        assert number(Fraction(6, 2)) is number(3)
        assert type(number(Fraction(6, 2)).value) is int
        assert type(number(Fraction(1, 2)).value) is Fraction
        half = number(Fraction(1, 2))
        assert add(half, half) is number(1) and type(add(half, half).value) is int
        assert type(parse_game("<4/2|-6/3>").left[0].value) is int

    def test_segment_trees_score_on_ints(self):
        for k in range(1, 15):
            for g in (segment_union_tree([k]), segment_union_tree([-k])):
                for sub in subgames(g, {}).values():
                    assert type(ls(sub)) is Fraction and type(rs(sub)) is Fraction
                    assert type(sub._ls) is int and type(sub._rs) is int
                    assert sub.value is None or type(sub.value) is int


class TestComparisonOracle:
    """``dominates`` and ``equivalent`` against the difference-building
    references in conftest."""

    @staticmethod
    def verdicts(g: Game, h: Game) -> list[bool]:
        got = [dominates(g, h), dominates(h, g), equivalent(g, h)]
        assert got == [ref_dominates(g, h), ref_dominates(h, g), ref_equivalent(g, h)]
        return got

    def test_subtrees_of_segment_trees(self):
        subs: dict[int, Game] = {}
        for n in range(1, 10):
            subgames(full_union_tree([n]), subs)
        games = list(subs.values())
        seen = set()
        for i, g in enumerate(games):
            for h in games[i:]:
                seen.add(tuple(self.verdicts(g, h)))
        assert len(seen) == 4  # each strict order, ties and incomparables

    def test_sums_with_rational_offsets(self):
        rng = random.Random(7)

        def sample() -> Game:
            parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
            offset = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
            return full_union_tree(parts, offset)

        equal = 0
        for _ in range(100):
            g, h = sample(), sample()
            self.verdicts(g, h)
            equal += self.verdicts(g, simplify(g))[2]
        assert equal == 100

    def test_numbers_against_nodes(self):
        rng = random.Random(8)
        nodes = [g for n in range(1, 8)
                 for g in subgames(full_union_tree([n]), {}).values()
                 if not g.is_number]
        for _ in range(300):
            x = number(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4))))
            self.verdicts(x, rng.choice(nodes))
            self.verdicts(x, number(Fraction(rng.randint(-6, 6), 2)))

    def test_parsed_switches(self):
        rng = random.Random(9)

        def switch(depth: int) -> str:
            if depth == 0 or rng.random() < 0.3:
                return str(Fraction(rng.randint(-8, 8), rng.choice((1, 2))))
            return f"<{switch(depth - 1)}|{switch(depth - 1)}>"

        games = []
        while len(games) < 60:
            g = parse_game(switch(3))
            if audit_universe(g) is None:
                games.append(g)
        for g in games:
            for h in games:
                self.verdicts(g, h)


def _interned_growth(code: str) -> int:
    """Games ``code`` adds to the intern table in a fresh interpreter,
    after the setup lines above its last line."""
    *setup, measured = [line.strip() for line in code.strip().splitlines()]
    script = "\n".join([
        "from bipartite_influence import games",
        "from bipartite_influence.segments import segment_union_tree",
        *setup,
        "before = len(games._intern)",
        measured,
        "print(len(games._intern) - before)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


class TestComparisonBuildsNothing:
    def test_simplify_segment_21_interns_few_games(self):
        grown = _interned_growth("""
            from bipartite_influence.segments import raw_union_tree
            tree = raw_union_tree([21])
            games.simplify(tree)
        """)
        assert grown < 1000

    def test_comparisons_intern_nothing(self):
        grown = _interned_growth("""
            a, b = segment_union_tree([9]), segment_union_tree([4, 5])
            [games.dominates(a, b), games.dominates(b, a), games.equivalent(a, b)]
        """)
        assert grown == 0


class TestNotation:
    def test_round_trip(self):
        for text in ("4", "-7/2", "<5|<-1|-5>>", "<1,<2|0>|-1>", "<0|0>"):
            g = parse_game(text)
            assert parse_game(format_game(g)) is g

    def test_format_simplified_segment(self):
        assert format_game(simplify(seg_tree(5))) == "<5|<-1|-5>>"

    def test_options_print_in_notation_order(self):
        """Options print sorted by their notation, not in the order the
        process first built them: two numbers no other test builds,
        interned larger first, print smaller first."""
        first = number(Fraction(98765, 3))
        second = number(Fraction(98764, 3))
        g = node([second, first], [number(0)])
        assert g.left == (first, second)  # kept in build order
        assert format_game(g) == "<98764/3,98765/3|0>"

    def test_size_counts_the_notation(self):
        games = [parse_game(text) for text in ("4", "-7/2", "<1,<2|0>|-1>", "<-5/4|<3|-10>>")]
        games += [seg_tree(n) for n in range(1, 9)] + [segment_union_tree([3, 5, 7])]
        for g in games:
            assert notation_size(g) == len(format_game(g))

    def test_notation_over_the_cap_is_not_built(self):
        g = segment_union_tree([7] * 10)
        assert notation_size(g) == 759452185 > MAX_NOTATION_SIZE
        with pytest.raises(ValueError, match="759452185 characters"):
            format_game(g)
        assert repr(g).startswith(f"Game(#{g.uid}, ") and "759452185 characters" in repr(g)
        assert repr(number(-3)) == "Game(-3)"

    def test_parse_whitespace(self):
        assert parse_game(" < 1 , 2 | 0 > ") is parse_game("<1,2|0>")

    @pytest.mark.parametrize("bad", ["", "<1|>", "<|1>", "<1,2>", "1 2", "<1|2", "x"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_game(bad)
