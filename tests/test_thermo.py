"""Exact cooling: piecewise-linear machinery and thermographs."""

import itertools
import random
from fractions import Fraction

import pytest

from bipartite_influence.cli import EXIT_INPUT, EXIT_OK, main
from bipartite_influence import thermo
from bipartite_influence.games import (
    add,
    audit_universe,
    format_game,
    ls,
    negate,
    node,
    number,
    parse_game,
    rs,
    simplify,
)
from bipartite_influence.graphs import Position, build_segment
from bipartite_influence.segments import segment_union_tree
from bipartite_influence.thermo import (
    PiecewiseLinear,
    lower_envelope,
    mean,
    mean_by_repetition,
    thermograph,
    thermograph_csv_rows,
    thermograph_to_json,
    upper_envelope,
)

from conftest import (
    random_game,
    random_ground,
    ref_audit_universe,
    ref_thermograph,
    whole_position_tree,
)


def F(x):
    return Fraction(x)


def seg_tree(n):
    return whole_position_tree(Position.make(build_segment(n)))


def forget_thermographs(*games):
    """Drop the cached thermograph of every subtree of ``games``."""
    stack, seen = list(games), set()
    while stack:
        g = stack.pop()
        if g.uid not in seen:
            seen.add(g.uid)
            g._thermo = None
            stack.extend(g.left + g.right)


class TestPiecewiseLinear:
    def test_constant(self):
        f = PiecewiseLinear.constant(3)
        assert f.value(0) == 3
        assert f.value(100) == 3
        assert f.pieces == ((0, 3, 0),)

    def test_value_picks_piece(self):
        f = PiecewiseLinear([(0, 0, 1), (2, 4, -1)])
        assert f.value(1) == 1
        assert f.value(2) == 2
        assert f.value(3) == 1
        assert f.value(Fraction(5, 2)) == Fraction(3, 2)

    def test_same_line_merges(self):
        f = PiecewiseLinear([(0, 1, 2), (3, 1, 2)])
        assert len(f.pieces) == 1

    def test_discontinuity_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([(0, 0, 0), (1, 5, 0)])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([(1, 0, 0)])

    def test_starts_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([(0, 0, 1), (2, 2, 0), (2, 2, 1)])

    def test_upper_envelope_crossing(self):
        f = PiecewiseLinear.constant(1)
        g = PiecewiseLinear([(0, 0, 1)])
        env = upper_envelope([f, g])
        assert env.pieces == ((0, 1, 0), (1, 0, 1))

    def test_lower_envelope_crossing(self):
        f = PiecewiseLinear.constant(1)
        g = PiecewiseLinear([(0, 0, 1)])
        env = lower_envelope([f, g])
        assert env.pieces == ((0, 0, 1), (1, 1, 0))

    def test_envelopes_are_pointwise_max_and_min(self):
        # an independent check: sample the inputs directly at every cut,
        # between cuts and past the last one
        rng = random.Random(9)
        for _ in range(300):
            fns = []
            for _ in range(rng.randint(2, 4)):
                t = Fraction(0)
                value = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                pieces = []
                for _ in range(rng.randint(1, 4)):
                    slope = rng.randint(-3, 3)
                    pieces.append((t, value - slope * t, slope))
                    step = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    value += slope * step
                    t += step
                fns.append(PiecewiseLinear(pieces))
            upper, lower = upper_envelope(fns), lower_envelope(fns)
            cuts = sorted({s for f in fns + [upper, lower] for s in f.breakpoints()})
            mids = [(u + v) / 2 for u, v in zip(cuts, cuts[1:])]
            for t in cuts + mids + [cuts[-1] + 1]:
                assert upper.value(t) == max(f.value(t) for f in fns)
                assert lower.value(t) == min(f.value(t) for f in fns)

    def test_envelope_tangency(self):
        # lines meeting exactly at a breakpoint must not duplicate pieces
        f = PiecewiseLinear([(0, 2, 0), (2, 4, -1)])
        g = PiecewiseLinear([(0, 0, 1)])
        env = upper_envelope([f, g])
        for t in (0, 1, 2, 3, 4, 10):
            assert env.value(t) == max(f.value(t), g.value(t))


class TestThermograph:
    def test_number_is_flat(self):
        tg = thermograph(number(Fraction(7, 2)))
        assert tg.sigma == 0
        assert tg.mast == Fraction(7, 2)
        assert tg.ls_trajectory.pieces == ((0, Fraction(7, 2), 0),)

    def test_cold_switch(self):
        tg = thermograph(parse_game("<-1|-5>"))
        assert tg.sigma == 2
        assert tg.mast == -3
        assert tg.ls_trajectory.pieces == ((0, -1, -1), (2, -3, 0))
        assert tg.rs_trajectory.pieces == ((0, -5, 1), (2, -3, 0))

    def test_segment_5(self):
        tg = thermograph(simplify(seg_tree(5)))
        assert tg.sigma == 4
        assert tg.mast == 1
        assert tg.ls_trajectory.pieces == ((0, 5, -1), (4, 1, 0))
        assert tg.rs_trajectory.pieces == ((0, -1, 0), (2, -3, 1), (4, 1, 0))

    def test_simplify_does_not_change_thermograph(self):
        raw = seg_tree(5)
        assert thermograph(raw) == thermograph(simplify(raw))

    def test_segment_2(self):
        tg = thermograph(seg_tree(2))
        assert tg.sigma == 2
        assert tg.mast == 0

    def test_zugzwang_rejected(self):
        with pytest.raises(ValueError):
            thermograph(parse_game("<-1|1>"))

    def test_zugzwang_found_past_warm_subgames(self):
        # cool the clean parts first, so the check meets them in the cache
        assert thermograph(number(5)).mast == 5
        assert thermograph(parse_game("<5|-5>")).sigma == 5
        g = parse_game("<<0|1>,5|-5>")
        for cool in (thermograph, mean):
            with pytest.raises(ValueError, match="zugzwang subtree <0\\|1>"):
                cool(g)
        tg = thermograph(parse_game("<-1|-5>"))
        assert (tg.sigma, tg.mast) == (2, -3)
        assert tg.rs_trajectory.pieces == ((0, -5, 1), (2, -3, 0))

    def test_means_of_small_segments(self):
        assert mean(seg_tree(1)) == 1
        assert mean(seg_tree(3)) == 0
        assert mean(seg_tree(5)) == 1
        for n in (2, 4, 6, 8, 10):
            assert mean(seg_tree(n)) == 0

    def test_mean_by_repetition(self):
        assert mean_by_repetition(simplify(seg_tree(5)), 4) == (1, 1)
        with pytest.raises(ValueError):
            mean_by_repetition(number(1), 0)

    def test_number_shift_slides_thermograph(self):
        g = simplify(seg_tree(5))
        base = thermograph(g)
        shifted = thermograph(add(number(3), g))
        assert shifted.sigma == base.sigma
        assert shifted.mast == base.mast + 3
        for side in ("ls_trajectory", "rs_trajectory"):
            want = [(s, a + 3, b) for s, a, b in getattr(base, side).pieces]
            assert getattr(shifted, side) == PiecewiseLinear(want)

    def test_matches_the_tax_subtract_root_clamp_chain(self, rng):
        games = []
        for _ in range(150):
            g = whole_position_tree(Position.make(random_ground(rng, max_n=8)))
            games += [g, simplify(g)]
        # <a|a> freezes at 0; a hot option puts cuts past where the taxed
        # walls meet, or exactly there
        values = range(-3, 4)
        games += [parse_game(f"<{a}|{b}>") for a in values for b in values if a >= b]
        for a, b, c in itertools.product(values, repeat=3):
            games += [g for g in (parse_game(f"<{a}|<{b}|{c}>>"), parse_game(f"<<{a}|{b}>|{c}>"))
                      if audit_universe(g) is None]
        games += [add(number(Fraction(k, 2)), g) for k in (-5, 3) for g in games[::7]]
        forget_thermographs(*games)  # cold: none kept from an earlier test
        assert any(thermograph(g).sigma == 0 for g in games if not g.is_number)
        memo = {}
        for g in games:
            assert thermograph(g) == ref_thermograph(g, memo), format_game(g)

    def test_negation_is_read_off_its_negative(self, monkeypatch):
        """The thermograph of ``-g`` read off a cached one of ``g`` equals
        the one cooled from its own options: cache ``g`` first or ``-g``
        first, each game gets equal pieces, sigma and mast."""
        freezes = []

        def counted(left_wall, right_wall):
            freezes.append(1)
            return freeze(left_wall, right_wall)

        freeze = thermo._freeze
        monkeypatch.setattr(thermo, "_freeze", counted)
        rnd = random.Random(22)
        cases = [random_game(rnd, 8) for _ in range(60)]
        cases += [segment_union_tree([s]) for n in range(1, 22) for s in (n, -n)]
        memo = {}
        for g in cases:
            h = negate(g)
            by_order = []
            for first, second in ((g, h), (h, g)):
                forget_thermographs(g, h)
                thermograph(first)
                del freezes[:]
                by_order.append({first: thermograph(first), second: thermograph(second)})
                assert not freezes, format_game(g)  # read off, nothing cooled
            assert by_order[0] == by_order[1], format_game(g)
            assert by_order[0][h] == ref_thermograph(h, memo), format_game(g)


class TestUniverseAudit:
    """The memoised ``audit_universe``, ``thermograph`` and ``thermo --game``
    against the walk in conftest that keeps nothing on the games."""

    @staticmethod
    def random_games(rng, count):
        """Games whose options are drawn from the games made before them,
        so they share subtrees; most draw only from the clean ones."""
        pool = [number(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
                for _ in range(6)]
        clean = pool[:]
        for _ in range(count):
            source = clean if rng.random() < 0.8 else pool
            left, right = ([rng.choice(source) for _ in range(rng.randint(1, 3))]
                           for _ in range(2))
            g = node(left, right)
            pool.append(g)
            if ref_audit_universe(g) is None:
                clean.append(g)
        return pool

    def test_verdicts_and_messages_match_the_reference(self, capsys):
        def cool(g):
            try:
                thermograph(g)
            except ValueError as exc:
                return str(exc)
            return None

        def command(g):
            rc = main(["thermo", f"--game={format_game(g)}"])
            err = capsys.readouterr().err
            assert rc == (EXIT_INPUT if err else EXIT_OK)
            return err or None

        pool = self.random_games(random.Random(10), 100)
        want = [ref_audit_universe(g) for g in pool]
        assert 30 < sum(w is not None for w in want) < 80
        why = "cannot cool a game outside the universe: "
        for surface, head, tail in ((audit_universe, "", ""), (cool, why, ""),
                                    (command, "error: " + why, "\n")):
            # cold: nothing audited or cooled before each game
            for g, w in zip(pool, want):
                for sub in pool:
                    sub._zugzwang = sub._thermo = None
                assert surface(g) == (w and f"{head}{w}{tail}"), format_game(g)
            # warm: every game audited and every clean one cooled, parents
            # before their options, so options that an audit skipped past a
            # zugzwang witness are met later with whatever it left on them
            for g, w in zip(reversed(pool), reversed(want)):
                assert audit_universe(g) == w
                if w is None:
                    thermograph(g)
            for g, w in zip(pool, want):
                assert surface(g) == (w and f"{head}{w}{tail}"), format_game(g)


def sum_temperature_holds(g, h):
    """The thermographs of ``g``, ``h`` and ``g + h``, after asserting that
    the sum is no hotter than the hotter part (and as hot when the parts'
    temperatures differ), that means add, and that both scores of the sum
    stay within the hotter temperature of the total mean."""
    tg, th = thermograph(g), thermograph(h)
    total = add(g, h)
    tsum = thermograph(total)
    hottest, mast = max(tg.sigma, th.sigma), tg.mast + th.mast
    assert tsum.sigma <= hottest
    assert tg.sigma == th.sigma or tsum.sigma == hottest
    assert tsum.mast == mast
    assert mast - hottest <= rs(total) <= mast <= ls(total) <= mast + hottest
    return tg, th, tsum


class TestChecks:
    def test_cooling_bounds_on_segments(self):
        for n in (1, 2, 3, 4, 5, 6):
            g = simplify(seg_tree(n))
            tg = thermograph(g)
            for t in (0, Fraction(1, 2), 1, 2, Fraction(7, 3), 10):
                # cooling moves each score toward the other by at most t
                assert 0 <= ls(g) - tg.ls_trajectory.value(t) <= t
                assert 0 <= tg.rs_trajectory.value(t) - rs(g) <= t

    def test_sum_temperature_distinct(self):
        tg, th, tsum = sum_temperature_holds(simplify(seg_tree(5)), seg_tree(2))
        assert (tg.sigma, th.sigma, tsum.sigma, tsum.mast) == (4, 2, 4, 1)

    def test_sum_temperature_random(self, rng):
        for _ in range(40):
            a = Position.make(random_ground(rng, max_n=6))
            b = Position.make(random_ground(rng, max_n=6))
            g = simplify(whole_position_tree(a))
            h = simplify(whole_position_tree(b))
            sum_temperature_holds(g, h)

    def test_sandwich_random(self, rng):
        for _ in range(60):
            g = simplify(whole_position_tree(Position.make(random_ground(rng, max_n=8))))
            tg = thermograph(g)
            assert tg.mast - tg.sigma <= rs(g) <= tg.mast <= ls(g) <= tg.mast + tg.sigma


class TestExport:
    def test_json_shape(self):
        data = thermograph_to_json(thermograph(simplify(seg_tree(5))))
        assert data["sigma"] == "4"
        assert data["mast"] == "1"
        assert data["ls_trajectory"][0] == {
            "start": "0",
            "value_at_start": "5",
            "slope": "-1",
        }

    def test_csv_rows_cover_sigma(self):
        rows = thermograph_csv_rows(thermograph(simplify(seg_tree(5))))
        ts = [r[0] for r in rows]
        assert "4" in ts
        assert rows[0][0] == "0"
        # header-free rows: (t, ls, rs)
        assert all(len(r) == 3 for r in rows)


class TestExactTypes:
    """Trajectories compute on ints while they are integral; crossings
    divide exactly; the public results are Fractions."""

    def test_crossing_divides_exactly(self):
        # t and 1 - 2t meet at 1/3
        cross = thermo._crossing(0, None, 0, 1, 1, -2)
        assert cross == Fraction(1, 3) and type(cross) is Fraction
        # t and 2 - t meet at 1
        cross = thermo._crossing(0, None, 0, 1, 2, -1)
        assert cross == 1 and type(cross) is int
        assert thermo._crossing(0, 1, 0, 1, 1, -2) == Fraction(1, 3)
        assert thermo._crossing(Fraction(1, 3), 1, 0, 1, 1, -2) is None

    def test_trajectories_are_ints_on_the_integers(self):
        kinds = set()
        for k in range(1, 15):
            for parts in ([k], [-k], [2, k]):
                tg = thermograph(segment_union_tree(parts))
                for f in (tg.ls_trajectory, tg.rs_trajectory):
                    for x in (x for piece in f.pieces for x in piece):
                        assert type(x) is (int if x.denominator == 1 else Fraction)
                        kinds.add(type(x))
        assert kinds == {int, Fraction}

    def test_public_results_are_fractions(self):
        for g in (number(3), number(Fraction(7, 2)), segment_union_tree([5]),
                  segment_union_tree([5, 7]), parse_game("<-1|-5>")):
            tg = thermograph(g)
            assert type(tg.sigma) is Fraction and type(tg.mast) is Fraction
            assert type(mean(g)) is Fraction
            assert type(ls(g)) is Fraction and type(rs(g)) is Fraction
            assert all(type(x) is Fraction for x in mean_by_repetition(g, 2))
            assert type(thermograph(negate(g)).mast) is Fraction
