"""End-to-end acceptance checks for the workbench.

Each test covers one headline guarantee and prints a single [PASS] or
[FAIL] line; the lines are replayed in the terminal summary so a logged
run shows the whole scorecard at a glance.  Budgets are asserted with
``time.monotonic`` around the actual work.

The extended 120-row table rerun and the 140-row table take under a
minute each and only run when ``INFLUENCE_STRETCH`` is set in the
environment.  Everything else is desk scale.
"""

from __future__ import annotations

import csv
import io
import os
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import (
    FROZEN_ROWS_121_140,
    FROZEN_TABLE_120,
    FROZEN_TABLE_38,
    alive_position,
    mirror_strategy_audit,
    random_game,
    record_verdict,
    twin_classes,
    whole_position_tree,
)

from bipartite_influence.cli import main
from bipartite_influence.games import (
    add,
    add_all,
    equivalent,
    ls,
    number,
    parse_game,
    rs,
    simplify,
)
from bipartite_influence.graphs import (
    BLACK,
    Position,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
)
from bipartite_influence.reduction import (
    PosCnf,
    bag_size,
    gadget_graph,
    reduction_soundness_check,
)
from bipartite_influence.segments import (
    SegmentEngine,
    SegmentSum,
    periodicity_scan,
    segment_union_tree,
)
from bipartite_influence.solver import (
    ScorePair,
    Solver,
    milnor_audit,
)
from bipartite_influence.symmetry import certify_draw, find_bw
from bipartite_influence.thermo import mean_by_repetition, thermograph

CASES = 500

RING = PosCnf(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def verdict(label: str, problems: list[str]) -> None:
    """Print one scorecard line, then fail the test if anything is off.

    The line also lands in the end-of-run summary, because pytest's
    capture discards per-test stdout for passing tests.
    """
    tag = "FAIL" if problems else "PASS"
    line = f"[{tag}] {label}"
    if problems:
        line += "  (" + "; ".join(problems[:4]) + ")"
    print(line, flush=True)
    record_verdict(line)
    assert not problems, line


def parse_table_csv(text: str) -> list[tuple[int, int, int]]:
    reader = csv.DictReader(io.StringIO(text))
    return [(int(r["n"]), int(r["ls"]), int(r["rs"])) for r in reader]


def submask(rnd: random.Random, mask: int, p: float = 0.4) -> int:
    out = 0
    while mask:
        bit = mask & -mask
        if rnd.random() < p:
            out |= bit
        mask ^= bit
    return out


class TestSegmentTable:
    def test_table_to_38(self, capsys):
        start = time.monotonic()
        code = main(["table", "--max", "38", "--no-cache"])
        elapsed = time.monotonic() - start
        rows = parse_table_csv(capsys.readouterr().out)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if rows != FROZEN_TABLE_38:
            bad = [(got, want) for got, want in zip(rows, FROZEN_TABLE_38)
                   if got != want]
            problems.append(f"{len(bad)} rows off, first {bad[:1]}")
        if elapsed >= 60:
            problems.append(f"{elapsed:.1f}s is over the one minute budget")
        verdict(f"segment table to 38 rows, exact, {elapsed:.2f}s", problems)

    @pytest.mark.skipif(
        not os.environ.get("INFLUENCE_STRETCH"),
        reason="the 120-row rerun takes ~10 s; set INFLUENCE_STRETCH=1",
    )
    def test_table_to_120(self, tmp_path):
        out_file = tmp_path / "table120.csv"
        cache_dir = tmp_path / "cache"
        start = time.monotonic()
        code = main([
            "table", "--max", "120",
            "--cache-dir", str(cache_dir),
            "--out", str(out_file),
        ])
        elapsed = time.monotonic() - start
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        rows = parse_table_csv(out_file.read_text())
        if rows != FROZEN_TABLE_120:
            bad = [(got, want) for got, want in zip(rows, FROZEN_TABLE_120)
                   if got != want]
            problems.append(f"{len(bad)} rows off, first {bad[:1]}")
        if elapsed >= 1800:
            problems.append(f"{elapsed:.0f}s is over the thirty minute budget")
        if not (cache_dir / "segment-scores.json").exists():
            problems.append("no cache file was written")
        if periodicity_scan(rows, 40, 30):
            problems.append("period 40 after a preperiod of 30 is violated")
        if periodicity_scan(rows, 8, 36) != [37, 69, 77, 109]:
            problems.append("the near-period-8 exceptions moved")
        verdict(
            f"segment table to 120 rows with persistent cache, {elapsed:.0f}s",
            problems,
        )

    @pytest.mark.skipif(
        not os.environ.get("INFLUENCE_STRETCH"),
        reason="the 140-row run takes ~30 s; set INFLUENCE_STRETCH=1",
    )
    def test_table_to_140(self, tmp_path):
        out_file = tmp_path / "table140.csv"
        start = time.monotonic()
        code = main(["table", "--max", "140", "--no-cache", "--out", str(out_file)])
        elapsed = time.monotonic() - start
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        rows = parse_table_csv(out_file.read_text())
        want = FROZEN_TABLE_120 + FROZEN_ROWS_121_140
        if rows != want:
            bad = [(got, row) for got, row in zip(rows, want) if got != row]
            problems.append(f"{len(bad)} rows off, first {bad[:1]}")
        if elapsed >= 1800:
            problems.append(f"{elapsed:.0f}s is over the thirty minute budget")
        if periodicity_scan(rows, 40, 30):
            problems.append("period 40 after a preperiod of 30 is violated")
        if periodicity_scan(rows, 8, 36) != [37, 69, 77, 109, 117]:
            problems.append("the near-period-8 exceptions moved")
        verdict(f"segment table to 140 rows, exact, {elapsed:.0f}s", problems)


class TestFiveSegmentAlgebra:
    def test_known_identities(self):
        start = time.monotonic()
        engine = SegmentEngine()
        pair = engine.scores(SegmentSum([5, 5, 2]))
        five = segment_union_tree([5])
        double_five = add(five, five)
        two_plus_two_segment = add(number(2), segment_union_tree([2]))
        double_is_shifted_two = equivalent(double_five, two_plus_two_segment)
        quadruple_is_four = equivalent(add_all([five] * 4), number(4))
        elapsed = time.monotonic() - start
        problems = []
        if pair != ScorePair(2, 2):
            problems.append(f"two fives and a two scored {pair}")
        if not double_is_shifted_two:
            problems.append("two fives is not two plus a two-segment")
        if not quadruple_is_four:
            problems.append("four fives is not the number four")
        if elapsed >= 1.0:
            problems.append(f"{elapsed:.2f}s is over the one second budget")
        verdict(
            f"five-segment identities, exact, {elapsed * 1000:.0f}ms", problems
        )


class TestThermography:
    def test_frozen_trajectories(self):
        switch = thermograph(parse_game("<-1|-5>"))
        five = thermograph(simplify(segment_union_tree([5])))
        problems = []
        if (switch.sigma, switch.mast) != (2, -3):
            problems.append(
                f"switch froze at {switch.sigma} to {switch.mast}"
            )
        if (five.sigma, five.mast) != (4, 1):
            problems.append(
                f"five-segment froze at {five.sigma} to {five.mast}"
            )
        if five.ls_trajectory.pieces != ((0, 5, -1), (4, 1, 0)):
            problems.append(
                f"Left trajectory pieces {five.ls_trajectory.pieces}"
            )
        if five.rs_trajectory.pieces != ((0, -1, 0), (2, -3, 1), (4, 1, 0)):
            problems.append(
                f"Right trajectory pieces {five.rs_trajectory.pieces}"
            )
        verdict(
            "thermographs of the five-segment and a known switch, exact",
            problems,
        )

    def test_segment_means_and_temperatures(self):
        problems = []
        means = {}
        for size in range(1, 21):
            for signed in (size, -size):
                tg = thermograph(simplify(segment_union_tree([signed])))
                means[signed] = tg.mast
                if tg.sigma > 4:
                    problems.append(
                        f"segment {signed} has temperature {tg.sigma}"
                    )
                if signed % 2 == 0 and tg.mast != 0:
                    problems.append(
                        f"even segment {signed} has mean {tg.mast}"
                    )
        for size in range(1, 21, 2):
            if not 0 <= means[size] <= 1:
                problems.append(f"odd segment {size} has mean {means[size]}")
        for size, want in ((1, 1), (3, 0), (5, 1)):
            if means[size] != want:
                problems.append(
                    f"mean of segment {size} is {means[size]}, not {want}"
                )
        by_repetition = mean_by_repetition(simplify(segment_union_tree([5])), 4)
        if by_repetition != (Fraction(1), Fraction(1)):
            problems.append(
                f"four copies of a five average to {by_repetition}"
            )
        verdict("segment means and temperatures for sizes up to 20", problems)

    def test_board_temperatures(self):
        # each from the solver's simplified tree and from the full tree
        problems = []
        solver = Solver()
        for (rows, cols), want in (((3, 5), (8, 1)), ((3, 6), (8, 0)), ((4, 4), (6, 0))):
            board = Position.make(build_grid(rows, cols))
            tree, full = solver.tree(board), simplify(whole_position_tree(board))
            for how, g in (("solver tree", tree), ("full tree", full)):
                tg = thermograph(g)
                if (tg.sigma, tg.mast) != want:
                    problems.append(f"grid {rows}x{cols} {how}: temperature {tg.sigma}, "
                                    f"mean {tg.mast}, not {want}")
            if not equivalent(tree, full):
                problems.append(f"grid {rows}x{cols}: the two trees differ")
        verdict("temperatures and means of grids 3x5, 3x6 and 4x4", problems)


class TestGrids:
    def test_small_grid_scores(self):
        solver = Solver()
        start = time.monotonic()

        def pair(rows, cols):
            return solver.scores(Position.make(build_grid(rows, cols)))

        problems = []
        if pair(2, 3).ls != 6:
            problems.append(f"2x3 Left score is {pair(2, 3).ls}")
        for cols in (5, 7, 9):
            p = pair(2, cols)
            if (p.ls, p.rs) != (4, -4):
                problems.append(f"2x{cols} scored {p}")
        for cols in (4, 6, 8):
            if pair(2, cols).ls < 2:
                problems.append(f"2x{cols} Left score below 2")
        for cols in (4, 6):
            if pair(2, cols).ls != 2:
                problems.append(f"2x{cols} Left score is {pair(2, cols).ls}")
        for cols in (2, 3, 4, 5):
            if pair(3, cols).ls <= 0:
                problems.append(f"3x{cols} Left score not positive")
        for cols in (2, 4, 5):
            if pair(3, cols).rs >= 0:
                problems.append(f"3x{cols} Right score not negative")
        elapsed = time.monotonic() - start
        if elapsed >= 600:
            problems.append(f"{elapsed:.0f}s is over the ten minute budget")
        verdict(f"grid scores on two and three rows, {elapsed:.1f}s", problems)


class TestSymmetryCertificates:
    def test_certificates_and_refutation(self):
        named = [
            ("3-cube", build_hypercube(3)),
            ("4-cube", build_hypercube(4)),
            ("6x3 cylinder", build_cylinder(6, 3)),
            ("4x6 torus", build_torus(4, 6)),
        ]
        problems = []
        found = []
        for name, g in named:
            outcome = find_bw(g)
            if outcome.status != "found":
                problems.append(f"{name}: search says {outcome.status}")
            else:
                found.append((name, g, outcome.mapping))

        solver = Solver()
        for name, g in (("3-cube", build_hypercube(3)),
                        ("4x4 torus", build_torus(4, 4))):
            rep = certify_draw(g, solver=solver)
            if not rep.draw_certified:
                problems.append(f"{name}: draw not certified")
            elif rep.scores != ScorePair(0, 0):
                problems.append(f"{name}: scores {rep.scores}")
            elif not rep.consistent:
                problems.append(f"{name}: certificate and solve disagree")
            elif rep.mapping is not None:
                found.append((name, g, rep.mapping))

        refuted = find_bw(build_grid(4, 4))
        if refuted.status != "absent":
            problems.append(f"4x4 grid: search says {refuted.status}")

        audited = 0
        for name, g, mapping in found:
            if g.n > 20:
                continue
            audit = mirror_strategy_audit(g, mapping)
            audited += 1
            if not audit.ok:
                problems.append(f"{name}: mirror replay drifted, {audit.detail}")
        if audited < 3:
            problems.append(f"only {audited} instances were replayable")
        verdict(
            "mirror certificates found, replayed, and refuted where absent",
            problems,
        )


def small_positive_formulas() -> list[PosCnf]:
    clauses = [(1,), (2,), (1, 2)]
    out = []
    for m in (1, 2):
        for combo in combinations_with_replacement(clauses, m):
            out.append(PosCnf(2, list(combo)))
    return out


def bag_twin_audit(formula: PosCnf) -> list[str]:
    """Every pendant bag of the board must survive as one Black twin class.

    A variable that appears in no clause (padding, or simply unused) has a
    connector whose only neighbor is the anchor, so the connector joins
    its bag's class and the class runs one vertex over.
    """
    g = gadget_graph(formula)
    padded = formula.padded()
    bag = bag_size(padded.num_vars, padded.num_clauses)
    used = {v for clause in padded.clauses for v in clause}
    want = sorted(
        bag if var in used else bag + 1
        for var in range(1, padded.num_vars + 1)
    )
    big = [c for c in twin_classes(Position.make(g)) if len(c) >= bag]
    problems = []
    if sorted(len(c) for c in big) != want:
        problems.append(
            f"{formula.clauses}: bag class sizes "
            f"{sorted(len(c) for c in big)}, wanted {want}"
        )
    if any(g.color(v) is not BLACK for c in big for v in c):
        problems.append(f"{formula.clauses}: a bag holds a White vertex")
    return problems


class TestReductionGadget:
    def test_size_soundness_and_twins(self):
        problems = []
        ring_board = gadget_graph(RING)
        if ring_board.n != 56:
            problems.append(f"ring formula board has {ring_board.n} vertices")
        if bag_size(4, 4) != 11:
            problems.append(f"ring formula bag size is {bag_size(4, 4)}")
        problems += bag_twin_audit(RING)
        for formula in small_positive_formulas():
            report = reduction_soundness_check(formula)
            if not report.sound:
                problems.append(f"unsound on clauses {formula.clauses}")
            problems += bag_twin_audit(formula)
        verdict(
            "positive CNF boards: ring size 56 with bags of 11, all "
            "two-variable formulas sound, bags are twin classes",
            problems,
        )


class TestRandomizedProperties:
    """Seeded random suites, 500 cases each, graphs within ten vertices."""

    def test_sum_score_chain(self):
        rnd = random.Random(101)
        solver = Solver()
        problems = []
        for i in range(CASES):
            a = alive_position(rnd, 5, min_alive=2)
            b = alive_position(rnd, 5, min_alive=2)
            sa, sb = solver.scores(a), solver.scores(b)
            total = solver.score_of_sum([a, b])
            if not (sa.rs + sb.rs <= total.rs <= sa.ls + sb.rs
                    <= total.ls <= sa.ls + sb.ls):
                problems.append(f"case {i}: {sa} + {sb} gave {total}")
        verdict(f"sum score chain on {CASES} random unions", problems)

    def test_negation_swaps_scores(self):
        rnd = random.Random(102)
        solver = Solver()
        problems = []
        for i in range(CASES):
            pos = alive_position(rnd, 10, min_alive=2)
            s = solver.scores(pos)
            n = solver.scores(pos.negated())
            if n.ls != -s.rs or n.rs != -s.ls:
                problems.append(f"case {i}: {s} negated to {n}")
        verdict(
            f"color swap negates both scores on {CASES} random positions",
            problems,
        )

    def test_universe_audit_clean(self):
        rnd = random.Random(103)
        solver = Solver()
        problems = []
        for i in range(CASES):
            pos = alive_position(rnd, 10, min_alive=2)
            # every move removes at least two vertices, so depth six
            # covers all lines of a ten-vertex position
            report = milnor_audit(pos, depth=6, solver=solver)
            if not report.clean:
                problems.append(f"case {i}: {report.first_violation}")
        verdict(
            f"dicotic and nonzugzwang audit clean on {CASES} random positions",
            problems,
        )

    def test_pruning_preserves_scores(self):
        rnd = random.Random(104)
        pruned, plain = Solver(prune=True), Solver(prune=False)
        problems = []
        for i in range(CASES):
            pos = alive_position(rnd, 10, min_alive=2)
            a, b = pruned.scores(pos), plain.scores(pos)
            if a != b:
                problems.append(f"case {i}: pruned {a}, plain {b}")
        verdict(
            f"dominated-move pruning keeps scores on {CASES} random positions",
            problems,
        )

    def test_gift_bounds(self):
        rnd = random.Random(105)
        solver = Solver()
        problems = []
        for i in range(CASES):
            pos = alive_position(rnd, 10, min_alive=2)
            black = submask(rnd, pos.alive & pos.ground.black_mask)
            white = submask(rnd, pos.alive & pos.ground.white_mask)
            # deleting a set of White vertices costs Left at most its size,
            # and a set of Black vertices costs Right at most its size
            base = solver.scores(pos)
            no_white = solver.scores(
                Position.make(pos.ground, pos.alive & ~white, pos.offset))
            no_black = solver.scores(
                Position.make(pos.ground, pos.alive & ~black, pos.offset))
            w, b = white.bit_count(), black.bit_count()
            flags = {
                "ls_upper": base.ls <= no_white.ls + w,
                "rs_upper": base.rs <= no_white.rs + w,
                "ls_lower": base.ls >= no_black.ls - b,
                "rs_lower": base.rs >= no_black.rs - b,
            }
            broken = [name for name, ok in flags.items() if not ok]
            if broken:
                problems.append(
                    f"case {i}: gifts {black:#x}/{white:#x} broke {broken}"
                )
        verdict(
            f"vertex-gift score bounds on {CASES} random positions", problems
        )

    def test_cooling_bounds(self):
        rnd = random.Random(106)
        problems = []
        for i in range(CASES):
            g = random_game(rnd, 8)
            tax = Fraction(rnd.randrange(0, 25), rnd.randrange(1, 5))
            tg = thermograph(g)
            # cooling moves each score toward the other by at most the tax
            flags = {
                "ls": 0 <= ls(g) - tg.ls_trajectory.value(tax) <= tax,
                "rs": 0 <= tg.rs_trajectory.value(tax) - rs(g) <= tax,
            }
            broken = [name for name, ok in flags.items() if not ok]
            if broken:
                problems.append(f"case {i}: tax {tax} broke {broken}")
        verdict(
            f"cooling moves each score by at most the tax on {CASES} "
            "random games",
            problems,
        )

    def test_number_shift_keeps_temperature(self):
        rnd = random.Random(107)
        problems = []
        for i in range(CASES):
            g = random_game(rnd, 8)
            k = rnd.randrange(-6, 7)
            base = thermograph(g)
            shifted = thermograph(add(number(k), g))
            if shifted.sigma != base.sigma or shifted.mast != base.mast + k:
                problems.append(
                    f"case {i}: shift by {k} moved sigma or mean wrongly"
                )
        verdict(
            f"adding a number shifts the mean and keeps the temperature "
            f"on {CASES} random games",
            problems,
        )

    def test_sum_temperature(self):
        rnd = random.Random(108)
        problems = []
        for i in range(CASES):
            g = random_game(rnd, 6, min_alive=3)
            h = random_game(rnd, 6, min_alive=3)
            tg, th = thermograph(g), thermograph(h)
            total = add(g, h)
            tsum = thermograph(total)
            hottest = max(tg.sigma, th.sigma)
            mast = tg.mast + th.mast
            flags = {
                "sigma_bounded": tsum.sigma <= hottest,
                "sigma_exact_when_distinct": tg.sigma == th.sigma
                or tsum.sigma == hottest,
                "mast_additive": tsum.mast == mast,
                "sandwich_ok": mast - hottest <= rs(total) <= mast
                <= ls(total) <= mast + hottest,
            }
            broken = [name for name, ok in flags.items() if not ok]
            if broken:
                problems.append(f"case {i}: broke {broken}")
        verdict(
            f"sum temperature, additive means, and score sandwich on "
            f"{CASES} random pairs",
            problems,
        )

    def test_mean_sandwich(self):
        rnd = random.Random(109)
        problems = []
        for i in range(CASES):
            g = random_game(rnd, 8)
            tg = thermograph(g)
            hi, lo = ls(g), rs(g)
            if not lo <= tg.mast <= hi:
                problems.append(f"case {i}: mean {tg.mast} outside scores")
            elif hi - tg.mast > tg.sigma or tg.mast - lo > tg.sigma:
                problems.append(f"case {i}: a score strays past the "
                                f"temperature around the mean")
        verdict(
            f"both scores stay within the temperature of the mean on "
            f"{CASES} random games",
            problems,
        )

    def test_segment_sum_bounds(self):
        rnd = random.Random(110)
        engine = SegmentEngine()
        problems = []
        for i in range(CASES):
            parts = [
                rnd.choice([-1, 1]) * rnd.randrange(1, 15)
                for _ in range(rnd.randrange(1, 5))
            ]
            pair = engine.scores(SegmentSum(parts))
            # within 4 of the odd-part count k; all-even unions in [-4, 0]
            # and [0, 4]; one segment of two or more strictly signed within 5
            k = sum(1 for p in parts if p % 2)
            ok = -k - 4 <= pair.rs <= pair.ls <= k + 4
            if k == 0:
                ok = ok and -4 <= pair.rs <= 0 <= pair.ls <= 4
            if len(parts) == 1 and abs(parts[0]) >= 2:
                ok = ok and -5 <= pair.rs < 0 < pair.ls <= 5
            if not ok:
                problems.append(f"case {i}: {parts} scored {pair}")
        verdict(
            f"segment union score bounds on {CASES} random multisets",
            problems,
        )


class TestCrossEngine:
    def test_segment_engine_matches_graph_solver(self):
        engine = SegmentEngine()
        solver = Solver()
        problems = []
        start = time.monotonic()
        for size in range(1, 41):
            fast = engine.scores(SegmentSum([size]))
            slow = solver.scores(Position.make(build_segment(size)))
            if fast != slow:
                problems.append(f"size {size}: {fast} vs {slow}")
        rnd = random.Random(111)
        oracle = SegmentEngine(use_rewrite=False)
        for i in range(200):
            parts = [
                rnd.choice([-1, 1]) * rnd.randrange(1, 13)
                for _ in range(rnd.randrange(1, 5))
            ]
            s = SegmentSum(parts)
            if engine.scores(s) != oracle.scores(s):
                problems.append(f"multiset {parts} disagrees")
        elapsed = time.monotonic() - start
        verdict(
            f"segment engine matches the graph solver on paths up to 40 "
            f"and the no-rewrite oracle on 200 multisets, {elapsed:.1f}s",
            problems,
        )
