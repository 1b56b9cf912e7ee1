"""Formula parsing and the board gadget for the variable-picking game."""

import time
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import random_ground, record_verdict, twin_classes

from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
)
from bipartite_influence.reduction import (
    MAX_BRUTE_FORCE_VARS,
    PosCnf,
    bag_size,
    gadget_graph,
    parse_pos_cnf,
    pos_cnf_winner,
    reduction_soundness_check,
)
from bipartite_influence.solver import Solver

RING = PosCnf(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def format_pos_cnf(f: PosCnf) -> str:
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(str(v) for v in clause) + " 0")
    return "\n".join(lines) + "\n"


def gadget_vertex_count(num_vars: int, num_clauses: int) -> int:
    n = num_vars if num_vars % 2 == 0 else num_vars + 1
    return num_clauses + n * (num_clauses + 2 * n + 1)


def free_point_shift(g: GroundGraph, k: int) -> GroundGraph:
    """Add ``k`` isolated White vertices (or ``-k`` Black ones), shifting
    every score by ``-k`` and thresholds down to zero."""
    color = WHITE if k > 0 else BLACK
    extra = abs(k)
    return GroundGraph(
        list(g.colors) + [color] * extra,
        g.edges,
        name=f"{g.name}+shift({k})" if g.name else f"shift({k})",
    )


class TestFormula:
    def test_clauses_sorted_and_deduplicated(self):
        f = PosCnf(3, [(3, 1, 3)])
        assert f.clauses == ((1, 3),)

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError, match="empty clause"):
            PosCnf(2, [()])

    def test_rejects_nonpositive_literal(self):
        with pytest.raises(ValueError, match="positive"):
            PosCnf(2, [(0, 1)])

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError, match="above num_vars"):
            PosCnf(2, [(3,)])

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            PosCnf(0, [(1,)])

    def test_padding_evens_the_variable_count(self):
        odd = PosCnf(3, [(1, 2)])
        assert odd.padded().num_vars == 4
        even = PosCnf(4, [(1, 2)])
        assert even.padded() is even
        assert odd.padded().padded().num_vars == 4


class TestParsing:
    def test_header_and_comments(self):
        text = "c a remark\np cnf 3 2\n1 2 0\n2 3 0\n"
        f = parse_pos_cnf(text)
        assert f.num_vars == 3
        assert f.clauses == ((1, 2), (2, 3))

    def test_clause_spanning_lines_and_no_header(self):
        f = parse_pos_cnf("1 2\n3 0 2 0")
        assert f.num_vars == 3
        assert f.clauses == ((1, 2, 3), (2,))

    def test_trailing_clause_without_zero(self):
        f = parse_pos_cnf("1 2 0 2 3")
        assert f.clauses == ((1, 2), (2, 3))

    def test_round_trip(self):
        text = format_pos_cnf(RING)
        again = parse_pos_cnf(text)
        assert again == RING
        assert text.splitlines()[0] == "p cnf 4 4"

    def test_rejects_negative_literal(self):
        with pytest.raises(ValueError, match="negative"):
            parse_pos_cnf("1 -2 0")

    def test_rejects_garbage_token(self):
        with pytest.raises(ValueError, match="bad token"):
            parse_pos_cnf("1 two 0")

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no clauses"):
            parse_pos_cnf("c nothing here\n")

    def test_rejects_wrong_clause_count(self):
        with pytest.raises(ValueError, match="declares"):
            parse_pos_cnf("p cnf 2 3\n1 0 2 0")

    def test_honours_a_declared_count_of_zero(self):
        with pytest.raises(ValueError, match="at least one variable"):
            parse_pos_cnf("p cnf 0 1\n1 0")
        assert parse_pos_cnf("p cnf 3 1\n1 0").num_vars == 3

    def test_rejects_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_pos_cnf("p cnf x y\n1 0")


class TestGadget:
    def test_ring_formula_board(self):
        g = gadget_graph(RING)
        assert g.n == 56
        assert bag_size(4, 4) == 11
        assert gadget_vertex_count(4, 4) == 56

    def test_small_board_sizes(self):
        assert gadget_vertex_count(2, 1) == 13
        assert gadget_vertex_count(2, 2) == 16
        assert gadget_graph(PosCnf(2, [(1,)])).n == 13
        assert gadget_graph(PosCnf(2, [(1,), (2,)])).n == 16

    def test_odd_variable_count_padded(self):
        g = gadget_graph(PosCnf(3, [(1, 2, 3)]))
        assert g.n == gadget_vertex_count(4, 1)

    def test_capacity_counts_the_padded_board(self):
        # six variables fit in 85 vertices; seven pad to eight, 145
        assert gadget_graph(PosCnf(6, [(1,)])).n == gadget_vertex_count(6, 1) == 85
        assert gadget_vertex_count(7, 1) == 145
        with pytest.raises(ValueError, match="graph has 145 vertices, capacity is 128"):
            gadget_graph(PosCnf(7, [(1,)]))

    def test_board_structure(self):
        f = PosCnf(2, [(1, 2), (2,)])
        g = gadget_graph(f)
        n, m = 2, 2
        bag = bag_size(n, m)
        # clause vertices are White and see the connectors of their clause
        assert [g.color(j) for j in range(m)] == [WHITE, WHITE]
        assert g.degree(0) == 2  # clause {1, 2}
        assert g.degree(1) == 1  # clause {2}
        cursor = m
        for i in range(n):
            anchor, connector = cursor, cursor + 1
            assert g.color(anchor) is WHITE
            assert g.color(connector) is BLACK
            assert g.degree(anchor) == bag + 1
            assert connector in g.neighbors(anchor)
            bag_vertices = list(range(cursor + 2, cursor + 2 + bag))
            assert all(g.color(v) is BLACK for v in bag_vertices)
            assert all(g.neighbors(v) == [anchor] for v in bag_vertices)
            cursor += 2 + bag

    def test_every_bag_is_a_twin_class(self):
        g = gadget_graph(RING)
        bag = bag_size(4, 4)
        classes = twin_classes(Position.make(g))
        bags = [c for c in classes if len(c) == bag]
        assert len(bags) == 4
        seen = {v for c in bags for v in c}
        assert all(g.color(v) is BLACK for v in seen)


class TestPickingGame:
    def test_single_variable(self):
        assert pos_cnf_winner(PosCnf(1, [(1,)])) is True

    def test_two_singleton_clauses_lose(self):
        assert pos_cnf_winner(PosCnf(2, [(1,), (2,)])) is False

    def test_one_clause_two_ways(self):
        assert pos_cnf_winner(PosCnf(2, [(1, 2)])) is True

    def test_shared_variable_wins(self):
        assert pos_cnf_winner(PosCnf(3, [(1, 2), (1, 3)])) is True

    def test_ring_formula_is_a_loss(self):
        assert pos_cnf_winner(RING) is False

    def test_padding_preserves_the_winner(self):
        for f in (
            PosCnf(1, [(1,)]),
            PosCnf(3, [(1,), (2,)]),
            PosCnf(3, [(1, 2), (2, 3)]),
            PosCnf(3, [(1, 2, 3)]),
        ):
            assert pos_cnf_winner(f) == pos_cnf_winner(f.padded()), f

    def test_brute_force_guard(self):
        wide = PosCnf(MAX_BRUTE_FORCE_VARS + 1, [(1,)])
        with pytest.raises(ValueError, match="brute force"):
            pos_cnf_winner(wide)


class TestSoundness:
    def test_all_two_variable_formulas(self):
        """Alice wins the picking game iff Left reaches the clause count."""
        solver = Solver()
        atoms = [(1,), (2,), (1, 2)]
        formulas = [PosCnf(2, [c]) for c in atoms]
        formulas += [
            PosCnf(2, list(pair))
            for pair in combinations_with_replacement(atoms, 2)
        ]
        assert len(formulas) == 9
        for f in formulas:
            report = reduction_soundness_check(f, solver=solver)
            assert report.sound, (f, report)
            assert report.threshold == f.num_clauses
            assert gadget_graph(f).n == gadget_vertex_count(2, f.num_clauses)

    def test_all_three_variable_formulas(self):
        """Every formula of one to three distinct clauses on three variables,
        on one shared solver; the time lands in the end-of-run summary."""
        start = time.monotonic()
        solver = Solver()
        atoms = [c for k in (1, 2, 3) for c in combinations((1, 2, 3), k)]
        formulas = [PosCnf(3, list(cs)) for k in (1, 2, 3) for cs in combinations(atoms, k)]
        assert len(formulas) == 63
        for f in formulas:
            report = reduction_soundness_check(f, solver=solver)
            assert report.sound, (f, report)
            assert gadget_graph(f).n == gadget_vertex_count(3, f.num_clauses)
        elapsed = time.monotonic() - start
        record_verdict(f"[PASS] hardness reduction sound on all 63 formulas of up to "
                       f"3 clauses on 3 variables, {solver.nodes} nodes, {elapsed:.2f}s")

    def test_all_four_variable_formulas(self):
        """Every formula of one to three distinct clauses on four variables,
        on one shared solver; the time lands in the end-of-run summary."""
        start = time.monotonic()
        solver = Solver()
        atoms = [c for k in (1, 2, 3, 4) for c in combinations((1, 2, 3, 4), k)]
        formulas = [PosCnf(4, list(cs)) for k in (1, 2, 3) for cs in combinations(atoms, k)]
        assert len(formulas) == 575
        for f in formulas:
            report = reduction_soundness_check(f, solver=solver)
            assert report.sound, (f, report)
            assert gadget_graph(f).n == gadget_vertex_count(4, f.num_clauses)
        elapsed = time.monotonic() - start
        record_verdict(f"[PASS] hardness reduction sound on all 575 formulas of up to "
                       f"3 clauses on 4 variables, {solver.nodes} nodes, {elapsed:.2f}s")

    def test_report_fields(self):
        report = reduction_soundness_check(PosCnf(2, [(1, 2)]))
        assert report.alice_wins is True
        assert report.left_score >= report.threshold
        assert report.sound


class TestFreePoints:
    def test_white_padding_shifts_scores_down(self, rng):
        solver = Solver()
        for _ in range(20):
            g = random_ground(rng, max_n=6)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            base = solver.scores(Position.make(g))
            moved = solver.scores(Position.make(free_point_shift(g, k)))
            assert moved.ls == base.ls - k
            assert moved.rs == base.rs - k

    def test_shift_keeps_edges(self):
        g = gadget_graph(PosCnf(2, [(1,)]))
        shifted = free_point_shift(g, 2)
        assert shifted.n == g.n + 2
        assert shifted.edges == g.edges
