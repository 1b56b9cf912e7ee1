"""Ground graphs, builders, closures, stripping, components."""

import json
import random
import sys
from itertools import count

import pytest

from bipartite_influence.cli import main
from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    Position,
    apply_move,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
    canonical_key,
    components,
    disjoint_union,
    graph_from_json,
    legal_moves,
    removal_closure,
    segment_value,
    strip_isolated,
)

from bipartite_influence.reduction import PosCnf, gadget_graph

from conftest import random_ground, ref_removal_closure, twin_classes


def closure_at(ground, v):
    return removal_closure(Position.make(ground), v)


class TestBuilders:
    def test_segment_shape(self):
        s5 = build_segment(5)
        assert s5.n == 5
        assert s5.edge_count == 4
        assert [s5.color(i) for i in range(5)] == [BLACK, WHITE, BLACK, WHITE, BLACK]

    def test_segment_sign_flips_colors(self):
        s = build_segment(-3)
        assert [s.color(i) for i in range(3)] == [WHITE, BLACK, WHITE]

    def test_segment_zero_rejected(self):
        with pytest.raises(ValueError):
            build_segment(0)

    def test_grid_counts(self):
        g = build_grid(2, 7)
        assert g.n == 14
        assert g.edge_count == 2 * 6 + 7
        assert g.black_mask.bit_count() == 7

    def test_grid_row_is_segment(self):
        row = build_grid(1, 6)
        assert canonical_key(Position.make(row)) == ("seg", 6)
        row = build_grid(1, 5)
        assert canonical_key(Position.make(row)) == ("seg", 5)

    def test_cylinder_counts(self):
        c = build_cylinder(4, 6)
        assert c.n == 24
        assert c.edge_count == 44
        for v in range(c.n):
            assert c.degree(v) in (3, 4)

    def test_cylinder_parity_guard(self):
        with pytest.raises(ValueError):
            build_cylinder(3, 5)
        with pytest.raises(ValueError):
            build_cylinder(2, 5)

    def test_torus_counts(self):
        t = build_torus(4, 6)
        assert t.n == 24
        assert t.edge_count == 48
        assert all(t.degree(v) == 4 for v in range(t.n))

    def test_torus_parity_guard(self):
        with pytest.raises(ValueError):
            build_torus(4, 5)

    def test_hypercube_counts(self):
        h4 = build_hypercube(4)
        assert h4.n == 16
        assert h4.edge_count == 32
        assert h4.black_mask.bit_count() == 8
        h3 = build_hypercube(3)
        assert h3.n == 8
        assert h3.edge_count == 12

    def test_hypercube_guards(self):
        with pytest.raises(ValueError):
            build_hypercube(0)
        with pytest.raises(ValueError):
            build_hypercube(21)
        # dimension 8 is the first to bust vertex capacity
        with pytest.raises(ValueError):
            build_hypercube(8)

    def test_oversized_boards_rejected_before_building(self):
        # Each of these would take hours and gigabytes to build.  A builder
        # that starts on the edges is stopped after a few thousand traced
        # events, so it fails here instead of hanging.
        def tracer(frame, event, arg):
            if next(events) > 5000:
                raise RuntimeError("builder started on an oversized board")
            return tracer

        for build in (
            lambda: build_grid(10**6, 10**6),
            lambda: build_cylinder(10**6, 10**6),
            lambda: build_torus(10**6, 10**6),
            lambda: build_hypercube(60),
            lambda: build_segment(-10**12),
        ):
            events = count()
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                with pytest.raises(ValueError, match="capacity is 128"):
                    build()
            finally:
                sys.settrace(previous)
        assert build_grid(8, 16).n == 128

    def test_monochrome_edge_rejected(self):
        with pytest.raises(ValueError):
            GroundGraph([BLACK, BLACK], [(0, 1)])


class TestJson:
    def test_round_trip(self):
        g = build_grid(2, 3)
        back = graph_from_json(g.to_json())
        assert back.n == g.n
        assert back.edges == g.edges
        assert back.colors == g.colors
        assert back.name == g.name

    def test_bad_ids_rejected(self):
        data = {
            "vertices": [{"id": 0, "color": "B"}, {"id": 2, "color": "W"}],
            "edges": [[0, 2]],
        }
        with pytest.raises(ValueError):
            graph_from_json(data)

    def test_bad_color_rejected(self):
        data = {
            "vertices": [{"id": 0, "color": "R"}],
            "edges": [],
        }
        with pytest.raises(ValueError):
            graph_from_json(data)

    def test_duplicate_edge_kept_once(self, capsys, tmp_path):
        data = {
            "vertices": [{"id": 0, "color": "B"}, {"id": 1, "color": "W"}],
            "edges": [[0, 1], [1, 0]],
        }
        assert graph_from_json(data).edge_count == 1
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--file", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["ls"], out["rs"]) == (2, -2)


class TestClosure:
    def test_segment_center_takes_everything(self):
        # playing the middle of a 5-path strands both Black ends
        assert closure_at(build_segment(5), 2) == 0b11111

    def test_segment_white_inner_move(self):
        assert closure_at(build_segment(5), 1) == 0b111

    def test_segment_endpoint_closure(self):
        assert closure_at(build_segment(3), 0) == 0b111

    def test_star_leaf_takes_all(self):
        star = GroundGraph([BLACK, WHITE, WHITE, WHITE], [(0, 1), (0, 2), (0, 3)])
        assert closure_at(star, 1) == 0b1111

    def test_grid_center(self):
        g = build_grid(5, 5)
        assert closure_at(g, 12) == sum(1 << v for v in (7, 11, 12, 13, 17))

    def test_dead_vertex_rejected(self):
        pos = Position.make(build_segment(4), 0b0011)
        with pytest.raises(ValueError):
            removal_closure(pos, 3)

    def test_closure_never_strands_opponent(self, rng):
        # after a closure on a stripped position, re-stripping is a no-op
        for _ in range(300):
            g = random_ground(rng)
            pos = Position.make(g)
            for color in (BLACK, WHITE):
                for removed in legal_moves(pos, color):
                    succ = Position(g, pos.alive & ~removed, 0)
                    assert strip_isolated(succ).alive == succ.alive

    def test_two_step_scan_matches_full_scan(self):
        rng = random.Random(2317)
        boards = [build_grid(5, 6), build_grid(3, 9), build_torus(4, 6), build_torus(6, 6),
                  build_hypercube(4), build_hypercube(5),
                  gadget_graph(PosCnf(3, [(1, 2), (2, 3)])),
                  gadget_graph(PosCnf(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))]
        moves = closed = 0
        for _ in range(400):
            g = rng.choice(boards)
            density = rng.choice((0.5, 0.7, 0.9, 1.0))
            alive = sum(1 << v for v in range(g.n) if rng.random() < density)
            pos = Position.make(g, alive)
            for v in pos.alive_vertices():
                want = ref_removal_closure(pos, v)
                assert removal_closure(pos, v) == want, (g, pos.alive, v)
                moves += 1
                closed += want != (1 << v) | (g.adj[v] & pos.alive)
        # a fair share of moves also take a vertex the removal isolated
        assert moves > 5000 and closed > 2000

    def test_move_count_matches_color(self):
        pos = Position.make(build_grid(2, 7))
        assert len(legal_moves(pos, WHITE)) == 7
        assert len(legal_moves(pos, BLACK)) == 7


class TestPositions:
    def test_make_strips_into_offset(self):
        s5 = build_segment(5)
        pos = Position.make(s5, 0b10001)  # both ends, Black, isolated
        assert pos.is_empty
        assert pos.offset == 2

    def test_make_mixed_strip(self):
        g = GroundGraph([BLACK, WHITE], [])
        pos = Position.make(g)
        assert pos.is_empty
        assert pos.offset == 0

    def test_make_rejects_foreign_bits(self):
        with pytest.raises(ValueError):
            Position.make(build_segment(3), 0b11000)

    def test_apply_move_banks_gain(self):
        pos = Position.make(build_segment(7))
        succ = apply_move(pos, removal_closure(pos, 3), WHITE)
        assert succ.offset == -3
        assert succ.vertex_count == 4
        # Black's move at 2 also takes the end it strands
        succ = apply_move(pos, removal_closure(pos, 2), BLACK)
        assert succ.offset == 4
        assert succ.vertex_count == 3

    def test_components_of_split_segment(self):
        pos = Position.make(build_segment(7))
        succ = apply_move(pos, removal_closure(pos, 3), WHITE)
        keys = [canonical_key(c) for c in components(succ)]
        assert keys == [("seg", 2), ("seg", 2)]

    def test_components_are_offset_free(self):
        pos = Position.make(build_grid(2, 2), offset=9)
        comps = components(pos)
        assert len(comps) == 1
        assert comps[0].offset == 0
        assert comps[0].alive == pos.alive

    def test_disjoint_union_renumbers_alive_vertices(self):
        # the middle vertex of a 5-path removed: two edges, then a 4-path
        # negated, read in order as one graph of 8 vertices
        a = Position.make(build_segment(5), 0b11011)
        b = Position.make(build_segment(4)).negated()
        g = disjoint_union((a, b))
        assert g.n == 8
        assert g.colors == (BLACK, WHITE, WHITE, BLACK, WHITE, BLACK, WHITE, BLACK)
        assert g.edges == ((0, 1), (2, 3), (4, 5), (5, 6), (6, 7))


class TestSegmentRecognition:
    def test_even_paths_normalize_positive(self):
        assert canonical_key(Position.make(build_segment(6))) == ("seg", 6)
        assert canonical_key(Position.make(build_segment(-6))) == ("seg", 6)

    def test_odd_paths_keep_sign(self):
        assert canonical_key(Position.make(build_segment(7))) == ("seg", 7)
        assert canonical_key(Position.make(build_segment(-7))) == ("seg", -7)

    def test_non_path_gets_exact_key(self):
        pos = Position.make(build_grid(2, 2))
        kind = canonical_key(pos)[0]
        assert kind == "g"

    def test_cycle_is_not_a_path(self):
        cyc = GroundGraph(
            [BLACK, WHITE, BLACK, WHITE],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        assert segment_value(Position.make(cyc)) is None

    def test_odd_path_sign_is_its_end_color(self, rng):
        # induced paths of a grid, each read from a degree-one end
        g = build_grid(4, 5)
        for _ in range(400):
            pos = Position.make(g, rng.getrandbits(g.n))
            for comp in components(pos):
                degrees = {v: (g.adj[v] & comp.alive).bit_count()
                           for v in range(g.n) if comp.alive >> v & 1}
                n = len(degrees)
                ends = [v for v, d in degrees.items() if d == 1]
                is_path = max(degrees.values()) <= 2 and len(ends) == 2
                if not is_path:
                    assert segment_value(comp) is None
                elif n % 2 == 0:
                    assert segment_value(comp) == n
                else:
                    assert segment_value(comp) == (n if g.colors[ends[0]] is BLACK else -n)

    def test_sub_path_of_grid(self):
        g = build_grid(2, 3)
        pos = Position.make(g, 0b000111)  # the top row
        assert segment_value(pos) == 3


class TestTwins:
    def test_star_leaves_are_twins(self):
        star = GroundGraph([BLACK, WHITE, WHITE, WHITE], [(0, 1), (0, 2), (0, 3)])
        classes = twin_classes(Position.make(star))
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 3]

    def test_segment_has_no_nontrivial_twins(self):
        classes = twin_classes(Position.make(build_segment(6)))
        assert all(len(c) == 1 for c in classes)

    def test_twins_share_moves(self, rng):
        for _ in range(50):
            g = random_ground(rng, max_n=8)
            pos = Position.make(g)
            for cls in twin_classes(pos):
                moves = {removal_closure(pos, v) for v in cls}
                assert len(moves) == 1
