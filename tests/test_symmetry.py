"""Mirror mappings: verification, search, simulation, certificates."""

from collections import deque

import pytest

from bipartite_influence.graphs import (
    BLACK,
    WHITE,
    GroundGraph,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
)
from conftest import mirror_strategy_audit, random_ground

from bipartite_influence.solver import Solver
from bipartite_influence.symmetry import certify_draw, find_bw, mirror_defect


def breadth_first_distances(g: GroundGraph, source: int) -> list:
    """Plain BFS distances, None for unreachable vertices."""
    dist = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def antipodal_3(n):
    """Flip the low three coordinate bits of every hypercube label."""
    return [v ^ 0b111 for v in range(n)]


def cylinder_half_turn(rows, cols):
    return [((i + rows // 2) % rows) * cols + j
            for i in range(rows) for j in range(cols)]


def torus_glide(rows, cols):
    return [((i + rows // 2) % rows) * cols + (cols - 1 - j)
            for i in range(rows) for j in range(cols)]


def doubled(g: GroundGraph) -> tuple[GroundGraph, list[int]]:
    """A graph next to its color-swapped copy, with the cross mapping."""
    swapped = g.color_swapped()
    colors = list(g.colors) + list(swapped.colors)
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges]
    mapping = [v + g.n for v in range(g.n)] + list(range(g.n))
    return GroundGraph(colors, edges, name=f"{g.name}+dual"), mapping


class TestConditionReport:
    def test_known_good_mappings(self):
        cases = [
            (build_hypercube(3), antipodal_3(8)),
            (build_hypercube(4), antipodal_3(16)),
            (build_cylinder(6, 3), cylinder_half_turn(6, 3)),
            (build_torus(4, 6), torus_glide(4, 6)),
        ]
        for g, mapping in cases:
            assert mirror_defect(g, mapping) is None, g.name

    def test_not_a_permutation(self):
        g = build_segment(4)
        assert mirror_defect(g, [0, 0, 1, 2]) == "not a permutation"

    def test_identity_fails_color_swap(self):
        # the identity is an involution, so the colour check is the first
        # to fail
        g = build_hypercube(3)
        assert "colour" in mirror_defect(g, list(range(8)))

    def test_adjacent_swap_fails_distance(self):
        # an involution, a colour swap and an automorphism, but the swapped
        # pair is an edge
        g = build_segment(2)
        assert "distance" in mirror_defect(g, [1, 0])

    def test_non_automorphism_detected(self):
        # swapping within each end pair of a path tears the middle edge
        g = build_segment(4)
        defect = mirror_defect(g, [1, 0, 3, 2])
        assert "automorphism" in defect and "non-edge" in defect

    def test_non_involution_detected(self):
        g, _ = doubled(build_segment(2))
        # a 4-cycle permutation swaps colors but is not an involution
        assert "involution" in mirror_defect(g, [2, 3, 1, 0])


class TestSearch:
    @pytest.mark.parametrize(
        "g",
        [
            build_hypercube(3),
            build_hypercube(4),
            build_cylinder(6, 3),
            build_torus(4, 6),
        ],
        ids=lambda g: g.name,
    )
    def test_finds_valid_mapping(self, g):
        outcome = find_bw(g)
        assert outcome.status == "found"
        assert mirror_defect(g, outcome.mapping) is None

    def test_absent_on_even_grid(self):
        outcome = find_bw(build_grid(4, 4))
        assert outcome.status == "absent"
        assert outcome.mapping is None

    def test_absent_on_tiny_segment(self):
        assert find_bw(build_segment(2)).status == "absent"

    def test_absent_on_unbalanced_colors(self):
        assert find_bw(build_segment(3)).status == "absent"

    def test_budget_exhaustion_reported(self):
        outcome = find_bw(build_torus(4, 6), budget=3)
        assert outcome.status == "budget"
        assert outcome.mapping is None
        assert outcome.search_nodes > 3

    def test_absence_proven_by_backtracking(self):
        # three disjoint edges pass the prechecks: every vertex has
        # degree 1 and each Black vertex has two White candidates at
        # distance at least 3; but pairing 0 with either candidate leaves
        # another Black vertex with no image, so both branches fail
        g = GroundGraph([BLACK] * 3 + [WHITE] * 3, [(0, 5), (1, 4), (2, 3)])
        outcome = find_bw(g)
        assert (outcome.status, outcome.mapping, outcome.search_nodes) == (
            "absent", None, 2)

    def test_search_backtracks_to_a_mapping(self):
        g = build_cylinder(6, 6)
        outcome = find_bw(g)
        assert sum(c is BLACK for c in g.colors) == 18
        assert (outcome.status, outcome.search_nodes) == ("found", 19)
        assert mirror_defect(g, outcome.mapping) is None

    def test_empty_graph_is_its_own_mirror(self):
        outcome = find_bw(GroundGraph([], []))
        assert (outcome.status, outcome.mapping, outcome.search_nodes) == (
            "found", (), 0)

    def test_doubled_graphs_always_have_mappings(self, rng):
        for _ in range(25):
            g = random_ground(rng, max_n=7)
            big, expected = doubled(g)
            assert mirror_defect(big, expected) is None
            outcome = find_bw(big)
            assert outcome.status == "found"


class TestMirrorSimulation:
    @pytest.mark.parametrize(
        "g,mapping",
        [
            (build_hypercube(3), antipodal_3(8)),
            (build_hypercube(4), antipodal_3(16)),
            (build_cylinder(6, 3), cylinder_half_turn(6, 3)),
        ],
        ids=["H_3", "H_4", "C_6x3"],
    )
    def test_replies_mirror_and_net_zero(self, g, mapping):
        report = mirror_strategy_audit(g, mapping)
        assert report.ok, report.detail
        assert report.lines_checked >= 1
        assert report.states_checked >= 2

    def test_bad_mapping_rejected_up_front(self):
        g = build_hypercube(3)
        report = mirror_strategy_audit(g, list(range(8)))
        assert not report.ok
        assert report.states_checked == 0

    def test_doubled_randoms_simulate_clean(self, rng):
        checked = 0
        for _ in range(30):
            g = random_ground(rng, max_n=8)
            big, mapping = doubled(g)
            if big.n > 20:
                continue
            report = mirror_strategy_audit(big, mapping)
            assert report.ok, (g.name, report.detail)
            checked += 1
        assert checked >= 10


class TestCertification:
    def test_hypercube_draw(self):
        report = certify_draw(build_hypercube(3))
        assert report.status == "found"
        assert mirror_defect(build_hypercube(3), report.mapping) is None
        assert report.scores.ls == 0 and report.scores.rs == 0
        assert report.draw_certified
        assert report.consistent

    def test_small_torus_draw(self):
        report = certify_draw(build_torus(4, 4))
        assert report.draw_certified
        assert report.scores.ls == 0 and report.scores.rs == 0

    def test_absence_with_nonzero_scores(self):
        report = certify_draw(build_grid(2, 2))
        assert report.status == "absent"
        assert report.scores.ls == 4 and report.scores.rs == -4
        assert not report.draw_certified
        assert report.consistent

    def test_large_graph_skips_solver(self):
        report = certify_draw(build_torus(4, 6), solve_limit=20)
        assert report.status == "found"
        assert report.scores is None
        assert report.draw_certified

    def test_solver_can_be_shared(self):
        solver = Solver()
        certify_draw(build_hypercube(3), solver=solver)
        assert solver.nodes > 0


class TestDistances:
    def test_path_distances(self):
        g = build_segment(5)
        assert breadth_first_distances(g, 0) == [0, 1, 2, 3, 4]

    def test_disconnected_unreachable(self):
        g, _ = doubled(build_segment(2))
        dist = breadth_first_distances(g, 0)
        assert dist[1] == 1
        assert dist[2] is None and dist[3] is None

    def test_mapped_pairs_sit_at_distance_three(self):
        g = build_hypercube(4)
        mapping = antipodal_3(16)
        for v in range(16):
            assert breadth_first_distances(g, v)[mapping[v]] == 3
