"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import types

import run
import workloads
from layers import Tracer


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 99.9) == 100.0
    assert run.percentile([3.0], 75) == 3.0


def test_tail_is_highest_rung_with_ten_answers_beyond():
    assert run.tail_percentile(39) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9


def _iteration(latencies):
    return {
        "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 10.0,
        "reference_s": run.REFERENCE_NOMINAL_S,
        "answers": [{"label": str(i), "value": i, "error": None, "ms": ms}
                    for i, ms in enumerate(latencies)],
    }


def test_tail_metric_omitted_with_too_few_answers():
    metrics, tail = run.end_to_end([_iteration([1.0] * 39)])
    assert "answer_tail_ms" not in metrics and tail["tail_percentile"] is None
    metrics, tail = run.end_to_end([_iteration([float(v) for v in range(1, 41)])])
    assert metrics["answer_tail_ms"] == (30.0, "ms")
    assert tail == {"answer_count": 40, "tail_percentile": 75}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer(depth):
        clock.now += 1.0
        traced_inner()
        if depth:
            traced_outer(depth - 1)
        clock.now += 0.5

    traced_outer = tracer.wrap("outer", outer)
    traced_outer(1)
    out, inn = tracer.stats["outer"], tracer.stats["inner"]
    assert (out.calls, inn.calls) == (2, 2)
    assert inn.self_s == inn.total_s == 4.0
    assert out.self_s == 3.0  # 2 x (1.0 + 0.5)
    assert out.total_s == 7.0  # outermost call only, not the nested one


def test_missing_private_name_is_a_missing_metric():
    fake_solver = types.SimpleNamespace(
        Solver=type("Solver", (), {"score_of_sum": lambda self, parts: None}),
        prune_dominated=lambda moves: moves,
    )
    modules = dict(workloads.MODULES, solver=fake_solver)
    tracer = Tracer()
    tracer.install(modules)
    try:
        fake_solver.Solver().score_of_sum([])
    finally:
        tracer.uninstall()
    values, missing = tracer.layer_metrics(modules, {})
    assert "solver.cancel.self_s" in missing
    assert "solver.negated_pair.hit_ratio" in missing
    assert "solver.cancel.self_s" not in values
    assert values["solver.score_of_sum.calls"] == 1
    assert "solver.nodes" in missing  # the stand-in solver has no counters


def test_uninstall_restores_the_package():
    original = workloads.solver.canonical_key
    tracer = Tracer()
    tracer.install(workloads.MODULES)
    assert workloads.solver.canonical_key is not original
    assert workloads.graphs.canonical_key is workloads.solver.canonical_key
    tracer.uninstall()
    assert workloads.solver.canonical_key is original
    assert workloads.graphs.canonical_key is original


def _boards_answers():
    inputs = [i for i in workloads.make_boards(1) if i[1] in (
        "solve grid 2x4", "certify hypercube 3", "soundness 2 [[1]]")]
    rec = workloads.Recorder()
    workloads.run_boards(inputs, rec, {"facts": {}})
    return inputs, rec.answers


def test_wrong_expected_answer_raises_failed_frac():
    inputs, answers = _boards_answers()
    pinned = workloads.load_pinned()
    assert workloads.check_boards(inputs, answers, {}, pinned) == [None] * 3
    wrong = {"boards": dict(pinned["boards"])}
    wrong["boards"]["solve grid 2x4"] = [99, -99]
    failures = workloads.check_boards(inputs, answers, {}, wrong)
    iteration = {"answers": answers, "failures": failures}
    attempted, failed, messages = run.tally([iteration, dict(iteration)])
    assert (attempted, failed) == (6, 2)
    assert failed / attempted > 0
    assert any("solve grid 2x4" in m for m in messages)


def test_answer_that_raises_or_drifts_is_a_failure():
    _, answers = _boards_answers()
    first = {"answers": answers, "failures": [None] * len(answers)}
    drifted = [dict(a) for a in answers]
    drifted[0]["value"] = "something else"
    rec = workloads.Recorder()
    board = workloads.graphs.Position.make(workloads.graphs.build_grid(3, 4))
    for a in answers:
        rec.answer(a["label"], workloads.solver.Solver(node_budget=1).scores, board)
    assert rec.answers[0]["error"].startswith("SearchBudgetError")
    attempted, failed, _ = run.tally([first, {"answers": drifted}, {"answers": rec.answers}])
    assert (attempted, failed) == (9, 4)


def test_segtable_check_catches_a_wrong_frozen_row():
    inputs = (6, [(2, 3), (-5, 4)])
    rec = workloads.Recorder()
    with workloads.scratch_dir() as tmpdir:
        ctx = {"facts": {}, "tmpdir": tmpdir}
        workloads.run_segtable(inputs, rec, ctx)
    frozen = workloads._conftest().FROZEN_TABLE_120
    assert workloads.check_segtable(inputs, rec.answers, ctx, {}) == [None] * len(rec.answers)
    wrong = [(n, ls + 1 if n == 5 else ls, rs) for n, ls, rs in frozen]
    failures = workloads.check_segtable(inputs, rec.answers, ctx, {}, frozen_table=wrong)
    assert [f.split(":")[0] for f in failures if f] == ["cold 5", "warm 5"]


def test_times_are_scaled_to_nominal_machine_speed():
    quiet = _iteration([1.0] * 40)
    slow = dict(_iteration([2.0] * 40), wall_s=2.0, cpu_s=2.0, setup_s=0.2,
                reference_s=2 * run.REFERENCE_NOMINAL_S)
    for it in ([quiet], [slow]):
        metrics, _ = run.end_to_end(it)
        assert metrics["wall_s"] == (1.0, "s")
        assert metrics["setup_s"] == (0.1, "s")
        assert metrics["answer_p50_ms"] == (1.0, "ms")
        assert metrics["peak_rss_mb"] == (10.0, "MB")


def test_fragment_is_separate_pieces_of_the_given_sizes():
    rng = workloads.random.Random(3)
    ground = workloads.graphs.build_torus(6, 10)
    sizes = (2, 3, 3, 4, 4, 4)
    alive = workloads._fragment(rng, ground, sizes)
    pieces = workloads.graphs.components(workloads.graphs.Position(ground, alive, 0))
    assert sorted(p.vertex_count for p in pieces) == sorted(sizes)


def test_fragments_check_uses_the_reference_on_small_sums():
    inputs = [q for q in workloads.make_fragments(1) if q[0] in ("single", "pair")][:4]
    rec = workloads.Recorder()
    workloads.run_fragments(inputs, rec, {"facts": {}})
    assert workloads.check_fragments(inputs, rec.answers, {}, {}) == [None] * 4
    rec.answers[0]["value"] = [a + 1 for a in rec.answers[0]["value"]]
    failures = workloads.check_fragments(inputs, rec.answers, {}, {})
    assert "reference" in failures[0] and failures[1:] == [None] * 3
