"""The benchmark's four workloads: seeded inputs, timed calls and checks.

Each workload has three parts:

* ``make_<name>(seed)`` builds the inputs; it runs in the set-up phase;
* ``run_<name>(inputs, rec, ctx)`` makes the timed calls, one answer per
  call, through ``rec.answer``;
* ``check_<name>(inputs, answers, ctx, pinned)`` returns one failure message
  (or None) per answer, computed outside the timed section against an
  independent reference or a value pinned in ``pinned.json``.

Answers are stored as plain JSON values so that repeated runs can be
compared exactly.  Workloads call the package through module attributes
(``solver.Solver``, ``segments.segment_table``) so a traced run sees them.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bipartite_influence import games, graphs, reduction, segments, solver, symmetry, thermo  # noqa: E402

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

MODULES = {
    "graphs": graphs,
    "solver": solver,
    "segments": segments,
    "games": games,
    "thermo": thermo,
    "symmetry": symmetry,
    "reduction": reduction,
}


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


class Recorder:
    """Times each answer and keeps it: label, value or error, latency.

    ``between_answers`` runs before each answer, outside its timing.
    """

    def __init__(self, between_answers=None):
        self.answers: list[dict] = []
        self.between_answers = between_answers

    def answer(self, label: str, fn, *args):
        if self.between_answers is not None:
            self.between_answers()
        start = time.perf_counter()
        error = None
        try:
            value = fn(*args)
        except Exception as exc:  # a failed answer is counted, not fatal
            value = None
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.answers.append({
            "label": label,
            "value": to_json(value),
            "error": error,
            "ms": (end - start) * 1000.0,
        })
        return value


def to_json(value):
    """A JSON value for an answer: exact rationals become strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, solver.ScorePair):
        return [value.ls, value.rs]
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, symmetry.CertifyReport):
        return {"status": value.status, "scores": to_json(value.scores),
                "certified": value.draw_certified, "consistent": value.consistent}
    if isinstance(value, reduction.SoundnessReport):
        return {"left_score": value.left_score, "sound": value.sound}
    return value


def _pair(value) -> list[int] | None:
    return [value.ls, value.rs] if value is not None else None


# ---------------------------------------------------------------------------
# segtable: the segment engine writing and reading its memo and cache

SEGTABLE_ROWS = 62
SEGTABLE_SUMS = 200


def make_segtable(seed: int):
    rng = random.Random(seed)
    sums = []
    for _ in range(SEGTABLE_SUMS):
        count = rng.randint(2, 3)
        sums.append(tuple(rng.choice((1, -1)) * rng.randint(2, 16) for _ in range(count)))
    return SEGTABLE_ROWS, sums


def run_segtable(inputs, rec: Recorder, ctx: dict) -> None:
    rows, sums = inputs
    engine = segments.SegmentEngine()
    for n in range(1, rows + 1):
        rec.answer(f"cold {n}", engine.scores, segments.SegmentSum([n]))
    cache = Path(ctx["tmpdir"]) / "segments-cache.json"
    rec.answer("save", engine.save, cache)
    ctx["saved_entries"] = len(engine.memo)
    ctx["facts"]["segments.cache_bytes"] = os.path.getsize(cache)
    warm = segments.SegmentEngine()
    loaded = rec.answer("load", warm.load, cache)
    ctx["facts"]["segments.load_entries"] = loaded or 0
    for n in range(1, rows + 1):
        rec.answer(f"warm {n}", warm.scores, segments.SegmentSum([n]))
    for parts in sums:
        rec.answer(f"sum {list(parts)}", warm.scores, segments.SegmentSum(parts))


def check_segtable(inputs, answers, ctx, pinned, frozen_table=None) -> list:
    rows, sums = inputs
    if frozen_table is None:
        frozen_table = _conftest().FROZEN_TABLE_120
    frozen = {n: [ls, rs] for n, ls, rs in frozen_table}
    oracle = segments.SegmentEngine(use_rewrite=False)
    want = {}
    for n in range(1, rows + 1):
        want[f"cold {n}"] = want[f"warm {n}"] = frozen[n]
    want["save"] = None
    want["load"] = ctx.get("saved_entries")
    for parts in sums:
        want[f"sum {list(parts)}"] = _pair(oracle.scores(segments.SegmentSum(parts)))
    return [
        None if a["value"] == want[a["label"]]
        else f"{a['label']}: got {a['value']}, expected {want[a['label']]}"
        for a in answers
    ]


# ---------------------------------------------------------------------------
# boards: deep search on whole boards, one fresh solver each

# (kind, family, size arguments); the seed only shuffles the order, so the
# work of a run does not depend on it.
BOARD_SOLVES = (
    [("grid", 2, c) for c in (4, 6, 8, 10, 12)]
    + [("grid", 3, c) for c in (4, 5, 6, 7, 8, 9)]
    + [("grid", 4, c) for c in (4, 5, 6)]
    + [("grid", 5, 5)]
    + [("cylinder", 4, c) for c in (3, 4, 5)]
    + [("cylinder", 6, 3), ("cylinder", 6, 4), ("cylinder", 8, 3)]
    + [("torus", 4, 4), ("torus", 4, 6)]
    + [("hypercube", d) for d in (3, 4, 5)]
)
BOARD_CERTIFY = (
    ("hypercube", 3), ("hypercube", 4), ("torus", 4, 4),
    ("cylinder", 6, 3), ("torus", 4, 6), ("grid", 4, 4),
)
RING_CLAUSES = ((1, 2), (2, 3), (3, 4), (4, 1))
BOARD_FORMULAS = (
    [(2, combo) for m in (1, 2)
     for combo in combinations_with_replacement(((1,), (2,), (1, 2)), m)]
    + [(3, ((1, 2), (2, 3), (3, 1))), (3, ((1, 2, 3),)), (3, ((1, 2), (3,))),
       (3, ((1,), (2,), (3,))), (4, RING_CLAUSES)]
)

_BUILDERS = {
    "grid": graphs.build_grid,
    "cylinder": graphs.build_cylinder,
    "torus": graphs.build_torus,
    "hypercube": graphs.build_hypercube,
}


def board_label(kind: str, spec) -> str:
    return f"{kind} {spec[0]} {'x'.join(str(a) for a in spec[1:])}"


def make_boards(seed: int):
    items = [("solve", spec) for spec in BOARD_SOLVES]
    items += [("certify", spec) for spec in BOARD_CERTIFY]
    items += [("soundness", formula) for formula in BOARD_FORMULAS]
    random.Random(seed).shuffle(items)
    out = []
    for kind, spec in items:
        if kind == "soundness":
            num_vars, clauses = spec
            label = f"soundness {num_vars} {list(map(list, clauses))}"
            out.append((kind, label, reduction.PosCnf(num_vars, clauses)))
        else:
            out.append((kind, board_label(kind, spec), _BUILDERS[spec[0]](*spec[1:])))
    return out


def run_boards(inputs, rec: Recorder, ctx: dict) -> None:
    nodes = 0
    for kind, label, arg in inputs:
        if kind == "solve":
            rec.answer(label, lambda g: solver.Solver().scores(graphs.Position.make(g)), arg)
        elif kind == "certify":
            report = rec.answer(label, symmetry.certify_draw, arg)
            nodes += report.search_nodes if report is not None else 0
        else:
            rec.answer(label, reduction.reduction_soundness_check, arg)
    ctx["facts"]["symmetry.search_nodes"] = nodes


def check_boards(inputs, answers, ctx, pinned) -> list:
    want = pinned["boards"]
    out = []
    for a in answers:
        label, value = a["label"], a["value"]
        if label not in want:
            out.append(f"{label}: no pinned value")
        elif value != want[label]:
            out.append(f"{label}: got {value}, pinned {want[label]}")
        elif label.startswith("certify") and value["status"] == "found" and (
            value["scores"] != [0, 0] or not value["certified"] or not value["consistent"]
        ):
            out.append(f"{label}: mirror certificate but scores {value['scores']}")
        elif label.startswith("soundness") and not value["sound"]:
            out.append(f"{label}: reduction unsound")
        else:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# fragments: many small sums on one shared solver

FRAGMENT_BOARDS = (
    ("grid", 8, 8), ("torus", 8, 8), ("cylinder", 8, 8), ("grid", 6, 10), ("torus", 6, 10),
)
# The query kinds, cycled.  Three in five are P + (-P), which the solver
# cancels before it searches, so the median answer is one of them.
FRAGMENT_KINDS = ("negated", "single", "negated", "pair", "negated")
FRAGMENT_QUERIES = 900
# Piece sizes of each fragment, cycled so that every seed asks for the same
# sizes; only the pieces differ.  A fragment is an alive set of separate
# connected pieces, so a sum holds many components at once and the solver
# cancels among them at every node.  Pieces of a negated P stay within the
# ten vertices up to which the solver cancels a negated pair; a larger one
# would search the square of its state space.
SINGLE_PIECES = ((3, 4, 4, 4, 5), (3, 3, 4, 4, 5), (4, 4, 4, 4, 4),
                 (2, 3, 3, 4, 4, 4), (3, 3, 3, 3, 4, 4), (2, 3, 4, 4, 5))
NEGATED_PIECES = ((7, 9), (8, 10), (6, 9), (5, 7, 10), (8, 8), (6, 7, 9))
PAIR_PIECES = (((4, 5), (3, 7)), ((3, 4), (4, 6)), ((5, 5), (3, 3, 4)),
               ((4, 6), (5, 5)), ((3, 3, 4), (4, 6)), ((4, 4), (3, 4, 5)))
# Largest alive count that the reference solver of the test suite checks.
RAW_CHECK_LIMIT = 22


def _fragment(rng: random.Random, ground, sizes) -> int:
    """An alive set of separate connected pieces of the given sizes.

    Each piece grows from a random free vertex; no later piece may touch an
    earlier one or its neighbours.  Starts over when a piece has no room.
    """
    while True:
        alive = blocked = 0
        for size in sizes:
            free = [v for v in range(ground.n) if not blocked >> v & 1]
            if not free:
                break
            start = rng.choice(free)
            piece = 1 << start
            frontier = ground.adj[start] & ~blocked
            while piece.bit_count() < size and frontier:
                v = rng.choice([u for u in range(ground.n) if frontier >> u & 1])
                piece |= 1 << v
                frontier = (frontier | ground.adj[v]) & ~piece & ~blocked
            if piece.bit_count() < size:
                break
            alive |= piece
            blocked |= piece
            for v in range(ground.n):
                if piece >> v & 1:
                    blocked |= ground.adj[v]
        else:
            return alive


def make_fragments(seed: int):
    rng = random.Random(seed)
    boards = [_BUILDERS[spec[0]](*spec[1:]) for spec in FRAGMENT_BOARDS]
    counts = dict.fromkeys(FRAGMENT_KINDS, 0)

    def fragment(board: int, sizes) -> graphs.Position:
        ground = boards[board % len(boards)]
        return graphs.Position.make(ground, _fragment(rng, ground, sizes))

    queries = []
    for i in range(FRAGMENT_QUERIES):
        kind = FRAGMENT_KINDS[i % len(FRAGMENT_KINDS)]
        j = counts[kind]
        counts[kind] += 1
        if kind == "single":
            parts = [fragment(j, SINGLE_PIECES[j % len(SINGLE_PIECES)])]
        elif kind == "negated":
            p = fragment(j, NEGATED_PIECES[j % len(NEGATED_PIECES)])
            parts = [p, p.negated()]
        else:
            a, b = PAIR_PIECES[j % len(PAIR_PIECES)]
            parts = [fragment(j, a), fragment(j + 2, b)]
        queries.append((kind, parts))
    rng.shuffle(queries)
    return queries


def run_fragments(inputs, rec: Recorder, ctx: dict) -> None:
    shared = solver.Solver()
    for i, (kind, parts) in enumerate(inputs):
        rec.answer(f"{kind} {i}", shared.score_of_sum, parts)


def _disjoint_union(parts):
    """One ground graph of the alive vertices of every part, all alive."""
    colors, edges, offset = [], [], 0
    for p in parts:
        g = p.ground
        index = {}
        for v in p.alive_vertices():
            index[v] = len(colors)
            colors.append(g.colors[v])
        edges.extend((index[u], index[v]) for u, v in g.edges if u in index and v in index)
        offset += p.offset
    return graphs.GroundGraph(colors, edges), (1 << len(colors)) - 1, offset


def check_fragments(inputs, answers, ctx, pinned) -> list:
    raw_score = _conftest().raw_score
    out = []
    for (kind, parts), a in zip(inputs, answers):
        value = a["value"]
        if kind == "negated" and value != [0, 0]:
            out.append(f"{a['label']}: P + (-P) scored {value}")
            continue
        if sum(p.vertex_count for p in parts) <= RAW_CHECK_LIMIT:
            ground, alive, offset = _disjoint_union(parts)
            memo: dict = {}
            want = [offset + raw_score(ground, alive, True, memo),
                    offset + raw_score(ground, alive, False, memo)]
            if value != want:
                out.append(f"{a['label']}: got {value}, reference {want}")
                continue
        out.append(None)
    return out


# ---------------------------------------------------------------------------
# thermo: game algebra on full trees of segments and segment sums

THERMO_MAX_SEGMENT = 21
THERMO_SUMS = (
    (5, 7), (7, 9), (5, 5, 7), (3, 5, 7), (2, 5, 9), (-5, 7), (4, 9),
    (3, 3, 5), (5, -7), (2, 2, 5), (-3, 9), (6, 7), (2, 3, 7), (5, 5, -9),
)
# Forty more sums, mostly of three segments with 13 to 15 vertices in all;
# each takes less than 10 ms.  With them the workload has 100 answers, so
# its tail is p90, the eleventh slowest answer, which is slower than all of
# them.  With only the other 60 answers the tail was p75, which fell among
# answers of 11 to 15 ms that traded places from run to run.
THERMO_MID_SUMS = tuple(
    (a, b, c) for a in range(2, 6) for b in range(a, 8) for c in range(b, 9)
    if 13 <= a + b + c <= 15 and (a, b, c) not in THERMO_SUMS
) + (
    (2, 2, 6), (2, 2, 7), (2, 3, 6), (3, 3, 6), (3, 4, 5), (3, 3, -5), (2, 5, 5), (4, 7),
    (4, -7), (5, 5), (5, 8), (6, 8), (4, 10), (3, 10), (6, 6), (5, 9), (3, 11), (2, 10),
)
THERMO_IDENTITIES = ("two fives", "four fives", "five by repetition", "switch")


def make_thermo(seed: int):
    # The inputs do not depend on the seed.  The answers share subtrees
    # through the package's caches, so the first query to need a tree pays
    # for it; with few answers and widely spread latencies, a seeded choice
    # or order of queries moved the latency percentiles by up to a fifth.
    del seed
    queries = [("game", (s,)) for n in range(1, THERMO_MAX_SEGMENT + 1) for s in (n, -n)]
    queries.extend(("game", parts) for parts in THERMO_MID_SUMS)
    queries.extend(("game", parts) for parts in THERMO_SUMS)
    queries.extend(("identity", name) for name in THERMO_IDENTITIES)
    return queries


def _thermo_answer(parts):
    g = games.simplify(segments.segment_union_tree(parts))
    tg = thermo.thermograph(g)
    return [tg.sigma, thermo.mean(g), games.ls(g), games.rs(g)]


def _identity(name: str):
    five = segments.segment_union_tree([5])
    if name == "two fives":
        two = games.add(games.number(2), segments.segment_union_tree([2]))
        return games.equivalent(games.add(five, five), two)
    if name == "four fives":
        return games.equivalent(games.add_all([five] * 4), games.number(4))
    if name == "five by repetition":
        return thermo.mean_by_repetition(games.simplify(five), 4)
    tg = thermo.thermograph(games.parse_game("<-1|-5>"))
    return [tg.sigma, tg.mast]


def run_thermo(inputs, rec: Recorder, ctx: dict) -> None:
    for kind, arg in inputs:
        if kind == "game":
            rec.answer(f"game {list(arg)}", _thermo_answer, arg)
        else:
            rec.answer(f"identity {arg}", _identity, arg)


def check_thermo(inputs, answers, ctx, pinned) -> list:
    want = pinned["thermo"]
    oracle = segments.SegmentEngine(use_rewrite=False)
    out = []
    for (kind, arg), a in zip(inputs, answers):
        label, value = a["label"], a["value"]
        if value is None or label not in want:
            out.append(f"{label}: got {value}, pinned {want.get(label)}")
            continue
        if kind == "game":
            scores = _pair(oracle.scores(segments.SegmentSum(arg)))
            if value[2:] != [str(s) for s in scores]:
                out.append(f"{label}: Ls/Rs {value[2:]}, no-rewrite engine {scores}")
                continue
        out.append(None if value == want[label] else
                   f"{label}: got {value}, pinned {want[label]}")
    return out


# ---------------------------------------------------------------------------

WORKLOADS = {
    "segtable": (make_segtable, run_segtable, check_segtable),
    "boards": (make_boards, run_boards, check_boards),
    "fragments": (make_fragments, run_fragments, check_fragments),
    "thermo": (make_thermo, run_thermo, check_thermo),
}


def _conftest():
    """The test suite's shared helpers: frozen table and reference solver."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import conftest

    return conftest


def scratch_dir():
    """A temporary directory inside the checkout, for the segment cache."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
