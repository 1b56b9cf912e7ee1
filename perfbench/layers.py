"""Per-layer counters for a traced benchmark run.

The tracer wraps public (and a few private) functions of the package from
outside: it replaces the name in every package module that holds it, so a
call such as ``solver.canonical_key(...)`` inside ``solver`` reaches the
wrapper.  Hot functions run millions of times, so a wrapper keeps only
aggregate counts, inclusive time and self time; full spans are kept only at
the per-answer boundary, by the worker.

Self time is a span's duration minus the time its traced child spans took.
Inclusive time counts only the outermost call of a recursive function.

Private names can be renamed by any later change.  A name that is not there
is reported in ``missing`` together with every metric it would have fed,
and the run goes on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    true_results: int = 0
    depth: int = 0


# (stat name, module, class or None, attribute).  Per-layer metrics are
# derived from these stats in ``layer_metrics``.
TRACED = (
    ("graphs.canonical_key", "graphs", None, "canonical_key"),
    ("graphs.segment_value", "graphs", None, "segment_value"),
    ("graphs.components", "graphs", None, "components"),
    ("graphs.legal_moves", "graphs", None, "legal_moves"),
    ("graphs.apply_move", "graphs", None, "apply_move"),
    ("solver.score_of_sum", "solver", "Solver", "score_of_sum"),
    ("solver.cancel", "solver", "Solver", "_cancel"),
    ("solver.negated_pair", "solver", None, "_negated_pair"),
    ("solver.prune_dominated", "solver", None, "prune_dominated"),
    ("segments.scores", "segments", "SegmentEngine", "scores"),
    ("segments.reduce", "segments", "SegmentEngine", "_reduce"),
    ("segments.move_list", "segments", "SegmentEngine", "_move_list"),
    ("segments.save", "segments", "SegmentEngine", "save"),
    ("segments.load", "segments", "SegmentEngine", "load"),
    ("segments.union_tree", "segments", None, "segment_union_tree"),
    ("games.add", "games", None, "add"),
    ("games.node", "games", None, "node"),
    ("games.dominates", "games", None, "dominates"),
    ("games.negate", "games", None, "negate"),
    ("games.simplify", "games", None, "simplify"),
    ("games.equivalent", "games", None, "equivalent"),
    ("thermo.thermograph", "thermo", None, "thermograph"),
    ("symmetry.find_bw", "symmetry", None, "find_bw"),
    ("symmetry.certify_draw", "symmetry", None, "certify_draw"),
    ("reduction.soundness", "reduction", None, "reduction_soundness_check"),
)

# metric name -> (stat name, Stat field, unit, better)
STAT_METRICS = {
    "graphs.canonical_key.calls": ("graphs.canonical_key", "calls", "count", "lower"),
    "graphs.canonical_key.self_s": ("graphs.canonical_key", "self_s", "s", "lower"),
    "graphs.segment_value.calls": ("graphs.segment_value", "calls", "count", "lower"),
    "graphs.segment_value.self_s": ("graphs.segment_value", "self_s", "s", "lower"),
    "graphs.components.calls": ("graphs.components", "calls", "count", "lower"),
    "graphs.components.self_s": ("graphs.components", "self_s", "s", "lower"),
    "graphs.legal_moves.calls": ("graphs.legal_moves", "calls", "count", "lower"),
    "graphs.legal_moves.self_s": ("graphs.legal_moves", "self_s", "s", "lower"),
    "graphs.apply_move.calls": ("graphs.apply_move", "calls", "count", "lower"),
    "solver.score_of_sum.calls": ("solver.score_of_sum", "calls", "count", "lower"),
    "solver.score_of_sum.s": ("solver.score_of_sum", "total_s", "s", "lower"),
    "solver.cancel.calls": ("solver.cancel", "calls", "count", "lower"),
    "solver.cancel.self_s": ("solver.cancel", "self_s", "s", "lower"),
    "solver.cancel.s": ("solver.cancel", "total_s", "s", "lower"),
    "solver.negated_pair.calls": ("solver.negated_pair", "calls", "count", "lower"),
    "solver.prune_dominated.self_s": ("solver.prune_dominated", "self_s", "s", "lower"),
    "segments.scores.calls": ("segments.scores", "calls", "count", "lower"),
    "segments.reduce.calls": ("segments.reduce", "calls", "count", "lower"),
    "segments.reduce.self_s": ("segments.reduce", "self_s", "s", "lower"),
    "segments.move_list.calls": ("segments.move_list", "calls", "count", "lower"),
    "segments.move_list.self_s": ("segments.move_list", "self_s", "s", "lower"),
    "segments.save_s": ("segments.save", "total_s", "s", "lower"),
    "segments.load_s": ("segments.load", "total_s", "s", "lower"),
    "segments.union_tree.s": ("segments.union_tree", "total_s", "s", "lower"),
    "games.add.calls": ("games.add", "calls", "count", "lower"),
    "games.add.self_s": ("games.add", "self_s", "s", "lower"),
    "games.node.calls": ("games.node", "calls", "count", "lower"),
    "games.node.self_s": ("games.node", "self_s", "s", "lower"),
    "games.dominates.calls": ("games.dominates", "calls", "count", "lower"),
    "games.dominates.self_s": ("games.dominates", "self_s", "s", "lower"),
    "games.negate.calls": ("games.negate", "calls", "count", "lower"),
    "games.simplify.s": ("games.simplify", "total_s", "s", "lower"),
    "games.equivalent.s": ("games.equivalent", "total_s", "s", "lower"),
    "thermo.thermograph.calls": ("thermo.thermograph", "calls", "count", "lower"),
    "thermo.thermograph.self_s": ("thermo.thermograph", "self_s", "s", "lower"),
    "symmetry.find_bw.s": ("symmetry.find_bw", "total_s", "s", "lower"),
    "symmetry.certify_draw.s": ("symmetry.certify_draw", "total_s", "s", "lower"),
    "reduction.soundness.s": ("reduction.soundness", "total_s", "s", "lower"),
}

# Metrics read from the objects and caches the workload left behind, or
# reported by the workload itself (``facts``), and the ratios built on them.
STATE_METRICS = {
    "solver.nodes": ("count", "lower"),
    "solver.table_entries": ("count", "lower"),
    "solver.table_lookups": ("count", "lower"),
    "solver.table_hit_ratio": ("ratio", "higher"),
    "solver.negated_pair.hit_ratio": ("ratio", "higher"),
    "segments.nodes": ("count", "lower"),
    "segments.memo_entries": ("count", "lower"),
    "segments.cache_bytes": ("bytes", "lower"),
    "segments.load_entries": ("count", "lower"),
    "games.interned": ("count", "lower"),
    "games.add_cache_entries": ("count", "lower"),
    "symmetry.search_nodes": ("count", "lower"),
}

OVERHEAD_METRIC = ("trace.overhead", "ratio", "lower")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {name: (unit, better) for name, (_, _, unit, better) in STAT_METRICS.items()}
    out.update(STATE_METRICS)
    out[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1:]
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Wraps traced functions, and restores them on ``uninstall``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.solvers: list = []
        self.engines: list = []
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that accounts its calls to stat ``name``."""
        stat = self.stats.setdefault(name, Stat())
        clock = self.clock
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - child
                if stat.depth == 0:
                    stat.total_s += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if result is True:
                stat.true_results += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap every traced name found in ``modules`` (short name -> module).

        A module-level function is replaced in every module of ``modules``
        that holds the same object, so calls from importing modules are
        counted too.  A missing module, class or attribute is recorded in
        ``missing`` and skipped.
        """
        for name, mod_name, cls_name, attr in TRACED:
            owner = modules.get(mod_name)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if cls_name is not None:
                self._set(owner, attr, wrapper)
                continue
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapper)
        self._register_instances(modules, "solver", "Solver", self.solvers)
        self._register_instances(modules, "segments", "SegmentEngine", self.engines)

    def _register_instances(self, modules, mod_name, cls_name, sink) -> None:
        cls = getattr(modules.get(mod_name), cls_name, None)
        if cls is None:
            return
        init = cls.__init__

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            sink.append(obj)

        self._set(cls, "__init__", registering_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, modules: dict, facts: dict) -> tuple[dict, list]:
        """Per-layer metric values, and the names that could not be measured."""
        values: dict[str, float] = {}
        missing = set()
        for metric, (stat_name, field, _, _) in STAT_METRICS.items():
            stat = self.stats.get(stat_name)
            if stat is None:
                missing.add(metric)
            else:
                values[metric] = getattr(stat, field)

        pair = self.stats.get("solver.negated_pair")
        if pair is None:
            missing.add("solver.negated_pair.hit_ratio")
        else:
            values["solver.negated_pair.hit_ratio"] = _ratio(pair.true_results, pair.calls)

        try:
            values["solver.nodes"] = sum(s.nodes for s in self.solvers)
            values["solver.table_entries"] = sum(len(s.table) for s in self.solvers)
            hits = sum(s.table.hits for s in self.solvers)
            lookups = sum(s.table.lookups for s in self.solvers)
            values["solver.table_lookups"] = lookups
            values["solver.table_hit_ratio"] = _ratio(hits, lookups)
        except AttributeError:
            missing.update(("solver.nodes", "solver.table_entries",
                            "solver.table_lookups", "solver.table_hit_ratio"))
        try:
            values["segments.nodes"] = sum(e.nodes for e in self.engines)
            values["segments.memo_entries"] = sum(len(e.memo) for e in self.engines)
        except AttributeError:
            missing.update(("segments.nodes", "segments.memo_entries"))

        games = modules.get("games")
        for metric, attr in (("games.interned", "_intern"),
                             ("games.add_cache_entries", "_add_cache")):
            cache = getattr(games, attr, None)
            if cache is None:
                missing.add(metric)
            else:
                values[metric] = len(cache)

        for metric in ("segments.cache_bytes", "segments.load_entries",
                       "symmetry.search_nodes"):
            values[metric] = facts.get(metric, 0)
        for metric in missing:
            values.pop(metric, None)
        return values, sorted(missing)
