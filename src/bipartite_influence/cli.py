"""Command line front end.

Exit codes: 0 success, 1 a checked property failed, 2 bad input,
3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .games import (
    Game,
    add,
    audit_universe,
    equivalent,
    format_game,
    number,
    parse_game,
    simplify,
)
from .graphs import (
    MAX_VERTICES,
    GroundGraph,
    Position,
    build_cylinder,
    build_grid,
    build_hypercube,
    build_segment,
    build_torus,
    load_graph,
)
from .reduction import (
    gadget_graph,
    parse_pos_cnf,
    reduction_soundness_check,
)
from .segments import (
    SegmentEngine,
    SegmentSum,
    check_period_args,
    periodicity_scan,
    raw_union_tree,
    segment_table,
    segment_union_tree,
    write_table_csv,
)
from .solver import DEFAULT_NODE_BUDGET, SearchBudgetError, Solver, milnor_audit
from .symmetry import DEFAULT_SEARCH_BUDGET, certify_draw
from .thermo import thermograph, thermograph_csv_rows, thermograph_to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

MAX_RAW_VERTICES = 32  # a full tree of 32 vertices takes up to about 12 s

ENV_PREFIX = "INFLUENCE_"
CONFIG_KEYS = ("node_budget", "cache_dir", "search_budget")


def load_config(path: str | None) -> dict:
    """Settings from a key=value file, overridden by INFLUENCE_* env vars."""
    settings: dict[str, str] = {}
    if path:
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            settings[key] = value.strip()
    for key in CONFIG_KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            settings[key] = env
    return settings


def _int_setting(flag, settings: dict, key: str, default: int) -> int:
    """A flag value, else the config value, else the default; 0 is a value
    and a negative one is bad input."""
    value = flag if flag is not None else int(settings.get(key) or default)
    if value < 0:
        raise ValueError(f"{key} must be at least 0, got {value}")
    return value


def default_cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "bipartite-influence"


# ---------------------------------------------------------------------------
# graph sources


def add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("graph source (pick one)")
    src.add_argument("--segment", type=int, metavar="N",
                     help="path on |N| vertices, Black end iff N > 0")
    src.add_argument("--grid", metavar="RxC", help="grid, e.g. 2x3")
    src.add_argument("--cylinder", metavar="RxC", help="grid with wrapped rows")
    src.add_argument("--torus", metavar="RxC", help="grid wrapped both ways")
    src.add_argument("--hypercube", type=int, metavar="D", help="dimension D")
    src.add_argument("--file", metavar="PATH", help="graph JSON file")


def _parse_dims(text: str) -> tuple[int, int]:
    m = text.lower().split("x")
    if len(m) != 2:
        raise ValueError(f"expected RxC, got {text!r}")
    return int(m[0]), int(m[1])


def parse_segment_list(text: str) -> list[int]:
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:  # int() quotes the first bad token, cut to 200 characters
        raise ValueError(f"bad segment list: {exc}") from exc
    if (size := sum(map(abs, parts))) > MAX_VERTICES:
        raise ValueError(f"segment union has {size} vertices, capacity is {MAX_VERTICES}")
    return parts


def _graph_sources(args) -> int:
    """How many graph source flags were given."""
    flags = (args.segment, args.grid, args.cylinder, args.torus,
             args.hypercube, args.file)
    return sum(flag is not None for flag in flags)


def graph_from_args(args) -> GroundGraph:
    if _graph_sources(args) != 1:
        raise ValueError("pick exactly one graph source")
    if args.segment is not None:
        return build_segment(args.segment)
    if args.grid is not None:
        return build_grid(*_parse_dims(args.grid))
    if args.cylinder is not None:
        return build_cylinder(*_parse_dims(args.cylinder))
    if args.torus is not None:
        return build_torus(*_parse_dims(args.torus))
    if args.hypercube is not None:
        return build_hypercube(args.hypercube)
    return load_graph(args.file)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args, settings) -> int:
    budget = _int_setting(args.node_budget, settings, "node_budget", DEFAULT_NODE_BUDGET)
    solver = Solver(node_budget=budget, prune=not args.no_prune)
    if args.segments is not None:
        if _graph_sources(args):
            raise ValueError("pick exactly one graph source")
        parts = parse_segment_list(args.segments)
        positions = [Position.make(build_segment(p)) for p in parts]
        pair = solver.score_of_sum(positions)
        label = f"segments {parts}"
    else:
        g = graph_from_args(args)
        pair = solver.scores(Position.make(g))
        label = g.name or "graph"
    payload = {
        "input": label,
        "ls": pair.ls,
        "rs": pair.rs,
        "nodes": solver.nodes,
        "table_entries": len(solver.table),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{label}: Ls = {pair.ls}, Rs = {pair.rs} "
              f"({solver.nodes} nodes, {len(solver.table)} table entries)")
    return EXIT_OK


def cmd_table(args, settings) -> int:
    if args.check_period:
        check_period_args(*args.check_period, args.max)
    engine = SegmentEngine()
    cache_file = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir or settings.get("cache_dir")
                         or default_cache_dir())
        cache_file = cache_dir / "segment-scores.json"
        try:
            if cache_file.exists():
                engine.load(cache_file)
        except (ValueError, OSError) as exc:
            print(f"# ignoring segment cache {cache_file}: {exc}; "
                  "rebuilding it", file=sys.stderr)
    rows = segment_table(args.max, engine)
    if cache_file is not None:
        try:
            engine.save(cache_file)
        except OSError as exc:
            print(f"# could not save segment cache {cache_file}: {exc}",
                  file=sys.stderr)
    if args.check_period:
        period, preperiod = args.check_period
        bad = periodicity_scan(rows, period, preperiod)
        print(f"# periodicity({period}, {preperiod}): "
              + (f"violations at {bad}" if bad else "no violations"),
              file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_table_csv(rows, fh)
    else:
        write_table_csv(rows, sys.stdout)
    return EXIT_OK


def game_from_args(args) -> Game:
    """The game ``thermo`` cools: simplified unless ``--raw`` is given."""
    sources = [
        args.game is not None,
        args.segment is not None,
        args.segments is not None,
    ]
    if sum(sources) != 1:
        raise ValueError("pick exactly one of --game, --segment, --segments")
    if args.game is not None:
        g = parse_game(args.game)
        # simplify may drop a zugzwang subtree, so audit the game as given
        bad = audit_universe(g)
        if bad:
            raise ValueError(f"cannot cool a game outside the universe: {bad}")
        return g if args.raw else simplify(g)
    parts = parse_segment_list(args.segments if args.segment is None else str(args.segment))
    if not args.raw:
        return segment_union_tree(parts)
    if (size := sum(map(abs, parts))) > MAX_RAW_VERTICES:
        raise ValueError(f"--raw takes at most {MAX_RAW_VERTICES} vertices, got {size}")
    return raw_union_tree(parts)


def cmd_thermo(args, settings) -> int:
    g = game_from_args(args)
    tg = thermograph(g)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,ls,rs\n")
            for t, a, b in thermograph_csv_rows(tg):
                fh.write(f"{t},{a},{b}\n")
    try:
        game = format_game(g)
    except ValueError as exc:  # a notation longer than MAX_NOTATION_SIZE
        game, note = None, f"not printed, {exc}"
    if args.json:
        print(json.dumps({"game": game} | thermograph_to_json(tg)))
    else:
        print(f"game: {note if game is None else game}")
        print(f"temperature = {tg.sigma}, mean = {tg.mast}")
    return EXIT_OK


def cmd_equiv(args, settings) -> int:
    engine = SegmentEngine()  # both sides share its keys and trees

    def side(sum_text, game_text, offset):
        if (sum_text is None) == (game_text is None):
            raise ValueError("give each side exactly one of a sum or a game")
        if game_text is not None:
            g = parse_game(game_text)
        else:
            g = engine.tree(SegmentSum(parse_segment_list(sum_text)))
        return add(number(offset), g)

    a = side(args.sum_a, args.game_a, args.offset_a)
    b = side(args.sum_b, args.game_b, args.offset_b)
    verdict = equivalent(a, b)
    if args.json:
        print(json.dumps({"equivalent": verdict}))
    else:
        print(f"equivalent: {'yes' if verdict else 'no'}")
    return EXIT_OK


def cmd_symmetry(args, settings) -> int:
    if args.solve_limit < 0:
        raise ValueError(f"--solve-limit must be at least 0, got {args.solve_limit}")
    g = graph_from_args(args)
    budget = _int_setting(args.budget, settings, "search_budget", DEFAULT_SEARCH_BUDGET)
    report = certify_draw(g, budget=budget, solve_limit=args.solve_limit)
    payload = {
        "graph": g.name or "graph",
        "status": report.status,
        "mapping": list(report.mapping) if report.mapping else None,
        "search_nodes": report.search_nodes,
        "scores": (
            {"ls": report.scores.ls, "rs": report.scores.rs}
            if report.scores else None
        ),
        "draw_certified": report.draw_certified,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{payload['graph']}: {report.status}"
              + (f", mapping {payload['mapping']}" if report.mapping else ""))
        if report.scores:
            print(f"scores: Ls = {report.scores.ls}, Rs = {report.scores.rs}")
    if report.status == "budget":
        return EXIT_BUDGET
    if not report.consistent:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_reduce(args, settings) -> int:
    text = (sys.stdin.read() if args.cnf == "-"
            else Path(args.cnf).read_text(encoding="utf-8"))
    formula = parse_pos_cnf(text)
    g = gadget_graph(formula)
    out = json.dumps(g.to_json())
    if args.out:
        Path(args.out).write_text(out + "\n", encoding="utf-8")
    else:
        print(out)
    if args.check:
        report = reduction_soundness_check(formula)
        print(
            f"# picking game: {'Alice' if report.alice_wins else 'Bob'} wins; "
            f"Ls = {report.left_score}, threshold = {report.threshold}",
            file=sys.stderr,
        )
        if not report.sound:
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_audit(args, settings) -> int:
    g = graph_from_args(args)
    report = milnor_audit(Position.make(g), depth=args.depth)
    payload = {
        "graph": g.name or "graph",
        "positions_checked": report.positions_checked,
        "dicotic_ok": report.dicotic_ok,
        "nonzugzwang_ok": report.nonzugzwang_ok,
        "first_violation": report.first_violation,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        verdict = "clean" if report.clean else f"VIOLATION: {report.first_violation}"
        print(f"{payload['graph']}: {report.positions_checked} positions, {verdict}")
    return EXIT_OK if report.clean else EXIT_VIOLATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="influence",
        description="Exact solver workbench for the Bipartite Influence scoring game.",
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", metavar="FILE",
                   help="key=value settings file (overridden by INFLUENCE_* env)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="exact Left and Right scores")
    add_source_args(ps)
    ps.add_argument("--segments", metavar="LIST",
                    help="comma-separated union of segments, e.g. 5,5,2")
    ps.add_argument("--node-budget", type=int)
    ps.add_argument("--no-prune", action="store_true",
                    help="keep dominated moves (for cross-checking)")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("table", help="segment score table as CSV")
    pt.add_argument("--max", type=int, required=True, metavar="N")
    pt.add_argument("--out", metavar="FILE")
    pt.add_argument("--no-cache", action="store_true")
    pt.add_argument("--cache-dir", metavar="DIR")
    pt.add_argument("--check-period", nargs=2, type=int,
                    metavar=("PERIOD", "PREPERIOD"))
    pt.set_defaults(func=cmd_table)

    pth = sub.add_parser("thermo", help="temperature, mean and trajectories")
    pth.add_argument("--segment", type=int, metavar="N")
    pth.add_argument("--segments", metavar="LIST")
    pth.add_argument("--game", metavar="NOTATION",
                     help="explicit game, e.g. '<5|<-1|-5>>'")
    pth.add_argument("--raw", action="store_true",
                     help="cool the unsimplified tree")
    pth.add_argument("--csv", metavar="FILE")
    pth.add_argument("--json", action="store_true")
    pth.set_defaults(func=cmd_thermo)

    pe = sub.add_parser("equiv", help="test two games for equality")
    pe.add_argument("--sum-a", metavar="LIST", help="segments of side A")
    pe.add_argument("--sum-b", metavar="LIST", help="segments of side B")
    pe.add_argument("--game-a", metavar="NOTATION")
    pe.add_argument("--game-b", metavar="NOTATION")
    pe.add_argument("--offset-a", type=int, default=0)
    pe.add_argument("--offset-b", type=int, default=0)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_equiv)

    py = sub.add_parser("symmetry", help="search for a mirror-draw certificate")
    add_source_args(py)
    py.add_argument("--budget", type=int)
    py.add_argument("--solve-limit", type=int, default=26,
                    help="largest graph whose exact scores are checked; 0 skips the check")
    py.add_argument("--json", action="store_true")
    py.set_defaults(func=cmd_symmetry)

    pr = sub.add_parser("reduce", help="POS-CNF formula to graph JSON")
    pr.add_argument("--cnf", required=True, metavar="FILE",
                    help="formula file, or - for stdin")
    pr.add_argument("--out", metavar="FILE")
    pr.add_argument("--check", action="store_true",
                    help="verify the board agrees with the picking game")
    pr.set_defaults(func=cmd_reduce)

    pa = sub.add_parser("audit", help="universe conditions on reachable positions")
    add_source_args(pa)
    pa.add_argument("--depth", type=int, default=3)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_audit)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_config(args.config)
        return args.func(args, settings)
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
