"""Each package module imports by itself in a fresh interpreter, uses
every name it imports, reads every local its functions bind and holds no
``global`` statement; ``segments`` imports nothing from ``graphs``, and
``games`` nothing from ``graphs``, ``solver`` or ``segments``; every
function the benchmark traces, and every attribute it counts, exists.

``solver`` imports ``symmetry`` and ``games``, so ``symmetry`` imports
``Solver`` only inside ``certify_draw`` (a module-level import would be a
cycle), and ``games``, game algebra only, imports nothing from the
package.  A fresh interpreter per module checks each import path without
the modules the test session has already loaded.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "bipartite_influence").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", f"import bipartite_influence.{module}"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


# ``__init__`` imports names to export them.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_module_uses_every_import(module):
    path = SRC / "bipartite_influence" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _unread_locals(tree: ast.Module) -> list[str]:
    """Names other than ``_`` that a function binds and never reads, not
    even in a function nested in it."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
        out += [f"{func.name}: {name} (line {line})" for name, line in stored.items()
                if name != "_" and name not in loaded]
    return out


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_local(module):
    path = SRC / "bipartite_influence" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unread_locals(tree) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_global_statement(module):
    """No function rebinds module-level state: a cache or an engine
    belongs to the object or the caller that uses it."""
    path = SRC / "bipartite_influence" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [f"{', '.join(node.names)} (line {node.lineno})"
            for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def _imported_modules(module: str) -> list[str]:
    """The last dotted part of each module that package ``module`` imports."""
    path = SRC / "bipartite_influence" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(getattr(node, "module", None) or alias.name).split(".")[-1]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_segments_import_nothing_from_graphs():
    """The segment engine builds scores and game trees on its own keys, so
    it needs no graph: its module imports nothing from ``graphs``."""
    imported = _imported_modules("segments")
    assert imported and "graphs" not in imported


def test_games_import_nothing_from_the_package():
    """``games`` is game algebra only: the game of a position comes from a
    search's tree loop, so the module imports nothing from ``graphs``,
    ``solver`` or ``segments``."""
    imported = _imported_modules("games")
    assert imported and not {"graphs", "solver", "segments"} & set(imported)


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps exists in the package.

    A name the tracer cannot find turns its per-layer metrics into
    ``missing`` without failing the benchmark run.
    """
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    entries = ast.literal_eval(traced)
    assert entries
    for stat, module, cls, attr in entries:
        owner = importlib.import_module(f"bipartite_influence.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), stat


def test_counted_attributes_exist():
    """Every package attribute the benchmark's ``layer_metrics`` reads exists.

    A missing one drops its per-layer metric into ``missing`` without
    failing the benchmark run, as renaming ``games._add_cache`` would drop
    ``games.add_cache_entries``.
    """
    from bipartite_influence import games
    from bipartite_influence.segments import SegmentEngine
    from bipartite_influence.solver import Solver

    assert isinstance(games._intern, dict)
    assert isinstance(games._add_cache, dict)
    solver = Solver()
    assert (solver.nodes, len(solver.table), solver.table.hits,
            solver.table.lookups) == (0, 0, 0, 0)
    engine = SegmentEngine()
    assert (engine.nodes, engine.memo) == (0, {})


def test_unread_local_is_caught():
    tree = ast.parse("def f(pair):\n    first, second = pair\n    _ = 1\n"
                     "    def g():\n        return second\n    return g\n")
    assert _unread_locals(tree) == ["f: first (line 2)"]


def test_unused_import_is_caught():
    tree = ast.parse("from .graphs import canonical_key, segment_value\n"
                     "import os.path\n"
                     "def f(p):\n    return canonical_key(p)\n")
    assert _unused_imports(tree) == ["segment_value (line 1)", "os (line 2)"]
