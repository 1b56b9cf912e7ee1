"""Each package module imports by itself in a fresh interpreter.

``solver`` imports ``symmetry``, so ``symmetry`` imports ``Solver`` only
inside ``certify_draw``: a module-level import would be a cycle.  A fresh
interpreter per module checks each import path without the modules the
test session has already loaded.
"""

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
