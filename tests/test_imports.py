"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rednw"
# __init__ imports to re-export
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports in ``source`` that it never reads,
    ``from __future__`` aside; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from . import reduction\nfrom .reduction import fit, oracle_basis\n"
              "def f(x: np.ndarray):\n    return reduction.reduce, oracle_basis(x)\n")
    assert unused_imports(source) == ["fit", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
