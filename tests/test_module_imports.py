"""Every name a library module imports at module level is read in that module.

A stand-in for a linter's unused-import check: each module under
``src/hardyframes`` except the package ``__init__`` (whose imports are its
public surface) is parsed with ``ast``, and every name bound by a
module-level ``import`` or ``from ... import`` must occur as a loaded name
somewhere in the module. ``from __future__ import annotations`` binds
nothing and is exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).parents[1] / "src" / "hardyframes").glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []
