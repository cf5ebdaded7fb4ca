"""Every name a library module imports at module level is read in that module,
and every private module-level name is read somewhere in the package.

A stand-in for a linter's unused-name checks. Each module under
``src/hardyframes`` except the package ``__init__`` (whose imports are its
public surface) is parsed with ``ast``, and every name bound by a
module-level ``import`` or ``from ... import`` must occur as a loaded name
somewhere in the module. ``from __future__ import annotations`` binds
nothing and is exempt. Every private name (``_x``, not a dunder) that a
module binds at module level by a ``def``, ``class`` or assignment must be
read somewhere in the package, as a loaded name or as an attribute, so a
helper whose last caller is gone shows up here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parents[1] / "src" / "hardyframes").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def loaded_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = loaded_names(tree)
    return [name for name in bound if name not in read]


def module_level_names(tree) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def unread_privates(sources: list[str]) -> list[str]:
    """Private module-level names of ``sources`` that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        read |= loaded_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    private = [
        name
        for tree in trees
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    return [name for name in private if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    assert unread_privates([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []


def test_check_finds_an_unread_private_name():
    first = "def _helper():\n    pass\n\nclass _Box:\n    pass\n\n_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
    second = "import first\n\nprint(_A, first._Box)\n"
    assert unread_privates([first, second]) == ["_helper", "_B", "_C"]
    assert unread_privates(["def _f():\n    return 1\n\nx = _f()\n"]) == []
