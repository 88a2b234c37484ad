"""Every name a clifft module imports is used in that module.

The package ``__init__`` is left out: its imports are the public
re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import clifft

MODULES = sorted(
    p for p in Path(clifft.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_no_private_name_of_another_clifft_module(path):
    tree = ast.parse(path.read_text())
    private = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "clifft")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, f"{path.name} imports private clifft names: {private}"
