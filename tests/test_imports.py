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


# Re-exports that no library code refers to, each kept for a stated reason.
UNREFERENCED_EXPORTS = {
    # tracer pins: perfbench/tracer.py wraps them by name, and its install()
    # looks every target up with getattr
    "wedge",
    "gegenbauer",
    "chebyshev_t",
    # test oracles: independent routes to the harmonic basis and to psi
    "sphere_inner_exact",
    "creation_psi",
    # criterion 09: the Hankel-Laguerre eigenrelation of the radial route
    "hankel_laguerre_residual",
}


def _references_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names and attribute names a module refers to, leaving out those
    inside the top-level def or class of the same name."""
    refs = set()
    for stmt in tree.body:
        names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        refs |= names
    return refs


def test_every_reexported_name_has_a_library_caller():
    init = ast.parse(Path(clifft.__file__).read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    referenced = set().union(
        *(_references_outside_own_definition(ast.parse(p.read_text())) for p in MODULES)
    )
    assert UNREFERENCED_EXPORTS <= exported
    assert not UNREFERENCED_EXPORTS & referenced, "an allowlisted name now has a caller"
    unreferenced = sorted(exported - referenced - UNREFERENCED_EXPORTS)
    assert not unreferenced, f"re-exported names no library code refers to: {unreferenced}"
