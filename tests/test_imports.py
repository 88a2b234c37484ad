"""Every name a clifft module imports is used in that module, and no
clifft module imports scipy.

The package ``__init__`` is left out of the first: its imports are the
public re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _scipy_imports(tree: ast.Module) -> list[str]:
    """The modules of scipy that an import statement of the tree names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module or "")
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


@pytest.mark.parametrize("path", MODULES + [Path(clifft.__file__)], ids=lambda p: p.stem)
def test_module_imports_nothing_from_scipy(path):
    # clifft computes every special function itself; scipy is a test oracle
    found = _scipy_imports(ast.parse(path.read_text()))
    assert not found, f"{path.name} imports {found}"


def test_import_clifft_leaves_scipy_unloaded():
    # no clifft module, and nothing clifft imports, loads scipy: a fresh
    # process that imports the package has no scipy module
    src = str(Path(clifft.__file__).parent.parent)
    code = "import sys, clifft; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


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


# Parameters with a default that no library or benchmark call sets, each
# kept for a stated reason, as (callable, parameter).
UNSET_DEFAULTS = {
    # the series tests
    ("check_cf_constraint", "k_max"),
    # tests pick kernels and basis functions with them
    ("verify_eigen", "i_values"),
    ("verify_eigen", "k_values"),
    ("verify_eigen", "j_values"),
    ("verify_eigen", "sign"),
    # test oracles
    ("Multivector.isclose", "tol"),
    # criterion 05 checks the sign (-1)^p of the psi_{2p,k,l} eigenvalues
    ("closed_form_eigenvalue", "p"),
    # the tests compose the transform and its inverse at every kernel index
    ("inversion_composition_residual", "i"),
}

CALLERS = MODULES + sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None, ast.expr]]:
    """(name, position or None when keyword-only, default) of each
    parameter with a default; a method's position leaves out self."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i, d) for i, (a, d) in enumerate(zip(positional[first:], fn.args.defaults), first)]
    out += [(a.arg, None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, int | None, ast.expr]]:
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [(f.target.id, i, f.value) for i, f in enumerate(fields) if f.value is not None]


def _public_defaults() -> dict[tuple[str, str], tuple[str, int | None, ast.expr]]:
    """(label, parameter) -> (name a call uses, position, default) over the
    functions in a module's __all__, and each listed class's __init__ (or
    dataclass fields) and public methods."""
    out = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        exported = next(
            (ast.literal_eval(s.value) for s in tree.body if isinstance(s, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in s.targets)),
            [],
        )
        for node in tree.body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                for name, pos, default in _defaulted(node, False):
                    out[node.name, name] = (node.name, pos, default)
                continue
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {s.name: s for s in node.body if isinstance(s, ast.FunctionDef)}
            init = (_defaulted(methods["__init__"], True) if "__init__" in methods
                    else _dataclass_fields(node))
            for name, pos, default in init:
                out[node.name, name] = (node.name, pos, default)
            for mname, method in methods.items():
                if mname.startswith("_"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                for name, pos, default in _defaulted(method, not static):
                    out[f"{node.name}.{mname}", name] = (mname, pos, default)
    return out


def _sets(call: ast.Call, pos: int | None, name: str, default: ast.expr) -> bool:
    """Whether the call passes the parameter a value other than a literal
    equal to its default."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    passed = [k.value for k in call.keywords if k.arg == name]
    if pos is not None and pos < len(call.args):
        passed.append(call.args[pos])
    for value in passed:
        try:
            if ast.literal_eval(value) == ast.literal_eval(default):
                continue
        except ValueError:
            pass
        return True
    return False


def test_every_defaulted_public_parameter_is_set_by_a_caller():
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    params = _public_defaults()
    assert UNSET_DEFAULTS <= set(params)
    unset = sorted(
        key for key, (name, pos, default) in params.items()
        if key not in UNSET_DEFAULTS
        and not any(_sets(c, pos, key[1], default) for c in calls.get(name, []))
    )
    assert not unset, f"parameters with defaults no library or benchmark call sets: {unset}"
    still = sorted(
        key for key in UNSET_DEFAULTS
        if any(_sets(c, params[key][1], key[1], params[key][2]) for c in calls.get(params[key][0], []))
    )
    assert not still, f"an allowlisted parameter now has a caller: {still}"
