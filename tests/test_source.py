"""Source checks over ``src/fbsdelab``: every named parameter is read by its function,
every module-level import is used by its module, and every exported name exists.

A parameter that its body never reads is an option no value can change.  Names
that start with ``_`` are exempt (a signature that must take an argument it does
not use says so), and so are lambdas and ``*args``/``**kwargs``.  Nested
functions count as part of the body that defines them, so a closure reading an
outer parameter reads it.  An imported name counts as used when the module
reads it anywhere or lists it in ``__all__``; ``__init__.py``, which imports to
re-export, and ``from __future__`` imports are exempt.  Every name a module lists
in ``__all__`` exists in it, so a removal cannot leave a stale export behind.  Every
module-level function or class whose name starts with ``_`` is referenced somewhere
in ``src/fbsdelab`` outside its own definition (read as a name or an attribute, or
imported), so a private helper that only a test calls lives in that test.  Only
``mc``, whose ``_draw_increments`` draws a second random stream on a worker
thread, imports ``threading`` or ``concurrent.futures``, at module level or
inside a function.  No module imports scipy when it is imported (at module level,
or in a class body or a module-level block): a cold ``import scipy.linalg``
costs more than all of ``import fbsdelab``, so scipy is imported inside the
function that calls it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fbsdelab"
MODULES = sorted(SRC.glob("*.py"))


def _unread_parameters(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{fn.lineno} {fn.name}({p})" for p in params
                   if not p.startswith("_") and p not in read]
    return unread


def test_source_modules_found():
    assert {p.name for p in MODULES} >= {"criteria.py", "density.py", "mc.py", "model.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                for elt in stmt.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read | exported]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    name = "fbsdelab" if path.stem == "__init__" else f"fbsdelab.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _references(node) -> set:
    """The names ``node`` reads: loaded names, attribute names and names imported from a module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _unreferenced_private_definitions() -> list:
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    refs = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    found = []
    for name, tree in trees.items():
        for d in tree.body:
            if not (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                continue
            if not any(d.name in read for stmt, read in refs if stmt is not d):
                found.append(f"{name}:{d.lineno} {d.name}")
    return found


def test_every_private_definition_is_referenced():
    assert _unreferenced_private_definitions() == []


THREAD_MODULES = ("threading", "_thread", "concurrent")


def _thread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names += [(n.lineno, alias.name) for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module:
            names.append((n.lineno, n.module))
    return [f"{path.name}:{line} {name}" for line, name in names
            if name.split(".")[0] in THREAD_MODULES]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "mc.py"], ids=lambda p: p.name)
def test_threads_stay_in_mc(path):
    assert _thread_imports(path) == []


def _import_time_imports(path: Path) -> list:
    """The modules imported while ``path`` is imported: every import outside a function body."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from walk(child)

    names = []
    for n in walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Import):
            names += [(n.lineno, alias.name) for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module:
            names.append((n.lineno, n.module))
    return [f"{path.name}:{line} {name}" for line, name in names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_inside_functions(path):
    assert [i for i in _import_time_imports(path) if i.split()[1].split(".")[0] == "scipy"] == []
