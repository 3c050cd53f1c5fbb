"""No dead code at module level: every import is used, every private helper is read.

No linter is part of the toolchain, so this walks the syntax tree instead: a
name bound by a top-level import must appear as a name (or the root of an
attribute chain) somewhere in the module, or be re-exported through
``__all__``.  ``from __future__`` imports are exempt.  A module-level private
function, class or constant (one leading underscore) must be read by its own
module outside the statement that defines it, or by a module that imports it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "addcomb"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by top-level imports of source that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    src = "import math\nfrom typing import Tuple, List\nx: Tuple = math.pi\n"
    assert unused_imports(src) == ["List (line 2)"]


def test_reexport_through_all_counts_as_use():
    assert unused_imports("from .groups import GSet\n__all__ = ['GSet']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _private_names(stmt: ast.stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmts) -> set:
    """Names loaded, and attribute names read, anywhere in stmts."""
    out = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _imported_as(tree: ast.Module, module: str, name: str) -> list:
    """Local names under which tree imports name from the sibling module."""
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
        if alias.name == name
    ]


def dead_private_names(sources: dict) -> list:
    """Module-level private names of the package (module name -> source) that nothing reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    dead = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            for name in _private_names(stmt):
                if name in _reads(s for s in tree.body if s is not stmt):
                    continue
                if any(
                    local in _reads(other.body)
                    for other_mod, other in trees.items()
                    if other_mod != mod
                    for local in _imported_as(other, mod, name)
                ):
                    continue
                dead.append(f"{mod}.{name} (line {stmt.lineno})")
    return sorted(dead)


def test_detects_a_dead_private_helper():
    src = "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\nX = _used()\n_UNREAD = 3\n"
    assert dead_private_names({"a": src}) == ["a._UNREAD (line 8)", "a._dead (line 4)"]


def test_read_by_an_importing_module_counts():
    sources = {"a": "_K = 1\n", "b": "from .a import _K as k\nY = k\n", "c": "from .a import _K\n"}
    assert dead_private_names(sources) == []
    assert dead_private_names({"a": sources["a"], "c": sources["c"]}) == ["a._K (line 1)"]


def test_library_has_no_dead_private_helper():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
