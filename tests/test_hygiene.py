"""Source hygiene: no unused import, and no module-level name that nothing uses.

Each ``src/spa_compressor`` module is parsed with :mod:`ast`.  An import
counts as used when its module reads the name or lists it in ``__all__``.
A module-level function, class or assignment counts as used when any
module of the package reads it, as a name or an attribute, or imports it.
"""

import ast
from pathlib import Path

import pytest

import spa_compressor

SRC = Path(spa_compressor.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _referenced(tree) -> set[str]:
    names = _read_names(tree) | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = _read_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"line {node.lineno}: {b}" for b in bound if b not in used]
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_module_level_name_is_referenced():
    referenced = set().union(*map(_referenced, MODULES.values()))
    unreferenced = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}: {d}" for d in defined
                             if not (d.startswith("__") and d.endswith("__")) and d not in referenced]
    assert not unreferenced, f"module-level names no module references: {unreferenced}"
