"""Leftover-code checks on the package and scripts, with the stdlib ``ast`` only.

An import that nothing in its module reads, or a private module-level name
that no module of the package or its scripts reads, is a leftover of a
deletion. Names a module lists in ``__all__`` count as read, and
``from __future__`` imports are ignored. The scripts use the package's
public names only: none imports a ``_``-prefixed module or name of it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "phasekit").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded(tree) -> set[str]:
    """Every name a module reads, and every attribute it reads off anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _private_definitions(tree):
    """(name, line) of each private name the module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"numerics.py", "receivers.py", "scan.py", "make_figures.py"} <= names


def test_every_import_is_read():
    unused = []
    for path in SOURCES:
        tree = _parse(path)
        read = _loaded(tree) | _exported(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imports(tree) if name not in read]
    assert not unused, unused


def test_every_private_module_name_is_read():
    trees = {path: _parse(path) for path in SOURCES}
    read = set()
    for tree in trees.values():
        read |= _loaded(tree)
        # a private name imported by another module is read there
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unread = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read and name not in _exported(tree)
    ]
    assert not unread, unread


def _is_private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.startswith("__") for part in dotted.split("."))


def test_scripts_import_nothing_private_from_the_package():
    private = []
    for path in SOURCES:
        if path.parent.name != "scripts":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            private += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] == "phasekit" and _is_private(name)]
    assert not private, private
