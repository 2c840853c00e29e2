"""Dead-code guard for ``src/qbdtail``: no unused import, and no private
module-level name that nothing in the package refers to.

Helpers left behind when their last caller is deleted fail here.  Only the
standard library's ``ast`` is used; the package's own ``from . import
errors`` in ``__init__`` is a deliberate re-export and is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbdtail"
EXEMPT_IMPORTS = {("__init__.py", "errors")}


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    """Names read as variables or attributes, and names imported by
    ``from ... import``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imported(tree):
    """(bound name, line) of every import except ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree):
    """(name, line) of module-level private functions, classes and
    assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_no_unused_imports():
    unused = []
    for fname, tree in _trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for name, line in _imported(tree):
            if name not in read and (fname, name) not in EXEMPT_IMPORTS:
                unused.append(f"{fname}:{line} {name}")
    assert unused == []


def test_no_unreferenced_private_names():
    trees = _trees()
    used = set().union(*(_loaded_names(t) for t in trees.values()))
    dead = [f"{fname}:{line} {name}"
            for fname, tree in trees.items()
            for name, line in _private_definitions(tree)
            if name not in used]
    assert dead == []
