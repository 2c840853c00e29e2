"""Dead-code guard for ``src/qbdtail``: no unused import, no private
module-level name or private method that nothing in the package refers to
(a helper that only tests call is dead too), no public function or method
that nothing in the package or its tests reads, no class field that
nothing reads as an attribute, no defaulted parameter that no call in the
package or its tests sets, no error type that nothing in the package
raises, no dense eigenvalue solve outside ``matcore`` and no ``np.kron``
beside ``matcore.kron_prod``.

Helpers left behind when their last caller is deleted fail here.  Only the
standard library's ``ast`` is used; the package's own ``from . import
errors`` in ``__init__`` is a deliberate re-export and is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbdtail"
TESTS = Path(__file__).resolve().parent
EXEMPT_IMPORTS = {("__init__.py", "errors")}


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _test_trees():
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(TESTS.glob("*.py"))]


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
    assignments, and of private methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                        and not fn.name.startswith("__")):
                    yield fn.name, fn.lineno
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


# -- public-name guard -----------------------------------------------------


def _public_definitions(tree):
    """(name, line, is_method) of module-level public functions and of
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs, method = [node], False
        elif isinstance(node, ast.ClassDef):
            funcs = [f for f in node.body if isinstance(f, ast.FunctionDef)]
            method = True
        else:
            continue
        for fn in funcs:
            if not fn.name.startswith("_"):
                yield fn.name, fn.lineno, method


def test_every_public_function_is_read_somewhere():
    """A public function or method that neither the package nor its tests
    read is dead code.  A function counts as read by name, attribute or
    ``from ... import``; a method only as an attribute, so a local variable
    of the same name does not keep it alive."""
    sources = list(_trees().values()) + _test_trees()
    read = set().union(*(_loaded_names(t) for t in sources))
    attributes = {node.attr for t in sources for node in ast.walk(t)
                  if isinstance(node, ast.Attribute)}
    dead = [f"{fname}:{line} {name}"
            for fname, tree in _trees().items()
            for name, line, method in _public_definitions(tree)
            if name not in (attributes if method else read)]
    assert dead == []


def test_every_result_field_is_read():
    """Every annotated field of a module-level class is read as an
    attribute somewhere in the package or its tests: a result field that
    nothing reads is dead code, like an unread public function.  Fields are
    matched by attribute name alone, so a field that shares its name with
    any other attribute read anywhere (``mf.kind``, ``args.seed``) escapes
    the check."""
    sources = list(_trees().values()) + _test_trees()
    read = {node.attr for t in sources for node in ast.walk(t)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    dead = [f"{fname}:{field.lineno} {node.name}.{field.target.id}"
            for fname, tree in _trees().items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for field in node.body
            if isinstance(field, ast.AnnAssign)
            and isinstance(field.target, ast.Name)
            and field.target.id not in read]
    assert dead == []


# -- knob guard ------------------------------------------------------------


def _defaulted_parameters(tree):
    """(callee key, parameter, positional index, line) of every parameter
    with a default in a module-level function or a method of a module-level
    class.  Nested functions are exempt: a default there usually binds a
    loop variable (``def line(v, axis=axis)``).  The index counts the
    positional arguments of a call, so a method's ``self`` is left out, and
    it is None for a keyword-only parameter.  A method's key is its name,
    ``Class.__init__`` for an ``__init__``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owner, funcs, skip = None, [node], 0
        elif isinstance(node, ast.ClassDef):
            owner, skip = node.name, 1
            funcs = [f for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for fn in funcs:
            key = f"{owner}.__init__" if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for k in range(first, len(positional)):
                yield key, positional[k].arg, k - skip, fn.lineno
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if d is not None:
                    yield key, a.arg, None, fn.lineno


def _calls(node, classes, forwarded=frozenset()):
    """(callee key, positional count, keyword names, unpacks) of every call
    under ``node``.  The key is the last name of the call target, or
    ``Class.__init__`` for a call to a package class.  ``unpacks`` is true
    when the call unpacks ``*`` or ``**`` anything but the enclosing
    function's own variadic parameters: plain forwarding passes only what
    the wrapper's callers passed, and those calls are counted themselves."""
    if isinstance(node, ast.FunctionDef):
        forwarded = {a.arg for a in (node.args.vararg, node.args.kwarg) if a}
    if isinstance(node, ast.Call):
        f = node.func
        name = getattr(f, "id", None) or getattr(f, "attr", None)
        if name is not None:
            def fresh(value):
                return not (isinstance(value, ast.Name) and value.id in forwarded)
            unpacks = (any(isinstance(a, ast.Starred) and fresh(a.value)
                           for a in node.args)
                       or any(k.arg is None and fresh(k.value)
                              for k in node.keywords))
            yield (f"{name}.__init__" if name in classes else name,
                   sum(not isinstance(a, ast.Starred) for a in node.args),
                   {k.arg for k in node.keywords}, unpacks)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, classes, forwarded)


def test_every_default_is_passed_somewhere():
    """Every defaulted parameter of a package function is set by some call
    in the package or its tests, by keyword, by position or by unpacking.
    A default that no caller sets is a fixed value: it belongs inline at
    its use, stated in the docstring, not in the signature."""
    trees = _trees()
    classes = {n.name for t in trees.values() for n in t.body
               if isinstance(n, ast.ClassDef)}
    sources = list(trees.values()) + _test_trees()
    sites = {}
    for tree in sources:
        for key, npos, keys, unpacks in _calls(tree, classes):
            sites.setdefault(key, []).append((npos, keys, unpacks))
    unset = [f"{fname}:{line} {key}({param})"
             for fname, tree in trees.items()
             for key, param, index, line in _defaulted_parameters(tree)
             if not any(unpacks or param in keys
                        or (index is not None and npos > index)
                        for npos, keys, unpacks in sites.get(key, []))]
    assert unset == []


# -- error guard -----------------------------------------------------------


def test_every_error_class_is_raised():
    """Every class of ``errors.py`` but the base ``QbdTailError`` appears
    in some ``raise`` of the package, so an error type left behind by a
    deleted code path fails here."""
    trees = _trees()
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    never = [node.name for node in trees["errors.py"].body
             if isinstance(node, ast.ClassDef)
             and node.name != "QbdTailError" and node.name not in raised]
    assert never == []


# -- eigenvalue guard --------------------------------------------------------


def test_dense_eigenvalue_solves_live_in_matcore():
    """``np.linalg.eig`` and ``eigvals`` are called only in ``matcore``,
    the one home for eigenvalues; other modules use its helpers."""
    found = [f"{fname}:{node.lineno} {node.attr}"
             for fname, tree in _trees().items() if fname != "matcore.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("eig", "eigvals")]
    assert found == []


def test_kronecker_products_use_the_one_kernel():
    """No ``np.kron`` anywhere in the package: every Kronecker product,
    ``kron_sum`` included, goes through ``matcore.kron_prod``."""
    found = [f"{fname}:{node.lineno}"
             for fname, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kron"]
    assert found == []
