"""Layout guard: every function, class, method and module-level constant in
the package has a use.

A definition counts as used when some module of `src/coidem` names it outside
its own body (a call, an attribute access, an import, a registry entry).  A
top-level function, class or assigned name also counts as used when
`coidem/__init__.py` exports it; a method (dunders aside) must be named in
`src/`.  Helpers only the tests need live in `tests/oracles.py` instead.
"""

import ast
from collections import Counter
from pathlib import Path

import coidem

SRC = Path(coidem.__file__).resolve().parent


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _definitions(tree):
    """(node, name, exportable) for each top-level def, each top-level
    assigned name and each non-dunder method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, node.name, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                        yield node, sub.id, True
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("__"):
                    yield member, member.name, False


def test_every_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # every name mentioned in the package, __init__.py's exports aside
    mentions = Counter(
        name for fname, tree in trees.items() if fname != "__init__.py" for name in _names(tree)
    )
    unused = []
    for fname, tree in trees.items():
        for node, name, exportable in _definitions(tree):
            if exportable and name in exported:
                continue
            if mentions[name] - Counter(_names(node))[name] <= 0:
                unused.append(f"{fname}:{node.lineno} {name}")
    assert not unused, "defined but never used in src/coidem: " + ", ".join(unused)


def test_every_import_is_used():
    """Each name a module of `src/coidem` imports is named again in that module,
    so a helper's last caller cannot leave its import behind.  `__init__.py`
    imports only to export, and is the export list the test above reads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        named = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in named]
    assert not unused, "imported but never used: " + ", ".join(unused)
