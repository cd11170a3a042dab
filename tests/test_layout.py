"""Layout guard: every top-level function or class in the package has a use.

A definition counts as used when some module of `src/coidem` names it outside
its own body (a call, an attribute access, an import, a registry entry), or
when `coidem/__init__.py` exports it.  Helpers only the tests need live in
`tests/oracles.py` instead.
"""

import ast
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


def test_every_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # the names each top-level statement mentions, __init__.py's exports aside
    mentions = [
        (top, set(_names(top)))
        for fname, tree in trees.items()
        if fname != "__init__.py"
        for top in tree.body
    ]
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in names for top, names in mentions if top is not node):
                unused.append(f"{fname}:{node.lineno} {node.name}")
    assert not unused, "defined but never used in src/coidem: " + ", ".join(unused)
