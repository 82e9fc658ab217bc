"""The package's own source: no entry point that only the tests reach."""

import ast
from pathlib import Path

import discrep

PACKAGE = Path(discrep.__file__).resolve().parent


def _definitions(tree: ast.Module):
    """Each top-level function or class, and each method or property in a
    top-level class body, as (qualified name, name, node); dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """The names read as `ast.Name` or `ast.Attribute` in `tree`, outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_package_definition_has_a_package_reader():
    # a function, class, method or property that no package code reads and
    # `discrep/__init__.py` does not export serves only the tests: it
    # belongs in tests/oracles.py, or goes
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(modules["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for filename, tree in modules.items():
        for qualified, name, node in _definitions(tree):
            if name in exported:
                continue
            if not any(name in _references(other, skip=node) for other in modules.values()):
                unread.append(f"{filename}: {qualified}")
    assert unread == []
