"""Source hygiene: every module uses each name it imports, every private
module-level definition is read somewhere in the package, every
attribute read from a sibling module exists, and ``fdlab.__all__`` lists
exactly what the package re-exports."""

import ast
import importlib
from pathlib import Path

import fdlab

PACKAGE_DIR = Path(fdlab.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module
    reads. ``__future__`` imports are directives, not bindings."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is not checked
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := _unused_imports(path.read_text()))
    }
    assert not unused, f"unused imports: {unused}"


def _private_definitions(node: ast.stmt) -> list[str]:
    """Private (single-underscore) names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [
            sub.id
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name)
        ]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _names_read(node: ast.AST) -> set[str]:
    """Names and attributes that ``node`` loads."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def test_every_private_definition_is_read():
    # A read inside the definition itself (recursion) does not count, so
    # a recursive helper nothing else calls is still reported.
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    reads = [_names_read(node) for _, node in statements]
    unread = [
        f"{module}: {name}"
        for index, (module, node) in enumerate(statements)
        for name in _private_definitions(node)
        if not any(name in r for other, r in enumerate(reads) if other != index)
    ]
    defined = sum(len(_private_definitions(node)) for _, node in statements)
    assert defined > 0
    assert not unread, f"private names nothing reads: {unread}"


def _module_attribute_loads(source: str) -> list[tuple[int, str, str]]:
    """(line, module, attribute) of every ``A.x`` load where ``A`` is bound
    by ``from . import M [as A]``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    return [
        (node.lineno, aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]


def test_sibling_module_attributes_exist():
    # A stale name (say a deleted IR class) in a rarely run branch would
    # otherwise surface only as an AttributeError at run time.
    loads = {
        path.name: _module_attribute_loads(path.read_text())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert sum(map(len, loads.values())) > 0
    missing = [
        f"{module_file}:{line}: {module}.{attr}"
        for module_file, found in loads.items()
        for line, module, attr in found
        if not hasattr(importlib.import_module(f"fdlab.{module}"), attr)
    ]
    assert not missing, f"attributes the imported module lacks: {missing}"


def test_exports_are_pinned():
    # A name removed from the package but left in __all__ breaks
    # ``from fdlab import *``; a re-export missing from it is invisible.
    exported = fdlab.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(fdlab, n)] == []
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported
    assert sorted(n for n in imported - set(exported) if not n.startswith("_")) == []
