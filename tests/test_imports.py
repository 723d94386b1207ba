"""Source hygiene: every module uses each name it imports."""

import ast
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
