"""Every name a quatkin module lists in __all__ exists, the package root
re-exports only names its modules list there, and no other module imports a
name it never uses."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quatkin

MODULES = sorted(m.name for m in pkgutil.iter_modules(quatkin.__path__))


def root_imports():
    """(module, name) for each `from .module import name` in quatkin/__init__."""
    tree = ast.parse(Path(quatkin.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    # The root imports from a module only through its __all__; a module it
    # does not import from (the CLI, private helpers) may go without one.
    module = importlib.import_module(f"quatkin.{name}")
    if not hasattr(module, "__all__"):
        assert name not in {m for m, _ in root_imports()}, f"quatkin.{name} has no __all__"
        return
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"quatkin.{name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_root_imports_only_listed_names():
    imports = root_imports()
    unlisted = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"quatkin.{module}").__all__
    ]
    assert not unlisted, f"quatkin/__init__ imports names outside __all__: {unlisted}"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in its __all__
    counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_unused_import_is_found():
    source = """
import math
import numpy as np
from .linalg import I4, frobenius_norm

np.eye(frobenius_norm(1))
"""
    assert unused_imports(source) == ["I4", "math"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    path = Path(quatkin.__file__).with_name(f"{name}.py")
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"quatkin.{name} imports names it never uses: {unused}"
