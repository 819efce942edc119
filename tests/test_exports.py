"""Every name a quatkin module lists in __all__ exists, and the package root
re-exports only names its modules list there."""
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
