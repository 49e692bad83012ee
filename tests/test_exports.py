"""The package's declared names resolve.

Tools that walk a module's `__all__` with `getattr` (the benchmark's span
tracer among them) crash on a stale entry, so a deleted function must also
leave `__all__` and the package's re-exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ezmerton

# __main__ runs the CLI on import; every other submodule is a library module.
MODULES = sorted(m.name for m in pkgutil.iter_modules(ezmerton.__path__)
                 if m.name != "__main__")


def _reexports() -> list[tuple[str, str]]:
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(ezmerton.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"ezmerton.{module}")
    declared = getattr(mod, "__all__", [])
    assert len(declared) == len(set(declared))
    missing = [name for name in declared if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_resolve_and_are_declared():
    pairs = _reexports()
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"ezmerton.{module}")
        assert getattr(ezmerton, name) is getattr(mod, name)
        assert name in mod.__all__, f"{module}.{name} is re-exported but not in __all__"
