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


ROOT = Path(__file__).resolve().parents[1]
#: Scripts outside the package that import it: the benchmark harness, which
#: this suite does not run, and the demos.
SCRIPTS = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("perfbench", "demos") for p in (ROOT / d).glob("*.py"))


def _package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every `from ezmerton... import name` anywhere in the
    file, and (module, None) for every `import ezmerton...`."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "ezmerton":
            pairs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "ezmerton"]
    return pairs


def test_scripts_are_found():
    assert "perfbench/workloads.py" in SCRIPTS and "demos/02_lattice_solver.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_resolve(script):
    # Static: the scripts are parsed, not run, so a name deleted from the
    # package fails here rather than when the benchmark or a demo runs.
    missing = []
    for module, name in _package_imports(ROOT / script):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert missing == []
